"""The §8.1 app store: publish → review → install → account → uninstall."""

import pytest

from repro.apps.chat import chat_manifest
from repro.apps.iot import iot_manifest
from repro.core.appstore import AppStore
from repro.errors import AppStoreError
from repro.units import ZERO


@pytest.fixture
def store(provider):
    return AppStore(provider)


@pytest.fixture
def listed_chat(store):
    listing = store.publish(chat_manifest(), developer="chat-startup")
    store.review(listing.listing_id, approve=True)
    return listing


class TestPublishing:
    def test_publish_measures_functions(self, store):
        listing = store.publish(chat_manifest(), developer="dev")
        assert len(listing.measurements) == 1
        assert len(listing.measurements[0]) == 32

    def test_unreviewed_apps_not_in_catalog(self, store):
        store.publish(chat_manifest(), developer="dev")
        assert store.catalog() == []

    def test_review_lists_app(self, store, listed_chat):
        assert [l.listing_id for l in store.catalog()] == ["diy-chat@1.0.0"]

    def test_duplicate_version_rejected(self, store, listed_chat):
        with pytest.raises(AppStoreError):
            store.publish(chat_manifest(), developer="dev2")

    def test_rejected_review_not_installable(self, store):
        store.publish(iot_manifest(), developer="dev")
        store.review("diy-iot@1.0.0", approve=False)
        with pytest.raises(AppStoreError):
            store.install("diy-iot", user="alice")


class TestInstall:
    def test_one_click_install_deploys(self, provider, store, listed_chat):
        record = store.install("diy-chat", user="alice")
        assert provider.kms.key_exists(record.app.key_id)
        assert record.app.owner == "alice"

    def test_double_install_rejected(self, store, listed_chat):
        store.install("diy-chat", user="alice")
        with pytest.raises(AppStoreError):
            store.install("diy-chat", user="alice")

    def test_two_users_get_separate_instances(self, store, listed_chat):
        a = store.install("diy-chat", user="alice")
        b = store.install("diy-chat", user="bob")
        assert a.app.instance_name != b.app.instance_name
        assert a.app.key_id != b.app.key_id

    def test_unknown_app_rejected(self, store):
        with pytest.raises(AppStoreError):
            store.install("diy-ghost", user="alice")


class TestUpdateAndUninstall:
    def test_update_preserves_data_and_key(self, provider, store, listed_chat, root):
        record = store.install("diy-chat", user="alice")
        bucket = f"{record.app.instance_name}-state"
        provider.s3.put_object(root, bucket, "k", b"precious")

        import dataclasses

        v2 = dataclasses.replace(chat_manifest(), version="1.1.0")
        store.review(store.publish(v2, developer="chat-startup").listing_id)
        updated = store.update("diy-chat", user="alice")
        assert updated.listing.manifest.version == "1.1.0"
        assert updated.app.key_id == record.app.key_id
        assert provider.s3.get_object(root, bucket, "k").data == b"precious"

    def test_update_to_same_version_is_noop(self, store, listed_chat):
        record = store.install("diy-chat", user="alice")
        assert store.update("diy-chat", user="alice") is record

    def test_uninstall_deletes_data(self, provider, store, listed_chat, root):
        record = store.install("diy-chat", user="alice")
        bucket = f"{record.app.instance_name}-state"
        provider.s3.put_object(root, bucket, "k", b"v")
        store.uninstall("diy-chat", user="alice")
        assert not provider.s3.bucket_exists(bucket)
        assert store.installed_apps("alice") == []

    def test_uninstall_unknown_rejected(self, store):
        with pytest.raises(AppStoreError):
            store.uninstall("diy-chat", user="alice")


class TestResourceAccounting:
    def test_report_covers_installed_apps(self, store, listed_chat):
        store.review(store.publish(iot_manifest(), developer="iot-co").listing_id)
        store.install("diy-chat", user="alice")
        store.install("diy-iot", user="alice")
        report = store.resource_report("alice")
        assert set(report) == {"diy-chat", "diy-iot"}
        assert report["diy-chat"]["regions"] == ["us-west-2"]

    def test_usage_attributed_per_app(self, provider, store, listed_chat):
        from repro.apps.chat import ChatClient, ChatService

        record = store.install("diy-chat", user="alice")
        service = ChatService(record.app)
        service.create_room("r", ["alice@diy", "bob@diy"])
        client = ChatClient(service, "alice@diy")
        client.join("r")
        client.connect()
        client.send("r", "hello")
        usage = record.app.resource_usage()
        assert usage.get("lambda.requests", 0) >= 2  # session + message
        assert record.app.monthly_cost() > ZERO

    def test_total_monthly_cost_sums(self, store, listed_chat):
        store.install("diy-chat", user="alice")
        assert store.total_monthly_cost("alice") == ZERO  # no usage yet


class TestUpdateKeepsThePlan:
    def test_update_keeps_the_deployed_plan(self):
        import dataclasses

        from repro import CloudProvider
        from repro.apps.chat import ChatClient, ChatService
        from repro.plan import DeploymentPlan
        from repro.runtime.store import STORAGE_ENV

        provider = CloudProvider(name="aws-sim", seed=1234,
                                 plan=DeploymentPlan(storage="dynamo"))
        store = AppStore(provider)
        v1 = chat_manifest(plan=provider.plan)
        store.review(store.publish(v1, developer="chat-startup").listing_id)
        record = store.install("diy-chat", user="alice")
        service = ChatService(record.app)
        service.create_room("room", ["alice@diy", "bob@diy"])

        v2 = dataclasses.replace(v1, version="1.1.0")
        store.review(store.publish(v2, developer="chat-startup").listing_id)
        updated = store.update("diy-chat", user="alice")

        config = provider.lambda_.get_function(updated.app.function_names[0])
        assert config.environment[STORAGE_ENV] == "dynamo"
        assert config.footprint_mb == 17
        service = ChatService(updated.app)
        alice = ChatClient(service, "alice@diy")
        bob = ChatClient(service, "bob@diy")
        for client in (alice, bob):
            client.join("room")
            client.connect()
        alice.send("room", "after the update")
        assert [m.body for m in bob.poll()] == ["after the update"]


class TestCodeMeasurements:
    """Each app's listing measures the code it actually runs."""

    def test_kernel_apps_measure_differently(self):
        from repro.apps.email import email_manifest
        from repro.core.attestation import measure_function

        chat = chat_manifest().functions[0].handler
        inbound = email_manifest().functions[0].handler
        assert measure_function(chat) != measure_function(inbound)

    def test_two_builds_of_one_manifest_measure_the_same(self):
        from repro.core.attestation import measure_function

        first = chat_manifest().functions[0].handler
        second = chat_manifest().functions[0].handler
        assert first is not second
        assert measure_function(first) == measure_function(second)

    def test_framework_apps_differing_in_one_view_measure_differently(self):
        from repro.core.attestation import measure_function
        from repro.core.framework import DiyWebApp, TextResponse

        plain, shouting = DiyWebApp("greeter"), DiyWebApp("greeter")

        @plain.route("GET", "/hello")
        def hello(request):
            return TextResponse("hello")

        @shouting.route("GET", "/hello")
        def hello_loud(request):
            return TextResponse("HELLO")

        assert (measure_function(plain.manifest().functions[0].handler)
                != measure_function(shouting.manifest().functions[0].handler))
