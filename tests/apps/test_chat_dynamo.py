"""The DynamoDB chat backend (the paper's low-latency footnote)."""

import pytest

from repro.apps.chat import ChatClient, ChatService, chat_manifest
from repro.core.threatmodel import PrivacyAuditor
from repro.plan import DeploymentPlan


@pytest.fixture
def dynamo_service(provider, deployer):
    app = deployer.deploy(chat_manifest(plan=DeploymentPlan(storage="dynamo")), owner="alice")
    service = ChatService(app)
    service.create_room("room", ["alice@diy", "bob@diy"])
    return service


def _client(service, jid):
    client = ChatClient(service, jid)
    client.join("room")
    client.connect()
    return client


class TestDynamoBackend:
    def test_manifest_declares_table_not_bucket(self):
        manifest = chat_manifest(plan=DeploymentPlan(storage="dynamo"))
        assert manifest.tables == ("kv",)
        assert manifest.buckets == ()

    def test_storage_property(self, dynamo_service):
        assert dynamo_service.storage == "dynamo"

    def test_messaging_works(self, dynamo_service):
        alice = _client(dynamo_service, "alice@diy")
        bob = _client(dynamo_service, "bob@diy")
        alice.send("room", "over dynamo")
        assert [m.body for m in bob.poll()] == ["over dynamo"]

    def test_history_works(self, dynamo_service):
        alice = _client(dynamo_service, "alice@diy")
        for text in ("a", "b", "c"):
            alice.send("room", text)
        assert [s.body for s in alice.fetch_history("room")] == ["a", "b", "c"]

    def test_roster_round_trip(self, dynamo_service):
        assert dynamo_service.room_roster("room") == ["alice@diy", "bob@diy"]

    def test_state_is_ciphertext_in_the_table(self, provider, dynamo_service):
        alice = _client(dynamo_service, "alice@diy")
        alice.send("room", "table-resident secret")
        for _key, value in provider.dynamo.raw_scan(dynamo_service.state_table):
            assert b"table-resident secret" not in value

    def test_privacy_audit_clean(self, provider, dynamo_service):
        auditor = PrivacyAuditor(provider)
        auditor.protect(b"dynamo private message")
        alice = _client(dynamo_service, "alice@diy")
        bob = _client(dynamo_service, "bob@diy")
        alice.send("room", "dynamo private message")
        assert bob.poll()[0].body == "dynamo private message"
        assert auditor.findings(
            tables=[dynamo_service.state_table],
            queues=[dynamo_service.inbox_queue("alice"),
                    dynamo_service.inbox_queue("bob")],
        ) == []


class TestLatencyComparison:
    def test_dynamo_backend_is_faster(self, provider, deployer):
        """The footnote's point: KV state shaves the S3 call latency."""
        from repro import CloudProvider
        from repro.core.deployment import Deployer

        def median_run(storage: str) -> float:
            cloud = CloudProvider(seed=13)
            app = Deployer(cloud).deploy(
                chat_manifest(plan=DeploymentPlan(storage=storage)), owner="alice",
                instance_name=f"chat-{storage}",
            )
            service = ChatService(app)
            service.create_room("r", ["alice@diy", "bob@diy"])
            alice = ChatClient(service, "alice@diy")
            alice.join("r")
            alice.connect()
            for i in range(15):
                alice.send("r", f"m{i}")
            name = f"{app.instance_name}-handler"
            return cloud.lambda_.metrics.get(f"{name}.run_ms").median()

        assert median_run("dynamo") < median_run("s3")
