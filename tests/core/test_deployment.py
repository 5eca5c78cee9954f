"""The deployer: Figure 1 wiring, teardown, and migration."""

import pytest

from repro import CloudProvider, tcb
from repro.apps.chat import ChatClient, ChatService, chat_manifest
from repro.apps.email import EmailClient, EmailService_, email_manifest
from repro.apps.iot import IotClient, SimulatedDevice, iot_manifest
from repro.cloud.iam import Principal
from repro.core.deployment import Deployer
from repro.crypto.envelope import EnvelopeEncryptor
from repro.crypto.keys import KeyPair
from repro.errors import AccessDenied, ConfigurationError, NoSuchFunction
from repro.net.address import EU_WEST_1
from repro.plan import DeploymentPlan
from repro.protocols.mime import Address, EmailMessage
from repro.runtime.store import STORAGE_BACKENDS


def _leftover_queues(provider, app):
    """Every queue still named ``{instance}-*`` on ``provider``."""
    return provider.sqs.list_queues(f"{app.instance_name}-")


def _mail(subject: str) -> bytes:
    return EmailMessage(
        Address("bob@example.com"), (Address("carol@carol.diy"),), subject, "body"
    ).serialize()


class TestDeploy:
    def test_creates_all_resources(self, provider, chat_app):
        assert provider.kms.key_exists(chat_app.key_id)
        assert provider.s3.bucket_exists(f"{chat_app.instance_name}-state")
        assert chat_app.function_names == (f"{chat_app.instance_name}-handler",)
        provider.lambda_.get_function(chat_app.function_names[0])

    def test_routes_registered(self, provider, chat_app):
        assert f"/{chat_app.instance_name}/bosh" in chat_app.routes

    def test_function_gets_least_privilege(self, provider, chat_app):
        role = provider.iam.get_role(chat_app.role_name)
        principal = Principal("fn", role)
        own_bucket = f"arn:diy:s3:::{chat_app.instance_name}-state/x"
        assert provider.iam.is_allowed(principal, "s3:GetObject", own_bucket)
        # Another user's bucket is out of reach.
        assert not provider.iam.is_allowed(
            principal, "s3:GetObject", "arn:diy:s3:::diy-chat-bob-state/x"
        )
        # So is deleting its own objects (not granted by the manifest).
        assert not provider.iam.is_allowed(principal, "s3:DeleteObject", own_bucket)

    def test_two_users_are_isolated(self, provider, deployer):
        alice = deployer.deploy(chat_manifest(), owner="alice")
        bob = deployer.deploy(chat_manifest(), owner="bob")
        assert alice.key_id != bob.key_id
        assert set(alice.bucket_names).isdisjoint(bob.bucket_names)

    def test_instance_name_override(self, provider, deployer):
        app = deployer.deploy(chat_manifest(), owner="x", instance_name="myteam")
        assert app.instance_name == "myteam"

    def test_region_placement(self, provider, deployer):
        app = deployer.deploy(chat_manifest(), owner="x", region=EU_WEST_1)
        assert app.regions_holding_data() == [EU_WEST_1]


class TestTeardown:
    def test_teardown_removes_everything(self, provider, deployer, chat_app, root):
        provider.s3.put_object(root, f"{chat_app.instance_name}-state", "k", b"v")
        deployer.teardown(chat_app)
        assert not provider.s3.bucket_exists(f"{chat_app.instance_name}-state")
        with pytest.raises(NoSuchFunction):
            provider.lambda_.invoke(chat_app.function_names[0], {})
        assert not provider.kms.key_exists(chat_app.key_id)

    @pytest.mark.parametrize("storage", STORAGE_BACKENDS)
    def test_teardown_removes_chat_inboxes(self, provider, deployer, storage):
        app = deployer.deploy(chat_manifest(plan=DeploymentPlan(storage=storage)), owner="alice")
        service = ChatService(app)
        service.create_room("room", ["alice@diy", "bob@diy"])
        alice = ChatClient(service, "alice@diy")
        alice.join("room")
        alice.connect()
        alice.send("room", "never polled")
        deployer.teardown(app)
        for member in ("alice", "bob"):
            assert not provider.sqs.queue_exists(service.inbox_queue(member))
        assert _leftover_queues(provider, app) == []

    @pytest.mark.parametrize("storage", STORAGE_BACKENDS)
    def test_teardown_removes_device_queues(self, provider, deployer, storage):
        app = deployer.deploy(iot_manifest(plan=DeploymentPlan(storage=storage)), owner="fred")
        lamp = SimulatedDevice(app, "lamp")
        IotClient(app).send_command("lamp", "toggle")
        deployer.teardown(app)
        assert not provider.sqs.queue_exists(lamp.command_queue)
        assert _leftover_queues(provider, app) == []

    def test_teardown_wrong_provider_rejected(self, chat_app):
        from repro.errors import DeploymentError

        other = Deployer(CloudProvider(name="other", seed=9))
        with pytest.raises(DeploymentError):
            other.teardown(chat_app)


class TestUserControls:
    def test_delete_all_data(self, provider, chat_app, root):
        bucket = f"{chat_app.instance_name}-state"
        provider.s3.put_object(root, bucket, "a", b"1")
        provider.s3.put_object(root, bucket, "b", b"2")
        assert chat_app.delete_all_data() == 2
        assert chat_app.stored_object_count() == 0
        assert not provider.kms.key_exists(chat_app.key_id)

    def test_export_returns_ciphertext(self, provider, chat_app, root):
        bucket = f"{chat_app.instance_name}-state"
        provider.s3.put_object(root, bucket, "k", b"ciphertext-blob")
        export = chat_app.export_data()
        assert export == {f"{bucket}/k": b"ciphertext-blob"}


class TestMigration:
    def test_migrate_moves_encrypted_state(self, provider, deployer, chat_app, root):
        # Store a real envelope-encrypted object under the app's key.
        encryptor = EnvelopeEncryptor(
            provider.kms.key_provider(root, chat_app.key_id)
        )
        blob = encryptor.encrypt_bytes(b"room history", aad=b"")
        bucket = f"{chat_app.instance_name}-state"
        provider.s3.put_object(root, bucket, "rooms/r/history/1", blob)

        target = CloudProvider(name="other-cloud", seed=99, region=EU_WEST_1)
        migrated = deployer.migrate(chat_app, target)

        # Old provider no longer has the deployment.
        assert not provider.s3.bucket_exists(bucket)
        # New provider can decrypt via its own KMS.
        moved = target.s3.get_object(root, bucket, "rooms/r/history/1").data
        new_encryptor = EnvelopeEncryptor(
            target.kms.key_provider(root, migrated.key_id)
        )
        with tcb.zone(tcb.Zone.CONTAINER, "fn"):
            assert new_encryptor.decrypt_bytes(moved, aad=b"") == b"room history"

    @pytest.mark.parametrize("storage", STORAGE_BACKENDS)
    def test_migrate_moves_inboxes_and_queued_messages(self, provider, deployer, storage):
        app = deployer.deploy(chat_manifest(plan=DeploymentPlan(storage=storage)), owner="alice")
        service = ChatService(app)
        service.create_room("room", ["alice@diy", "bob@diy"])
        alice = ChatClient(service, "alice@diy")
        bob = ChatClient(service, "bob@diy")
        for client in (alice, bob):
            client.join("room")
            client.connect()
        alice.send("room", "delivered before the move")
        assert [m.body for m in bob.poll()] == ["delivered before the move"]
        alice.send("room", "queued across the move")

        target = CloudProvider(name="other-cloud", seed=99, region=EU_WEST_1)
        migrated = deployer.migrate(app, target)

        new_service = ChatService(migrated)
        new_alice = ChatClient(new_service, "alice@diy")
        new_bob = ChatClient(new_service, "bob@diy")
        for client in (new_alice, new_bob):
            client.join("room")
            client.connect()
        new_alice.send("room", "sent after the move")
        received = []
        for _ in range(4):
            received += [m.body for m in new_bob.poll()]
        assert received == ["queued across the move", "sent after the move"]
        assert _leftover_queues(provider, app) == []

    @pytest.mark.parametrize("storage", STORAGE_BACKENDS)
    def test_migrate_email_keeps_the_clear_public_key(self, provider, deployer, storage):
        app = deployer.deploy(email_manifest(plan=DeploymentPlan(storage=storage)), owner="carol")
        keys = KeyPair.generate(provider.rng.child("carol-keys").randbytes)
        EmailService_(app, keys, domain="carol.diy")
        provider.ses.deliver_inbound("carol.diy", _mail("before the move"))

        target = CloudProvider(name="other-cloud", seed=99, region=EU_WEST_1)
        migrated = deployer.migrate(app, target)
        assert provider.lambda_.function_names() == []
        assert not any(provider.s3.bucket_exists(b) for b in app.bucket_names)

        service = EmailService_(migrated, keys, domain="carol.diy")
        target.ses.deliver_inbound("carol.diy", _mail("after the move"))
        subjects = [e.message.subject for e in EmailClient(service).fetch_folder("inbox")]
        assert sorted(subjects) == ["after the move", "before the move"]

    def test_migration_never_ships_plaintext(self, provider, deployer, chat_app, root):
        encryptor = EnvelopeEncryptor(provider.kms.key_provider(root, chat_app.key_id))
        secret = b"extremely private room history"
        bucket = f"{chat_app.instance_name}-state"
        provider.s3.put_object(root, bucket, "k", encryptor.encrypt_bytes(secret))

        target = CloudProvider(name="other", seed=5)
        captured = []
        provider.fabric.add_sniffer(lambda t: captured.append(t.payload))
        deployer.migrate(chat_app, target)
        assert captured, "migration should cross the network"
        assert all(secret not in payload for payload in captured)
