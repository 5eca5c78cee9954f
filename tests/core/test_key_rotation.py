"""Master-key rotation: §3.3's key control, end to end."""

import pytest

from repro.apps.chat import ChatClient, ChatService, chat_manifest
from repro.cloud.iam import Principal
from repro.errors import KeyNotFound
from repro.plan import DeploymentPlan
from repro.runtime.store import STORAGE_BACKENDS


@pytest.fixture
def chatting(provider, chat_room):
    alice = ChatClient(chat_room, "alice@diy")
    bob = ChatClient(chat_room, "bob@diy")
    for client in (alice, bob):
        client.join("room")
        client.connect()
    alice.send("room", "pre-rotation message")
    bob.poll()
    return alice, bob


class TestRotation:
    def test_old_key_is_revoked(self, provider, chat_room, chatting):
        old_key = chat_room.app.key_id
        new_key = chat_room.app.rotate_key()
        assert new_key != old_key
        assert not provider.kms.key_exists(old_key)
        assert provider.kms.key_exists(new_key)

    def test_history_survives_rotation(self, provider, chat_room, chatting):
        alice, _bob = chatting
        chat_room.app.rotate_key()
        history = alice.fetch_history("room")
        assert [s.body for s in history] == ["pre-rotation message"]

    def test_messaging_continues_after_rotation(self, provider, chat_room, chatting):
        alice, bob = chatting
        chat_room.app.rotate_key()
        alice.send("room", "post-rotation message")
        assert [m.body for m in bob.poll()] == ["post-rotation message"]

    def test_new_writes_use_the_new_key(self, provider, chat_room, chatting):
        alice, _bob = chatting
        new_key = chat_room.app.rotate_key()
        alice.send("room", "fresh")
        from repro.crypto.envelope import EncryptedBlob

        bucket = f"{chat_room.app.instance_name}-state"
        key_ids = set()
        for _key, raw in provider.s3.raw_scan(bucket):
            try:
                key_ids.add(EncryptedBlob.deserialize(raw).data_key.master_key_id)
            except Exception:
                continue
        # Old *versions* remain under the old id (S3 versioning), but
        # every current object and the fresh write use the new key.
        current_ids = set()
        for key in provider.s3.list_objects(chatting[0]._principal, bucket):
            raw = provider.s3.get_object(chatting[0]._principal, bucket, key).data
            current_ids.add(EncryptedBlob.deserialize(raw).data_key.master_key_id)
        assert current_ids == {new_key}

    def test_stolen_prerotation_ciphertext_is_dead(self, provider, chat_room, chatting):
        """An attacker who exfiltrated ciphertext before rotation cannot
        use the (now revoked) old key even with a compromised zone."""
        bucket = f"{chat_room.app.instance_name}-state"
        stolen = [raw for _k, raw in provider.s3.raw_scan(bucket)]
        chat_room.app.rotate_key()
        from repro import tcb
        from repro.cloud.iam import Principal
        from repro.crypto.envelope import EncryptedBlob

        blob = EncryptedBlob.deserialize(stolen[-1])
        with tcb.zone(tcb.Zone.CONTAINER, "attacker"):
            with pytest.raises(KeyNotFound):
                provider.kms.decrypt_data_key(Principal("root", None), blob.data_key)


    def test_an_object_that_only_looks_like_an_envelope_passes_through(
            self, provider, chat_room, chatting):
        app = chat_room.app
        bucket = f"{app.instance_name}-state"
        lookalike = b"DIY1" + b"\x02\x00\xff\xfe" + b"\x00\x00" + bytes(40)
        provider.s3.put_object(Principal(f"owner:{app.owner}", None), bucket, "odd", lookalike)
        new_key = app.rotate_key()
        assert provider.s3.get_object(chatting[0]._principal, bucket, "odd").data == lookalike
        assert [s.body for s in chatting[0].fetch_history("room")] == ["pre-rotation message"]
        assert app.key_id == new_key


class TestDynamoRotation:
    def test_rotation_covers_table_state(self, provider, deployer):
        app = deployer.deploy(chat_manifest(plan=DeploymentPlan(storage="dynamo")), owner="alice")
        service = ChatService(app)
        service.create_room("r", ["alice@diy", "bob@diy"])
        alice = ChatClient(service, "alice@diy")
        alice.join("r")
        alice.connect()
        alice.send("r", "table message")
        app.rotate_key()
        assert [s.body for s in alice.fetch_history("r")] == ["table message"]


class TestQueuedMessageRotation:
    @pytest.mark.parametrize("storage", STORAGE_BACKENDS)
    def test_queued_message_survives_rotation(self, provider, deployer, storage):
        app = deployer.deploy(chat_manifest(plan=DeploymentPlan(storage=storage)), owner="alice")
        service = ChatService(app)
        service.create_room("r", ["alice@diy", "bob@diy"])
        alice = ChatClient(service, "alice@diy")
        bob = ChatClient(service, "bob@diy")
        for client in (alice, bob):
            client.join("r")
            client.connect()
        alice.send("r", "queued before rotation")
        app.rotate_key()
        assert [m.body for m in bob.poll()] == ["queued before rotation"]
