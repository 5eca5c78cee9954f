"""Every app's core behavior on both storage backends.

The kernel makes the state backend one plan field; these tests run each app's happy path with state on S3 and
again on DynamoDB and expect identical observable behavior.
"""

import json

import pytest

from repro.plan import DeploymentPlan
from repro.runtime.store import STORAGE_BACKENDS

BACKENDS = pytest.mark.parametrize("storage", STORAGE_BACKENDS)


@BACKENDS
class TestChat:
    def test_send_and_poll(self, provider, deployer, storage):
        from repro.apps.chat import ChatClient, ChatService, chat_manifest

        app = deployer.deploy(chat_manifest(plan=DeploymentPlan(storage=storage)), owner="alice",
                              instance_name=f"chat-{storage}")
        service = ChatService(app)
        service.create_room("r", ["alice@diy", "bob@diy"])
        alice = ChatClient(service, "alice@diy")
        bob = ChatClient(service, "bob@diy")
        for client in (alice, bob):
            client.join("r")
            client.connect()
        alice.send("r", "hello")
        assert [m.body for m in bob.poll()] == ["hello"]


@BACKENDS
class TestEmail:
    def test_send_and_read_back_the_sent_copy(self, provider, deployer, storage):
        from repro.apps.email import EmailClient, EmailService_, email_manifest
        from repro.crypto.keys import KeyPair
        from repro.protocols.mime import Address, EmailMessage

        keys = KeyPair.generate(provider.rng.child("carol-keys").randbytes)
        app = deployer.deploy(email_manifest(plan=DeploymentPlan(storage=storage)), owner="carol",
                              instance_name=f"email-{storage}")
        client = EmailClient(EmailService_(app, keys, domain="carol.diy"))
        client.send(EmailMessage(
            Address("carol@carol.diy"), (Address("bob@example.com"),),
            "Hi", "Wish you were here.",
        ))
        assert len(provider.ses.outbox) == 1
        sent = client.fetch_folder("sent")
        assert len(sent) == 1
        assert sent[0].message.subject == "Hi"


@BACKENDS
class TestFileTransfer:
    def test_round_trip_and_cleanup(self, provider, deployer, storage):
        from repro.apps.filetransfer import FileTransferClient, file_transfer_manifest

        app = deployer.deploy(file_transfer_manifest(plan=DeploymentPlan(storage=storage)), owner="dana",
                              instance_name=f"xfer-{storage}")
        sender = FileTransferClient(app, "dana", chunk_bytes=1024)
        receiver = FileTransferClient(app, "eli", chunk_bytes=1024)
        payload = b"0123456789abcdef" * 200  # 3200 bytes -> 4 chunks
        ticket = sender.send_file("f.bin", "eli", payload)
        assert receiver.download(ticket) == payload
        assert receiver.acknowledge(ticket) > 0


@BACKENDS
class TestIot:
    def test_commands_and_dashboard(self, provider, deployer, storage):
        from repro.apps.iot import IotClient, SimulatedDevice, iot_manifest

        app = deployer.deploy(iot_manifest(plan=DeploymentPlan(storage=storage)), owner="fred",
                              instance_name=f"iot-{storage}")
        client = IotClient(app)
        lamp = SimulatedDevice(app, "lamp", state={"power": False})
        client.send_command("lamp", "toggle")
        assert len(lamp.poll_commands()) == 1
        dashboard = client.dashboard()
        assert dashboard["queries_per_device"] == {"lamp": 1}


@BACKENDS
class TestVideoSignaling:
    def test_create_and_fetch_call(self, provider, deployer, storage):
        from repro.apps.video import video_manifest
        from repro.core.client import open_channel
        from repro.net.http import HttpRequest

        app = deployer.deploy(video_manifest(plan=DeploymentPlan(storage=storage)), owner="ann",
                              instance_name=f"video-{storage}")
        channel = open_channel(provider, "ann-device")
        base = f"/{app.instance_name}/signal"
        created = channel.request(HttpRequest(
            "POST", f"{base}/create", {},
            json.dumps({"participants": ["ann", "ben"]}).encode(),
        ))
        assert created.ok
        call_id = json.loads(created.body)["call_id"]
        fetched = channel.request(HttpRequest("GET", f"{base}/{call_id}"))
        assert json.loads(fetched.body)["participants"] == ["ann", "ben"]

