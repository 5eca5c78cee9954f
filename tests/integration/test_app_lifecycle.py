"""Every app through its whole life, across the plan space (DESIGN §5).

Each example deploys one app at a drawn :class:`DeploymentPlan` and runs
deploy → use → ``rotate_key`` → use → store ``update`` → use →
``migrate`` → use → ``teardown``.
Every use serves real requests and leaves something behind for the next
step to read back: a queued chat message, a queued IoT command, an
offered file, a delivered mail, a call record, a stored note. So rotation and migration
must carry objects, items and queued messages alike. After each step:

* the internal attacker finds no plaintext in the app's buckets, queues
  (run-time ones included) and tables, nor on either provider's wire;
* every function carries the plan's storage backend, and its Lambda
  size follows ``AppKernel.manifest``'s rule: the plan's ``memory_mb``
  when it is set and the function is ``memory_scaled``, otherwise the
  declared size;

and after teardown nothing named ``{instance}-*`` is left: no bucket,
table, queue, function or gateway route, and no relay VM.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro import CloudProvider
from repro.apps.chat import ChatClient, ChatService, chat_manifest
from repro.apps.chat.server import CHAT_SPEC
from repro.apps.email import EmailClient, EmailService_, email_manifest
from repro.apps.email.server import EMAIL_SPEC
from repro.apps.filetransfer import FileTransferClient, file_transfer_manifest
from repro.apps.filetransfer.server import XFER_SPEC
from repro.apps.iot import IotClient, SimulatedDevice, iot_manifest
from repro.apps.iot.server import IOT_SPEC
from repro.apps.video import video_manifest
from repro.apps.video.manifest import VIDEO_SPEC
from repro.core.client import open_channel
from repro.core.deployment import Deployer
from repro.core.framework import DiyWebApp, JsonResponse, TextResponse
from repro.core.threatmodel import PrivacyAuditor
from repro.crypto.keys import KeyPair
from repro.errors import NoSuchFunction, NoSuchInstance, NoSuchTable
from repro.net.address import EU_WEST_1
from repro.net.http import HttpRequest
from repro.plan import DeploymentPlan
from repro.protocols.mime import Address, EmailMessage
from repro.runtime.store import STORAGE_BACKENDS, STORAGE_ENV

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "sim"))
from test_plan_field import plans  # noqa: E402

STEPS = 4  # uses: after deploy, after rotate_key, after update, after migrate


def _secret(app_id: str, step: int) -> str:
    return f"{app_id} secret number {step}"


def _declared(spec):
    """Each function's declared Lambda size, and whether the plan's size overrides it."""
    return {fn.suffix: (fn.memory_mb, fn.memory_scaled) for fn in spec.functions}


class Chat:
    """Alice and bob share a room; bob's reply waits in alice's inbox."""

    declared = _declared(CHAT_SPEC)

    def manifest(self, plan):
        return chat_manifest(plan=plan)

    def attach(self, app):
        first = not hasattr(self, "service")
        self.service = ChatService(app)
        if first:  # the room, its roster and inboxes move with the app
            self.service.create_room("room", ["alice@diy", "bob@diy"])

    def use(self, step):
        alice = ChatClient(self.service, "alice@diy")
        bob = ChatClient(self.service, "bob@diy")
        for client in (alice, bob):
            client.join("room")
            client.connect()
        waiting = [m.body for m in alice.poll()]
        assert waiting == ([f"reply {step - 1}"] if step else [])
        alice.send("room", _secret("chat", step))
        assert [m.body for m in bob.poll()] == [_secret("chat", step)]
        bob.send("room", f"reply {step}")


class Email:
    """Mail delivered at each step stays readable at every later one."""

    declared = _declared(EMAIL_SPEC)

    def manifest(self, plan):
        return email_manifest(plan)

    def attach(self, app):
        if not hasattr(self, "keys"):
            self.keys = KeyPair.generate(app.provider.rng.child("carol-keys").randbytes)
        self.service = EmailService_(app, self.keys, domain="carol.diy")

    def use(self, step):
        mail = EmailMessage(
            Address("bob@example.com"), (Address("carol@carol.diy"),),
            f"subject {step}", _secret("email", step),
        )
        self.service.provider.ses.deliver_inbound("carol.diy", mail.serialize())
        bodies = [e.message.body for e in EmailClient(self.service).fetch_folder("inbox")]
        assert sorted(bodies) == [_secret("email", s) for s in range(step + 1)]


class Iot:
    """A command sent at each step waits in the lamp's queue for the next."""

    declared = _declared(IOT_SPEC)

    def manifest(self, plan):
        return iot_manifest(plan)

    def attach(self, app):
        self.app = app

    def use(self, step):
        lamp = SimulatedDevice(self.app, "lamp")
        home = IotClient(self.app)
        waiting = [c["values"]["code"] for c in lamp.poll_commands(wait_seconds=1)]
        assert waiting == ([_secret("iot", step - 1)] if step else [])
        assert lamp.report_telemetry(temp=20 + step) == []
        home.send_command("lamp", "set", code=_secret("iot", step))


class FileTransfer:
    """A file offered at each step is downloaded at the next."""

    declared = _declared(XFER_SPEC)

    def manifest(self, plan):
        return file_transfer_manifest(plan)

    def attach(self, app):
        self.sender = FileTransferClient(app, "dana", chunk_bytes=16)
        self.receiver = FileTransferClient(app, "eli", chunk_bytes=16)

    def use(self, step):
        if step:
            assert self.receiver.download(self.ticket) == _secret("xfer", step - 1).encode()
        data = _secret("xfer", step).encode()
        self.ticket = self.sender.send_file(f"f{step}", "eli", data)


class Video:
    """Signaling records stay readable; the relay VM moves with the app."""

    declared = _declared(VIDEO_SPEC)

    def manifest(self, plan):
        return video_manifest(plan)

    def attach(self, app):
        self.channel = open_channel(app.provider, "ann-device")
        self.base = f"/{app.instance_name}/signal"
        self.calls = getattr(self, "calls", [])

    def use(self, step):
        created = self.channel.request(HttpRequest(
            "POST", f"{self.base}/create", {},
            json.dumps({"participants": ["ann", "ben"], "topic": _secret("video", step)}).encode(),
        ))
        self.calls.append(json.loads(created.body)["call_id"])
        for call_id in self.calls:
            fetched = self.channel.request(HttpRequest("GET", f"{self.base}/{call_id}"))
            assert json.loads(fetched.body)["participants"] == ["ann", "ben"]


def _notes_app() -> DiyWebApp:
    app = DiyWebApp("notesapp")

    @app.route("POST", "/notes")
    def create(request):
        return JsonResponse({"id": request.store.put("note", request.text)}, status=201)

    @app.route("GET", "/notes/<note_id>")
    def show(request):
        return TextResponse(request.store.get("note", request.params["note_id"]))

    return app


class Notes:
    """A framework app: every note written so far reads back."""

    declared = {"web": (_notes_app().memory_mb, True)}  # one memory-scaled function

    def manifest(self, plan):
        return _notes_app().manifest(plan)

    def attach(self, app):
        self.channel = open_channel(app.provider, "gina-device")
        self.base = f"/{app.instance_name}/app/notes"
        self.ids = getattr(self, "ids", [])

    def use(self, step):
        created = self.channel.request(
            HttpRequest("POST", self.base, {}, _secret("notes", step).encode())
        )
        self.ids.append(json.loads(created.body)["id"])
        for index, note_id in enumerate(self.ids):
            shown = self.channel.request(HttpRequest("GET", f"{self.base}/{note_id}"))
            assert shown.body == _secret("notes", index).encode()


APPS = (Chat, Email, Iot, FileTransfer, Video, Notes)


def _check(app, plan, auditors, declared):
    """No plaintext at rest where the app lives, nor on any wire; the plan's backend and size."""
    for provider, auditor in auditors.items():
        if provider is app.provider:
            assert auditor.findings(app.bucket_names, app.queue_names, app.table_names) == []
        else:
            assert auditor.findings() == []
    for name in app.function_names:
        config = app.provider.lambda_.get_function(name)
        assert config.environment[STORAGE_ENV] == plan.storage
        size, scaled = declared[name[len(app.instance_name) + 1:]]
        assert config.memory_mb == (
            plan.memory_mb if plan.memory_mb is not None and scaled else size
        )


def _assert_nothing_left(app):
    provider, prefix = app.provider, f"{app.instance_name}-"
    assert not any(provider.s3.bucket_exists(bucket) for bucket in app.bucket_names)
    for table in app.table_names:
        with pytest.raises(NoSuchTable):
            provider.dynamo.table(table)
    assert provider.sqs.list_queues(prefix) == []
    assert [n for n in provider.lambda_.function_names() if n.startswith(prefix)] == []
    channel = open_channel(provider, "late-device")
    for route in app.routes:
        with pytest.raises(NoSuchFunction):
            channel.request(HttpRequest("GET", route))
    if app.vm_instance_id is not None:
        with pytest.raises(NoSuchInstance):
            provider.ec2.get(app.vm_instance_id)


@pytest.mark.parametrize("driver", APPS, ids=lambda d: d.__name__)
@settings(max_examples=8, deadline=None)
@given(plan=plans)
def test_lifecycle_keeps_data_private_and_leaves_nothing(driver, plan):
    source = CloudProvider(name="aws-sim", seed=1234, plan=plan)
    target = CloudProvider(name="eu-cloud", seed=77, region=EU_WEST_1, plan=plan)
    auditors = {source: PrivacyAuditor(source), target: PrivacyAuditor(target)}
    for auditor in auditors.values():
        auditor.protect(*(_secret(app_id, step).encode() for step in range(STEPS)
                          for app_id in ("chat", "email", "iot", "xfer", "video", "notes")))
    app_driver = driver()
    declared = app_driver.declared
    app = Deployer(source).deploy(app_driver.manifest(plan), owner="alice")
    app_driver.attach(app)
    _check(app, plan, auditors, declared)

    app_driver.use(0)
    _check(app, plan, auditors, declared)

    app.rotate_key()
    _check(app, plan, auditors, declared)
    app_driver.use(1)
    _check(app, plan, auditors, declared)

    app = Deployer(source).update(app, app_driver.manifest(plan))
    app_driver.attach(app)
    _check(app, plan, auditors, declared)
    app_driver.use(2)
    _check(app, plan, auditors, declared)

    migrated = Deployer(source).migrate(app, target)
    _assert_nothing_left(app)
    app_driver.attach(migrated)
    _check(migrated, plan, auditors, declared)
    app_driver.use(3)
    _check(migrated, plan, auditors, declared)

    Deployer(target).teardown(migrated)
    _assert_nothing_left(migrated)


@pytest.mark.parametrize("storage", STORAGE_BACKENDS)
@pytest.mark.parametrize("driver", APPS, ids=lambda d: d.__name__)
def test_an_uncached_plan_serves_every_app(driver, storage):
    """``cached=False`` hands the handlers a plain store, whose warm-path
    accessors read straight through to the backend."""
    plan = DeploymentPlan(storage=storage, cached=False)
    app_driver = driver()
    provider = CloudProvider(name="aws-sim", seed=1234, plan=plan)
    app_driver.attach(Deployer(provider).deploy(app_driver.manifest(plan), owner="alice"))
    app_driver.use(0)
    app_driver.use(1)
