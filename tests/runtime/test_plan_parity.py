"""Plan-driven config must behave exactly like the legacy env-var plane.

PR 9 made :class:`repro.plan.DeploymentPlan` the config plane and demoted
``DIY_STORAGE`` to one documented plan constructor. These tests pin the
contract: for every app, deploying with ``plan=DeploymentPlan(...)``
produces the same manifest and the same observable behavior as exporting
``DIY_STORAGE`` did. The storage backend comes only from the plan, or
from the environment when there is no plan; memory comes from chat's
explicit ``memory_mb``, then the plan, then the declared default.
"""

import pytest

from repro.plan import DEFAULT_PLAN, DeploymentPlan
from repro.runtime.store import STORAGE_BACKENDS, STORAGE_ENV

from repro.apps.chat import chat_manifest
from repro.apps.email import email_manifest
from repro.apps.filetransfer import file_transfer_manifest
from repro.apps.iot import iot_manifest
from repro.apps.video import video_manifest

ALL_MANIFESTS = pytest.mark.parametrize(
    "manifest_fn",
    [chat_manifest, email_manifest, file_transfer_manifest, iot_manifest,
     video_manifest],
    ids=["chat", "email", "filetransfer", "iot", "video"],
)


def _normalize(manifest):
    """A manifest's config-relevant surface, comparable across builds."""
    return [
        (fn.name_suffix, fn.memory_mb, tuple(sorted(fn.environment)))
        for fn in manifest.functions
    ]


@ALL_MANIFESTS
class TestManifestParity:
    def test_plan_equals_env_for_every_backend(self, manifest_fn, monkeypatch):
        for storage in STORAGE_BACKENDS:
            monkeypatch.setenv(STORAGE_ENV, storage)
            via_env = manifest_fn()
            monkeypatch.delenv(STORAGE_ENV)
            via_plan = manifest_fn(plan=DeploymentPlan(storage=storage))
            assert _normalize(via_plan) == _normalize(via_env)

    def test_default_plan_equals_unset_env(self, manifest_fn, monkeypatch):
        monkeypatch.delenv(STORAGE_ENV, raising=False)
        assert _normalize(manifest_fn(plan=DEFAULT_PLAN)) == _normalize(manifest_fn())

    def test_plan_beats_the_environment(self, manifest_fn, monkeypatch):
        monkeypatch.setenv(STORAGE_ENV, "s3")
        manifest = manifest_fn(plan=DeploymentPlan(storage="dynamo"))
        for fn in manifest.functions:
            assert dict(fn.environment)[STORAGE_ENV] == "dynamo"

    def test_manifest_environment_carries_the_plan_backend(self, manifest_fn):
        manifest = manifest_fn(plan=DeploymentPlan(storage="dynamo"))
        for fn in manifest.functions:
            assert dict(fn.environment)[STORAGE_ENV] == "dynamo"


class TestMemoryFromPlan:
    def test_plan_memory_overrides_the_declared_default(self):
        declared = [fn.memory_mb for fn in chat_manifest().functions]
        planned = chat_manifest(plan=DeploymentPlan(memory_mb=640))
        assert all(fn.memory_mb == 640 for fn in planned.functions)
        assert declared != [fn.memory_mb for fn in planned.functions]

    def test_explicit_memory_beats_the_plan(self):
        manifest = chat_manifest(memory_mb=128, plan=DeploymentPlan(memory_mb=640))
        assert all(fn.memory_mb == 128 for fn in manifest.functions)

    def test_none_memory_keeps_each_apps_default(self):
        via_plan = chat_manifest(plan=DEFAULT_PLAN)
        bare = chat_manifest()
        assert [fn.memory_mb for fn in via_plan.functions] == [
            fn.memory_mb for fn in bare.functions
        ]


class TestBehavioralParity:
    """The same chat conversation, plan-configured vs env-configured."""

    def _converse(self, provider, deployer, manifest, instance_name):
        from repro.apps.chat import ChatClient, ChatService

        app = deployer.deploy(manifest, owner="alice", instance_name=instance_name)
        service = ChatService(app)
        service.create_room("r", ["alice@diy", "bob@diy"])
        alice = ChatClient(service, "alice@diy")
        bob = ChatClient(service, "bob@diy")
        for client in (alice, bob):
            client.join("r")
            client.connect()
        alice.send("r", "hello")
        return [m.body for m in bob.poll()]

    @pytest.mark.parametrize("storage", STORAGE_BACKENDS)
    def test_chat_behaves_identically(self, provider, deployer, storage, monkeypatch):
        monkeypatch.setenv(STORAGE_ENV, storage)
        via_env = self._converse(provider, deployer, chat_manifest(),
                                 f"chat-env-{storage}")
        monkeypatch.delenv(STORAGE_ENV)
        via_plan = self._converse(provider, deployer,
                                  chat_manifest(plan=DeploymentPlan(storage=storage)),
                                  f"chat-plan-{storage}")
        assert via_env == via_plan == ["hello"]
