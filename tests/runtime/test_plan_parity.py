"""The plan is the only config input to every app's manifest.

For every app, the storage backend comes only from
``plan=DeploymentPlan(...)``: with no plan the default plan applies,
and a ``DIY_STORAGE`` variable in the process environment changes
nothing. Memory comes from chat's explicit ``memory_mb``, then the plan,
then the declared default.
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
    def test_default_plan_equals_unset_env(self, manifest_fn, monkeypatch):
        monkeypatch.delenv(STORAGE_ENV, raising=False)
        default = _normalize(manifest_fn(plan=DEFAULT_PLAN))
        assert _normalize(manifest_fn()) == default
        for value in STORAGE_BACKENDS + ("floppy",):
            monkeypatch.setenv(STORAGE_ENV, value)
            assert _normalize(manifest_fn()) == default

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

