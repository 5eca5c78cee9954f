"""DIYApp manifests and instance-level behaviour."""

import pytest

from repro.apps.chat import chat_manifest
from repro.core.app import AppManifest, FunctionSpec, PermissionGrant
from repro.errors import ConfigurationError, DeploymentError
from repro.plan import DeploymentPlan
from repro.runtime.store import STORAGE_BACKENDS


class TestManifestValidation:
    def test_needs_id_and_version(self):
        with pytest.raises(ConfigurationError):
            AppManifest("", "1.0", "d", (), ())

    def test_must_deploy_something(self):
        with pytest.raises(ConfigurationError):
            AppManifest("app", "1.0", "d", (), ())

    def test_vm_only_manifest_allowed(self):
        manifest = AppManifest("relay", "1.0", "d", (), (), needs_vm="t2.medium")
        assert manifest.needs_vm == "t2.medium"


class TestPermissionGrant:
    def test_template_substitution(self):
        grant = PermissionGrant(("s3:GetObject",), "arn:diy:s3:::{app}-state/*")
        assert grant.resolve("chat-alice") == "arn:diy:s3:::chat-alice-state/*"

    def test_plain_resource_passthrough(self):
        grant = PermissionGrant(("ses:SendEmail",), "arn:diy:ses:::identity/*")
        assert grant.resolve("x") == "arn:diy:ses:::identity/*"


class TestInstance:
    def test_invoke_routes_to_suffixed_function(self, provider, deployer):
        manifest = AppManifest(
            "echoapp", "1.0", "d",
            (FunctionSpec("main", lambda e, ctx: e["v"]),),
            (),
        )
        app = deployer.deploy(manifest, owner="alice")
        assert app.invoke("main", {"v": 42}).value == 42

    def test_invoke_unknown_suffix_rejected(self, provider, deployer, chat_app):
        with pytest.raises(DeploymentError):
            chat_app.invoke("ghost", {})

    def test_vm_manifest_launches_stopped_instance(self, provider, deployer):
        manifest = AppManifest("relay", "1.0", "d", (), (), needs_vm="t2.medium")
        app = deployer.deploy(manifest, owner="alice")
        assert app.vm_instance_id is not None
        assert not provider.ec2.get(app.vm_instance_id).running

    @pytest.mark.parametrize("storage", STORAGE_BACKENDS)
    def test_undeclared_queue_rejected(self, deployer, storage):
        app = deployer.deploy(chat_manifest(plan=DeploymentPlan(storage=storage)), owner="alice")
        with pytest.raises(ConfigurationError):
            app.queue("nope")

    def test_repr(self, chat_app):
        assert "diy-chat" in repr(chat_app)
