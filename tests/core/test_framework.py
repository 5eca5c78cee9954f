"""The §8.1 web framework: routing, sessions, encrypted models."""

import json

import pytest

from repro.core.client import open_channel
from repro.core.deployment import Deployer
from repro.core.framework import DiyWebApp, JsonResponse, TextResponse
from repro.errors import ConfigurationError
from repro.net.http import HttpRequest
from repro.plan import DeploymentPlan
from repro.runtime.store import STORAGE_ENV


def _notes_app() -> DiyWebApp:
    app = DiyWebApp("notesapp")

    @app.route("POST", "/notes")
    def create(request):
        note_id = request.store.put("note", request.text)
        return JsonResponse({"id": note_id}, status=201)

    @app.route("GET", "/notes")
    def index(request):
        return JsonResponse({"notes": request.store.list("note")})

    @app.route("GET", "/notes/<note_id>")
    def show(request):
        return TextResponse(request.store.get("note", request.params["note_id"]))

    @app.route("DELETE", "/notes/<note_id>")
    def delete(request):
        request.store.delete("note", request.params["note_id"])
        return JsonResponse({"deleted": True})

    @app.route("POST", "/profile/name")
    def set_name(request):
        request.session["name"] = request.text
        return JsonResponse({"ok": True})

    @app.route("GET", "/profile/name")
    def get_name(request):
        return TextResponse(request.session.get("name", "anonymous"))

    return app


@pytest.fixture
def deployed(provider, deployer):
    app = deployer.deploy(_notes_app().manifest(), owner="gina")
    channel = open_channel(provider, "gina-device")
    base = f"/{app.instance_name}/app"
    return app, channel, base


class TestRouting:
    def test_crud_round_trip(self, deployed):
        app, channel, base = deployed
        created = channel.request(HttpRequest("POST", f"{base}/notes", {}, b"buy milk"))
        assert created.status == 201
        note_id = json.loads(created.body)["id"]

        shown = channel.request(HttpRequest("GET", f"{base}/notes/{note_id}"))
        assert shown.body == b"buy milk"

        index = channel.request(HttpRequest("GET", f"{base}/notes"))
        assert json.loads(index.body)["notes"] == [note_id]

        channel.request(HttpRequest("DELETE", f"{base}/notes/{note_id}"))
        assert json.loads(channel.request(HttpRequest("GET", f"{base}/notes")).body)["notes"] == []

    def test_unknown_route_is_404(self, deployed):
        _app, channel, base = deployed
        response = channel.request(HttpRequest("GET", f"{base}/nope"))
        assert response.status == 404

    def test_wrong_method_is_405_with_allow(self, deployed):
        _app, channel, base = deployed
        response = channel.request(HttpRequest("PUT", f"{base}/notes", {}, b"x"))
        assert response.status == 405
        assert response.headers["allow"] == "GET, POST"
        assert b"not allowed" in response.body

    def test_path_params_captured(self, deployed):
        app, channel, base = deployed
        created = channel.request(HttpRequest("POST", f"{base}/notes", {}, b"n"))
        note_id = json.loads(created.body)["id"]
        assert channel.request(HttpRequest("GET", f"{base}/notes/{note_id}")).ok


class TestSessions:
    def test_session_persists_across_requests(self, deployed):
        _app, channel, base = deployed
        headers = {"x-diy-session": "gina-laptop"}
        channel.request(HttpRequest("POST", f"{base}/profile/name", headers, b"Gina"))
        response = channel.request(HttpRequest("GET", f"{base}/profile/name", headers))
        assert response.body == b"Gina"

    def test_sessions_are_isolated(self, deployed):
        _app, channel, base = deployed
        channel.request(HttpRequest("POST", f"{base}/profile/name",
                                    {"x-diy-session": "laptop"}, b"Gina"))
        other = channel.request(HttpRequest("GET", f"{base}/profile/name",
                                            {"x-diy-session": "phone"}))
        assert other.body == b"anonymous"


class TestPrivacy:
    def test_models_encrypted_at_rest(self, provider, deployed):
        app, channel, base = deployed
        channel.request(HttpRequest("POST", f"{base}/notes", {}, b"the secret note body"))
        for _key, raw in provider.s3.raw_scan(f"{app.instance_name}-data"):
            assert b"the secret note body" not in raw

    def test_sessions_encrypted_at_rest(self, provider, deployed):
        app, channel, base = deployed
        channel.request(HttpRequest("POST", f"{base}/profile/name",
                                    {"x-diy-session": "s1"}, b"SecretName"))
        for _key, raw in provider.s3.raw_scan(f"{app.instance_name}-data"):
            assert b"SecretName" not in raw


class TestCompilation:
    def test_manifest_shape(self):
        manifest = _notes_app().manifest()
        assert manifest.app_id == "notesapp"
        assert manifest.buckets == ("data",)
        assert len(manifest.functions) == 1

    def test_empty_app_rejected(self):
        with pytest.raises(ConfigurationError):
            DiyWebApp("empty").manifest()

    def test_bad_route_pattern_rejected(self):
        app = DiyWebApp("x")
        with pytest.raises(ConfigurationError):
            app.route("GET", "no-slash")

    def test_routes_listing(self):
        app = _notes_app()
        assert "POST /notes" in app.routes()
        assert "GET /notes/<note_id>" in app.routes()

    def test_view_must_return_response(self, provider, deployer):
        app = DiyWebApp("bad")

        @app.route("GET", "/x")
        def broken(request):
            return "just a string"

        deployed = deployer.deploy(app.manifest(), owner="u")
        channel = open_channel(provider, "dev")
        from repro.errors import FunctionError, ReproError

        with pytest.raises(ReproError):
            channel.request(HttpRequest("GET", f"/{deployed.instance_name}/app/x"))

    def test_store_is_publishable_through_the_app_store(self, provider):
        from repro.core.appstore import AppStore

        store = AppStore(provider)
        listing = store.publish(_notes_app().manifest(), developer="notes-inc")
        store.review(listing.listing_id)
        installed = store.install("notesapp", user="gina")
        assert installed.app.manifest.app_id == "notesapp"


class TestKernelServices:
    """A framework app runs on the same kernel pipeline as every app."""

    def test_dynamo_manifest_declares_a_table(self):
        manifest = _notes_app().manifest(DeploymentPlan(storage="dynamo"))
        assert manifest.tables == ("kv",)
        assert manifest.buckets == ()

    def test_every_plan_field_reaches_a_framework_app(self, provider, deployer, monkeypatch):
        """The plan alone sizes the function, picks DynamoDB, and the
        uncached app still serves its routes."""
        monkeypatch.delenv(STORAGE_ENV, raising=False)
        plan = DeploymentPlan(storage="dynamo", memory_mb=1024, cached=False)
        app = deployer.deploy(_notes_app().manifest(plan), owner="gina")
        (name,) = app.function_names
        assert provider.lambda_.get_function(name).memory_mb == 1024
        assert (app.table_names, app.bucket_names) == ((f"{app.instance_name}-kv",), ())
        channel = open_channel(provider, "gina-device")
        base = f"/{app.instance_name}/app/notes"
        created = channel.request(HttpRequest("POST", base, {}, b"planned milk"))
        note_id = json.loads(created.body)["id"]
        assert channel.request(HttpRequest("GET", f"{base}/{note_id}")).body == b"planned milk"
        assert list(provider.dynamo.raw_scan(f"{app.instance_name}-kv"))
        channel.request(HttpRequest("DELETE", f"{base}/{note_id}"))
        assert json.loads(channel.request(HttpRequest("GET", base)).body)["notes"] == []

    def test_crud_round_trip_on_dynamo(self, provider, deployer):
        manifest = _notes_app().manifest(DeploymentPlan(storage="dynamo"))
        app = deployer.deploy(manifest, owner="gina")
        channel = open_channel(provider, "gina-device")
        base = f"/{app.instance_name}/app"
        created = channel.request(HttpRequest("POST", f"{base}/notes", {}, b"dynamo milk"))
        assert created.status == 201
        note_id = json.loads(created.body)["id"]
        shown = channel.request(HttpRequest("GET", f"{base}/notes/{note_id}"))
        assert shown.body == b"dynamo milk"
        index = channel.request(HttpRequest("GET", f"{base}/notes"))
        assert json.loads(index.body)["notes"] == [note_id]
        channel.request(HttpRequest("DELETE", f"{base}/notes/{note_id}"))
        assert json.loads(channel.request(HttpRequest("GET", f"{base}/notes")).body)["notes"] == []

        channel.request(HttpRequest("POST", f"{base}/notes", {}, b"dynamo milk"))
        scanned = list(provider.dynamo.raw_scan(f"{app.instance_name}-kv"))
        assert scanned
        for _key, raw in scanned:
            assert b"dynamo milk" not in raw

    def test_requests_reach_the_health_plane(self, provider, deployed):
        _app, channel, base = deployed
        plane = provider.enable_metrics()
        channel.request(HttpRequest("POST", f"{base}/notes", {}, b"counted"))
        counter = plane.counter("runtime.requests", app="notesapp",
                                route="app.notes", status="201")
        assert counter.value == 1
