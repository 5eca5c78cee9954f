"""A Django-style micro-framework that compiles to a DIY function (§8.1).

"To facilitate building DIY applications, we imagine that developers
might extend the APIs in existing web programming frameworks, such as
Django. These APIs already handle concerns such as connection
management and sessions, and are already being extended to run on
serverless platforms [Zappa]."

:class:`DiyWebApp` is that idea, runnable: a developer writes routed
views against a request/response API with sessions and an
encrypted-by-default model store, and :meth:`DiyWebApp.manifest`
compiles the whole app into a :class:`~repro.runtime.kernel.AppSpec`
that the runtime kernel builds like any other DIY app — one serverless
handler behind the kernel's router and middleware, the plan's storage
backend, least-privilege grants, envelope encryption wired in. The
developer never touches KMS, S3, DynamoDB, or IAM::

    app = DiyWebApp("notes")

    @app.route("POST", "/notes")
    def create(request):
        note_id = request.store.put("note", request.text)
        return JsonResponse({"id": note_id})

    manifest = app.manifest(plan)      # publish / deploy like any DIY app
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.app import AppManifest
from repro.errors import ConfigurationError
from repro.net.http import HttpRequest, HttpResponse
from repro.runtime.errors import json_response as JsonResponse

__all__ = ["Request", "JsonResponse", "TextResponse", "ModelStore", "Session", "DiyWebApp"]


class ModelStore:
    """The framework's persistence API: every object is envelope-encrypted.

    Objects live in the app's kernel state store under ``<kind>/<id>``,
    sealed with the kind as AAD; ids are allocated from the virtual
    clock plus the request id, so they are unique and sortable.
    """

    def __init__(self, kctx):
        self._kctx = kctx

    def put(self, kind: str, text: str, object_id: Optional[str] = None) -> str:
        if object_id is None:
            object_id = f"{self._kctx.clock.now:020d}-{self._kctx.request_id}"
        self._kctx.store.put_sealed(f"{kind}/{object_id}", text.encode(), aad=kind.encode())
        return object_id

    def get(self, kind: str, object_id: str) -> str:
        return self._kctx.store.get_sealed(f"{kind}/{object_id}", aad=kind.encode()).decode()

    def list(self, kind: str) -> List[str]:
        prefix = f"{kind}/"
        return [key[len(prefix):] for key in self._kctx.store.list(prefix)]

    def delete(self, kind: str, object_id: str) -> None:
        self._kctx.store.delete(f"{kind}/{object_id}")


class Session:
    """A cookie-style session persisted encrypted in the model store."""

    def __init__(self, store: ModelStore, session_id: str):
        self._store = store
        self.session_id = session_id
        try:
            self.data: Dict[str, object] = json.loads(store.get("_session", session_id))
        except Exception:
            self.data = {}
        self._dirty = False

    def get(self, key: str, default=None):
        return self.data.get(key, default)

    def __setitem__(self, key: str, value) -> None:
        self.data[key] = value
        self._dirty = True

    def save(self) -> None:
        if self._dirty:
            self._store.put("_session", json.dumps(self.data), object_id=self.session_id)
            self._dirty = False


@dataclass
class Request:
    """What a view receives."""

    http: HttpRequest
    params: Dict[str, str]
    store: ModelStore
    session: Session

    @property
    def text(self) -> str:
        return self.http.body.decode()

    @property
    def json(self):
        return json.loads(self.http.body)


def TextResponse(text: str, status: int = 200) -> HttpResponse:
    """A plain-text view response."""
    return HttpResponse(status, {"content-type": "text/plain"}, text.encode())


View = Callable[[Request], HttpResponse]


def _kernel_pattern(pattern: str) -> str:
    """``/notes/<note_id>`` in the kernel router's ``/notes/{note_id}`` form."""
    return "/".join(
        "{" + part[1:-1] + "}" if part.startswith("<") and part.endswith(">") else part
        for part in pattern.split("/")
    )


def _endpoint(view: View) -> Callable:
    """The kernel endpoint that runs one view with its store and session."""

    def endpoint(kctx, http: HttpRequest, **params: str) -> HttpResponse:
        store = ModelStore(kctx)
        session = Session(store, http.header("x-diy-session", "anonymous"))
        response = view(Request(http, params, store, session))
        session.save()
        if not isinstance(response, HttpResponse):
            raise ConfigurationError(
                f"view for {http.path!r} returned {type(response).__name__}, not HttpResponse"
            )
        return response

    endpoint.measured_parts = (view,)
    return endpoint


class DiyWebApp:
    """Routes + views + storage, compiled by the runtime kernel."""

    def __init__(self, app_id: str, version: str = "1.0.0",
                 description: str = "", memory_mb: int = 256):
        if not app_id:
            raise ConfigurationError("web app needs an app_id")
        self.app_id = app_id
        self.version = version
        self.description = description or f"{app_id} (DIY web framework app)"
        self.memory_mb = memory_mb
        self._routes: List[Tuple[str, str, View]] = []

    def route(self, method: str, pattern: str) -> Callable[[View], View]:
        """Register a view for ``method pattern``; ``<name>`` captures a
        path segment into ``request.params``."""
        if not pattern.startswith("/"):
            raise ConfigurationError(f"route pattern must start with '/': {pattern!r}")

        def decorator(view: View) -> View:
            self._routes.append((method.upper(), pattern, view))
            return view

        return decorator

    def manifest(self, plan: Optional["DeploymentPlan"] = None) -> AppManifest:
        """Compile the app into a deployable DIY manifest.

        ``plan`` supplies the backend, the cache flag and a Lambda size
        that overrides the app's declared ``memory_mb``, as for every
        kernel app; with none, the default plan applies.
        """
        from repro.runtime.kernel import AppKernel, AppSpec, KernelFunction, RouteDecl, StoreDecl

        if not self._routes:
            raise ConfigurationError("web app has no routes")
        routes = tuple(
            RouteDecl(method, "/app" + _kernel_pattern(pattern), _endpoint(view))
            for method, pattern, view in self._routes
        )
        return AppKernel(AppSpec(
            app_id=self.app_id,
            version=self.version,
            description=self.description,
            functions=(KernelFunction(
                "web", routes, memory_mb=self.memory_mb, route_prefix="/app",
                footprint_mb=14,  # framework + crypto deployment package
            ),),
            store=StoreDecl("data", deletes=True,
                            reason="the framework's encrypted model store"),
        ), plan).manifest()

    def routes(self) -> List[str]:
        return [f"{method} {pattern}" for method, pattern, _view in self._routes]
