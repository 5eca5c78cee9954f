"""The application kernel: one declarative spec → manifest + runtime.

The paper's thesis is that many personal apps share one DIY substrate;
this module is that substrate's *programming model*. An :class:`AppSpec`
declares what used to be hand-rolled five times over — routes, the
state backend, resource needs, permission grants — and the
:class:`AppKernel` turns it into:

- a deployable :class:`~repro.core.app.AppManifest` (with the declared
  route specs and store attached, so the app store can list them);
- per-function handlers that run every request through the middleware
  pipeline ``trace → error_mapper → throttle_hints → envelope``:

  1. **trace** opens a :class:`~repro.runtime.trace.RequestTrace` and
     records per-route latency/status into the ambient health plane;
  2. **error_mapper** turns the router's taxonomy into HTTP (404/405);
     every other :class:`~repro.errors.ReproError` propagates so the
     platform's crash billing and the clients' retry logic still see
     the real exception;
  3. **throttle_hints** maps :class:`~repro.errors.ThrottledError` to
     the 429-with-``retry-after-ms`` contract;
  4. **envelope** binds the request's :class:`KernelContext` — the
     :class:`~repro.runtime.store.StateStore` for the plan's storage
     backend (wrapped in a warm-container
     :class:`~repro.runtime.store.CachedStore`) and the app's
     AAD-binding :class:`~repro.crypto.envelope.EnvelopeEncryptor` —
     then dispatches through the :class:`~repro.runtime.router.Router`.

The pipeline adds zero clock advances and zero RNG draws of its own,
which is what keeps the golden invoices and the chaos-fleet SLA report
byte-identical across the migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.app import AppManifest, FunctionSpec, PermissionGrant
from repro.crypto.envelope import EnvelopeEncryptor
from repro.errors import MethodNotAllowed, ProtocolError, RouteNotFound, ThrottledError
from repro.net.http import HttpRequest
from repro.obs.metrics import ambient_plane
from repro.obs.trace import child_span
from repro.plan import DEFAULT_PLAN, DeploymentPlan
from repro.runtime.errors import error_response, throttled_response
from repro.runtime.router import Route, Router
from repro.runtime.store import STORAGE_ENV, CachedStore, StateStore, backend_store
from repro.runtime.trace import RequestTrace

__all__ = ["RouteDecl", "StoreDecl", "KernelFunction", "AppSpec", "AppKernel", "KernelContext"]

_CACHE_SLOT = "runtime.cache"


@dataclass(frozen=True)
class RouteDecl:
    """One declared endpoint: ``endpoint(kctx, request, **params)``."""

    method: str
    pattern: str
    endpoint: Callable
    name: str = ""


@dataclass(frozen=True)
class StoreDecl:
    """The app's state store: one bucket suffix, one table suffix.

    Which one actually backs the deployment is the plan's ``storage``
    choice; the kernel emits the matching resources and least-privilege
    grants.
    """

    bucket: str
    table: str = "kv"
    deletes: bool = False  # grant DeleteObject/DeleteItem
    reason: str = "read/write encrypted application state"


@dataclass(frozen=True)
class KernelFunction:
    """One serverless function assembled by the kernel."""

    suffix: str
    routes: Tuple[RouteDecl, ...] = ()
    event_endpoint: Optional[Callable] = None  # non-HTTP triggers (SES, cron)
    memory_mb: int = 128
    memory_scaled: bool = True  # follows the manifest-level memory override
    timeout_ms: int = 30_000
    route_prefix: str = ""
    footprint_mb: int = 0
    environment: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class AppSpec:
    """Everything the kernel needs to build one app."""

    app_id: str
    version: str
    description: str
    functions: Tuple[KernelFunction, ...]
    store: Optional[StoreDecl] = None
    permissions: Tuple[PermissionGrant, ...] = ()  # beyond the store grant
    buckets: Tuple[str, ...] = ()  # extra buckets beyond the store's
    queues: Tuple[str, ...] = ()
    tables: Tuple[str, ...] = ()
    needs_vm: Optional[str] = None


class KernelContext:
    """What an endpoint sees: the invocation plus the kernel's services."""

    def __init__(self, ctx, trace: RequestTrace,
                 store: Optional[StateStore], encryptor: EnvelopeEncryptor):
        self.ctx = ctx
        self.trace = trace
        self.store = store
        self.encryptor = encryptor

    @property
    def request_id(self) -> str:
        return self.ctx.request_id

    @property
    def clock(self):
        return self.ctx.clock

    @property
    def region(self):
        return self.ctx.region

    @property
    def environment(self) -> dict:
        return self.ctx.environment

    @property
    def services(self):
        return self.ctx.services

    @property
    def instance(self) -> str:
        return self.ctx.environment["DIY_INSTANCE"]

    def queue(self, suffix: str) -> str:
        """An instance-namespaced queue name (``<instance>-<suffix>``)."""
        return f"{self.instance}-{suffix}"

    def track_bytes(self, nbytes: int) -> None:
        self.ctx.track_bytes(nbytes)

    def release_bytes(self, nbytes: int) -> None:
        self.ctx.release_bytes(nbytes)

    def http_request(self, request: HttpRequest):
        """Outbound HTTPS (server-to-server federation)."""
        return self.ctx.services.http_request(request)


def _relative_path(path: str, instance: str) -> str:
    """Strip the deployment's ``/<instance>`` gateway prefix, if present."""
    prefix = f"/{instance}"
    if instance and path.startswith(prefix):
        rest = path[len(prefix):]
        if not rest:
            return "/"
        if rest.startswith("/"):
            return rest
    return path


class AppKernel:
    """Builds manifests and middleware-wrapped handlers from one spec."""

    def __init__(self, spec: AppSpec, plan: Optional[DeploymentPlan] = None):
        """The plan supplies every knob: backend, memory default, cache
        policy. With no ``plan``, :data:`repro.plan.DEFAULT_PLAN` applies.
        """
        self.spec = spec
        self.plan = DEFAULT_PLAN if plan is None else plan
        self._routers: Dict[str, Router] = {
            fn.suffix: Router(
                Route(decl.method.upper(), decl.pattern, decl.endpoint, decl.name)
                for decl in fn.routes
            )
            for fn in spec.functions
        }

    # -- the per-request runtime ------------------------------------------

    def _encryptor(self, ctx) -> EnvelopeEncryptor:
        return EnvelopeEncryptor(
            ctx.services.kms_key_provider(ctx.environment["DIY_KEY_ID"])
        )

    def _store(self, ctx, encryptor: EnvelopeEncryptor) -> Optional[StateStore]:
        decl = self.spec.store
        if decl is None:
            return None
        instance = ctx.environment["DIY_INSTANCE"]
        backend = ctx.environment.get(STORAGE_ENV, "s3")
        inner = backend_store(
            ctx.services, backend,
            f"{instance}-{decl.bucket}", f"{instance}-{decl.table}", encryptor,
        )
        if not self.plan.cached:
            return inner
        return CachedStore(inner, ctx.container_state.setdefault(_CACHE_SLOT, {}))

    def handler(self, fn: KernelFunction) -> Callable:
        """The deployable handler: the middleware pipeline around ``fn``."""
        router = self._routers[fn.suffix]
        scope = f"{self.spec.app_id}.{fn.suffix}"

        def enveloped(event, ctx, trace: RequestTrace):
            encryptor = self._encryptor(ctx)
            kctx = KernelContext(ctx, trace, self._store(ctx, encryptor), encryptor)
            if isinstance(event, HttpRequest):
                path = _relative_path(event.path, ctx.environment.get("DIY_INSTANCE", ""))
                route, params = router.match(event.method, path)
                trace.route = route.name
                return route.endpoint(kctx, event, **params)
            if fn.event_endpoint is not None:
                return fn.event_endpoint(kctx, event)
            raise ProtocolError(f"{scope} expects an HTTP request")

        def kernel_handler(event, ctx):
            trace = RequestTrace(ctx.clock, scope, "event")
            # The ambient health plane is bound by the Lambda platform
            # around handler execution (repro.obs.metrics.bind_ambient);
            # one ContextVar read keeps the kernel provider-agnostic.
            health = ambient_plane()
            with child_span(f"runtime.{scope}") as rspan:
                try:
                    try:
                        response = enveloped(event, ctx, trace)
                    except ThrottledError as exc:  # the throttle_hints stage
                        response = throttled_response(exc)
                except (RouteNotFound, MethodNotAllowed) as exc:  # error_mapper
                    response = error_response(exc)
                except BaseException:
                    trace.finish("error")
                    if health is not None:
                        self._record_health(health, trace, ctx.clock.now)
                    raise
                status = getattr(response, "status", 200)
                trace.finish(status)
                if health is not None:
                    self._record_health(health, trace, ctx.clock.now)
                if rspan is not None:
                    rspan.set_attr("route", trace.route)
                    rspan.set_attr("status", status)
            return response

        kernel_handler.__name__ = f"{self.spec.app_id.replace('-', '_')}_{fn.suffix}"
        kernel_handler.__qualname__ = kernel_handler.__name__
        # The code this handler runs beyond its own source, for
        # repro.core.attestation.measure_function.
        kernel_handler.measured_parts = tuple(route.endpoint for route in router.routes) + (
            (fn.event_endpoint,) if fn.event_endpoint is not None else ()
        )
        return kernel_handler

    def _record_health(self, health, trace: RequestTrace, now: int) -> None:
        """A finished trace's request metrics into the ambient health plane.

        Pure observation on the virtual clock; "bad" is a handler error
        or a 5xx — kernel-level 4xxs are the deployment answering
        correctly.
        """
        status = trace.status
        bad = status == "error" or (isinstance(status, int) and status >= 500)
        health.counter(
            "runtime.requests", app=self.spec.app_id,
            route=trace.route, status=str(status),
        ).inc()
        health.histogram("runtime.request_us", app=self.spec.app_id).observe(
            now - trace.started_at
        )
        health.window("runtime.availability").observe(now, not bad)

    # -- manifest assembly -------------------------------------------------

    def route_specs(self, fn: KernelFunction) -> Tuple[str, ...]:
        return tuple(route.spec for route in self._routers[fn.suffix].routes)

    def _store_grant(self) -> Tuple[Tuple[PermissionGrant, ...], Tuple[str, ...], Tuple[str, ...]]:
        """(grants, bucket suffixes, table suffixes) for the chosen backend."""
        decl = self.spec.store
        if decl is None:
            return (), self.spec.buckets, self.spec.tables
        if self.plan.storage == "dynamo":
            actions = ["dynamodb:GetItem", "dynamodb:PutItem", "dynamodb:Query"]
            if decl.deletes:
                actions.append("dynamodb:DeleteItem")
            grant = PermissionGrant(
                tuple(actions),
                f"arn:diy:dynamodb:::table/{{app}}-{decl.table}",
                f"{decl.reason} (low-latency KV backend)",
            )
            return (grant,), self.spec.buckets, (decl.table,) + self.spec.tables
        actions = ["s3:GetObject", "s3:PutObject"]
        if decl.deletes:
            actions.append("s3:DeleteObject")
        actions.append("s3:ListBucket")
        grant = PermissionGrant(
            tuple(actions),
            f"arn:diy:s3:::{{app}}-{decl.bucket}*",
            decl.reason,
        )
        return (grant,), (decl.bucket,) + self.spec.buckets, self.spec.tables

    def manifest(self, memory_mb: Optional[int] = None) -> AppManifest:
        """Assemble the deployable manifest for the chosen backend.

        Memory precedence: the explicit ``memory_mb`` argument wins,
        then the plan's ``memory_mb``, then each function's declared
        size (``memory_scaled=False`` functions always keep their own).
        """
        store_grants, buckets, tables = self._store_grant()
        override = memory_mb if memory_mb is not None else self.plan.memory_mb
        functions = []
        for fn in self.spec.functions:
            functions.append(FunctionSpec(
                name_suffix=fn.suffix,
                handler=self.handler(fn),
                memory_mb=override if override is not None and fn.memory_scaled
                else fn.memory_mb,
                timeout_ms=fn.timeout_ms,
                route_prefix=fn.route_prefix,
                footprint_mb=fn.footprint_mb,
                environment=self.plan.environment() + fn.environment,
                routes=self.route_specs(fn),
            ))
        return AppManifest(
            app_id=self.spec.app_id,
            version=self.spec.version,
            description=self.spec.description,
            functions=tuple(functions),
            permissions=store_grants + self.spec.permissions,
            buckets=buckets,
            queues=self.spec.queues,
            tables=tables,
            needs_vm=self.spec.needs_vm,
            store=self.spec.store,
        )
