"""The unified serverless application kernel (routing, middleware, state).

Apps declare an :class:`~repro.runtime.kernel.AppSpec` and let the
:class:`~repro.runtime.kernel.AppKernel` assemble the manifest, the
router, the middleware pipeline, and the storage backend. See
``DESIGN.md`` §"Runtime kernel" for the architecture.

Attribute access is lazy (PEP 562): the cloud layer imports
``repro.runtime.errors`` for the shared throttle mapping, and an eager
kernel import here would cycle back through ``repro.core.app`` into the
cloud provider.
"""

from __future__ import annotations

from importlib import import_module

__all__ = [
    "Route",
    "Router",
    "RequestTrace",
    "StateStore",
    "S3Store",
    "DynamoStore",
    "CachedStore",
    "OwnerOps",
    "STORAGE_ENV",
    "STORAGE_BACKENDS",
    "RouteDecl",
    "StoreDecl",
    "KernelFunction",
    "AppSpec",
    "AppKernel",
    "KernelContext",
    "error_response",
    "throttled_response",
    "json_response",
    "owner_store",
    "app_storage",
]

_EXPORTS = {
    "Route": "repro.runtime.router",
    "Router": "repro.runtime.router",
    "RequestTrace": "repro.runtime.trace",
    "StateStore": "repro.runtime.store",
    "S3Store": "repro.runtime.store",
    "DynamoStore": "repro.runtime.store",
    "CachedStore": "repro.runtime.store",
    "OwnerOps": "repro.runtime.store",
    "STORAGE_ENV": "repro.runtime.store",
    "STORAGE_BACKENDS": "repro.runtime.store",
    "RouteDecl": "repro.runtime.kernel",
    "StoreDecl": "repro.runtime.kernel",
    "KernelFunction": "repro.runtime.kernel",
    "AppSpec": "repro.runtime.kernel",
    "AppKernel": "repro.runtime.kernel",
    "KernelContext": "repro.runtime.kernel",
    "error_response": "repro.runtime.errors",
    "throttled_response": "repro.runtime.errors",
    "json_response": "repro.runtime.errors",
    "owner_store": "repro.runtime.owner",
    "app_storage": "repro.runtime.owner",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.runtime' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache for the next lookup
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
