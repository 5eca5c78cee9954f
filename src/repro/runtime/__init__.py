"""The unified serverless application kernel (routing, middleware, state).

Apps declare an :class:`~repro.runtime.kernel.AppSpec` and let the
:class:`~repro.runtime.kernel.AppKernel` assemble the manifest, the
router, the middleware pipeline, and the storage backend. See
``DESIGN.md`` §"Runtime kernel" for the architecture.

The package re-exports nothing: import each name from its module
(``from repro.runtime.kernel import AppKernel``). The cloud layer
imports ``repro.runtime.errors`` for the shared throttle mapping, and
an eager kernel import here would cycle back through ``repro.core.app``
into the cloud provider.
"""
