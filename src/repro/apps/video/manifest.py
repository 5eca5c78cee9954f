"""The video app as a store-listable manifest.

The relay itself is a VM (Lambda cannot hold open connections, §6.1),
but the deployment still fits the DIY model: the manifest declares the
instance type, and a small Lambda *signaling* function hands out call
coordinates — who is in the call and which relay endpoint to dial —
so the app store can install video conferencing like everything else.
The media key is never part of signaling; participants derive it out of
band (e.g. over the chat app).
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.app import AppManifest
from repro.net.http import HttpRequest, HttpResponse
from repro.runtime.kernel import AppKernel, AppSpec, KernelContext, KernelFunction, RouteDecl, StoreDecl

__all__ = ["video_manifest"]

_CALL_AAD = b"call"


def _create_call(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    """Create a call record (encrypted at rest, of course)."""
    call = json.loads(request.body)
    if "participants" not in call or len(call["participants"]) < 2:
        return HttpResponse(400, {}, b'{"error": "need >=2 participants"}')
    call_id = f"call-{kctx.clock.now:020d}"
    record = dict(call, call_id=call_id, relay=f"relay.{kctx.region.name}.diy:5004")
    kctx.store.put_json(f"calls/{call_id}", record, aad=_CALL_AAD)
    return HttpResponse(200, {"content-type": "application/json"},
                        json.dumps(record).encode())


def _fetch_call(kctx: KernelContext, request: HttpRequest, call_id: str) -> HttpResponse:
    """Look up one call record by id (``GET /signal/{call_id}``)."""
    if not call_id.startswith("call-"):
        return HttpResponse(404, {}, b'{"error": "no such signaling action"}')
    plaintext = kctx.store.get_sealed(f"calls/{call_id}", aad=_CALL_AAD)
    return HttpResponse(200, {"content-type": "application/json"}, plaintext)


VIDEO_SPEC = AppSpec(
    app_id="diy-video",
    version="1.0.0",
    description="Private video conferencing: sealed-media relay + signaling",
    functions=(
        KernelFunction(
            suffix="signal",
            routes=(
                RouteDecl("POST", "/signal/create", _create_call, name="create"),
                RouteDecl("GET", "/signal/{call_id}", _fetch_call, name="fetch"),
            ),
            timeout_ms=10_000,
            route_prefix="/signal",
            footprint_mb=5,
        ),
    ),
    store=StoreDecl(bucket="calls", table="kv",
                    reason="encrypted call records"),
    needs_vm="t2.medium",
)


def video_manifest(plan: Optional["DeploymentPlan"] = None) -> AppManifest:
    """Table 2's video row, packaged for the store."""
    return AppKernel(VIDEO_SPEC, plan).manifest()
