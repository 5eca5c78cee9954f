"""The file-transfer function.

Endpoints (all tunneled over the app's HTTPS route, declared on the
:class:`repro.runtime.kernel.AppKernel` router):

- ``POST /offer``  — create a transfer ticket {filename, recipient, chunks}.
- ``PUT  /chunk``  — upload one encrypted chunk (the function buffers it,
  which is why this row of Table 2 allocates 1024 MB).
- ``GET  /download/{ticket}/{index}`` — download one chunk.
- ``POST /done``   — recipient acknowledges; the ticket's chunks are deleted.

A scheduled janitor sweeps tickets the receiver never acknowledged, so
the temporary storage really is temporary even when clients misbehave.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.app import AppManifest
from repro.net.http import HttpRequest, HttpResponse
from repro.runtime.errors import json_response
from repro.runtime.kernel import AppKernel, AppSpec, KernelContext, KernelFunction, RouteDecl, StoreDecl
from repro.units import MIB

__all__ = [
    "file_transfer_manifest",
    "CHUNK_BYTES",
    "XFER_FOOTPRINT_MB",
    "TICKET_TTL_MICROS",
]

CHUNK_BYTES = 64 * MIB  # fits comfortably in a 1024 MB function
XFER_FOOTPRINT_MB = 8


def _meta_key(ticket: str) -> str:
    return f"tickets/{ticket}/meta"


def _chunk_key(ticket: str, index: int) -> str:
    return f"tickets/{ticket}/chunks/{index:06d}"


def _offer(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    offer = json.loads(request.body)
    for field in ("filename", "sender", "recipient", "chunks"):
        if field not in offer:
            return json_response({"error": f"missing {field}"}, 400)
    ticket = f"t-{kctx.clock.now:020d}-{kctx.request_id}"
    kctx.store.put_sealed(_meta_key(ticket), json.dumps(offer).encode(),
                          aad=ticket.encode())
    return json_response({"ticket": ticket})


def _store_chunk(kctx: KernelContext, ticket: str, index: int, body: bytes) -> HttpResponse:
    # Buffer the chunk in function memory, then encrypt and store it.
    kctx.track_bytes(len(body))
    kctx.store.put_sealed(_chunk_key(ticket, index), body,
                          aad=f"{ticket}/{index}".encode())
    kctx.release_bytes(len(body))
    return json_response({"stored": index})


def _chunk(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    ticket = request.header("x-diy-ticket")
    index = request.header("x-diy-chunk")
    if ticket is None or index is None:
        return json_response({"error": "missing ticket/chunk headers"}, 400)
    return _store_chunk(kctx, ticket, int(index), request.body)


def _download(kctx: KernelContext, request: HttpRequest,
              ticket: str, index: str) -> HttpResponse:
    """``GET /xfer/download/{ticket}/{index}``: one decrypted chunk."""
    chunk = int(index)
    blob = kctx.store.get(_chunk_key(ticket, chunk))
    plaintext = kctx.encryptor.decrypt_bytes(blob, aad=f"{ticket}/{chunk}".encode())
    kctx.release_bytes(len(blob) + len(plaintext))
    return HttpResponse(200, {"content-type": "application/octet-stream"}, plaintext)


def _done(kctx: KernelContext, request: HttpRequest) -> HttpResponse:
    ticket = request.header("x-diy-ticket")
    if ticket is None:
        return json_response({"error": "missing ticket header"}, 400)
    deleted = 0
    for key in kctx.store.list(f"tickets/{ticket}/"):
        kctx.store.delete(key)
        deleted += 1
    return json_response({"deleted": deleted})


# Tickets the receiver never acknowledged are swept after this long —
# the storage really is temporary even when clients misbehave.
TICKET_TTL_MICROS = 24 * 60 * 60 * 1_000_000


def _janitor(kctx: KernelContext, event) -> dict:
    """Scheduled sweep: delete tickets older than the TTL.

    Ticket ids embed their creation time (``t-<micros>-<request>``), so
    expiry needs no decryption — the janitor never touches a key.
    """
    now = kctx.clock.now
    swept_tickets = 0
    swept_objects = 0
    seen = set()
    for key in kctx.store.list("tickets/"):
        ticket = key.split("/")[1]
        if ticket in seen:
            continue
        seen.add(ticket)
        try:
            created = int(ticket.split("-")[1])
        except (IndexError, ValueError):
            continue
        if now - created < TICKET_TTL_MICROS:
            continue
        for stale in kctx.store.list(f"tickets/{ticket}/"):
            kctx.store.delete(stale)
            swept_objects += 1
        swept_tickets += 1
    return {"tickets": swept_tickets, "objects": swept_objects}


XFER_SPEC = AppSpec(
    app_id="diy-filetransfer",
    version="1.0.0",
    description="AirDrop-style private file transfer via temporary encrypted storage",
    functions=(
        KernelFunction(
            suffix="handler",
            routes=(
                RouteDecl("POST", "/xfer/offer", _offer, name="offer"),
                RouteDecl("PUT", "/xfer/chunk", _chunk, name="chunk"),
                RouteDecl("GET", "/xfer/download/{ticket}/{index}", _download,
                          name="download"),
                RouteDecl("POST", "/xfer/done", _done, name="done"),
            ),
            memory_mb=1024,
            timeout_ms=120_000,
            route_prefix="/xfer",
            footprint_mb=XFER_FOOTPRINT_MB,
        ),
        KernelFunction(
            suffix="janitor",
            event_endpoint=_janitor,
            memory_mb=128,
            memory_scaled=False,  # the sweep needs no headroom for chunks
            timeout_ms=120_000,
            footprint_mb=XFER_FOOTPRINT_MB,
        ),
    ),
    store=StoreDecl(bucket="drop", table="kv", deletes=True,
                    reason="temporary encrypted chunk storage"),
)


def file_transfer_manifest(plan: Optional["DeploymentPlan"] = None) -> AppManifest:
    """Table 2's file-transfer row: 1024 MB declared, ~100 requests/day.

    The janitor stays at 128 MB regardless of the plan's memory size;
    ``plan`` supplies the chunk-store backend and every other knob
    (with none, the default plan applies).
    """
    return AppKernel(XFER_SPEC, plan).manifest()
