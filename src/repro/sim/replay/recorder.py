"""TraceRecorder: dump repro-trace files from live runs.

The recorder sits on the same seams the tracer does — the gateway's
front door for real app traffic (:meth:`ApiGateway.attach_recorder`,
installed by :meth:`CloudProvider.enable_recording`) and the batched
fleet engine's chunk loop (``run_fleet(..., recorder=...)``). It is
pure observation: it draws from no RNG stream and advances no clock,
so recording changes nothing billable — the run it records stays
byte-identical to the unrecorded run, which is what makes the
record→replay fixpoint test meaningful.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional

from repro.sim.replay.format import (
    DEFAULT_MEMORY_MB,
    DEFAULT_STORAGE,
    PathLike,
    Trace,
    TraceEvent,
    TraceHeader,
    meta_pairs,
    sort_events,
    write_trace,
)

__all__ = ["TraceRecorder", "FLEET_APP", "FLEET_ROUTE"]

FLEET_APP = "fleet"
FLEET_ROUTE = "/fleet/request"


class TraceRecorder:
    """Accumulates trace events from a live run, then emits a Trace.

    ``tenants`` declares the dense tenant space; events are appended in
    whatever order the run produces them (the fleet engine finishes
    tenant 0 before starting tenant 1) and :meth:`trace` restores the
    canonical time order with a stable sort.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        tenants: int = 1,
        meta: Optional[Dict[str, object]] = None,
    ):
        self._header = TraceHeader(
            name=name, seed=seed, tenants=tenants, meta=meta_pairs(meta)
        )
        self._events: List[TraceEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    @property
    def tenants(self) -> int:
        return self._header.tenants

    def set_plan(
        self, storage: str = DEFAULT_STORAGE, memory_mb: int = DEFAULT_MEMORY_MB,
    ) -> None:
        """Note the storage backend and Lambda memory size the run bills.

        The defaults (S3, 448 MB) are left implicit, so default traces
        keep their exact bytes and digests; any other value lands in
        ``meta["storage"]`` or ``meta["memory_mb"]`` for the replayers to
        bill, or to refuse a config that disagrees.
        """
        meta = self._header.meta_dict()
        for key, value, default in (
            ("storage", storage, DEFAULT_STORAGE), ("memory_mb", memory_mb, DEFAULT_MEMORY_MB),
        ):
            meta.pop(key, None)
            if value != default:
                meta[key] = value
        self._header = replace(self._header, meta=meta_pairs(meta))

    def record(
        self,
        at_micros: int,
        tenant: int,
        app: str,
        route: str,
        payload_bytes: int,
        actor: str = "",
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record one operation at a virtual timestamp."""
        self._events.append(
            TraceEvent(
                at_micros=at_micros,
                tenant=tenant,
                app=app,
                route=route,
                payload_bytes=payload_bytes,
                actor=actor,
                meta=meta_pairs(meta),
            )
        )

    def record_request(
        self, at_micros: int, client_name: str, path: str, payload_bytes: int
    ) -> None:
        """The gateway seam: one accepted HTTPS request.

        The app is the route's first path segment (``/chat-app/send`` →
        ``chat-app``), matching how the gateway itself routes by prefix;
        the issuing client becomes the actor.
        """
        segments = path.strip("/").split("/", 1)
        app = segments[0] if segments and segments[0] else "unknown"
        self.record(
            at_micros=at_micros,
            tenant=0,
            app=app,
            route=path,
            payload_bytes=payload_bytes,
            actor=client_name,
        )

    def record_fleet_chunk(
        self, tenant: int, timestamps: Iterable[int], payload_bytes: int
    ) -> None:
        """The fleet-engine seam: one chunk of synthetic arrivals.

        Every arrival in the chunk shares the tenant's synthetic app and
        payload size — exactly the shape :func:`repro.sim.scale.run_fleet`
        bills — so replaying these events re-derives the same usage
        quantities.
        """
        append = self._events.append
        for at in timestamps:
            append(
                TraceEvent(
                    at_micros=int(at),
                    tenant=tenant,
                    app=FLEET_APP,
                    route=FLEET_ROUTE,
                    payload_bytes=payload_bytes,
                )
            )

    def trace(self) -> Trace:
        """The recorded run as a canonical, validated trace."""
        return Trace(header=self._header, events=sort_events(self._events)).validate()

    def write(self, path: PathLike) -> int:
        """Write the canonical trace file; returns the event count."""
        return write_trace(path, self.trace())
