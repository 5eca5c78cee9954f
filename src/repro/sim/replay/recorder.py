"""TraceRecorder: dump repro-trace files from live runs.

The recorder has two seams: the gateway's front door for real app
traffic (:meth:`ApiGateway.attach_recorder`, installed by
:meth:`CloudProvider.enable_recording`) and the sharded fleet
(``run_fleet_sharded(..., recorder=...)``). It is pure observation: it
draws from no RNG stream and advances no clock, so recording changes
nothing billable — the run it records stays byte-identical to the
unrecorded run, which is what makes the record→replay fixpoint test
meaningful.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional

from repro.errors import ConfigurationError
from repro.plan import DeploymentPlan
from repro.sim.replay.format import (
    PLAN_META_DEFAULTS,
    KindTable,
    PathLike,
    Trace,
    TraceColumns,
    TraceEngine,
    TraceHeader,
    engine_meta,
    meta_pairs,
    plan_meta,
    write_trace,
)

__all__ = ["TraceRecorder", "FLEET_APP", "FLEET_ROUTE"]

FLEET_APP = "fleet"
FLEET_ROUTE = "/fleet/request"


class TraceRecorder:
    """Accumulates trace columns from a live run, then emits a Trace.

    ``tenants`` declares the dense tenant space; events are appended to
    the columns in whatever order the run produces them (the sharded
    fleet hands over shard 0's arrivals before shard 1's) and
    :meth:`trace` restores the canonical time order with one stable
    sort. No :class:`~repro.sim.replay.format.TraceEvent` is built.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        tenants: int = 1,
        meta: Optional[Dict[str, object]] = None,
    ):
        self._header = TraceHeader(
            name=name, seed=seed, tenants=tenants, meta=meta
        )
        self._engine: Optional[TraceEngine] = None
        self._kinds = KindTable()
        self._columns = TraceColumns([], [], [], [], self._kinds.kinds)

    def __len__(self) -> int:
        return len(self._columns)

    @property
    def tenants(self) -> int:
        return self._header.tenants

    def set_plan(self, plan: DeploymentPlan) -> None:
        """Note the plan the run bills, replacing any plan noted before.

        Default fields (S3, 448 MB, the 2017 book) are left implicit, so
        default traces keep their exact bytes and digests; any other
        value lands in ``meta["storage"]``, ``meta["memory_mb"]`` or
        ``meta["price_book"]`` for the replay to bill.
        """
        meta = {key: value for key, value in self._header.meta_dict().items()
                if key not in PLAN_META_DEFAULTS}
        meta.update(plan_meta(plan))
        self._header = replace(self._header, meta=meta)

    def set_engine(self, **fields) -> None:
        """Note how the run drew (:class:`TraceEngine`'s fields), for the replay to draw alike.

        :meth:`trace` writes the values a replay would not assume as flat
        meta keys (:func:`~repro.sim.replay.format.engine_meta`).
        """
        self._engine = TraceEngine(**fields)

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
        columns = self._columns
        columns.at.append(at_micros)
        columns.tenant.append(tenant)
        columns.size.append(payload_bytes)
        columns.kind.append(self._kinds.add(app, route, actor, meta_pairs(meta)))

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
        self, timestamps: Iterable[int], tenants: Iterable[int], payload_bytes: int
    ) -> None:
        """The fleet seam: synthetic arrivals, one tenant id per timestamp.

        Every arrival shares the fleet's synthetic app and payload size —
        exactly the shape the sharded fleet bills — so replaying these
        events re-derives the same usage quantities.
        """
        at, tenant = list(map(int, timestamps)), list(map(int, tenants))
        if len(at) != len(tenant):
            raise ConfigurationError(f"{len(at)} arrival times but {len(tenant)} tenant ids")
        columns = self._columns
        count = len(at)
        columns.at += at
        columns.tenant += tenant
        columns.size.extend([payload_bytes] * count)
        columns.kind.extend([self._kinds.add(FLEET_APP, FLEET_ROUTE, "", ())] * count)

    def trace(self) -> Trace:
        """The recorded run as a canonical, validated trace."""
        header = self._header
        if self._engine is not None:
            meta = {**header.meta_dict(), **engine_meta(self._engine, len(self))}
            header = replace(header, meta=meta)
        return Trace.from_columns(header, self._columns.time_sorted()).validate()

    def write(self, path: PathLike) -> int:
        """Write the canonical trace file; returns the event count."""
        return write_trace(path, self.trace())
