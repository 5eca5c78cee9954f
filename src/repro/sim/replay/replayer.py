"""TraceReplayer: feed recorded arrivals back through the fleet fold.

Three replay paths, one determinism discipline. The first two are
sources for :mod:`repro.sim.fold`, like the synthetic engines:

``run_replay_batched``
    Per-tenant trace counts, chunked and drawn exactly like
    :func:`repro.sim.scale.run_fleet`: ``sample_block`` latency streams
    under the *same* ``scale/tenant-<t>/<component>`` RNG namespaces,
    the handler profile of the config's storage backend, the same
    aggregate metering and single-expression float rollups. Replaying a
    trace recorded from ``run_fleet`` with the same :class:`ScaleConfig`
    reproduces the recorded invoice, per-tenant counts, SLA report and
    health exposition byte for byte — the record→replay **fixpoint**
    (``tests/sim/test_replay.py``).

``run_replay_sharded``
    Scale-out replay on the sharded engine's kernels: the trace is
    partitioned by the same splitmix64 ``shard_of`` tenant map
    (:func:`partition_trace`), workers run whole logical shards through
    :func:`replay_shard`, whose latencies come from ``sample_block_vec``
    quantile tables under ``replay/shard-<id>/latency`` namespaces, and
    :func:`merge_replay` is the shared order-independent merge. The
    resulting digest is byte-identical for any worker count and with or
    without numpy — the same contract ``tests/sim/test_shard_fleet.py``
    pins for the synthetic path.

``run_replay_chaos``
    Replays a trace's per-tenant send schedule through **real app
    stacks** (ChatClient → gateway → Lambda) under the chaos engine's
    fault schedule, asserting the resilience story holds for recorded
    traffic: 100% eventual delivery, per the paper's SLA claims.

Every path bills the plan the trace header records
(:func:`~repro.sim.replay.format.trace_plan`); the sharded and chaos
paths have no plan knob, and the batched path refuses a config whose
plan bills differently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.billing import BillingMeter, Invoice
from repro.errors import ConfigurationError
from repro.plan import DEFAULT_PLAN, DeploymentPlan
from repro.sim import vecmath
from repro.sim.fold import (
    Fold,
    ShardedFleetResult,
    ShardResult,
    fleet_sla_report,
    handler_components,
    health_plane,
    merge_results,
    plan_memory_mb,
)
from repro.sim.latency import LatencyModel
from repro.sim.replay.format import Trace, TraceFormatError, trace_digest, trace_plan
from repro.sim.rng import SeededRng
from repro.sim.scale import ChaosTenant, ScaleConfig, chaos_rollup, tenant_sampler
from repro.sim.shard import DEFAULT_LOGICAL_SHARDS, run_sharded, shard_of
from repro.units import seconds

__all__ = [
    "ReplayConfig",
    "ReplayResult",
    "fleet_sla_report",
    "partition_trace",
    "run_replay_batched",
    "replay_shard",
    "merge_replay",
    "run_replay_sharded",
    "run_replay_chaos",
]


# -- batched replay (the fixpoint path) ----------------------------------


def _check_plan(trace: Trace, plan: DeploymentPlan) -> None:
    """Refuse to bill a trace on a plan that bills differently from its header's."""
    recorded = trace_plan(trace.header)
    name = trace.header.name
    if plan.storage != recorded.storage:
        raise ConfigurationError(
            f"trace {name!r} was recorded on {recorded.storage!r} storage, "
            f"but the replay config bills {plan.storage!r}"
        )
    if plan_memory_mb(plan) != plan_memory_mb(recorded):
        raise ConfigurationError(
            f"trace {name!r} was recorded at {plan_memory_mb(recorded)} MB, "
            f"but the replay config bills {plan_memory_mb(plan)} MB"
        )
    if plan.price_book != recorded.price_book:
        raise ConfigurationError(
            f"trace {name!r} was recorded with the {recorded.price_book!r} price book, "
            f"but the replay config bills {plan.price_book!r}"
        )


@dataclass(frozen=True)
class ReplayResult:
    """What the batched replay produced — comparable to a FleetResult."""

    trace_name: str
    trace_sha256: str
    arrivals: int
    per_tenant_arrivals: Tuple[int, ...]
    total_billed_ms: int
    invoice_total: str
    report: Dict[str, object]
    wall_seconds: float
    events_per_second: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace": self.trace_name,
            "trace_sha256": self.trace_sha256,
            "arrivals": self.arrivals,
            "total_billed_ms": self.total_billed_ms,
            "invoice_total": self.invoice_total,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_second": round(self.events_per_second, 1),
        }


def run_replay_batched(trace: Trace, config: ScaleConfig, health=None) -> ReplayResult:
    """Replay a trace through :func:`repro.sim.scale.run_fleet`'s exact billing.

    ``config`` supplies what the trace does not carry: the latency-RNG
    seed and chunk size. Its plan must bill like the one the trace
    header records (storage backend, Lambda size, price book; S3, 448 MB
    and the 2017 book when the header is silent), or the replay raises
    :class:`ConfigurationError`. With
    the config that *recorded* the trace, every RNG draw, meter call, and
    float conversion happens in the same order as the recorded run — the
    fixpoint. Per-tenant counts and payload bytes come from the trace's
    columns (summed exactly in integers), so replaying an edited trace
    bills the edited bytes.

    ``health`` (a :class:`~repro.obs.metrics.MetricsPlane`) accumulates
    the same series the recorded run's plane did (``fleet.requests``,
    ``fleet.billed_ms``, ``fleet.request_us``). The fixpoint extends to
    the health plane: counters and histogram buckets are order-free
    accumulators over the identical per-request latencies, so a replay
    with the recording config produces byte-identical exposition.
    """
    if trace.header.tenants < 1:
        raise ConfigurationError("replay needs a trace with at least one tenant")
    _check_plan(trace, config.plan)
    start = time.perf_counter()
    counts = [0] * trace.header.tenants
    payloads = [0] * trace.header.tenants
    columns = trace.columns()
    for tenant, size in zip(columns.tenant, columns.size):
        counts[tenant] += 1
        payloads[tenant] += size
    meter = BillingMeter()
    components = config.components()
    total_billed_ms = 0
    for tenant in range(trace.header.tenants):
        fold = Fold(
            components, tenant_sampler(config.seed, tenant, components),
            plan_memory_mb(config.plan), meter=meter, health=health,
        )
        for done in range(0, counts[tenant], config.chunk):
            fold.chunk(min(config.chunk, counts[tenant] - done))
        fold.rollup(payloads[tenant])
        total_billed_ms += fold.billed_units * 100
    invoice = Invoice(meter, config.plan.prices)
    wall = time.perf_counter() - start
    arrivals = len(trace)
    return ReplayResult(
        trace_name=trace.header.name,
        trace_sha256=trace_digest(trace),
        arrivals=arrivals,
        per_tenant_arrivals=tuple(counts),
        total_billed_ms=total_billed_ms,
        invoice_total=str(invoice.total()),
        report=fleet_sla_report(arrivals),
        wall_seconds=wall,
        events_per_second=arrivals / wall if wall > 0 else 0.0,
    )


# -- sharded replay ------------------------------------------------------


@dataclass(frozen=True)
class ReplayConfig:
    """Everything the sharded replayer needs beyond the trace itself.

    The plan is not here: sharded replay bills the one the trace header
    records.
    """

    seed: int = 2017
    logical_shards: int = DEFAULT_LOGICAL_SHARDS
    chunk_events: int = 1 << 18
    latency_samples: int = 1 << 16

    def __post_init__(self):
        if self.logical_shards <= 0:
            raise ConfigurationError("replay needs at least one logical shard")
        if self.chunk_events <= 0:
            raise ConfigurationError("chunk_events must be positive")
        if self.latency_samples <= 0:
            raise ConfigurationError("latency_samples must be positive")

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "logical_shards": self.logical_shards,
            "chunk_events": self.chunk_events,
            "latency_samples": self.latency_samples,
        }


# The first arrival time the shard kernels' int64 columns cannot hold.
_INT64_LIMIT = 1 << 63

# A shard's slice of a trace, as parallel integer columns (picklable,
# vectorizable): arrival micros, tenant ids, payload bytes.
ShardColumns = Tuple[List[int], List[int], List[int]]


def partition_trace(trace: Trace, shards: int = DEFAULT_LOGICAL_SHARDS) -> List[ShardColumns]:
    """Split a trace into per-shard columns by the splitmix64 tenant map.

    Each event lands on ``shard_of(tenant)`` — the same pure function
    of the tenant id the synthetic sharded engine uses — and keeps its
    trace order within the shard. Worker count never enters the
    partitioning, which is what makes sharded replay byte-identical on
    any pool size. The trace's columns feed it; no event is built.

    The shard kernels hold arrival times as int64 under numpy, so a
    trace whose last timestamp reaches ``2**63`` raises
    :class:`TraceFormatError` here, with or without numpy.
    """
    if shards <= 0:
        raise ConfigurationError(f"shard count must be positive, got {shards}")
    columns = trace.columns()
    # Timestamps are non-decreasing, so the last one is the largest.
    if len(columns) and columns.at[-1] >= _INT64_LIMIT:
        raise TraceFormatError(
            f"trace {trace.header.name!r}: timestamp {columns.at[-1]} is not below "
            f"2**63 micros, the sharded replay's int64 limit"
        )
    parts: List[ShardColumns] = [([], [], []) for _ in range(shards)]
    shard_cache: Dict[int, ShardColumns] = {}
    for at, tenant, size in zip(columns.at, columns.tenant, columns.size):
        part = shard_cache.get(tenant)
        if part is None:
            part = shard_cache[tenant] = parts[shard_of(tenant, shards)]
        part[0].append(at)
        part[1].append(tenant)
        part[2].append(size)
    return parts


def replay_shard(
    columns: ShardColumns,
    shard_id: int,
    config: ReplayConfig,
    stride: int,
    collect_health: bool = False,
    plan: DeploymentPlan = DEFAULT_PLAN,
) -> ShardResult:
    """Replay one shard's recorded arrivals on the vectorized kernels.

    Latencies draw from ``replay/shard-<id>/latency`` — one stream per
    logical shard, components sampled in the handler order of
    ``plan.storage`` per chunk at the plan's Lambda size, exactly like
    :func:`repro.sim.shard.run_shard` — so the result is a pure function
    of ``(columns, shard_id, config, stride, plan)``, with or without
    numpy.
    """
    start = time.perf_counter()
    at_col, tenant_col, payload_col = columns
    # The shard's tenants, ascending, and each event's index among them.
    np = vecmath.numpy_or_none()
    if np is not None:
        tenant_ids, tenants = np.unique(np.asarray(tenant_col, dtype=np.int64), return_inverse=True)
    else:
        tenant_ids = sorted(set(tenant_col))
        local = dict(zip(tenant_ids, range(len(tenant_ids))))
        tenants = [local[tenant] for tenant in tenant_col]
    model = LatencyModel(rng=SeededRng(config.seed, f"replay/shard-{shard_id}/latency"))
    fold = Fold(
        handler_components(plan.storage), model.sample_block_vec, plan_memory_mb(plan),
        stride=stride, n_tenants=len(tenant_ids), health=health_plane(collect_health),
    )
    for lo in range(0, len(at_col), config.chunk_events):
        hi = min(lo + config.chunk_events, len(at_col))
        fold.chunk(hi - lo, at=at_col[lo:hi], tenants=tenants[lo:hi])
    return fold.result(shard_id, tenant_ids, sum(payload_col), start)


def merge_replay(
    trace: Trace, config: ReplayConfig, results: Sequence[ShardResult]
) -> ShardedFleetResult:
    """Fold shard replays into fleet totals, order-independently.

    The same merge as :func:`repro.sim.shard.merge_shards`
    (:func:`repro.sim.fold.merge_results`), checked against the trace:
    every event must have been replayed. The transfer bill comes from
    the trace's exact payload-byte sum, not a config-level request size,
    the rest of the bill from the plan the trace header records, and the
    digest also answers for the trace and its bytes.
    """
    merged = merge_results(
        results, trace.header.tenants, config.logical_shards, trace_plan(trace.header)
    )
    if merged.events != len(trace):
        raise ConfigurationError(
            f"replay lost events: trace holds {len(trace)}, "
            f"shards replayed {merged.events}"
        )
    merged.config = config
    merged.trace_name = trace.header.name
    merged.trace_sha256 = trace_digest(trace)
    return merged


def run_replay_sharded(
    trace: Trace,
    config: Optional[ReplayConfig] = None,
    workers: int = 1,
    collect_health: bool = False,
) -> ShardedFleetResult:
    """Replay a whole trace on the sharded engine and merge.

    The bill is the plan's the trace header records: its storage
    backend, Lambda size and price book. ``workers`` only controls scheduling —
    whole logical shards per worker — so the merged result (and its
    ``determinism_digest``) is byte-identical on 1, 2, or N workers, with
    or without numpy.
    ``collect_health`` adds shard-local metrics planes merged
    order-independently, exactly like
    :func:`repro.sim.shard.run_fleet_sharded`.
    """
    config = config or ReplayConfig()
    # The latency-sample stride: a pure function of (trace size, config).
    stride = max(1, len(trace) // config.latency_samples)
    plan = trace_plan(trace.header)
    columns = partition_trace(trace, config.logical_shards)
    jobs = [
        (columns[shard_id], shard_id, config, stride, collect_health, plan)
        for shard_id in range(config.logical_shards)
    ]
    return run_sharded(
        replay_shard, jobs, lambda results: merge_replay(trace, config, results), workers
    )


# -- chaos replay: recorded traffic through real app stacks --------------


def run_replay_chaos(
    trace: Trace,
    chaos: bool = True,
    error_rate: float = 0.01,
    brownout_rate: float = 0.5,
) -> Dict[str, object]:
    """Drive a trace's per-tenant schedule through real chat stacks.

    Each trace tenant gets a fresh :class:`CloudProvider` with the chat
    app deployed under the plan the trace header records; every recorded event becomes an alice→bob groupchat
    send at the recorded virtual time, while the chaos engine (when
    ``chaos=True``) injects the standard fault schedule over the
    tenant's recorded horizon. Clients queue-and-drain through faults;
    the run then settles until the inbox is dry. The SLA rollup proves
    the paper's resilience claim on *recorded* traffic: 100% eventual
    delivery per seed (``tests/sim/test_replay.py``).

    Setup, settling and the reports are the chaos fleet's
    (:class:`~repro.sim.scale.ChaosTenant`); only the send loop differs:
    the clock advances to each recorded time *before* its send.
    """
    # Each tenant's arrival times, in trace order: all a send schedule needs.
    plan = trace_plan(trace.header)
    by_tenant: Dict[int, List[int]] = {}
    columns = trace.columns()
    for at, tenant in zip(columns.at, columns.tenant):
        by_tenant.setdefault(tenant, []).append(at)
    tenant_runs = []
    for tenant in sorted(by_tenant):
        arrivals = by_tenant[tenant]
        base = arrivals[0]
        run = ChaosTenant(
            f"replay-{trace.header.name}-{tenant}", trace.header.seed, plan,
            max(arrivals[-1] - base, seconds(1)), chaos, error_rate, brownout_rate,
        )
        clock = run.provider.clock
        bodies = []
        for i, at in enumerate(arrivals):
            target = run.start + (at - base)
            if target > clock.now:
                clock.advance(target - clock.now)
            body = f"replay-{tenant}-{i}"
            bodies.append(body)
            run.alice.send("room", body)
            if i % 3 == 2:
                run.poll()
        tenant_runs.append(run.finish(tenant, bodies))
    per_tenant, fleet = chaos_rollup(tenant_runs)
    return {
        "scenario": "replay_chaos",
        "trace": trace.header.name,
        "trace_sha256": trace_digest(trace),
        "chaos": chaos,
        "per_tenant": per_tenant,
        "fleet": fleet,
    }
