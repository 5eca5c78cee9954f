"""TraceReplayer: feed recorded arrivals back through the fleet fold.

Two replay paths, one determinism discipline:

``run_replay_sharded``
    Replay on the sharded engine's kernels, a source for
    :mod:`repro.sim.fold` like the synthetic engines: the trace is
    partitioned by the same splitmix64 ``shard_of`` tenant map
    (:func:`partition_trace`), workers run whole logical shards through
    :func:`replay_shard`, whose latencies come from ``sample_block_vec``
    quantile tables under ``<stream>/shard-<id>/latency`` namespaces, and
    :func:`merge_replay` is the shared order-independent merge. The
    digest is byte-identical for any worker count and with or without
    numpy. The header says how to draw (:func:`~repro.sim.replay.format.trace_engine`):
    a library scenario replays on the replayer's own ``replay`` stream,
    and a trace the sharded fleet recorded names the ``fleet`` stream,
    chunking, shard count and sample stride its run drew with, so its
    replay reproduces that run's full determinism digest, health
    exposition included — the record→replay **fixpoint**
    (``tests/sim/test_plan_field.py``).

``run_replay_chaos``
    Replays a trace's per-tenant send schedule through **real app
    stacks** (ChatClient → gateway → Lambda) under the chaos engine's
    fault schedule, asserting the resilience story holds for recorded
    traffic: 100% eventual delivery, per the paper's SLA claims.

Both paths bill the plan the trace header records
(:func:`~repro.sim.replay.format.trace_plan`) and have no plan knob.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.sim.replay.format import (
    Trace,
    TraceEngine,
    TraceFormatError,
    trace_digest,
    trace_engine,
    trace_plan,
)
from repro.sim.rng import SeededRng
from repro.sim.scale import ChaosTenant, chaos_rollup
from repro.sim.shard import DEFAULT_LOGICAL_SHARDS, run_sharded, shard_ids, shard_of
from repro.units import seconds

__all__ = [
    "ReplayConfig",
    "fleet_sla_report",
    "partition_trace",
    "replay_shard",
    "merge_replay",
    "run_replay_sharded",
    "run_replay_chaos",
]


@dataclass(frozen=True)
class ReplayConfig:
    """What a sharded replay takes beyond the trace: the latency-RNG seed.

    Without one, the replay draws with the header's seed. The plan and
    the engine settings are not here: the replay bills the plan and
    draws the way the trace header records.
    """

    seed: int = 2017


# The first arrival time the shard kernels' int64 columns cannot hold.
_INT64_LIMIT = 1 << 63

# A shard's slice of a trace, as parallel integer columns (picklable,
# vectorizable): arrival micros, tenant ids, payload bytes. Under numpy
# they are int64 arrays (payloads past int64 in an object array), else
# lists of ``int``.
ShardColumns = Tuple[List[int], List[int], List[int]]


def partition_trace(trace: Trace, shards: int = DEFAULT_LOGICAL_SHARDS) -> List[ShardColumns]:
    """Split a trace into per-shard columns by the splitmix64 tenant map.

    Each event lands on ``shard_of(tenant)`` — the same pure function
    of the tenant id the synthetic sharded engine uses — and keeps its
    trace order within the shard. Worker count never enters the
    partitioning, which is what makes sharded replay byte-identical on
    any pool size. The trace's columns feed it; no event is built.

    Under numpy the columns stay int64 arrays (a trace read under numpy
    already holds them; list columns are converted once). Each event's
    shard id is gathered from the cached shard map
    (:func:`~repro.sim.shard.shard_ids`) as ``uint8`` when there are at
    most 256 shards, and one stable argsort of the ids orders every
    column by shard. On the ``replay-iot`` trace (505,551 events, 64
    shards; 2-vCPU x86-64 host, best of 5) that takes 11 ms, where the
    loop over a dict it replaced took 57 ms: numpy sorts the ``uint8``
    ids by radix in 1.8 ms, where int64 ids take 27 ms. Without numpy
    the loop remains, and its lists hold the same values.

    The shard kernels hold arrival times as int64 under numpy, so a
    trace whose last timestamp reaches ``2**63`` raises
    :class:`TraceFormatError` here, with or without numpy.
    """
    if shards <= 0:
        raise ConfigurationError(f"shard count must be positive, got {shards}")
    columns = trace.readonly_columns()
    # Timestamps are non-decreasing, so the last one is the largest.
    if len(columns) and columns.at[-1] >= _INT64_LIMIT:
        raise TraceFormatError(
            f"trace {trace.header.name!r}: timestamp {int(columns.at[-1])} is not below "
            f"2**63 micros, the sharded replay's int64 limit"
        )
    np = vecmath.numpy_or_none()
    if np is not None:
        at = np.asarray(columns.at, dtype=np.int64)
        tenant = np.asarray(columns.tenant, dtype=np.int64)
        try:
            size = np.asarray(columns.size, dtype=np.int64)
        except OverflowError:  # a payload past int64 keeps its exact int
            size = np.asarray(columns.size, dtype=object)
        owners = shard_ids(np, tenant, trace.header.tenants, shards)
        order = np.argsort(owners, kind="stable")
        cuts = np.cumsum(np.bincount(owners, minlength=shards))[:-1]
        return list(zip(*(np.split(column[order], cuts) for column in (at, tenant, size))))
    columns = columns.lists()
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
    engine: TraceEngine = TraceEngine(),
    collect_health: bool = False,
    plan: DeploymentPlan = DEFAULT_PLAN,
) -> ShardResult:
    """Replay one shard's recorded arrivals on the vectorized kernels.

    Latencies draw from ``<engine.latency_stream>/shard-<id>/latency`` —
    one stream per logical shard, components sampled in the handler
    order of ``plan.storage`` per ``engine.chunk_events`` chunk at the
    plan's Lambda size, exactly like :func:`repro.sim.shard.run_shard` —
    so the result is a pure function of ``(columns, shard_id, config,
    engine, plan)``, with or without numpy.
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
    stream = f"{engine.latency_stream}/shard-{shard_id}/latency"
    model = LatencyModel(rng=SeededRng(config.seed, stream))
    fold = Fold(
        handler_components(plan.storage), model.sample_block_vec, plan_memory_mb(plan),
        stride=engine.sample_stride, n_tenants=len(tenant_ids),
        health=health_plane(collect_health),
    )
    chunk = engine.chunk_events
    for lo in range(0, len(at_col), chunk):
        hi = min(lo + chunk, len(at_col))
        fold.chunk(hi - lo, at=at_col[lo:hi], tenants=tenants[lo:hi])
    return fold.result(shard_id, tenant_ids, _payload_sum(payload_col), start)


def _payload_sum(column) -> int:
    """A payload column's exact sum; an int64 array is summed in int64 only where it cannot overflow."""
    if type(column) is list or column.dtype == object:
        return sum(column)
    if len(column) and int(column.max()) > (_INT64_LIMIT - 1) // len(column):
        return sum(column.tolist())
    return int(column.sum())


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
    shards = trace_engine(trace.header, len(trace)).logical_shards
    merged = merge_results(results, trace.header.tenants, shards, trace_plan(trace.header))
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
    backend, Lambda size and price book; the draws follow the header's
    engine settings (:func:`~repro.sim.replay.format.trace_engine`), and
    the latency seed is the header's unless ``config`` says otherwise, so
    a trace the sharded fleet recorded replays to that run's determinism
    digest. ``workers`` only controls scheduling —
    whole logical shards per worker — so the merged result (and its
    ``determinism_digest``) is byte-identical on 1, 2, or N workers, with
    or without numpy.
    ``collect_health`` adds shard-local metrics planes merged
    order-independently, exactly like
    :func:`repro.sim.shard.run_fleet_sharded`.
    """
    config = config or ReplayConfig(seed=trace.header.seed)
    engine = trace_engine(trace.header, len(trace))
    plan = trace_plan(trace.header)
    columns = partition_trace(trace, engine.logical_shards)
    jobs = [
        (columns[shard_id], shard_id, config, engine, collect_health, plan)
        for shard_id in range(engine.logical_shards)
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
