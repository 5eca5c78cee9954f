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
from repro.sim.metrics import AvailabilityTracker, MetricSeries, sla_report
from repro.sim.replay.format import Trace, trace_digest, trace_plan
from repro.sim.rng import SeededRng
from repro.sim.scale import ScaleConfig, tenant_sampler
from repro.sim.shard import DEFAULT_LOGICAL_SHARDS, run_sharded, shard_of

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
    """
    if shards <= 0:
        raise ConfigurationError(f"shard count must be positive, got {shards}")
    parts: List[ShardColumns] = [([], [], []) for _ in range(shards)]
    shard_cache: Dict[int, ShardColumns] = {}
    columns = trace.columns()
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
    """
    from repro.apps.chat import ChatClient, ChatService, chat_manifest
    from repro.cloud.provider import CloudProvider
    from repro.core.deployment import Deployer
    from repro.sim.scale import _schedule_chaos, ChaosConfig
    from repro.units import seconds

    # Each tenant's arrival times, in trace order: all a send schedule needs.
    plan = trace_plan(trace.header)
    by_tenant: Dict[int, List[int]] = {}
    columns = trace.columns()
    for at, tenant in zip(columns.at, columns.tenant):
        by_tenant.setdefault(tenant, []).append(at)
    fleet_tracker = AvailabilityTracker()
    fleet_latency = MetricSeries("replay-chaos.e2e_ms", "ms")
    per_tenant: List[Dict[str, object]] = []
    delivered_total = 0
    expected_total = 0
    breaker_trips = 0
    injected: Dict[str, int] = {}
    for tenant in sorted(by_tenant):
        arrivals = by_tenant[tenant]
        provider = CloudProvider(name=f"replay-{trace.header.name}-{tenant}",
                                 seed=trace.header.seed, plan=plan)
        app = Deployer(provider).deploy(chat_manifest(plan=plan), owner="alice")
        service = ChatService(app)
        service.create_room("room", ["alice@diy", "bob@diy"])
        alice = ChatClient(service, "alice@diy")
        alice.join("room")
        alice.connect()
        bob = ChatClient(service, "bob@diy")
        bob.join("room")
        bob.connect()

        base = arrivals[0]
        horizon = max(arrivals[-1] - base, seconds(1))
        start = provider.clock.now
        if chaos:
            chaos_config = ChaosConfig(
                tenants=1, messages=len(arrivals), seed=trace.header.seed,
                error_rate=error_rate, brownout_rate=brownout_rate, plan=plan,
            )
            _schedule_chaos(provider, chaos_config, start, horizon)

        bodies = []
        received_bodies = set()
        for i, at in enumerate(arrivals):
            target = start + (at - base)
            if target > provider.clock.now:
                provider.clock.advance(target - provider.clock.now)
            body = f"replay-{tenant}-{i}"
            bodies.append(body)
            alice.send("room", body)
            if i % 3 == 2:
                for message in bob.poll(wait_seconds=0):
                    received_bodies.add(message.body)

        # Settle: outrun every fault window, drain, poll until dry.
        provider.clock.advance(horizon)
        for _ in range(5):
            if not alice.outbox:
                break
            alice.drain_outbox()
            provider.clock.advance(seconds(5))
        empty_polls = 0
        while empty_polls < 2:
            received = bob.poll(wait_seconds=0)
            if received:
                received_bodies.update(message.body for message in received)
                empty_polls = 0
            else:
                empty_polls += 1
            provider.clock.advance(seconds(1))

        tracker = AvailabilityTracker()
        tracker.merge(alice.tracker)
        tracker.merge(bob.tracker)
        latency = provider.metrics.get("chat.e2e_ms")
        delivered = len(received_bodies.intersection(bodies))
        report = sla_report(
            tracker,
            delivered=delivered,
            expected=len(bodies),
            latency_ms=latency,
            breaker_trips=alice.breaker.trips + bob.breaker.trips,
            injected=dict(provider.faults.injected),
        )
        report["tenant"] = tenant
        per_tenant.append(report)
        delivered_total += delivered
        expected_total += len(bodies)
        breaker_trips += int(report["breaker_trips"])
        for target_name, count in report["injected_faults"].items():
            injected[target_name] = injected.get(target_name, 0) + count
        if latency is not None:
            fleet_latency.extend(latency.samples)
        fleet_tracker.merge(tracker)
    return {
        "scenario": "replay_chaos",
        "trace": trace.header.name,
        "trace_sha256": trace_digest(trace),
        "chaos": chaos,
        "per_tenant": per_tenant,
        "fleet": sla_report(
            fleet_tracker,
            delivered=delivered_total,
            expected=expected_total,
            latency_ms=fleet_latency,
            breaker_trips=breaker_trips,
            injected=injected,
        ),
    }
