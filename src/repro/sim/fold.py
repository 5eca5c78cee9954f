"""The fleet fold: the handler profile and the Lambda billing rule, once.

The paper's cost argument is per-request Lambda billing: a request's run
time is rounded up to 100 ms units and priced per GB-second, plus a
per-request charge for the function and each service call it makes.
Every fleet path in :mod:`repro.sim` prices requests that way, and each
of them is only a **source** of arrival chunks for this module:

* :func:`repro.sim.scale.run_fleet` — per-tenant synthetic chunks, the
  traced engine;
* :func:`repro.sim.shard.run_shard` — pooled shard arrivals, each
  assigned to a tenant by a uniform draw (the recording engine);
* :func:`repro.sim.replay.replay_shard` — a shard's trace columns.

A source owns its arrivals and its latency RNG namespace; one
:class:`Fold` per tenant or shard owns the rest. Per chunk it draws the
latency blocks in handler-component order (base, store, sqs), sums them
per request, bills the ceil-100 ms units, and keeps exact integer
accumulators: events, billed units, per-tenant counts, the hour-of-day
histogram, stride-sampled latencies, and the optional health plane. It
has one numpy branch and one pure-Python branch, which execute the same
integer arithmetic and float divisions and so agree bitwise
(``tests/sim/test_vec_fallback.py``).

The two sharded sources return one :class:`ShardResult` per logical
shard; :func:`merge_results` folds them into a
:class:`ShardedFleetResult`, canonicalized by shard id, converting the
integer totals to billable floats once. The result prices its meter on
first use, so a caller that only merges never builds an invoice twice.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.billing import BillingMeter, Invoice, UsageKind
from repro.errors import ConfigurationError
from repro.plan import DeploymentPlan
from repro.sim import vecmath
from repro.sim.metrics import AvailabilityTracker, MetricSeries, sla_report
from repro.sim.profile import PerfCounters
from repro.units import MICROS_PER_HOUR

__all__ = [
    "HANDLER_COMPONENTS",
    "HANDLER_MEMORY_MB",
    "handler_components",
    "plan_memory_mb",
    "Fold",
    "ShardResult",
    "ShardedFleetResult",
    "merge_results",
    "fleet_sla_report",
    "health_plane",
]

# The per-request handler profile: invocation overhead plus the §6.2
# chat prototype's dominant service calls (store ciphertext, notify).
HANDLER_COMPONENTS: Tuple[str, ...] = ("lambda.handler_base", "s3.put", "sqs.send")
# The chat handler's declared Lambda size (§6.2's 448 MB): what a plan
# that leaves ``memory_mb`` unset bills.
HANDLER_MEMORY_MB = 448

_BILLING_GRANULARITY_MICROS = 100_000  # Lambda bills in 100 ms increments
_USAGE_PER_COMPONENT: Dict[str, UsageKind] = {
    "s3.put": UsageKind.S3_PUT,
    "dynamo.put": UsageKind.DYNAMO_WRITES,
    "sqs.send": UsageKind.SQS_REQUESTS,
}

# Draws ``n`` latencies for one component at a memory size.
Sampler = Callable[[str, int, int], Sequence[int]]


def handler_components(storage: str = "s3") -> Tuple[str, ...]:
    """The per-request component profile for one storage backend.

    ``"s3"`` is :data:`HANDLER_COMPONENTS` itself — same strings, same
    RNG namespaces, so default configs stay byte-identical to the
    seed-era goldens. ``"dynamo"`` swaps the state write for the KV
    backend's component (its own canonical stream).
    """
    if storage == "dynamo":
        return ("lambda.handler_base", "dynamo.put", "sqs.send")
    return HANDLER_COMPONENTS


def plan_memory_mb(plan: DeploymentPlan) -> int:
    """The Lambda size a fleet bills under ``plan``: its own, or the handler's 448 MB."""
    return HANDLER_MEMORY_MB if plan.memory_mb is None else plan.memory_mb


def health_plane(collect: bool):
    """A fresh :class:`~repro.obs.metrics.MetricsPlane` when ``collect``, else None."""
    if not collect:
        return None
    # Function-level: repro.obs imports repro.sim at package import time.
    from repro.obs.metrics import MetricsPlane

    return MetricsPlane()


def _int_list(values) -> List[int]:
    """An accumulator (``ndarray`` or list) as a list of Python ints."""
    return values.tolist() if hasattr(values, "tolist") else list(values)


def _meter_requests(meter: BillingMeter, store_kind: UsageKind, n: int) -> None:
    """The per-request charges: one invocation, one store write, one send."""
    meter.record_batch(UsageKind.LAMBDA_REQUESTS, float(n), n)
    meter.record_batch(store_kind, float(n), n)
    meter.record_batch(UsageKind.SQS_REQUESTS, float(n), n)


def _meter_rollup(
    meter: BillingMeter, memory_mb: int, billed_units: int, payload_bytes: int
) -> None:
    """The two float quantities, each converted once from exact integers.

    One expression each, whatever path accumulated the integers, so a
    given run's invoice is byte-identical however its events were
    chunked, sharded, or merged.
    """
    memory_gb = memory_mb / 1024
    meter.record(UsageKind.LAMBDA_GB_SECONDS, billed_units * 100 * memory_gb / 1000.0)
    meter.record(UsageKind.TRANSFER_OUT_GB, payload_bytes / 1e9)


class Fold:
    """Exact billing accumulators over one source's stream of chunks.

    ``sample(component, n, memory_mb)`` draws one latency block: the
    per-tenant sources pass per-component ``sample_block`` streams, the
    shard sources one model's ``sample_block_vec``. ``meter`` (per-tenant
    sources) takes the per-request charges chunk by chunk; the shard
    sources leave it out and are metered once, after the merge.
    ``stride`` keeps every ``stride``-th request's run time as a latency
    sample (0 keeps none), ``n_tenants`` sizes the per-tenant counts, and
    ``health`` is the optional metrics plane — pure observation over
    the already-drawn blocks, so the bill is identical with it on or off.
    """

    def __init__(
        self,
        components: Tuple[str, ...],
        sample: Sampler,
        memory_mb: int,
        *,
        meter: Optional[BillingMeter] = None,
        stride: int = 0,
        n_tenants: int = 0,
        health=None,
    ):
        self.components = components
        self.store_kind = _USAGE_PER_COMPONENT[components[1]]
        self.memory_mb = memory_mb
        self.meter = meter
        self.stride = stride
        self.health = health
        self._sample = sample
        np = vecmath.numpy_or_none()
        self.tenant_counts = (
            np.zeros(n_tenants, dtype=np.int64) if np is not None else [0] * n_tenants
        )
        self.hod = np.zeros(24, dtype=np.int64) if np is not None else [0] * 24
        self.events = 0
        self.billed_units = 0
        self.latency_ms: List[float] = []

    def chunk(self, n: int, at=None, tenants=None):
        """Draw and bill ``n`` requests; returns their latency blocks.

        ``at`` (arrival micros) feeds the hour-of-day histogram and
        ``tenants`` (local tenant indices) the per-tenant counts.
        """
        base, store, sqs = [self._sample(comp, n, self.memory_mb) for comp in self.components]
        granularity = _BILLING_GRANULARITY_MICROS
        stride = self.stride
        # First request in this chunk that lands on the sampling stride.
        first = (-self.events) % stride if stride else n
        np = vecmath.numpy_or_none()
        if np is not None and not isinstance(base, list):
            run = base + store + sqs
            units = (run + (granularity - 1)) // granularity
            np.maximum(units, 1, out=units)
            billed = int(units.sum())
            if first < n:
                self.latency_ms.extend((run[first::stride] / 1000.0).tolist())
            if at is not None:
                hours = (np.asarray(at, dtype=np.int64) // MICROS_PER_HOUR) % 24
                self.hod += np.bincount(hours, minlength=24)
            if tenants is not None:
                self.tenant_counts += np.bincount(tenants, minlength=len(self.tenant_counts))
        else:
            run = [base[i] + store[i] + sqs[i] for i in range(n)]
            billed = 0
            for run_micros in run:
                units = (run_micros + (granularity - 1)) // granularity
                billed += units if units > 0 else 1
            if first < n:
                self.latency_ms.extend(run_micros / 1000.0 for run_micros in run[first::stride])
            for at_micros in at if at is not None else ():
                self.hod[(at_micros // MICROS_PER_HOUR) % 24] += 1
            for tenant in tenants if tenants is not None else ():
                self.tenant_counts[tenant] += 1
        if self.health is not None:
            self.health.counter("fleet.requests").inc(n)
            self.health.counter("fleet.billed_ms").inc(billed * 100)
            self.health.histogram("fleet.request_us").observe_block(run)
        if self.meter is not None:
            _meter_requests(self.meter, self.store_kind, n)
        self.events += n
        self.billed_units += billed
        return base, store, sqs

    def trace(self, tracer, tenant: int, at, blocks) -> None:
        """Span trees for the tracer's head-sampled requests of one chunk.

        Head sampling is a stride over the chunk
        (:meth:`TraceCollector.admit_batch`), so only the sampled
        requests pay for materialization; the chunk's billing is done
        already and is identical with tracing on or off.
        """
        base, store, sqs = blocks
        base_comp, store_comp, send_comp = self.components
        memory_gb = self.memory_mb / 1024
        granularity = _BILLING_GRANULARITY_MICROS
        for i in tracer.collector.admit_batch(len(at)):
            billed_ms = max(1, -(-(base[i] + store[i] + sqs[i]) // granularity)) * 100
            tracer.record_request(
                at[i],
                (
                    (base_comp, base[i], None),
                    (store_comp, store[i], (self.store_kind, 1.0)),
                    (send_comp, sqs[i], (UsageKind.SQS_REQUESTS, 1.0)),
                ),
                root_usage=(
                    (UsageKind.LAMBDA_REQUESTS, 1.0),
                    (UsageKind.LAMBDA_GB_SECONDS, billed_ms * memory_gb / 1000.0),
                ),
                root_attrs={"tenant": tenant, "billed_ms": billed_ms},
            )

    def rollup(self, payload_bytes: int) -> None:
        """Meter the run's GB-seconds and the ``payload_bytes`` sent out."""
        _meter_rollup(self.meter, self.memory_mb, self.billed_units, payload_bytes)

    def result(
        self, shard_id: int, tenant_ids: Sequence[int], payload_bytes: int, started: float
    ) -> "ShardResult":
        """This fold's accumulators as one logical shard's result.

        ``started`` is the shard's ``perf_counter`` start, so its run
        time covers the source's own set-up too.
        """
        return ShardResult(
            shard_id=shard_id,
            events=self.events,
            billed_units=self.billed_units,
            payload_bytes=payload_bytes,
            tenant_ids=tenant_ids,
            tenant_counts=_int_list(self.tenant_counts),
            latency_ms=self.latency_ms,
            hod_hist=_int_list(self.hod),
            samples_drawn=self.events * len(self.components),
            run_seconds=time.perf_counter() - started,
            health=self.health,
        )


@dataclass
class ShardResult:
    """One logical shard's exact accumulators — plain data, picklable.

    ``tenant_counts[i]`` is the event count of tenant ``tenant_ids[i]``.
    Everything is an exact integer or a float from a deterministic
    kernel, so merging results in any order reconstructs the same fleet.
    """

    shard_id: int
    events: int
    billed_units: int
    payload_bytes: int
    tenant_ids: Sequence[int]
    tenant_counts: List[int]
    latency_ms: List[float]
    hod_hist: List[int]
    samples_drawn: int
    run_seconds: float
    # Shard-local health plane (repro.obs.metrics.MetricsPlane) when the
    # run collected health, else None. Plain data + integer accumulators,
    # so it pickles across the process pool and merges order-free.
    health: Optional[object] = None
    # When the run records: arrival micros and *global* tenant ids, in draw order.
    at: Optional[Sequence[int]] = None
    tenant: Optional[Sequence[int]] = None

    def total_billed_ms(self) -> int:
        return self.billed_units * 100


def _all_delivered(arrivals: int) -> AvailabilityTracker:
    tracker = AvailabilityTracker()
    tracker.attempts = arrivals
    tracker.successes = arrivals
    return tracker


def fleet_sla_report(arrivals: int, latency_ms: Optional[MetricSeries] = None) -> Dict[str, object]:
    """The synthetic-fleet SLA view: every arrival is a delivered request.

    Every fleet path — recorded, replayed, sharded — builds its report
    through this one function, so "SLA reports are byte-identical" is a
    claim about the underlying counts, not about two formatting paths
    happening to agree.
    """
    return sla_report(
        _all_delivered(arrivals), delivered=arrivals, expected=arrivals, latency_ms=latency_ms
    )


@dataclass
class ShardedFleetResult:
    """A merged sharded run — synthetic or replayed — priced on first use."""

    events: int
    billed_units: int
    payload_bytes: int
    tenant_counts: List[int]
    hod_hist: List[int]
    shard_events: List[int]
    samples_drawn: int
    latency: MetricSeries
    tracker: AvailabilityTracker
    meter: BillingMeter
    report: Dict[str, object]
    # The plan the run billed; the invoice prices with ``plan.prices``.
    plan: DeploymentPlan
    # Merged fleet-wide health plane when shards collected health.
    health: Optional[object] = None
    # The FleetConfig or ReplayConfig that produced the run.
    config: Optional[object] = None
    workers: int = 0
    perf: PerfCounters = field(default_factory=PerfCounters)
    # Set on a replay, whose digest also answers for the trace and its bytes.
    trace_name: Optional[str] = None
    trace_sha256: Optional[str] = None

    @cached_property
    def invoice(self) -> Invoice:
        return Invoice(self.meter, self.plan.prices)

    @cached_property
    def invoice_total(self) -> str:
        return str(self.invoice.total())

    def total_billed_ms(self) -> int:
        return self.billed_units * 100

    def counts_sha256(self) -> str:
        """Digest of the per-tenant event counts, the byte-identity probe."""
        payload = ",".join(map(str, self.tenant_counts)).encode("ascii")
        return hashlib.sha256(payload).hexdigest()

    def exposition_sha256(self) -> Optional[str]:
        """Digest of the merged health plane's JSONL exposition, if any."""
        if self.health is None:
            return None
        return hashlib.sha256(self.health.to_jsonl().encode("ascii")).hexdigest()

    def determinism_digest(self) -> Dict[str, object]:
        """Everything two runs must agree on byte-for-byte."""
        digest: Dict[str, object] = {
            "events": self.events,
            "billed_units": self.billed_units,
            "invoice_total": self.invoice_total,
            "tenant_counts_sha256": self.counts_sha256(),
            "sla_report": json.loads(json.dumps(self.report)),
            "latency_p99_ms": self.latency.p99() if len(self.latency) else None,
        }
        if self.trace_sha256 is not None:
            digest["trace_sha256"] = self.trace_sha256
            digest["payload_bytes"] = self.payload_bytes
        # Only present with health collection on, so health-off digests
        # stay byte-identical to the seed's.
        if self.health is not None:
            digest["exposition_sha256"] = self.exposition_sha256()
        return digest


def merge_results(
    results: Sequence[ShardResult],
    tenants: int,
    logical_shards: int,
    plan: DeploymentPlan,
) -> ShardedFleetResult:
    """Fold every logical shard's result into fleet totals, order-independently.

    Inputs are canonicalized by shard id and must be exactly shards
    ``0 .. logical_shards - 1``, each once. Counts add exactly in
    integers, latency samples concatenate in shard order, health planes
    merge integer-exactly, and the billable floats are computed once
    from the merged integers — so the result cannot depend on which
    worker delivered which shard first. ``plan`` picks the store charge,
    the Lambda size and the price book.
    """
    ordered = sorted(results, key=lambda r: r.shard_id)
    shard_ids = [r.shard_id for r in ordered]
    if shard_ids != list(range(logical_shards)):
        missing = sorted(set(range(logical_shards)).difference(shard_ids))
        duplicate = sorted({i for i in shard_ids if shard_ids.count(i) > 1})
        unknown = sorted(set(shard_ids).difference(range(logical_shards)))
        raise ConfigurationError(
            f"merge needs each of shards 0..{logical_shards - 1} exactly once: "
            f"missing shard ids {missing}, duplicate shard ids {duplicate}, "
            f"unknown shard ids {unknown}"
        )
    np = vecmath.numpy_or_none()
    if np is not None:
        counts = np.zeros(tenants, dtype=np.int64)
        for r in ordered:
            counts[np.asarray(r.tenant_ids, dtype=np.int64)] += np.asarray(
                r.tenant_counts, dtype=np.int64
            )
        tenant_counts = counts.tolist()
    else:
        tenant_counts = [0] * tenants
        for r in ordered:
            for tenant, count in zip(r.tenant_ids, r.tenant_counts):
                tenant_counts[tenant] += count
    hod = [sum(hours) for hours in zip(*(r.hod_hist for r in ordered))]
    latency = MetricSeries("fleet.e2e_ms", "ms")
    health = None
    for r in ordered:
        latency.extend(r.latency_ms)
        if r.health is not None:
            # Counter/histogram merges are integer-exact and commutative,
            # so folding in shard-id order is a canonicalization, not a
            # requirement.
            if health is None:
                health = health_plane(True)
            health.merge(r.health)
    events = sum(r.events for r in ordered)
    billed_units = sum(r.billed_units for r in ordered)
    payload_bytes = sum(r.payload_bytes for r in ordered)
    meter = BillingMeter()
    _meter_requests(meter, _USAGE_PER_COMPONENT[handler_components(plan.storage)[1]], events)
    _meter_rollup(meter, plan_memory_mb(plan), billed_units, payload_bytes)
    return ShardedFleetResult(
        events=events,
        billed_units=billed_units,
        payload_bytes=payload_bytes,
        tenant_counts=tenant_counts,
        hod_hist=hod,
        shard_events=[r.events for r in ordered],
        samples_drawn=sum(r.samples_drawn for r in ordered),
        latency=latency,
        tracker=_all_delivered(events),
        meter=meter,
        report=fleet_sla_report(events, latency),
        plan=plan,
        health=health,
    )
