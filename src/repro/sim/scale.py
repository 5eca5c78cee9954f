"""Fleet-scale simulation: many tenants, a virtual month, per-tenant streams.

The ROADMAP's north star is a substrate that can simulate "heavy
traffic from millions of users". :func:`run_fleet` drives a *fleet* of
DIY tenants — each with its own diurnal workload, per-component latency
streams, and metered usage — through a virtual month and prices the
result, counting real (wall-clock) throughput as it goes.

It is the per-tenant synthetic source of :mod:`repro.sim.fold`: each
tenant's :meth:`DiurnalWorkload.arrival_batches` chunks (RNG namespace
``scale/tenant-<t>/workload``) feed one :class:`~repro.sim.fold.Fold`,
whose latency blocks come from :meth:`LatencyModel.sample_block` under
``scale/tenant-<t>/<component>``, one stream per component, drawn in
base, store, sqs order. These are the seed-era namespaces, so every
golden invoice and arrival count holds byte for byte. It is the engine
the span tracer attaches to (``bench-obs``); the engine that scales out,
records traces and carries the metrics plane is :mod:`repro.sim.shard`.

The module also hosts the chaos fleet (real chat stacks under fault
injection) and the storage-backend ablation.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.cloud.billing import BillingMeter, Invoice, UsageKind, price_usage
from repro.errors import ConfigurationError, SimulationError
from repro.obs.collector import TraceCollector
from repro.obs.export import decomposition_report
from repro.obs.trace import Tracer
from repro.plan import DEFAULT_PLAN, DeploymentPlan
from repro.sim.clock import SimClock
from repro.sim.fold import (
    HANDLER_COMPONENTS,
    Fold,
    Sampler,
    handler_components,
    plan_memory_mb,
)
from repro.sim.latency import LatencyModel
from repro.sim.metrics import AvailabilityTracker, MetricSeries, sla_report
from repro.sim.profile import PerfCounters
from repro.sim.rng import SeededRng
from repro.sim.workload import HOURLY_PROFILE_PERSONAL, DiurnalWorkload
from repro.units import ms, seconds

__all__ = [
    "ScaleConfig",
    "FleetResult",
    "run_fleet",
    "run_obs_benchmark",
    "HANDLER_COMPONENTS",
    "ChaosConfig",
    "ChaosTenant",
    "chaos_rollup",
    "run_chaos_fleet",
    "ABLATION_APPS",
    "run_storage_ablation",
]


@dataclass(frozen=True)
class ScaleConfig:
    """One fleet scenario: ``tenants`` accounts over ``days`` virtual days.

    ``plan`` sets the storage backend, the Lambda size (the handler's
    448 MB when unset) and the price book. The invoice is the billed,
    free-tier one whatever ``plan.accounting`` says.
    """

    tenants: int = 8
    daily_requests: float = 1500.0
    days: float = 3.0
    seed: int = 2017
    payload_bytes: int = 2048
    chunk: int = 4096
    plan: DeploymentPlan = DEFAULT_PLAN

    def __post_init__(self):
        if self.tenants <= 0:
            raise ConfigurationError("fleet needs at least one tenant")
        if self.days <= 0:
            raise ConfigurationError("fleet needs a positive duration")

    def components(self) -> Tuple[str, ...]:
        return handler_components(self.plan.storage)

    def expected_requests(self) -> float:
        return self.tenants * self.daily_requests * self.days

    def as_dict(self) -> Dict[str, float]:
        return {
            "tenants": self.tenants,
            "daily_requests": self.daily_requests,
            "days": self.days,
            "seed": self.seed,
            "memory_mb": plan_memory_mb(self.plan),
            "payload_bytes": self.payload_bytes,
            "chunk": self.chunk,
            "storage": self.plan.storage,
        }


@dataclass(frozen=True)
class FleetResult:
    """What a fleet run produced: the bill, the counts, and the speed."""

    arrivals: int
    per_tenant_arrivals: Tuple[int, ...]
    total_billed_ms: int
    invoice_total: str
    samples_drawn: int
    meter_hits: int
    meter_record_calls: int
    wall_seconds: float
    events_per_second: float
    phases: Dict[str, float]

    def as_dict(self) -> Dict[str, object]:
        return {
            "arrivals": self.arrivals,
            "total_billed_ms": self.total_billed_ms,
            "invoice_total": self.invoice_total,
            "samples_drawn": self.samples_drawn,
            "meter_hits": self.meter_hits,
            "meter_record_calls": self.meter_record_calls,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_second": round(self.events_per_second, 1),
            "phases": {name: round(secs, 6) for name, secs in self.phases.items()},
        }


def _tenant_sampler(seed: int, tenant: int, components: Tuple[str, ...]) -> Sampler:
    """A tenant's latency draws: one ``scale/tenant-<t>/<component>`` stream each."""
    models = {
        comp: LatencyModel(rng=SeededRng(seed, f"scale/tenant-{tenant}/{comp}"))
        for comp in components
    }
    return lambda comp, n, memory_mb: models[comp].sample_block(comp, n, memory_mb)


def run_fleet(config: ScaleConfig, tracer: Tracer = None) -> FleetResult:
    """Simulate the whole fleet tenant by tenant and price the month.

    ``tracer`` records the head-sampled requests as synthetic span trees
    via :meth:`Tracer.record_request` — the billing math and the
    unsampled fast path are untouched, which is what keeps the
    tracing-on invoice byte-identical.
    """
    meter = BillingMeter()
    perf = PerfCounters()
    components = config.components()
    memory_mb = plan_memory_mb(config.plan)
    per_tenant: List[int] = []
    total_billed_ms = 0
    start = time.perf_counter()
    with perf.phase("simulate"):
        for tenant in range(config.tenants):
            workload = DiurnalWorkload(
                config.daily_requests,
                SeededRng(config.seed, f"scale/tenant-{tenant}/workload"),
                HOURLY_PROFILE_PERSONAL,
            )
            fold = Fold(
                components, _tenant_sampler(config.seed, tenant, components),
                memory_mb, meter=meter,
            )
            for chunk in workload.arrival_batches(config.days, chunk=config.chunk):
                blocks = fold.chunk(len(chunk))
                if tracer is not None:
                    fold.trace(tracer, tenant, chunk, blocks)
            fold.rollup(fold.events * config.payload_bytes)
            per_tenant.append(fold.events)
            total_billed_ms += fold.billed_units * 100
    with perf.phase("invoice"):
        invoice = Invoice(meter, config.plan.prices)
        total = str(invoice.total())
    wall = time.perf_counter() - start
    arrivals = sum(per_tenant)
    simulate_seconds = perf.phase_seconds("simulate")
    return FleetResult(
        arrivals=arrivals,
        per_tenant_arrivals=tuple(per_tenant),
        total_billed_ms=total_billed_ms,
        invoice_total=total,
        samples_drawn=arrivals * len(components),
        meter_hits=meter.hits,
        meter_record_calls=meter.record_calls,
        wall_seconds=wall,
        events_per_second=arrivals / simulate_seconds if simulate_seconds > 0 else 0.0,
        phases={"simulate": simulate_seconds, "invoice": perf.phase_seconds("invoice")},
    )


# -- the chaos fleet ----------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig:
    """A Table 3 chat workload re-run under fault injection.

    Each tenant is a full :class:`~repro.cloud.provider.CloudProvider`
    with the chat app deployed; ``messages`` groupchat sends go from
    alice to bob, spaced ``send_gap_micros`` of virtual time apart,
    while the chaos engine injects a per-service ``error_rate``, one
    regional brown-out, a short hard regional outage, a gateway throttle
    storm, and an S3 latency spike. The run is byte-identical per seed.
    Every tenant deploys the chat app under ``plan``.
    """

    tenants: int = 2
    messages: int = 30
    send_gap_micros: int = seconds(2)
    seed: int = 2017
    error_rate: float = 0.01
    brownout_rate: float = 0.5
    plan: DeploymentPlan = DEFAULT_PLAN

    def __post_init__(self):
        if self.tenants <= 0:
            raise ConfigurationError("chaos fleet needs at least one tenant")
        if self.messages <= 0:
            raise ConfigurationError("chaos fleet needs at least one message")
        if self.send_gap_micros <= 0:
            raise ConfigurationError("send gap must be positive")

    def expected_messages(self) -> int:
        return self.tenants * self.messages

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenants": self.tenants,
            "messages": self.messages,
            "send_gap_micros": self.send_gap_micros,
            "seed": self.seed,
            "error_rate": self.error_rate,
            "brownout_rate": self.brownout_rate,
            "memory_mb": plan_memory_mb(self.plan),
            "storage": self.plan.storage,
        }


def _schedule_chaos(
    provider, start: int, horizon: int, error_rate: float, brownout_rate: float
) -> None:
    """The scenario's fault schedule, all in virtual micros from ``start``."""
    faults = provider.faults
    region = provider.home_region.name
    # A low background error rate on every service boundary.
    for service in ("s3", "sqs", "kms", "lambda", "gateway"):
        faults.schedule_error_rate(service, start, horizon, error_rate)
    # One short hard regional outage: failover has nowhere to go (single
    # region), so clients must ride it out with backoff.
    faults.schedule_outage(region, start + horizon // 4, ms(500))
    # One regional brown-out: requests fail at brownout_rate for a sixth
    # of the run.
    faults.schedule_brownout(
        region, start + horizon // 3, horizon // 6, rate=brownout_rate
    )
    # An S3 latency spike and a gateway throttle storm later in the run.
    faults.schedule_latency_spike(
        "s3", start + horizon // 2, seconds(5), extra_micros=ms(40)
    )
    faults.schedule_throttle_storm(
        "gateway", start + (2 * horizon) // 3, seconds(2)
    )


class ChaosTenant:
    """One tenant's alice→bob chat pair on its own provider, under chaos.

    The harness both chaos engines share. Each engine keeps only its
    own send loop (``alice.send`` plus :meth:`poll`); :meth:`finish`
    then settles the run and builds the tenant's SLA report.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        plan: DeploymentPlan,
        horizon: int,
        chaos: bool,
        error_rate: float,
        brownout_rate: float,
    ):
        from repro.apps.chat import chat_pair
        from repro.cloud.provider import CloudProvider

        self.provider = CloudProvider(name=name, seed=seed, plan=plan)
        self.alice, self.bob = chat_pair(self.provider)
        self.horizon = horizon
        self.start = self.provider.clock.now
        if chaos:
            _schedule_chaos(self.provider, self.start, horizon, error_rate, brownout_rate)
        self.delivered: Set[str] = set()

    def poll(self) -> bool:
        """One zero-wait poll of bob's inbox; did it deliver anything?"""
        received = self.bob.poll(wait_seconds=0)
        self.delivered.update(message.body for message in received)
        return bool(received)

    def _settle(self) -> None:
        """Move past every fault window, drain the outbox, poll until dry."""
        clock = self.provider.clock
        clock.advance(self.horizon)
        for _ in range(5):
            if not self.alice.outbox:
                break
            self.alice.drain_outbox()
            clock.advance(seconds(5))
        empty_polls = 0
        while empty_polls < 2:
            empty_polls = 0 if self.poll() else empty_polls + 1
            clock.advance(seconds(1))

    def finish(
        self, tenant: int, bodies: List[str]
    ) -> Tuple[Dict[str, object], AvailabilityTracker]:
        """Settle, then return (SLA report, raw tracker) for ``bodies`` sent."""
        self._settle()
        provider = self.provider
        tracker = AvailabilityTracker()
        tracker.merge(self.alice.tracker)
        tracker.merge(self.bob.tracker)
        region = provider.home_region.name
        latency = provider.metrics.get("chat.e2e_ms")
        report = sla_report(
            tracker,
            delivered=len(self.delivered.intersection(bodies)),
            expected=len(bodies),
            latency_ms=latency,
            breaker_trips=self.alice.breaker.trips + self.bob.breaker.trips,
            injected=dict(provider.faults.injected),
            downtime_micros={
                region: provider.faults.downtime_in(region, self.start, provider.clock.now)
            },
        )
        report["tenant"] = tenant
        report["undelivered"] = sorted(set(bodies) - self.delivered)
        report["_latency_samples"] = latency.samples if latency is not None else []
        return report, tracker


def chaos_rollup(
    tenant_runs: List[Tuple[Dict[str, object], AvailabilityTracker]]
) -> Tuple[List[Dict[str, object]], Dict[str, object]]:
    """Per-tenant reports (in run order) and the fleet SLA report over them."""
    fleet_tracker = AvailabilityTracker()
    fleet_latency = MetricSeries("chaos.e2e_ms", "ms")
    per_tenant: List[Dict[str, object]] = []
    delivered = 0
    expected = 0
    breaker_trips = 0
    injected: Dict[str, int] = {}
    downtime: Dict[str, int] = {}
    for report, tracker in tenant_runs:
        fleet_latency.extend(report.pop("_latency_samples"))
        per_tenant.append(report)
        delivered += int(report["delivered"])
        expected += int(report["expected"])
        breaker_trips += int(report["breaker_trips"])
        for target, count in report["injected_faults"].items():
            injected[target] = injected.get(target, 0) + count
        for target, micros in report["downtime_micros"].items():
            downtime[target] = downtime.get(target, 0) + micros
        fleet_tracker.merge(tracker)
    return per_tenant, sla_report(
        fleet_tracker,
        delivered=delivered,
        expected=expected,
        latency_ms=fleet_latency,
        breaker_trips=breaker_trips,
        injected=injected,
        downtime_micros=downtime,
    )


def _chaos_tenant(
    config: ChaosConfig, tenant: int, chaos: bool
) -> Tuple[Dict[str, object], AvailabilityTracker]:
    """Run one tenant's chat workload; returns (SLA report, raw tracker).

    Each send is followed by a fixed ``send_gap_micros`` advance, and
    every third send by a poll after that advance.
    """
    run = ChaosTenant(
        f"chaos-{tenant}", config.seed, config.plan,
        config.messages * config.send_gap_micros, chaos,
        config.error_rate, config.brownout_rate,
    )
    bodies = [f"msg-{tenant}-{i}" for i in range(config.messages)]
    for i, body in enumerate(bodies):
        run.alice.send("room", body)
        run.provider.clock.advance(config.send_gap_micros)
        if i % 3 == 2:
            run.poll()
    return run.finish(tenant, bodies)


def run_chaos_fleet(
    config: ChaosConfig, chaos: bool = True, workers: int = 1
) -> Dict[str, object]:
    """Run the chat workload for every tenant under fault injection.

    Returns a deterministic SLA summary: per-tenant reports plus the
    fleet-level rollup (eventual delivery rate, per-attempt
    availability, retries, breaker trips, p99 latency under chaos, and
    downtime attribution). With ``chaos=False`` the identical workload
    runs with no faults scheduled — the control the golden tests compare
    against.

    ``workers > 1`` fans the tenants out over a process pool — sound
    because each tenant's run is a pure function of ``(config, tenant,
    chaos)`` (its provider is seeded from those alone) — and merges the
    results in tenant order, so the report is byte-identical to the
    sequential run (``tests/sim/test_chaos_fleet.py``).
    """
    from repro.sim.shard import map_shards

    tenant_runs = map_shards(
        _chaos_tenant, [(config, tenant, chaos) for tenant in range(config.tenants)], workers
    )
    per_tenant, fleet = chaos_rollup(tenant_runs)
    return {
        "scenario": "chaos_fleet",
        "chaos": chaos,
        "config": config.as_dict(),
        "per_tenant": per_tenant,
        "fleet": fleet,
    }


# -- the storage-backend ablation ---------------------------------------


def _ablate_chat(provider, storage: str, requests: int) -> str:
    """Table 3's chat workload on one backend; returns the handler name."""
    from repro.apps.chat import ChatClient, ChatService, chat_manifest
    from repro.core.deployment import Deployer

    app = Deployer(provider).deploy(
        chat_manifest(plan=DeploymentPlan(storage=storage)), owner="alice",
        instance_name=f"chat-{storage}",
    )
    service = ChatService(app)
    service.create_room("r", ["alice@diy", "bob@diy"])
    alice = ChatClient(service, "alice@diy")
    bob = ChatClient(service, "bob@diy")
    for client in (alice, bob):
        client.join("r")
        client.connect()
    for i in range(requests):
        alice.send("r", f"m{i}")
        bob.poll()
    return f"{app.instance_name}-handler"


def _ablate_email(provider, storage: str, requests: int) -> str:
    """Outbound sends through the email app; returns the handler name."""
    from repro.apps.email import EmailClient, EmailService_, email_manifest
    from repro.core.deployment import Deployer
    from repro.crypto.keys import KeyPair
    from repro.protocols.mime import Address, EmailMessage

    keys = KeyPair.generate(provider.rng.child("ablation/email-keys").randbytes)
    app = Deployer(provider).deploy(
        email_manifest(plan=DeploymentPlan(storage=storage)), owner="carol",
        instance_name=f"email-{storage}",
    )
    client = EmailClient(EmailService_(app, keys, domain="carol.diy"))
    for i in range(requests):
        client.send(EmailMessage(
            Address("carol@carol.diy"), (Address("pen-pal@example.com"),),
            f"note {i}", f"body {i}",
        ))
    return f"{app.instance_name}-outbound"


def _ablate_filetransfer(provider, storage: str, requests: int) -> str:
    """Chunk round trips through the transfer app; returns the handler name."""
    from repro.apps.filetransfer import FileTransferClient, file_transfer_manifest
    from repro.core.deployment import Deployer

    app = Deployer(provider).deploy(
        file_transfer_manifest(plan=DeploymentPlan(storage=storage)), owner="dana",
        instance_name=f"xfer-{storage}",
    )
    sender = FileTransferClient(app, "dana", chunk_bytes=2048)
    receiver = FileTransferClient(app, "eli", chunk_bytes=2048)
    for i in range(requests):
        ticket = sender.send_file(f"f{i}.bin", "eli", f"payload {i}".encode() * 64)
        receiver.download(ticket)
        receiver.acknowledge(ticket)
    return f"{app.instance_name}-handler"


ABLATION_APPS: Dict[str, object] = {
    "chat": _ablate_chat,
    "email": _ablate_email,
    "filetransfer": _ablate_filetransfer,
}


def run_storage_ablation(
    apps: Tuple[str, ...] = ("chat", "email", "filetransfer"),
    requests: int = 40,
    seed: int = 2017,
) -> Dict[str, object]:
    """Run each app's workload on both state backends.

    One fresh provider per (app, backend) cell, same seed, so each pair
    differs only in where the state store's calls land. Returns
    per-app median handler run times on S3 vs DynamoDB, the run-time
    ratio, and the storage price ratio the paper's footnote doesn't
    mention; ``python -m repro bench-storage`` adds the ``runs`` and
    ``digests`` blocks and writes the record as ``BENCH_storage.json``.
    """
    from repro.cloud.provider import CloudProvider
    from repro.runtime.store import STORAGE_BACKENDS

    per_app: Dict[str, Dict[str, object]] = {}
    for app in apps:
        if app not in ABLATION_APPS:
            raise ConfigurationError(
                f"unknown ablation app {app!r}; pick from {tuple(ABLATION_APPS)}"
            )
        medians: Dict[str, float] = {}
        for storage in STORAGE_BACKENDS:
            provider = CloudProvider(name="bench", seed=seed)
            handler = ABLATION_APPS[app](provider, storage, requests)
            medians[storage] = provider.lambda_.metrics.get(f"{handler}.run_ms").median()
        per_app[app] = {
            "s3_run_ms": round(medians["s3"], 3),
            "dynamo_run_ms": round(medians["dynamo"], 3),
            "runtime_ratio": round(medians["s3"] / medians["dynamo"], 3),
            "dynamo_is_faster": medians["dynamo"] < medians["s3"],
        }
    prices = DEFAULT_PLAN.prices
    price_ratio = float(price_usage(UsageKind.DYNAMO_STORAGE_GB_MONTH, 1.0, prices)
                        / price_usage(UsageKind.S3_STORAGE_GB_MONTH, 1.0, prices))
    return {
        "bench": "storage_backend_ablation",
        "config": {"apps": list(apps), "requests": requests, "seed": seed},
        "apps": per_app,
        "storage_price_ratio": round(price_ratio, 3),
    }


def run_obs_benchmark(
    config: ScaleConfig,
    sample_rate: float = 1 / 64,
    capacity: int = 4096,
    repeats: int = 5,
) -> Dict[str, object]:
    """Tracing-off vs tracing-on throughput of :func:`run_fleet`, the
    per-tenant engine.

    The acceptance budget is <10% overhead at the default 1/64 head
    sample rate. The run also proves tracing changed *nothing* billable
    (identical invoice total and arrival counts) and summarizes the
    retained traces' critical path. The record is in the shared
    ``BENCH_*.json`` schema, one ``runs`` entry per mode, and
    ``python -m repro bench-obs`` writes it unchanged to ``BENCH_obs.json``.

    Each mode runs ``repeats`` times and keeps its fastest wall time
    (best-of-N), so the overhead figure reflects the instrumentation,
    not allocator warm-up or scheduler jitter. The default of 5 is the
    best-of-5 the ``-m obs`` benchmark asserts with, so the CLI record
    and ``make obs`` measure the same way. The record carries
    ``repeats``, and each mode's run also reports its median wall time
    (``median_wall_seconds``) beside the best, so the spread shows.
    """
    if repeats < 1:
        raise ConfigurationError("obs benchmark needs at least one repeat")
    # Interleave the modes (off, on, off, on, ...) so a load drift on
    # the host machine penalizes both equally, then keep each mode's
    # fastest repeat.
    off = on = tracer = None
    walls: Dict[str, List[float]] = {"tracing_off": [], "tracing_on": []}
    for _ in range(repeats):
        candidate_off = run_fleet(config)
        walls["tracing_off"].append(candidate_off.wall_seconds)
        if off is None or candidate_off.wall_seconds < off.wall_seconds:
            off = candidate_off
        # A fresh tracer per repeat: the collector's stride counter and
        # the id stream must start from the same state every time.
        candidate_tracer = Tracer(
            SimClock(),
            SeededRng(config.seed, "scale/obs"),
            TraceCollector(capacity=capacity, sample_rate=sample_rate),
        )
        candidate_on = run_fleet(config, tracer=candidate_tracer)
        walls["tracing_on"].append(candidate_on.wall_seconds)
        if on is None or candidate_on.wall_seconds < on.wall_seconds:
            on, tracer = candidate_on, candidate_tracer
    identical = (
        off.invoice_total == on.invoice_total
        and off.per_tenant_arrivals == on.per_tenant_arrivals
    )
    if not identical:
        raise SimulationError("tracing perturbed the fleet bill")
    off_eps = off.events_per_second
    on_eps = on.events_per_second
    overhead_pct = 100.0 * (off_eps - on_eps) / off_eps if off_eps else 0.0
    return {
        "headline": (f"tracing overhead {round(overhead_pct, 3):.2f}% on the batched "
                     f"engine (budget <10%)"),
        "runs": [
            dict(mode=mode, **run.as_dict(),
                 median_wall_seconds=round(statistics.median(walls[mode]), 6))
            for mode, run in (("tracing_off", off), ("tracing_on", on))
        ],
        "digests": {
            "invoice_total": off.invoice_total,
            "arrivals": off.arrivals,
            "identical": identical,
        },
        "bench": "obs_overhead",
        "config": config.as_dict(),
        "sample_rate": sample_rate,
        "capacity": capacity,
        "repeats": repeats,
        "overhead_pct": round(overhead_pct, 3),
        "within_budget": overhead_pct < 10.0,
        "spans": tracer.collector.stats(),
        "critical_path": decomposition_report(tracer.collector.traces(), config.plan.prices),
    }
