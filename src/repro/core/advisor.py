"""The deployment advisor: pick the plan knobs on purpose.

§6.2 found the memory tradeoff empirically: "allocating 448 MB gave
significantly better latencies than a 128 MB function" even though only
51 MB was used — memory buys CPU/network share, and GB-second billing
charges for it. This module turns that into a tool:
:func:`recommend_plan` sweeps the joint (memory × storage backend ×
polling budget) space of :class:`repro.plan.DeploymentPlan` knobs for a
:class:`WorkloadProfile`, predicts each option's run time from the
latency model, meters the month and prices it with
:class:`repro.cloud.billing.Invoice` (free tiers applied only under
``billed`` accounting), and recommends the cheapest plan that meets
the latency budget. This is where the §6.2 storage tradeoff
becomes a decision: DynamoDB state is faster per request and cheaper
per operation, but 10.9x the at-rest price per GB-month, so
latency-critical/low-state workloads go Dynamo while storage-heavy ones
stay on S3.

:func:`run_advisor_benchmark` closes the loop at fleet scale: optimize
a plan per tenant class, re-simulate the whole fleet on the sharded
engine under the recommended plans, and report the aggregate dollars
saved against a one-size-fits-all deployment.

    profile = WorkloadProfile("chat", daily_requests=2000, target_run_ms=150)
    pick = recommend_plan(profile, backends=("s3",),
                          base_plan=DeploymentPlan(accounting="marginal"))
    pick.recommended.plan.memory_mb   # -> 640
    pick.knee_memory_mb               # -> 448, the paper's choice
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.billing import BillingMeter, Invoice, UsageKind
from repro.errors import ConfigurationError
from repro.net.longpoll import LongPoller
from repro.plan import DEFAULT_PLAN, MEMORY_SIZES, DeploymentPlan
from repro.sim.latency import LatencyModel
from repro.sim.rng import SeededRng
from repro.units import DAYS_PER_MONTH, ZERO, Money

__all__ = [
    "RequestProfile",
    "WorkloadProfile",
    "PlanOption",
    "PlanRecommendation",
    "recommend_plan",
    "FLEET_CLASSES",
    "run_advisor_benchmark",
]


@dataclass(frozen=True)
class RequestProfile:
    """What one invocation does: service calls + local compute."""

    service_calls: Tuple[Tuple[str, int], ...]
    base_ms: float = 4.0  # interpreting the handler itself

    def __post_init__(self):
        if self.base_ms < 0:
            raise ConfigurationError("base compute cannot be negative")
        for component, count in self.service_calls:
            if count < 0:
                raise ConfigurationError(f"negative call count for {component}")


def _predict_run_ms(profile: RequestProfile, memory_mb: int, latency: LatencyModel) -> float:
    total = profile.base_ms
    for component, count in profile.service_calls:
        total += count * latency.mean_micros(component, memory_mb) / 1000
    return total


@dataclass(frozen=True)
class WorkloadProfile:
    """One tenant class: what its handler does and what it needs.

    Per-request call counts may be fractional (an average over request
    types); ``storage_gb`` is at-rest state, the term that makes the
    S3-vs-Dynamo decision interesting; ``polling_clients`` is how many
    clients long-poll continuously (§6.2's notification channel), the
    term the polling budget prices.
    """

    name: str
    daily_requests: float
    base_ms: float = 4.0
    handler_calls: float = 0.0  # memory-scaled interpreter time (fleet engine's profile)
    kms_calls: float = 1.0
    storage_puts: float = 1.0
    storage_gets: float = 0.0
    sqs_sends: float = 1.0
    storage_gb: float = 0.0
    payload_bytes: int = 2048
    target_run_ms: Optional[float] = None
    polling_clients: int = 0

    def __post_init__(self):
        if self.daily_requests < 0:
            raise ConfigurationError("daily requests cannot be negative")
        if self.base_ms < 0:
            raise ConfigurationError("base compute cannot be negative")
        for label in ("handler_calls", "kms_calls", "storage_puts", "storage_gets",
                      "sqs_sends"):
            if getattr(self, label) < 0:
                raise ConfigurationError(f"{label} cannot be negative")
        if self.storage_gb < 0:
            raise ConfigurationError("at-rest storage cannot be negative")
        if self.polling_clients < 0:
            raise ConfigurationError("polling clients cannot be negative")
        if self.target_run_ms is not None and self.target_run_ms <= 0:
            raise ConfigurationError("latency target must be positive")

    def request_profile(self, plan: DeploymentPlan) -> RequestProfile:
        """This class's per-request calls under one plan's backend."""
        calls: List[Tuple[str, float]] = []
        if self.handler_calls:
            calls.append(("lambda.handler_base", self.handler_calls))
        if self.kms_calls:
            calls.append(("kms.generate_data_key", self.kms_calls))
        if self.storage_puts:
            calls.append((plan.storage_put_component(), self.storage_puts))
        if self.storage_gets:
            calls.append((plan.storage_get_component(), self.storage_gets))
        if self.sqs_sends:
            calls.append(("sqs.send", self.sqs_sends))
        return RequestProfile(tuple(calls), base_ms=self.base_ms)


def _plan_monthly_cost(
    profile: WorkloadProfile, plan: DeploymentPlan, billed_ms: int, memory_mb: int
) -> Money:
    """Meter one tenant-month of this class under ``plan`` and invoice it.

    ``billed`` accounting applies the free tiers, as the real bill does;
    ``marginal`` accounting prices every unit, at-rest storage included.
    """
    prices = plan.prices
    monthly = profile.daily_requests * DAYS_PER_MONTH
    dynamo = plan.storage == "dynamo"
    polls = profile.polling_clients * LongPoller.polls_per_month(plan.poll_wait_seconds)
    meter = BillingMeter()
    for kind, quantity in (
        (UsageKind.LAMBDA_REQUESTS, monthly),
        (UsageKind.LAMBDA_GB_SECONDS,
         monthly * prices.lambda_gb_seconds(memory_mb, billed_ms)),
        (UsageKind.DYNAMO_WRITES if dynamo else UsageKind.S3_PUT,
         monthly * profile.storage_puts),
        (UsageKind.DYNAMO_READS if dynamo else UsageKind.S3_GET,
         monthly * profile.storage_gets),
        (UsageKind.SQS_REQUESTS, monthly * profile.sqs_sends + polls),
        (UsageKind.KMS_REQUESTS, monthly * profile.kms_calls),
        (UsageKind.DYNAMO_STORAGE_GB_MONTH if dynamo else UsageKind.S3_STORAGE_GB_MONTH,
         profile.storage_gb),
    ):
        meter.record(kind, quantity)
    return Invoice(meter, prices, apply_free_tier=plan.include_free_tier).total()


@dataclass(frozen=True)
class PlanOption:
    """One point of the joint knob sweep, fully priced."""

    plan: DeploymentPlan
    predicted_run_ms: float
    billed_ms: int
    monthly_cost: Money

    def meets(self, target_run_ms: Optional[float]) -> bool:
        return target_run_ms is None or self.predicted_run_ms <= target_run_ms


# Deterministic knob ordering for equal-cost ties: smallest memory,
# then the default/cheaper-at-rest backend, then the shortest poll wait
# (most responsive notification at the same price).
_BACKEND_RANK = {"s3": 0, "dynamo": 1}


def _option_key(option: PlanOption):
    return (
        option.monthly_cost.amount,
        option.plan.memory_mb,
        _BACKEND_RANK.get(option.plan.storage, len(_BACKEND_RANK)),
        option.plan.poll_wait_seconds,
    )


@dataclass
class PlanRecommendation:
    """The joint sweep's output: every option, the pick, the knee."""

    profile: WorkloadProfile
    options: List[PlanOption]
    recommended: PlanOption
    knee_memory_mb: Optional[int]

    def render(self, top: int = 12) -> str:
        from repro.analysis.tables import format_table

        ranked = sorted(self.options, key=_option_key)
        shown = ranked[:top]
        if self.recommended not in shown:
            shown.append(self.recommended)
        rows = [
            (
                option.plan.storage,
                option.plan.memory_mb,
                f"{option.plan.poll_wait_seconds:g}s",
                round(option.predicted_run_ms, 1),
                option.billed_ms,
                option.monthly_cost,
                "<- recommended" if option is self.recommended else "",
            )
            for option in shown
        ]
        target = (
            f" (target {self.profile.target_run_ms:.0f} ms)"
            if self.profile.target_run_ms else ""
        )
        return format_table(
            ["backend", "memory MB", "poll", "predicted run ms", "billed ms",
             "monthly cost", ""],
            rows,
            title=f"Deployment plan for {self.profile.name!r}{target}",
        )


def recommend_plan(
    profile: WorkloadProfile,
    base_plan: DeploymentPlan = DEFAULT_PLAN,
    memory_sizes: Sequence[int] = MEMORY_SIZES,
    backends: Sequence[str] = ("s3", "dynamo"),
    poll_waits: Sequence[float] = (1.0, 5.0, 20.0),
    latency: Optional[LatencyModel] = None,
) -> PlanRecommendation:
    """Sweep the joint (memory × backend × polling budget) space.

    Every option is a real :class:`~repro.plan.DeploymentPlan` derived
    from ``base_plan`` (which contributes the price book, cache flag,
    and accounting mode), priced for one tenant-month of ``profile``.
    The recommendation is the cheapest option meeting the profile's
    latency target — or the fastest, if none can — with the
    deterministic tie-break (smallest memory, then S3, then the
    shortest poll wait).

    The returned ``knee_memory_mb`` is the §6.2 knee: the smallest
    memory size whose predicted run time meets the target on the
    default S3 backend (448 MB for the paper's chat profile at 150 ms).
    The poll-wait axis only matters when the profile has
    ``polling_clients``; otherwise the base plan's wait is kept.
    """
    latency = latency if latency is not None else LatencyModel(rng=SeededRng(0, "advisor"))
    waits = tuple(poll_waits) if profile.polling_clients else (base_plan.poll_wait_seconds,)
    target = profile.target_run_ms

    options: List[PlanOption] = []
    for backend in backends:
        backend_plan = base_plan.replace(storage=backend)
        calls = profile.request_profile(backend_plan)
        for memory_mb in memory_sizes:
            run_ms = _predict_run_ms(calls, memory_mb, latency)
            billed_ms = backend_plan.prices.round_up_billing(run_ms)
            for wait in waits:
                plan = backend_plan.replace(memory_mb=memory_mb, poll_wait_seconds=wait)
                cost = _plan_monthly_cost(profile, plan, billed_ms, memory_mb)
                options.append(PlanOption(plan, run_ms, billed_ms, cost))

    eligible = [option for option in options if option.meets(target)]
    if eligible:
        recommended = min(eligible, key=_option_key)
    else:
        recommended = min(
            options, key=lambda o: (o.predicted_run_ms,) + _option_key(o)[1:]
        )
    s3_memories = sorted(
        {o.plan.memory_mb for o in options
         if o.plan.storage == "s3" and o.meets(target)}
    )
    knee = s3_memories[0] if s3_memories else None
    return PlanRecommendation(profile, options, recommended, knee)


# -- the fleet-scale closed loop ------------------------------------------

# A heterogeneous 100k-tenant fleet, as (profile, share-of-fleet) pairs.
# Shares follow the paper's framing: most deployments are light personal
# use; a slice runs hot chat rooms (Table 2's 2 GB-storage chat row); a
# latency-critical IoT slice (§6.2's storage tradeoff pays for Dynamo);
# and a storage-heavy archival slice where S3's at-rest price dominates.
# Each profile is exactly the fleet engine's per-request component set
# (memory-scaled handler + one storage put + one SQS send, see
# ``repro.sim.fold.handler_components``), so the advisor's predictions
# and the re-simulated invoices describe the same workload.
_FLEET_HANDLER = dict(base_ms=0.0, handler_calls=1.0, kms_calls=0.0)
FLEET_CLASSES: Tuple[Tuple[WorkloadProfile, float], ...] = (
    (WorkloadProfile("heavy_chat", daily_requests=500.0, storage_gb=2.0,
                     target_run_ms=150.0, **_FLEET_HANDLER), 0.04),
    (WorkloadProfile("mainstream", daily_requests=50.0, storage_gb=0.5,
                     **_FLEET_HANDLER), 0.56),
    (WorkloadProfile("iot_latency", daily_requests=100.0, storage_gb=0.02,
                     target_run_ms=60.0, **_FLEET_HANDLER), 0.20),
    (WorkloadProfile("archival", daily_requests=10.0, storage_gb=5.0,
                     **_FLEET_HANDLER), 0.20),
)

# The one-size-fits-all deployment the savings are measured against:
# every tenant gets the paper's hand-picked 448 MB / S3 / 20 s plan.
UNIFORM_PLAN = DeploymentPlan(memory_mb=448)

__all__.append("UNIFORM_PLAN")


def run_advisor_benchmark(
    tenants: int = 100_000,
    days: float = 2.0,
    seed: int = 2017,
    worker_counts: Sequence[int] = (1, 2),
    classes: Sequence[Tuple[WorkloadProfile, float]] = FLEET_CLASSES,
    baseline_plan: DeploymentPlan = UNIFORM_PLAN,
) -> Dict[str, object]:
    """Optimize, then re-simulate: the advisor's closed loop at scale.

    For each tenant class the advisor recommends a plan (marginal
    accounting — the fleet operator's lens), then both the recommended
    and the one-size-fits-all baseline plans are simulated on the
    sharded fleet engine (:func:`repro.sim.shard.run_fleet_sharded`)
    over ``days`` of virtual time, at every worker count. Invoices are
    priced marginally (no free tier — it is one per-account constant
    that cancels between the arms), scaled to a 30-day month, and the
    difference is the headline: aggregate dollars/month the optimizer
    saves. Each arm's determinism digest must be byte-identical across
    worker counts. Both arms price with ``baseline_plan``'s price book,
    the one the optimizer recommends against.
    """
    from repro.sim.shard import FleetConfig, run_fleet_sharded

    if days <= 0:
        raise ConfigurationError("benchmark needs a positive duration")
    optimizer_plan = DeploymentPlan(accounting="marginal",
                                    price_book=baseline_plan.price_book)
    month_factor = Decimal(repr(DAYS_PER_MONTH / days))
    class_rows: List[Dict[str, object]] = []
    digests: List[Dict[str, object]] = []
    identical = True
    baseline_monthly = ZERO
    optimized_monthly = ZERO
    for index, (profile, share) in enumerate(classes):
        class_tenants = max(1, round(tenants * share))
        recommendation = recommend_plan(profile, base_plan=optimizer_plan)
        plan = recommendation.recommended.plan
        arms: Dict[str, Money] = {}
        arm_events: Dict[str, int] = {}
        for arm, arm_plan in (("baseline", baseline_plan), ("optimized", plan)):
            config = FleetConfig(
                plan=arm_plan,
                tenants=class_tenants,
                daily_requests=profile.daily_requests,
                days=days,
                seed=seed + index,
                payload_bytes=profile.payload_bytes,
                storage_gb_per_tenant=profile.storage_gb,
            )
            arm_digests: List[Dict[str, object]] = []
            result = None
            for workers in worker_counts:
                result = run_fleet_sharded(config, workers=workers)
                arm_digests.append(result.determinism_digest())
            arm_identical = all(d == arm_digests[0] for d in arm_digests)
            identical = identical and arm_identical
            digests.append({
                "class": profile.name, "arm": arm,
                "identical_across_worker_counts": arm_identical,
                "digest": arm_digests[0],
            })
            monthly = Invoice(result.meter, arm_plan.prices, apply_free_tier=False).total()
            arms[arm] = monthly * month_factor
            arm_events[arm] = result.events
        savings = arms["baseline"] - arms["optimized"]
        baseline_monthly = baseline_monthly + arms["baseline"]
        optimized_monthly = optimized_monthly + arms["optimized"]
        class_rows.append({
            "class": profile.name,
            "tenants": class_tenants,
            "share": share,
            "daily_requests": profile.daily_requests,
            "target_run_ms": profile.target_run_ms,
            "plan": recommendation.recommended.plan.as_dict(),
            "knee_memory_mb": recommendation.knee_memory_mb,
            "predicted_run_ms": round(recommendation.recommended.predicted_run_ms, 2),
            "billed_ms": recommendation.recommended.billed_ms,
            "events": arm_events["optimized"],
            "baseline_monthly_usd": str(arms["baseline"]),
            "optimized_monthly_usd": str(arms["optimized"]),
            "savings_monthly_usd": str(savings),
        })
    total_savings = baseline_monthly - optimized_monthly
    savings_pct = (
        float(total_savings.amount / baseline_monthly.amount) * 100
        if baseline_monthly > ZERO else 0.0
    )
    return {
        "benchmark": "advisor_closed_loop",
        "tenants": tenants,
        "days": days,
        "seed": seed,
        "baseline_plan": baseline_plan.as_dict(),
        "classes": class_rows,
        "fleet": {
            "baseline_monthly_usd": str(baseline_monthly),
            "optimized_monthly_usd": str(optimized_monthly),
            "savings_monthly_usd": str(total_savings),
            "savings_pct": round(savings_pct, 2),
        },
        "determinism": {
            "worker_counts": list(worker_counts),
            "identical_across_worker_counts": identical,
            "digests": digests,
        },
    }
