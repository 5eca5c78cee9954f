"""The deployment-plan advisor: joint memory x backend x polling sweeps."""

import pytest

from repro.core.advisor import (
    FLEET_CLASSES,
    UNIFORM_PLAN,
    PlanRecommendation,
    RequestProfile,
    WorkloadProfile,
    recommend_plan,
    run_advisor_benchmark,
)
from repro.errors import ConfigurationError
from repro.plan import DeploymentPlan
from repro.units import usd

MARGINAL = DeploymentPlan(accounting="marginal")
BILLED = DeploymentPlan(accounting="billed")

# The deployed prototype's per-message calls (one KMS data key, one
# state put, one SQS send) at 2,000 requests a day, on the S3 backend.
PAPER_CHAT = WorkloadProfile("chat", daily_requests=2000.0, target_run_ms=150.0)

CHAT_WORKLOAD = WorkloadProfile(
    "chat", daily_requests=1000.0, storage_gb=2.0, target_run_ms=150.0
)


def _s3_sweep(profile, base_plan=MARGINAL):
    return recommend_plan(profile, base_plan=base_plan, backends=("s3",))


def _at(recommendation, memory_mb):
    return next(o for o in recommendation.options if o.plan.memory_mb == memory_mb)


class TestPrediction:
    def test_more_memory_is_never_slower(self):
        runs = [option.predicted_run_ms for option in _s3_sweep(PAPER_CHAT).options]
        assert runs == sorted(runs, reverse=True)

    def test_prediction_matches_the_measured_prototype(self):
        """At 448 MB the model predicts close to Table 3's ~134 ms."""
        assert 110 < _at(_s3_sweep(PAPER_CHAT), 448).predicted_run_ms < 160

    def test_empty_profile_is_base_only(self):
        idle = WorkloadProfile("idle", daily_requests=10.0, base_ms=5.0,
                               kms_calls=0.0, storage_puts=0.0, sqs_sends=0.0)
        rec = recommend_plan(idle, base_plan=MARGINAL)
        assert all(o.predicted_run_ms == pytest.approx(5.0) for o in rec.options)


class TestRecommendation:
    def test_advisor_improves_on_the_paper_choice(self):
        """The paper hand-picked 448 MB; the advisor finds that 640 MB
        is *both* faster and cheaper, because dropping the run under
        100 ms crosses a whole billing increment (200 ms -> 100 ms
        billed outweighs the larger GB-s rate). The 448 MB choice meets
        the budget but is dominated."""
        rec = _s3_sweep(PAPER_CHAT)
        at_448 = _at(rec, 448)
        pick = rec.recommended
        assert at_448.meets(150)  # the paper's choice is valid...
        assert pick.plan.memory_mb == 640  # ...but not optimal
        assert rec.knee_memory_mb == 448
        assert pick.predicted_run_ms < at_448.predicted_run_ms
        assert pick.monthly_cost < at_448.monthly_cost
        assert pick.billed_ms == 100 and at_448.billed_ms == 200

    def test_loose_budget_picks_something_cheap(self):
        loose = WorkloadProfile("chat", daily_requests=2000.0, target_run_ms=1000.0)
        plan = recommend_plan(loose, base_plan=MARGINAL)
        strict = recommend_plan(PAPER_CHAT, base_plan=MARGINAL)
        assert plan.recommended.monthly_cost <= strict.recommended.monthly_cost
        assert plan.recommended.plan.memory_mb < strict.recommended.plan.memory_mb

    def test_impossible_budget_returns_fastest(self):
        hopeless = WorkloadProfile("chat", daily_requests=2000.0, target_run_ms=1.0)
        rec = recommend_plan(hopeless, base_plan=MARGINAL)
        assert rec.recommended.plan.memory_mb == 1536
        assert rec.recommended.predicted_run_ms == min(o.predicted_run_ms for o in rec.options)

    def test_no_budget_picks_cheapest_overall(self):
        rec = recommend_plan(WorkloadProfile("chat", daily_requests=2000.0),
                             base_plan=MARGINAL)
        assert rec.recommended.monthly_cost == min(o.monthly_cost for o in rec.options)

    def test_recommendation_meets_its_own_target(self):
        for target in (120, 200, 400, 800):
            profile = WorkloadProfile("chat", daily_requests=500.0, target_run_ms=target)
            rec = recommend_plan(profile, base_plan=MARGINAL)
            assert rec.recommended.predicted_run_ms <= max(
                target, min(o.predicted_run_ms for o in rec.options)
            )


class TestRendering:
    def test_render_marks_the_pick(self):
        text = _s3_sweep(PAPER_CHAT).render()
        assert "recommended" in text
        assert "Deployment plan for 'chat' (target 150 ms)" in text


class TestValidation:
    def test_negative_requests_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile("chat", daily_requests=-1.0)

    def test_negative_call_count_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestProfile((("s3.get", -1),))

    def test_negative_base_rejected(self):
        with pytest.raises(ConfigurationError):
            RequestProfile((), base_ms=-1)


class TestFreeTier:
    def test_free_tier_blindness_is_fixed(self):
        """Billed accounting nets out the free tiers: a small deployment
        with no stored state is $0.00, which marginal pricing misses."""
        small = WorkloadProfile("chat", daily_requests=100.0)
        covered = recommend_plan(small, base_plan=BILLED)
        blind = recommend_plan(small, base_plan=MARGINAL)
        assert str(covered.recommended.monthly_cost) == "$0.00"
        assert blind.recommended.monthly_cost > covered.recommended.monthly_cost

    def test_free_tier_never_raises_a_cost(self):
        for daily in (100, 5_000, 200_000):
            profile = WorkloadProfile("chat", daily_requests=daily)
            covered = recommend_plan(profile, base_plan=BILLED)
            blind = recommend_plan(profile, base_plan=MARGINAL)
            for with_ft, without in zip(covered.options, blind.options):
                assert with_ft.plan.replace(accounting="marginal") == without.plan
                assert with_ft.monthly_cost <= without.monthly_cost

    def test_heavy_volume_exhausts_the_free_tier(self):
        """Past the crossover the free tier is a constant rebate: the
        two modes agree on the pick even though the totals differ."""
        heavy = WorkloadProfile("chat", daily_requests=200_000.0)
        covered = recommend_plan(heavy, base_plan=BILLED)
        blind = recommend_plan(heavy, base_plan=MARGINAL)
        assert covered.recommended.plan.memory_mb == blind.recommended.plan.memory_mb
        assert covered.recommended.plan.storage == blind.recommended.plan.storage
        assert covered.recommended.monthly_cost > usd("0")

    def test_accounting_mode_changes_the_plan_pick(self):
        """Under billed accounting the free tier swallows the paper
        deployment's Lambda line, so the optimizer keeps the slower,
        smaller knee size; marginal accounting pays per GB-second and
        buys the 640 MB billing-cliff pick instead."""
        billed = recommend_plan(CHAT_WORKLOAD, base_plan=BILLED)
        marginal = recommend_plan(CHAT_WORKLOAD, base_plan=MARGINAL)
        assert billed.recommended.plan.memory_mb == 448
        assert marginal.recommended.plan.memory_mb == 640
        assert billed.recommended.monthly_cost < marginal.recommended.monthly_cost


class TestKnownAnswers:
    def test_paper_knee_is_448(self):
        """§6.2: 448 MB is the smallest size meeting the 150 ms target
        on the S3 backend — the paper's hand-picked knee."""
        for accounting in ("billed", "marginal"):
            rec = recommend_plan(
                CHAT_WORKLOAD, base_plan=DeploymentPlan(accounting=accounting)
            )
            assert rec.knee_memory_mb == 448

    def test_marginal_chat_pick_is_the_billing_cliff(self):
        rec = recommend_plan(
            CHAT_WORKLOAD, base_plan=DeploymentPlan(accounting="marginal")
        )
        pick = rec.recommended
        assert (pick.plan.storage, pick.plan.memory_mb) == ("s3", 640)
        assert pick.billed_ms == 100

    def test_tight_latency_buys_dynamo(self):
        """An IoT-style 60 ms target is unreachable over S3's ~19 ms
        median PUT; the optimizer switches the backend to DynamoDB."""
        iot = WorkloadProfile(
            "iot", daily_requests=100.0, storage_gb=0.02, target_run_ms=60.0
        )
        rec = recommend_plan(iot, base_plan=DeploymentPlan(accounting="marginal"))
        pick = rec.recommended
        assert pick.plan.storage == "dynamo"
        assert pick.predicted_run_ms <= 60.0

    def test_storage_heavy_stays_on_s3(self):
        """At $0.023 vs $0.25 per GB-month, bulk state pins the backend
        to S3 whenever latency allows."""
        archival = WorkloadProfile("archival", daily_requests=10.0, storage_gb=5.0)
        rec = recommend_plan(archival, base_plan=DeploymentPlan(accounting="marginal"))
        assert rec.recommended.plan.storage == "s3"


class TestTieBreaking:
    def test_equal_cost_prefers_smallest_memory(self):
        """128 MB and 256 MB land on the exact same monthly total for a
        low-volume handler-only workload (billed-increment rounding);
        the sweep must deterministically keep the smaller size."""
        profile = WorkloadProfile(
            "mainstream",
            daily_requests=50.0,
            storage_gb=0.5,
            base_ms=0.0,
            handler_calls=1.0,
            kms_calls=0.0,
        )
        rec = recommend_plan(
            profile,
            base_plan=DeploymentPlan(accounting="marginal"),
            memory_sizes=(256, 128),
            backends=("s3",),
        )
        by_memory = {o.plan.memory_mb: o for o in rec.options}
        assert by_memory[128].monthly_cost == by_memory[256].monthly_cost
        assert rec.recommended.plan.memory_mb == 128

    def test_equal_cost_prefers_s3_backend(self):
        """With no storage traffic the two backends price identically;
        the tie goes to the cheaper-at-rest S3 backend, stably."""
        profile = WorkloadProfile(
            "compute", daily_requests=100.0, storage_puts=0.0,
            sqs_sends=0.0, storage_gb=0.0,
        )
        rec = recommend_plan(
            profile,
            base_plan=DeploymentPlan(accounting="marginal"),
            memory_sizes=(448,),
            backends=("dynamo", "s3"),
        )
        costs = {o.plan.storage: o.monthly_cost for o in rec.options}
        assert costs["s3"] == costs["dynamo"]
        assert rec.recommended.plan.storage == "s3"

    def test_option_order_is_deterministic(self):
        rec1 = recommend_plan(
            CHAT_WORKLOAD, base_plan=DeploymentPlan(accounting="marginal")
        )
        rec2 = recommend_plan(
            CHAT_WORKLOAD, base_plan=DeploymentPlan(accounting="marginal")
        )
        assert [o.plan for o in rec1.options] == [o.plan for o in rec2.options]
        assert rec1.recommended.plan == rec2.recommended.plan


class TestPollingSweep:
    def test_no_polling_clients_keeps_the_base_wait(self):
        profile = WorkloadProfile("quiet", daily_requests=100.0)
        rec = recommend_plan(
            profile,
            base_plan=DeploymentPlan(accounting="marginal", poll_wait_seconds=5.0),
        )
        assert {o.plan.poll_wait_seconds for o in rec.options} == {5.0}

    def test_polling_clients_prefer_the_longest_wait(self):
        """§6.2's 20-second maximum long poll is the cheapest budget:
        fewer wake-ups per client-month."""
        profile = WorkloadProfile("chatty", daily_requests=100.0, polling_clients=5)
        rec = recommend_plan(profile, base_plan=DeploymentPlan(accounting="marginal"))
        waits = {o.plan.poll_wait_seconds for o in rec.options}
        assert waits == {1.0, 5.0, 20.0}
        assert rec.recommended.plan.poll_wait_seconds == 20.0


class TestWorkloadProfileValidation:
    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile("bad", daily_requests=1.0, storage_puts=-1.0)
        with pytest.raises(ConfigurationError):
            WorkloadProfile("bad", daily_requests=1.0, storage_gb=-0.5)
        with pytest.raises(ConfigurationError):
            WorkloadProfile("bad", daily_requests=1.0, polling_clients=-1)

    def test_render_mentions_the_backend_column(self):
        rec = recommend_plan(
            CHAT_WORKLOAD, base_plan=DeploymentPlan(accounting="marginal")
        )
        text = rec.render()
        assert "recommended" in text
        assert "dynamo" in text or "s3" in text
        assert isinstance(rec, PlanRecommendation)


class TestClosedLoop:
    def test_smoke_closed_loop_is_deterministic_and_saves(self):
        """Small fleet, one whole diurnal cycle: optimize per class,
        re-simulate both arms, and require byte-identical digests across
        worker counts plus positive savings. (A fractional day samples a
        non-representative slice of the diurnal arrival curve and under-
        counts request volume relative to storage-months.)"""
        record = run_advisor_benchmark(tenants=500, days=1.0, worker_counts=(1, 2))
        assert record["determinism"]["identical_across_worker_counts"] is True
        assert float(record["fleet"]["savings_monthly_usd"].lstrip("$")) > 0.0
        assert {row["class"] for row in record["classes"]} == {
            profile.name for profile, _share in FLEET_CLASSES
        }
        assert record["baseline_plan"] == UNIFORM_PLAN.as_dict()

    @pytest.mark.advisor
    def test_full_scale_closed_loop(self):
        """The BENCH_advisor.json configuration: 100k heterogeneous
        tenants, both arms, both worker counts."""
        record = run_advisor_benchmark(tenants=100_000, days=2.0, worker_counts=(1, 2))
        assert record["determinism"]["identical_across_worker_counts"] is True
        assert float(record["fleet"]["savings_monthly_usd"].lstrip("$")) > 0.0
        assert float(record["fleet"]["savings_pct"]) > 0.0
