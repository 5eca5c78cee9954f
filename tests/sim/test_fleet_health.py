"""Fleet health plane: pure observation, order-free merges, replay fixpoint.

The contracts pinned here:

* attaching a :class:`MetricsPlane` to the per-tenant fleet engine does not
  move the invoice — the golden bill holds with metrics on;
* the plane's counters agree exactly with the engine's own totals;
* sharded-fleet exposition is byte-identical across worker counts, and
  the determinism digest only grows an ``exposition_sha256`` key when
  health collection is on (metrics-off digests match the seed's);
* record→replay extends to the health plane: replaying a recorded run
  with the recording config reproduces the exposition byte-for-byte.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsPlane
from repro.plan import DeploymentPlan
from repro.sim.replay import TraceRecorder, run_replay_batched, run_replay_sharded
from repro.sim.scale import ScaleConfig, run_fleet
from repro.sim.shard import FleetConfig, run_fleet_sharded

GOLDEN_CONFIG = ScaleConfig(tenants=3, daily_requests=500.0, days=2.0, seed=99)
GOLDEN_ARRIVALS = (1037, 938, 1047)
GOLDEN_BILLED_MS = 428100
GOLDEN_TOTAL = "$0.02"

SMOKE_FLEET = FleetConfig(
    tenants=200, daily_requests=4.0, days=1.0, seed=2017,
    logical_shards=8, latency_samples=64,
)


class TestFleetMetricsArePureObservation:
    def test_golden_bill_holds_with_metrics_attached(self):
        plane = MetricsPlane()
        result = run_fleet(GOLDEN_CONFIG, health=plane)
        assert result.per_tenant_arrivals == GOLDEN_ARRIVALS
        assert result.total_billed_ms == GOLDEN_BILLED_MS
        assert result.invoice_total == GOLDEN_TOTAL

    def test_plane_totals_match_engine_totals(self):
        plane = MetricsPlane()
        result = run_fleet(GOLDEN_CONFIG, health=plane)
        assert plane.counter("fleet.requests").value == result.arrivals
        assert plane.counter("fleet.billed_ms").value == result.total_billed_ms
        assert plane.histogram("fleet.request_us").count == result.arrivals

    def test_metrics_on_and_off_runs_agree(self):
        bare = run_fleet(GOLDEN_CONFIG)
        metered = run_fleet(GOLDEN_CONFIG, health=MetricsPlane())
        assert bare.as_dict()["invoice_total"] == metered.as_dict()["invoice_total"]
        assert bare.per_tenant_arrivals == metered.per_tenant_arrivals
        assert bare.samples_drawn == metered.samples_drawn
        assert bare.meter_hits == metered.meter_hits


class TestShardedFleetHealth:
    def test_exposition_is_byte_identical_across_worker_counts(self):
        one = run_fleet_sharded(SMOKE_FLEET, workers=1, collect_health=True)
        two = run_fleet_sharded(SMOKE_FLEET, workers=2, collect_health=True)
        assert one.health is not None and two.health is not None
        assert one.health.to_jsonl() == two.health.to_jsonl()
        assert one.exposition_sha256() == two.exposition_sha256()
        assert one.determinism_digest() == two.determinism_digest()

    def test_health_off_digest_is_unchanged_by_the_feature(self):
        off = run_fleet_sharded(SMOKE_FLEET, workers=1)
        on = run_fleet_sharded(SMOKE_FLEET, workers=1, collect_health=True)
        off_digest = off.determinism_digest()
        on_digest = on.determinism_digest()
        assert "exposition_sha256" not in off_digest
        assert "exposition_sha256" in on_digest
        on_digest.pop("exposition_sha256")
        assert off_digest == on_digest

    def test_merged_plane_counts_the_whole_fleet(self):
        result = run_fleet_sharded(SMOKE_FLEET, workers=1, collect_health=True)
        assert result.health.counter("fleet.requests").value == result.events
        assert (
            result.health.counter("fleet.billed_ms").value
            == result.total_billed_ms()
        )


class TestReplayHealthFixpoint:
    @pytest.mark.parametrize("storage", ["s3", "dynamo"])
    def test_record_then_replay_reproduces_exposition_bytes(self, storage):
        config = ScaleConfig(tenants=3, daily_requests=300.0, days=1.0, seed=13,
                             plan=DeploymentPlan(storage=storage))
        recorder = TraceRecorder(name="health", seed=config.seed,
                                 tenants=config.tenants)
        recorded_plane = MetricsPlane()
        recorded = run_fleet(config, recorder=recorder, health=recorded_plane)
        replay_plane = MetricsPlane()
        replayed = run_replay_batched(recorder.trace(), config,
                                      health=replay_plane)
        assert replayed.invoice_total == recorded.invoice_total
        assert recorded_plane.to_jsonl() == replay_plane.to_jsonl()
        assert recorded_plane.to_prometheus() == replay_plane.to_prometheus()

    def test_sharded_replay_exposition_stable_across_workers(self):
        config = ScaleConfig(tenants=6, daily_requests=200.0, days=1.0, seed=3)
        recorder = TraceRecorder(name="health-sharded", seed=config.seed,
                                 tenants=config.tenants)
        run_fleet(config, recorder=recorder)
        trace = recorder.trace()
        one = run_replay_sharded(trace, workers=1, collect_health=True)
        two = run_replay_sharded(trace, workers=2, collect_health=True)
        assert one.health.to_jsonl() == two.health.to_jsonl()
        assert one.determinism_digest() == two.determinism_digest()
        off = run_replay_sharded(trace, workers=1)
        assert "exposition_sha256" not in off.determinism_digest()
