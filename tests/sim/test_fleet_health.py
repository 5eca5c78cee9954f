"""Fleet health plane: pure observation, order-free merges, replay fixpoint.

The contracts pinned here:

* collecting health on the sharded fleet, and recording it, does not
  move the bill — the golden bill (pinned before the fleet recorded
  traces) holds with metrics and a recorder attached;
* the plane's counters agree exactly with the engine's own totals;
* sharded-fleet exposition is byte-identical across worker counts, and
  the determinism digest only grows an ``exposition_sha256`` key when
  health collection is on (metrics-off digests match the seed's);
* record→replay extends to the health plane: replaying a recorded run
  with the recording seed reproduces the exposition byte-for-byte.
"""

from __future__ import annotations

import pytest

from repro.plan import DeploymentPlan
from repro.sim.replay import ReplayConfig, TraceRecorder, run_replay_sharded
from repro.sim.shard import FleetConfig, run_fleet_sharded

GOLDEN_CONFIG = FleetConfig(tenants=3, daily_requests=500.0, days=2.0, seed=99,
                            logical_shards=8)
GOLDEN_ARRIVALS = [1031, 995, 1020]
GOLDEN_BILLED_UNITS = 4322
GOLDEN_TOTAL = "$0.02"
GOLDEN_EXPOSITION = "d0560cbcbb0b2ee08aa3e4cf224b6a0d7d4b18fe02caf5a5320474ab4c0ebf45"

SMOKE_FLEET = FleetConfig(
    tenants=200, daily_requests=4.0, days=1.0, seed=2017,
    logical_shards=8, latency_samples=64,
)


def _recorded(config: FleetConfig, collect_health: bool = True, workers: int = 1):
    recorder = TraceRecorder(name="health", seed=config.seed, tenants=config.tenants)
    result = run_fleet_sharded(config, workers=workers, collect_health=collect_health,
                               recorder=recorder)
    return result, recorder.trace()


class TestFleetMetricsArePureObservation:
    def test_golden_bill_holds_with_metrics_attached(self):
        result, _ = _recorded(GOLDEN_CONFIG)
        assert result.tenant_counts == GOLDEN_ARRIVALS
        assert result.billed_units == GOLDEN_BILLED_UNITS
        assert result.invoice_total == GOLDEN_TOTAL
        assert result.exposition_sha256() == GOLDEN_EXPOSITION

    def test_plane_totals_match_engine_totals(self):
        result, _ = _recorded(GOLDEN_CONFIG)
        plane = result.health
        assert plane.counter("fleet.requests").value == result.events
        assert plane.counter("fleet.billed_ms").value == result.total_billed_ms()
        assert plane.histogram("fleet.request_us").count == result.events

    def test_metrics_on_and_off_runs_agree(self):
        bare = run_fleet_sharded(GOLDEN_CONFIG)
        metered, _ = _recorded(GOLDEN_CONFIG)
        digest = metered.determinism_digest()
        assert digest.pop("exposition_sha256") == GOLDEN_EXPOSITION
        assert digest == bare.determinism_digest()
        assert bare.samples_drawn == metered.samples_drawn


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
        config = FleetConfig(tenants=3, daily_requests=300.0, days=1.0, seed=13,
                             logical_shards=8, plan=DeploymentPlan(storage=storage))
        recorded, trace = _recorded(config)
        replayed = run_replay_sharded(trace, ReplayConfig(seed=config.seed),
                                      collect_health=True)
        assert replayed.invoice_total == recorded.invoice_total
        assert recorded.health.to_jsonl() == replayed.health.to_jsonl()
        assert recorded.health.to_prometheus() == replayed.health.to_prometheus()

    def test_sharded_replay_exposition_stable_across_workers(self):
        config = FleetConfig(tenants=6, daily_requests=200.0, days=1.0, seed=3,
                             logical_shards=8)
        _, trace = _recorded(config, collect_health=False)
        one = run_replay_sharded(trace, workers=1, collect_health=True)
        two = run_replay_sharded(trace, workers=2, collect_health=True)
        assert one.health.to_jsonl() == two.health.to_jsonl()
        assert one.determinism_digest() == two.determinism_digest()
        off = run_replay_sharded(trace, workers=1)
        assert "exposition_sha256" not in off.determinism_digest()
