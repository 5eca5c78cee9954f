"""The sharded fleet engine's determinism contract.

Three properties the engine promises (`DESIGN.md` §11):

1. tenant → shard assignment is a pure function of the tenant id;
2. the merged fleet result is byte-identical on 1, 2, or 8 workers;
3. merging shard results is independent of arrival order.

The configs here are scaled down so the whole module runs in tier-1;
``benchmarks/test_fleet_throughput.py`` (``-m fleet``) proves the same
contract at a million tenants.
"""

from __future__ import annotations

import random

import pytest

from repro.cloud.billing import UsageKind
from repro.errors import ConfigurationError
from repro.sim.shard import (
    DEFAULT_LOGICAL_SHARDS,
    FleetConfig,
    merge_shards,
    run_fleet_sharded,
    run_shard,
    shard_of,
    shard_tenants,
)

SMOKE_CONFIG = FleetConfig(
    tenants=1000, daily_requests=8.0, days=2.0, seed=2017,
    logical_shards=16, latency_samples=256,
)


class TestShardAssignment:
    def test_pure_function_of_tenant_id(self):
        # Golden pins: these values may never drift, or every stored
        # fleet result changes meaning.
        assert [shard_of(t) for t in (0, 1, 2, 123456, 999999)] == [47, 1, 14, 41, 45]
        assert [shard_of(t, 8) for t in (0, 1, 2)] == [7, 1, 6]

    def test_independent_of_fleet_size_and_order(self):
        # The shard of tenant 42 does not care how many tenants exist
        # or in what order anyone enumerates them.
        fixed = shard_of(42)
        for tenants in (100, 1000, 10_000):
            ids = list(range(tenants))
            random.Random(7).shuffle(ids)
            assert all(shard_of(t) == shard_of(t) for t in ids[:50])
            assert shard_of(42) == fixed

    def test_shard_tenants_partitions_the_fleet(self):
        seen = []
        for shard_id in range(DEFAULT_LOGICAL_SHARDS):
            ids = [int(t) for t in shard_tenants(5000, shard_id)]
            assert ids == sorted(ids)
            assert all(shard_of(t) == shard_id for t in ids)
            seen.extend(ids)
        assert sorted(seen) == list(range(5000))

    def test_spread_is_roughly_even(self):
        sizes = [len(shard_tenants(64_000, s)) for s in range(64)]
        assert min(sizes) > 0.75 * (64_000 / 64)
        assert max(sizes) < 1.25 * (64_000 / 64)


class TestWorkerCountDeterminism:
    @pytest.fixture(scope="class")
    def single(self):
        return run_fleet_sharded(SMOKE_CONFIG, workers=1)

    def test_two_workers_byte_identical(self, single):
        dual = run_fleet_sharded(SMOKE_CONFIG, workers=2)
        assert dual.determinism_digest() == single.determinism_digest()
        assert dual.tenant_counts == single.tenant_counts
        assert dual.invoice_total == single.invoice_total
        assert dual.latency.samples == single.latency.samples

    def test_eight_workers_byte_identical(self, single):
        octo = run_fleet_sharded(SMOKE_CONFIG, workers=8)
        assert octo.determinism_digest() == single.determinism_digest()
        assert octo.hod_hist == single.hod_hist
        assert octo.report == single.report

    def test_result_is_internally_consistent(self, single):
        assert single.events == sum(single.tenant_counts)
        assert single.events == sum(single.shard_events)
        assert single.events == sum(single.hod_hist)
        assert single.samples_drawn == single.events * 3
        assert single.meter.total(UsageKind.LAMBDA_REQUESTS) == float(single.events)
        assert single.total_billed_ms() == single.billed_units * 100
        assert single.tracker.attempts == single.events
        assert single.report["eventual_delivery_rate"] == 1.0
        # Evening peak (hour 19) out-draws the overnight trough.
        assert single.hod_hist[19] > single.hod_hist[3]

    def test_phases_reported(self, single):
        phases = single.perf.snapshot()["phases"]
        assert set(phases) == {"simulate", "merge", "invoice"}


class TestMergeOrderIndependence:
    def test_shuffled_merge_matches_engine_run(self):
        reference = run_fleet_sharded(SMOKE_CONFIG, workers=1)
        results = [
            run_shard(SMOKE_CONFIG, shard_id)
            for shard_id in range(SMOKE_CONFIG.logical_shards)
        ]
        for seed in (1, 2, 3):
            shuffled = list(results)
            random.Random(seed).shuffle(shuffled)
            merged = merge_shards(SMOKE_CONFIG, shuffled)
            assert merged.determinism_digest() == reference.determinism_digest()
            assert merged.latency.samples == reference.latency.samples

    def test_duplicate_shard_rejected(self):
        result = run_shard(SMOKE_CONFIG, 0)
        with pytest.raises(Exception):
            merge_shards(SMOKE_CONFIG, [result, result])

    def test_missing_shard_rejected(self):
        results = [
            run_shard(SMOKE_CONFIG, shard_id)
            for shard_id in range(SMOKE_CONFIG.logical_shards)
            if shard_id != 5
        ]
        with pytest.raises(ConfigurationError, match=r"missing shard ids \[5\]"):
            merge_shards(SMOKE_CONFIG, results)


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(Exception):
            FleetConfig(tenants=0)
        with pytest.raises(Exception):
            FleetConfig(logical_shards=0)
        with pytest.raises(Exception):
            FleetConfig(days=0)

    def test_sample_stride_scales_with_volume(self):
        small = FleetConfig(tenants=100, daily_requests=1.0, days=1.0)
        big = FleetConfig(tenants=1_000_000, daily_requests=1.0, days=365.0)
        assert small.sample_stride() == 1
        assert big.sample_stride() > 1000

    def test_empty_shard_is_fine(self):
        # 3 tenants over 64 shards: most shards own nobody.
        config = FleetConfig(tenants=3, daily_requests=2.0, days=1.0)
        result = run_fleet_sharded(config, workers=1)
        assert result.events == sum(result.tenant_counts)
        assert len(result.tenant_counts) == 3
