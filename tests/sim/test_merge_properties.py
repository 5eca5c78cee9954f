"""Property-style tests: merge order and partitioning never change results.

The sharded fleet engine's correctness reduces to one algebraic fact:
every merge it performs is commutative and associative *in the bytes*,
not just mathematically. These tests drive each mergeable type —
:class:`MetricSeries`, :class:`AvailabilityTracker`, :class:`PerfCounters` —
through random permutations and partitions and require bitwise-equal
outcomes. Billing needs no merge: the fleet engines meter the merged
integer totals (``repro.sim.fold.merge_results``).
"""

from __future__ import annotations

import random

from repro.sim.metrics import AvailabilityTracker, MetricSeries
from repro.sim.profile import PerfCounters
from repro.sim.rng import SeededRng


def _partitions(items, rnd, parts):
    """Split ``items`` into ``parts`` random contiguous-free buckets."""
    buckets = [[] for _ in range(parts)]
    for item in items:
        buckets[rnd.randrange(parts)].append(item)
    return buckets


class TestMetricSeriesMerge:
    def _samples(self, n=500):
        rng = SeededRng(11, "merge-props")
        return [rng.uniform(0.01, 500.0) for _ in range(n)]

    def _stats(self, series):
        return (
            series.count(), series.sum(), series.mean(), series.stddev(),
            series.min(), series.max(), series.p50(), series.p95(), series.p99(),
        )

    def test_any_partition_and_order_matches_whole(self):
        samples = self._samples()
        whole = MetricSeries("whole")
        whole.extend(samples)
        reference = self._stats(whole)
        for seed in range(5):
            rnd = random.Random(seed)
            buckets = _partitions(samples, rnd, parts=rnd.randint(2, 7))
            rnd.shuffle(buckets)
            merged = MetricSeries("merged")
            for i, bucket in enumerate(buckets):
                piece = MetricSeries(f"piece-{i}")
                piece.extend(bucket)
                merged.merge(piece)
            assert self._stats(merged) == reference

    def test_merge_returns_self_and_accumulates(self):
        a = MetricSeries("a")
        a.extend([1.0, 2.0])
        b = MetricSeries("b")
        b.extend([3.0])
        assert a.merge(b) is a
        assert a.count() == 3
        assert a.sum() == 6.0


class TestAvailabilityTrackerMerge:
    def _trackers(self):
        trackers = []
        rng = SeededRng(5, "trackers")
        for _ in range(8):
            tracker = AvailabilityTracker()
            tracker.attempts = rng.randint(10, 1000)
            tracker.successes = tracker.attempts - rng.randint(0, 9)
            tracker.failures = tracker.attempts - tracker.successes
            tracker.retries = rng.randint(0, 20)
            tracker.queued = rng.randint(0, 5)
            tracker.drained = tracker.queued
            tracker.failure_kinds = {"error": tracker.failures}
            trackers.append(tracker)
        return trackers

    def test_merge_order_free(self):
        reference = None
        for seed in range(5):
            trackers = self._trackers()
            random.Random(seed).shuffle(trackers)
            merged = AvailabilityTracker()
            for tracker in trackers:
                merged.merge(tracker)
            snapshot = merged.as_dict()
            if reference is None:
                reference = snapshot
            assert snapshot == reference


class TestPerfCountersMerge:
    def test_counters_and_phases_add_in_any_order(self):
        def build(events, seconds):
            perf = PerfCounters()
            perf.add("events", events)
            perf._phases["simulate"] = seconds
            return perf

        parts = [(100, 0.5), (250, 0.25), (7, 1.0)]
        reference = None
        for seed in range(4):
            shuffled = list(parts)
            random.Random(seed).shuffle(shuffled)
            merged = PerfCounters()
            for events, seconds in shuffled:
                merged.merge(build(events, seconds))
            snapshot = (merged.get("events"), merged.phase_seconds("simulate"))
            if reference is None:
                reference = snapshot
            assert snapshot == reference
        assert reference[0] == 357
