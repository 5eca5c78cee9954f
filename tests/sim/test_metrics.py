"""Metric series and percentile math (what Table 3 reports)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.metrics import MetricRegistry, MetricSeries, percentile


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        data = [5, 1, 9]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_single_sample(self):
        assert percentile([7], 99) == 7

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            percentile([], 50)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(SimulationError):
            percentile([1], 101)


class TestSeries:
    def test_summary_statistics(self):
        series = MetricSeries("run_ms", "ms")
        series.extend([100, 200, 300])
        assert series.mean() == 200
        assert series.median() == 200
        assert series.min() == 100
        assert series.max() == 300
        assert series.count() == 3
        assert series.sum() == 600

    def test_stddev(self):
        series = MetricSeries("x")
        series.extend([2, 4, 4, 4, 5, 5, 7, 9])
        assert series.stddev() == pytest.approx(2.138, abs=0.01)

    def test_stddev_single_sample_is_zero(self):
        series = MetricSeries("x")
        series.record(1)
        assert series.stddev() == 0.0

    def test_empty_series_raises(self):
        with pytest.raises(SimulationError):
            MetricSeries("empty").mean()

    def test_summary_dict_keys(self):
        series = MetricSeries("x")
        series.extend([1, 2, 3])
        summary = series.summary()
        assert set(summary) == {"count", "mean", "median", "p95", "p99", "min", "max"}

    def test_percentile_accessors_match_percentile_function(self):
        series = MetricSeries("lat")
        samples = [5, 1, 9, 2, 8, 3, 7, 4, 6, 10]
        series.extend(samples)
        assert series.p50() == percentile(samples, 50)
        assert series.p95() == percentile(samples, 95)
        assert series.p99() == percentile(samples, 99)

    def test_histogram_counts_and_overflow(self):
        series = MetricSeries("lat")
        series.extend([1, 5, 5, 10, 50, 200])
        buckets = series.histogram([5, 10, 100])
        assert buckets == [(5, 3), (10, 1), (100, 1), (float("inf"), 1)]
        assert sum(count for _, count in buckets) == series.count()

    def test_histogram_empty_bucket_is_zero(self):
        series = MetricSeries("lat")
        series.extend([100, 200])
        assert series.histogram([1, 2, 300]) == [
            (1, 0), (2, 0), (300, 2), (float("inf"), 0),
        ]

    def test_histogram_rejects_bad_bounds(self):
        series = MetricSeries("lat")
        series.record(1)
        with pytest.raises(SimulationError):
            series.histogram([])
        with pytest.raises(SimulationError):
            series.histogram([5, 5])
        with pytest.raises(SimulationError):
            series.histogram([10, 5])


class TestRegistry:
    def test_series_are_memoized(self):
        registry = MetricRegistry()
        assert registry.series("a") is registry.series("a")

    def test_record_shortcut(self):
        registry = MetricRegistry()
        registry.record("lat", 5.0)
        registry.record("lat", 7.0)
        assert registry.get("lat").count() == 2

    def test_contains_and_names(self):
        registry = MetricRegistry()
        registry.record("b", 1)
        registry.record("a", 1)
        assert "a" in registry
        assert registry.names() == ["a", "b"]

    def test_get_missing_returns_none(self):
        assert MetricRegistry().get("nope") is None


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e9, max_value=1e9), min_size=1))
def test_property_percentile_within_range(samples):
    p50 = percentile(samples, 50)
    assert min(samples) <= p50 <= max(samples)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e9, max_value=1e9), min_size=2))
def test_property_percentiles_monotone(samples):
    assert percentile(samples, 25) <= percentile(samples, 75)


_samples = st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e9, max_value=1e9), max_size=6)
# A mutation, then the percentile it is read at, or no read.
_steps = st.lists(st.tuples(
    st.one_of(
        st.tuples(st.just("record"), st.floats(-1e9, 1e9)),
        st.tuples(st.just("extend"), _samples),
        st.tuples(st.just("merge"), _samples),
    ),
    st.one_of(st.none(), st.floats(0, 100)),
), max_size=10)


@settings(max_examples=300, deadline=None)
@given(_steps)
def test_property_cached_percentiles_follow_every_mutation(steps):
    """Reads between mutations see every sample so far: the sorted cache never goes stale."""
    series, plain = MetricSeries("s"), []
    for (step, value), q in steps:
        if step == "record":
            series.record(value)
            plain.append(value)
        elif step == "extend":
            series.extend(iter(value))  # a one-pass iterable, as a generator would be
            plain.extend(value)
        else:
            other = MetricSeries("other")
            other.extend(value)
            assert series.merge(other) is series
            plain.extend(value)
        if q is not None and plain:
            assert series.p(q) == percentile(plain, q)
            assert [series.median(), series.p50(), series.p95(), series.p99()] == [
                percentile(plain, p) for p in (50, 50, 95, 99)]
    assert series.samples == plain
