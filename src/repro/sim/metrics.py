"""Metric collection: the statistics Table 3 reports.

The prototype evaluation reports *medians* (lambda time billed, lambda
time run, end-to-end latency) and a peak (memory used). A
:class:`MetricSeries` accumulates raw samples and exposes those summary
statistics; a :class:`MetricRegistry` names and owns series for a whole
simulation run.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = [
    "percentile",
    "MetricSeries",
    "MetricRegistry",
    "AvailabilityTracker",
    "sla_report",
]


def percentile(samples: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    return _sorted_percentile(sorted(samples), q)


def _sorted_percentile(data: List[float], q: float) -> float:
    """:func:`percentile` of samples already in ascending order."""
    if not data:
        raise SimulationError("percentile of an empty series")
    if not 0 <= q <= 100:
        raise SimulationError(f"percentile q={q} out of range")
    if len(data) == 1:
        return data[0]
    rank = (q / 100) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high or data[low] == data[high]:
        # The equality guard also avoids subnormal-float underflow in
        # the interpolation (e.g. 5e-324 * 0.5 rounds to 0.0).
        return data[low]
    weight = rank - low
    return data[low] * (1 - weight) + data[high] * weight


class MetricSeries:
    """An append-only series of numeric samples with summary statistics.

    The samples in sorted order are kept from the first percentile read
    until the next ``record``, ``extend`` or ``merge``, so a report that
    reads several percentiles sorts once.
    """

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        self._samples.append(float(value))
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(map(float, values))
        self._sorted = None

    def merge(self, other: "MetricSeries") -> "MetricSeries":
        """Fold another series' samples into this one.

        Merging is commutative and associative *for every statistic*:
        percentiles sort, min/max/count are order-free, and
        :meth:`sum` / :meth:`mean` / :meth:`stddev` go through
        :func:`math.fsum`, whose exactly-rounded result does not depend
        on the order samples arrived. A sharded fleet can therefore
        merge per-shard series in any order — or any partitioning — and
        report byte-identical summaries
        (``tests/sim/test_merge_properties.py``).
        """
        self._samples.extend(other._samples)
        self._sorted = None
        return self

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def count(self) -> int:
        return len(self._samples)

    def sum(self) -> float:
        # fsum: exactly rounded, so the value is independent of sample
        # order — a shard-merge determinism requirement, not a nicety.
        return math.fsum(self._samples)

    def mean(self) -> float:
        if not self._samples:
            raise SimulationError(f"metric {self.name!r} has no samples")
        return math.fsum(self._samples) / len(self._samples)

    def median(self) -> float:
        return self.p(50)

    def p(self, q: float) -> float:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return _sorted_percentile(self._sorted, q)

    def p50(self) -> float:
        return self.p(50)

    def p95(self) -> float:
        return self.p(95)

    def p99(self) -> float:
        return self.p(99)

    def histogram(self, bucket_bounds: Iterable[float]) -> List[Tuple[float, int]]:
        """Bucket counts over strictly increasing upper bounds.

        Returns ``(upper_bound, count)`` pairs: a sample lands in the
        first bucket whose bound is >= the sample (bounds are
        inclusive), with a final ``(inf, count)`` overflow bucket for
        samples above the last bound.
        """
        bounds = [float(b) for b in bucket_bounds]
        if not bounds:
            raise SimulationError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise SimulationError(f"histogram bounds must strictly increase: {bounds}")
        counts = [0] * (len(bounds) + 1)
        for sample in self._samples:
            counts[bisect.bisect_left(bounds, sample)] += 1
        return list(zip(bounds + [math.inf], counts))

    def log_histogram(self, bounds: Optional[Iterable[int]] = None):
        """This series as a health-plane :class:`~repro.obs.metrics.Histogram`.

        The bridge between the two quantile worlds: the returned
        histogram uses the shared log ladder
        (:data:`repro.obs.metrics.DEFAULT_LATENCY_BOUNDS` unless
        overridden), the same inclusive-upper ``bisect_left`` bucketing
        as :meth:`histogram`, and the same ``(q/100)*(n-1)`` rank rule
        as :func:`percentile` — so for any series,
        ``series.log_histogram().quantile_bounds(q)`` brackets
        ``series.p(q)`` exactly (pinned by the unification regression
        test). Import is deferred: this module sits below
        :mod:`repro.obs` in the import graph.
        """
        from repro.obs.metrics import Histogram

        hist = Histogram(self.name, bounds=bounds)
        hist.observe_block(self._samples)
        return hist

    def min(self) -> float:
        if not self._samples:
            raise SimulationError(f"metric {self.name!r} has no samples")
        return min(self._samples)

    def max(self) -> float:
        if not self._samples:
            raise SimulationError(f"metric {self.name!r} has no samples")
        return max(self._samples)

    def stddev(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(
            math.fsum((x - mu) ** 2 for x in self._samples) / (len(self._samples) - 1)
        )

    def summary(self) -> Dict[str, float]:
        """Dict of the headline statistics for reports."""
        return {
            "count": float(self.count()),
            "mean": self.mean(),
            "median": self.median(),
            "p95": self.p95(),
            "p99": self.p99(),
            "min": self.min(),
            "max": self.max(),
        }

    def __repr__(self) -> str:
        return f"MetricSeries({self.name!r}, n={len(self._samples)})"


class AvailabilityTracker:
    """Counts what the resilience layer did: the raw SLA inputs.

    One tracker per client (or per subsystem); fleet scenarios merge
    them and hand the totals to :func:`sla_report`. ``attempts`` counts
    individual tries, ``successes``/``failures`` count their outcomes,
    ``retries`` the backoff sleeps between them; ``queued``/``drained``
    measure the degrade-gracefully path (work parked during an outage
    and delivered later).
    """

    __slots__ = (
        "attempts", "successes", "failures", "retries",
        "queued", "drained", "failure_kinds",
    )

    def __init__(self):
        self.attempts = 0
        self.successes = 0
        self.failures = 0
        self.retries = 0
        self.queued = 0
        self.drained = 0
        self.failure_kinds: Dict[str, int] = {}

    def record_attempt(self) -> None:
        self.attempts += 1

    def record_success(self) -> None:
        self.successes += 1

    def record_failure(self, kind: str = "error") -> None:
        self.failures += 1
        self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + 1

    def record_retry(self) -> None:
        self.retries += 1

    def record_queued(self) -> None:
        self.queued += 1

    def record_drained(self) -> None:
        self.drained += 1

    def merge(self, other: "AvailabilityTracker") -> "AvailabilityTracker":
        self.attempts += other.attempts
        self.successes += other.successes
        self.failures += other.failures
        self.retries += other.retries
        self.queued += other.queued
        self.drained += other.drained
        for kind, count in other.failure_kinds.items():
            self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + count
        return self

    def success_rate(self) -> float:
        """Fraction of *attempts* that succeeded (first-try availability)."""
        if not self.attempts:
            return 1.0
        return self.successes / self.attempts

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempts": self.attempts,
            "successes": self.successes,
            "failures": self.failures,
            "retries": self.retries,
            "queued": self.queued,
            "drained": self.drained,
            "success_rate": round(self.success_rate(), 6),
            "failure_kinds": dict(sorted(self.failure_kinds.items())),
        }

    def __repr__(self) -> str:
        return (
            f"AvailabilityTracker(attempts={self.attempts}, "
            f"successes={self.successes}, retries={self.retries})"
        )


def sla_report(
    tracker: AvailabilityTracker,
    delivered: int,
    expected: int,
    latency_ms: Optional[MetricSeries] = None,
    breaker_trips: int = 0,
    injected: Optional[Dict[str, int]] = None,
    downtime_micros: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """The availability summary a chaos run reports (claim 3, measured).

    ``delivered``/``expected`` define *eventual* delivery — what the
    user observes after retries and outbox draining — while the
    tracker's ``success_rate`` is the raw per-attempt availability the
    platform offered. ``downtime_micros`` attributes scheduled outage
    time per target (from :meth:`FaultInjector.downtime_in`).
    """
    report: Dict[str, object] = {
        "expected": expected,
        "delivered": delivered,
        "eventual_delivery_rate": round(delivered / expected, 6) if expected else 1.0,
        "attempt_success_rate": round(tracker.success_rate(), 6),
        "retries": tracker.retries,
        "failures": tracker.failures,
        "failure_kinds": dict(sorted(tracker.failure_kinds.items())),
        "queued": tracker.queued,
        "drained": tracker.drained,
        "breaker_trips": breaker_trips,
        "injected_faults": dict(sorted((injected or {}).items())),
        "downtime_micros": dict(sorted((downtime_micros or {}).items())),
    }
    if latency_ms is not None and len(latency_ms):
        report["latency_ms"] = {
            "median": round(latency_ms.median(), 3),
            "p99": round(latency_ms.p99(), 3),
            "max": round(latency_ms.max(), 3),
        }
    else:
        report["latency_ms"] = None
    return report


class MetricRegistry:
    """Named home for every metric series in a simulation run."""

    def __init__(self):
        self._series: Dict[str, MetricSeries] = {}

    def series(self, name: str, unit: str = "") -> MetricSeries:
        """Get or create the series called ``name``."""
        if name not in self._series:
            self._series[name] = MetricSeries(name, unit)
        return self._series[name]

    def record(self, name: str, value: float, unit: str = "") -> None:
        self.series(name, unit).record(value)

    def get(self, name: str) -> Optional[MetricSeries]:
        return self._series.get(name)

    def names(self) -> List[str]:
        return sorted(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __iter__(self):
        return iter(self._series.values())
