"""Deterministic metrics plane: counters, gauges, mergeable histograms.

Tracing (:mod:`repro.obs.trace`) explains *one* request; this module is
the fleet's health plane — the always-on aggregate view an operator
reads to learn that a deployment is degrading *right now* and which
cloud dependency is at fault. It follows the same discipline that made
tracing safe to leave enabled:

- **Pure observation.** Recording a metric reads ``clock.now`` and
  mutates plane-local state — it never advances the clock and never
  draws randomness, so runs with the plane attached bill and arrive
  byte-identically to runs without it. Every instrumented hot path
  costs one ``is None`` check when metrics are off.
- **Integer-exact, order-independent merges.** All accumulators are
  integers (request counts, microsecond sums, bucket counts), gauges
  merge by max ``(updated_at, value)``, and histograms add bucket
  vectors — so merging shard-local planes is associative and
  commutative, and a multi-worker fleet run exposes the same bytes as
  a single-process one regardless of completion order.
- **Byte-stable exposition.** :meth:`MetricsPlane.to_jsonl` and
  :meth:`MetricsPlane.to_prometheus` sort every metric, label, and
  sample; two identical runs produce identical bytes, which is what
  lets BENCH digests pin the health plane the way they pin invoices.
  This module is the *only* place in the tree allowed to emit
  Prometheus exposition text (``# TYPE`` lines) — enforced by
  ``make lint``.

Histogram buckets are a half-octave log ladder — ``2^k`` and
``1.5 * 2^k`` — chosen because every bound is an exactly-representable
integer: no ``pow``/``log`` calls at observation time, no libm variance
across platforms. Bucketing uses the same inclusive-upper-bound
``bisect_left`` convention as :meth:`repro.sim.metrics.MetricSeries.histogram`,
and :meth:`Histogram.quantile_bounds` uses the same
``rank = (q / 100) * (n - 1)`` definition as
:func:`repro.sim.metrics.percentile`, so the SLA report's p50/p99 and
the health plane's histogram quantiles agree on the same inputs (a
regression test pins both).

This module deliberately imports nothing from the rest of the tree
except :mod:`repro.errors` and :mod:`repro._optional` (numpy for
:meth:`Histogram.observe_block`): services, fleet engines, and the
runtime kernel can all attach a plane without import cycles.
"""

from __future__ import annotations

import contextlib
import json
from bisect import bisect_left
from contextvars import ContextVar
from math import ceil, floor
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro._optional import numpy_or_none
from repro.errors import ConfigurationError, SimulationError

__all__ = [
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_WINDOW_MICROS",
    "log_bucket_bounds",
    "Counter",
    "Gauge",
    "Histogram",
    "WindowSeries",
    "WindowedHistogram",
    "MetricsPlane",
    "ambient_plane",
    "bind_ambient",
]

#: Default health-window width: one virtual second. Fine enough to see a
#: 500 ms outage, coarse enough that a minutes-long chaos run stays tiny.
DEFAULT_WINDOW_MICROS = 1_000_000


def log_bucket_bounds(lo_exp: int = 6, hi_exp: int = 28) -> Tuple[int, ...]:
    """Half-octave log bucket bounds: ``2^k`` and ``1.5 * 2^k``.

    Every bound is an exact integer (``1.5 * 2^k == 3 * 2^(k-1)``), so
    bucketing never touches floating point and the ladder is identical
    on every platform. The default span covers 64 µs .. ~268 s — the
    whole latency range the simulation produces, from a warm KMS call
    to a timed-out cold start.
    """
    if not 1 <= lo_exp < hi_exp:
        raise ConfigurationError(f"need 1 <= lo_exp < hi_exp, got {lo_exp}..{hi_exp}")
    bounds: List[int] = []
    for k in range(lo_exp, hi_exp):
        bounds.append(1 << k)        # 2^k
        bounds.append(3 << (k - 1))  # 1.5 * 2^k == 3 * 2^(k-1)
    bounds.sort()
    return tuple(bounds)


#: The shared latency ladder (microseconds). Every latency histogram in
#: the tree uses these bounds unless a caller overrides them, which is
#: what makes histograms mergeable across services, shards, and runs.
DEFAULT_LATENCY_BOUNDS: Tuple[int, ...] = log_bucket_bounds()


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise SimulationError(f"counter {self.name!r} cannot decrease")
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> Dict[str, object]:
        return {"type": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A point-in-time value; merges by the latest ``(updated_at, value)``.

    The max-by-timestamp merge (value breaks exact ties) is associative
    and commutative, so shard merge order cannot change the exposition.
    """

    __slots__ = ("name", "labels", "value", "updated_at")
    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0
        self.updated_at: int = -1

    def set(self, value, at: int) -> None:
        if (at, value) >= (self.updated_at, self.value):
            self.value = value
            self.updated_at = at

    def merge(self, other: "Gauge") -> None:
        self.set(other.value, other.updated_at)

    def as_dict(self) -> Dict[str, object]:
        return {"type": self.kind, "name": self.name, "labels": dict(self.labels),
                "value": self.value, "updated_at": self.updated_at}


class Histogram:
    """A log-bucketed distribution with integer-exact mergeable state.

    A sample lands in the first bucket whose bound is >= the sample
    (``bisect_left`` — the same inclusive-upper convention as
    :meth:`repro.sim.metrics.MetricSeries.histogram`); samples above the
    last bound land in the overflow bucket. ``total`` stays an exact
    integer for integral observations, so merged sums never depend on
    addition order.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "total",
                 "vmin", "vmax", "_bounds_arr")
    kind = "histogram"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = (),
                 bounds: Optional[Sequence[int]] = None):
        chosen = DEFAULT_LATENCY_BOUNDS if bounds is None else tuple(bounds)
        if list(chosen) != sorted(set(chosen)):
            raise ConfigurationError("histogram bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = chosen
        self.counts = [0] * (len(chosen) + 1)  # last = overflow
        self.count = 0
        self.total = 0
        self.vmin: Optional[int] = None
        self.vmax: Optional[int] = None
        self._bounds_arr = None  # lazy numpy cache; never pickled as-is

    def __getstate__(self):
        return (self.name, self.labels, self.bounds, self.counts,
                self.count, self.total, self.vmin, self.vmax)

    def __setstate__(self, state) -> None:
        (self.name, self.labels, self.bounds, self.counts,
         self.count, self.total, self.vmin, self.vmax) = state
        self._bounds_arr = None

    def observe(self, value) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    def observe_block(self, values) -> None:
        """Vectorized :meth:`observe` for a block of samples.

        The numpy path (``searchsorted`` side="left" + ``bincount``)
        computes the exact bucket indices the scalar ``bisect_left``
        path does, so engines mixing paths stay byte-identical.
        """
        np = numpy_or_none()
        if np is not None and isinstance(values, np.ndarray):
            if values.size == 0:
                return
            if self._bounds_arr is None:
                self._bounds_arr = np.asarray(self.bounds, dtype=np.int64)
            idx = np.searchsorted(self._bounds_arr, values, side="left")
            block = np.bincount(idx, minlength=len(self.counts))
            for i, n in enumerate(block.tolist()):
                if n:
                    self.counts[i] += n
            self.count += int(values.size)
            self.total += int(values.sum())
            lo = int(values.min())
            hi = int(values.max())
        else:
            if not values:
                return
            for value in values:
                self.counts[bisect_left(self.bounds, value)] += 1
            self.count += len(values)
            self.total += sum(values)
            lo = min(values)
            hi = max(values)
        if self.vmin is None or lo < self.vmin:
            self.vmin = lo
        if self.vmax is None or hi > self.vmax:
            self.vmax = hi

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise SimulationError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        if other.vmin is not None and (self.vmin is None or other.vmin < self.vmin):
            self.vmin = other.vmin
        if other.vmax is not None and (self.vmax is None or other.vmax > self.vmax):
            self.vmax = other.vmax

    def _bucket_of_nth(self, n: int) -> int:
        """Bucket index holding the n-th (0-based) sample in sorted order."""
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if n < seen:
                return i
        raise SimulationError(f"histogram {self.name!r}: rank {n} out of range")

    def quantile_bounds(self, q: float) -> Tuple[float, float]:
        """Inclusive ``[lower, upper]`` bracket for the q-th percentile.

        Uses the identical rank definition as
        :func:`repro.sim.metrics.percentile` — ``rank = (q/100)*(n-1)``
        with floor/ceil interpolation — so the exact sample percentile
        of the observed data always satisfies ``lower <= p <= upper``.
        """
        if not 0 <= q <= 100:
            raise SimulationError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            raise SimulationError(f"histogram {self.name!r} is empty")
        rank = (q / 100.0) * (self.count - 1)
        lo_bucket = self._bucket_of_nth(int(floor(rank)))
        hi_bucket = self._bucket_of_nth(int(ceil(rank)))
        lower = self.bounds[lo_bucket - 1] if lo_bucket > 0 else self.vmin
        upper = self.bounds[hi_bucket] if hi_bucket < len(self.bounds) else self.vmax
        return (max(lower, self.vmin), min(upper, self.vmax))

    def quantile(self, q: float) -> float:
        """Pessimistic point estimate: the bracket's upper bound."""
        return self.quantile_bounds(q)[1]

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": self.kind, "name": self.name, "labels": dict(self.labels),
            "bounds": list(self.bounds), "counts": list(self.counts),
            "count": self.count, "sum": self.total,
            "min": self.vmin, "max": self.vmax,
        }


class WindowSeries:
    """Good/bad counts per fixed-width virtual-time window.

    The SLI substrate for burn-rate alerting: each window is
    ``bucket_micros`` of virtual time holding two integers. Storage is
    sparse, so only windows that saw traffic exist, and merges add
    per-window integer pairs (order-independent).
    """

    __slots__ = ("name", "labels", "bucket_micros", "windows")
    kind = "window"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = (),
                 bucket_micros: int = DEFAULT_WINDOW_MICROS):
        if bucket_micros <= 0:
            raise ConfigurationError("window width must be positive")
        self.name = name
        self.labels = labels
        self.bucket_micros = bucket_micros
        self.windows: Dict[int, List[int]] = {}  # index -> [good, bad]

    def observe(self, at: int, ok: bool, n: int = 1) -> None:
        cell = self.windows.get(at // self.bucket_micros)
        if cell is None:
            cell = self.windows[at // self.bucket_micros] = [0, 0]
        cell[0 if ok else 1] += n

    def merge(self, other: "WindowSeries") -> None:
        if other.bucket_micros != self.bucket_micros:
            raise SimulationError(
                f"cannot merge window series {self.name!r}: widths differ"
            )
        for idx, (good, bad) in other.windows.items():
            cell = self.windows.get(idx)
            if cell is None:
                self.windows[idx] = [good, bad]
            else:
                cell[0] += good
                cell[1] += bad

    def indices(self) -> List[int]:
        return sorted(self.windows)

    def range_counts(self, lo_idx: int, hi_idx: int) -> Tuple[int, int]:
        """Total (good, bad) over window indices in ``[lo_idx, hi_idx)``."""
        good = bad = 0
        span = hi_idx - lo_idx
        if 0 < span < len(self.windows):
            for idx in range(lo_idx, hi_idx):
                cell = self.windows.get(idx)
                if cell is not None:
                    good += cell[0]
                    bad += cell[1]
        else:
            for idx, cell in self.windows.items():
                if lo_idx <= idx < hi_idx:
                    good += cell[0]
                    bad += cell[1]
        return good, bad

    def totals(self) -> Tuple[int, int]:
        good = bad = 0
        for cell in self.windows.values():
            good += cell[0]
            bad += cell[1]
        return good, bad

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": self.kind, "name": self.name, "labels": dict(self.labels),
            "bucket_micros": self.bucket_micros,
            "windows": [[idx, cell[0], cell[1]] for idx, cell in sorted(self.windows.items())],
        }


class WindowedHistogram:
    """Latency bucket counts per virtual-time window.

    Powers windowed p99/threshold SLOs: for any time range, the bucket
    counts over that range reconstruct an exact :class:`Histogram`
    slice. Thresholds that sit exactly on a bucket bound classify
    slow-vs-fast with zero approximation (samples <= bound are below).
    """

    __slots__ = ("name", "labels", "bucket_micros", "bounds", "windows")
    kind = "windowed_histogram"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = (),
                 bucket_micros: int = DEFAULT_WINDOW_MICROS,
                 bounds: Optional[Sequence[int]] = None):
        if bucket_micros <= 0:
            raise ConfigurationError("window width must be positive")
        self.name = name
        self.labels = labels
        self.bucket_micros = bucket_micros
        self.bounds = DEFAULT_LATENCY_BOUNDS if bounds is None else tuple(bounds)
        # window index -> {bucket index -> count}; both sparse.
        self.windows: Dict[int, Dict[int, int]] = {}

    def observe(self, at: int, value) -> None:
        cell = self.windows.setdefault(at // self.bucket_micros, {})
        bucket = bisect_left(self.bounds, value)
        cell[bucket] = cell.get(bucket, 0) + 1

    def merge(self, other: "WindowedHistogram") -> None:
        if other.bucket_micros != self.bucket_micros or other.bounds != self.bounds:
            raise SimulationError(
                f"cannot merge windowed histogram {self.name!r}: shapes differ"
            )
        for idx, buckets in other.windows.items():
            cell = self.windows.setdefault(idx, {})
            for bucket, count in buckets.items():
                cell[bucket] = cell.get(bucket, 0) + count

    def indices(self) -> List[int]:
        return sorted(self.windows)

    def threshold_bucket(self, threshold: int) -> int:
        """The bucket index of ``threshold``; samples in later buckets exceed it.

        Exact when ``threshold`` is one of the bounds (the SLO layer
        snaps thresholds to the ladder for precisely this reason).
        """
        return bisect_left(self.bounds, threshold)

    def range_over_threshold(self, lo_idx: int, hi_idx: int,
                             threshold_bucket: int) -> Tuple[int, int]:
        """(total, over-threshold) sample counts for windows [lo_idx, hi_idx)."""
        total = over = 0
        for idx, buckets in self.windows.items():
            if lo_idx <= idx < hi_idx:
                for bucket, count in buckets.items():
                    total += count
                    if bucket > threshold_bucket:
                        over += count
        return total, over

    def as_dict(self) -> Dict[str, object]:
        return {
            "type": self.kind, "name": self.name, "labels": dict(self.labels),
            "bucket_micros": self.bucket_micros, "bounds": list(self.bounds),
            "windows": [
                [idx, [[b, n] for b, n in sorted(buckets.items())]]
                for idx, buckets in sorted(self.windows.items())
            ],
        }


_KINDS = ("counter", "gauge", "histogram", "window", "windowed_histogram")


class MetricsPlane:
    """A registry of metrics with order-independent merge and stable bytes.

    One plane per run (or per shard, merged afterward). Accessors are
    get-or-create keyed by ``(name, sorted labels)``; shapes (histogram
    bounds, window widths) are fixed at first creation and enforced on
    merge. Plain-data state throughout, so planes ride across process
    pools in :class:`~repro.sim.fold.ShardResult` untouched.
    """

    __slots__ = ("_metrics",)

    def __init__(self):
        # kind -> {(name, labels): metric}
        self._metrics: Dict[str, Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object]] = {
            kind: {} for kind in _KINDS
        }

    # -- accessors (get-or-create) --------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        table = self._metrics["counter"]
        metric = table.get(key)
        if metric is None:
            metric = table[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        table = self._metrics["gauge"]
        metric = table.get(key)
        if metric is None:
            metric = table[key] = Gauge(name, key[1])
        return metric

    def histogram(self, name: str, bounds: Optional[Sequence[int]] = None,
                  **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        table = self._metrics["histogram"]
        metric = table.get(key)
        if metric is None:
            metric = table[key] = Histogram(name, key[1], bounds=bounds)
        return metric

    def window(self, name: str, bucket_micros: int = DEFAULT_WINDOW_MICROS,
               **labels: str) -> WindowSeries:
        key = (name, _label_key(labels))
        table = self._metrics["window"]
        metric = table.get(key)
        if metric is None:
            metric = table[key] = WindowSeries(name, key[1], bucket_micros=bucket_micros)
        return metric

    def windowed_histogram(self, name: str,
                           bucket_micros: int = DEFAULT_WINDOW_MICROS,
                           bounds: Optional[Sequence[int]] = None,
                           **labels: str) -> WindowedHistogram:
        key = (name, _label_key(labels))
        table = self._metrics["windowed_histogram"]
        metric = table.get(key)
        if metric is None:
            metric = table[key] = WindowedHistogram(
                name, key[1], bucket_micros=bucket_micros, bounds=bounds
            )
        return metric

    # -- the one-call service-boundary hook -----------------------------

    def service_request(self, service: str, op: str, micros: int, at: int) -> None:
        """Record one successful service call: count, latency, window-good.

        The idiom every instrumented cloud service uses; failures are
        recorded by the fault injector (``fault.<target>`` windows) and
        by the gateway's request-level try/except, so a request is never
        double-counted as bad at two layers.
        """
        self.counter(f"{service}.requests", op=op).inc()
        self.histogram(f"{service}.latency_us").observe(micros)
        self.window(f"{service}.availability").observe(at, True)

    # -- merge -----------------------------------------------------------

    def merge(self, other: "MetricsPlane") -> "MetricsPlane":
        for kind in _KINDS:
            mine = self._metrics[kind]
            for key, metric in other._metrics[kind].items():
                held = mine.get(key)
                if held is None:
                    # Adopt a same-shape empty twin, then merge, so the
                    # result never aliases the other plane's objects.
                    if kind == "counter":
                        held = mine[key] = Counter(metric.name, metric.labels)
                    elif kind == "gauge":
                        held = mine[key] = Gauge(metric.name, metric.labels)
                    elif kind == "histogram":
                        held = mine[key] = Histogram(
                            metric.name, metric.labels, bounds=metric.bounds
                        )
                    elif kind == "window":
                        held = mine[key] = WindowSeries(
                            metric.name, metric.labels,
                            bucket_micros=metric.bucket_micros,
                        )
                    else:
                        held = mine[key] = WindowedHistogram(
                            metric.name, metric.labels,
                            bucket_micros=metric.bucket_micros, bounds=metric.bounds,
                        )
                held.merge(metric)
        return self

    # -- exposition ------------------------------------------------------

    def _sorted_metrics(self) -> Iterator[object]:
        for kind in _KINDS:
            for key in sorted(self._metrics[kind]):
                yield self._metrics[kind][key]

    def snapshot(self) -> List[Dict[str, object]]:
        """All metrics as plain dicts, deterministically ordered."""
        return [metric.as_dict() for metric in self._sorted_metrics()]

    def to_jsonl(self) -> str:
        """One canonical JSON object per metric; byte-stable."""
        lines = [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in self.snapshot()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_prometheus(self) -> str:
        """Prometheus text exposition; byte-stable.

        Window series export as good/bad counter totals and windowed
        histograms collapse to their all-time bucket counts — the
        per-window detail is JSONL-only (Prometheus has no native
        windowed type; a real deployment would scrape repeatedly).
        """
        out: List[str] = []
        typed: set = set()

        def type_line(family: str, kind: str) -> None:
            # One TYPE header per metric family: label-sets of the same
            # name sort adjacently, so a seen-set groups them correctly.
            if family not in typed:
                typed.add(family)
                out.append(f"# TYPE {family} {kind}")

        for metric in self._sorted_metrics():
            name = _prom_name(metric.name)
            labels = _prom_labels(metric.labels)
            if metric.kind == "counter":
                type_line(f"{name}_total", "counter")
                out.append(f"{name}_total{labels} {_prom_value(metric.value)}")
            elif metric.kind == "gauge":
                type_line(name, "gauge")
                out.append(f"{name}{labels} {_prom_value(metric.value)}")
            elif metric.kind == "histogram":
                type_line(name, "histogram")
                cumulative = 0
                for bound, count in zip(metric.bounds, metric.counts):
                    cumulative += count
                    out.append(
                        f"{name}_bucket{_prom_labels(metric.labels, ('le', str(bound)))}"
                        f" {cumulative}"
                    )
                cumulative += metric.counts[-1]
                out.append(
                    f"{name}_bucket{_prom_labels(metric.labels, ('le', '+Inf'))}"
                    f" {cumulative}"
                )
                out.append(f"{name}_sum{labels} {_prom_value(metric.total)}")
                out.append(f"{name}_count{labels} {metric.count}")
            elif metric.kind == "window":
                good, bad = metric.totals()
                type_line(f"{name}_good_total", "counter")
                out.append(f"{name}_good_total{labels} {good}")
                type_line(f"{name}_bad_total", "counter")
                out.append(f"{name}_bad_total{labels} {bad}")
            else:  # windowed_histogram: collapse to all-time bucket counts
                totals: Dict[int, int] = {}
                for buckets in metric.windows.values():
                    for bucket, count in buckets.items():
                        totals[bucket] = totals.get(bucket, 0) + count
                type_line(name, "histogram")
                cumulative = 0
                for i, bound in enumerate(metric.bounds):
                    cumulative += totals.get(i, 0)
                    out.append(
                        f"{name}_bucket{_prom_labels(metric.labels, ('le', str(bound)))}"
                        f" {cumulative}"
                    )
                cumulative += totals.get(len(metric.bounds), 0)
                out.append(
                    f"{name}_bucket{_prom_labels(metric.labels, ('le', '+Inf'))}"
                    f" {cumulative}"
                )
                out.append(f"{name}_count{labels} {cumulative}")
        return "\n".join(out) + ("\n" if out else "")


def _prom_name(name: str) -> str:
    return "diy_" + name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: Tuple[Tuple[str, str], ...],
                 extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    rendered = ",".join(f'{key}="{value}"' for key, value in sorted(pairs))
    return "{" + rendered + "}"


def _prom_value(value) -> str:
    if isinstance(value, bool):  # bools are ints; refuse the footgun
        raise SimulationError("metric values must be numeric")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# -- ambient plane (runtime-kernel seam) --------------------------------
#
# The Lambda platform binds its plane around handler execution so the
# runtime kernel — which never sees the provider — can record per-app
# request metrics. Mirrors the ambient-span pattern in obs.trace.

_AMBIENT: ContextVar[Optional[MetricsPlane]] = ContextVar(
    "repro_obs_metrics_plane", default=None
)


def ambient_plane() -> Optional[MetricsPlane]:
    """The plane bound around the current handler invocation, if any."""
    return _AMBIENT.get()


@contextlib.contextmanager
def bind_ambient(plane: Optional[MetricsPlane]):
    """Bind ``plane`` as the ambient health plane for the enclosed calls."""
    token = _AMBIENT.set(plane)
    try:
        yield plane
    finally:
        _AMBIENT.reset(token)
