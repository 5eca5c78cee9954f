"""SLOs, burn-rate alerting, and the chaos detection benchmark.

The paper's DIY operator is a non-expert who will never watch a
dashboard; the deployment must page them. This module closes that loop
on top of the health plane (:mod:`repro.obs.metrics`):

1. **Declarative SLOs** (:class:`SLOSpec`): availability ("99% of
   gateway requests succeed"), latency ("99% of requests finish under
   393 ms"), and eventual-delivery ("99.9% of chat messages eventually
   arrive"). Latency thresholds snap to the shared histogram ladder so
   slow-vs-fast classification from bucket counts is exact.
2. **Multi-window burn-rate rules** (:class:`BurnRateRule`), the
   Google-SRE-workbook alerting shape scaled to simulation time: a rule
   fires when the error rate over a *long* window and a *short* window
   both exceed ``factor`` times the budget ``1 - objective``. The long
   window resists one-off blips; the short window makes alerts clear
   quickly once the fault passes. Evaluation walks the plane's
   :class:`~repro.obs.metrics.WindowSeries` in virtual time — fully
   deterministic, no wall clock anywhere.
3. **The detection benchmark** (:func:`run_slo_benchmark`): replay
   chaos scenarios — outages, brownouts, error bursts, latency spikes,
   throttle storms scheduled through :class:`~repro.sim.faults.FaultInjector`
   exactly as the chaos fleet schedules them — against a live provider
   probed by a synthetic client, then score the alerts against the
   injected fault schedule as ground truth: precision (time-weighted:
   the fraction of alerted time that overlaps a real fault, with a
   decay grace period for burn windows draining), recall (the fraction
   of material fault windows that raised an alert), and time-to-detect
   per window. Background noise faults (rate < ``min_rate``) are the
   distractors an alerting rule must *not* page on.

Determinism: the probe workload draws from the provider's seeded RNG
streams and virtual clock only, so the whole benchmark — alerts,
TTDs, exposition bytes — is a pure function of (scenario, seed).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.obs.metrics import MetricsPlane
from repro.units import MICROS_PER_SECOND, ms, seconds

__all__ = [
    "SLOSpec",
    "BurnRateRule",
    "AlertSpan",
    "TruthWindow",
    "DEFAULT_BURN_RULES",
    "evaluate_slo",
    "fault_windows",
    "score_detection",
    "SLO_SCENARIOS",
    "run_slo_scenario",
    "run_slo_benchmark",
]

_SLO_KINDS = ("availability", "latency", "eventual_delivery")


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective over a health-plane series.

    ``series`` names the :class:`~repro.obs.metrics.WindowSeries`
    (availability) or :class:`~repro.obs.metrics.WindowedHistogram`
    (latency) the SLI is computed from. ``threshold_us`` (latency only)
    is snapped to the histogram ladder at evaluation time.
    """

    name: str
    kind: str
    objective: float
    series: str = ""
    threshold_us: int = 0

    def __post_init__(self):
        if self.kind not in _SLO_KINDS:
            raise ConfigurationError(
                f"unknown SLO kind {self.kind!r}; pick one of {_SLO_KINDS}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.kind == "latency" and self.threshold_us <= 0:
            raise ConfigurationError("latency SLOs need a positive threshold_us")
        if self.kind != "eventual_delivery" and not self.series:
            raise ConfigurationError(f"SLO {self.name!r} names no series")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "name": self.name, "kind": self.kind, "objective": self.objective,
        }
        if self.series:
            record["series"] = self.series
        if self.kind == "latency":
            record["threshold_us"] = self.threshold_us
        return record


@dataclass(frozen=True)
class BurnRateRule:
    """Alert when error rate exceeds ``factor * budget`` over both windows."""

    name: str
    long_micros: int
    short_micros: int
    factor: float

    def __post_init__(self):
        if self.short_micros <= 0 or self.long_micros < self.short_micros:
            raise ConfigurationError("need 0 < short_micros <= long_micros")
        if self.factor < 1.0:
            raise ConfigurationError("burn factor below 1 alerts inside budget")

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "long_micros": self.long_micros,
            "short_micros": self.short_micros, "factor": self.factor,
        }


#: Probe-scale analog of the SRE-workbook rule pair (1h/5m @14.4x,
#: 6h/30m @6x), shrunk to virtual seconds so a minutes-long scenario
#: exercises both: "fast" pages on hard outages within seconds, "slow"
#: catches sustained partial degradation a single blip can't trip.
DEFAULT_BURN_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule("fast", long_micros=seconds(8), short_micros=seconds(2), factor=15.0),
    BurnRateRule("slow", long_micros=seconds(32), short_micros=seconds(8), factor=4.0),
)


@dataclass(frozen=True)
class AlertSpan:
    """One contiguous interval during which a rule fired for an SLO."""

    slo: str
    kind: str
    rule: str
    start: int
    end: int

    def as_dict(self) -> Dict[str, object]:
        return {"slo": self.slo, "kind": self.kind, "rule": self.rule,
                "start": self.start, "end": self.end}


@dataclass(frozen=True)
class TruthWindow:
    """One injected fault window the alerting layer is expected to catch."""

    target: str
    kind: str
    start: int
    end: int

    def as_dict(self) -> Dict[str, object]:
        return {"target": self.target, "kind": self.kind,
                "start": self.start, "end": self.end}


# -- burn-rate evaluation ------------------------------------------------


def _sli_windows(plane: MetricsPlane, spec: SLOSpec) -> Tuple[int, Dict[int, Tuple[int, int]]]:
    """(window width, {index: (total, bad)}) for the spec's series."""
    if spec.kind == "availability":
        series = plane.window(spec.series)
        data = {
            idx: (cell[0] + cell[1], cell[1])
            for idx, cell in series.windows.items()
        }
        return series.bucket_micros, data
    if spec.kind == "latency":
        hist = plane.windowed_histogram(spec.series)
        # Snap the threshold onto the ladder (inclusive upper bound) so
        # "slow" is exactly "landed in a bucket above the threshold's".
        snapped = bisect_left(hist.bounds, spec.threshold_us)
        if snapped >= len(hist.bounds):
            raise ConfigurationError(
                f"SLO {spec.name!r}: threshold {spec.threshold_us}us is above "
                f"the histogram ladder"
            )
        data = {}
        for idx in hist.windows:
            total, over = hist.range_over_threshold(idx, idx + 1, snapped)
            data[idx] = (total, over)
        return hist.bucket_micros, data
    raise SimulationError(f"SLO kind {spec.kind!r} has no windowed SLI")


def evaluate_slo(
    plane: MetricsPlane,
    spec: SLOSpec,
    rules: Sequence[BurnRateRule] = DEFAULT_BURN_RULES,
) -> List[AlertSpan]:
    """Walk the series in virtual time and return every alert interval.

    A rule is evaluated once per window step, over the trailing long and
    short ranges ending at that step; it only starts evaluating once a
    full long window of history exists (no partial-window cold-start
    alerts). Consecutive firing steps merge into one :class:`AlertSpan`
    whose ``start`` is the moment the evaluator could first have paged
    (the end of the first firing window) and whose ``end`` is one step
    after the last firing evaluation — when the alert clears.
    """
    bucket, data = _sli_windows(plane, spec)
    if not data:
        return []
    lo = min(data)
    hi = max(data)
    # Dense prefix sums over [lo, hi] so each step is O(1) per rule.
    span = hi - lo + 1
    totals = [0] * (span + 1)
    bads = [0] * (span + 1)
    for i in range(span):
        cell = data.get(lo + i)
        totals[i + 1] = totals[i] + (cell[0] if cell else 0)
        bads[i + 1] = bads[i] + (cell[1] if cell else 0)

    alerts: List[AlertSpan] = []
    for rule in rules:
        long_b = max(1, rule.long_micros // bucket)
        short_b = max(1, rule.short_micros // bucket)
        threshold = rule.factor * spec.budget
        first_firing: Optional[int] = None
        last_firing: Optional[int] = None

        def flush(first: int, last: int) -> None:
            alerts.append(AlertSpan(
                slo=spec.name, kind=spec.kind, rule=rule.name,
                start=(first + 1) * bucket, end=(last + 2) * bucket,
            ))

        for idx in range(lo + long_b - 1, hi + 1):
            i = idx - lo + 1
            long_total = totals[i] - totals[max(0, i - long_b)]
            long_bad = bads[i] - bads[max(0, i - long_b)]
            short_total = totals[i] - totals[max(0, i - short_b)]
            short_bad = bads[i] - bads[max(0, i - short_b)]
            firing = (
                long_total > 0 and short_total > 0
                and long_bad / long_total >= threshold
                and short_bad / short_total >= threshold
            )
            if firing:
                if first_firing is None:
                    first_firing = idx
                last_firing = idx
            elif first_firing is not None:
                flush(first_firing, last_firing)
                first_firing = last_firing = None
        if first_firing is not None:
            flush(first_firing, last_firing)
    return sorted(alerts, key=lambda a: (a.start, a.end, a.slo, a.rule))


def evaluate_delivery(spec: SLOSpec, delivery_rate: float) -> Dict[str, object]:
    """Terminal compliance check for an eventual-delivery SLO.

    Delivery has no windowed SLI (a message in flight is neither good
    nor bad); compliance is judged on the end-of-run rate from the
    chaos fleet's SLA report.
    """
    if spec.kind != "eventual_delivery":
        raise ConfigurationError(f"SLO {spec.name!r} is not an eventual-delivery SLO")
    return {
        "slo": spec.name,
        "objective": spec.objective,
        "delivery_rate": delivery_rate,
        "compliant": delivery_rate >= spec.objective,
    }


# -- ground truth and scoring -------------------------------------------


def fault_windows(injector, min_rate: float = 0.25) -> List[TruthWindow]:
    """The injected fault schedule as detection ground truth.

    Faults with ``rate < min_rate`` are background noise — scheduled
    distractors an alerting layer should ride out, not page on — so
    they are excluded from the windows recall is measured against.
    """
    windows = [
        TruthWindow(fault.target, fault.kind, fault.start, fault.end)
        for fault in injector.all_faults()
        if fault.rate >= min_rate
    ]
    return sorted(windows, key=lambda w: (w.start, w.end, w.target))


def _matches(alert_kind: str, truth_kind: str) -> bool:
    """Latency faults are caught by latency SLOs; the rest by availability."""
    if truth_kind == "latency":
        return alert_kind == "latency"
    return alert_kind == "availability"


def _merge_intervals(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def score_detection(
    truth: Sequence[TruthWindow],
    alerts: Sequence[AlertSpan],
    grace_micros: int,
) -> Dict[str, object]:
    """Score alerts against the fault schedule.

    - **recall**: fraction of truth windows overlapped by a kind-matched
      alert within ``[start, end + grace)``. The grace period covers
      burn-window decay: a short fault's evidence lives in the trailing
      windows for up to the longest rule window after it ends.
    - **precision** (time-weighted): fraction of total alerted time that
      overlaps some grace-extended truth window of the matching kind.
      Time-weighting makes one spurious one-step blip cost what it
      should, instead of counting like a missed outage.
    - **ttd_micros** per window: first kind-matched alert start after
      the window opened (0 if an alert was already firing), or None.
    """
    windows: List[Dict[str, object]] = []
    detected = 0
    for window in truth:
        extended_end = window.end + grace_micros
        ttd: Optional[int] = None
        for alert in alerts:
            if not _matches(alert.kind, window.kind):
                continue
            if alert.end <= window.start or alert.start >= extended_end:
                continue
            candidate = max(0, alert.start - window.start)
            if ttd is None or candidate < ttd:
                ttd = candidate
        if ttd is not None:
            detected += 1
        windows.append({**window.as_dict(), "detected": ttd is not None,
                        "ttd_micros": ttd})
    recall = detected / len(truth) if truth else 1.0

    alerted = 0
    covered = 0
    for alert in alerts:
        alerted += alert.end - alert.start
        good_ranges = _merge_intervals([
            (w.start, w.end + grace_micros) for w in truth
            if _matches(alert.kind, w.kind)
        ])
        for lo, hi in good_ranges:
            overlap = min(alert.end, hi) - max(alert.start, lo)
            if overlap > 0:
                covered += overlap
    precision = covered / alerted if alerted else 1.0

    return {
        "precision": round(precision, 6),
        "recall": round(recall, 6),
        "detected": detected,
        "truth_windows": len(truth),
        "alert_spans": len(alerts),
        "alerted_micros": alerted,
        "windows": windows,
    }


# -- chaos probe scenarios ----------------------------------------------

#: Latency SLO threshold: 3 * 2^17 us = 393.216 ms, a ladder bound well
#: above the warm end-to-end path (~120 ms p99) and well below it plus
#: an injected spike.
_LATENCY_THRESHOLD_US = 3 << 17

_PROBE_SLOS: Tuple[SLOSpec, ...] = (
    SLOSpec("gateway-availability", "availability", objective=0.99,
            series="gateway.availability"),
    SLOSpec("gateway-p99-latency", "latency", objective=0.99,
            series="gateway.request_us", threshold_us=_LATENCY_THRESHOLD_US),
)

#: Eventual-delivery SLO judged on the chaos chat fleet's SLA report.
DELIVERY_SLO = SLOSpec("chat-eventual-delivery", "eventual_delivery", objective=0.999)


def _regional_storm(faults, region: str, start: int, horizon: int) -> None:
    """The chaos fleet's edge-failure mix: outage, brownout, throttle storm."""
    faults.schedule_error_rate("gateway", start, horizon, rate=0.001)
    faults.schedule_outage(region, start + horizon // 4, seconds(5))
    faults.schedule_brownout(region, start + horizon // 2, seconds(20), rate=0.6)
    faults.schedule_throttle_storm(
        "gateway", start + (3 * horizon) // 4, seconds(6), retry_after_ms=500
    )


def _backend_burn(faults, region: str, start: int, horizon: int) -> None:
    """Backend degradation: error burst, latency spike, late outage."""
    faults.schedule_error_rate("lambda", start, horizon, rate=0.001)
    faults.schedule_error_rate(
        "lambda", start + horizon // 5, seconds(15), rate=0.9, error="timeout"
    )
    faults.schedule_latency_spike(
        "lambda", start + horizon // 2, seconds(20), extra_micros=ms(400)
    )
    faults.schedule_outage(region, start + (4 * horizon) // 5, seconds(6))


SLO_SCENARIOS: Dict[str, Callable[..., None]] = {
    "regional-storm": _regional_storm,
    "backend-burn": _backend_burn,
}


def _probe_grace(rules: Sequence[BurnRateRule], bucket: int) -> int:
    return max(rule.long_micros for rule in rules) + 2 * bucket


def run_slo_scenario(
    name: str,
    seed: int = 2017,
    probes: int = 150,
    gap_micros: int = MICROS_PER_SECOND,
    rules: Sequence[BurnRateRule] = DEFAULT_BURN_RULES,
) -> Dict[str, object]:
    """Replay one chaos scenario against a probed deployment; score alerts.

    Stands up a real provider with the health plane attached, deploys a
    probe function behind the gateway, schedules the scenario's faults,
    then issues one synthetic probe per ``gap_micros`` of virtual time —
    the blackbox monitoring a DIY operator would actually run. Returns
    the full closed-loop record: SLOs, alerts, ground truth, scores.
    """
    try:
        schedule = SLO_SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown SLO scenario {name!r}; pick one of {sorted(SLO_SCENARIOS)}"
        ) from None
    if probes <= 0:
        raise ConfigurationError(f"probe count must be positive, got {probes}")

    from repro.cloud.lambda_.function import FunctionConfig
    from repro.cloud.provider import CloudProvider
    from repro.core.client import open_channel
    from repro.net.http import HttpRequest, HttpResponse

    provider = CloudProvider(name=f"slo-{name}", seed=seed)
    plane = provider.enable_metrics()
    provider.lambda_.deploy(FunctionConfig(
        "slo-probe", lambda event, ctx: HttpResponse(200, {}, b"ok"),
        timeout_ms=30_000,
    ))
    provider.gateway.add_route("/probe", "slo-probe")
    channel = open_channel(provider, "slo-prober")

    start = provider.clock.now
    horizon = probes * gap_micros
    schedule(provider.faults, provider.home_region.name, start, horizon)

    failures = 0
    request = HttpRequest("GET", "/probe")
    for i in range(probes):
        tick = start + i * gap_micros
        if provider.clock.now < tick:
            provider.clock.advance(tick - provider.clock.now)
        try:
            response = channel.request(request)
            if response.status >= 400:
                failures += 1
        except Exception:
            failures += 1

    alerts: List[AlertSpan] = []
    for spec in _PROBE_SLOS:
        alerts.extend(evaluate_slo(plane, spec, rules))
    truth = fault_windows(provider.faults)
    bucket = plane.window("gateway.availability").bucket_micros
    detection = score_detection(truth, alerts, _probe_grace(rules, bucket))
    exposition = plane.to_jsonl()

    return {
        "scenario": name,
        "seed": seed,
        "probes": probes,
        "gap_micros": gap_micros,
        "horizon_micros": horizon,
        "probe_failures": failures,
        "slos": [spec.as_dict() for spec in _PROBE_SLOS],
        "rules": [rule.as_dict() for rule in rules],
        "truth": [window.as_dict() for window in truth],
        "alerts": [alert.as_dict() for alert in alerts],
        "detection": detection,
        "injected": dict(sorted(provider.faults.injected.items())),
        "exposition_sha256": hashlib.sha256(exposition.encode()).hexdigest(),
        "_plane": plane,
    }


def run_slo_benchmark(
    seed: int = 2017,
    probes: int = 150,
    scenarios: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """The closed detection loop over every scenario, twice for determinism.

    Each scenario runs twice with the same seed; the health-plane
    exposition must hash identically (the run is virtual-time pure), and
    the per-scenario detection scores go into the benchmark record. A
    small chaos chat fleet supplies the eventual-delivery SLO check.
    ``python -m repro bench-slo`` writes the record unchanged to
    ``BENCH_slo.json``.
    """
    from repro.sim.scale import ChaosConfig, run_chaos_fleet

    names = sorted(SLO_SCENARIOS) if scenarios is None else list(scenarios)
    runs: List[Dict[str, object]] = []
    digests: Dict[str, object] = {}
    worst_precision = 1.0
    worst_recall = 1.0
    all_detected = True
    for name in names:
        record = run_slo_scenario(name, seed=seed, probes=probes)
        record.pop("_plane")
        rerun = run_slo_scenario(name, seed=seed, probes=probes)
        rerun.pop("_plane")
        if record["exposition_sha256"] != rerun["exposition_sha256"]:
            raise SimulationError(
                f"scenario {name!r} is not deterministic: exposition hash moved"
            )
        digests[name] = record["exposition_sha256"]
        detection = record["detection"]
        worst_precision = min(worst_precision, detection["precision"])
        worst_recall = min(worst_recall, detection["recall"])
        all_detected = all_detected and all(
            window["ttd_micros"] is not None for window in detection["windows"]
        )
        runs.append(record)

    fleet = run_chaos_fleet(ChaosConfig(tenants=1, messages=12, seed=seed))
    delivery = evaluate_delivery(
        DELIVERY_SLO, fleet["fleet"]["eventual_delivery_rate"]
    )

    return {
        "headline": (f"detected {sum(len(r['truth']) for r in runs)} injected fault "
                     f"windows across {len(runs)} scenarios at precision "
                     f"{worst_precision:.2f} / recall {worst_recall:.2f}, "
                     f"exposition byte-stable per scenario"),
        "bench": "slo_detection",
        "runs": runs,
        "digests": digests,
        "precision": worst_precision,
        "recall": worst_recall,
        "all_windows_detected": all_detected,
        "delivery_slo": delivery,
    }
