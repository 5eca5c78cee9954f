"""Fault injection for availability experiments — the chaos engine.

§3.1 argues DIY inherits the availability of the serverless platform,
whereas the §5 strawman VM needs manual failover. To make that claim
*measurable* rather than assumed, this module injects faults at every
simulated service's API boundary:

- **Outages** (`kind="outage"`): a region or instance is hard-down for a
  window; serverless invocations fail over, an unreplicated VM refuses.
- **Error injection** (`kind="error"`): each request to the target fails
  with probability ``rate`` during the window, raising one of the
  existing cloud errors (throttled / region-unavailable / timeout) with
  a ``retryable`` flag for the resilience layer.
- **Latency spikes** (`kind="latency"`): affected requests pay
  ``extra_micros`` of additional virtual latency.
- **Throttle storms** (`kind="throttle"`): every request in the window
  is rejected with :class:`~repro.errors.ThrottledError`, carrying a
  ``retry_after_ms`` hint that backoff can honor.
- **Brown-outs**: an error fault targeting a *region*, so every service
  hooked to that region degrades partially (the classic partial-failure
  mode Baldini et al. name as an open serverless problem).

All probabilistic draws come from a :class:`~repro.sim.rng.SeededRng`
stream, and nothing is drawn unless a probabilistic fault is active, so
a run with no faults scheduled is byte-identical to one with no chaos
engine at all.

Windows are half-open ``[start, start + duration)`` everywhere: an
event landing exactly at ``start + duration`` is *after* the fault, and
overlapping windows are merged before downtime is summed so no
microsecond is counted twice.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    FunctionTimeout,
    RegionUnavailable,
    ThrottledError,
)
from repro.obs.trace import annotate
from repro.sim.clock import SimClock
from repro.sim.rng import SeededRng

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultHook", "FaultInjector"]

FAULT_KINDS = ("outage", "error", "latency", "throttle")

# Injectable errors, by FaultSpec.error name. All reuse the existing
# taxonomy so callers need no chaos-specific except clauses.
_ERROR_CLASSES = {
    "throttled": ThrottledError,
    "region_unavailable": RegionUnavailable,
    "timeout": FunctionTimeout,
}


class FaultSpec:
    """One planned fault against ``target`` during [start, end) virtual micros.

    ``target`` is a region name ("us-west-2"), a service name ("s3"),
    or an instance id. ``kind`` picks the failure mode (see module
    docs); ``rate`` is the per-request probability of being affected
    (1.0 = every request).
    """

    __slots__ = (
        "target", "start", "end", "kind", "rate", "error",
        "extra_micros", "retry_after_ms", "retryable",
    )

    def __init__(
        self,
        target: str,
        start: int,
        end: int,
        kind: str = "outage",
        rate: float = 1.0,
        error: str = "region_unavailable",
        extra_micros: int = 0,
        retry_after_ms: Optional[int] = None,
        retryable: bool = True,
    ):
        if end <= start:
            raise ConfigurationError("fault window must have positive length")
        if kind not in FAULT_KINDS:
            raise ConfigurationError(f"unknown fault kind {kind!r}; pick one of {FAULT_KINDS}")
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError(f"fault rate must be in (0, 1], got {rate}")
        if error not in _ERROR_CLASSES:
            raise ConfigurationError(
                f"unknown injected error {error!r}; pick one of {sorted(_ERROR_CLASSES)}"
            )
        if extra_micros < 0:
            raise ConfigurationError("latency spike cannot be negative")
        self.target = target
        self.start = start
        self.end = end
        self.kind = kind
        self.rate = rate
        self.error = error
        self.extra_micros = extra_micros
        self.retry_after_ms = retry_after_ms
        self.retryable = retryable

    def duration(self) -> int:
        return self.end - self.start

    @property
    def probabilistic(self) -> bool:
        return self.rate < 1.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultSpec):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in FaultSpec.__slots__
        )

    def __lt__(self, other: "FaultSpec") -> bool:
        # Ordering by window start keeps the per-target index sorted.
        return (self.start, self.end) < (other.start, other.end)

    def __repr__(self) -> str:
        return (
            f"FaultSpec({self.target!r}, {self.start}, {self.end}, "
            f"kind={self.kind!r}, rate={self.rate})"
        )


class FaultHook:
    """A bound fault check for one service: call it at the API boundary.

    Checks the service's own target and (when bound) its region, so a
    region brown-out degrades every service hooked to that region.
    """

    __slots__ = ("_injector", "service", "region")

    def __init__(self, injector: "FaultInjector", service: str, region: Optional[str] = None):
        self._injector = injector
        self.service = service
        self.region = region

    def __call__(self) -> None:
        self._injector.check(self.service, self.region)

    def __repr__(self) -> str:
        return f"FaultHook(service={self.service!r}, region={self.region!r})"


class FaultInjector:
    """Registry of faults, queried by cloud services before serving.

    Faults are indexed per target and kept sorted by window start, so
    activity checks bisect to the candidate prefix instead of scanning
    every fault ever scheduled for the run.
    """

    def __init__(self, clock: SimClock, rng: Optional[SeededRng] = None):
        self._clock = clock
        self._rng = rng
        self._faults: Dict[str, List[FaultSpec]] = {}
        self._starts: Dict[str, List[int]] = {}
        self._max_end: Dict[str, int] = {}
        self._health = None  # set by attach_metrics
        # Injected-fault accounting for the availability report:
        # "<target>:<kind>" → count of affected requests.
        self.injected: Dict[str, int] = {}

    def attach_metrics(self, plane) -> None:
        """Record every applied fault into the health plane.

        Injections land in their own ``fault.<target>`` window series —
        *not* the services' availability series — so a failed request is
        counted bad once at the request boundary (the gateway) and the
        injector's stream stays a separate evidence channel attributing
        the failure to its cause.
        """
        self._health = plane

    # -- scheduling ------------------------------------------------------

    def inject(self, fault: FaultSpec) -> None:
        if fault.probabilistic and self._rng is None:
            raise ConfigurationError(
                "probabilistic faults need a FaultInjector(rng=...) for deterministic draws"
            )
        specs = self._faults.setdefault(fault.target, [])
        starts = self._starts.setdefault(fault.target, [])
        at = bisect_right(starts, fault.start)
        specs.insert(at, fault)
        insort(starts, fault.start)
        previous = self._max_end.get(fault.target, 0)
        self._max_end[fault.target] = max(previous, fault.end)

    def schedule_outage(self, target: str, start: int, duration: int) -> FaultSpec:
        """A hard outage: ``is_down`` is True for the whole window."""
        fault = FaultSpec(target, start, start + duration)
        self.inject(fault)
        return fault

    def schedule_error_rate(
        self,
        target: str,
        start: int,
        duration: int,
        rate: float,
        error: str = "throttled",
        retryable: bool = True,
    ) -> FaultSpec:
        """Probabilistic error injection against a service or region."""
        fault = FaultSpec(
            target, start, start + duration, kind="error",
            rate=rate, error=error, retryable=retryable,
        )
        self.inject(fault)
        return fault

    def schedule_latency_spike(
        self, target: str, start: int, duration: int, extra_micros: int, rate: float = 1.0
    ) -> FaultSpec:
        """Affected requests pay ``extra_micros`` more virtual latency."""
        fault = FaultSpec(
            target, start, start + duration, kind="latency",
            rate=rate, extra_micros=extra_micros,
        )
        self.inject(fault)
        return fault

    def schedule_throttle_storm(
        self, target: str, start: int, duration: int, retry_after_ms: int = 1000
    ) -> FaultSpec:
        """Every request in the window is throttled, with a retry hint."""
        fault = FaultSpec(
            target, start, start + duration, kind="throttle",
            error="throttled", retry_after_ms=retry_after_ms,
        )
        self.inject(fault)
        return fault

    def schedule_brownout(
        self, region: str, start: int, duration: int, rate: float = 0.5
    ) -> FaultSpec:
        """A partial regional failure: requests fail at ``rate``."""
        fault = FaultSpec(
            region, start, start + duration, kind="error",
            rate=rate, error="region_unavailable",
        )
        self.inject(fault)
        return fault

    # -- queries ---------------------------------------------------------

    def _active(self, target: str, now: int) -> List[FaultSpec]:
        """Faults whose half-open window contains ``now``, by start order."""
        specs = self._faults.get(target)
        if not specs or now >= self._max_end.get(target, 0):
            return []
        # Only faults starting at or before `now` can be active.
        prefix = bisect_right(self._starts[target], now)
        return [fault for fault in specs[:prefix] if fault.end > now]

    def is_down(self, target: str) -> bool:
        """Is ``target`` hard-down (an outage fault) at the current time?"""
        return any(
            fault.kind == "outage" for fault in self._active(target, self._clock.now)
        )

    def outages_for(self, target: str) -> List[FaultSpec]:
        """Every outage scheduled for ``target``, ordered by window start."""
        return [fault for fault in self._faults.get(target, ()) if fault.kind == "outage"]

    def faults_for(self, target: str) -> List[FaultSpec]:
        """Every fault of any kind for ``target``, ordered by window start."""
        return list(self._faults.get(target, ()))

    def all_faults(self) -> List[FaultSpec]:
        """Every scheduled fault across all targets, in (start, target) order.

        This is the ground-truth schedule the SLO detection benchmark
        scores alerts against (:mod:`repro.obs.slo`).
        """
        faults = [
            fault for specs in self._faults.values() for fault in specs
        ]
        faults.sort(key=lambda f: (f.start, f.end, f.target, f.kind))
        return faults

    def downtime_in(self, target: str, start: int, end: int) -> int:
        """Total microseconds of outage for ``target`` within [start, end).

        Overlapping and adjacent windows are merged first, so a moment
        covered by two scheduled faults counts once.
        """
        merged_start: Optional[int] = None
        merged_end = 0
        total = 0
        # The index is sorted by window start, so one pass suffices.
        for fault in self._faults.get(target, ()):
            if fault.kind != "outage":
                continue
            lo = max(fault.start, start)
            hi = min(fault.end, end)
            if hi <= lo:
                continue
            if merged_start is None:
                merged_start, merged_end = lo, hi
            elif lo <= merged_end:
                merged_end = max(merged_end, hi)
            else:
                total += merged_end - merged_start
                merged_start, merged_end = lo, hi
        if merged_start is not None:
            total += merged_end - merged_start
        return total

    # -- the chaos check -------------------------------------------------

    def hook(self, service: str, region: Optional[str] = None) -> FaultHook:
        """A bound check for one service's API boundary (see provider.py)."""
        return FaultHook(self, service, region)

    def check(self, service: str, region: Optional[str] = None) -> None:
        """Apply any active fault for ``service`` (and its region).

        Raises the injected error, or advances the clock for latency
        spikes. Consumes RNG only when a probabilistic fault is active,
        so runs without chaos stay byte-identical.
        """
        now = self._clock.now
        for target in (service, region) if region is not None else (service,):
            for fault in self._active(target, now):
                self._apply(fault, target)

    def _apply(self, fault: FaultSpec, target: str) -> None:
        if fault.kind == "outage":
            # Hard outages are handled by is_down/failover, not the hook:
            # a georeplicated platform routes around them (§3.1).
            return
        if fault.probabilistic and self._rng.random() >= fault.rate:
            return
        self._count(target, fault.kind)
        annotate(f"injected {fault.kind} fault on {target}")
        if self._health is not None:
            self._health.counter(
                "faults.injected", target=target, kind=fault.kind
            ).inc()
            self._health.window(f"fault.{target}").observe(
                self._clock.now, fault.kind == "latency"
            )
        if fault.kind == "latency":
            self._clock.advance(fault.extra_micros)
            return
        error_class = _ERROR_CLASSES[fault.error]
        message = f"injected {fault.kind} fault on {target} at t={self._clock.now}"
        if error_class is ThrottledError:
            raise ThrottledError(
                message, retry_after_ms=fault.retry_after_ms, retryable=fault.retryable
            )
        raise error_class(message, retryable=fault.retryable)

    def _count(self, target: str, kind: str) -> None:
        key = f"{target}:{kind}"
        self.injected[key] = self.injected.get(key, 0) + 1

    def injected_total(self) -> int:
        return sum(self.injected.values())
