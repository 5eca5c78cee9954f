"""Workload generation: realistic request arrival processes.

The cost analysis (§6.1) works from *average* daily request rates, but
real personal-service traffic is bursty and diurnal — quiet overnight,
peaks in the evening. :class:`DiurnalWorkload` generates Poisson
arrivals modulated by an hour-of-day profile, so experiments can drive
the deployed applications with realistic traffic and validate that the
cost model's flat-rate arithmetic still predicts the metered bill.

Two generation paths share one RNG-consumption order, so a given seed
produces the *identical* arrival stream through either:

* :meth:`DiurnalWorkload.arrivals` — the original per-event iterator,
  yielding one :class:`Arrival` dataclass per request; and
* :meth:`DiurnalWorkload.arrival_batches` — the batched per-hour path,
  yielding lists of integer timestamps with no per-event object
  allocation and all loop state held in locals.

:meth:`DiurnalWorkload.arrival_batches_vec`, the sharded fleet's path,
draws its own canonical stream by thinning and yields int64 ``ndarray``
chunks under numpy (lists of ints under the pure-Python fallback).

The per-hour rates are normalized once in ``__post_init__`` (the seed
implementation re-summed the 24-entry profile on every draw).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import SeededRng
from repro.units import MICROS_PER_HOUR

__all__ = ["HOURLY_PROFILE_PERSONAL", "DiurnalWorkload", "Arrival"]

# Relative activity by hour of day for a personal communication service:
# near-silent overnight, a morning bump, an evening peak. Normalized by
# the generator; the shape is what matters.
HOURLY_PROFILE_PERSONAL: Tuple[float, ...] = (
    0.2, 0.1, 0.1, 0.1, 0.1, 0.2,  # 00-05
    0.5, 1.0, 1.5, 1.2, 1.0, 1.0,  # 06-11
    1.3, 1.2, 1.0, 1.0, 1.1, 1.4,  # 12-17
    1.8, 2.0, 1.9, 1.5, 0.9, 0.4,  # 18-23
)


@dataclass(frozen=True)
class Arrival:
    """One generated request."""

    at_micros: int
    index: int


@dataclass
class DiurnalWorkload:
    """Poisson arrivals over virtual days, shaped by an hourly profile.

    ``daily_requests`` and ``profile`` are treated as fixed after
    construction: the normalized per-hour rates are precomputed once.
    """

    daily_requests: float
    rng: SeededRng = field(default_factory=lambda: SeededRng(0, "workload"))
    profile: Tuple[float, ...] = HOURLY_PROFILE_PERSONAL

    def __post_init__(self):
        if self.daily_requests < 0:
            raise ConfigurationError("daily request rate cannot be negative")
        if len(self.profile) != 24 or any(weight < 0 for weight in self.profile):
            raise ConfigurationError("profile needs 24 non-negative hourly weights")
        total_weight = sum(self.profile)
        self._total_weight = total_weight
        # Per-hour request rates, computed with the exact float-op order
        # the per-draw path used (daily * weight / total) so cached and
        # on-the-fly values are bit-identical.
        if total_weight == 0:
            self._rates: Tuple[float, ...] = (0.0,) * 24
        else:
            self._rates = tuple(
                self.daily_requests * weight / total_weight for weight in self.profile
            )
        self.generated_total = 0  # perf counter: arrivals produced over this workload's life

    def arrivals(self, days: float = 1.0, start_micros: int = 0) -> Iterator[Arrival]:
        """Generate arrivals over ``days`` virtual days.

        Within each hour, inter-arrival gaps are exponential at that
        hour's rate (a piecewise-homogeneous Poisson process).
        """
        index = 0
        for chunk in self.arrival_batches(days, start_micros):
            for at_micros in chunk:
                yield Arrival(at_micros, index)
                index += 1

    def arrival_times(self, days: float = 1.0, start_micros: int = 0) -> Iterator[int]:
        """Like :meth:`arrivals`, but yields bare integer timestamps."""
        for chunk in self.arrival_batches(days, start_micros):
            yield from chunk

    def arrival_batches(
        self, days: float = 1.0, start_micros: int = 0, chunk: int = 4096
    ) -> Iterator[List[int]]:
        """Generate arrival timestamps in chunks of up to ``chunk``.

        This is the throughput path: it allocates one list per chunk
        instead of one :class:`Arrival` per request, binds the RNG draw
        and the hourly-rate table to locals, and never touches ``self``
        inside the loop. RNG consumption order is identical to the
        per-event path, so a seed yields the same stream either way.
        """
        if chunk <= 0:
            raise ConfigurationError(f"chunk size must be positive, got {chunk}")
        end = start_micros + round(days * 24 * MICROS_PER_HOUR)
        now = start_micros
        rates = self._rates
        expovariate = self.rng.expovariate
        hour_micros = MICROS_PER_HOUR
        batch: List[int] = []
        append = batch.append
        while now < end:
            hour_index = now // hour_micros
            rate = rates[hour_index % 24]
            if rate <= 0:
                # Skip to the start of the next hour.
                now = (hour_index + 1) * hour_micros
                continue
            hour_end = (hour_index + 1) * hour_micros
            # Drain this hour: repeated exponential gaps at a fixed rate.
            while True:
                candidate = now + round(expovariate(rate) * hour_micros)
                if candidate >= hour_end:
                    # The next arrival falls past this hour; re-draw there.
                    now = hour_end
                    break
                now = candidate
                if now >= end:
                    self.generated_total += len(batch)
                    if batch:
                        yield batch
                    return
                append(now)
                if len(batch) >= chunk:
                    self.generated_total += len(batch)
                    yield batch
                    batch = []
                    append = batch.append
        self.generated_total += len(batch)
        if batch:
            yield batch

    def peak_hourly_rate(self) -> float:
        """The profile's peak requests/hour — the thinning envelope rate."""
        return max(self._rates)

    def acceptance_thresholds(self) -> Tuple[float, ...]:
        """Per-hour acceptance probabilities ``rate[h] / peak_rate``."""
        peak = self.peak_hourly_rate()
        if peak <= 0:
            return (0.0,) * 24
        return tuple(rate / peak for rate in self._rates)

    def arrival_batches_vec(
        self, days: float = 1.0, start_micros: int = 0, chunk: int = 4096
    ) -> Iterator[Sequence[int]]:
        """Vectorized arrivals via inhomogeneous-Poisson thinning.

        The fleet engine's generation path: candidate arrivals are drawn
        as one homogeneous exponential stream at the profile's *peak*
        hourly rate (bulk uniforms, table-sampled gaps), then each
        candidate is kept with probability ``rate(hour)/peak`` — the
        classic thinning construction, O(peak/mean) draws per accepted
        arrival with no per-hour stepping, which is what makes a
        year-long horizon affordable.

        Every chunk holds exactly ``chunk`` timestamps but the last,
        which is shorter. Under numpy a chunk is an int64 ``ndarray``
        that goes straight into the fold's array kernels; under the
        pure-Python fallback it is a list of ints.

        This path defines its **own canonical stream**: deterministic
        per seed, bitwise identical with or without numpy
        (``tests/sim/test_vec_fallback.py``), and invariant to how a
        fleet is sharded — but it is *not* the per-hour stream of
        :meth:`arrival_batches`, which stays bit-compatible with the
        seed-era goldens.
        """
        from repro.sim import vecmath

        if chunk <= 0:
            raise ConfigurationError(f"chunk size must be positive, got {chunk}")
        peak = self.peak_hourly_rate()
        end_micros = start_micros + round(days * 24 * MICROS_PER_HOUR)
        if peak <= 0 or days <= 0:
            return
        thresholds = self.acceptance_thresholds()
        horizon_hours = days * 24.0
        # Hour-of-day must be *absolute* virtual time, like the scalar
        # path's ``now // hour_micros``: a window starting at hour 6
        # thins against hours 6, 7, ... — not against the profile's
        # midnight. With start_micros == 0 the offset is +0.0, which
        # leaves the accepted stream (and the seed goldens) bit-identical.
        start_hours = start_micros / MICROS_PER_HOUR
        np = vecmath.numpy_or_none()
        now_hours = 0.0
        pending = np.empty(0, dtype=np.int64) if np is not None else []
        while True:
            remaining = horizon_hours - now_hours
            expected = peak * remaining
            block = int(expected + 8.0 * (expected + 1.0) ** 0.5 + 16.0)
            gaps = vecmath.exponential_gaps(self.rng.uniform_block(block))
            if np is not None:
                # A candidate at or past the horizon is cut whatever its
                # time, so clamping each gap to twice the horizon's reach
                # moves no kept arrival and no cut, and keeps gap / peak and
                # its running sum finite at a peak rate near the smallest
                # double (the floor keeps a subnormal reach from rounding).
                # ``gaps`` is this block's own array: both steps run in place.
                reach = max(2.0 * peak * horizon_hours, sys.float_info.min)
                np.minimum(gaps, reach, out=gaps)
                cumulative = np.cumsum(np.divide(gaps, peak, out=gaps))
                times = cumulative + now_hours
                cut = int(np.searchsorted(times, horizon_hours, side="left"))
                kept = times[:cut]
                accept = self.rng.uniform_block(cut)
                hours_of_day = (kept + start_hours).astype(np.int64) % 24
                mask = accept < np.asarray(thresholds)[hours_of_day]
                accepted = kept[mask]
                micros = (np.rint(accepted * MICROS_PER_HOUR).astype(np.int64)
                          + start_micros)
                fresh = micros[micros < end_micros]
                pending = np.concatenate((pending, fresh)) if len(pending) else fresh
                last_time = float(times[-1]) if block else now_hours
            else:
                kept = []
                csum = 0.0
                cut = len(gaps)
                for i, gap in enumerate(gaps):
                    csum = csum + gap / peak
                    t = csum + now_hours
                    if t >= horizon_hours:
                        cut = i
                        break
                    kept.append(t)
                accept = self.rng.uniform_block(cut)
                for t, u in zip(kept, accept):
                    if u < thresholds[int(t + start_hours) % 24]:
                        at = round(t * MICROS_PER_HOUR) + start_micros
                        if at < end_micros:
                            pending.append(at)
                last_time = csum + now_hours if block else now_hours
            # Slice the full chunks off by offset: one pass over pending,
            # whatever the chunk size.
            full = len(pending) - len(pending) % chunk
            for lo in range(0, full, chunk):
                self.generated_total += chunk
                yield pending[lo:lo + chunk]
            pending = pending[full:]
            if cut < block:
                break
            now_hours = last_time
        self.generated_total += len(pending)
        if len(pending):
            yield pending

    def arrival_list(self, days: float = 1.0, start_micros: int = 0) -> List[Arrival]:
        return list(self.arrivals(days, start_micros))
