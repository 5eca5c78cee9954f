"""The diurnal workload generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.sim.rng import SeededRng
from repro.sim.workload import DiurnalWorkload, HOURLY_PROFILE_PERSONAL
from repro.units import MICROS_PER_HOUR


def _workload(daily=2000, seed=0, profile=HOURLY_PROFILE_PERSONAL):
    return DiurnalWorkload(daily, SeededRng(seed, "wl"), profile)


class TestGeneration:
    def test_count_is_near_the_daily_rate(self):
        arrivals = _workload(2000).arrival_list(days=1.0)
        assert 1700 <= len(arrivals) <= 2300  # Poisson noise around 2000

    def test_arrivals_are_ordered_and_in_range(self):
        arrivals = _workload(500).arrival_list(days=1.0)
        times = [a.at_micros for a in arrivals]
        assert times == sorted(times)
        assert all(0 <= t < 24 * MICROS_PER_HOUR for t in times)

    def test_indices_are_sequential(self):
        arrivals = _workload(100).arrival_list(days=1.0)
        assert [a.index for a in arrivals] == list(range(len(arrivals)))

    def test_deterministic_given_seed(self):
        assert _workload(seed=3).arrival_list() == _workload(seed=3).arrival_list()

    def test_multiple_days_scale(self):
        one = len(_workload(500, seed=1).arrival_list(days=1.0))
        three = len(_workload(500, seed=1).arrival_list(days=3.0))
        assert 2.3 * one < three < 3.7 * one

    def test_zero_rate_generates_nothing(self):
        assert _workload(0).arrival_list(days=1.0) == []

    def test_start_offset(self):
        arrivals = _workload(200).arrival_list(days=0.5, start_micros=MICROS_PER_HOUR)
        assert all(a.at_micros >= MICROS_PER_HOUR for a in arrivals)


class TestDiurnalShape:
    def test_evening_peak_beats_overnight(self):
        arrivals = _workload(5000).arrival_list(days=1.0)
        overnight = sum(1 for a in arrivals if a.at_micros < 6 * MICROS_PER_HOUR)
        evening = sum(
            1 for a in arrivals
            if 18 * MICROS_PER_HOUR <= a.at_micros < 24 * MICROS_PER_HOUR
        )
        assert evening > 3 * overnight

    def test_flat_profile_is_roughly_uniform(self):
        arrivals = _workload(4800, profile=(1.0,) * 24).arrival_list(days=1.0)
        first_half = sum(1 for a in arrivals if a.at_micros < 12 * MICROS_PER_HOUR)
        assert 0.4 < first_half / len(arrivals) < 0.6

    def test_silent_hours_are_silent(self):
        profile = (0.0,) * 12 + (1.0,) * 12
        arrivals = _workload(1000, profile=profile).arrival_list(days=1.0)
        assert all(a.at_micros >= 12 * MICROS_PER_HOUR for a in arrivals)


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalWorkload(-1)

    def test_bad_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            DiurnalWorkload(10, profile=(1.0,) * 23)
        with pytest.raises(ConfigurationError):
            DiurnalWorkload(10, profile=(1.0,) * 23 + (-1.0,))


class TestVectorizedArrivals:
    """Edge cases of ``arrival_batches_vec`` (the fleet engine's path)."""

    def _collect(self, workload, **kwargs):
        out = []
        for chunk in workload.arrival_batches_vec(**kwargs):
            out.extend(chunk)
        return out

    def test_zero_rate_hours_stay_silent_with_start_offset(self):
        # Regression: thinning must classify hour-of-day in *absolute*
        # virtual time. A window starting at hour 6 over a profile that
        # is silent before noon may only fire in [12h, 18h) — the old
        # relative-time classification let overnight hours leak through.
        profile = (0.0,) * 12 + (1.0,) * 12
        out = self._collect(
            _workload(2400, profile=profile),
            days=0.5, start_micros=6 * MICROS_PER_HOUR,
        )
        assert out, "half a day at rate 2400 cannot be empty"
        assert all(12 * MICROS_PER_HOUR <= t < 18 * MICROS_PER_HOUR for t in out)

    def test_vec_hour_support_matches_scalar(self):
        # Vec and scalar are different canonical streams, but they must
        # agree on *which* hours of the day can fire for an offset start.
        profile = (0.0,) * 6 + (1.0,) * 12 + (0.0,) * 6
        start = 3 * MICROS_PER_HOUR
        vec = self._collect(_workload(4800, profile=profile), days=1.0,
                            start_micros=start)
        scalar = [a.at_micros for a in
                  _workload(4800, seed=1, profile=profile).arrival_list(
                      days=1.0, start_micros=start)]
        hour_of = lambda t: (t // MICROS_PER_HOUR) % 24
        assert {hour_of(t) for t in vec} == {hour_of(t) for t in scalar}
        assert {hour_of(t) for t in vec} <= set(range(6, 18))

    def test_days_under_one(self):
        out = self._collect(_workload(4800, profile=(1.0,) * 24), days=0.25)
        end = round(0.25 * 24 * MICROS_PER_HOUR)
        assert all(0 <= t < end for t in out)
        assert 900 <= len(out) <= 1500  # Poisson around 1200

    def test_zero_days_and_zero_rate_generate_nothing(self):
        assert self._collect(_workload(500), days=0.0) == []
        assert self._collect(_workload(0), days=2.0) == []
        assert self._collect(_workload(500, profile=(0.0,) * 24), days=2.0) == []

    def test_offset_stream_identical_without_numpy(self, monkeypatch):
        from repro import _optional

        def stream():
            return self._collect(
                _workload(900, seed=5, profile=(0.0,) * 6 + (1.0,) * 18),
                days=0.75, start_micros=5 * MICROS_PER_HOUR + 123_456,
            )

        with_numpy = stream()
        monkeypatch.setattr(_optional, "_FORCE_FALLBACK", True)
        assert stream() == with_numpy

    def test_zero_start_stream_is_unchanged_by_the_offset_term(self):
        # start_micros=0 adds +0.0 to the hour classification; the
        # stream must be bit-identical to the same draw sequence, and
        # stay sorted within the window.
        out = self._collect(_workload(1500, seed=7), days=2.0)
        again = self._collect(_workload(1500, seed=7), days=2.0)
        assert out == again == sorted(out)
        assert all(0 <= t < 2 * 24 * MICROS_PER_HOUR for t in out)


@settings(max_examples=20, deadline=None)
@given(daily=st.integers(0, 3000), seed=st.integers(0, 100))
def test_property_count_tracks_rate(daily, seed):
    arrivals = _workload(daily, seed=seed).arrival_list(days=1.0)
    # Within 5 standard deviations of the Poisson mean (or exactly 0).
    slack = 5 * max(daily, 1) ** 0.5
    assert abs(len(arrivals) - daily) <= slack + 5
