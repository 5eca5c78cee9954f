"""Tracing-overhead benchmark: the observer must not perturb the observed.

The full run (``-m obs``) pushes ~100k requests through the batched
fleet engine twice — tracing off, then tracing on at a 1/64 head-sample
rate — asserts the bills and arrival counts are byte-identical, and
requires the traced run to stay within 10% of the untraced throughput.
This file only asserts: ``python -m repro bench-obs`` (``make bench-obs``)
writes the tracked ``BENCH_obs.json`` record from the same
:func:`~repro.sim.scale.run_obs_benchmark`.

Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py -m obs -s

A quick unmarked variant runs whenever the benchmarks directory is
collected, so `pytest benchmarks` stays fast by default.
"""

from __future__ import annotations

import pytest

from repro.sim.scale import ScaleConfig, run_obs_benchmark

FULL_CONFIG = ScaleConfig(tenants=12, daily_requests=1200.0, days=7.0, seed=2017)
QUICK_CONFIG = ScaleConfig(tenants=6, daily_requests=1000.0, days=3.0, seed=2017)


def _check(record: dict) -> None:
    assert record["digests"]["identical"], "tracing changed the bill"
    assert record["spans"]["sampled"] > 0, "head sampling retained nothing"
    critical = record["critical_path"]
    assert critical["traces"] == record["spans"]["retained"]


@pytest.mark.obs
def test_tracing_overhead_full():
    """The headline run: a fleet week traced at 1/64, <10% overhead.

    Wall-clock benchmarks on shared machines jitter; each attempt is
    already best-of-5 per mode, and a noisy attempt gets two retries
    before the budget counts as blown.
    """
    record = None
    for _ in range(3):
        record = run_obs_benchmark(FULL_CONFIG, sample_rate=1 / 64, repeats=5)
        _check(record)
        if record["within_budget"]:
            break
    assert record["within_budget"], (
        f"tracing overhead {record['overhead_pct']:.2f}% exceeds the 10% budget"
    )


def test_tracing_overhead_quick():
    """Small variant: determinism and span accounting only — at this
    wall time (~50 ms) timer jitter swamps the real overhead, so the
    10% budget is asserted by the full ``-m obs`` run."""
    record = run_obs_benchmark(QUICK_CONFIG, sample_rate=1 / 64)
    _check(record)
