"""Chaos-resilience experiment: the chat fleet under sustained faults.

The full run (``-m chaos``, or ``make chaos``) drives several tenants'
chat workloads through the chaos engine — per-service error injection, a
hard regional outage, a brown-out, a throttle storm, and a latency
spike — and asserts the resilience layer holds the SLA: >= 99.9%
eventual delivery, zero client crashes, and a deterministic report.
This file only asserts: ``python -m repro chaos --out`` (``make
bench-chaos``) writes the tracked ``BENCH_chaos.json`` record from the
same :func:`~repro.sim.scale.run_chaos_fleet` at :data:`FULL_CONFIG`.

Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_chaos_resilience.py -m chaos -s

A quick unmarked variant runs whenever the benchmarks directory is
collected, so `pytest benchmarks` stays fast by default.
"""

from __future__ import annotations

import json

import pytest

from repro.sim.scale import ChaosConfig, run_chaos_fleet

FULL_CONFIG = ChaosConfig(tenants=4, messages=60, seed=2017)
QUICK_CONFIG = ChaosConfig(tenants=1, messages=18, seed=2017)


def _check(record: dict) -> None:
    fleet = record["fleet"]
    assert fleet["eventual_delivery_rate"] >= 0.999, (
        f"SLA breach: only {fleet['eventual_delivery_rate']:.4%} delivered; "
        f"undelivered per tenant: {[t['undelivered'] for t in record['per_tenant']]}"
    )
    assert sum(fleet["injected_faults"].values()) > 0, "chaos never fired"
    assert fleet["attempt_success_rate"] < 1.0, "faults left no mark on attempts"


@pytest.mark.chaos
def test_chaos_fleet_full():
    """The headline chaos run: several tenants, every fault kind."""
    record = run_chaos_fleet(FULL_CONFIG)
    _check(record)
    # Determinism at full scale: the whole record replays byte-identically.
    again = run_chaos_fleet(FULL_CONFIG)
    assert json.dumps(record, sort_keys=True) == json.dumps(again, sort_keys=True)
    # The control: the identical workload without chaos is loss-free.
    control = run_chaos_fleet(FULL_CONFIG, chaos=False)
    assert control["fleet"]["eventual_delivery_rate"] == 1.0
    assert control["fleet"]["retries"] == 0


def test_chaos_fleet_quick():
    """Small variant: same SLA assertions, bench-suite-friendly wall time."""
    record = run_chaos_fleet(QUICK_CONFIG)
    _check(record)
