"""Tier-1 smoke of the per-tenant fleet engine's result shape.

The host-time benchmark of the fleet paths lives in ``bench/``.
"""

from __future__ import annotations

import json

from repro.sim.scale import ScaleConfig, run_fleet


def test_fleet_result_shape():
    result = run_fleet(ScaleConfig(tenants=2, daily_requests=300.0, days=1.0, seed=3))
    assert result.arrivals == sum(result.per_tenant_arrivals)
    assert result.samples_drawn == result.arrivals * 3
    assert result.events_per_second > 0
    assert set(result.phases) == {"simulate", "invoice"}
    as_dict = result.as_dict()
    assert as_dict["arrivals"] == result.arrivals
    assert json.dumps(as_dict)  # JSON-ready


def test_expected_requests_helper():
    config = ScaleConfig(tenants=10, daily_requests=100.0, days=30.0)
    assert config.expected_requests() == 30_000
