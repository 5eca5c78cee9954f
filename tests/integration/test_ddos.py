"""§8.2: a DDoS flood bills the user unless throttled."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro import CloudProvider
from repro.apps.video import video_manifest
from repro.cloud.billing import UsageKind
from repro.cloud.lambda_ import FunctionConfig
from repro.core.deployment import Deployer
from repro.errors import ThrottledError
from repro.net.http import HttpRequest
from repro.units import ZERO, ms

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "sim"))
from test_plan_field import plans  # noqa: E402


def _flood(provider, name, requests, use_shield):
    """Offer `requests` at 1000/s from one source; return invocations served."""
    served = 0
    for _ in range(requests):
        try:
            if use_shield:
                provider.shield.admit("botnet-source")
            provider.lambda_.invoke(name, {})
            served += 1
        except ThrottledError:
            pass
        provider.clock.advance(ms(1))
    return served


class TestFloodCost:
    def test_unthrottled_flood_bills_every_request(self, provider):
        provider.lambda_.deploy(FunctionConfig("victim", lambda e, ctx: None))
        _flood(provider, "victim", 3000, use_shield=False)
        assert provider.meter.total(UsageKind.LAMBDA_REQUESTS) == 3000

    def test_shield_caps_the_damage(self, provider):
        provider.lambda_.deploy(FunctionConfig("victim", lambda e, ctx: None))
        served = _flood(provider, "victim", 3000, use_shield=True)
        billed = provider.meter.total(UsageKind.LAMBDA_REQUESTS)
        assert billed == served
        assert served < 600  # ~50/s admitted out of ~1000/s offered
        assert provider.shield.total_dropped() > 2000

    def test_per_function_throttle_as_fallback(self, provider):
        provider.lambda_.deploy(
            FunctionConfig("victim", lambda e, ctx: None), throttle_per_second=20
        )
        served = 0
        for _ in range(2000):
            try:
                provider.lambda_.invoke("victim", {})
                served += 1
            except ThrottledError:
                pass
            provider.clock.advance(ms(1))
        assert served < 300

    def test_legitimate_traffic_survives_shielded_flood(self, provider):
        provider.lambda_.deploy(FunctionConfig("svc", lambda e, ctx: "ok"))
        for _ in range(500):
            try:
                provider.shield.admit("attacker")
                provider.lambda_.invoke("svc", {})
            except ThrottledError:
                pass
            provider.clock.advance(ms(1))
        provider.shield.admit("alice")  # not throttled
        assert provider.lambda_.invoke("svc", {}).value == "ok"


@settings(max_examples=8, deadline=None)
@given(plan=plans)
def test_shield_bills_only_admitted_requests_at_every_plan(plan):
    """Denial of wallet (Marin et al.): whatever the plan, a flood the
    shield drops adds no Lambda request and no GB-second to the bill."""
    provider = CloudProvider(name="aws-sim", seed=1234, plan=plan)
    app = Deployer(provider).deploy(video_manifest(plan), owner="alice")
    request = HttpRequest("GET", f"/{app.instance_name}/signal/no-such-call")
    meter = provider.meter

    def billed():
        return (meter.total(UsageKind.LAMBDA_REQUESTS),
                meter.total(UsageKind.LAMBDA_GB_SECONDS))

    served = 0
    for _ in range(600):
        before = billed()
        try:
            provider.shield.admit("botnet-source")
        except ThrottledError:
            assert billed() == before
        else:
            assert provider.lambda_.invoke(app.function_names[0], request).value.status == 404
            assert billed()[0] == before[0] + 1
            served += 1
        provider.clock.advance(ms(1))
    assert meter.total(UsageKind.LAMBDA_REQUESTS) == served
    assert provider.shield.total_dropped() == 600 - served > 0
