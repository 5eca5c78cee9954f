"""The cost model: Tables 1 & 2 and the free-tier crossovers."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.baselines.vm_hosting import table1_estimate
from repro.core.costmodel import (
    CostModel,
    PAPER_WORKLOADS,
    ServerlessWorkload,
    VIDEO_WORKLOAD,
)
from repro.errors import ConfigurationError
from repro.units import ZERO, usd


@pytest.fixture
def model():
    return CostModel()


class TestTable2:
    """The headline reproduction: every row's printed dollars."""

    @pytest.mark.parametrize(
        "name,total",
        [
            ("group_chat", "0.14"),
            ("email", "0.26"),
            ("file_transfer", "0.14"),
            ("iot_controller", "0.12"),
        ],
    )
    def test_lambda_rows(self, model, name, total):
        estimate = model.estimate_serverless(PAPER_WORKLOADS[name])
        assert estimate.compute == ZERO  # all rows print $0.00 compute
        assert estimate.total.rounded(2) == usd(total)

    def test_video_row(self, model):
        estimate = model.estimate_vm(VIDEO_WORKLOAD)
        assert estimate.compute.rounded(2) == usd("0.01")
        assert estimate.storage_and_transfer.rounded(2) == usd("0.83")
        assert estimate.total.rounded(2) == usd("0.84")

    def test_table2_columns_match_paper(self):
        chat = PAPER_WORKLOADS["group_chat"]
        assert (chat.daily_requests, chat.compute_ms_per_request, chat.memory_mb) == (2000, 500, 128)
        email = PAPER_WORKLOADS["email"]
        assert (email.daily_requests, email.storage_gb) == (500, 5.0)
        xfer = PAPER_WORKLOADS["file_transfer"]
        assert (xfer.compute_ms_per_request, xfer.memory_mb) == (2000, 1024)


class TestTable1:
    def test_breakdown(self):
        estimate = table1_estimate()
        assert estimate.compute.rounded(2) == usd("4.32")
        assert estimate.storage.rounded(2) == usd("0.17")
        assert estimate.transfer.rounded(2) == usd("0.09")
        assert estimate.total.rounded(2) == usd("4.58")


class TestCrossovers:
    def test_email_compute_free_until_about_33000_per_day(self, model):
        """§6.1: "free until roughly 33,000 emails are sent or received daily"."""
        crossover = model.free_tier_crossover_daily_requests(PAPER_WORKLOADS["email"])
        assert 33_000 <= crossover <= 33_400

    def test_chat_prototype_free_beyond_25000_per_day(self, model):
        """§6.2: "over 25,000 messages per day without ... compute cost"."""
        prototype = dataclasses.replace(
            PAPER_WORKLOADS["group_chat"], compute_ms_per_request=200, memory_mb=448
        )
        assert model.lambda_compute_cost(prototype.scaled(25_000)) == ZERO

    def test_table2_chat_rate_is_free(self, model):
        """§6.1: "At 2000 messages ... per day, users can deploy ... for free"."""
        assert model.lambda_compute_cost(PAPER_WORKLOADS["group_chat"]) == ZERO

    def test_crossover_is_requests_bound_not_duration_bound(self, model):
        # At 500 ms / 128 MB the request free tier (1M) binds first.
        workload = PAPER_WORKLOADS["email"]
        crossover = model.free_tier_crossover_daily_requests(workload)
        assert crossover * 30 > 1_000_000
        assert (crossover - 1) * 30 <= 1_000_000


class TestFullAccounting:
    def test_full_accounting_exceeds_paper_accounting(self, model):
        for workload in PAPER_WORKLOADS.values():
            paper = model.estimate_serverless(workload, accounting="paper")
            full = model.estimate_serverless(workload, accounting="full")
            assert full.total > paper.total

    def test_kms_key_rental_dominates_ancillary(self, model):
        estimate = model.estimate_serverless(PAPER_WORKLOADS["iot_controller"], "full")
        assert estimate.ancillary >= usd("1.00")  # the $1/month CMK

    def test_unknown_accounting_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.estimate_serverless(PAPER_WORKLOADS["email"], accounting="wish")

    def test_unknown_accounting_rejected_for_vms_too(self, model):
        with pytest.raises(ConfigurationError, match="unknown accounting mode 'wish'"):
            model.estimate_vm(VIDEO_WORKLOAD, accounting="wish")


class TestValidation:
    def test_negative_requests_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerlessWorkload("x", -1, 100, 128, 1, 1)

    def test_zero_compute_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerlessWorkload("x", 1, 0, 128, 1, 1)


@given(requests=st.integers(0, 200_000))
def test_property_cost_monotone_in_requests(requests):
    model = CostModel()
    base = PAPER_WORKLOADS["group_chat"]
    lo = model.estimate_serverless(base.scaled(requests)).total
    hi = model.estimate_serverless(base.scaled(requests + 1000)).total
    assert hi >= lo


@given(storage=st.floats(0, 100, allow_nan=False))
def test_property_cost_monotone_in_storage(storage):
    model = CostModel()
    base = dataclasses.replace(PAPER_WORKLOADS["email"], storage_gb=storage)
    more = dataclasses.replace(PAPER_WORKLOADS["email"], storage_gb=storage + 1)
    assert model.estimate_serverless(more).total >= model.estimate_serverless(base).total
