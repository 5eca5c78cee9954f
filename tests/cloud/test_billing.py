"""Metering, free tiers, invoices, and per-app attribution."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.cloud.billing import RATES, BillingMeter, Invoice, UsageKind, price_usage
from repro.cloud.pricing import EC2_HOURS_PER_MONTH, PRICES_2017, PriceBook
from repro.errors import BillingError
from repro.units import ZERO, usd


@pytest.fixture
def meter():
    return BillingMeter()


def _invoice(meter, free=True):
    return Invoice(meter, PRICES_2017, apply_free_tier=free)


class TestMeter:
    def test_usage_accumulates(self, meter):
        meter.record(UsageKind.LAMBDA_REQUESTS, 10)
        meter.record(UsageKind.LAMBDA_REQUESTS, 5)
        assert meter.total(UsageKind.LAMBDA_REQUESTS) == 15

    def test_details_tracked_separately(self, meter):
        meter.record(UsageKind.EC2_INSTANCE_SECONDS, 100, "t2.nano")
        meter.record(UsageKind.EC2_INSTANCE_SECONDS, 50, "t2.medium")
        assert meter.total(UsageKind.EC2_INSTANCE_SECONDS, "t2.nano") == 100
        assert meter.total_all_details(UsageKind.EC2_INSTANCE_SECONDS) == 150

    def test_negative_usage_rejected(self, meter):
        with pytest.raises(BillingError):
            meter.record(UsageKind.S3_PUT, -1)

    @pytest.mark.parametrize("record", [
        lambda meter: meter.record(UsageKind.S3_PUT, 5000, "bucket-a"),
        lambda meter: meter.record_batch(UsageKind.S3_PUT, 5000.0, 5000, "bucket-a"),
    ], ids=["record", "record_batch"])
    def test_detail_on_a_non_ec2_kind_rejected(self, meter, record):
        # The invoice prices only EC2 usage per detail; anything else
        # recorded under a detail would show in the snapshot but bill $0.
        with pytest.raises(BillingError, match="takes no detail"):
            record(meter)
        assert meter.snapshot() == {}

    def test_snapshot_keys(self, meter):
        meter.record(UsageKind.S3_PUT, 2)
        meter.record(UsageKind.EC2_INSTANCE_SECONDS, 60, "t2.nano")
        snapshot = meter.snapshot()
        assert snapshot["s3.put_requests"] == 2
        assert snapshot["ec2.instance_seconds[t2.nano]"] == 60


class TestAttribution:
    def test_attributed_usage_lands_in_sub_meter(self, meter):
        with meter.attributed("chat-alice"):
            meter.record(UsageKind.LAMBDA_REQUESTS, 3)
        meter.record(UsageKind.LAMBDA_REQUESTS, 2)
        assert meter.total(UsageKind.LAMBDA_REQUESTS) == 5
        assert meter.tagged("chat-alice").total(UsageKind.LAMBDA_REQUESTS) == 3

    def test_nested_attribution_inner_wins(self, meter):
        with meter.attributed("outer"):
            with meter.attributed("inner"):
                meter.record(UsageKind.S3_PUT, 1)
        assert meter.tagged("inner").total(UsageKind.S3_PUT) == 1
        assert meter.tagged("outer").total(UsageKind.S3_PUT) == 0

    def test_tags_listing(self, meter):
        with meter.attributed("b"):
            meter.record(UsageKind.S3_PUT, 1)
        with meter.attributed("a"):
            meter.record(UsageKind.S3_PUT, 1)
        assert meter.tags() == ["a", "b"]


class TestFreeTier:
    def test_lambda_under_free_tier_is_zero(self, meter):
        meter.record(UsageKind.LAMBDA_REQUESTS, 60_000)
        meter.record(UsageKind.LAMBDA_GB_SECONDS, 3_750)
        assert _invoice(meter).total() == ZERO

    def test_lambda_over_free_tier_bills_excess_only(self, meter):
        meter.record(UsageKind.LAMBDA_REQUESTS, 1_500_000)
        invoice = _invoice(meter)
        assert invoice.total() == usd("0.20") * 500_000 / 1_000_000

    def test_free_tier_disabled(self, meter):
        meter.record(UsageKind.LAMBDA_REQUESTS, 1_000_000)
        assert _invoice(meter, free=False).total() == usd("0.20")

    def test_transfer_first_gb_free(self, meter):
        meter.record(UsageKind.TRANSFER_OUT_GB, 2.0)
        assert _invoice(meter).total() == usd("0.09")

    def test_never_negative(self, meter):
        meter.record(UsageKind.SQS_REQUESTS, 10)
        assert _invoice(meter).total() >= ZERO


class TestInvoice:
    def test_table1_shape(self, meter):
        """EC2 t2.nano 24/7 + 5 GB S3 + 2 GB transfer ≈ Table 1."""
        meter.record(UsageKind.EC2_INSTANCE_SECONDS, 732 * 3600, "t2.nano")
        meter.record(UsageKind.S3_STORAGE_GB_MONTH, 5.0)
        meter.record(UsageKind.S3_PUT, 10_000)
        meter.record(UsageKind.TRANSFER_OUT_GB, 2.0)
        invoice = _invoice(meter)
        assert invoice.compute_total().rounded(2) == usd("4.32")
        assert invoice.transfer_total().rounded(2) == usd("0.09")
        assert invoice.storage_total().rounded(2) == usd("0.17")

    def test_by_service(self, meter):
        meter.record(UsageKind.KMS_KEY_MONTHS, 1)
        meter.record(UsageKind.SQS_REQUESTS, 2_000_000)
        by_service = _invoice(meter).by_service()
        assert by_service["kms"] == usd("1.00")
        assert by_service["sqs"] == usd("0.40")

    def test_total_equals_sum_of_lines(self, meter):
        meter.record(UsageKind.LAMBDA_REQUESTS, 2_000_000)
        meter.record(UsageKind.S3_STORAGE_GB_MONTH, 3.0)
        meter.record(UsageKind.TRANSFER_OUT_GB, 4.0)
        invoice = _invoice(meter)
        total = ZERO
        for line in invoice.lines:
            total = total + line.amount
        assert invoice.total() == total

    def test_ec2_without_detail_rejected(self, meter):
        meter.record(UsageKind.EC2_INSTANCE_SECONDS, 10)
        with pytest.raises(BillingError):
            _invoice(meter)

    def test_render_contains_total(self, meter):
        meter.record(UsageKind.KMS_KEY_MONTHS, 1)
        assert "TOTAL" in _invoice(meter).render()

    def test_monthly_instance_helper(self):
        seconds = EC2_HOURS_PER_MONTH * 3600
        cost = price_usage(UsageKind.EC2_INSTANCE_SECONDS, seconds, PRICES_2017, "t2.nano")
        assert cost.rounded(2) == usd("4.32")


@given(requests=st.integers(0, 10_000_000))
def test_property_bill_is_monotone_in_requests(requests):
    lo, hi = BillingMeter(), BillingMeter()
    lo.record(UsageKind.LAMBDA_REQUESTS, requests)
    hi.record(UsageKind.LAMBDA_REQUESTS, requests + 100_000)
    assert _invoice(hi).total() >= _invoice(lo).total()


@given(gb=st.floats(0, 1000, allow_nan=False))
def test_property_transfer_never_negative(gb):
    meter = BillingMeter()
    meter.record(UsageKind.TRANSFER_OUT_GB, gb)
    assert _invoice(meter).total() >= ZERO


_PRICE = st.decimals(min_value=0, max_value=10, places=6, allow_nan=False, allow_infinity=False)


@st.composite
def _what_if_books(draw):
    """A price book with every rate, allowance and instance price redrawn."""
    fields = {rate.price: usd(draw(_PRICE)) for rate in RATES
              if rate.kind is not UsageKind.EC2_INSTANCE_SECONDS}
    fields.update({rate.allowance: draw(st.integers(0, 2_000_000))
                   for rate in RATES if rate.allowance is not None})
    fields["ec2_instances"] = {
        name: replace(instance, hourly=usd(draw(_PRICE)))
        for name, instance in PRICES_2017.ec2_instances.items()
    }
    return PriceBook(**fields)


@given(
    usage=st.fixed_dictionaries({
        kind: st.floats(0, 1e7, allow_nan=False, allow_infinity=False) for kind in UsageKind
    }),
    instance=st.sampled_from(sorted(PRICES_2017.ec2_instances)),
    what_if=_what_if_books(),
)
def test_property_invoice_lines_follow_the_rate_table(usage, instance, what_if):
    """The invoice and the marginal join price every kind by one rule."""
    meter = BillingMeter()
    for kind, quantity in usage.items():
        meter.record(kind, quantity, instance if kind is UsageKind.EC2_INSTANCE_SECONDS else None)
    rate_of_line = {(rate.service, rate.description.format(detail=instance)): rate
                    for rate in RATES}
    for book in (PRICES_2017, what_if):
        marginal = Invoice(meter, book, apply_free_tier=False)
        expected = ZERO
        for rate in RATES:
            expected = expected + price_usage(rate.kind, usage[rate.kind], book, instance)
        assert marginal.total() == expected
        free = Invoice(meter, book, apply_free_tier=True)
        for invoice in (marginal, free):
            for line in invoice.lines:
                rate = rate_of_line[(line.service, line.description)]
                billable = line.quantity
                if invoice.apply_free_tier and rate.allowance is not None:
                    billable = max(0.0, billable - getattr(book, rate.allowance))
                assert line.amount == price_usage(rate.kind, billable, book, instance)
        assert free.total() <= marginal.total()
        with pytest.raises(BillingError):
            price_usage(UsageKind.EC2_INSTANCE_SECONDS, usage[UsageKind.EC2_INSTANCE_SECONDS], book)
