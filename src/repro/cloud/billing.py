"""Metering, the rate table, and invoicing with free-tier accounting.

Every simulated service reports usage to a :class:`BillingMeter`.
:data:`RATES` is the one pricing rule: for each :class:`UsageKind` it
names the invoice line (service, description, unit), the
:class:`~repro.cloud.pricing.PriceBook` field holding the unit price,
the number of units that price is quoted per, and the field holding the
monthly free allowance. :func:`price_usage` applies it at the marginal
(pre-free-tier) price; an :class:`Invoice` applies it to one month of
accumulated usage, with the free tiers the paper's cost analysis leans
on (Lambda's 1M requests + 400K GB-seconds, SQS's 1M requests, the
first GB of transfer out). The span cost join, Tables 1 and 2, the
advisor and the video-call arithmetic all price through these two.
"""

from __future__ import annotations

import contextlib
import enum
from contextvars import ContextVar
from dataclasses import dataclass
from decimal import Decimal
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cloud.pricing import PriceBook
from repro.errors import BillingError
from repro.units import Money, ZERO

__all__ = ["UsageKind", "Rate", "RATES", "price_usage", "BillingMeter", "LineItem", "Invoice"]


class UsageKind(enum.Enum):
    """One billable usage dimension."""

    LAMBDA_REQUESTS = "lambda.requests"
    LAMBDA_GB_SECONDS = "lambda.gb_seconds"
    S3_PUT = "s3.put_requests"
    S3_GET = "s3.get_requests"
    S3_STORAGE_GB_MONTH = "s3.storage_gb_month"
    TRANSFER_OUT_GB = "transfer.out_gb"
    SQS_REQUESTS = "sqs.requests"
    SES_MESSAGES = "ses.messages"
    KMS_KEY_MONTHS = "kms.key_months"
    KMS_REQUESTS = "kms.requests"
    DYNAMO_READS = "dynamo.reads"
    DYNAMO_WRITES = "dynamo.writes"
    DYNAMO_STORAGE_GB_MONTH = "dynamo.storage_gb_month"
    EC2_INSTANCE_SECONDS = "ec2.instance_seconds"  # detail = instance type
    EBS_GB_MONTH = "ebs.storage_gb_month"
    HEALTH_CHECKS = "route53.health_checks"
    ELB_HOURS = "elb.hours"


@dataclass(frozen=True)
class Rate:
    """How one usage dimension is billed.

    ``price`` names the :class:`~repro.cloud.pricing.PriceBook` field
    holding the unit price, quoted per ``divisor`` units; ``allowance``
    names the field holding the monthly free allowance, if any.
    """

    kind: UsageKind
    service: str
    description: str
    unit: str
    price: str
    divisor: int = 1
    allowance: Optional[str] = None


# The pricing rule, in invoice line order. EC2's hourly rate lives on
# the instance type the usage detail names, one line per type.
RATES: Tuple[Rate, ...] = (
    Rate(UsageKind.LAMBDA_REQUESTS, "lambda", "requests", "requests",
         "lambda_per_million_requests", 1_000_000, "lambda_free_requests"),
    Rate(UsageKind.LAMBDA_GB_SECONDS, "lambda", "duration", "GB-seconds",
         "lambda_per_gb_second", 1, "lambda_free_gb_seconds"),
    Rate(UsageKind.S3_STORAGE_GB_MONTH, "s3", "storage", "GB-month", "s3_storage_per_gb_month"),
    Rate(UsageKind.S3_PUT, "s3", "PUT requests", "requests", "s3_put_per_thousand", 1_000),
    Rate(UsageKind.S3_GET, "s3", "GET requests", "requests", "s3_get_per_ten_thousand", 10_000),
    Rate(UsageKind.TRANSFER_OUT_GB, "transfer", "data transfer out", "GB",
         "transfer_out_per_gb", 1, "transfer_free_gb"),
    Rate(UsageKind.SQS_REQUESTS, "sqs", "requests", "requests",
         "sqs_per_million_requests", 1_000_000, "sqs_free_requests"),
    Rate(UsageKind.SES_MESSAGES, "ses", "messages", "messages",
         "ses_per_thousand_messages", 1_000, "ses_free_messages"),
    Rate(UsageKind.KMS_KEY_MONTHS, "kms", "customer master keys", "key-months", "kms_per_key_month"),
    Rate(UsageKind.KMS_REQUESTS, "kms", "API requests", "requests",
         "kms_per_ten_thousand_requests", 10_000, "kms_free_requests"),
    Rate(UsageKind.DYNAMO_READS, "dynamo", "reads", "requests", "dynamo_per_million_reads", 1_000_000),
    Rate(UsageKind.DYNAMO_WRITES, "dynamo", "writes", "requests", "dynamo_per_million_writes", 1_000_000),
    Rate(UsageKind.DYNAMO_STORAGE_GB_MONTH, "dynamo", "storage", "GB-month",
         "dynamo_storage_per_gb_month"),
    Rate(UsageKind.EC2_INSTANCE_SECONDS, "ec2", "{detail} runtime", "seconds", "hourly", 3600),
    Rate(UsageKind.EBS_GB_MONTH, "ebs", "volume storage", "GB-month", "ebs_per_gb_month"),
    Rate(UsageKind.HEALTH_CHECKS, "route53", "health checks", "checks", "health_check_per_month"),
    Rate(UsageKind.ELB_HOURS, "elb", "load balancer", "hours", "elb_per_hour"),
)
_RATE_OF: Dict[UsageKind, Rate] = {rate.kind: rate for rate in RATES}


@dataclass(frozen=True)
class LineItem:
    """One priced row of an invoice."""

    service: str
    description: str
    quantity: float
    unit: str
    amount: Money

    def __str__(self) -> str:
        return f"{self.service:<10} {self.description:<44} {self.quantity:>14,.3f} {self.unit:<12} {self.amount}"


# The app (or tenant) usage is currently attributed to — set by
# BillingMeter.attributed(); lets the §8.1 app store report per-app
# resource consumption without separate meters per service.
_attribution: ContextVar[Optional[str]] = ContextVar("repro_billing_attribution", default=None)


class BillingMeter:
    """Accumulates raw usage quantities for one account-month.

    Usage recorded while inside an :meth:`attributed` block is *also*
    tallied into a per-tag sub-meter, which the app store's resource
    accounting UI reads.

    Quantities accumulate as plain Python floats (exact for the integer
    counts that dominate metering); :class:`Invoice` converts to
    :class:`~decimal.Decimal` once per line item, so the per-call hot
    path never touches ``Decimal``. ``record_calls`` and ``hits`` are
    perf counters: calls into the meter, and underlying metered events
    (a batched record of N events counts N hits but one call).
    """

    def __init__(self):
        self._usage: Dict[Tuple[UsageKind, Optional[str]], float] = {}
        self._by_tag: Dict[str, "BillingMeter"] = {}
        self.record_calls = 0
        self.hits = 0

    @contextlib.contextmanager
    def attributed(self, tag: str) -> Iterator[None]:
        """Attribute all usage in the block to ``tag`` (e.g. an app name)."""
        token = _attribution.set(tag)
        try:
            yield
        finally:
            _attribution.reset(token)

    def tagged(self, tag: str) -> "BillingMeter":
        """The sub-meter holding usage attributed to ``tag``."""
        if tag not in self._by_tag:
            self._by_tag[tag] = BillingMeter()
        return self._by_tag[tag]

    def tags(self) -> List[str]:
        return sorted(self._by_tag)

    def record(self, kind: UsageKind, quantity: float, detail: Optional[str] = None) -> None:
        if quantity < 0:
            raise BillingError(f"negative usage {quantity} for {kind.value}")
        if detail is not None and kind is not UsageKind.EC2_INSTANCE_SECONDS:
            raise BillingError(f"{kind.value} usage takes no detail, got {detail!r}")
        self.record_calls += 1
        self.hits += 1
        key = (kind, detail)
        usage = self._usage
        usage[key] = usage.get(key, 0.0) + quantity
        tag = _attribution.get()
        if tag is not None:
            sub = self.tagged(tag)
            sub.record_calls += 1
            sub.hits += 1
            sub._usage[key] = sub._usage.get(key, 0.0) + quantity

    def record_batch(
        self,
        kind: UsageKind,
        quantity: float,
        count: int,
        detail: Optional[str] = None,
    ) -> None:
        """Record ``count`` underlying events totalling ``quantity`` at once.

        The fleet-scale fast path: one dict update per chunk instead of
        one :meth:`record` call per event. ``quantity`` is the already
        summed total for the chunk, so callers that accumulate exact
        (integer-valued) totals get byte-identical invoices to the
        per-event path.
        """
        if quantity < 0:
            raise BillingError(f"negative usage {quantity} for {kind.value}")
        if count < 0:
            raise BillingError(f"negative event count {count} for {kind.value}")
        if detail is not None and kind is not UsageKind.EC2_INSTANCE_SECONDS:
            raise BillingError(f"{kind.value} usage takes no detail, got {detail!r}")
        self.record_calls += 1
        self.hits += count
        key = (kind, detail)
        usage = self._usage
        usage[key] = usage.get(key, 0.0) + quantity
        tag = _attribution.get()
        if tag is not None:
            sub = self.tagged(tag)
            sub.record_calls += 1
            sub.hits += count
            sub._usage[key] = sub._usage.get(key, 0.0) + quantity

    def total(self, kind: UsageKind, detail: Optional[str] = None) -> float:
        return self._usage.get((kind, detail), 0.0)

    def total_all_details(self, kind: UsageKind) -> float:
        return sum(qty for (k, _), qty in self._usage.items() if k is kind)

    def details(self, kind: UsageKind) -> Dict[Optional[str], float]:
        return {detail: qty for (k, detail), qty in self._usage.items() if k is kind}

    def snapshot(self) -> Dict[str, float]:
        return {
            kind.value if detail is None else f"{kind.value}[{detail}]": qty
            for (kind, detail), qty in sorted(
                self._usage.items(), key=lambda item: (item[0][0].value, str(item[0][1]))
            )
        }


def _dec(value: float) -> Decimal:
    """Float quantity → Decimal via string (bounded precision, no binary noise)."""
    return Decimal(repr(value))


def price_usage(kind: UsageKind, quantity: float, prices: PriceBook,
                detail: Optional[str] = None) -> Money:
    """The marginal price of ``quantity`` units of ``kind``, no free tier.

    A span's cost answers "what did *this* request consume?", not "what
    did the month's bill happen to absorb?", so no allowance applies
    here; :class:`Invoice` applies it per month. EC2 usage takes its
    instance type from ``detail``.
    """
    rate = _RATE_OF[kind]
    book = prices
    if kind is UsageKind.EC2_INSTANCE_SECONDS:
        if detail is None:
            raise BillingError("EC2 usage requires an instance-type detail")
        book = prices.instance(detail)
    return getattr(book, rate.price) * _dec(quantity) / rate.divisor


class Invoice:
    """One month of usage priced against a price book."""

    def __init__(self, meter: BillingMeter, prices: PriceBook, apply_free_tier: bool = True):
        self.meter = meter
        self.prices = prices
        self.apply_free_tier = apply_free_tier
        self.lines: List[LineItem] = []
        for rate in RATES:
            if rate.kind is UsageKind.EC2_INSTANCE_SECONDS:
                usage = sorted(meter.details(rate.kind).items(), key=lambda kv: str(kv[0]))
            else:
                usage = [(None, meter.total(rate.kind))]
            for detail, quantity in usage:
                billable = quantity
                if apply_free_tier and rate.allowance is not None:
                    billable = max(0.0, quantity - getattr(prices, rate.allowance))
                amount = price_usage(rate.kind, billable, prices, detail)
                if quantity:
                    self.lines.append(LineItem(rate.service, rate.description.format(detail=detail),
                                               quantity, rate.unit, amount))

    # -- queries ----------------------------------------------------------

    def total(self) -> Money:
        total = ZERO
        for line in self.lines:
            total = total + line.amount
        return total

    def service_total(self, service: str) -> Money:
        total = ZERO
        for line in self.lines:
            if line.service == service:
                total = total + line.amount
        return total

    def by_service(self) -> Dict[str, Money]:
        totals: Dict[str, Money] = {}
        for line in self.lines:
            totals[line.service] = totals.get(line.service, ZERO) + line.amount
        return totals

    def compute_total(self) -> Money:
        """The paper's "compute" bucket: Lambda duration+requests and EC2 runtime."""
        return self.service_total("lambda") + self.service_total("ec2")

    def storage_total(self) -> Money:
        """The paper's "storage" bucket: S3/EBS/Dynamo storage and requests."""
        return (
            self.service_total("s3")
            + self.service_total("ebs")
            + self.service_total("dynamo")
        )

    def transfer_total(self) -> Money:
        return self.service_total("transfer")

    def render(self, title: str = "Invoice") -> str:
        header = f"{title}\n" + "-" * len(title)
        body = "\n".join(str(line) for line in self.lines) or "(no usage)"
        return f"{header}\n{body}\nTOTAL: {self.total()}"

