"""The late-2017 AWS price book the paper's evaluation uses.

§4 quotes Lambda's prices directly: "$0.20 fee for every million
requests and $0.00001667 for every GB-second, with one million free
requests and 400,000 free GB-seconds each month. Execution time is
measured in increments of 100ms." The remaining services use the public
late-2017 us-west-2 rates from the AWS Simple Monthly Calculator the
paper cites [3]. All prices are exact :class:`~repro.units.Money`
values. Only :mod:`repro.cloud.billing` reads them: its rate table
names, for each usage kind, the field holding the price and the one
holding the free allowance, so a price or a free tier is changed here
and nowhere else (``make lint`` checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError
from repro.units import Money, usd

__all__ = [
    "InstancePrice",
    "PriceBook",
    "PRICES_2017",
    "EC2_HOURS_PER_MONTH",
    "PRICE_BOOKS",
    "register_price_book",
    "resolve_price_book",
]

# The AWS Simple Monthly Calculator billed EC2 instances for 732 hours a
# month (61 days / 2); with t2.nano's $0.0059/h this yields exactly the
# $4.32 compute line in the paper's Table 1.
EC2_HOURS_PER_MONTH = 732


@dataclass(frozen=True)
class InstancePrice:
    """An EC2 instance type: hourly price and memory."""

    name: str
    hourly: Money
    memory_gb: float
    vcpus: int


def _default_instances() -> Dict[str, InstancePrice]:
    return {
        "t2.nano": InstancePrice("t2.nano", usd("0.0059"), 0.5, 1),
        "t2.micro": InstancePrice("t2.micro", usd("0.012"), 1.0, 1),
        "t2.small": InstancePrice("t2.small", usd("0.023"), 2.0, 1),
        "t2.medium": InstancePrice("t2.medium", usd("0.0464"), 4.0, 2),
        "t2.large": InstancePrice("t2.large", usd("0.0928"), 8.0, 2),
    }


@dataclass(frozen=True)
class PriceBook:
    """Every unit price the simulation bills against."""

    # --- Lambda (§4, quoted in the paper) ---
    lambda_per_million_requests: Money = usd("0.20")
    lambda_per_gb_second: Money = usd("0.00001667")
    lambda_free_requests: int = 1_000_000
    lambda_free_gb_seconds: int = 400_000
    lambda_billing_increment_ms: int = 100

    # --- S3 (us-west-2, late 2017) ---
    s3_storage_per_gb_month: Money = usd("0.023")
    s3_put_per_thousand: Money = usd("0.005")
    s3_get_per_ten_thousand: Money = usd("0.004")

    # --- Data transfer out to the Internet ---
    transfer_out_per_gb: Money = usd("0.09")
    transfer_free_gb: int = 1  # first GB/month free

    # --- SQS (§6.2: "$0.40 for every million requests", 1M free) ---
    sqs_per_million_requests: Money = usd("0.40")
    sqs_free_requests: int = 1_000_000

    # --- SES ---
    ses_per_thousand_messages: Money = usd("0.10")
    ses_free_messages: int = 1_000  # inbound free allowance

    # --- KMS (not counted in the paper's tables; see EXPERIMENTS.md) ---
    kms_per_key_month: Money = usd("1.00")
    kms_per_ten_thousand_requests: Money = usd("0.03")
    kms_free_requests: int = 20_000

    # --- DynamoDB (simplified on-demand style) ---
    dynamo_per_million_reads: Money = usd("0.25")
    dynamo_per_million_writes: Money = usd("1.25")
    dynamo_storage_per_gb_month: Money = usd("0.25")

    # --- EC2 ---
    ec2_instances: Dict[str, InstancePrice] = field(default_factory=_default_instances)
    ebs_per_gb_month: Money = usd("0.10")

    # --- Route 53 style health checks (for the HA strawman) ---
    health_check_per_month: Money = usd("0.75")

    # --- Elastic load balancer (for the HA strawman) ---
    elb_per_hour: Money = usd("0.025")

    def instance(self, name: str) -> InstancePrice:
        try:
            return self.ec2_instances[name]
        except KeyError:
            raise KeyError(f"unknown instance type {name!r}") from None

    def lambda_gb_seconds(self, memory_mb: int, billed_ms: int) -> float:
        """GB-seconds billed for one invocation (memory is binary MB)."""
        return (memory_mb / 1024) * (billed_ms / 1000)

    def round_up_billing(self, run_ms: float) -> int:
        """Round a run duration up to the 100 ms billing increment."""
        increment = self.lambda_billing_increment_ms
        if run_ms <= 0:
            return increment
        whole = int(run_ms // increment) * increment
        return whole if whole == run_ms else whole + increment


PRICES_2017 = PriceBook()

# The named price-book registry: a DeploymentPlan names its book (the
# JSON stays a short string, not a nested price dump) and resolves it
# here. "2017" is the paper's evaluation book; experiments register
# what-if books (a price hike, a different region) under new names.
PRICE_BOOKS: Dict[str, PriceBook] = {"2017": PRICES_2017}


def register_price_book(name: str, book: PriceBook) -> PriceBook:
    """Register ``book`` under ``name`` for plans to reference."""
    if not name:
        raise ConfigurationError("price book needs a non-empty name")
    if not isinstance(book, PriceBook):
        raise ConfigurationError(f"{name!r} must register a PriceBook")
    existing = PRICE_BOOKS.get(name)
    if existing is not None and existing != book:
        raise ConfigurationError(f"price book {name!r} already registered differently")
    PRICE_BOOKS[name] = book
    return book


def resolve_price_book(name: str) -> PriceBook:
    """The :class:`PriceBook` registered under ``name``."""
    try:
        return PRICE_BOOKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown price book {name!r}; registered: {sorted(PRICE_BOOKS)}"
        ) from None
