"""Units used throughout the library: money, data sizes, and durations.

Cloud billing mixes very small unit prices (fractions of a cent per
request) with monthly totals, so float arithmetic would accumulate
rounding error exactly where the paper's tables need precision.
:class:`Money` wraps :class:`decimal.Decimal` and is the only type the
billing pipeline uses.

Durations inside the simulator are kept in integer *microseconds* to make
the discrete-event clock exact; helpers here convert to and from seconds
and milliseconds. Data sizes are plain integers in bytes with MB/GB
helpers using decimal (1 GB = 10^9 B) for network transfer — matching how
cloud providers bill — and binary (1 MiB = 2^20 B) for memory sizing,
matching how Lambda allocates memory.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from typing import Union

__all__ = [
    "Money",
    "ZERO",
    "usd",
    "MICROS_PER_MS",
    "MICROS_PER_SECOND",
    "MICROS_PER_MINUTE",
    "MICROS_PER_HOUR",
    "ms",
    "seconds",
    "minutes",
    "hours",
    "to_seconds",
    "to_ms",
    "KB",
    "MB",
    "GB",
    "KIB",
    "MIB",
    "GIB",
    "mb",
    "gb",
    "to_gb",
    "to_mib",
    "HOURS_PER_MONTH",
    "SECONDS_PER_MONTH",
    "DAYS_PER_MONTH",
]

_MoneyLike = Union["Money", Decimal, int, str]


class Money:
    """An exact USD amount backed by :class:`decimal.Decimal`.

    Construct via :func:`usd` or ``Money("0.26")``. Arithmetic between two
    ``Money`` values (and scaling by ints/Decimals/strings) stays exact;
    multiplying by a float is a :class:`TypeError` by design — convert the
    float to a string or Decimal first so the caller decides the precision.
    """

    __slots__ = ("_amount",)

    def __init__(self, amount: _MoneyLike):
        if isinstance(amount, Money):
            self._amount = amount._amount
        elif isinstance(amount, Decimal):
            self._amount = amount
        elif isinstance(amount, int):
            self._amount = Decimal(amount)
        elif isinstance(amount, str):
            self._amount = Decimal(amount)
        else:
            raise TypeError(
                f"Money amount must be Money, Decimal, int or str, not {type(amount).__name__}"
            )

    @property
    def amount(self) -> Decimal:
        """The exact decimal amount in dollars."""
        return self._amount

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other: _MoneyLike) -> Decimal:
        if isinstance(other, Money):
            return other._amount
        if isinstance(other, (Decimal, int)):
            return Decimal(other)
        if isinstance(other, str):
            return Decimal(other)
        raise TypeError(f"cannot combine Money with {type(other).__name__}")

    def __add__(self, other: _MoneyLike) -> "Money":
        return Money(self._amount + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other: _MoneyLike) -> "Money":
        return Money(self._amount - self._coerce(other))

    def __rsub__(self, other: _MoneyLike) -> "Money":
        return Money(self._coerce(other) - self._amount)

    def __mul__(self, factor: Union[int, Decimal, str]) -> "Money":
        if isinstance(factor, float):
            raise TypeError("multiply Money by Decimal or str, not float")
        return Money(self._amount * Decimal(factor))

    __rmul__ = __mul__

    def __truediv__(self, divisor: Union[int, Decimal, str, "Money"]):
        if isinstance(divisor, Money):
            # Money / Money is a dimensionless ratio.
            return self._amount / divisor._amount
        if isinstance(divisor, float):
            raise TypeError("divide Money by Decimal or str, not float")
        return Money(self._amount / Decimal(divisor))

    def __neg__(self) -> "Money":
        return Money(-self._amount)

    def __abs__(self) -> "Money":
        return Money(abs(self._amount))

    # -- comparison ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Money):
            return self._amount == other._amount
        if isinstance(other, (int, Decimal)):
            return self._amount == Decimal(other)
        return NotImplemented

    def __lt__(self, other: _MoneyLike) -> bool:
        return self._amount < self._coerce(other)

    def __le__(self, other: _MoneyLike) -> bool:
        return self._amount <= self._coerce(other)

    def __gt__(self, other: _MoneyLike) -> bool:
        return self._amount > self._coerce(other)

    def __ge__(self, other: _MoneyLike) -> bool:
        return self._amount >= self._coerce(other)

    def __hash__(self) -> int:
        return hash(self._amount)

    def __bool__(self) -> bool:
        return self._amount != 0

    # -- presentation -------------------------------------------------

    def rounded(self, places: int = 2) -> "Money":
        """Round half-up to ``places`` decimal places (invoice style)."""
        quantum = Decimal(1).scaleb(-places)
        return Money(self._amount.quantize(quantum, rounding=decimal.ROUND_HALF_UP))

    def dollars(self) -> float:
        """Lossy float view, for display and plotting only."""
        return float(self._amount)

    def __format__(self, spec: str) -> str:
        if not spec:
            return str(self)
        return format(self.dollars(), spec)

    def __str__(self) -> str:
        return f"${self.rounded(2)._amount:.2f}"

    def __repr__(self) -> str:
        return f"Money('{self._amount}')"


ZERO = Money(0)


def usd(amount: Union[str, int, Decimal]) -> Money:
    """Build a :class:`Money` from an exact representation, e.g. ``usd("0.26")``."""
    return Money(amount)


# --------------------------------------------------------------------------
# Durations (integer microseconds)

MICROS_PER_MS = 1_000
MICROS_PER_SECOND = 1_000_000
MICROS_PER_MINUTE = 60 * MICROS_PER_SECOND
MICROS_PER_HOUR = 60 * MICROS_PER_MINUTE


def ms(value: float) -> int:
    """Milliseconds → integer microseconds."""
    return round(value * MICROS_PER_MS)


def seconds(value: float) -> int:
    """Seconds → integer microseconds."""
    return round(value * MICROS_PER_SECOND)


def minutes(value: float) -> int:
    """Minutes → integer microseconds."""
    return round(value * MICROS_PER_MINUTE)


def hours(value: float) -> int:
    """Hours → integer microseconds."""
    return round(value * MICROS_PER_HOUR)


def to_seconds(micros: int) -> float:
    """Integer microseconds → float seconds."""
    return micros / MICROS_PER_SECOND


def to_ms(micros: int) -> float:
    """Integer microseconds → float milliseconds."""
    return micros / MICROS_PER_MS


# --------------------------------------------------------------------------
# Data sizes (integer bytes)

KB = 10**3
MB = 10**6
GB = 10**9
KIB = 2**10
MIB = 2**20
GIB = 2**30


def mb(value: float) -> int:
    return round(value * MB)


def gb(value: float) -> int:
    return round(value * GB)


def to_gb(nbytes: int) -> float:
    """Bytes → decimal gigabytes (how providers bill transfer/storage)."""
    return nbytes / GB


def to_mib(nbytes: int) -> float:
    """Bytes → binary mebibytes (how Lambda sizes memory)."""
    return nbytes / MIB


# --------------------------------------------------------------------------
# Billing-month conventions (match the AWS monthly calculator the paper used)

HOURS_PER_MONTH = 730  # AWS convention: 730 hours/month
SECONDS_PER_MONTH = HOURS_PER_MONTH * 3600
DAYS_PER_MONTH = 30  # the paper's per-day → per-month scaling
