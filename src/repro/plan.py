"""The deployment plan: every tuning knob in one typed, frozen object.

The paper's pitch is that a DIY deployment is *cheap* — but only when
the knobs are set right (§6.2's 448 MB memory knee, the free-tier
crossover, the S3-vs-DynamoDB footnote). Before this module those knobs
lived in scattered places: a ``DIY_STORAGE`` env var, memory sizes
hard-coded at call sites, polling budgets buried in clients, the price
book implied. A :class:`DeploymentPlan` is the one config plane:

- **memory_mb** — the Lambda size (``None`` keeps each app's declared
  default, so default plans change nothing);
- **storage** — the state backend, ``"s3"`` or ``"dynamo"``;
- **cached** — wrap the store in the warm-container read cache;
- **poll_wait_seconds** — the client long-poll budget (§6.2's
  "maximum 20 second poll interval");
- **accounting** — ``"billed"`` (free tiers apply, what the bill says)
  or ``"marginal"`` (pre-free-tier unit prices, what one more request
  costs);
- **price_book** — a name resolved against
  :data:`repro.cloud.pricing.PRICE_BOOKS`.

Plans are frozen and JSON-round-trippable byte for byte
(:meth:`DeploymentPlan.to_json` / :meth:`DeploymentPlan.from_json`), so
a plan can be stored next to a deployment, diffed, and replayed. The
plan is the only config input: nothing in the package reads the process
environment (``make lint`` enforces this), and everything downstream —
the runtime kernel, the cloud layer, the fleet engines, the advisor —
consumes the typed plan.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.cloud.pricing import PriceBook, resolve_price_book
from repro.errors import ConfigurationError
from repro.net.longpoll import MAX_POLL_WAIT_SECONDS
from repro.runtime.store import STORAGE_BACKENDS, STORAGE_ENV

__all__ = [
    "ACCOUNTING_MODES",
    "MEMORY_SIZES",
    "DeploymentPlan",
    "DEFAULT_PLAN",
]

ACCOUNTING_MODES = ("billed", "marginal")

# Deployable Lambda sizes, late-2017 style: 64 MB steps from 128 MB.
MEMORY_SIZES = tuple(range(128, 1536 + 1, 64))

# The canonical field order for JSON round trips (alphabetical, matching
# ``sort_keys``): the serialized form is byte-stable by construction.
_FIELDS = (
    "accounting",
    "cached",
    "memory_mb",
    "poll_wait_seconds",
    "price_book",
    "storage",
)


def _check_types(plan: "DeploymentPlan") -> None:
    """Reject a field of the wrong JSON type before any range check.

    ``bool`` is an ``int`` to Python, so ``True`` is refused where a
    number is meant, and ``cached`` accepts nothing but a ``bool``.
    """
    for name in ("storage", "accounting", "price_book"):
        value = getattr(plan, name)
        if not isinstance(value, str):
            raise ConfigurationError(
                f"{name} must be a string, got {type(value).__name__} {value!r}"
            )
    if type(plan.cached) is not bool:
        raise ConfigurationError(
            f"cached must be true or false, got {type(plan.cached).__name__} {plan.cached!r}"
        )
    wait = plan.poll_wait_seconds
    if isinstance(wait, bool) or not isinstance(wait, (int, float)):
        raise ConfigurationError(
            f"poll_wait_seconds must be a number, got {type(wait).__name__} {wait!r}"
        )
    memory = plan.memory_mb
    if memory is not None and (isinstance(memory, bool) or not isinstance(memory, int)):
        raise ConfigurationError(
            f"memory_mb must be an integer or null, got {type(memory).__name__} {memory!r}"
        )


@dataclass(frozen=True)
class DeploymentPlan:
    """One deployment's complete knob settings. Frozen; JSON-stable."""

    memory_mb: Optional[int] = None  # None -> each app's declared default
    storage: str = "s3"
    cached: bool = True
    poll_wait_seconds: float = float(MAX_POLL_WAIT_SECONDS)
    accounting: str = "billed"
    price_book: str = "2017"

    def __post_init__(self):
        _check_types(self)
        if self.storage not in STORAGE_BACKENDS:
            raise ConfigurationError(
                f"storage must be one of {STORAGE_BACKENDS}, got {self.storage!r}"
            )
        if self.memory_mb is not None and self.memory_mb not in MEMORY_SIZES:
            raise ConfigurationError(
                f"memory_mb must be a deployable size "
                f"({MEMORY_SIZES[0]}..{MEMORY_SIZES[-1]} in 64 MB steps), "
                f"got {self.memory_mb!r}"
            )
        if not 0 < self.poll_wait_seconds <= MAX_POLL_WAIT_SECONDS:
            raise ConfigurationError(
                f"poll wait must be in (0, {MAX_POLL_WAIT_SECONDS}] seconds, "
                f"got {self.poll_wait_seconds!r}"
            )
        if self.accounting not in ACCOUNTING_MODES:
            raise ConfigurationError(
                f"accounting must be one of {ACCOUNTING_MODES}, got {self.accounting!r}"
            )
        resolve_price_book(self.price_book)  # unknown book fails fast

    # -- derived views ------------------------------------------------------

    @property
    def prices(self) -> PriceBook:
        """The resolved price book."""
        return resolve_price_book(self.price_book)

    @property
    def include_free_tier(self) -> bool:
        """Whether this plan's accounting applies the §4 free tiers."""
        return self.accounting == "billed"

    def storage_put_component(self) -> str:
        """The latency-model component one state write lands on."""
        return "dynamo.put" if self.storage == "dynamo" else "s3.put"

    def storage_get_component(self) -> str:
        """The latency-model component one state read lands on."""
        return "dynamo.get" if self.storage == "dynamo" else "s3.get"

    def environment(self) -> Tuple[Tuple[str, str], ...]:
        """The function environment a deployed function carries.

        A manifest bakes this into each function's configuration so the
        running handler, which sees only its deployment environment,
        resolves the same backend.
        """
        return ((STORAGE_ENV, self.storage),)

    def replace(self, **changes) -> "DeploymentPlan":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- JSON round trip ----------------------------------------------------

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators, byte-stable."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, mapping: Mapping[str, object]) -> "DeploymentPlan":
        unknown = sorted(set(mapping) - set(_FIELDS))
        if unknown:
            raise ConfigurationError(f"unknown plan fields: {unknown}")
        return cls(**dict(mapping))

    @classmethod
    def from_json(cls, text: str) -> "DeploymentPlan":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"plan is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ConfigurationError("plan JSON must be an object")
        return cls.from_dict(payload)


DEFAULT_PLAN = DeploymentPlan()
