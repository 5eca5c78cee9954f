"""Latency distributions for simulated cloud components.

The paper reports medians measured in ``us-west-2`` (Table 3). We model
each component's latency as a named distribution and calibrate the
defaults so the chat prototype reproduces the table's *shape*: billed
time 200 ms at a 100 ms billing granularity, run time ~134 ms dominated
by S3 and KMS API calls, and end-to-end latency ~211 ms dominated by SQS
delivery.

A key measured effect the paper calls out is that **S3 calls are much
slower from low-memory functions** (Lambda allocates CPU and network
share proportionally to memory). :class:`LatencyModel.memory_factor`
encodes that: a 128 MB function sees roughly 3x the S3/KMS latency of a
1536 MB one, interpolated by allocated memory.

Hot-path design: a fleet-scale run draws millions of samples, so the
model memoizes the per-component :class:`Distribution` (the seed built
a fresh :class:`LogNormal` per draw), memoizes the memory factor per
configured size, precomputes each log-normal's ``mu``, and offers
:meth:`LatencyModel.sample_micros` / :meth:`LatencyModel.sample_block`
which skip the per-sample :class:`LatencySample` allocation (and, for
:class:`Constant` distributions, the RNG dispatch entirely).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.sim.rng import SeededRng
from repro.units import ms

__all__ = [
    "Distribution",
    "Constant",
    "Uniform",
    "LogNormal",
    "Shifted",
    "LatencySample",
    "LatencyModel",
    "LAMBDA_MEMORY_FLOOR_MB",
    "LAMBDA_MEMORY_CEILING_MB",
]


class Distribution:
    """A non-negative latency distribution in microseconds."""

    def sample(self, rng: SeededRng) -> int:
        raise NotImplementedError

    def mean_micros(self) -> float:
        """Approximate mean, used for capacity planning and cost estimates."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Distribution):
    """Always the same latency."""

    micros: int

    def __post_init__(self):
        if self.micros < 0:
            raise ConfigurationError("latency cannot be negative")

    def sample(self, rng: SeededRng) -> int:
        return self.micros

    def mean_micros(self) -> float:
        return float(self.micros)


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform latency between ``low`` and ``high`` microseconds."""

    low: int
    high: int

    def __post_init__(self):
        if self.low < 0 or self.high < self.low:
            raise ConfigurationError(f"invalid uniform range [{self.low}, {self.high}]")

    def sample(self, rng: SeededRng) -> int:
        return round(rng.uniform(self.low, self.high))

    def mean_micros(self) -> float:
        return (self.low + self.high) / 2


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal latency parameterized by its median, in microseconds.

    Network service latencies are right-skewed; a log-normal with a small
    sigma matches the median-vs-tail behaviour of intra-region AWS API
    calls well enough for this reproduction.
    """

    median_micros: int
    sigma: float = 0.25

    def __post_init__(self):
        if self.median_micros < 0:
            raise ConfigurationError("median latency cannot be negative")
        if self.sigma < 0:
            raise ConfigurationError("sigma cannot be negative")
        # mu is a pure function of the median; cache it so the per-draw
        # path pays one attribute load instead of a log().
        object.__setattr__(self, "_mu", math.log(max(self.median_micros, 1)))

    def sample(self, rng: SeededRng) -> int:
        return round(rng.lognormvariate(self._mu, self.sigma))

    def mean_micros(self) -> float:
        return math.exp(self._mu + self.sigma**2 / 2)


@dataclass(frozen=True)
class Shifted(Distribution):
    """A distribution plus a constant floor (e.g. propagation delay)."""

    base: Distribution
    shift_micros: int

    def sample(self, rng: SeededRng) -> int:
        return self.shift_micros + self.base.sample(rng)

    def mean_micros(self) -> float:
        return self.shift_micros + self.base.mean_micros()


@dataclass(frozen=True)
class LatencySample:
    """One sampled operation latency, tagged with its component name."""

    component: str
    micros: int


# Lambda's CPU/network share scales with allocated memory between these
# bounds (the 2017 offering: 128 MB .. 1536 MB).
LAMBDA_MEMORY_FLOOR_MB = 128
LAMBDA_MEMORY_CEILING_MB = 1536

# Calibrated medians (microseconds) for intra-region operations, chosen so
# the §6.2 chat prototype lands near Table 3. Components not listed fall
# back to DEFAULT_COMPONENT. Service-call medians are quoted at the FULL
# (1536 MB) network share; smaller functions see them scaled up by
# :meth:`LatencyModel.memory_factor`.
_DEFAULT_MEDIANS: Dict[str, int] = {
    # client <-> API gateway over the Internet (one way)
    "wan.one_way": ms(16),
    # API gateway processing
    "gateway.accept": ms(3),
    # Lambda invocation overhead
    "lambda.warm_start": ms(2),
    "lambda.cold_start": ms(250),
    "lambda.handler_base": ms(4),
    # intra-region service API calls, at full (1536 MB) network share
    "kms.decrypt": ms(9),
    "kms.generate_data_key": ms(10),
    "s3.get": ms(17),
    "s3.put": ms(19),
    "s3.delete": ms(9),
    "s3.list": ms(14),
    "dynamo.get": ms(4),
    "dynamo.put": ms(5),
    "sqs.send": ms(8),
    "sqs.deliver": ms(28),  # queue propagation until a long-poller sees it
    "sqs.receive_empty": ms(4),
    "ses.send": ms(40),
    "smtp.hop": ms(80),
    "tls.handshake": ms(28),
    "vm.process": ms(2),
    # SGX-style enclave support (the §8.2 extension)
    "enclave.init": ms(120),
    "enclave.transition": ms(2),
    "enclave.quote": ms(6),
    "net.intra_region": ms(1),
    "net.cross_region": ms(70),
}

DEFAULT_COMPONENT = LogNormal(ms(10), 0.2)

# Components whose latency scales with the function's memory share:
# S3/KMS/SQS API calls made *from inside* a Lambda container.
_MEMORY_SCALED = frozenset(
    {"kms.decrypt", "kms.generate_data_key", "s3.get", "s3.put", "s3.delete",
     "s3.list", "dynamo.get", "dynamo.put", "sqs.send"}
)


@lru_cache(maxsize=None)
def _memory_factor(memory_mb: int) -> float:
    """Memoized inverse-proportional share penalty (few distinct sizes)."""
    clamped = min(max(memory_mb, LAMBDA_MEMORY_FLOOR_MB), LAMBDA_MEMORY_CEILING_MB)
    return LAMBDA_MEMORY_CEILING_MB / clamped


@dataclass
class LatencyModel:
    """Samples latencies per component, deterministic given a seed.

    ``overrides`` replaces the calibrated median (in microseconds) for a
    component. ``sigma`` applies to every log-normal component.

    ``overrides`` and ``sigma`` are read at construction and on cache
    misses only; the non-override distribution for a component is built
    once and reused for every subsequent draw.
    """

    rng: SeededRng = field(default_factory=lambda: SeededRng(0, "latency"))
    overrides: Dict[str, Distribution] = field(default_factory=dict)
    sigma: float = 0.18
    samples_drawn: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Cache of non-override distributions; overrides are consulted
        # first on every call so late mutation of ``overrides`` still wins.
        self._dist_cache: Dict[str, Distribution] = {}

    def distribution_for(self, component: str) -> Distribution:
        override = self.overrides.get(component)
        if override is not None:
            return override
        dist = self._dist_cache.get(component)
        if dist is None:
            median = _DEFAULT_MEDIANS.get(component)
            dist = DEFAULT_COMPONENT if median is None else LogNormal(median, self.sigma)
            self._dist_cache[component] = dist
        return dist

    @staticmethod
    def memory_factor(memory_mb: int) -> float:
        """Latency multiplier for service calls from a ``memory_mb`` function.

        Lambda allocates CPU and network share *proportionally to
        memory*, so the penalty is inverse-proportional: 1.0 at 1536 MB
        (full share), ~3.4x at the prototype's 448 MB, and 12x at the
        128 MB floor — reproducing the paper's observation that "API
        calls to S3 took significantly longer when we allocated less
        memory to the function".
        """
        return _memory_factor(memory_mb)

    def sample_micros(self, component: str, memory_mb: int | None = None) -> int:
        """Sample one latency as a bare int (no :class:`LatencySample`).

        Bit-identical to ``sample(...).micros`` for the same RNG state:
        the same draws happen in the same order with the same float ops.
        ``Constant`` components skip the RNG dispatch entirely.
        """
        dist = self.distribution_for(component)
        self.samples_drawn += 1
        if type(dist) is Constant:
            micros = dist.micros
        else:
            micros = dist.sample(self.rng)
        if memory_mb is not None and component in _MEMORY_SCALED:
            micros = round(micros * _memory_factor(memory_mb))
        return micros

    def sample_block(
        self, component: str, count: int, memory_mb: int | None = None
    ) -> List[int]:
        """Draw ``count`` consecutive samples for one component.

        The batch path for fleet-scale simulation: distribution lookup,
        memory scaling, and RNG binding happen once per block instead of
        once per draw, and the stream equals ``count`` successive
        :meth:`sample_micros` calls exactly.
        """
        if count < 0:
            raise ConfigurationError(f"sample count cannot be negative: {count}")
        dist = self.distribution_for(component)
        self.samples_drawn += count
        scaled = memory_mb is not None and component in _MEMORY_SCALED
        factor = _memory_factor(memory_mb) if scaled else 1.0
        if type(dist) is Constant:
            micros = dist.micros
            if scaled:
                micros = round(micros * factor)
            return [micros] * count
        if type(dist) is LogNormal:
            # Inline the per-draw body with everything bound to locals.
            draw = self.rng.lognormvariate
            mu = dist._mu
            sigma = dist.sigma
            if scaled:
                return [round(round(draw(mu, sigma)) * factor) for _ in range(count)]
            return [round(draw(mu, sigma)) for _ in range(count)]
        sample = dist.sample
        rng = self.rng
        if scaled:
            return [round(sample(rng) * factor) for _ in range(count)]
        return [sample(rng) for _ in range(count)]

    def sample_block_vec(
        self, component: str, count: int, memory_mb: int | None = None
    ):
        """Draw ``count`` samples through the vectorized quantile-table path.

        The fleet engine's kernel: uniforms come from one bulk
        :meth:`SeededRng.uniform_block` draw, values from a cached
        inverse-CDF table (:func:`repro.sim.vecmath.lognormal_table`)
        with the memory penalty folded into the table, rounded to ints
        in one vector op. Returns an int64 ``ndarray`` under numpy, a
        list of ints under the pure-python fallback — bitwise the same
        values either way.

        This path defines its *own* canonical stream: it is
        deterministic per seed and identical with or without numpy, but
        it is **not** the stream of :meth:`sample_block` (which stays
        bit-compatible with the seed-era engines and their goldens).
        Non-log-normal overrides fall back to :meth:`sample_block`.
        """
        from repro.sim import vecmath

        if count < 0:
            raise ConfigurationError(f"sample count cannot be negative: {count}")
        dist = self.distribution_for(component)
        if type(dist) is not LogNormal:
            return self.sample_block(component, count, memory_mb)
        self.samples_drawn += count
        scaled = memory_mb is not None and component in _MEMORY_SCALED
        factor = _memory_factor(memory_mb) if scaled else 1.0
        table = vecmath.lognormal_table(dist._mu, dist.sigma, factor)
        uniforms = self.rng.uniform_block(count)
        micros = table.sample_block(uniforms)
        np = vecmath.numpy_or_none()
        if np is not None and not isinstance(micros, list):
            return np.rint(micros).astype(np.int64)
        return [round(value) for value in micros]

    def sample(self, component: str, memory_mb: int | None = None) -> LatencySample:
        """Sample one operation latency for ``component``.

        ``memory_mb`` applies the Lambda memory/network-share penalty when
        the component is a service call made from inside a function.
        """
        return LatencySample(component, self.sample_micros(component, memory_mb))

    def mean_micros(self, component: str, memory_mb: int | None = None) -> float:
        mean = self.distribution_for(component).mean_micros()
        if memory_mb is not None and component in _MEMORY_SCALED:
            mean *= _memory_factor(memory_mb)
        return mean
