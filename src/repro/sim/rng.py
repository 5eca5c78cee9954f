"""Seeded randomness.

Every stochastic choice in the simulator flows through a
:class:`SeededRng` so that a run is a pure function of its seed. Child
generators are derived by name, which keeps components independent: adding
a draw in one module does not perturb the sequence seen by another.
"""

from __future__ import annotations

import hashlib
import random

from repro.errors import ConfigurationError

__all__ = ["SeededRng"]


class SeededRng:
    """A namespaced wrapper over :class:`random.Random`.

    Block draws under numpy run on the generator's own numpy MT19937:
    the first one moves the stream into it, later ones draw from it in
    place, and a scalar draw (or a block draw with numpy off) moves the
    stream back first. Either way every draw continues the one stream.
    """

    def __init__(self, seed: int = 0, namespace: str = "root"):
        self._seed = seed
        self._namespace = namespace
        digest = hashlib.sha256(f"{seed}:{namespace}".encode()).digest()
        self._py = random.Random(int.from_bytes(digest[:8], "big"))
        self._block = None  # the numpy generator while it holds the stream

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def namespace(self) -> str:
        return self._namespace

    @property
    def _random(self) -> random.Random:
        """The python generator, holding the stream."""
        if self._block is not None:
            from repro.sim import vecmath

            vecmath.restore_stream(self._py, self._block)
            self._block = None
        return self._py

    def child(self, name: str) -> "SeededRng":
        """Derive an independent generator for a named component."""
        return SeededRng(self._seed, f"{self._namespace}/{name}")

    # Thin pass-throughs (the subset the simulator uses).

    def random(self) -> float:
        return self._random.random()

    def uniform_block(self, n: int):
        """``n`` uniforms in [0, 1), stream-identical to ``n`` ``random()`` calls.

        The fleet engine's bulk draw: an ``ndarray`` from the generator's
        numpy MT19937 when numpy is available (see
        :func:`repro.sim.vecmath.block_generator`), a ``list`` from
        ``random()`` otherwise. Both paths consume and produce the exact
        same stream, and scalar draws can be interleaved freely.
        """
        from repro.sim import vecmath

        if n < 0:
            raise ConfigurationError(f"uniform block size cannot be negative: {n}")
        if vecmath.numpy_or_none() is None:
            rnd = self._random.random
            return [rnd() for _ in range(n)]
        if self._block is None:
            self._block = vecmath.block_generator(self._py)
        return self._block.random_sample(n)

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def lognormvariate(self, mu: float, sigma: float) -> float:
        return self._random.lognormvariate(mu, sigma)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def choice(self, seq):
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        self._random.shuffle(seq)

    def randbytes(self, n: int) -> bytes:
        return self._random.getrandbits(8 * n).to_bytes(n, "big") if n else b""

    def __repr__(self) -> str:
        return f"SeededRng(seed={self._seed}, namespace={self._namespace!r})"
