"""The one switch for the optional numpy dependency.

numpy is an accelerator, never a requirement. The fleet kernels
(:mod:`repro.sim.vecmath` and its callers), the ChaCha20 lanes
(:mod:`repro.crypto.chacha20`), the Poly1305 lanes
(:mod:`repro.crypto.poly1305`), the histogram's block observe
(:meth:`repro.obs.metrics.Histogram.observe_block`) and the trace
reader's block decoder (:mod:`repro.sim.replay.format`) each have a
pure-python twin with bitwise-identical output, and ask
:func:`numpy_or_none` which one to run; no other module of
``src/repro`` imports numpy (``make lint`` checks). The module sits
outside the packages so ``crypto`` need not import ``sim``.

numpy is imported with this module, so a process pays for the import
where it imports the package, not in whichever call first needs an
array.
"""

from __future__ import annotations

__all__ = ["numpy_or_none"]

try:
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised via _FORCE_FALLBACK
    _numpy = None

# Test hook: monkeypatch to True to exercise the pure-python fallbacks
# with numpy still importable (tests/sim/test_vec_fallback.py,
# tests/crypto/test_chacha20.py, tests/crypto/test_crypto_oracle.py).
_FORCE_FALLBACK = False


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when absent (or forced off)."""
    return None if _FORCE_FALLBACK else _numpy
