"""The one switch for the optional numpy dependency.

numpy is an accelerator, never a requirement. The fleet kernels
(:mod:`repro.sim.vecmath` and its callers) and the ChaCha20 lanes
(:mod:`repro.crypto.chacha20`) each have a pure-python twin with
bitwise-identical output, and ask :func:`numpy_or_none` which one to
run. The module sits outside both packages so ``crypto`` need not
import ``sim``.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["numpy_or_none"]

# Test hook: monkeypatch to True to exercise the pure-python fallbacks
# with numpy still importable (tests/sim/test_vec_fallback.py,
# tests/crypto/test_chacha20.py).
_FORCE_FALLBACK = False

_numpy_cache: Optional[object] = None
_numpy_checked = False


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when absent (or forced off)."""
    global _numpy_cache, _numpy_checked
    if _FORCE_FALLBACK:
        return None
    if not _numpy_checked:
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised via _FORCE_FALLBACK
            numpy = None
        _numpy_cache = numpy
        _numpy_checked = True
    return _numpy_cache
