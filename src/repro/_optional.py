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

numpy is imported on the first call of :func:`numpy_or_none`, not with
this module, so a process that never runs an array kernel (a chat
deployment, say) never loads it. The fleet engines pay for it in their
set-up: :mod:`repro.sim.vecmath`, which every fleet, replay and
trace-reader module imports, calls the switch when it is imported, and
``make lint`` keeps every other module-level call out. The crypto lanes
load numpy on their first message above their crossover.
"""

from __future__ import annotations

__all__ = ["numpy_or_none"]

# Test hook: monkeypatch to True to exercise the pure-python fallbacks
# with numpy still importable (tests/sim/test_vec_fallback.py,
# tests/crypto/test_chacha20.py, tests/crypto/test_crypto_oracle.py).
_FORCE_FALLBACK = False

# The numpy module once imported, None when it is absent, and Ellipsis
# until the first call has tried.
_numpy = ...


def numpy_or_none():
    """The ``numpy`` module, or ``None`` when absent (or forced off)."""
    global _numpy
    if _FORCE_FALLBACK:
        return None
    if _numpy is ...:
        try:
            import numpy as _numpy
        except ImportError:
            _numpy = None
    return _numpy
