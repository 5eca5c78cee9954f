"""Bit-reproducible vectorized math for the fleet engine.

The sharded fleet engine (:mod:`repro.sim.shard`) promises that a run
is a pure function of its seed — the same invoices and SLA reports
whether the work ran on 1 worker or 16, with numpy installed or not.
That promise dies the moment a hot loop calls ``numpy.log``: numpy's
SIMD transcendentals differ from libm's in the last ulp, so a numpy
run and a pure-python fallback run would diverge bit-by-bit.

This module is the fix. Every kernel here exists in two forms — a
numpy array form and a plain-python scalar form — that execute the
*identical sequence of IEEE-754 double operations*, so their outputs
are bitwise equal:

* :func:`block_generator` / :func:`restore_stream` — a
  :class:`random.Random`'s stream moved into a numpy MT19937 and back
  (CPython's ``random()`` and ``RandomState.random_sample`` share the
  same 53-bit recipe over the same generator, so the streams match
  exactly); :meth:`repro.sim.rng.SeededRng.uniform_block` draws its
  blocks through one.
* :func:`plog` / ``plog_block`` — a portable fdlibm-style ``log``
  built from +,-,*,/ and exponent bit-twiddling only. Used for the
  exact exponential tail; ~0.5 ulp accuracy.
* :class:`QuantileTable` — inverse-CDF sampling through a uniform-grid
  quantile table. Its values cannot depend on numpy's presence: the
  shared normal grid's numpy twin runs the scalar build's operations
  and libm calls, and the rest is scalar python; sampling is one
  gather plus a linear interpolation, which is pure arithmetic and
  therefore bit-reproducible. This is how the fleet engine samples
  log-normal latencies and exponential arrival gaps at tens of
  millions of draws per second on one core.

Determinism contract: for any input block, ``f(block)`` under numpy
equals ``[f(x) for x in block]`` under the fallback, bit for bit.
``tests/sim/test_vec_fallback.py`` enforces it, switching numpy off
through ``repro._optional._FORCE_FALLBACK``; :func:`numpy_or_none` is
re-exported from there.

Importing this module is the fleet engines' numpy set-up: every fleet,
replay and trace-reader module imports it, and it loads numpy (and
``numpy.random``, which numpy itself loads lazily) here, so no timed
call pays for either. The app path never imports it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro._optional import numpy_or_none
from repro.errors import ConfigurationError

__all__ = [
    "numpy_or_none",
    "block_generator",
    "restore_stream",
    "plog",
    "plog_block",
    "norm_ppf",
    "QuantileTable",
    "lognormal_table",
    "exponential_table",
    "exponential_gaps",
]

# -- block uniforms ------------------------------------------------------

_np = numpy_or_none()
if _np is not None:
    _np.random  # numpy imports its random package on first access


def block_generator(pyrandom):
    """A numpy ``RandomState`` that continues ``pyrandom``'s stream.

    Its ``random_sample(n)`` draws what ``n`` successive
    ``pyrandom.random()`` calls would; ``pyrandom`` itself is left where
    it was, so hand the stream back with :func:`restore_stream` before
    drawing from it again.
    """
    np = numpy_or_none()
    internal = pyrandom.getstate()[1]
    state = np.random.RandomState(0)
    state.set_state(("MT19937", np.asarray(internal[:-1], dtype=np.uint32), internal[-1]))
    return state


def restore_stream(pyrandom, state) -> None:
    """Move the stream ``state`` has reached back into ``pyrandom``."""
    _, key, pos = state.get_state()[:3]
    pyrandom.setstate((pyrandom.VERSION, tuple(key.tolist()) + (int(pos),), pyrandom.gauss_next))


# -- portable log (fdlibm) ----------------------------------------------

_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_SQRT_HALF = 0.7071067811865476
_LG1 = 6.666666666666735130e-01
_LG2 = 3.999999999940941908e-01
_LG3 = 2.857142874366239149e-01
_LG4 = 2.222219843214978396e-01
_LG5 = 1.818357216161805012e-01
_LG6 = 1.531383769920937332e-01
_LG7 = 1.479819860511658591e-01

_MANT_MASK = 0x000FFFFFFFFFFFFF
_HALF_EXP = 0x3FE0000000000000


def plog(x: float) -> float:
    """Portable ``log`` for normal positive doubles (~0.5 ulp).

    The scalar twin of :func:`plog_block`: the same reduction and the
    same polynomial in the same order, so results are bitwise equal.
    """
    m, e = math.frexp(x)  # m in [0.5, 1)
    if m < _SQRT_HALF:
        m = m + m
        e = e - 1
    f = m - 1.0
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    t1 = w * (_LG2 + w * (_LG4 + w * _LG6))
    t2 = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7)))
    r = t2 + t1
    hfsq = 0.5 * f * f
    k = float(e)
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + k * _LN2_LO)) - f)


def plog_block(x):
    """Vectorized :func:`plog` over an array of normal positive doubles."""
    np = numpy_or_none()
    if np is None:
        return [plog(v) for v in x]
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    e = (bits >> 52) - 1022  # frexp exponent for normalized doubles
    m = ((bits & _MANT_MASK) | _HALF_EXP).view(np.float64)  # frexp mantissa
    low = m < _SQRT_HALF
    m = np.where(low, m + m, m)
    e = e - low
    f = m - 1.0
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    t1 = w * (_LG2 + w * (_LG4 + w * _LG6))
    t2 = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7)))
    r = t2 + t1
    hfsq = 0.5 * f * f
    k = e.astype(np.float64)
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + k * _LN2_LO)) - f)


# -- inverse normal CDF (table construction only) ------------------------

_PPF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_PPF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_PPF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_PPF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def norm_ppf(p: float) -> float:
    """Standard-normal quantile (Acklam's approximation + one Halley step).

    Scalar python only — it runs at table *construction* time, never in
    a hot loop, so its exact libm behaviour is shared by both paths.
    Accurate to ~1e-15 after refinement.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"norm_ppf needs p in (0, 1), got {p}")
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
             / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    elif p <= 1.0 - 0.02425:
        q = p - 0.5
        r = q * q
        x = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
             / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
              / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _per_element(np, fn, x):
    """``fn`` (a :mod:`math` function) over the array ``x``, one libm call each."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=len(x))


def _norm_ppf_block(np, p):
    """:func:`norm_ppf` over an array of ``p`` in (0, 1), bit for bit.

    The same IEEE operations in the same order: ``+ - * /`` and ``sqrt``
    as array ops, which round exactly like their scalar twins, and
    ``log``, ``erfc`` and ``exp`` through :mod:`math` per element.
    """
    a, b, c, d = _PPF_A, _PPF_B, _PPF_C, _PPF_D
    q = p - 0.5
    r = q * q
    x = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
         / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))
    low = p < 0.02425
    high = p > 1.0 - 0.02425
    for tail, tail_p, sign in ((low, p[low], 1.0), (high, 1.0 - p[high], -1.0)):
        if len(tail_p):
            q = np.sqrt(-2.0 * _per_element(np, math.log, tail_p))
            x[tail] = sign * ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                              / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    err = 0.5 * _per_element(np, math.erfc, -x / _SQRT_2) - p
    u = err * _SQRT_2PI * _per_element(np, math.exp, x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


# -- quantile-table sampling ---------------------------------------------


class QuantileTable:
    """Inverse-CDF sampling over a uniform grid of ``2**bits`` quantiles.

    ``values[i]`` holds the distribution's quantile at ``p = i / K``
    (edges clamped to their nearest interior quantile), so sampling is
    ``idx = int(u * K)`` plus a linear interpolation toward
    ``values[idx + 1]`` — pure arithmetic, bit-reproducible with and
    without numpy. The edge clamping truncates the distribution's
    extreme ``1/K`` tails; at the default 16-bit resolution that is the
    ±4.2σ region of a normal, invisible to p99s and billing
    granularity. Callers that need an exact tail (the exponential
    arrival gaps) branch to a closed form above :attr:`tail_p`.
    """

    __slots__ = ("bits", "size", "values", "_array")

    def __init__(self, values: Sequence[float], bits: int):
        if len(values) != (1 << bits) + 1:
            raise ConfigurationError(
                f"quantile table needs 2**{bits} + 1 values, got {len(values)}"
            )
        self.bits = bits
        self.size = 1 << bits
        self.values: Tuple[float, ...] = tuple(float(v) for v in values)
        self._array = None  # numpy mirror, built lazily

    @property
    def tail_p(self) -> float:
        """The probability above which the top table bin would go flat."""
        return (self.size - 1) / self.size

    def _np_values(self, np):
        if self._array is None:
            self._array = np.asarray(self.values, dtype=np.float64)
        return self._array

    def sample_block(self, uniforms):
        """Map a block of uniforms in [0, 1) through the table.

        Returns an ``ndarray`` when ``uniforms`` is one, else a list;
        values are bitwise identical either way.
        """
        np = numpy_or_none()
        if np is not None and not isinstance(uniforms, list):
            table = self._np_values(np)
            frac = np.asarray(uniforms, dtype=np.float64) * self.size
            idx = frac.astype(np.int64)
            frac -= idx
            lo = table.take(idx)
            # lo + frac * (hi - lo), in place and in the scalar path's
            # IEEE order (+ and * commute exactly).
            out = table[1:].take(idx)
            out -= lo
            out *= frac
            out += lo
            return out
        values = self.values
        size = self.size
        out = []
        append = out.append
        for u in uniforms:
            pos = u * size
            idx = int(pos)
            frac = pos - idx
            lo = values[idx]
            append(lo + frac * (values[idx + 1] - lo))
        return out


_TABLE_BITS_DEFAULT = 16
_GRID_BLOCK = 4096  # quantiles per array pass: small temporaries, few passes
_normal_grids: Dict[int, List[float]] = {}
_lognormal_tables: Dict[Tuple[float, float, float, int], QuantileTable] = {}
_exponential_tables: Dict[int, QuantileTable] = {}


def _normal_grid(bits: int) -> List[float]:
    """The (cached) standard-normal quantiles at ``i / 2**bits``, ``i`` from 1 to ``2**bits - 1``.

    Every log-normal table of a resolution shares this one grid, so a
    process builds it once per resolution, not once per table (``make
    lint`` keeps every other caller of :func:`norm_ppf` out). Under
    numpy, :func:`_norm_ppf_block` builds it ``_GRID_BLOCK`` quantiles
    at a time, bit for bit the scalar grid.
    """
    grid = _normal_grids.get(bits)
    if grid is None:
        size = 1 << bits
        np = numpy_or_none()
        if np is None:
            grid = _normal_grids[bits] = [norm_ppf(i / size) for i in range(1, size)]
        else:
            grid = []
            for lo in range(1, size, _GRID_BLOCK):
                p = np.arange(lo, min(lo + _GRID_BLOCK, size), dtype=np.float64) / size
                grid += _norm_ppf_block(np, p).tolist()
            _normal_grids[bits] = grid
    return grid


def lognormal_table(
    mu: float, sigma: float, scale: float = 1.0, bits: int = _TABLE_BITS_DEFAULT
) -> QuantileTable:
    """The (cached) quantile table of ``scale * LogNormal(mu, sigma)``.

    Built so the values are independent of numpy's presence; ``scale``
    folds a constant factor (the Lambda memory penalty) into the table
    instead of into every sample. The standard-normal quantiles come
    from the shared :func:`_normal_grid`: at the default 16 bits it
    takes about 13 ms once per process under numpy and 66 ms without,
    and each table is then one scalar ``scale * exp(mu + sigma * z)``
    pass of about 0.011 s (2-vCPU host, CPython 3.11), where building
    every table from ``norm_ppf`` took about 0.10 s a table. The values
    are bit for bit those of the per-table build.
    """
    key = (mu, sigma, scale, bits)
    table = _lognormal_tables.get(key)
    if table is None:
        exp = math.exp
        body = [scale * exp(mu + sigma * z) for z in _normal_grid(bits)]
        table = QuantileTable([body[0], *body, body[-1]], bits)
        _lognormal_tables[key] = table
    return table


def exponential_table(bits: int = _TABLE_BITS_DEFAULT) -> QuantileTable:
    """The (cached) quantile table of the unit exponential."""
    table = _exponential_tables.get(bits)
    if table is None:
        size = 1 << bits
        values = [0.0] * (size + 1)
        for i in range(1, size):
            values[i] = -math.log1p(-i / size)
        values[size] = values[size - 1]
        table = QuantileTable(values, bits)
        _exponential_tables[bits] = table
    return table


def exponential_gaps(uniforms, bits: int = _TABLE_BITS_DEFAULT):
    """Unit-exponential variates: table body, exact ``plog`` tail.

    Uniforms below the table's last interior quantile go through the
    interpolated table; the top ``1/K`` tail — where the exponential
    quantile function's curvature would make a flat bin a real bias —
    uses the portable log directly, so the distribution keeps its exact
    unbounded tail.
    """
    table = exponential_table(bits)
    tail_p = table.tail_p
    np = numpy_or_none()
    if np is not None and not isinstance(uniforms, list):
        u = np.asarray(uniforms, dtype=np.float64)
        out = table.sample_block(u)
        tail = u >= tail_p
        if tail.any():
            out[tail] = -plog_block(1.0 - u[tail])
        return out
    out = table.sample_block(uniforms)
    for i, u in enumerate(uniforms):
        if u >= tail_p:
            out[i] = -plog(1.0 - u)
    return out
