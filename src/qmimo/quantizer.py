"""MSE-optimal (Lloyd-Max) scalar quantizers for the standard normal input.

The design, complex quantization of real and imaginary parts, and the
distortion factor with its two closed-form approximations. README,
"Quantizer design", gives the design's numerics and input scaling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

__all__ = [
    "ScalarQuantizer",
    "DistortionTable",
    "lloyd_max_design",
    "gamma_approx",
    "quantizer_mse",
    "distortion_table",
]

# resolutions above this use the high-resolution approximation instead of
# a designed quantizer; the distortion factor is already < 1e-7 there
TABLE_MAX_BITS = 12

# quantize_real indexes codebooks up to this resolution by counting
# thresholds, one vectorised pass each, into a uint8 index; beyond it a
# binary search is cheaper
_COUNT_MAX_BITS = 7

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_SQRT_2 = math.sqrt(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)

# the Lloyd-Max Newton solve stops once every codeword is within _TOL of
# its centroid; from the quantile start it needs at most 5 steps for
# b <= 12, so reaching _MAX_STEPS means it failed
_TOL = 1e-10
_MAX_STEPS = 50


def _whole(value, name: str = "bits") -> int:
    """``value`` as a whole number >= 1: the rule for a per-chain resolution, and for a count.

    An integral value of any numeric type counts as that integer; anything
    else, a boolean or a non-integral value included, raises ``ValueError``
    naming ``name`` and the value.
    """
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not float(value).is_integer() or value < 1):
        raise ValueError(f"{name} must be a whole number >= 1, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class ScalarQuantizer:
    """A scalar quantizer given by its thresholds and codebook.

    ``thresholds`` holds ``2**bits + 1`` strictly increasing decision levels
    from ``-inf`` to ``+inf`` and ``codebook`` the ``2**bits`` strictly
    increasing output levels; anything else raises ``ValueError``, as does
    a ``bits`` outside the rule of ``_whole``.
    """

    bits: int
    thresholds: np.ndarray
    codebook: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _whole(self.bits))
        t = np.array(self.thresholds, dtype=float)
        c = np.array(self.codebook, dtype=float)
        nq = 2 ** self.bits
        if t.shape != (nq + 1,) or c.shape != (nq,):
            raise ValueError("thresholds/codebook length inconsistent with bits")
        if not (np.isneginf(t[0]) and np.isposinf(t[-1])):
            raise ValueError("end thresholds must be -inf and +inf")
        if np.any(np.diff(t) <= 0) or np.any(np.diff(c) <= 0):
            raise ValueError("thresholds and codebook must be strictly increasing")
        t.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "codebook", c)

    @property
    def num_levels(self) -> int:
        return self.codebook.size

    def quantize_real(self, x):
        """Quantize real input(s) elementwise.

        Input ``x`` in the half-open cell ``(t_i, t_{i+1}]`` maps to
        codebook level ``i``; exactly-zero input maps to the first
        positive level (the cell whose open end is 0), and NaN to the top
        level.
        """
        x = np.asarray(x, dtype=float)
        inner = self.thresholds[1:-1]
        if self.bits <= _COUNT_MAX_BITS:
            # top level minus the thresholds at or above x: the count of
            # thresholds below x, as searchsorted gives it; NaN compares
            # false everywhere and stays at the top level, as it sorts last
            idx = np.full(x.shape, self.num_levels - 1, dtype=np.uint8)
            for t in inner.tolist():
                idx -= x <= t
        else:
            idx = np.asarray(np.searchsorted(inner, x, side="left"))
        idx[x == 0.0] = self.num_levels // 2
        return self.codebook.take(idx)

    def quantize(self, x):
        """Quantize complex input(s): real and imaginary parts independently, same shape."""
        x = np.asarray(x)
        if np.iscomplexobj(x):
            parts = np.ascontiguousarray(x, dtype=complex).reshape(-1).view(float)
            # [()] makes a 0-d result a scalar, as quantize_real returns it
            return self.quantize_real(parts).view(complex).reshape(x.shape)[()]
        return self.quantize_real(x)


# ---------------------------------------------------------------------------
# Closed-form Gaussian MSE
# ---------------------------------------------------------------------------

def _thresholds_from_codebook(codebook: np.ndarray) -> np.ndarray:
    """Interval ends at codeword midpoints, open-ended outermost cells."""
    t = np.empty(codebook.size + 1)
    t[0], t[-1] = -np.inf, np.inf
    t[1:-1] = 0.5 * (codebook[:-1] + codebook[1:])
    return t


def _ndtr(t: np.ndarray) -> np.ndarray:
    """Standard-normal CDF ``Phi(t) = erfc(-t / sqrt 2) / 2``, elementwise.

    ``math.erfc`` keeps full relative precision far into the lower tail and
    gives exactly 0 and 1 at ``-inf`` and ``+inf``.
    """
    return 0.5 * _erfc(-t / _SQRT_2).astype(float)


def _cells(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard-normal pdf at the thresholds ``t`` and each cell's probability.

    Cells whose lower end is at or above 0 take differences of the survival
    function ``Phi(-t)``, so an upper tail cell does not cancel against 1.
    """
    pdf = np.exp(-0.5 * t * t) / _SQRT_2PI
    cdf = _ndtr(t)
    sf = _ndtr(-t)
    p = np.where(t[:-1] >= 0.0, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])
    return pdf, p


def quantizer_mse(q: ScalarQuantizer) -> float:
    """Exact MSE of ``q`` on a standard normal input.

    Uses the per-cell identity
    ``int_a^b (x-c)^2 phi(x) dx = (1+c^2)(Phi(b)-Phi(a))
    - 2c(phi(a)-phi(b)) + a*phi(a) - b*phi(b)``.
    """
    t, c = q.thresholds, q.codebook
    pdf, p = _cells(t)
    xpdf = np.zeros_like(t)
    finite = np.isfinite(t)
    xpdf[finite] = t[finite] * pdf[finite]
    cells = (1.0 + c**2) * p - 2.0 * c * (pdf[:-1] - pdf[1:]) + (xpdf[:-1] - xpdf[1:])
    return float(np.sum(cells))


# ---------------------------------------------------------------------------
# Lloyd-Max design
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _lloyd_max(bits: int) -> ScalarQuantizer:
    """``lloyd_max_design`` for a ``bits`` already checked by ``_whole``."""
    nq = 2**bits
    c = _quantile_codebook(nq)
    for _ in range(_MAX_STEPS):
        t = _thresholds_from_codebook(c)
        pdf, p = _cells(t)
        m = (pdf[:-1] - pdf[1:]) / p
        if np.max(np.abs(m - c)) <= _TOL:
            return ScalarQuantizer(bits=bits, thresholds=t, codebook=c)
        t_fin = np.where(np.isfinite(t), t, 0.0)  # pdf is 0 at the infinite ends
        dm_dtl = pdf[:-1] * (m - t_fin[:-1]) / p
        dm_dtr = pdf[1:] * (t_fin[1:] - m) / p
        c = c + _solve_tridiagonal(
            0.5 * dm_dtl[1:],                  # dm_j/dc_{j-1}
            0.5 * (dm_dtl + dm_dtr) - 1.0,
            0.5 * dm_dtr[:-1],                 # dm_j/dc_{j+1}
            c - m,
        )
    raise RuntimeError(
        f"Lloyd-Max design for {bits} bits did not converge in {_MAX_STEPS} Newton steps"
    )


def lloyd_max_design(bits: int) -> ScalarQuantizer:
    """The Lloyd-Max quantizer for a standard normal input, cached per ``bits``.

    Raises ``ValueError`` for a ``bits`` outside the rule of ``_whole``, checked
    before the cache, which keys ``True`` and ``3.0`` as ``1`` and ``3``, and
    ``RuntimeError`` if the Newton solve (README, "Quantizer design") does
    not converge.
    """
    return _lloyd_max(_whole(bits))


lloyd_max_design.cache_clear = _lloyd_max.cache_clear
lloyd_max_design.cache_info = _lloyd_max.cache_info


def _quantile_codebook(nq: int) -> np.ndarray:
    """Gaussian quantiles at the midpoints of ``nq`` equal-probability cells."""
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf((k + 0.5) / nq) for k in range(nq)])


def _solve_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = rhs`` for tridiagonal A by the Thomas algorithm.

    ``diag`` holds the n diagonal entries, ``lower`` the n - 1 entries
    ``A[j+1, j]`` and ``upper`` the n - 1 entries ``A[j, j+1]``. Without
    pivoting this needs A diagonally dominant. ``I - dm/dc`` of the
    Gaussian centroid map is: with ``a_j, b_j >= 0`` the derivatives of
    centroid j in its cell ends, row j is ``-a_j/2, 1 - (a_j + b_j)/2,
    -b_j/2``, and ``a_j + b_j < 1`` for a log-concave density.
    """
    lo, d, up, x = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    n = len(d)
    for j in range(n - 1):
        f = lo[j] / d[j]
        d[j + 1] -= f * up[j]
        x[j + 1] -= f * x[j]
    x[-1] /= d[-1]
    for j in range(n - 2, -1, -1):
        x[j] = (x[j] - up[j] * x[j + 1]) / d[j]
    return np.array(x)


# ---------------------------------------------------------------------------
# Distortion factor
# ---------------------------------------------------------------------------

def gamma_approx(bits: int, mode: str = "fitted") -> float:
    """Closed-form approximations of the distortion factor.

    ``high_res`` is the classical ``(sqrt(3)*pi/2) * 2**(-2b)``, accurate
    for many bits but overshooting badly at low resolution (0.680 vs the
    true 0.3634 at one bit). ``fitted`` is ``2**(-1.74b + 0.28)``, usable
    down to one bit. ``bits`` follows the rule of ``_whole``.
    """
    bits = _whole(bits)
    if mode == "high_res":
        return float((np.sqrt(3.0) * np.pi / 2.0) * 2.0 ** (-2 * bits))
    if mode == "fitted":
        return float(2.0 ** (-1.74 * bits + 0.28))
    raise ValueError(f"unknown mode {mode!r}; expected 'high_res' or 'fitted'")


class DistortionTable:
    """Distortion factor gamma(b) of the Lloyd-Max quantizer.

    Exact (``quantizer_mse``) up to ``TABLE_MAX_BITS``, each resolution
    designed on first use and kept; beyond it the high-resolution law.
    ``gamma`` checks ``bits`` by ``_whole`` before its memo.
    """

    def __init__(self):
        self._gamma: dict[int, float] = {}

    def gamma(self, bits: int) -> float:
        bits = _whole(bits)
        if bits > TABLE_MAX_BITS:
            return gamma_approx(bits, "high_res")
        if bits not in self._gamma:
            self._gamma[bits] = quantizer_mse(lloyd_max_design(bits))
        return self._gamma[bits]


@lru_cache(maxsize=None)
def distortion_table() -> DistortionTable:
    """The process-wide gamma table (each resolution designed on first use)."""
    return DistortionTable()
