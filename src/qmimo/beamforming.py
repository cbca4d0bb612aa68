"""Transmit/receive beamforming under quantization: SE, WF baseline, WMMSE.

The achievable-rate lower bound treats the quantization distortion as
Gaussian effective noise. For fixed per-chain resolutions, the precoder
and combiner are obtained by alternating minimization of a weighted MSE
objective whose fixed points coincide with the rate maximizer; the
eigen-mode water-filling solution serves as both the unquantized baseline
and the initializer. ``g`` and ``ce`` are the length-Nr diagonals of ``G``
and ``C_e``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .bussgang import effective_noise_cov, gain_diagonal, noise_weights

__all__ = [
    "Beamformers",
    "AltMinReport",
    "Link",
    "spectral_efficiency",
    "waterfilling_power",
    "waterfilling_baseline",
    "receive_updates",
    "update_combiner",
    "update_weight",
    "update_precoder",
    "mse_matrix",
    "altmin_beamforming",
]

_RIDGE = 1e-12
_EPS = float(np.finfo(float).eps)
# the precoder's power tolerances, relative to pt: the bisection's band
# |P(mu) - pt| and the minimum-norm branch's acceptance P(0) <= pt (1 + ...)
_POWER_RTOL = 1e-8
_MIN_NORM_RTOL = 1e-9
# the precoder bisection's certified bracket: a grid of 2**-0.5 steps below
# the initial upper end, and a cap on the Newton steps from its root side
_GRID = (2.0 ** (-0.5 * np.arange(121))).tolist()
_NEWTON_STEPS = 8


@functools.lru_cache
def _identity(n: int) -> np.ndarray:
    """The n x n identity, read-only: one array per size for every update."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class Beamformers:
    """Precoder F (Nt x Ns), combiner U (Nr x Ns), WMMSE weight W (Ns x Ns).

    From :func:`altmin_beamforming`, U and W are both taken at the returned F.
    """

    F: np.ndarray
    U: np.ndarray
    W: np.ndarray


@dataclass(frozen=True)
class AltMinReport:
    iterations: int
    objective_trace: np.ndarray  # natural-log det W per iteration
    final_se: float              # bits/s/Hz
    converged: bool
    iterate: tuple[np.ndarray, float]  # last F on range(H^H) and its multiplier


class Link(NamedTuple):
    """H, gains g and cutoff dimension nt, with ``Link.of``'s products (README, "Beamforming")."""

    H: np.ndarray
    g: np.ndarray
    nt: int
    Hh: np.ndarray   # H^H
    Hhg: np.ndarray  # H^H diag(g)
    omg: np.ndarray  # 1 - g

    @classmethod
    def of(cls, H: np.ndarray, g: np.ndarray, nt: int) -> Link:
        """``g`` is a (B, Nr) stack of gains, one per problem of a stack, or one problem's Nr gains."""
        Hh = H.conj().T
        return cls(H, g, nt, Hh, Hh * g[..., None, :], 1.0 - g)


# numpy.linalg's eigh, solve and slogdet without the wrappers' argument
# checks: the same LAPACK kernels under the same error states, so the same
# floats and LinAlgErrors for float64 and complex128 input (README, "Beamforming")
def _lapack_errors(message: str) -> np.errstate:
    """The error state of numpy.linalg's eigh and solve: a LAPACK failure raises ``LinAlgError(message)``."""
    def fail(err: str, flag: int) -> None:
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_lapack_errors("Eigenvalues did not converge")
def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _umath_linalg.eigh_lo(a)


@_lapack_errors("Singular matrix")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _umath_linalg.solve(a, b)


def _logdet_hermitian(A: np.ndarray) -> float | list[float]:
    """``log det A`` of a Hermitian positive definite A, or the list of them over a stack."""
    sign, ld = _umath_linalg.slogdet(A)
    out = ld.tolist()
    for s, x in zip(sign.real.tolist(), out) if A.ndim > 2 else [(sign.real, out)]:
        if s <= 0 or not math.isfinite(x):
            raise np.linalg.LinAlgError("matrix is not positive definite")
    return out


def spectral_efficiency(H: np.ndarray, F: np.ndarray, U: np.ndarray,
                        g: np.ndarray, C_e: np.ndarray) -> float:
    """Achievable rate (bits/s/Hz) of the linearized quantized link.

    ``R = log2 det(I + (U^H C_e U)^{-1} U^H G H F F^H H^H G U)`` on an
    orthonormal basis of ``range(U)`` (README, "Beamforming"), for
    ``g`` the diagonal of ``G`` and ``C_e`` a length-Nr diagonal or a full
    matrix. A singular ``U^H C_e U`` is ridged with 1e-12 I, with a warning.
    """
    Q, s, _ = np.linalg.svd(U, full_matrices=False)
    if s.max(initial=0.0) > 0:
        U = Q[:, s > s.max() * max(U.shape) * _EPS]
    T = U.conj().T @ ((g[:, None] * H) @ F)
    A = (U.conj().T * C_e) @ U if C_e.ndim == 1 else U.conj().T @ C_e @ U
    A = 0.5 * (A + A.conj().T)
    M = T @ T.conj().T
    try:
        ld_noise = _logdet_hermitian(A)
    except np.linalg.LinAlgError:
        warnings.warn(
            "singular post-combining noise covariance; regularizing with 1e-12 I",
            RuntimeWarning,
            stacklevel=2,
        )
        A = A + _RIDGE * np.eye(A.shape[0])
        ld_noise = _logdet_hermitian(A)
    ld_total = _logdet_hermitian(A + M)
    return max((ld_total - ld_noise) / np.log(2.0), 0.0)


def waterfilling_power(gains: np.ndarray, pt: float) -> np.ndarray:
    """Water-filling power allocation over parallel channels.

    ``gains`` are channel-to-noise power ratios; returns per-channel
    powers summing to ``pt`` whenever at least one channel is active.
    Channels with zero (or numerically negligible) gain get zero power.
    """
    gains = np.asarray(gains, dtype=float)
    p = np.zeros_like(gains)
    active = gains > gains.max() * 1e-14 if gains.size and gains.max() > 0 else np.zeros_like(gains, bool)
    if not np.any(active):
        return p
    idx = np.where(active)[0]
    order = idx[np.argsort(-gains[idx])]
    inv = 1.0 / gains[order]
    for k in range(order.size, 0, -1):
        level = (pt + np.sum(inv[:k])) / k
        if level > inv[k - 1]:
            p[order[:k]] = level - inv[:k]
            break
    return p


def waterfilling_baseline(H: np.ndarray, pt: float, sigma_n2: float,
                          ns: int) -> Beamformers:
    """Eigen-mode transmission with water-filling power allocation.

    The combiner takes the ``ns`` leading left singular vectors, the
    precoder the leading right singular vectors scaled by the water-filled
    powers on the singular-value SNRs. Streams beyond the channel rank
    receive zero power. F and U are the caller's copies of F0 and
    ``Z[:, :ns]`` from the channel's one thin SVD (:func:`_reduce`).
    """
    _, _, F0, _, Z = _reduce(H, pt, sigma_n2, ns)
    return Beamformers(F=F0.copy(order="K"), U=Z.copy(order="K"), W=np.eye(ns, dtype=complex))


def receive_updates(GHF: np.ndarray, ce: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(W, U)``: the weight and MMSE combiner at the same F, from ``GHF = G H F`` and ``ce``.

    Like the two updates, it takes a stack of problems along a leading axis.
    """
    CiGHF = GHF / ce[..., None]
    W = update_weight(GHF, CiGHF)
    return W, update_combiner(CiGHF, W)


def update_combiner(CiGHF: np.ndarray, W: np.ndarray) -> np.ndarray:
    """MMSE combiner, by Woodbury ``C_e^{-1} G H F W^{-1}``, from ``CiGHF`` and W at the same F."""
    return _solve(W, CiGHF.conj().mT).conj().mT


def update_weight(GHF: np.ndarray, CiGHF: np.ndarray) -> np.ndarray:
    """WMMSE weight W = I + F^H H^H G C_e^{-1} G H F from ``GHF`` and ``CiGHF``."""
    W = GHF.conj().mT @ CiGHF
    W += _identity(GHF.shape[-1])
    W += W.conj().mT
    W *= 0.5
    return W


def mse_matrix(H: np.ndarray, F: np.ndarray, U: np.ndarray, g: np.ndarray,
               ce: np.ndarray) -> np.ndarray:
    """MSE matrix of the post-combined streams from vectors g, ce (Hermitian)."""
    GHF = (g[:, None] * H) @ F
    A = GHF @ GHF.conj().T
    A.flat[::A.shape[0] + 1] += ce
    E = (U.conj().T @ A @ U + np.eye(F.shape[1])
         - U.conj().T @ GHF - GHF.conj().T @ U)
    return 0.5 * (E + E.conj().T)


def update_precoder(link: Link, U: np.ndarray, W: np.ndarray, pt: float,
                    mu: float | list[float] = 0.0) -> tuple[np.ndarray, float | list[float]]:
    """Power-constrained precoder update of the weighted-MSE objective, as ``(F, mu)``.

    ``F(mu) = (J + mu I)^{-1} T W`` with ``T = H^H G U``, ``d = diag(U W U^H)``
    and ``J = T W T^H + H^H diag(d (1 - g) g) H``, whose last term carries
    the distortion's dependence on F: the WMMSE transmit step of Shi,
    Razaviyayn, Luo & He, "An iteratively weighted MMSE approach to
    distributed sum-utility maximization for a MIMO interfering broadcast
    channel", IEEE TSP 2011. README, "Beamforming", gives mu, which is 0 on
    the minimum-norm branch. H and g come from ``link``; ``pt <= 0`` raises.
    ``mu``, the previous update's multiplier, starts the multiplier search
    and changes no float of the result. U and W are (B, Nr, Ns) and
    (B, Ns, Ns) stacks, one problem per slice with ``link`` of a (B, Nr)
    stack of gains, and ``mu`` is a list of B floats, as is the returned
    one. A lone 2-D problem runs as a stack of one and returns a 2-D F and
    a float.
    """
    if not pt > 0:
        raise ValueError(f"pt must be positive, got {pt}")
    lone = U.ndim == 2
    U, W, mu = (U[None], W[None], [mu]) if lone else (U, W, list(mu))
    T = link.Hhg @ U
    rhs = T @ W
    d = np.einsum("...ij,...ij->...i", U @ W, U.conj()).real
    J = rhs @ T.conj().mT + (link.Hh * (d * link.omg * link.g)[..., None, :]) @ link.H
    J += J.conj().mT
    J *= 0.5
    lam, Q = _eigh(J)
    c = Q.conj().mT @ rhs
    c2 = (np.abs(c) ** 2).sum(axis=-1)
    kept = {}
    for i, (lam_i, c2_i, rhs_i) in enumerate(zip(lam, c2, rhs)):
        terms = list(zip(lam_i.tolist(), c2_i.tolist()))
        # the cutoff of lstsq(rcond=None): eigenvalues below it count as zero;
        # eigh sorts lam, so max|lam| is at one end (a channel of rank 0 has none)
        cut = _EPS * link.nt * max(-terms[0][0], terms[-1][0]) if terms else 0.0
        if _minimum_norm_fits(terms, cut, pt * (1.0 + _MIN_NORM_RTOL)):
            mu[i], kept[i] = 0.0, np.abs(lam_i) > cut
            continue
        # ||T W||_F, summed as np.linalg.norm sums it
        x = rhs_i.ravel()
        hi = math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)) / math.sqrt(pt)
        mu[i] = _bisect_multiplier(lam_i, c2_i, terms, pt, hi, mu[i])
    if not kept:  # F = (J + mu I)^{-1} T W = Q (c / (lam + mu))
        F = Q @ (c / (lam + np.array(mu)[:, None])[..., None])
    else:
        # the minimum-norm branch, rare, one problem at a time: Q[:, keep] is a
        # copy whose layout can change a matrix-vector product's rounding
        F = np.empty_like(c)
        rest = [i for i in range(len(mu)) if i not in kept]
        if rest:
            F[rest] = Q[rest] @ (c[rest] / (lam[rest] + np.array(mu)[rest, None])[..., None])
        for i, keep in kept.items():
            F[i] = Q[i][:, keep] @ (c[i][keep] / lam[i][keep, None])
    return (F[0], mu[0]) if lone else (F, mu)


def _minimum_norm_fits(terms: list[tuple[float, float]], cut: float, limit: float) -> bool:
    """Whether ``np.sum(c2[keep] / lam[keep]**2) <= limit``, ``keep = |lam| > cut`` (README)."""
    x = [c / (l * l) for l, c in terms if abs(l) > cut]
    return float(np.array(x).sum()) <= limit


def _bisect_multiplier(lam: np.ndarray, c2: np.ndarray, terms: list[tuple[float, float]],
                       pt: float, hi: float, start: float) -> float:
    """The midpoint at which bisection on ``[0, hi]`` finds ``|P(mu) - pt| <= _POWER_RTOL pt``.

    ``P(mu) = c2 @ (lam + mu)**-2``; ``terms`` holds ``(lam_i, c2_i)`` as
    Python floats. Bisection, not Newton, picks mu: SE is pinned at rtol
    1e-9, and another root-finder would settle elsewhere inside that
    power tolerance. Midpoints outside the bracket of
    :func:`_certified_bracket`, whose Newton steps begin at ``start`` if it
    lies above the floor, take their side without evaluating P.
    """
    tol = _POWER_RTOL * pt
    floor = max(0.0, -terms[0][0])
    a, b = _certified_bracket(terms, pt, hi, tol, floor, start)
    lo = 0.0
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        if floor < mu <= a:
            lo = mu
            continue
        if mu >= b:
            hi = mu
            continue
        power = float(c2 @ (lam + mu) ** -2)
        if abs(power - pt) <= tol:
            break
        if power > pt:
            lo = mu
        else:
            hi = mu
    return mu


def _certified_bracket(terms: list[tuple[float, float]], pt: float, hi: float,
                       tol: float, floor: float, start: float) -> tuple[float, float]:
    """``(a, b)`` with ``P(mu) > pt + tol`` on ``(floor, a]`` and ``P(mu) < pt - tol`` on ``[b, inf)``.

    P over ``terms`` strictly decreases for ``mu > floor = max(0, -lam[0])``.
    Newton steps on the concave ``P**-0.5`` (More & Sorensen, "Computing a
    trust region step", SIAM J. Sci. Stat. Comput. 1983) climb to the root
    mu*, first from ``start`` (the previous precoder update's multiplier)
    if it lies above floor. If that start yields no bracket, they climb
    from the largest point of the grid ``hi * 2**(-k/2)`` above floor with
    ``P > pt``, which lies left of the root; bisection on k finds it. With
    ``w = tol / |P'(mu*)|`` the band ``|P - pt| <= tol`` is about
    ``mu* +- w``, so ``a = mu* - 1.01 w`` and ``b = mu* + 1.01 w``. Both
    ends are accepted only if P, evaluated there, clears the band by a
    relative ``1e-12``, far above the rounding error of a sum of positive
    terms; by monotonicity every midpoint beyond them then takes the same
    side as its own evaluation would, whichever start found them.
    Otherwise ``(-1, inf)``. The search, the Newton steps and the check run
    in Python floats, which at the sizes of a precoder cost no more than
    numpy calls.
    """
    if start > floor:
        bracket = _newton_bracket(terms, pt, tol, floor, start)
        if bracket[1] < math.inf:
            return bracket
    # the first k whose grid point is at or below floor or has P > pt
    left, right = -1, len(_GRID)
    while right - left > 1:
        k = (left + right) // 2
        mu = hi * _GRID[k]
        if mu <= floor or _power_and_slope(terms, mu)[0] > pt:
            right = k
        else:
            left = k
    if right == len(_GRID) or not hi * _GRID[right] > floor:
        return -1.0, math.inf
    return _newton_bracket(terms, pt, tol, floor, hi * _GRID[right])


def _newton_bracket(terms: list[tuple[float, float]], pt: float, tol: float, floor: float,
                    mu: float) -> tuple[float, float]:
    """:func:`_certified_bracket`'s Newton steps from ``mu > floor`` and its end checks."""
    w = 0.0
    for _ in range(_NEWTON_STEPS):
        p, s3 = _power_and_slope(terms, mu)
        if not s3 > 0.0:
            return -1.0, math.inf
        w = tol / (2.0 * s3)
        # Newton on P**-0.5 = pt**-0.5, with P' = -2 s3; a step from the
        # right of the root lands left of it, one from the left stays left
        step = p / s3 * (math.sqrt(p / pt) - 1.0)
        mu += step
        if not mu > floor:
            return -1.0, math.inf
        # from the left, the next Newton step is at most about step**2 / (mu - floor)
        if step * step <= 1e-3 * w * (mu - floor):
            break
    a, b = mu - 1.01 * w, mu + 1.01 * w
    if not floor < a < b < math.inf:
        return -1.0, math.inf
    if (_power_and_slope(terms, a)[0] > (pt + tol) * (1.0 + 1e-12)
            and _power_and_slope(terms, b)[0] < (pt - tol) * (1.0 - 1e-12)):
        return a, b
    return -1.0, math.inf


def _power_and_slope(terms: list[tuple[float, float]], mu: float) -> tuple[float, float]:
    """``P(mu)`` and ``-P'(mu) / 2`` over ``terms = [(lam_i, c2_i)]``, for ``mu > -min lam``."""
    p = s3 = 0.0
    for l, c in terms:
        x = 1.0 / (l + mu)
        t = c * x * x
        p += t
        s3 += t * x
    return p, s3


def altmin_beamforming(H: np.ndarray, bits: Optional[Sequence[int]], pt: float,
                       sigma_n2: float, ns: int, eps: float = 1e-4, max_iter: int = 500,
                       start: Optional[AltMinReport] = None) -> tuple[Beamformers, AltMinReport]:
    """Alternating WMMSE beamforming for fixed per-chain ADC resolutions.

    From the water-filling precoder F0, cycles weight, combiner and
    precoder updates until log det W changes by at most ``eps`` or
    ``max_iter`` updates have run (``max_iter <= 0`` returns F0). The gains
    are ``gain_diagonal(bits)``; ``bits=None`` is full resolution. The
    iteration runs on ``range(H^H)`` (Zhao, Lu, Shi & Luo, "Rethinking
    WMMSE: Can its complexity scale linearly with the number of BS
    antennas?", IEEE TSP 2023; README, "Beamforming"). Returns the
    beamformers, U and W taken at the final F, and a report with the
    objective trace and the SE in bits/s/Hz.

    ``start``, the report of a solve of the same H, bits, pt, sigma_n2, ns
    and eps, resumes that solve from its last iterate if it ran at most
    ``max_iter`` iterations, and is ignored otherwise. A resumed solve
    returns the floats of a solve from F0, and its report counts every
    iteration from F0. Every solve on a channel starts from the ``V_r^H F0``
    of one thin SVD of H, shared with WF (:func:`_reduce`); an F0 returned
    after no iteration is the caller's copy.
    """
    g = gain_diagonal(bits, H.shape[0])
    Hr, Vr, F0, Fr0, _ = _reduce(H, pt, sigma_n2, ns)
    report, = _iterate(Hr, H.shape[1], g[None], Fr0, pt, sigma_n2, eps, max_iter, [start])
    F = report.iterate[0]
    HF = Hr @ F
    ce = effective_noise_cov(HF, *noise_weights(g, sigma_n2))
    W, U = receive_updates(g[:, None] * HF, ce)
    report = AltMinReport(report.iterations, report.objective_trace,
                          spectral_efficiency(Hr, F, U, g, ce), report.converged, report.iterate)
    return Beamformers(F=Vr @ F if report.iterations else F0.copy(), U=U, W=W), report


# problems per stack of _altmin_batch: bounds the stacked working set, a few
# complex _BATCH x r x Nr arrays, whatever the length of the allocation list
_BATCH = 32


def _altmin_batch(H: np.ndarray, allocations: Sequence[Sequence[int]], pt: float,
                  sigma_n2: float, ns: int, eps: float, max_iter: int,
                  starts: Sequence[Optional[AltMinReport]]) -> list[Optional[AltMinReport]]:
    """:func:`_iterate` over ``allocations`` on one H, ``_BATCH`` at a time: the reports to resume.

    The stacks start from the channel's one thin SVD (:func:`_reduce`). A
    stack that raises, or whose floating-point errors would warn, gives
    back its ``starts``, so that solving its allocations one by one raises
    or warns where those lone solves do (README, "Bit allocation").
    """
    Hr, _, _, Fr0, _ = _reduce(H, pt, sigma_n2, ns)
    # every floating-point error that the lone solves would report raises instead
    errors = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}
    out = []
    for i in range(0, len(allocations), _BATCH):
        chunk, first = allocations[i:i + _BATCH], starts[i:i + _BATCH]
        try:
            with np.errstate(**errors):
                gains = np.array([gain_diagonal(bits, H.shape[0]) for bits in chunk])
                out += _iterate(Hr, H.shape[1], gains, Fr0, pt, sigma_n2, eps, max_iter, first)
        except (ArithmeticError, ValueError):  # LinAlgError and FloatingPointError among them
            out += first
    return out


# _reduce's one entry, [key, (H V_r, V_r, F0, V_r^H F0, Z[:, :Ns])], of the last channel
_reduced: list = []


def _reduce(H: np.ndarray, pt: float, sigma_n2: float, ns: int) -> tuple[np.ndarray, ...]:
    """``(H V_r, V_r, F0, V_r^H F0, Z[:, :ns])``, read-only, from one thin SVD ``H = Z S V^H``.

    F0 is the water-filling precoder and ``Z[:, :ns]`` its combiner
    (:func:`waterfilling_baseline`); README, "Beamforming", gives V_r. It
    keeps the last channel's arrays, keyed by H's shape, dtype, strides
    and bytes and by pt, sigma_n2 and ns, so that every scheme on a
    channel shares one SVD and one water-filling design.
    """
    key = (H.shape, H.dtype.str, H.strides, H.tobytes(), float(pt).hex(),
           float(sigma_n2).hex(), ns)
    if not _reduced or _reduced[0] != key:
        nr, nt = H.shape
        Z, s, Vh = np.linalg.svd(H, full_matrices=False)
        if ns > s.size:
            raise ValueError(f"ns={ns} exceeds min(Nt, Nr)={s.size}")
        F0 = Vh[:ns].conj().T * np.sqrt(waterfilling_power(s[:ns] ** 2 / sigma_n2, pt))[None, :]
        Vr = Vh[s > s.max() * max(nr, nt) * _EPS].conj().T
        arrays = H @ Vr, Vr, F0, Vr.conj().T @ F0, Z[:, :ns]
        for a in arrays:
            a.flags.writeable = False
        _reduced[:] = key, arrays
    return _reduced[1]


def _iterate(Hr: np.ndarray, nt: int, gains: np.ndarray, Fr0: np.ndarray, pt: float,
             sigma_n2: float, eps: float, max_iter: int,
             starts: Sequence[Optional[AltMinReport]]) -> list[AltMinReport]:
    """The AltMin iterations of B problems on one reduced channel ``Hr = H V_r``, stacked.

    Problem b has the gains ``gains[b]`` and starts from ``starts[b]`` as
    :func:`altmin_beamforming` takes it, else from ``Fr0 = V_r^H F0``. Each
    runs until it converges or reaches ``max_iter``, and is then dropped
    from the stack. F is carried as a (B, r, Ns) stack and mu as a list for
    any B, a lone solve's stack of one included. Returns one report per
    problem, whose ``final_se`` is NaN: :func:`altmin_beamforming` resumes
    it to form U, W and the SE.
    """
    traces, converged, iterates = [], [], []
    for start in starts:
        resume = start is not None and start.iterations <= max_iter
        traces.append(start.objective_trace.tolist() if resume else [])
        converged.append(resume and start.converged)
        iterates.append(start.iterate if resume else (Fr0, 0.0))
    active = [b for b, t in enumerate(traces) if not converged[b] and len(t) < max_iter]
    F = np.array([iterates[b][0] for b in active])
    mu = [iterates[b][1] for b in active]
    while active:
        # the stack's per-solve products, formed again when problems leave it
        g = gains[active] if len(active) < len(gains) else gains
        link = Link.of(Hr, g, nt)
        dist, noise = noise_weights(g, sigma_n2)
        g_col = g[..., None]
        live = [traces[b] for b in active]
        going = active
        while len(going) == len(active):
            HF = Hr @ F
            ce = effective_noise_cov(HF, dist, noise)
            W, U = receive_updates(g_col * HF, ce)
            for t, x in zip(live, _logdet_hermitian(W)):
                t.append(x)
            F, mu = update_precoder(link, U, W, pt, mu)
            going = []
            for i, t in enumerate(live):
                converged[active[i]] = done = len(t) >= 2 and abs(t[-1] - t[-2]) <= eps
                if done or len(t) >= max_iter:
                    iterates[active[i]] = (F[i].copy(), mu[i])
                else:
                    going.append(i)
        active = [active[i] for i in going]
        F, mu = F[going], [mu[i] for i in going]
    return [AltMinReport(iterations=len(t), objective_trace=np.asarray(t), final_se=math.nan,
                         converged=c, iterate=x)
            for t, c, x in zip(traces, converged, iterates)]
