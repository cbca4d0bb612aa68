"""Transmit/receive beamforming under quantization: SE, WF baseline, WMMSE.

The achievable-rate lower bound treats the quantization distortion as
Gaussian effective noise. For fixed per-chain resolutions, the precoder
and combiner are obtained by alternating minimization of a weighted MSE
objective whose fixed points coincide with the rate maximizer; the
eigen-mode water-filling solution serves as both the unquantized baseline
and the initializer. Diagonal quantities are length-Nr vectors: ``g`` is the
diagonal of the Bussgang gain ``G`` and ``ce`` that of the approximate
effective-noise covariance ``C_e``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bussgang import effective_noise_cov, gain_diagonal

__all__ = [
    "Beamformers",
    "AltMinReport",
    "spectral_efficiency",
    "waterfilling_power",
    "waterfilling_baseline",
    "update_combiner",
    "update_weight",
    "update_precoder",
    "mse_matrix",
    "altmin_beamforming",
]

_RIDGE = 1e-12


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


def _logdet_hermitian(A: np.ndarray) -> float:
    sign, ld = np.linalg.slogdet(A)
    if sign.real <= 0 or not np.isfinite(ld):
        raise np.linalg.LinAlgError("matrix is not positive definite")
    return float(ld)


def spectral_efficiency(H: np.ndarray, F: np.ndarray, U: np.ndarray,
                        g: np.ndarray, C_e: np.ndarray) -> float:
    """Achievable rate (bits/s/Hz) of the linearized quantized link.

    ``R = log2 det(I + (U^H C_e U)^{-1} U^H G H F F^H H^H G U)``, computed
    as a difference of log-determinants, with ``g`` the length-Nr diagonal
    of ``G`` and ``C_e`` a full matrix (the Monte-Carlo one is not
    diagonal). An all-zero column of ``U`` is a switched-off stream: it
    carries no rate and is dropped. Any other singular post-combining noise
    covariance (an all-zero ``U`` too) is ridged with 1e-12 I and flagged
    with a warning.
    """
    live = np.any(U != 0, axis=0)
    if live.any() and not live.all():
        U = U[:, live]
    T = U.conj().T @ ((g[:, None] * H) @ F)
    A = U.conj().T @ C_e @ U
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
    receive zero power.
    """
    if ns > min(H.shape):
        raise ValueError(f"ns={ns} exceeds min(Nt, Nr)={min(H.shape)}")
    Z, sv, Vh = np.linalg.svd(H, full_matrices=False)
    U = Z[:, :ns]
    V = Vh.conj().T[:, :ns]
    p = waterfilling_power(sv[:ns] ** 2 / sigma_n2, pt)
    F = V * np.sqrt(p)[None, :]
    return Beamformers(F=F, U=U, W=np.eye(ns, dtype=complex))


def update_combiner(H: np.ndarray, F: np.ndarray, g: np.ndarray,
                    ce: np.ndarray, W: np.ndarray) -> np.ndarray:
    """MMSE combiner U = (G H F F^H H^H G + C_e)^{-1} G H F from vectors g, ce.

    By Woodbury this is ``C_e^{-1} G H F W^{-1}`` with the weight
    ``W = update_weight(H, F, g, ce)`` at the same F, so one Ns x Ns solve
    replaces the Nr x Nr one; ``W >= I`` is always positive definite.
    """
    B = ((g[:, None] * H) @ F) / ce[:, None]
    return np.linalg.solve(W, B.conj().T).conj().T


def update_weight(H: np.ndarray, F: np.ndarray, g: np.ndarray,
                  ce: np.ndarray) -> np.ndarray:
    """WMMSE weight W = I + F^H H^H G C_e^{-1} G H F from vectors g, ce."""
    GHF = (g[:, None] * H) @ F
    W = np.eye(F.shape[1]) + GHF.conj().T @ (GHF / ce[:, None])
    return 0.5 * (W + W.conj().T)


def mse_matrix(H: np.ndarray, F: np.ndarray, U: np.ndarray, g: np.ndarray,
               ce: np.ndarray) -> np.ndarray:
    """MSE matrix of the post-combined streams from vectors g, ce (Hermitian)."""
    GHF = (g[:, None] * H) @ F
    A = GHF @ GHF.conj().T
    A.flat[::A.shape[0] + 1] += ce
    E = (U.conj().T @ A @ U + np.eye(F.shape[1])
         - U.conj().T @ GHF - GHF.conj().T @ U)
    return 0.5 * (E + E.conj().T)


def update_precoder(H: np.ndarray, g: np.ndarray, U: np.ndarray,
                    W: np.ndarray, pt: float) -> np.ndarray:
    """Power-constrained precoder update of the weighted-MSE objective.

    ``F(mu) = (J + mu I)^{-1} H^H G U W`` with
    ``J = H^H (G U W U^H + diag(U W U^H)(I - G)) G H``, where ``g`` is the
    length-Nr diagonal of ``G``; the diagonal term accounts for the
    precoder dependence of the distortion covariance.

    J is factored once, ``J = Q diag(lam) Q^H``. With ``c = Q^H rhs`` the
    precoder power becomes the scalar secular function
    ``||F(mu)||_F^2 = sum_i ||c_i||^2 / (lam_i + mu)^2``, the standard
    WMMSE transmit step of Shi, Razaviyayn, Luo & He, "An iteratively
    weighted MMSE approach to distributed sum-utility maximization for a
    MIMO interfering broadcast channel", IEEE TSP 2011. ``mu = 0`` when the
    unconstrained solution is feasible; for a rank-deficient J (e.g.
    Nt > Nr) that is the minimum-norm solution, which drops eigenvalues
    with ``|lam_i| <= eps * Nt * max|lam|``. Otherwise bisection on
    ``[0, ||H^H G U W||_F / sqrt(pt)]`` evaluates the scalar power at each
    midpoint until it is within ``1e-8 pt`` of ``pt`` (at most 200
    halvings), and F is formed once at the final multiplier.
    """
    return _precoder_and_multiplier(H, g, U, W, pt)[0]


def _precoder_and_multiplier(H: np.ndarray, g: np.ndarray, U: np.ndarray,
                             W: np.ndarray, pt: float) -> tuple[np.ndarray, float]:
    """:func:`update_precoder` plus its multiplier mu (0 on the minimum-norm branch)."""
    if not pt > 0:
        raise ValueError(f"pt must be positive, got {pt}")
    nr, nt = H.shape
    UWU = U @ W @ U.conj().T
    M = g[:, None] * UWU
    M.flat[::nr + 1] += np.real(np.diag(UWU)) * (1.0 - g)
    J = ((H.conj().T @ M) * g) @ H
    J = 0.5 * (J + J.conj().T)
    rhs = (H.conj().T * g) @ U @ W
    lam, Q = np.linalg.eigh(J)
    c = Q.conj().T @ rhs
    c2 = np.sum(np.abs(c) ** 2, axis=1)
    # the cutoff of lstsq(rcond=None): eigenvalues below it count as zero
    keep = np.abs(lam) > np.finfo(float).eps * nt * np.max(np.abs(lam))
    if np.sum(c2[keep] / lam[keep] ** 2) <= pt * (1.0 + 1e-9):
        return Q[:, keep] @ (c[keep] / lam[keep, None]), 0.0
    # Bisection, not Newton: SE is pinned at rtol 1e-9, and another root-finder
    # would settle elsewhere inside the 1e-8 power tolerance.
    lo, hi = 0.0, float(np.linalg.norm(rhs)) / np.sqrt(pt)
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        power = c2 @ (lam + mu) ** -2
        if abs(power - pt) <= 1e-8 * pt:
            break
        if power > pt:
            lo = mu
        else:
            hi = mu
    return Q @ (c / (lam + mu)[:, None]), mu


def altmin_beamforming(H: np.ndarray, bits: Optional[Sequence[int]], pt: float,
                       sigma_n2: float, ns: int, eps: float = 1e-4,
                       max_iter: int = 500) -> tuple[Beamformers, AltMinReport]:
    """Alternating WMMSE beamforming for fixed per-chain ADC resolutions.

    Starts from the water-filling precoder, then cycles weight, combiner
    and precoder updates (the effective-noise covariance is recomputed
    from the current precoder each cycle) until the change of the
    natural-log objective log det W drops below ``eps`` or ``max_iter``
    is hit. The Bussgang gains come from ``gain_diagonal(bits)``;
    ``bits=None`` runs the full-resolution model.

    Returns the final beamformers (weight and combiner re-derived at the
    final precoder) and a report with the objective trace and the SE in
    bits/s/Hz.
    """
    nr = H.shape[0]
    g = gain_diagonal(bits, nr)
    F = waterfilling_baseline(H, pt, sigma_n2, ns).F
    trace: list[float] = []
    converged = False
    for _ in range(max_iter):
        ce = effective_noise_cov(g, H, F, sigma_n2)
        W = update_weight(H, F, g, ce)
        U = update_combiner(H, F, g, ce, W)
        trace.append(_logdet_hermitian(W))
        F = update_precoder(H, g, U, W, pt)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= eps:
            converged = True
            break
    ce = effective_noise_cov(g, H, F, sigma_n2)
    W = update_weight(H, F, g, ce)
    U = update_combiner(H, F, g, ce, W)
    se = spectral_efficiency(H, F, U, g, np.diag(ce))
    report = AltMinReport(
        iterations=len(trace),
        objective_trace=np.asarray(trace),
        final_se=se,
        converged=converged,
    )
    return Beamformers(F=F, U=U, W=W), report
