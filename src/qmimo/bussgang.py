"""Bussgang linearization of per-chain quantization: z = G y + eta.

The quantized receive vector is decomposed into a diagonal gain applied to
the unquantized signal plus a distortion term uncorrelated with it. This
module provides the per-chain gains from the distortion-factor table, the
closed-form (diagonal) approximation of the distortion covariance, a
Monte-Carlo estimate of the full distortion covariance, and the arcsine-law
closed forms for sign quantization as an independent one-bit cross-check.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg.blas import zherk

from .quantizer import _unit_quantizer, distortion_table

__all__ = [
    "gain_diagonal",
    "qd_cov_approx",
    "effective_noise_cov",
    "qd_cov_simulated",
    "onebit_arcsine",
    "optimal_onebit_beta",
]


def gain_diagonal(bits: Optional[Sequence[int]], nr: int) -> np.ndarray:
    """Per-chain Bussgang gains 1 - gamma(b_i) as a real vector.

    gamma is the distortion factor of the Lloyd-Max quantizer, read from
    ``distortion_table()``; this is its only reader in the pipeline.
    ``bits=None`` means full resolution (all gains 1). Resolutions above
    the table limit fall back to the high-resolution gamma approximation.
    """
    if bits is None:
        return np.ones(nr)
    bits = np.asarray(bits, dtype=int)
    if bits.shape != (nr,):
        raise ValueError(f"bits must have length {nr}, got shape {bits.shape}")
    if np.any(bits < 1):
        raise ValueError("every per-chain resolution must be >= 1")
    table = distortion_table()
    return np.array([1.0 - table.gamma(int(b)) for b in bits])


class QdCovApprox(NamedTuple):
    C_q: np.ndarray
    C_eta: np.ndarray
    C_z: np.ndarray


def qd_cov_approx(g: np.ndarray, C_y: np.ndarray) -> QdCovApprox:
    """Closed-form covariance approximations of the quantization model.

    With ``Gamma = I - G`` and ``g`` the length-Nr diagonal of ``G``:

    * ``C_q   = Gamma C_y Gamma + (I - Gamma) diag(C_y) Gamma``
    * ``C_eta = Gamma diag(C_y) (I - Gamma)``, as a length-Nr vector (its
      entries are exact; the approximation drops off-diagonal terms)
    * ``C_z   = [diag(C_y) Gamma + (I - Gamma) C_y] (I - Gamma)``
    """
    C_y = np.asarray(C_y)
    if not np.allclose(C_y, C_y.conj().T, atol=1e-10 * max(1.0, np.abs(C_y).max())):
        raise ValueError("C_y must be Hermitian")
    gamma = 1.0 - g
    d = np.real(np.diag(C_y))
    C_q = gamma[:, None] * C_y * gamma + np.diag(g * d * gamma)
    C_eta = gamma * d * g
    C_z = (np.diag(d * gamma) + g[:, None] * C_y) * g
    return QdCovApprox(C_q=C_q, C_eta=C_eta, C_z=C_z)


def effective_noise_cov(g: np.ndarray, H: np.ndarray, F: np.ndarray,
                        sigma_n2: float) -> np.ndarray:
    """Diagonal of the approximate covariance of the effective noise G n + eta.

    ``g`` is the length-Nr gain vector. Returns the length-Nr vector
    ``ce = g (1 - g) diag(H F F^H H^H) + sigma_n^2 g``, the diagonal of
    ``C_e``, which is increasingly accurate with higher ADC resolution.
    """
    hf = H @ F
    d = np.real(np.einsum("ij,ij->i", hf, hf.conj()))
    return g * (1.0 - g) * d + sigma_n2 * g


def _clip_psd(C: np.ndarray) -> np.ndarray:
    """Hermitize and zero out (tiny, sampling-noise) negative eigenvalues."""
    C = 0.5 * (C + C.conj().T)
    w, V = np.linalg.eigh(C)
    if w.min() >= 0:
        return C
    w = np.clip(w, 0.0, None)
    return (V * w) @ V.conj().T


# samples per column block of the Monte-Carlo path; bounds the working set
# to a few Nr x _MC_BLOCK arrays whatever the sample count
_MC_BLOCK = 8192


def _quantized_blocks(H: np.ndarray, F: np.ndarray, sigma_n2: float,
                      bits: Sequence[int], num_samples: int, seed):
    """Draw y = H F s + n, quantize per chain, yield ``(y, z, eta)`` blocks.

    The whole sample stream is drawn first, in the order ``s.real``,
    ``s.imag``, ``n.real``, ``n.imag`` (each ``num_samples`` columns wide),
    so the samples do not depend on the block size. Each chain uses the
    Lloyd-Max quantizer for its resolution (the design whose MSE is gamma),
    scaled to the analytic per-component std sqrt(C_y[i,i]/2); the real
    and imaginary parts of a chain are quantized in one contiguous call.
    Blocks are ``_MC_BLOCK`` columns wide, the last one holds the remainder.
    """
    nr = H.shape[0]
    ns = F.shape[1]
    g = gain_diagonal(bits, nr)
    quantizers = [_unit_quantizer(int(b)) for b in bits]
    rng = np.random.default_rng(seed)
    s = np.empty((ns, num_samples), dtype=complex)
    n = np.empty((nr, num_samples), dtype=complex)
    for buf in (s, n):
        buf.real = rng.standard_normal(buf.shape)
        buf.imag = rng.standard_normal(buf.shape)
    s /= np.sqrt(2.0)
    n *= np.sqrt(sigma_n2 / 2.0)
    hf = H @ F
    cy_diag = np.real(np.einsum("ij,ij->i", hf, hf.conj())) + sigma_n2
    std = np.sqrt(cy_diag / 2.0)
    for start in range(0, num_samples, _MC_BLOCK):
        cols = slice(start, start + _MC_BLOCK)
        y = n[:, cols] + hf @ s[:, cols]
        y_re = y.view(float)
        z = np.empty_like(y)
        z_re = z.view(float)
        for i, q in enumerate(quantizers):
            z_re[i] = std[i] * q.quantize_real(y_re[i] / std[i])
        eta = (z_re - g[:, None] * y_re).view(complex)
        yield y, z, eta


def _simulate_quantized(H: np.ndarray, F: np.ndarray, sigma_n2: float,
                        bits: Sequence[int], num_samples: int, seed):
    """All samples of ``_quantized_blocks`` at once: ``(y, z, eta)``, Nr x N each.

    Used by statistical tests on the distortion term.
    """
    blocks = list(_quantized_blocks(H, F, sigma_n2, bits, num_samples, seed))
    return tuple(np.concatenate(parts, axis=1) for parts in zip(*blocks))


def qd_cov_simulated(H: np.ndarray, F: np.ndarray, sigma_n2: float,
                     bits: Optional[Sequence[int]], num_samples: int = 10**5,
                     seed=0) -> np.ndarray:
    """Monte-Carlo estimate of the full distortion covariance E[eta eta^H].

    Gaussian symbol and noise vectors are drawn, the received vector is
    quantized per chain by the matched Lloyd-Max quantizer, and the sample
    covariance of ``eta = z - G y`` is returned (Hermitian, eigenvalues
    clipped at zero against sampling noise). The samples are processed in
    column blocks, so memory beyond the drawn symbols and noise stays
    bounded. At full resolution (``bits=None``) the distortion is exactly
    zero and nothing is drawn.

    All samples come from one stream, ``SeedSequence([seed, 0])``, so the
    result is bit-identical for a fixed integer ``seed``.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples={num_samples} must be >= 1")
    if num_samples < 10**4:
        rel_se = 1.0 / np.sqrt(num_samples)
        warnings.warn(
            f"num_samples={num_samples} is small; per-entry relative "
            f"standard error on the order of {rel_se:.2%}",
            RuntimeWarning,
            stacklevel=2,
        )
    stream = np.random.SeedSequence([_as_seed_int(seed), 0])
    nr = H.shape[0]
    if bits is None:
        return np.zeros((nr, nr), dtype=complex)
    # zherk on the Fortran view eta.T adds conj(eta eta^H) into the upper
    # triangle of the accumulator only (beta=1 keeps the running sum)
    acc = np.zeros((nr, nr), dtype=complex, order="F")
    for _, _, eta in _quantized_blocks(H, F, sigma_n2, bits, num_samples, stream):
        acc = zherk(1.0, eta.T, beta=1.0, c=acc, trans=2, overwrite_c=1)
    gram = np.triu(acc).conj() + np.triu(acc, 1).T
    return _clip_psd(gram / num_samples)


def _as_seed_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise TypeError(f"seed must be an integer, got {type(seed)!r}")


def optimal_onebit_beta(sigma_y2: float) -> float:
    """Output power beta of the MSE-optimal one-bit quantizer for variance sigma_y2."""
    return float(2.0 / np.pi * sigma_y2)


class OneBitArcsine(NamedTuple):
    C_zy: np.ndarray
    C_z: np.ndarray
    g: np.ndarray
    C_eta: np.ndarray


def onebit_arcsine(C_y: np.ndarray, beta: float) -> OneBitArcsine:
    """Closed-form second-order statistics of sign quantization.

    For ``z = sqrt(beta/2) (sgn Re y + j sgn Im y)`` with Gaussian ``y``:
    ``C_zy = sqrt(2 beta/pi) K^(-1/2) C_y``,
    ``C_z = (2 beta/pi) arcsin(K^(-1/2) C_y K^(-1/2))``, and the gain
    ``G = sqrt(2 beta/pi) K^(-1/2)`` with ``K = diag(C_y)``; ``g`` holds
    its diagonal as a length-Nr vector. The arcsine acts elementwise on the
    real and imaginary parts of the normalized covariance separately
    (circularly symmetric input).
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    C_y = np.asarray(C_y)
    k = np.real(np.diag(C_y))
    if np.any(k <= 0):
        raise ValueError("C_y must have strictly positive diagonal entries")
    k_inv_sqrt = 1.0 / np.sqrt(k)
    scale = np.sqrt(2.0 * beta / np.pi)
    C_zy = scale * (k_inv_sqrt[:, None] * C_y)
    R = k_inv_sqrt[:, None] * C_y * k_inv_sqrt[None, :]
    asin_R = (np.arcsin(np.clip(R.real, -1.0, 1.0))
              + 1j * np.arcsin(np.clip(R.imag, -1.0, 1.0)))
    C_z = (2.0 * beta / np.pi) * asin_R
    C_eta = C_z - (2.0 * beta / np.pi) * R
    return OneBitArcsine(C_zy=C_zy, C_z=C_z, g=scale * k_inv_sqrt, C_eta=C_eta)
