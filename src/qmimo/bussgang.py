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

from .quantizer import _whole, distortion_table, lloyd_max_design

__all__ = [
    "gain_diagonal",
    "qd_cov_approx",
    "noise_weights",
    "effective_noise_cov",
    "qd_cov_simulated",
    "onebit_arcsine",
    "optimal_onebit_beta",
]


def gain_diagonal(bits: Optional[Sequence[int]], nr: int) -> np.ndarray:
    """Per-chain Bussgang gains 1 - gamma(b_i) as a real vector.

    gamma is ``distortion_table().gamma``, which the model reads only here
    and ``cli._dump_quantizers`` writes out, and which checks each entry
    (``quantizer._whole``). ``bits=None`` means full resolution (all gains 1).
    """
    if bits is None:
        return np.ones(nr)
    bits = np.asarray(bits, dtype=object)  # keeps each entry's type for the check
    if bits.shape != (nr,):
        raise ValueError(f"bits must have length {nr}, got shape {bits.shape}")
    table = distortion_table()
    return np.array([1.0 - table.gamma(b) for b in bits])


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


def noise_weights(g: np.ndarray, sigma_n2: float) -> tuple[np.ndarray, np.ndarray]:
    """``(g (1 - g), sigma_n^2 g)``: the weights of :func:`effective_noise_cov`."""
    return g * (1.0 - g), sigma_n2 * g


def effective_noise_cov(HF: np.ndarray, dist: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Diagonal ``dist * diag(H F F^H H^H) + noise`` of the approximate C_e, from ``HF = H F``.

    ``dist, noise = noise_weights(g, sigma_n2)``; the approximation improves with ADC resolution.
    A stack of problems along a leading axis gives the stack of diagonals.
    """
    d = np.einsum("...ij,...ij->...i", HF, HF.conj()).real
    return dist * d + noise


def _clip_psd(C: np.ndarray) -> np.ndarray:
    """Hermitize and zero out (tiny, sampling-noise) negative eigenvalues."""
    C = 0.5 * (C + C.conj().T)
    w, V = np.linalg.eigh(C)
    if w.min() >= 0:
        return C
    w = np.clip(w, 0.0, None)
    return (V * w) @ V.conj().T


# samples per column block of the Monte-Carlo path: one quantize_real call
# per chain and one Gram update per block, and the noise drawn per call
_MC_BLOCK = 8192
# columns per H F s sub-block; bounds the working set beyond the sample
# array to one 2Nr x _HFS_BLOCK product while H F s overwrites the symbols
_HFS_BLOCK = 1024


def _quantized_blocks(H: np.ndarray, F: np.ndarray, sigma_n2: float,
                      bits: Sequence[int], num_samples: int, seed):
    """Draw y = H F s + n, quantize per chain, yield planar ``[Re eta; Im eta]`` blocks.

    ``seed`` goes to ``np.random.default_rng``. The symbols are drawn into
    the last 2 Ns rows of the one ``(2, Nr, N)`` sample array, ``H F s``
    overwrites them sub-block by sub-block, and the noise is drawn row by
    row and added in place, so Ns <= Nr. Each block is a view of at most
    ``_MC_BLOCK`` columns, valid until the next is drawn (README,
    "Monte-Carlo SE").
    """
    nr = H.shape[0]
    ns = F.shape[1]
    g = gain_diagonal(bits, nr)
    quantizers = [lloyd_max_design(b) for b in bits]
    rng = np.random.default_rng(seed)
    y = np.empty((2, nr, num_samples))
    # views with the (2, N) row axes merged: [Re; Im] stacked along the rows
    y_rows = y.reshape(2 * nr, num_samples)
    s_rows = y_rows[2 * (nr - ns):]
    rng.standard_normal(out=s_rows)
    # times the reciprocal: bit for bit the complex s / sqrt(2)
    s_rows *= 1.0 / np.sqrt(2.0)
    hf = H @ F
    hf_planar = np.block([[hf.real, -hf.imag], [hf.imag, hf.real]])
    cy_diag = np.real(np.einsum("ij,ij->i", hf, hf.conj())) + sigma_n2
    std = np.sqrt(cy_diag / 2.0)
    hfs = np.empty((2 * nr, _HFS_BLOCK))
    for sub in range(0, num_samples, _HFS_BLOCK):
        width = min(_HFS_BLOCK, num_samples - sub)
        symbols = s_rows[:, sub:sub + width]
        if width < _HFS_BLOCK:
            # the last sub-block, zero padded: BLAS computes a product's
            # trailing columns with other code, and the padding keeps
            # each column's floats independent of num_samples
            symbols = np.zeros((2 * ns, _HFS_BLOCK))
            symbols[:, :width] = s_rows[:, sub:]
        np.matmul(hf_planar, symbols, out=hfs)
        # overwrites only these columns' symbols, which the product has read
        y_rows[:, sub:sub + width] = hfs[:, :width]
    del hfs
    noise_std = np.sqrt(sigma_n2 / 2.0)
    piece = np.empty(_MC_BLOCK)
    for row in y_rows:  # Re n, then Im n: the stream order of the draws
        for start in range(0, num_samples, _MC_BLOCK):
            y_piece = row[start:start + _MC_BLOCK]
            n = rng.standard_normal(out=piece[:y_piece.size])
            n *= noise_std
            np.add(n, y_piece, out=y_piece)
    for start in range(0, num_samples, _MC_BLOCK):
        stop = min(start + _MC_BLOCK, num_samples)
        Y = y[:, :, start:stop]
        for i, q in enumerate(quantizers):
            rows = Y[:, i]  # [Re y_i; Im y_i], left holding eta_i
            z = q.quantize_real(rows / std[i])
            z *= std[i]
            rows *= g[i]
            np.subtract(z, rows, out=rows)
        yield y_rows[:, start:stop]


def qd_cov_simulated(H: np.ndarray, F: np.ndarray, sigma_n2: float,
                     bits: Optional[Sequence[int]], num_samples: int = 10**5,
                     seed=0) -> np.ndarray:
    """Monte-Carlo estimate of the full distortion covariance E[eta eta^H].

    Hermitian, eigenvalues clipped at zero; ``bits=None`` gives the exact
    zero without drawing (README, "Monte-Carlo SE"). Bit-identical for a
    fixed integer ``seed``, the stream ``SeedSequence([seed, 0])``. Raises
    ``TypeError`` for another seed, a bool included, and ``ValueError`` for
    a ``num_samples`` that is not a whole number >= 1 or for more streams
    than receive chains; a quantized run warns below 1e4 samples.
    """
    num_samples = _whole(num_samples, "num_samples")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed)!r}")
    stream = np.random.SeedSequence([int(seed), 0])
    nr = H.shape[0]
    if F.shape[1] > nr:
        raise ValueError(f"F has {F.shape[1]} streams, more than H's {nr} receive chains")
    if bits is None:
        return np.zeros((nr, nr), dtype=complex)
    if num_samples < 10**4:
        rel_se = 1.0 / np.sqrt(num_samples)
        warnings.warn(
            f"num_samples={num_samples} is small; per-entry relative "
            f"standard error on the order of {rel_se:.2%}",
            RuntimeWarning,
            stacklevel=2,
        )
    R = np.zeros((2 * nr, 2 * nr))
    for E in _quantized_blocks(H, F, sigma_n2, bits, num_samples, stream):
        R += E @ E.T
    gram = np.empty((nr, nr), dtype=complex)
    gram.real = R[:nr, :nr] + R[nr:, nr:]
    gram.imag = R[nr:, :nr] - R[:nr, nr:]
    return _clip_psd(gram / num_samples)


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
