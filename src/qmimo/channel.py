"""Clustered mmWave channel realizations.

Narrowband Saleh-Valenzuela model: a sum of rank-one cluster/ray
contributions between half-wavelength ULAs at both ends, normalized so
that the ensemble-average squared Frobenius norm equals Nt*Nr. All
generation is a pure function of (parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantizer import _whole

__all__ = [
    "SVParams",
    "saleh_valenzuela",
    "ula_steering",
]


@dataclass(frozen=True)
class SVParams:
    """Saleh-Valenzuela parameters (azimuth-only, ULAs at both ends).

    ``angle_spread_deg`` is the standard deviation of the Laplacian ray
    offsets around each cluster center, in degrees.
    """

    num_clusters: int = 5
    rays_per_cluster: int = 10
    angle_spread_deg: float = 10.0

    def __post_init__(self):
        if self.num_clusters < 1 or self.rays_per_cluster < 1:
            raise ValueError("cluster/ray counts must be positive")
        if not self.angle_spread_deg > 0:
            raise ValueError("angle spread must be positive")


def ula_steering(num_antennas: int, phi) -> np.ndarray:
    """Half-wavelength ULA steering vector(s), unit-modulus entries.

    Returns shape ``(num_antennas,)`` for scalar ``phi`` or
    ``(num_antennas, len(phi))`` for a vector of azimuth angles; the
    squared norm per vector equals ``num_antennas``, a whole number >= 1
    (``quantizer._whole``).
    """
    n = np.arange(_whole(num_antennas, "num_antennas"))
    return np.exp(1j * np.pi * np.multiply.outer(n, np.sin(np.asarray(phi, dtype=float))))


def saleh_valenzuela(nt: int, nr: int, params: SVParams | None = None,
                     seed: int = 0) -> np.ndarray:
    """Draw one channel realization H (nr x nt).

    Cluster centers are uniform on [0, 2pi) independently at both ends;
    per-ray offsets are Laplacian with the configured spread; ray gains
    are CN(0, 1). The prefactor makes E||H||_F^2 = nt*nr. The antenna
    counts are whole numbers >= 1 (``quantizer._whole``).
    """
    nt, nr = _whole(nt, "nt"), _whole(nr, "nr")
    params = params or SVParams()
    rng = np.random.default_rng(seed)
    ncl, nray = params.num_clusters, params.rays_per_cluster
    num_paths = ncl * nray
    spread = np.deg2rad(params.angle_spread_deg)
    # Laplace scale = std / sqrt(2)
    lap_scale = spread / np.sqrt(2.0)
    centers_rx = rng.uniform(0.0, 2.0 * np.pi, ncl)
    centers_tx = rng.uniform(0.0, 2.0 * np.pi, ncl)
    phi_rx = (centers_rx[:, None] + rng.laplace(0.0, lap_scale, (ncl, nray))).ravel()
    phi_tx = (centers_tx[:, None] + rng.laplace(0.0, lap_scale, (ncl, nray))).ravel()
    alpha = (rng.standard_normal(num_paths)
             + 1j * rng.standard_normal(num_paths)) / np.sqrt(2.0)
    a_rx = ula_steering(nr, phi_rx)                       # nr x L
    a_tx = ula_steering(nt, phi_tx)                       # nt x L
    return np.sqrt(1.0 / num_paths) * ((a_rx * alpha[None, :]) @ a_tx.conj().T)
