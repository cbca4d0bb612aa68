"""Monte-Carlo experiment harness: SE under approximated vs simulated
distortion covariance, receiver power and energy efficiency, and seeded
per-channel scheme evaluation.

Receiver power is accounted with the constants ``P_LNA`` and ``P_RF`` per
chain and ``FOM_KAPPA * F_S * 2^b`` per ADC (two ADCs per chain).

Schemes
-------
``WF``
    Eigen-mode water-filling beamformers, evaluated under quantization.
``AltMinBF``
    Alternating WMMSE beamforming at the uniform per-chain resolution.
``GPOS``
    Joint beamforming and bit allocation by greedy pair-order search.
``FullPrecision``
    Unquantized water-filling link (power accounted at a 12-bit proxy).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import beamforming, bitalloc, bussgang, channel
# unused here; perfbench/tracer.py wraps distortion_table on this module
from .quantizer import distortion_table  # noqa: F401

__all__ = [
    "PointConfig",
    "SchemeOutcome",
    "ExperimentResult",
    "total_power",
    "energy_efficiency",
    "se_simulated",
    "run_experiment",
    "SCHEMES",
]

SCHEMES = ("WF", "AltMinBF", "GPOS", "FullPrecision")

#: Per-chain resolution used to account power for the full-precision scheme.
FULL_PRECISION_BITS = 12

#: Numerical errors that fail one scheme on one channel; anything else propagates.
CHANNEL_ERRORS = (np.linalg.LinAlgError, FloatingPointError, ValueError)


# Receiver power-model constants (formula in total_power).
P_LNA = 25e-3        # W
P_RF = 43e-3         # W
FOM_KAPPA = 494e-15  # J/step/Hz
F_S = 1e9            # Hz


def total_power(bits: Sequence[int]) -> float:
    """Total receiver power: Nr (P_LNA + P_RF) + sum_i 2 kappa f_s 2^{b_i}.

    Per-chain generalization of the uniform-resolution formula; the two
    coincide when all entries of ``bits`` are equal.
    """
    bits = np.asarray(bits, dtype=int)
    adc = 2.0 * FOM_KAPPA * F_S * np.sum(2.0 ** bits.astype(float))
    return float(bits.size * (P_LNA + P_RF) + adc)


def energy_efficiency(se: float, p_total: float) -> float:
    """Energy efficiency in bits/Joule/Hz: SE divided by receiver power."""
    if not p_total > 0:
        raise ValueError(f"p_total must be positive, got {p_total}")
    return se / p_total


def se_simulated(H: np.ndarray, F: np.ndarray, U: np.ndarray,
                 bits: Optional[Sequence[int]], sigma_n2: float,
                 num_samples: int = 10**5, seed: int = 0) -> float:
    """SE evaluated with the Monte-Carlo (full-matrix) distortion covariance.

    Builds ``C_e = C_eta_sim + sigma_n^2 G^2`` (a full Nr x Nr matrix, with
    ``g`` the length-Nr diagonal of ``G``) and evaluates the rate bound
    with the given beamformers; captures the cross-chain distortion
    correlation that the diagonal approximation drops.
    """
    nr = H.shape[0]
    g = bussgang.gain_diagonal(bits, nr)
    C_e = bussgang.qd_cov_simulated(H, F, sigma_n2, bits, num_samples=num_samples, seed=seed)
    C_e.flat[::nr + 1] += sigma_n2 * g**2
    return beamforming.spectral_efficiency(H, F, U, g, C_e)


@dataclass(frozen=True)
class PointConfig:
    """All scalar parameters of one experiment point (no sweeps)."""

    nt: int = 64
    nr: int = 64
    ns: int = 8
    snr_db: float = 10.0
    pt: float = 1.0
    b: int = 2
    b_max: int = 8
    varsigma: float = 1.0
    b_total: Optional[int] = None      # None: nr * b (see budget)
    eps: float = 1e-4
    max_iter: int = 500
    i2: int = 15
    scoring_max_iter: int = 30
    sv: channel.SVParams = field(default_factory=channel.SVParams)
    sim_se: bool = False
    num_qd_samples: int = 10**5

    @property
    def sigma_n2(self) -> float:
        return self.pt / 10.0 ** (self.snr_db / 10.0)

    @property
    def budget(self) -> int:
        """Active-bit budget ``floor(varsigma * b_total)``; ``b_total`` defaults to Nr * b."""
        total = self.nr * self.b if self.b_total is None else self.b_total
        return int(np.floor(self.varsigma * total))

    def validate(self, schemes: Sequence[str] = ()) -> None:
        if not self.pt > 0:
            raise ValueError(f"Pt={self.pt} must be positive")
        if not 0 < self.varsigma <= 1:
            raise ValueError(f"varsigma={self.varsigma} outside (0, 1]")
        if self.ns < 1:
            raise ValueError(f"Ns={self.ns} must be >= 1")
        if self.ns > min(self.nt, self.nr):
            raise ValueError(
                f"ns={self.ns} exceeds min(Nt, Nr)={min(self.nt, self.nr)}"
            )
        if not 1 <= self.b <= self.b_max:
            raise ValueError(f"b={self.b} outside [1, b_max={self.b_max}]")
        if self.num_qd_samples < 1:
            raise ValueError(f"num_qd_samples={self.num_qd_samples} must be >= 1")
        if "GPOS" in schemes:
            bitalloc._check_feasible(self.nr, self.b_max, self.budget)
        if "ES" in schemes:  # the exhaustive oracle row of ``qmimo run --oracle``
            bitalloc._check_oracle(self.nr, self.b_max, self.budget)


@dataclass
class SchemeOutcome:
    """Per-scheme aggregates plus the per-channel raw values."""

    scheme: str
    se_apx: np.ndarray
    se_sim: Optional[np.ndarray]
    ee: np.ndarray
    power_w: np.ndarray
    iterations: np.ndarray
    allocations: list[tuple[int, ...]]
    failures: int

    @classmethod
    def from_rows(cls, scheme: str, rows: Sequence[tuple], failures: int,
                  sim_se: bool) -> SchemeOutcome:
        """Outcome from the per-channel ``(se_apx, se_sim, bits, iterations)`` rows."""
        se, sims, bits, iters = zip(*rows) if rows else ((),) * 4
        power = [total_power(b) for b in bits]
        return cls(
            scheme=scheme,
            se_apx=np.asarray(se, dtype=float),
            se_sim=np.asarray(sims, dtype=float) if sim_se else None,
            ee=np.asarray([energy_efficiency(x, p) for x, p in zip(se, power)], dtype=float),
            power_w=np.asarray(power, dtype=float),
            iterations=np.asarray(iters, dtype=float),
            allocations=[tuple(b) for b in bits],
            failures=failures,
        )

    def summary(self) -> dict:
        """Ensemble aggregates, in result-file column order.

        An empty array has a NaN mean, fewer than two values a NaN standard
        error; the simulated-SE entries are None when ``se_sim`` is None.
        """
        def mean(x):
            return float(np.mean(x)) if x.size else float("nan")

        def stderr(x):
            return float(np.std(x, ddof=1) / np.sqrt(x.size)) if x.size > 1 else float("nan")

        sim = self.se_sim
        return {
            "mean_se_apx": mean(self.se_apx),
            "stderr_se_apx": stderr(self.se_apx),
            "mean_se_sim": None if sim is None else mean(sim),
            "stderr_se_sim": None if sim is None else stderr(sim),
            "mean_ee": mean(self.ee),
            "total_power_w": mean(self.power_w),
            "mean_iterations": mean(self.iterations),
        }


@dataclass
class ExperimentResult:
    config: PointConfig
    seed: int
    num_channels: int
    outcomes: dict[str, SchemeOutcome]


def derive_seed(master: int, *keys: int) -> int:
    """Deterministic child seed from a master seed and an index path."""
    return int(np.random.SeedSequence([int(master), *map(int, keys)]).generate_state(1)[0])


def _run_scheme(scheme: str, H: np.ndarray, cfg: PointConfig, sim_seed: int):
    """Run one scheme on one channel; returns (se_apx, se_sim, bits, iters)."""
    nr = cfg.nr
    uniform_bits = (cfg.b,) * nr
    if scheme in ("WF", "FullPrecision"):
        bf = beamforming.waterfilling_baseline(H, cfg.pt, cfg.sigma_n2, cfg.ns)
        bits = uniform_bits if scheme == "WF" else None  # None: all gains 1
        g = bussgang.gain_diagonal(bits, nr)
        ce = bussgang.effective_noise_cov(g, H, bf.F, cfg.sigma_n2)
        se = beamforming.spectral_efficiency(H, bf.F, bf.U, g, np.diag(ce))
        iters = 0
    elif scheme == "AltMinBF":
        bf, rep = beamforming.altmin_beamforming(
            H, uniform_bits, cfg.pt, cfg.sigma_n2, cfg.ns,
            eps=cfg.eps, max_iter=cfg.max_iter,
        )
        bits, se, iters = uniform_bits, rep.final_se, rep.iterations
    elif scheme == "GPOS":
        res = bitalloc.gpos_bfba(
            H, pt=cfg.pt, sigma_n2=cfg.sigma_n2, ns=cfg.ns,
            b_max=cfg.b_max, budget=cfg.budget, i2=cfg.i2,
            scoring_max_iter=cfg.scoring_max_iter,
            eps=cfg.eps, max_iter=cfg.max_iter,
        )
        bf, bits, se, iters = res.beamformers, res.allocation, res.se, res.iterations
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")

    se_sim = None
    if cfg.sim_se:
        se_sim = se_simulated(
            H, bf.F, bf.U, bits, cfg.sigma_n2,
            num_samples=cfg.num_qd_samples, seed=sim_seed,
        )
    power_bits = (FULL_PRECISION_BITS,) * nr if bits is None else bits
    return se, se_sim, power_bits, iters


def run_experiment(config: PointConfig, schemes: Sequence[str],
                   num_channels: int, seed: int) -> ExperimentResult:
    """Evaluate the requested schemes over a seeded channel ensemble.

    Channel realization c uses a seed derived from (seed, 0, c) so the
    ensemble is shared by every scheme and sweep point; the simulated
    distortion covariance of scheme s on channel c uses (seed, 1, c, s).
    Per-channel numerical scheme failures (``CHANNEL_ERRORS``) are recorded
    and the channel is dropped from that scheme's aggregates; any other
    exception propagates. Without schemes no channel is drawn.
    """
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown scheme {unknown[0]!r}; expected one of {SCHEMES}")
    if len(set(schemes)) != len(schemes):
        raise ValueError(f"duplicate scheme name in {list(schemes)}")
    config.validate(schemes)
    rows: dict[str, list] = {s: [] for s in schemes}
    failures = dict.fromkeys(schemes, 0)
    for c in range(num_channels if schemes else 0):
        H = channel.saleh_valenzuela(config.nt, config.nr, config.sv,
                                     seed=derive_seed(seed, 0, c))
        for s_idx, scheme in enumerate(schemes):
            try:
                row = _run_scheme(scheme, H, config, derive_seed(seed, 1, c, s_idx))
            except CHANNEL_ERRORS as exc:
                # numerical failure: record, drop channel from aggregates
                warnings.warn(
                    f"scheme {scheme} failed on channel {c}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                failures[scheme] += 1
                continue
            rows[scheme].append(row)
    outcomes = {s: SchemeOutcome.from_rows(s, rows[s], failures[s], config.sim_se)
                for s in schemes}
    return ExperimentResult(config=config, seed=seed, num_channels=num_channels,
                            outcomes=outcomes)
