"""Monte-Carlo experiment harness: SE under approximated vs simulated
distortion covariance, receiver power and energy efficiency, and seeded
per-channel scheme evaluation.

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
``ES``
    Exhaustive-search oracle over bit allocations (``qmimo run --oracle``).

Every scheme of a point runs on each channel in turn, so the ensemble is
drawn once. On a point with ES, the channel's AltMinBF and GPOS solves
fill a store per allocation (``bitalloc._solve``), and ES, which runs
last, continues them to the same floats.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import beamforming, bitalloc, bussgang, channel
# distortion_table is unused here; perfbench/tracer.py wraps it on this module
from .quantizer import _whole, distortion_table  # noqa: F401

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

SCHEMES = ("WF", "AltMinBF", "GPOS", "FullPrecision", "ES")


def _check_schemes(schemes: Sequence[str]) -> None:
    """Raise ``ValueError`` for a name outside ``SCHEMES`` or a repeated name."""
    unknown = [s for s in schemes if s not in SCHEMES]
    if unknown:
        raise ValueError(f"unknown schemes {unknown}; valid schemes are {list(SCHEMES)}")
    if len(set(schemes)) != len(schemes):
        raise ValueError(f"duplicate scheme name in {list(schemes)}")


#: Per-chain resolution used to account power for the full-precision scheme.
FULL_PRECISION_BITS = 12

#: Numerical errors that fail one scheme on one channel; anything else propagates,
#: a ``ValueError`` too: on the per-channel path it is an input check or a bug.
CHANNEL_ERRORS = (np.linalg.LinAlgError, FloatingPointError)


# Receiver power-model constants (formula in total_power).
P_LNA = 25e-3        # W
P_RF = 43e-3         # W
FOM_KAPPA = 494e-15  # J/step/Hz
F_S = 1e9            # Hz


def total_power(bits: Sequence[int]) -> float:
    """Total receiver power: Nr (P_LNA + P_RF) + sum_i 2 kappa f_s 2^{b_i}.

    Per-chain generalization of the uniform-resolution formula; the two
    coincide when all entries of ``bits`` are equal. Each entry follows the
    resolution rule of ``quantizer._whole``.
    """
    bits = np.array([_whole(b) for b in bits], dtype=float)
    adc = 2.0 * FOM_KAPPA * F_S * np.sum(2.0 ** bits)
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

    The rate bound at ``C_e = qd_cov_simulated(...) + sigma_n^2 G^2``, which
    keeps the cross-chain distortion correlation that the diagonal
    approximation drops.
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

    def __post_init__(self):
        # an integral value of a whole-number field is stored as int, so that
        # range() and slices take it; validate() rejects every other value
        for name in ("nt", "nr", "ns", "b", "b_max", "b_total", "max_iter", "i2",
                     "scoring_max_iter", "num_qd_samples"):
            value = getattr(self, name)
            if (isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
                    and float(value).is_integer()):
                object.__setattr__(self, name, int(value))

    @property
    def sigma_n2(self) -> float:
        return self.pt / 10.0 ** (self.snr_db / 10.0)

    @property
    def budget(self) -> int:
        """Active-bit budget ``floor(varsigma * b_total)``; ``b_total`` defaults to Nr * b.

        The 1e-9 absorbs the binary rounding of the product, so 0.29 of 100
        bits is 29 (``0.29 * 100 == 28.999999999999996``). It is exact for a
        varsigma of up to eight decimals, whose product with an integer is
        either an integer or at least 1e-8 below the next one.
        """
        total = self.nr * self.b if self.b_total is None else self.b_total
        return int(np.floor(self.varsigma * total + 1e-9))

    def validate(self, schemes: Sequence[str] = ()) -> None:
        if not self.pt > 0:
            raise ValueError(f"Pt={self.pt} must be positive")
        if not 0 < self.varsigma <= 1:
            raise ValueError(f"varsigma={self.varsigma} outside (0, 1]")
        if _whole(self.ns, "Ns") > min(self.nt, self.nr):
            raise ValueError(
                f"ns={self.ns} exceeds min(Nt, Nr)={min(self.nt, self.nr)}"
            )
        if _whole(self.b, "b") > _whole(self.b_max, "b_max"):
            raise ValueError(f"b={self.b} exceeds b_max={self.b_max}")
        _whole(self.num_qd_samples, "num_qd_samples")
        for key, value, low in (("max_iter", self.max_iter, 1), ("I2", self.i2, 0),
                                ("scoring_max_iter", self.scoring_max_iter, 1),
                                ("eps", self.eps, 0)):
            if value < low:
                raise ValueError(f"{key}={value} must be >= {low}")
        if "GPOS" in schemes:
            bitalloc._check_feasible(self.nr, self.b_max, self.budget)
        if "ES" in schemes:
            bitalloc._check_oracle(self.nr, self.b_max, self.budget)


@dataclass
class SchemeOutcome:
    """Per-scheme aggregates plus the per-channel raw values."""

    se_apx: np.ndarray
    se_sim: Optional[np.ndarray]
    ee: np.ndarray
    power_w: np.ndarray
    iterations: np.ndarray
    allocations: list[tuple[int, ...]]
    failed_channels: list[int]         # channel indices, in order, left out of the arrays
    altmin_unconverged: Optional[int]  # AltMin solves stopped by max_iter; None for ES

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], failed_channels: list[int], sim_se: bool,
                  oracle: bool) -> SchemeOutcome:
        """Outcome from the per-channel ``(se_apx, se_sim, bits, iterations, capped)`` rows.

        ``capped`` is 1 if the channel's reported AltMin solve stopped at
        ``max_iter``. The oracle row has neither a simulated SE nor a capped count.
        """
        se, sims, bits, iters, capped = zip(*rows) if rows else ((),) * 5
        power = [total_power(b) for b in bits]
        return cls(
            se_apx=np.asarray(se, dtype=float),
            se_sim=np.asarray(sims, dtype=float) if sim_se and not oracle else None,
            ee=np.asarray([energy_efficiency(x, p) for x, p in zip(se, power)], dtype=float),
            power_w=np.asarray(power, dtype=float),
            iterations=np.asarray(iters, dtype=float),
            allocations=[tuple(b) for b in bits],
            failed_channels=failed_channels,
            altmin_unconverged=None if oracle else sum(capped),
        )

    def summary(self) -> dict:
        """Ensemble aggregates, in result-file column order.

        Undefined aggregates are None: the mean of no values, the standard error
        of fewer than two, and the simulated-SE entries when ``se_sim`` is None.
        """
        def mean(x):
            return float(np.mean(x)) if x.size else None

        def stderr(x):
            return float(np.std(x, ddof=1) / np.sqrt(x.size)) if x.size > 1 else None

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


def _run_scheme(scheme: str, H: np.ndarray, cfg: PointConfig, sim_seed: int,
                solved: Optional[dict]):
    """Run one scheme on one channel; returns (se_apx, se_sim, bits, iters, capped).

    ``solved``: the channel's store of AltMin solves (module docstring), or None.
    """
    nr = cfg.nr
    uniform_bits = (cfg.b,) * nr
    if scheme in ("WF", "FullPrecision"):
        bf = beamforming.waterfilling_baseline(H, cfg.pt, cfg.sigma_n2, cfg.ns)
        bits = uniform_bits if scheme == "WF" else None  # None: all gains 1
        g = bussgang.gain_diagonal(bits, nr)
        ce = bussgang.effective_noise_cov(H @ bf.F, *bussgang.noise_weights(g, cfg.sigma_n2))
        se = beamforming.spectral_efficiency(H, bf.F, bf.U, g, ce)
        iters, converged = 0, True
    elif scheme == "AltMinBF":
        bf, rep = bitalloc._solve(H, uniform_bits, cfg.pt, cfg.sigma_n2, cfg.ns, cfg.eps,
                                  cfg.max_iter, solved)
        bits, se, iters, converged = uniform_bits, rep.final_se, rep.iterations, rep.converged
    else:  # GPOS or ES; run_experiment rejects unknown names
        kw = dict(pt=cfg.pt, sigma_n2=cfg.sigma_n2, ns=cfg.ns, b_max=cfg.b_max,
                  budget=cfg.budget, eps=cfg.eps, max_iter=cfg.max_iter, solved=solved)
        if scheme == "ES":  # the oracle row: no beamformers, so no simulated SE
            bits, se = bitalloc.exhaustive_search(H, **kw)
            return se, None, bits, 0, None
        res = bitalloc.gpos_bfba(H, i2=cfg.i2, scoring_max_iter=cfg.scoring_max_iter, **kw)
        bf, bits, se, iters = res.beamformers, res.allocation, res.se, res.iterations
        converged = res.final_report.converged

    se_sim = None
    if cfg.sim_se:
        se_sim = se_simulated(
            H, bf.F, bf.U, bits, cfg.sigma_n2,
            num_samples=cfg.num_qd_samples, seed=sim_seed,
        )
    power_bits = (FULL_PRECISION_BITS,) * nr if bits is None else bits
    return se, se_sim, power_bits, iters, int(not converged)


def run_experiment(config: PointConfig, schemes: Sequence[str],
                   num_channels: int, seed: int) -> ExperimentResult:
    """Evaluate the requested schemes over a seeded channel ensemble.

    Channel realization c uses a seed derived from (seed, 0, c) so the
    ensemble is shared by every scheme and sweep point; the simulated
    distortion covariance of scheme s on channel c uses (seed, 1, c, k),
    with k the index of s in ``SCHEMES``, so a scheme's stream does not
    depend on which other schemes run or in what order. Each channel runs
    the schemes in the given order, except that ES runs last, and its
    outcome comes last (module docstring).
    Per-channel numerical scheme failures (``CHANNEL_ERRORS``) are recorded
    and the channel is dropped from that scheme's aggregates; any other
    exception propagates. Without schemes no channel is drawn.
    """
    _check_schemes(schemes)
    config.validate(schemes)
    schemes = sorted(schemes, key="ES".__eq__)  # stable: ES moves last
    rows: dict[str, list] = {s: [] for s in schemes}
    failed: dict[str, list[int]] = {s: [] for s in schemes}
    for c in range(num_channels if schemes else 0):
        H = channel.saleh_valenzuela(config.nt, config.nr, config.sv,
                                     seed=derive_seed(seed, 0, c))
        # only ES needs the store; a 64x64 GPOS channel would fill ~70 MB of it
        solved = {} if "ES" in schemes else None
        for scheme in schemes:
            try:
                row = _run_scheme(scheme, H, config,
                                  derive_seed(seed, 1, c, SCHEMES.index(scheme)), solved)
            except CHANNEL_ERRORS as exc:
                # numerical failure: record, drop channel from aggregates
                warnings.warn(
                    f"scheme {scheme} failed on channel {c}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                failed[scheme].append(c)
                continue
            rows[scheme].append(row)
    outcomes = {s: SchemeOutcome.from_rows(rows[s], failed[s], config.sim_se, s == "ES")
                for s in schemes}
    return ExperimentResult(config=config, seed=seed, num_channels=num_channels,
                            outcomes=outcomes)
