"""Workload definitions of the qmimo benchmark.

Each workload is a ``qmimo run`` config family, cut into *chunks*: chunk
``k`` is one ``qmimo run`` sweep of a single sweep point (``k`` modulo the
number of points) and a single channel, whose master seed is derived from
the workload seed and ``k``. One chunk is therefore one channel
evaluation. A run does whole cycles over the points; the number of
channels is fixed by the run length, so the work of a run is the same on
every commit and identical between a traced and an untraced run.

``eval_s`` is the measured cost of one channel evaluation (all schemes on
one channel at one sweep point) of the frozen reference program under
``baseline/`` on a 2-vCPU x86-64 VM. An untraced run executes every chunk
twice, once by the program and once by the reference, so a run of
``seconds`` does about ``seconds / (2 * eval_s)`` chunks there.

This module imports nothing from qmimo or numpy; the launcher reads it
before any program code is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Seed at which reference outputs are stored under ``reference/``.
DEFAULT_SEED = 0
#: Set-up time (``import qmimo`` plus the first ``distortion_table()``) of
#: the frozen reference program on the VM that measured ``eval_s``.
REFERENCE_SETUP_S = 2.7


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    eval_s: float
    why: str
    oracle: bool = False
    points: int = field(init=False)

    def __post_init__(self):
        n = 1
        for axis in ("snr_db", "b"):
            value = self.config[axis]
            n *= len(value) if isinstance(value, list) else 1
        object.__setattr__(self, "points", n)

    def channels(self, seconds: float) -> int:
        """Channels per sweep point for an untraced run of about ``seconds``."""
        return max(1, round(seconds / (2 * self.points * self.eval_s)))

    def point_config(self, p: int) -> dict:
        """Config of sweep point ``p``: the workload config at one (snr_db, b)."""
        def axis(name):
            value = self.config[name]
            return value if isinstance(value, list) else [value]

        grid = [(snr, b) for snr in axis("snr_db") for b in axis("b")]
        snr, b = grid[p]
        return dict(self.config, snr_db=snr, b=b, num_channels=1)

    def chunk_seed(self, seed: int, k: int) -> int:
        """Master seed of chunk ``k``: one channel per cycle over the points."""
        return seed * 100_000 + k // self.points

    def cli_args(self, config_path, out_dir, chunk_seed: int) -> list[str]:
        args = ["run", str(config_path), "--output-dir", str(out_dir),
                "--channels", "1", "--seed", str(chunk_seed)]
        return args + ["--oracle"] if self.oracle else args


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-64",
        config={"Nt": 64, "Nr": 64, "Ns": 8, "b": 3, "snr_db": [10, 20],
                "schemes": ["WF", "AltMinBF", "FullPrecision"], "sim_se": False},
        eval_s=2.15,
        why="paper-scale 64x64 AltMin beamforming, bound by BLAS on large "
            "matrices; bit allocation and Monte-Carlo stay idle",
    ),
    Workload(
        name="gpos-16",
        config={"Nt": 16, "Nr": 16, "Ns": 4, "b": 2, "b_max": 4, "snr_db": 20,
                "schemes": ["GPOS", "AltMinBF"], "sim_se": False},
        eval_s=9.2,
        why="GPOS pair-swap search scoring hundreds of capped AltMin solves "
            "on small matrices, bound by per-call Python overhead",
    ),
    Workload(
        name="simse-32",
        config={"Nt": 32, "Nr": 32, "Ns": 4, "b": [1, 3], "snr_db": 20,
                "schemes": ["WF", "FullPrecision"], "sim_se": True,
                "num_qd_samples": 100000},
        eval_s=0.77,
        why="Monte-Carlo distortion covariance and per-chain quantisation "
            "dominate; beamforming and bit allocation stay almost idle",
    ),
    Workload(
        name="oracle-8x4",
        config={"Nt": 8, "Nr": 4, "Ns": 2, "b": 2, "b_max": 3,
                "snr_db": [0, 10, 20, 30],
                "schemes": ["WF", "AltMinBF", "GPOS"], "sim_se": False},
        eval_s=0.8,
        oracle=True,
        why="many sweep points of tiny solves with the exhaustive oracle, "
            "its second channel loop and per-point result rewrites",
    ),
)}
