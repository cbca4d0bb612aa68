"""Spectral/energy-efficiency toolkit for MIMO links with low-resolution ADCs.

Submodules
----------
quantizer
    Unit-variance Lloyd-Max scalar quantizers, distortion factors.
bussgang
    Linearized quantization model: gains and distortion covariances.
channel
    Saleh-Valenzuela mmWave channel realizations.
beamforming
    Rate bound, water-filling baseline, alternating WMMSE design.
bitalloc
    Greedy/pair-swap/exhaustive per-chain bit allocation.
evaluation
    Power/EE model and the seeded Monte-Carlo experiment harness.
cli
    JSON-config batch front end (``qmimo run``).
"""

from .beamforming import (
    AltMinReport,
    Beamformers,
    altmin_beamforming,
    spectral_efficiency,
    waterfilling_baseline,
)
from .bitalloc import exhaustive_search, gpos_bfba, greedy_init
from .bussgang import (
    effective_noise_cov,
    gain_diagonal,
    noise_weights,
    onebit_arcsine,
    qd_cov_approx,
    qd_cov_simulated,
)
from .channel import SVParams, saleh_valenzuela
from .evaluation import (
    ExperimentResult,
    PointConfig,
    energy_efficiency,
    run_experiment,
    se_simulated,
    total_power,
)
from .quantizer import (
    DistortionTable,
    ScalarQuantizer,
    distortion_table,
    gamma_approx,
    lloyd_max_design,
)

__version__ = "0.1.0"
