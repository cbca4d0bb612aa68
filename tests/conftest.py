"""Shared fixtures: the one-shot Monte-Carlo reference stream."""

import numpy as np
import pytest

from qmimo.bussgang import gain_diagonal
from qmimo.quantizer import lloyd_max_design


def _one_shot_stream(H, F, sigma_n2, bits, n_samples, seed):
    """The Monte-Carlo stream drawn and quantized in one piece: (y, z, eta).

    ``seed`` goes to ``np.random.default_rng`` as it is; ``qd_cov_simulated``
    draws from ``SeedSequence([seed, 0])``. The whole stream is drawn in the
    documented order (s.real, s.imag, n.real, n.imag), ``H F s`` is the real
    planar product ``[[Re HF, -Im HF], [Im HF, Re HF]] @ [Re s; Im s]`` in one
    call, and each chain's real and imaginary parts are quantized separately.
    """
    nr, ns = H.shape[0], F.shape[1]
    rng = np.random.default_rng(seed)
    s = (rng.standard_normal((ns, n_samples))
         + 1j * rng.standard_normal((ns, n_samples))) / np.sqrt(2.0)
    n = (rng.standard_normal((nr, n_samples))
         + 1j * rng.standard_normal((nr, n_samples))) * np.sqrt(sigma_n2 / 2.0)
    hf = H @ F
    # a BLAS product computes the columns past its kernel width's last
    # multiple with other code: zero symbols pad it to whole 1024-column
    # pieces, so that each column's floats do not depend on n_samples
    symbols = np.pad(np.concatenate([s.real, s.imag]), ((0, 0), (0, -n_samples % 1024)))
    planar = (np.block([[hf.real, -hf.imag], [hf.imag, hf.real]]) @ symbols)[:, :n_samples]
    hfs = planar[:nr] + 1j * planar[nr:]
    # the planar product is the complex one up to rounding: a few ulp of
    # the largest entry
    complex_hfs = hf @ s
    np.testing.assert_allclose(hfs, complex_hfs, rtol=0,
                               atol=8 * np.finfo(float).eps * np.abs(complex_hfs).max())
    y = hfs + n
    std = np.sqrt((np.real(np.einsum("ij,ij->i", hf, hf.conj())) + sigma_n2) / 2.0)
    z = np.empty_like(y)
    for i, b in enumerate(bits):
        q = lloyd_max_design(b)
        z[i] = std[i] * (q.quantize_real(y[i].real / std[i])
                         + 1j * q.quantize_real(y[i].imag / std[i]))
    eta = z - gain_diagonal(bits, nr)[:, None] * y
    return y, z, eta


@pytest.fixture
def one_shot_stream():
    """``_one_shot_stream``, the reference that the Monte-Carlo tests compare against."""
    return _one_shot_stream
