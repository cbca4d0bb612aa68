"""Linearized quantization model: gains, covariances, arcsine law."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmimo.bussgang import (
    _HFS_BLOCK,
    _MC_BLOCK,
    _clip_psd,
    _quantized_blocks,
    effective_noise_cov,
    gain_diagonal,
    noise_weights,
    onebit_arcsine,
    optimal_onebit_beta,
    qd_cov_approx,
    qd_cov_simulated,
)
from qmimo.quantizer import _COUNT_MAX_BITS, distortion_table, gamma_approx, lloyd_max_design

TABLE = distortion_table()
G1 = 2.0 / np.pi  # one-bit Bussgang gain


def random_instance(nr, nt, ns, seed, sigma_n2=0.1):
    rng = np.random.default_rng(seed)
    H = (rng.standard_normal((nr, nt)) + 1j * rng.standard_normal((nr, nt))) / np.sqrt(2 * nt)
    F = (rng.standard_normal((nt, ns)) + 1j * rng.standard_normal((nt, ns)))
    F *= np.sqrt(1.0) / np.linalg.norm(F)
    return H, F, sigma_n2


def assert_gram_close(sim, eta):
    """``sim`` is the dense sample covariance of ``eta`` up to summation order.

    The blocked Hermitian sum adds the Gram in another order: rtol 1e-12
    per entry, with an absolute floor at 1e-12 of the largest entry.
    """
    gram = eta @ eta.conj().T / eta.shape[1]
    np.testing.assert_allclose(sim, gram, rtol=1e-12, atol=1e-12 * np.abs(gram).max())


class TestBussgangGain:
    def test_one_bit(self):
        g = gain_diagonal([1, 1, 1], 3)
        np.testing.assert_allclose(g, G1 * np.ones(3), atol=1e-4)

    def test_mixed_bits(self):
        g = gain_diagonal([1, 3], 2)
        np.testing.assert_allclose(
            g, [1 - TABLE.gamma(1), 1 - TABLE.gamma(3)], rtol=1e-12
        )

    def test_full_resolution(self):
        np.testing.assert_array_equal(gain_diagonal(None, 4), np.ones(4))

    def test_fallback_above_table(self):
        g = gain_diagonal([14], 1)
        assert g[0] == pytest.approx(1 - gamma_approx(14, "high_res"), rel=1e-12)

    def test_rejects_invalid_bits(self):
        # a resolution is never floored: [2.7, 3.2] is not read as [2, 3]
        for bits, named in (([0, 2], "0"), ([2, 2.5], "2.5"), ([2.7, 3.2], "2.7"),
                            ([True, 2], "True"), ([2, np.True_], "np.True_")):
            with pytest.raises(ValueError, match=re.escape(named)):
                gain_diagonal(bits, 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length 3"):
            gain_diagonal([1, 2], 3)


class TestQdCovApprox:
    def test_no_quantization(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        C_y = A @ A.conj().T
        out = qd_cov_approx(np.ones(3), C_y)
        np.testing.assert_allclose(out.C_eta, 0, atol=1e-15)
        np.testing.assert_allclose(out.C_q, 0, atol=1e-15)
        np.testing.assert_allclose(out.C_z, C_y, atol=1e-12)

    def test_one_bit_iid(self):
        sigma2 = 2.5
        g = gain_diagonal([1, 1], 2)
        out = qd_cov_approx(g, sigma2 * np.eye(2))
        np.testing.assert_allclose(out.C_eta, 0.2313 * sigma2 * np.ones(2), atol=1e-4 * sigma2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            qd_cov_approx(np.ones(2), np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_diagonal_matches_simulation(self):
        # diagonal entries of the closed form are exact; check against the
        # Monte-Carlo estimate on a small instance
        H, F, sn2 = random_instance(3, 4, 2, seed=5)
        bits = [2, 3, 2]
        g = gain_diagonal(bits, len(bits))
        C_y = (H @ F) @ (H @ F).conj().T + sn2 * np.eye(3)
        approx = qd_cov_approx(g, C_y).C_eta
        sim = qd_cov_simulated(H, F, sn2, bits, num_samples=10**6, seed=17)
        np.testing.assert_allclose(np.diag(sim).real, approx, rtol=0.02)


class TestEffectiveNoiseCov:
    def test_full_resolution_reduces_to_awgn(self):
        H, F, sn2 = random_instance(4, 4, 2, seed=1)
        np.testing.assert_allclose(
            effective_noise_cov(H @ F, *noise_weights(np.ones(4), sn2)), sn2 * np.ones(4),
            atol=1e-15,
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_forms_agree(self, seed):
        # the diag-based form equals Gamma diag(C_y)(I-Gamma) + sn2 (I-Gamma)^2
        H, F, sn2 = random_instance(4, 6, 3, seed=seed)
        bits = [1, 2, 3, 4]
        g = gain_diagonal(bits, len(bits))
        Gm = np.eye(4) - np.diag(g)
        C_y = (H @ F) @ (H @ F).conj().T + sn2 * np.eye(4)
        direct = np.diag(effective_noise_cov(H @ F, *noise_weights(g, sn2)))
        via_cy = Gm @ np.diag(np.diag(C_y)) @ (np.eye(4) - Gm) + sn2 * (np.eye(4) - Gm) @ (np.eye(4) - Gm)
        np.testing.assert_allclose(direct, via_cy, atol=1e-12)

    def test_one_bit_cross_check_with_ceta_plus_noise(self):
        H, F, sn2 = random_instance(3, 3, 2, seed=9)
        g = gain_diagonal([1, 1, 1], 3)
        C_y = (H @ F) @ (H @ F).conj().T + sn2 * np.eye(3)
        lhs = effective_noise_cov(H @ F, *noise_weights(g, sn2))
        rhs = qd_cov_approx(g, C_y).C_eta + sn2 * g * g
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_hermitian_psd(self):
        H, F, sn2 = random_instance(5, 5, 3, seed=3)
        g = gain_diagonal([1, 2, 3, 4, 5], 5)
        C_e = np.diag(effective_noise_cov(H @ F, *noise_weights(g, sn2)))
        np.testing.assert_allclose(C_e, C_e.conj().T)
        assert np.linalg.eigvalsh(C_e).min() > 0


class TestQdCovSimulated:
    def test_full_resolution_is_exactly_zero(self):
        H, F, sn2 = random_instance(3, 3, 2, seed=2)
        sim = qd_cov_simulated(H, F, sn2, None, num_samples=10**4, seed=0)
        np.testing.assert_array_equal(sim, np.zeros((3, 3)))

    def test_diag_within_three_standard_errors(self, one_shot_stream):
        H, F, sn2 = random_instance(4, 4, 2, seed=11)
        bits = [1, 2, 3, 4]
        n = 10**6
        _, _, eta = one_shot_stream(H, F, sn2, bits, n, seed=43)
        per_sample = np.abs(eta) ** 2
        se = per_sample.std(axis=1, ddof=1) / np.sqrt(n)
        g = gain_diagonal(bits, len(bits))
        C_y = (H @ F) @ (H @ F).conj().T + sn2 * np.eye(4)
        expected = qd_cov_approx(g, C_y).C_eta
        assert np.all(np.abs(per_sample.mean(axis=1) - expected) < 3 * se)

    def test_offdiag_grows_as_bits_shrink(self):
        H, F, sn2 = random_instance(4, 4, 2, seed=4)
        off = {}
        for b in (1, 4):
            sim = qd_cov_simulated(H, F, sn2, [b] * 4, num_samples=2 * 10**5, seed=31)
            mask = ~np.eye(4, dtype=bool)
            off[b] = np.abs(sim[mask]).mean()
        assert off[1] > off[4]

    def test_bit_identical_for_fixed_seed_and_workers(self):
        H, F, sn2 = random_instance(3, 4, 2, seed=6)
        a = qd_cov_simulated(H, F, sn2, [2, 2, 2], num_samples=2 * 10**4, seed=5)
        b = qd_cov_simulated(H, F, sn2, [2, 2, 2], num_samples=2 * 10**4, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_small_sample_warning(self):
        H, F, sn2 = random_instance(2, 2, 1, seed=7)
        with pytest.warns(RuntimeWarning, match="standard error"):
            qd_cov_simulated(H, F, sn2, [1, 1], num_samples=500, seed=0)

    def test_full_resolution_small_sample_no_warning(self):
        # bits=None draws nothing, so there is no sampling error to warn about
        H, F, sn2 = random_instance(2, 2, 1, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = qd_cov_simulated(H, F, sn2, None, num_samples=100)
        np.testing.assert_array_equal(sim, np.zeros((2, 2)))

    def test_result_hermitian_psd(self):
        H, F, sn2 = random_instance(4, 4, 2, seed=8)
        sim = qd_cov_simulated(H, F, sn2, [1, 1, 2, 2], num_samples=5 * 10**4, seed=3)
        np.testing.assert_allclose(sim, sim.conj().T)
        assert np.linalg.eigvalsh(sim).min() >= 0

    @pytest.mark.parametrize("nr, nt, ns", [(4, 5, 2), (32, 32, 4), (64, 64, 8), (8, 8, 8)])
    def test_sample_stream_and_remainder_block(self, nr, nt, ns, one_shot_stream):
        # the column blocks and their H F s sub-blocks, the last one a
        # 17-sample remainder, must reproduce the one-shot reference stream,
        # also at Ns == Nr, where the symbols fill every row of the sample
        # array; the second allocation spans the quantizer's switch from
        # counting thresholds to a binary search
        H, F, sn2 = random_instance(nr, nt, ns, seed=13)
        n_samples = 2 * _MC_BLOCK + 17
        cut = _COUNT_MAX_BITS
        for pattern in ([1, 2, 3, 4], [1, cut, cut + 1, cut + 2]):
            bits = (pattern * nr)[:nr]
            stream = np.random.SeedSequence([21, 0])
            *_, eta = one_shot_stream(H, F, sn2, bits, n_samples, stream)

            sim = qd_cov_simulated(H, F, sn2, bits, num_samples=n_samples, seed=21)
            assert_gram_close(sim, eta)

            blocks = _quantized_blocks(H, F, sn2, bits, n_samples, stream)
            np.testing.assert_array_equal(np.concatenate(list(blocks), axis=1),
                                          np.concatenate([eta.real, eta.imag]))

    @pytest.mark.filterwarnings("ignore:num_samples=.* is small:RuntimeWarning")
    @pytest.mark.parametrize("n_samples", [_MC_BLOCK - 100, _MC_BLOCK, 3 * _MC_BLOCK])
    def test_single_block_and_exact_multiple(self, n_samples, one_shot_stream):
        # one partial block, one full block, and whole blocks with no remainder
        H, F, sn2 = random_instance(3, 4, 2, seed=17)
        bits = [1, 3, 6]
        *_, eta = one_shot_stream(H, F, sn2, bits, n_samples, np.random.SeedSequence([9, 0]))
        sim = qd_cov_simulated(H, F, sn2, bits, num_samples=n_samples, seed=9)
        assert_gram_close(sim, eta)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_rejects_non_positive_sample_count(self, n_samples):
        H, F, sn2 = random_instance(2, 2, 1, seed=7)
        with pytest.raises(ValueError, match="num_samples"):
            qd_cov_simulated(H, F, sn2, [1, 1], num_samples=n_samples, seed=0)

    @pytest.mark.parametrize("seed", [1.0, None, np.random.SeedSequence(0), True],
                             ids=["float", "None", "SeedSequence", "bool"])
    def test_rejects_a_non_integer_seed(self, seed):
        H, F, sn2 = random_instance(2, 2, 1, seed=7)
        with pytest.raises(TypeError, match="seed must be an integer"):
            qd_cov_simulated(H, F, sn2, [1, 1], num_samples=10**4, seed=seed)

    def test_rejects_more_streams_than_receive_chains(self):
        # the symbols are drawn into the rows of the Nr-row sample array
        H, F, sn2 = random_instance(2, 4, 3, seed=7)
        with pytest.raises(ValueError, match="3 streams, more than H's 2 receive chains"):
            qd_cov_simulated(H, F, sn2, [1, 1], num_samples=10**4, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(nr=st.integers(1, 5), ns=st.integers(1, 3), seed=st.integers(0, 2**16),
           data=st.data())
    def test_hermitian_psd_property(self, nr, ns, seed, data):
        ns = min(ns, nr)
        bits = data.draw(st.lists(st.integers(1, 6), min_size=nr, max_size=nr))
        H, F, sn2 = random_instance(nr, nr + 1, ns, seed=seed)
        sim = qd_cov_simulated(H, F, sn2, bits, num_samples=10**4, seed=seed)
        scale = np.abs(sim).max()
        np.testing.assert_allclose(sim, sim.conj().T, rtol=0, atol=1e-14 * scale)
        assert np.linalg.eigvalsh(sim).min() >= -1e-14 * scale

    @pytest.mark.parametrize("nr, nt, ns", [(32, 32, 4), (64, 64, 8)])
    def test_peak_memory_is_bounded(self, nr, nt, ns):
        # 1e5 samples: the one (2, Nr, N) sample array, which holds the
        # symbols until H F s overwrites them, plus one 2Nr x _HFS_BLOCK
        # H F s sub-block, plus at most 0.5 MB of per-block temporaries
        H, F, sn2 = random_instance(nr, nt, ns, seed=14)
        bits = [3] * nr
        n_samples = 10**5
        qd_cov_simulated(H, F, sn2, bits, num_samples=10**4, seed=0)  # design the quantizer
        tracemalloc.start()
        try:
            qd_cov_simulated(H, F, sn2, bits, num_samples=n_samples, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 16 * nr * n_samples + 8 * 2 * nr * _HFS_BLOCK + 0.5e6
        assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


class TestClipPsd:
    def test_indefinite_input_loses_its_negative_eigenvalues(self):
        rng = np.random.default_rng(3)
        V = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        w = np.array([-0.5, -1e-3, 0.2, 2.0])
        out = _clip_psd((V * w) @ V.conj().T)
        np.testing.assert_allclose(out, out.conj().T, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [0.0, 0.0, 0.2, 2.0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(out, (V * np.clip(w, 0.0, None)) @ V.conj().T, rtol=0, atol=1e-14)

    def test_psd_input_comes_back_unchanged(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        C = A @ A.conj().T
        C = 0.5 * (C + C.conj().T)  # exactly Hermitian, so hermitizing again changes no bit
        np.testing.assert_array_equal(_clip_psd(C), C)


class TestUncorrelatedness:
    def test_distortion_uncorrelated_with_input(self, one_shot_stream):
        # every entry of the sample cross-covariance E[eta y^H] sits within
        # four standard errors of zero
        H, F, sn2 = random_instance(4, 4, 2, seed=12)
        bits = [1, 2, 3, 2]
        n = 5 * 10**5
        y, _, eta = one_shot_stream(H, F, sn2, bits, n, seed=41)
        prod = eta[:, None, :] * y.conj()[None, :, :]  # (nr, nr, n)
        mean = prod.mean(axis=2)
        se = np.sqrt(prod.real.var(axis=2, ddof=1) + prod.imag.var(axis=2, ddof=1)) / np.sqrt(n)
        assert np.all(np.abs(mean) < 4 * se)


class TestLmmseOffDiagonal:
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("bits", [(1, 1), (2, 2), (3, 3), (2, 3)])
    def test_error_cross_correlation(self, bits, rho):
        # E[q_m q_n^*] tracks gamma_m gamma_n E[y_m y_n^*] to within 10%
        # of the covariance entry E[y_m y_n^*] for moderate correlation
        # (empirical threshold; relative to the prediction itself the
        # discrepancy grows steeply with rho and resolution, e.g. +14%
        # already at one bit and rho = 0.5)
        rng = np.random.default_rng(int(rho * 100) + 10 * bits[0] + bits[1])
        C_y = np.array([[1.0, rho], [rho, 1.0]])
        L = np.linalg.cholesky(C_y)
        n = 2 * 10**6
        w = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) / np.sqrt(2)
        y = L @ w
        q_err = np.empty_like(y)
        s = np.sqrt(0.5)
        for i, b in enumerate(bits):
            q_err[i] = s * lloyd_max_design(b).quantize(y[i] / s) - y[i]
        sample = (q_err[0] * q_err[1].conj()).mean()
        predicted = TABLE.gamma(bits[0]) * TABLE.gamma(bits[1]) * rho
        assert abs(sample - predicted) / abs(rho) < 0.10


class TestOneBitArcsine:
    def test_iid_matches_diagonal_approximation(self):
        sigma2 = 1.7
        beta = optimal_onebit_beta(sigma2)
        out = onebit_arcsine(sigma2 * np.eye(3), beta)
        np.testing.assert_allclose(out.g, G1 * np.ones(3), atol=1e-3)
        np.testing.assert_allclose(out.C_eta, 0.2313 * sigma2 * np.eye(3), atol=1e-3 * sigma2)
        # and against the closed-form pipeline
        approx = qd_cov_approx(gain_diagonal([1, 1, 1], 3), sigma2 * np.eye(3))
        np.testing.assert_allclose(out.C_eta, np.diag(approx.C_eta), atol=1e-3 * sigma2)

    def test_diagonal_cy(self):
        C_y = np.diag([0.5, 2.0, 4.0])
        beta = 0.9
        out = onebit_arcsine(C_y, beta)
        np.testing.assert_allclose(out.C_z, beta * np.eye(3), atol=1e-12)
        np.testing.assert_allclose(out.C_eta, np.diag(np.diag(out.C_eta)), atol=1e-12)

    def test_correlated_matches_sign_quantization(self):
        # brute-force oracle: sign-quantize correlated Gaussian pairs
        rho = 0.5
        C_y = np.array([[1.0, rho], [rho, 1.0]], dtype=complex)
        beta = 1.3
        out = onebit_arcsine(C_y, beta)
        rng = np.random.default_rng(77)
        n = 10**6
        L = np.linalg.cholesky(C_y)
        y = L @ ((rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) / np.sqrt(2))
        z = np.sqrt(beta / 2) * (np.sign(y.real) + 1j * np.sign(y.imag))
        prod = z[0] * z[1].conj()
        sample = prod.mean()
        se = np.sqrt(prod.real.var(ddof=1) + prod.imag.var(ddof=1)) / np.sqrt(n)
        assert abs(sample - out.C_z[0, 1]) < 3 * se
        np.testing.assert_allclose(np.diag(out.C_z).real, beta, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            onebit_arcsine(np.diag([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            onebit_arcsine(np.eye(2), 0.0)
