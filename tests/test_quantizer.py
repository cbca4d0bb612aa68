"""Quantizer design, scaling, and distortion-factor tests."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from qmimo.bussgang import gain_diagonal
from qmimo.quantizer import (
    DistortionTable,
    ScalarQuantizer,
    _COUNT_MAX_BITS,
    _design_lloyd_max,
    _unit_quantizer,
    distortion_table,
    estimate_distortion_factor,
    gamma_approx,
    gaussian_quantizer_mse,
    lloyd_max_design,
    optimal_uniform_design,
    quantizer_mse,
    scale_to_variance,
)

ONE_BIT_LEVEL = np.sqrt(2.0 / np.pi)  # 0.7978845608


def centroid_residual(q: ScalarQuantizer) -> float:
    """Max deviation of codewords from the conditional cell means."""
    t = q.thresholds / q.input_std
    pdf, cdf = norm.pdf(t), norm.cdf(t)
    means = (pdf[:-1] - pdf[1:]) / (cdf[1:] - cdf[:-1])
    return float(np.max(np.abs(q.codebook / q.input_std - means)))


def midpoint_residual(q: ScalarQuantizer) -> float:
    """Max deviation of interior thresholds from codeword midpoints."""
    mid = 0.5 * (q.codebook[:-1] + q.codebook[1:])
    return float(np.max(np.abs(q.thresholds[1:-1] - mid)))


def searchsorted_reference(q: ScalarQuantizer, x) -> np.ndarray:
    """``quantize_real`` by binary search over the inner thresholds."""
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(q.thresholds[1:-1], x, side="left")
    idx = np.where(x == 0.0, q.num_levels // 2, idx)
    return q.codebook[idx]


class TestLloydMax:
    def test_one_bit_codebook(self):
        q = lloyd_max_design(1)
        np.testing.assert_allclose(q.codebook, [-ONE_BIT_LEVEL, ONE_BIT_LEVEL], atol=1e-10)

    def test_one_bit_mse(self):
        q = lloyd_max_design(1)
        assert quantizer_mse(q) == pytest.approx(1.0 - 2.0 / np.pi, abs=1e-12)

    def test_two_bit_mse_frozen(self):
        # value frozen from the tol=1e-10 iteration itself
        q = lloyd_max_design(2)
        assert quantizer_mse(q) == pytest.approx(0.1174818478, abs=1e-9)

    def test_two_bit_mse_vs_fitted_formula(self):
        d = quantizer_mse(lloyd_max_design(2))
        fitted = 2.0 ** (-1.74 * 2 + 0.28)  # ~0.109
        assert abs(fitted - d) / d < 0.12

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_fixed_point_residuals(self, bits):
        q = lloyd_max_design(bits, tol=1e-10)
        assert midpoint_residual(q) == 0.0
        assert centroid_residual(q) <= 1e-10

    @pytest.mark.parametrize("bits", [2, 4, 6])
    def test_mse_nonincreasing_over_iterations(self, bits):
        _, info = _design_lloyd_max(bits, tol=1e-10, max_iter=10**4)
        trace = info["mse_trace"]
        assert np.all(np.diff(trace) <= 1e-9 * trace[:-1])

    def test_symmetry(self):
        q = lloyd_max_design(3)
        np.testing.assert_allclose(q.codebook, -q.codebook[::-1], atol=1e-9)
        np.testing.assert_allclose(q.thresholds[1:-1], -q.thresholds[1:-1][::-1], atol=1e-9)

    def test_invariants(self):
        q = lloyd_max_design(4)
        assert np.all(np.diff(q.thresholds) > 0)
        assert np.all(np.diff(q.codebook) > 0)
        # c_j in (t_j, t_{j+1}]
        assert np.all(q.codebook > q.thresholds[:-1])
        assert np.all(q.codebook <= q.thresholds[1:])

    def test_non_convergence_warns_not_raises(self):
        with pytest.warns(RuntimeWarning, match="residual"):
            q = lloyd_max_design(6, tol=1e-10, max_iter=3)
        assert q.num_levels == 64

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            lloyd_max_design(0)


class TestOptimalUniform:
    def test_one_bit_matches_lloyd_max(self):
        qu = optimal_uniform_design(1)
        ql = lloyd_max_design(1)
        np.testing.assert_allclose(qu.codebook, ql.codebook, atol=1e-7)

    def test_two_bit_mse_close_to_lloyd_max(self):
        du = quantizer_mse(optimal_uniform_design(2))
        dl = quantizer_mse(lloyd_max_design(2))
        assert abs(du - dl) / dl < 0.02

    @pytest.mark.parametrize("bits", [3, 4, 5])
    def test_never_beats_lloyd_max(self, bits):
        assert quantizer_mse(optimal_uniform_design(bits)) >= quantizer_mse(lloyd_max_design(bits))

    def test_structure(self):
        q = optimal_uniform_design(3)
        steps = np.diff(q.codebook)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)
        np.testing.assert_allclose(
            q.thresholds[1:-1], 0.5 * (q.codebook[:-1] + q.codebook[1:]), atol=1e-12
        )


class TestQuantizeComplex:
    def test_one_bit_sign_mapping(self):
        q = lloyd_max_design(1)
        z = q.quantize(0.3 - 2.1j)
        assert z == pytest.approx(ONE_BIT_LEVEL - 1j * ONE_BIT_LEVEL, abs=1e-9)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_zero_maps_to_first_positive_level(self, bits):
        q = lloyd_max_design(bits)
        z = q.quantize(0.0 + 0.0j)
        first_positive = q.codebook[q.num_levels // 2]
        assert first_positive > 0
        assert z == pytest.approx(first_positive * (1 + 1j), abs=1e-12)

    def test_threshold_assigned_to_lower_interval(self):
        q = lloyd_max_design(2)
        t1 = q.thresholds[1]  # finite, negative interior threshold
        assert q.quantize_real(t1) == pytest.approx(q.codebook[0])
        t3 = q.thresholds[3]
        assert q.quantize_real(t3) == pytest.approx(q.codebook[2])

    def test_open_ended_cells_accept_any_magnitude(self):
        q = lloyd_max_design(2)
        assert q.quantize_real(1e9) == q.codebook[-1]
        assert q.quantize_real(-1e9) == q.codebook[0]

    def test_vectorized(self):
        q = lloyd_max_design(3)
        x = np.array([0.1 + 0.2j, -1.4 - 0.3j])
        z = q.quantize(x)
        assert z.shape == x.shape
        assert z[0].real == q.quantize_real(0.1)

    def test_strided_input_matches_separate_parts(self):
        # exact zeros and values on a threshold, in a non-contiguous view
        q = lloyd_max_design(3)
        inner = q.thresholds[1:-1]
        vals = np.concatenate([inner, -inner, [0.0, 0.0, 2.5, -3.0]])
        block = np.zeros((vals.size, 3), dtype=complex)
        block[:, 1] = vals + 1j * vals[::-1]
        block[::3, 1] = 0.0
        x = block[:, 1]
        assert not x.flags.c_contiguous
        z = q.quantize(x)
        np.testing.assert_array_equal(z, q.quantize_real(x.real) + 1j * q.quantize_real(x.imag))
        x2 = block[:, 1:].T  # 2-D, transposed
        np.testing.assert_array_equal(
            q.quantize(x2), q.quantize_real(x2.real) + 1j * q.quantize_real(x2.imag))
        z0 = q.quantize(complex(inner[2], 0.0))
        assert np.ndim(z0) == 0
        assert z0 == q.quantize_real(inner[2]) + 1j * q.quantize_real(0.0)

    @settings(max_examples=200, deadline=None)
    @given(bits=st.integers(1, _COUNT_MAX_BITS + 2),
           sigma=st.sampled_from([1.0, 1e-3, 0.37, 42.0]),
           data=st.data())
    def test_matches_searchsorted_reference(self, bits, sigma, data):
        # both sides of the counting cutoff, on unit and scaled designs;
        # the input mixes the thresholds themselves, signed zeros,
        # infinities, NaN and arbitrary floats
        q = scale_to_variance(_unit_quantizer(bits), sigma)
        special = q.thresholds[1:-1].tolist() + [0.0, -0.0, np.inf, -np.inf, np.nan]
        x = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(special), st.floats(allow_nan=True)),
            min_size=1, max_size=64)))
        np.testing.assert_array_equal(q.quantize_real(x), searchsorted_reference(q, x))
        for v in special:
            assert q.quantize_real(v) == searchsorted_reference(q, v)


class TestScaleToVariance:
    def test_identity(self):
        q = lloyd_max_design(2)
        assert scale_to_variance(q, 1.0) is q

    def test_one_bit_scaled(self):
        q = scale_to_variance(lloyd_max_design(1), 2.0)
        np.testing.assert_allclose(q.codebook, [-2 * ONE_BIT_LEVEL, 2 * ONE_BIT_LEVEL])
        assert q.input_std == 2.0

    def test_invalid_sigma(self):
        q = lloyd_max_design(1)
        with pytest.raises(ValueError):
            scale_to_variance(q, 0.0)
        with pytest.raises(ValueError):
            scale_to_variance(q, -1.0)

    def test_mse_scales_with_variance(self):
        # Monte-Carlo MSE on N(0, 9) should be 9 * D(b) within 3 standard errors
        rng = np.random.default_rng(42)
        sigma = 3.0
        q = scale_to_variance(lloyd_max_design(3), sigma)
        x = sigma * rng.standard_normal(10**6)
        err2 = (q.quantize_real(x) - x) ** 2
        se = err2.std(ddof=1) / np.sqrt(err2.size)
        expected = sigma**2 * quantizer_mse(lloyd_max_design(3))
        assert abs(err2.mean() - expected) < 3 * se

    @pytest.mark.parametrize("sigma", [0.1, 0.73, 2.5, 10.0])
    def test_distortion_invariance_random_scales(self, sigma):
        rng = np.random.default_rng(hash(sigma) % 2**32)
        q = scale_to_variance(lloyd_max_design(2), sigma)
        x = sigma * rng.standard_normal(4 * 10**5)
        err2 = (q.quantize_real(x) - x) ** 2
        se = err2.std(ddof=1) / np.sqrt(err2.size)
        expected = sigma**2 * quantizer_mse(lloyd_max_design(2))
        assert abs(err2.mean() - expected) < 3 * se


class TestGammaApprox:
    def test_fitted_b3(self):
        assert gamma_approx(3, "fitted") == pytest.approx(2.0 ** (-4.94), rel=1e-12)
        assert gamma_approx(3, "fitted") == pytest.approx(0.0326, abs=2e-4)

    def test_high_res_b6(self):
        assert gamma_approx(6, "high_res") == pytest.approx(
            (np.sqrt(3) * np.pi / 2) * 2.0**-12, rel=1e-12
        )
        assert gamma_approx(6, "high_res") == pytest.approx(6.64e-4, abs=1e-6)

    def test_high_res_overshoots_at_one_bit(self):
        # documents the known low-resolution inaccuracy of the 2^(-2b) law
        approx = gamma_approx(1, "high_res")
        assert approx == pytest.approx(0.680, abs=1e-3)
        assert approx > 1.5 * 0.3634

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            gamma_approx(2, "exact")
        with pytest.raises(ValueError):
            gamma_approx(0, "fitted")


class TestDistortionTable:
    def test_gamma_one_bit(self):
        t = distortion_table()
        assert abs(t.gamma(1) - (1 - 2 / np.pi)) < 1e-4

    def test_monotone_decreasing(self):
        t = distortion_table()
        gammas = [t.gamma(b) for b in range(1, 13)]
        assert all(g2 < g1 for g1, g2 in zip(gammas, gammas[1:]))

    def test_uniform_variant_monotone(self):
        gammas = [quantizer_mse(optimal_uniform_design(b)) for b in range(1, 9)]
        assert all(g2 < g1 for g1, g2 in zip(gammas, gammas[1:]))

    def test_designs_each_resolution_on_first_use(self):
        _unit_quantizer.cache_clear()
        distortion_table.cache_clear()
        distortion_table().gamma(3)
        assert _unit_quantizer.cache_info().currsize == 1
        # b >= 10 designs stop at the floating-point floor without warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gain_diagonal([10, 11, 12], 3)
        for b in range(1, 13):
            assert distortion_table().gamma(b) == quantizer_mse(_unit_quantizer(b))

    def test_design_keeps_shown_warnings_shown(self):
        # leaving warnings.catch_warnings() resets the once-per-location
        # registry; a design made mid-run must not print a shown warning again
        script = (
            "import warnings\n"
            "from qmimo.quantizer import _unit_quantizer\n"
            "def warn():\n"
            "    warnings.warn('shown once', UserWarning)\n"
            "warn()\n"
            "warn()\n"
            "_unit_quantizer(4)\n"
            "warn()\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-W", "default", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("UserWarning: shown once") == 1, proc.stderr

    def test_fallback_above_table(self):
        t = distortion_table()
        assert t.gamma(13) == gamma_approx(13, "high_res")
        with pytest.raises(ValueError):
            t.gamma(0)

    def test_fitted_accuracy_envelope(self):
        # measured accuracy of the low-resolution fit against the table:
        # within 12% up to four bits; the error peaks at ~16.6% at five bits
        t = distortion_table()
        for b in range(1, 5):
            assert abs(gamma_approx(b, "fitted") - t.gamma(b)) / t.gamma(b) < 0.12
        assert abs(gamma_approx(5, "fitted") - t.gamma(5)) / t.gamma(5) < 0.17

    def test_high_res_accuracy_envelope(self):
        # within 5% from six bits up; ~6.1% at five bits
        t = distortion_table()
        for b in range(6, 9):
            assert abs(gamma_approx(b, "high_res") - t.gamma(b)) / t.gamma(b) < 0.05
        assert abs(gamma_approx(5, "high_res") - t.gamma(5)) / t.gamma(5) < 0.062


class TestEstimateDistortionFactor:
    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_matched_gaussian_vectors(self, bits):
        # 1e5 complex samples grouped as received vectors of 16 entries;
        # the norm-ratio average tracks the table value
        rng = np.random.default_rng(100 + bits)
        rows, width = 6250, 16
        s = (rng.standard_normal((rows, width))
             + 1j * rng.standard_normal((rows, width))) / np.sqrt(2)
        q = scale_to_variance(lloyd_max_design(bits), 1.0 / np.sqrt(2))
        err2 = np.abs(s - q.quantize(s)) ** 2
        ratios = err2.sum(axis=1) / (np.abs(s) ** 2).sum(axis=1)
        se = ratios.std(ddof=1) / np.sqrt(rows)
        est = estimate_distortion_factor(s, q)
        assert est == pytest.approx(ratios.mean())
        gamma = distortion_table().gamma(bits)
        assert abs(est - gamma) < 3 * se

    @pytest.mark.parametrize("bits", [2, 3])
    def test_qam16_signaling_below_gaussian_gamma(self, bits):
        # 16QAM streams mixed by a random channel land below the Gaussian
        # table value, and below the same estimate fed Gaussian streams
        rng = np.random.default_rng(3)
        nt, nr, ns, count = 16, 16, 4, 6250
        H = (rng.standard_normal((nr, nt)) + 1j * rng.standard_normal((nr, nt))) / np.sqrt(2 * nt)
        F = np.linalg.qr(rng.standard_normal((nt, ns)) + 1j * rng.standard_normal((nt, ns)))[0]
        std = np.sqrt(np.real(np.einsum("ij,ij->i", H @ F, (H @ F).conj())))
        q = scale_to_variance(lloyd_max_design(bits), 1.0 / np.sqrt(2))

        def estimate(kind):
            levels = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10)
            if kind == "qam16":
                s = (levels[rng.integers(0, 4, (ns, count))]
                     + 1j * levels[rng.integers(0, 4, (ns, count))])
            else:
                s = (rng.standard_normal((ns, count))
                     + 1j * rng.standard_normal((ns, count))) / np.sqrt(2)
            y_rows = (H @ F @ s / std[:, None]).T  # unit-variance entries
            return estimate_distortion_factor(y_rows, q)

        est_qam = estimate("qam16")
        assert est_qam < distortion_table().gamma(bits)
        assert est_qam < estimate("gaussian")

    def test_codebook_samples_give_zero(self):
        q = lloyd_max_design(2)
        s = q.codebook + 1j * q.codebook
        assert estimate_distortion_factor(s, q) == 0.0

    def test_zero_samples_skipped(self):
        q = lloyd_max_design(1)
        s = np.array([0.0 + 0.0j, 1.0 + 1.0j])
        est = estimate_distortion_factor(s, q)
        expected = np.abs((1 + 1j) - q.quantize(1 + 1j)) ** 2 / 2.0
        assert est == pytest.approx(expected)

    def test_all_zero_rejected(self):
        q = lloyd_max_design(1)
        with pytest.raises(ValueError):
            estimate_distortion_factor(np.zeros(4, dtype=complex), q)
        with pytest.raises(ValueError):
            estimate_distortion_factor(np.array([], dtype=complex), q)


class TestComplexExtension:
    def test_output_uncorrelated_with_error_and_gamma_split(self):
        # E[Q(X) (Q(X)-X)^*] ~ 0 and the real/imaginary distortion factors agree
        rng = np.random.default_rng(11)
        n = 4 * 10**5
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        q = scale_to_variance(lloyd_max_design(2), 1.0 / np.sqrt(2))
        z = q.quantize(x)
        chi = z - x
        prod = z * chi.conj()
        se = prod.std(ddof=1) / np.sqrt(n)
        assert abs(prod.mean()) < 4 * se
        g_re = np.mean(chi.real**2) / np.mean(x.real**2)
        g_im = np.mean(chi.imag**2) / np.mean(x.imag**2)
        assert g_re == pytest.approx(g_im, rel=0.02)
        assert g_re == pytest.approx(distortion_table().gamma(2), rel=0.02)

    @pytest.mark.parametrize("bits", [2, 3])
    def test_uniform_variant_output_error_orthogonality(self, bits):
        # the optimal step size makes E[Q(X) (Q(X)-X)^*] vanish for the
        # uniform quantizer as well (stationarity of the MSE in the step)
        rng = np.random.default_rng(300 + bits)
        n = 10**6
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        q = scale_to_variance(optimal_uniform_design(bits), 1.0 / np.sqrt(2))
        z = q.quantize(x)
        prod = z * (z - x).conj()
        se = np.sqrt(prod.real.var(ddof=1) + prod.imag.var(ddof=1)) / np.sqrt(n)
        assert abs(prod.mean()) < 3 * se

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_centroid_identities(self, bits):
        # sample mean of Q(Y) matches that of Y, and Q(Y) is uncorrelated
        # with the quantization error, each within 3 standard errors
        rng = np.random.default_rng(200 + bits)
        y = rng.standard_normal(5 * 10**5)
        q = lloyd_max_design(bits)
        qy = q.quantize_real(y)
        diff = qy - y
        se_mean = diff.std(ddof=1) / np.sqrt(y.size)
        assert abs(qy.mean() - y.mean()) < 3 * se_mean
        prod = qy * diff
        se_prod = prod.std(ddof=1) / np.sqrt(y.size)
        assert abs(prod.mean()) < 3 * se_prod


class TestScalarQuantizerValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ScalarQuantizer(bits=1, thresholds=np.array([-np.inf, 0.0]), codebook=np.array([-1.0, 1.0]))

    def test_rejects_finite_ends(self):
        with pytest.raises(ValueError):
            ScalarQuantizer(
                bits=1, thresholds=np.array([-5.0, 0.0, 5.0]), codebook=np.array([-1.0, 1.0])
            )

    def test_rejects_nonmonotone_codebook(self):
        with pytest.raises(ValueError):
            ScalarQuantizer(
                bits=1, thresholds=np.array([-np.inf, 0.0, np.inf]), codebook=np.array([1.0, -1.0])
            )

    def test_gaussian_mse_helper_matches_sampling(self):
        q = optimal_uniform_design(3)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(10**6)
        mc = np.mean((q.quantize_real(x) - x) ** 2)
        assert gaussian_quantizer_mse(q.thresholds, q.codebook) == pytest.approx(mc, rel=5e-3)
