"""Quantizer design, scaling, and distortion-factor tests."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from qmimo import quantizer
from qmimo.beamforming import altmin_beamforming
from qmimo.bussgang import gain_diagonal
from qmimo.channel import saleh_valenzuela
from qmimo.evaluation import PointConfig, total_power
from qmimo.quantizer import (
    DistortionTable,
    ScalarQuantizer,
    _COUNT_MAX_BITS,
    distortion_table,
    gamma_approx,
    lloyd_max_design,
    quantizer_mse,
)

ONE_BIT_LEVEL = np.sqrt(2.0 / np.pi)  # 0.7978845608


def centroid_residual(q: ScalarQuantizer) -> float:
    """Max deviation of codewords from the conditional cell means.

    Upper-half cell probabilities are survival-function differences: cdf
    differences there cancel against 1 and floor far above 1e-10 at b >= 9.
    """
    t = q.thresholds
    pdf, cdf, sf = norm.pdf(t), norm.cdf(t), norm.sf(t)
    upper = np.arange(q.num_levels) >= q.num_levels // 2
    prob = np.where(upper, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])
    means = (pdf[:-1] - pdf[1:]) / prob
    return float(np.max(np.abs(q.codebook - means)))


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

    @pytest.mark.parametrize("bits", range(1, 13))
    def test_fixed_point_residuals(self, bits):
        lloyd_max_design.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = lloyd_max_design(bits)
        assert midpoint_residual(q) == 0.0
        assert centroid_residual(q) <= 1e-10

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

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(quantizer, "_MAX_STEPS", 1)
        lloyd_max_design.cache_clear()
        with pytest.raises(RuntimeError, match="did not converge"):
            lloyd_max_design(6)
        monkeypatch.undo()
        assert lloyd_max_design(6).num_levels == 64

    def test_bits_validation(self):
        for bits in (0, 2.5, True, np.True_):
            with pytest.raises(ValueError, match=re.escape(repr(bits))):
                lloyd_max_design(bits)

    @pytest.mark.parametrize("bits", range(1, 13))
    def test_newton_steps(self, bits, monkeypatch):
        # from the quantile start every design converges in at most 5 steps,
        # far inside _MAX_STEPS
        steps = []
        solve = quantizer._solve_tridiagonal

        def counting(*args):
            steps.append(1)
            return solve(*args)

        monkeypatch.setattr(quantizer, "_solve_tridiagonal", counting)
        lloyd_max_design.cache_clear()
        lloyd_max_design(bits)
        assert 1 <= len(steps) <= 5 < quantizer._MAX_STEPS


class TestDesignNumerics:
    """The numpy-only Gaussian CDF, quantile start and tridiagonal solve."""

    EPS = np.finfo(float).eps
    TINY = np.finfo(float).tiny

    def test_cdf_exact_at_infinities_and_zero(self):
        phi = quantizer._ndtr(np.array([-np.inf, 0.0, np.inf]))
        np.testing.assert_array_equal(phi, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(phi, norm.cdf([-np.inf, 0.0, np.inf]))
        np.testing.assert_array_equal(quantizer._ndtr(np.array([np.inf, -np.inf])),
                                      norm.sf([-np.inf, np.inf]))

    def test_cdf_and_survival_match_scipy_out_to_38(self):
        # rounding t / sqrt 2 alone moves Phi(t) by about t^2 eps relative in
        # the tail, in either implementation; below the smallest normal
        # number scipy flushes to zero while erfc keeps the subnormal value
        t = np.linspace(-38.0, 38.0, 7601)
        bound = 4.0 * (1.0 + t * t) * self.EPS
        for ours, ref in ((quantizer._ndtr(t), norm.cdf(t)), (quantizer._ndtr(-t), norm.sf(t))):
            assert np.all(np.abs(ours - ref) <= bound * ref + self.TINY)
        assert np.all(np.diff(quantizer._ndtr(t)) >= 0)

    @pytest.mark.parametrize("nq", [2, 8, 4096])
    def test_quantile_start_matches_ppf(self, nq):
        want = norm.ppf((np.arange(nq) + 0.5) / nq)
        np.testing.assert_allclose(quantizer._quantile_codebook(nq), want,
                                   rtol=8 * self.EPS, atol=8 * self.EPS)

    @pytest.mark.parametrize("n", [2, 3, 257, 4097])
    def test_tridiagonal_solve_matches_dense(self, n):
        rng = np.random.default_rng(n)
        lower = rng.uniform(-1.0, 1.0, n - 1)
        upper = rng.uniform(-1.0, 1.0, n - 1)
        # |diag| > 2 exceeds every row's off-diagonal sum, of either sign
        diag = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 3.0, n)
        rhs = rng.standard_normal(n)
        A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        want = np.linalg.solve(A, rhs)
        got = quantizer._solve_tridiagonal(lower, diag, upper, rhs)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


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
        unit = lloyd_max_design(bits)
        q = ScalarQuantizer(bits, unit.thresholds * sigma, unit.codebook * sigma)
        special = q.thresholds[1:-1].tolist() + [0.0, -0.0, np.inf, -np.inf, np.nan]
        x = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(special), st.floats(allow_nan=True)),
            min_size=1, max_size=64)))
        np.testing.assert_array_equal(q.quantize_real(x), searchsorted_reference(q, x))
        for v in special:
            assert q.quantize_real(v) == searchsorted_reference(q, v)


class TestScaleToVariance:
    """Caller-side scaling ``sigma * q.quantize_real(x / sigma)`` of a unit design."""

    def test_mse_scales_with_variance(self):
        # Monte-Carlo MSE on N(0, 9) should be 9 * D(b) within 3 standard errors
        rng = np.random.default_rng(42)
        sigma = 3.0
        q = lloyd_max_design(3)
        x = sigma * rng.standard_normal(10**6)
        err2 = (sigma * q.quantize_real(x / sigma) - x) ** 2
        se = err2.std(ddof=1) / np.sqrt(err2.size)
        expected = sigma**2 * quantizer_mse(lloyd_max_design(3))
        assert abs(err2.mean() - expected) < 3 * se

    @pytest.mark.parametrize("sigma", [0.1, 0.73, 2.5, 10.0])
    def test_distortion_invariance_random_scales(self, sigma):
        rng = np.random.default_rng(hash(sigma) % 2**32)
        q = lloyd_max_design(2)
        x = sigma * rng.standard_normal(4 * 10**5)
        err2 = (sigma * q.quantize_real(x / sigma) - x) ** 2
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
        for bits in (0, 2.5, True, np.True_):
            with pytest.raises(ValueError, match=re.escape(repr(bits))):
                gamma_approx(bits, "fitted")


class TestDistortionTable:
    def test_gamma_one_bit(self):
        t = distortion_table()
        assert abs(t.gamma(1) - (1 - 2 / np.pi)) < 1e-4

    def test_monotone_decreasing(self):
        t = distortion_table()
        gammas = [t.gamma(b) for b in range(1, 13)]
        assert all(g2 < g1 for g1, g2 in zip(gammas, gammas[1:]))

    def test_designs_each_resolution_on_first_use(self):
        lloyd_max_design.cache_clear()
        distortion_table.cache_clear()
        distortion_table().gamma(3)
        assert lloyd_max_design.cache_info().currsize == 1
        # the b >= 10 designs converge without warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gain_diagonal([10, 11, 12], 3)
        for b in range(1, 13):
            assert distortion_table().gamma(b) == quantizer_mse(lloyd_max_design(b))

    def test_design_keeps_shown_warnings_shown(self):
        # leaving warnings.catch_warnings() resets the once-per-location
        # registry; a design made mid-run must not print a shown warning again
        script = (
            "import warnings\n"
            "from qmimo.quantizer import lloyd_max_design\n"
            "def warn():\n"
            "    warnings.warn('shown once', UserWarning)\n"
            "warn()\n"
            "warn()\n"
            "lloyd_max_design(12)\n"
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
        for bits in (0, 13.5, True, np.True_):
            with pytest.raises(ValueError, match=re.escape(repr(bits))):
                t.gamma(bits)

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


class TestComplexExtension:
    def test_output_uncorrelated_with_error_and_gamma_split(self):
        # E[Q(X) (Q(X)-X)^*] ~ 0 and the real/imaginary distortion factors agree
        rng = np.random.default_rng(11)
        n = 4 * 10**5
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        s = 1.0 / np.sqrt(2)
        z = s * lloyd_max_design(2).quantize(x / s)
        chi = z - x
        prod = z * chi.conj()
        se = prod.std(ddof=1) / np.sqrt(n)
        assert abs(prod.mean()) < 4 * se
        g_re = np.mean(chi.real**2) / np.mean(x.real**2)
        g_im = np.mean(chi.imag**2) / np.mean(x.imag**2)
        assert g_re == pytest.approx(g_im, rel=0.02)
        assert g_re == pytest.approx(distortion_table().gamma(2), rel=0.02)

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
        # a non-Lloyd-Max design: 3-bit uniform levels, thresholds at midpoints
        step = 0.586
        q = ScalarQuantizer(bits=3, thresholds=np.r_[-np.inf, np.arange(-3, 4) * step, np.inf],
                            codebook=(np.arange(8) - 3.5) * step)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(10**6)
        mc = np.mean((q.quantize_real(x) - x) ** 2)
        assert quantizer_mse(q) == pytest.approx(mc, rel=5e-3)


def _design_fields(q: ScalarQuantizer):
    return type(q.bits), q.bits, q.thresholds, q.codebook


def _altmin_fields(bits):
    H = saleh_valenzuela(4, 4, seed=0)
    bf, rep = altmin_beamforming(H, [bits, 2, 3, 1], 1.0, 0.1, 2, max_iter=5)
    return bf.F, bf.U, rep.objective_trace, rep.final_se, rep.iterations


# every reader of a per-chain resolution, each given the resolution under test
RESOLUTION_READERS = {
    "gain_diagonal": lambda b: gain_diagonal([2, b], 2),
    "total_power": lambda b: total_power([b, 2]),
    "lloyd_max_design": lambda b: _design_fields(lloyd_max_design(b)),
    "gamma_approx": lambda b: (gamma_approx(b), gamma_approx(b, "high_res")),
    "distortion_table().gamma": lambda b: distortion_table().gamma(b),
    "ScalarQuantizer": lambda b: _design_fields(
        ScalarQuantizer(b, lloyd_max_design(3).thresholds, lloyd_max_design(3).codebook)),
    "PointConfig.validate b": lambda b: PointConfig(nt=8, nr=4, ns=2, b=b, b_max=3).validate(),
    "PointConfig.validate b_max": lambda b: PointConfig(nt=8, nr=4, ns=2, b=1,
                                                        b_max=b).validate(),
    "altmin_beamforming": _altmin_fields,
}


class TestResolutionRule:
    """A per-chain resolution is a whole number of bits >= 1, for every reader."""

    @pytest.mark.parametrize("reader", RESOLUTION_READERS)
    @pytest.mark.parametrize("bits", [2.5, 2.9, True, np.True_, 0, np.nan, "3"], ids=repr)
    def test_rejects_anything_but_a_whole_number_of_bits(self, reader, bits):
        with pytest.raises(ValueError, match=re.escape(repr(bits))):
            RESOLUTION_READERS[reader](bits)

    @pytest.mark.parametrize("reader", RESOLUTION_READERS)
    @pytest.mark.parametrize("bits", [np.int64(3), 3.0, np.float32(3.0)], ids=repr)
    def test_integral_values_count_as_that_integer(self, reader, bits):
        np.testing.assert_equal(RESOLUTION_READERS[reader](bits), RESOLUTION_READERS[reader](3))

    def test_checked_before_the_caches(self):
        # lru_cache and the gamma memo key True as 1: a cached 1-bit design
        # must not answer for a boolean
        distortion_table().gamma(1)
        lloyd_max_design(1)
        with pytest.raises(ValueError, match="True"):
            lloyd_max_design(True)
        with pytest.raises(ValueError, match="True"):
            distortion_table().gamma(True)
        q = lloyd_max_design(3)
        size = lloyd_max_design.cache_info().currsize
        assert lloyd_max_design(3.0) is lloyd_max_design(np.int64(3)) is q
        assert lloyd_max_design.cache_info().currsize == size
