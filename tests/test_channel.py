"""Channel generation and normalization."""

import re

import numpy as np
import pytest

from qmimo.channel import (
    SVParams,
    saleh_valenzuela,
    ula_steering,
)


class TestSteering:
    @pytest.mark.parametrize("n", [1, 4, 33])
    def test_unit_modulus_and_norm(self, n):
        a = ula_steering(n, 0.7)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert np.linalg.norm(a) ** 2 == pytest.approx(n)

    @pytest.mark.parametrize("n", [2.5, 0, True, np.True_], ids=repr)
    def test_rejects_non_integral_antenna_count(self, n):
        with pytest.raises(ValueError, match=re.escape(repr(n))):
            ula_steering(n, 0.7)

    def test_vectorized_angles(self):
        a = ula_steering(4, [0.1, 0.2, 0.3])
        assert a.shape == (4, 3)

    @pytest.mark.parametrize("n", [4, 33, 64])
    def test_scalar_angle_is_its_column_of_the_vector_form(self, n):
        phi = np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, 200)
        A = ula_steering(n, phi)
        for k, p in enumerate(phi.tolist()):
            np.testing.assert_array_equal(ula_steering(n, p), A[:, k])


class TestSalehValenzuela:
    def test_deterministic(self):
        h1 = saleh_valenzuela(8, 4, seed=123)
        h2 = saleh_valenzuela(8, 4, seed=123)
        np.testing.assert_array_equal(h1, h2)
        h3 = saleh_valenzuela(8, 4, seed=124)
        assert not np.array_equal(h1, h3)

    def test_shape_and_finite(self):
        H = saleh_valenzuela(16, 8, seed=0)
        assert H.shape == (8, 16)
        assert np.all(np.isfinite(H))

    def test_single_path_rayleigh(self):
        # 1x1 with one cluster and one ray: |H| is Rayleigh, E|H|^2 = 1
        params = SVParams(num_clusters=1, rays_per_cluster=1)
        mags2 = np.array([
            np.abs(saleh_valenzuela(1, 1, params, seed=s)[0, 0]) ** 2
            for s in range(4000)
        ])
        se = mags2.std(ddof=1) / np.sqrt(mags2.size)
        assert abs(mags2.mean() - 1.0) < 3 * se

    def test_frobenius_normalization(self):
        nt = nr = 8
        vals = np.array([
            np.linalg.norm(saleh_valenzuela(nt, nr, seed=s), "fro") ** 2 / (nt * nr)
            for s in range(1000)
        ])
        assert 0.95 <= vals.mean() <= 1.05

    def test_rank_bounded_by_path_count(self):
        params = SVParams(num_clusters=2, rays_per_cluster=2)
        H = saleh_valenzuela(8, 8, params, seed=7)
        assert np.linalg.matrix_rank(H) <= 4

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SVParams(num_clusters=0)
        with pytest.raises(ValueError):
            SVParams(angle_spread_deg=-1.0)
        with pytest.raises(ValueError):
            saleh_valenzuela(0, 4, seed=0)

    @pytest.mark.parametrize("nt, nr, named", [
        (4.5, 2, "4.5"), (4, 2.2, "2.2"), (4.5, 2.2, "4.5"), (True, 4, "True"),
        (4, np.True_, "np.True_"),
    ], ids=repr)
    def test_rejects_non_integral_antenna_counts(self, nt, nr, named):
        # np.arange would read 4.5 antennas as 5 and 2.2 as 3
        with pytest.raises(ValueError, match=re.escape(named)):
            saleh_valenzuela(nt, nr, seed=0)

    def test_integral_antenna_counts_count_as_that_integer(self):
        H = saleh_valenzuela(8, 4, seed=5)
        for nt, nr in ((8.0, 4.0), (np.int64(8), np.float32(4.0))):
            np.testing.assert_array_equal(saleh_valenzuela(nt, nr, seed=5), H)
