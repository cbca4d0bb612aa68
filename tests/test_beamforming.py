"""Rate bound, water-filling baseline, WMMSE updates and AltMin."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from qmimo import beamforming, bitalloc
from qmimo.beamforming import (
    Link,
    _bisect_multiplier,
    _certified_bracket,
    _eigh,
    _logdet_hermitian,
    _minimum_norm_fits,
    _solve,
    altmin_beamforming,
    mse_matrix,
    receive_updates,
    spectral_efficiency,
    update_combiner,
    update_precoder,
    waterfilling_baseline,
    waterfilling_power,
)
from qmimo.bussgang import effective_noise_cov, gain_diagonal, noise_weights
from qmimo.channel import SVParams, saleh_valenzuela


def random_instance(nr, nt, ns, seed, sigma_n2=0.05, pt=1.0, bits_val=2):
    rng = np.random.default_rng(seed)
    H = (rng.standard_normal((nr, nt)) + 1j * rng.standard_normal((nr, nt))) / np.sqrt(2 * nt)
    F = rng.standard_normal((nt, ns)) + 1j * rng.standard_normal((nt, ns))
    F *= np.sqrt(pt) / np.linalg.norm(F)
    g = gain_diagonal([bits_val] * nr, nr)
    ce = effective_noise_cov(H @ F, *noise_weights(g, sigma_n2))
    return H, F, g, ce, sigma_n2, pt


def reference_precoder(H, G, U, W, pt):
    """Solve-based precoder update kept as the test oracle: the minimum-norm
    ``lstsq`` solution when feasible, else bisection with one linear solve
    per step. Returns the precoder and its multiplier (0 when unconstrained).
    """
    nr = H.shape[0]
    UWU = U @ W @ U.conj().T
    J = H.conj().T @ (G @ UWU + np.diag(np.real(np.diag(UWU))) @ (np.eye(nr) - G)) @ G @ H
    J = 0.5 * (J + J.conj().T)
    rhs = H.conj().T @ G @ U @ W
    F0 = np.linalg.lstsq(J, rhs, rcond=None)[0]
    if np.linalg.norm(F0) ** 2 <= pt * (1.0 + 1e-9):
        return F0, 0.0
    eye = np.eye(J.shape[0])
    lo, hi = 0.0, float(np.linalg.norm(rhs)) / np.sqrt(pt)
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        F = np.linalg.solve(J + mu * eye, rhs)
        power = np.linalg.norm(F) ** 2
        if abs(power - pt) <= 1e-8 * pt:
            break
        if power > pt:
            lo = mu
        else:
            hi = mu
    return F, mu


def secular_terms(lam, c2):
    """The ``(lam_i, c2_i)`` list that ``update_precoder`` hands the scalar tests."""
    return list(zip(lam.tolist(), c2.tolist()))


def reference_bisection(lam, c2, pt, hi):
    """The precoder's multiplier bisection with a power evaluation at every
    midpoint, kept as the test oracle for the certified replay."""
    lo = 0.0
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        power = c2 @ (lam + mu) ** -2
        if abs(power - pt) <= 1e-8 * pt:
            break
        if power > pt:
            lo = mu
        else:
            hi = mu
    return mu


# Dense-matrix forms of the updates, kept as test oracles for the vector forms:
# G = diag(g) and C_e = diag(ce) are passed as full Nr x Nr matrices.
def dense_noise_cov(G, H, F, sigma_n2):
    hf = H @ F
    return G @ (np.eye(H.shape[0]) - G) @ np.diag(np.real(np.diag(hf @ hf.conj().T))) + sigma_n2 * G


def dense_combiner(H, F, G, C_e):
    GHF = G @ H @ F
    A = GHF @ GHF.conj().T + C_e
    return np.linalg.solve(0.5 * (A + A.conj().T), GHF)


def dense_weight(H, F, G, C_e):
    GHF = G @ H @ F
    W = np.eye(F.shape[1]) + GHF.conj().T @ np.linalg.solve(C_e, GHF)
    return 0.5 * (W + W.conj().T)


def dense_mse(H, F, U, G, C_e):
    GHF = G @ H @ F
    A = GHF @ GHF.conj().T + C_e
    E = U.conj().T @ A @ U + np.eye(F.shape[1]) - U.conj().T @ GHF - GHF.conj().T @ U
    return 0.5 * (E + E.conj().T)


def dense_se(H, F, U, G, C_e):
    # the rate depends on U only through its range: a QR basis of it keeps
    # the dense log-dets accurate when the combiner's columns are ill-conditioned
    U = np.linalg.qr(U)[0]
    T = U.conj().T @ (G @ H @ F)
    A = U.conj().T @ C_e @ U
    A = 0.5 * (A + A.conj().T)
    ld_noise = np.linalg.slogdet(A)[1]
    return max((np.linalg.slogdet(A + T @ T.conj().T)[1] - ld_noise) / np.log(2.0), 0.0)


# The AltMin iteration before its per-solve products were hoisted and the
# bracket's 121-point grid scan became a bisection on the grid, frozen as the
# bit-identity reference of the current one.
FROZEN_GRID = 2.0 ** (-0.5 * np.arange(121))


def frozen_noise_cov(g, HF, sigma_n2):
    d = np.real(np.einsum("ij,ij->i", HF, HF.conj()))
    return g * (1.0 - g) * d + sigma_n2 * g


def frozen_weight(GHF, ce):
    W = np.eye(GHF.shape[1]) + GHF.conj().T @ (GHF / ce[:, None])
    return 0.5 * (W + W.conj().T)


def frozen_combiner(GHF, ce, W):
    return np.linalg.solve(W, (GHF / ce[:, None]).conj().T).conj().T


def frozen_precoder(H, g, U, W, pt, nt=None):
    """(F, mu) of the precoder update."""
    Hh = H.conj().T
    T = (Hh * g) @ U
    rhs = T @ W
    d = np.einsum("ij,ij->i", U @ W, U.conj()).real
    J = rhs @ T.conj().T + (Hh * (d * (1.0 - g) * g)) @ H
    J = 0.5 * (J + J.conj().T)
    lam, Q = np.linalg.eigh(J)
    c = Q.conj().T @ rhs
    c2 = np.sum(np.abs(c) ** 2, axis=1)
    top = max(-lam[0], lam[-1]) if lam.size else 0.0
    keep = np.abs(lam) > np.finfo(float).eps * (H.shape[1] if nt is None else nt) * top
    if np.sum(c2[keep] / lam[keep] ** 2) <= pt * (1.0 + 1e-9):
        return Q[:, keep] @ (c[keep] / lam[keep, None]), 0.0
    hi = float(np.linalg.norm(rhs)) / math.sqrt(pt)
    mu = frozen_bisection(lam, c2, pt, hi)
    return Q @ (c / (lam + mu)[:, None]), mu


def frozen_bisection(lam, c2, pt, hi):
    tol = 1e-8 * pt
    floor = max(0.0, -float(lam[0]))
    a, b = frozen_bracket(lam, c2, pt, hi, tol, floor)
    lo = 0.0
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        if floor < mu <= a:
            lo = mu
            continue
        if mu >= b:
            hi = mu
            continue
        power = float(c2 @ (lam + mu) ** -2)
        if abs(power - pt) <= tol:
            break
        if power > pt:
            lo = mu
        else:
            hi = mu
    return mu


def frozen_bracket(lam, c2, pt, hi, tol, floor):
    grid = hi * FROZEN_GRID
    if floor > 0.0:
        grid = grid[grid > floor]
    inv = 1.0 / (lam + grid[:, None])
    left = np.flatnonzero((inv * inv) @ c2 > pt)
    if not left.size:
        return -1.0, math.inf
    terms = list(zip(lam.tolist(), c2.tolist()))
    mu = float(grid[left[0]])
    w = 0.0
    for _ in range(8):
        p, s3 = frozen_power_and_slope(terms, mu)
        if not s3 > 0.0:
            return -1.0, math.inf
        w = tol / (2.0 * s3)
        step = p / s3 * (math.sqrt(p / pt) - 1.0)
        mu += step
        if not mu > floor:
            return -1.0, math.inf
        if step * step <= 1e-3 * w * (mu - floor):
            break
    a, b = mu - 1.01 * w, mu + 1.01 * w
    if not floor < a < b < math.inf:
        return -1.0, math.inf
    if (frozen_power_and_slope(terms, a)[0] > (pt + tol) * (1.0 + 1e-12)
            and frozen_power_and_slope(terms, b)[0] < (pt - tol) * (1.0 - 1e-12)):
        return a, b
    return -1.0, math.inf


def frozen_power_and_slope(terms, mu):
    p = s3 = 0.0
    for l, c in terms:
        x = 1.0 / (l + mu)
        t = c * x * x
        p += t
        s3 += t * x
    return p, s3


def frozen_iteration(H, g, F, sigma_n2, pt, nt=None):
    """(ce, W, U, F_next, mu) of one iteration at F."""
    HF = H @ F
    ce = frozen_noise_cov(g, HF, sigma_n2)
    GHF = g[:, None] * HF
    W = frozen_weight(GHF, ce)
    U = frozen_combiner(GHF, ce, W)
    return (ce, W, U) + frozen_precoder(H, g, U, W, pt, nt)


def frozen_altmin(H, bits, pt, sigma_n2, ns, eps=1e-4, max_iter=500):
    """(F, U, W, objective trace) of an AltMin solve."""
    nr, nt = H.shape
    g = gain_diagonal(bits, nr)
    _, s, Vh = np.linalg.svd(H, full_matrices=False)
    F0 = beamforming._waterfilling_precoder(s, Vh, pt, sigma_n2, ns)
    Vr = Vh[s > s.max() * max(nr, nt) * np.finfo(float).eps].conj().T
    Hr = H @ Vr
    F = Vr.conj().T @ F0
    trace = []
    converged = False
    while True:
        HF = Hr @ F
        ce = frozen_noise_cov(g, HF, sigma_n2)
        GHF = g[:, None] * HF
        W = frozen_weight(GHF, ce)
        U = frozen_combiner(GHF, ce, W)
        if converged or len(trace) >= max_iter:
            break
        trace.append(float(np.linalg.slogdet(W)[1]))
        F = frozen_precoder(Hr, g, U, W, pt, nt)[0]
        converged = len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= eps
    return (Vr @ F if trace else F0), U, W, np.asarray(trace)


def one_iteration(H, g, F, sigma_n2, pt, nt=None):
    """(ce, W, U, F_next, mu) of one iteration at F, formed as ``altmin_beamforming`` forms them."""
    HF = H @ F
    ce = effective_noise_cov(HF, *noise_weights(g, sigma_n2))
    W, U = receive_updates(g[:, None] * HF, ce)
    return (ce, W, U) + update_precoder(Link.of(H, g, H.shape[1] if nt is None else nt),
                                        U, W, pt)


def assert_same_iteration(new, frozen):
    for name, x, y in zip(("ce", "W", "U", "F"), new[:4], frozen[:4]):
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert new[4] == frozen[4]


@st.composite
def precoder_instances(draw):
    """(H, g, U, W, pt, F, sigma_n2): U, W paired updates at F; Nt = 2 Nr makes J singular."""
    nr = draw(st.integers(1, 6))
    nt = nr * draw(st.sampled_from([1, 2]))
    ns = draw(st.integers(1, nr))
    bits = draw(st.lists(st.integers(1, 4), min_size=nr, max_size=nr))
    snr_db = draw(st.floats(0.0, 30.0))
    pt = draw(st.floats(0.1, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = (rng.standard_normal((nr, nt)) + 1j * rng.standard_normal((nr, nt))) / np.sqrt(2 * nt)
    F = rng.standard_normal((nt, ns)) + 1j * rng.standard_normal((nt, ns))
    F *= np.sqrt(pt) / np.linalg.norm(F)
    g = gain_diagonal(bits, len(bits))
    sigma_n2 = pt / 10.0 ** (snr_db / 10.0)
    ce = effective_noise_cov(H @ F, *noise_weights(g, sigma_n2))
    W, U = receive_updates(g[:, None] * (H @ F), ce)
    return H, g, U, W, pt, F, sigma_n2


@st.composite
def secular_instances(draw):
    """(lam, c2, pt, hi) of the precoder's multiplier search, from J and rhs
    formed densely. Nt = 2 Nr leaves J rank-deficient; optionally its null
    eigenvalues are set to a tiny negative value, as rounding can leave them.
    """
    nr = draw(st.integers(1, 16))
    nt = nr * draw(st.sampled_from([1, 2]))
    ns = draw(st.integers(1, nr))
    bits = draw(st.lists(st.integers(1, 5), min_size=nr, max_size=nr))
    pt = 10.0 ** draw(st.floats(-2.0, 2.0))
    snr_db = draw(st.floats(-10.0, 40.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = (rng.standard_normal((nr, nt)) + 1j * rng.standard_normal((nr, nt))) / np.sqrt(2 * nt)
    F = rng.standard_normal((nt, ns)) + 1j * rng.standard_normal((nt, ns))
    F *= np.sqrt(pt) / np.linalg.norm(F)
    g = gain_diagonal(bits, nr)
    ce = effective_noise_cov(H @ F, *noise_weights(g, pt / 10.0 ** (snr_db / 10.0)))
    GHF = g[:, None] * (H @ F)
    W, U = receive_updates(GHF, ce)
    G = np.diag(g)
    UWU = U @ W @ U.conj().T
    J = H.conj().T @ (G @ UWU + np.diag(np.real(np.diag(UWU))) @ (np.eye(nr) - G)) @ G @ H
    lam, Q = np.linalg.eigh(0.5 * (J + J.conj().T))
    rhs = H.conj().T @ G @ U @ W
    c2 = np.sum(np.abs(Q.conj().T @ rhs) ** 2, axis=1)
    if nt > nr and draw(st.booleans()):
        lam[:nt - nr] = -lam[-1] * 10.0 ** draw(st.floats(-17.0, -14.0))
    return lam, c2, pt, float(np.linalg.norm(rhs)) / np.sqrt(pt)


def range_basis(H):
    """V_r: the right singular vectors of H above numpy's ``matrix_rank`` cutoff."""
    _, s, Vh = np.linalg.svd(H, full_matrices=False)
    return Vh[s > s.max() * max(H.shape) * np.finfo(float).eps].conj().T


@st.composite
def altmin_instances(draw):
    """(H, bits, pt, sigma_n2, ns): few-path Saleh-Valenzuela channels, Nt in {Nr/2, Nr, 2 Nr}."""
    nr = draw(st.sampled_from([2, 4, 6, 8]))
    nt = draw(st.sampled_from([nr // 2, nr, 2 * nr]))
    ns = draw(st.integers(1, min(nr, nt)))
    sv = SVParams(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.floats(1.0, 20.0)))
    H = saleh_valenzuela(nt, nr, sv, seed=draw(st.integers(0, 2**32 - 1)))
    bits = draw(st.none() | st.lists(st.integers(1, 4), min_size=nr, max_size=nr))
    pt = 10.0 ** draw(st.floats(-1.0, 1.0))
    snr_db = draw(st.floats(-10.0, 30.0))
    return H, bits, pt, pt / 10.0 ** (snr_db / 10.0), ns


class TestSpectralEfficiency:
    def test_zero_precoder(self):
        H, F, g, _, sn2, _ = random_instance(4, 4, 2, seed=0)
        F0 = np.zeros_like(F)
        ce = effective_noise_cov(H @ F0, *noise_weights(g, sn2))
        GHF = g[:, None] * (H @ F0)
        U = receive_updates(GHF, ce)[1]
        with pytest.warns(RuntimeWarning):  # zero combiner makes the noise term singular
            assert spectral_efficiency(H, F0, U, g, np.diag(ce)) == 0.0

    def test_scalar_awgn_capacity(self):
        rng = np.random.default_rng(1)
        h = np.array([[rng.standard_normal() + 1j * rng.standard_normal()]])
        pt, sn2 = 2.0, 0.3
        F = np.array([[np.sqrt(pt)]], dtype=complex)
        g = np.ones(1)
        ce = sn2 * np.ones(1)
        GHF = g[:, None] * (h @ F)
        U = receive_updates(GHF, ce)[1]
        expected = np.log2(1 + np.abs(h[0, 0]) ** 2 * pt / sn2)
        assert spectral_efficiency(h, F, U, g, np.diag(ce)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_mmse_combiner_identity(self, seed):
        # with the MMSE combiner the rate equals the combiner-free form
        H, F, g, ce, _, _ = random_instance(5, 6, 3, seed=seed)
        GHF = g[:, None] * (H @ F)
        U = receive_updates(GHF, ce)[1]
        r = spectral_efficiency(H, F, U, g, np.diag(ce))
        M = np.eye(5) + np.linalg.solve(np.diag(ce), GHF @ GHF.conj().T)
        expected = np.linalg.slogdet(M)[1] / np.log(2)
        assert abs(r - expected) < 1e-9

    def test_singular_noise_regularized(self):
        H, F, g, _, _, _ = random_instance(3, 3, 2, seed=6)
        U = np.zeros((3, 2), dtype=complex)
        with pytest.warns(RuntimeWarning, match="regulariz"):
            r = spectral_efficiency(H, F, U, g, np.zeros((3, 3)))
        assert r == 0.0

    def test_zero_combiner_column_dropped(self):
        # a switched-off stream's zero combiner column carries no rate and
        # must not send the noise term down the ridge path
        H, F, g, ce, _, _ = random_instance(5, 6, 3, seed=7)
        GHF = g[:, None] * (H @ F)
        U = receive_updates(GHF, ce)[1]
        U[:, 1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = spectral_efficiency(H, F, U, g, np.diag(ce))
        assert r > 0.0
        assert r == pytest.approx(spectral_efficiency(H, F, U[:, [0, 2]], g, np.diag(ce)),
                                  rel=1e-14)

    @pytest.mark.parametrize("seed", [3, 4, 5, 6, 7])
    def test_dependent_combiner_column_carries_no_rate(self, seed):
        # the rate depends on range(U) only: a dependent third column adds
        # nothing and must not make the noise term singular
        H = saleh_valenzuela(6, 5, seed=seed)
        nr, sn2 = 5, 0.05
        g = gain_diagonal([2] * nr, nr)
        F = waterfilling_baseline(H, 1.0, sn2, 3).F
        ce = effective_noise_cov(H @ F, *noise_weights(g, sn2))
        GHF = g[:, None] * (H @ F)
        U = receive_updates(GHF, ce)[1]
        u0, u1 = U[:, 0], U[:, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = spectral_efficiency(H, F, np.column_stack([u0, u1, u0 - 0.5 * u1]), g, ce)
        assert r == pytest.approx(spectral_efficiency(H, F, U[:, :2], g, ce), rel=1e-12)

    @pytest.mark.parametrize("nt, nr, ns", [(8, 4, 2), (16, 16, 4)])
    @pytest.mark.parametrize("design", ["altmin", "wf"])
    def test_vector_diagonal_equals_dense(self, nt, nr, ns, design):
        # the dense product only adds exact zeros, so the two forms agree bit for bit
        H = saleh_valenzuela(nt, nr, seed=nt + nr)
        bits, pt, sn2 = [2] * nr, 1.0, 0.05
        g = gain_diagonal(bits, nr)
        if design == "altmin":
            bf, _ = altmin_beamforming(H, bits, pt, sn2, ns)
        else:
            bf = waterfilling_baseline(H, pt, sn2, ns)
        ce = effective_noise_cov(H @ bf.F, *noise_weights(g, sn2))
        assert (spectral_efficiency(H, bf.F, bf.U, g, ce)
                == spectral_efficiency(H, bf.F, bf.U, g, np.diag(ce)))


class TestWaterfilling:
    def test_single_stream_gets_all_power(self):
        H = saleh_valenzuela(4, 4, seed=0)
        bf = waterfilling_baseline(H, pt=1.7, sigma_n2=0.1, ns=1)
        assert np.linalg.norm(bf.F) ** 2 == pytest.approx(1.7, rel=1e-12)

    def test_equal_gains_split_equally(self):
        p = waterfilling_power(np.array([4.0, 4.0, 4.0]), 0.9)
        np.testing.assert_allclose(p, 0.3)

    def test_weak_stream_shut_off(self):
        # analytic: gains (4, 0.01)/sigma_n2=1, Pt=0.1 -> water level below
        # the weak channel's inverse gain, so stream 2 is off
        H = np.diag([2.0, 0.1]).astype(complex)
        bf = waterfilling_baseline(H, pt=0.1, sigma_n2=1.0, ns=2)
        p = np.linalg.norm(bf.F, axis=0) ** 2
        assert p[1] == 0.0
        assert p[0] == pytest.approx(0.1, rel=1e-12)

    def test_total_power(self):
        H = saleh_valenzuela(8, 6, seed=1)
        bf = waterfilling_baseline(H, pt=1.0, sigma_n2=0.01, ns=4)
        assert np.linalg.norm(bf.F) ** 2 == pytest.approx(1.0, rel=1e-10)

    def test_rank_deficient_streams_zero_power(self):
        # rank-2 channel asked for 3 streams
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        H = a @ b
        bf = waterfilling_baseline(H, pt=1.0, sigma_n2=0.1, ns=3)
        p = np.linalg.norm(bf.F, axis=0) ** 2
        assert p[2] == 0.0
        assert p[:2].sum() == pytest.approx(1.0, rel=1e-10)

    def test_ns_exceeds_dims(self):
        H = saleh_valenzuela(4, 2, seed=3)
        with pytest.raises(ValueError):
            waterfilling_baseline(H, pt=1.0, sigma_n2=0.1, ns=3)


class TestCombiner:
    def test_dominant_noise_limit(self):
        H, F, _, _, _, _ = random_instance(4, 4, 2, seed=7)
        g = np.ones(4)
        sn2 = 1e9
        ce = sn2 * np.ones(4)
        GHF = g[:, None] * (H @ F)
        U = receive_updates(GHF, ce)[1]
        np.testing.assert_allclose(U, H @ F / sn2, rtol=1e-6)

    @pytest.mark.parametrize("seed", [8, 9])
    def test_woodbury_form(self, seed):
        H, F, g, ce, _, _ = random_instance(5, 4, 3, seed=seed)
        GHF = g[:, None] * (H @ F)
        U = receive_updates(GHF, ce)[1]
        Ci_L = np.linalg.solve(np.diag(ce), GHF)
        inner = np.linalg.solve(np.eye(3) + GHF.conj().T @ Ci_L, GHF.conj().T @ Ci_L)
        U_wood = Ci_L - Ci_L @ inner
        np.testing.assert_allclose(U, U_wood, atol=1e-10)

    def test_zero_precoder(self):
        H, F, g, _, sn2, _ = random_instance(3, 3, 2, seed=10)
        F0 = np.zeros_like(F)
        ce = effective_noise_cov(H @ F0, *noise_weights(g, sn2))
        GHF = g[:, None] * (H @ F0)
        np.testing.assert_array_equal(receive_updates(GHF, ce)[1],
                                      np.zeros((3, 2)))

    def test_one_stream_space_solve(self, monkeypatch):
        # the combiner solves against the Ns x Ns weight, never an Nr x Nr
        # system; beamforming._solve and np.linalg.solve both call this kernel
        H, F, g, ce, _, _ = random_instance(6, 5, 2, seed=27)
        shapes = []
        solve = _umath_linalg.solve

        def recording_solve(a, b, **kwargs):
            shapes.append(np.shape(a))
            return solve(a, b, **kwargs)

        monkeypatch.setattr(_umath_linalg, "solve", recording_solve)
        receive_updates(g[:, None] * (H @ F), ce)
        assert shapes == [(2, 2)]


@st.composite
def square_systems(draw):
    """A real or complex n x n matrix X, scaled by 10**-3 to 10**3, and an n x k right-hand side; n 0-40."""
    n, k = draw(st.integers(0, 40)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, B = rng.standard_normal((n, n)), rng.standard_normal((n, k))
    if draw(st.booleans()):
        X, B = X + 1j * rng.standard_normal((n, n)), B + 1j * rng.standard_normal((n, k))
    return X * 10.0 ** draw(st.integers(-3, 3)), B


class TestLapackHelpers:
    # beamforming's direct LAPACK calls give numpy.linalg's floats and errors,
    # and no warning escapes them: every test turns warnings into errors

    @settings(max_examples=200, deadline=None)
    @given(square_systems())
    @example((np.zeros((0, 0)), np.zeros((0, 2))))
    def test_eigh_equals_numpy(self, system):
        X = system[0]
        J = X + X.conj().T  # Hermitian, in general indefinite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, Q = _eigh(J)
            ref = np.linalg.eigh(J)
        for got, want in ((lam, ref.eigenvalues), (Q, ref.eigenvectors)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(square_systems())
    def test_solve_equals_numpy(self, system):
        X, B = system
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, ref = _solve(X, B), np.linalg.solve(X, B)
        assert x.dtype == ref.dtype
        np.testing.assert_array_equal(x, ref)

    @settings(max_examples=200, deadline=None)
    @given(square_systems())
    def test_logdet_equals_numpy(self, system):
        X = system[0]
        # positive definite, then Hermitian indefinite
        for A in (X @ X.conj().T + np.eye(X.shape[0]), X + X.conj().T):
            sign, ld = np.linalg.slogdet(A)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if sign.real > 0 and math.isfinite(ld):
                    assert _logdet_hermitian(A) == float(ld)
                else:
                    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
                        _logdet_hermitian(A)

    def test_singular_weight_raises(self):
        # I + x x^H with |x|^2 ~ 1e19 rounds to a singular rank-one W; the bare
        # kernel flags it with a RuntimeWarning, the helper raises instead
        x = np.array([[3e9], [2e9j]])
        W = np.eye(2) + x @ x.conj().T
        W = 0.5 * (W + W.conj().T)
        CiGHF = np.ones((3, 2), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="invalid value"):
                _umath_linalg.solve(W, CiGHF.conj().T)
            for solve in (np.linalg.solve, _solve):
                with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                    solve(W, CiGHF.conj().T)
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                update_combiner(CiGHF, W)

    def test_eigh_nonconvergence_raises(self, monkeypatch):
        H, F, g, ce, _, pt = random_instance(4, 3, 2, seed=28)
        W, U = receive_updates(g[:, None] * (H @ F), ce)

        def unconverged(a, **kwargs):
            # what the kernel does when LAPACK does not converge: NaN outputs
            # and the floating-point invalid flag
            zero = np.zeros(a.shape[-1])
            nan = zero / zero
            return nan, nan[:, None] + zero

        monkeypatch.setattr(_umath_linalg, "eigh_lo", unconverged)
        J = np.eye(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="invalid value"):
                _umath_linalg.eigh_lo(J)
            for eigh in (np.linalg.eigh, _eigh):
                with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                    eigh(J)
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                update_precoder(Link.of(H, g, 3), U, W, pt)


class TestWeight:
    def test_zero_precoder_gives_identity(self):
        H, F, g, _, sn2, _ = random_instance(3, 3, 2, seed=11)
        F0 = np.zeros_like(F)
        ce = effective_noise_cov(H @ F0, *noise_weights(g, sn2))
        np.testing.assert_allclose(receive_updates(g[:, None] * (H @ F0), ce)[0], np.eye(2))

    @pytest.mark.parametrize("seed", [12, 13])
    def test_logdet_w_equals_rate(self, seed):
        H, F, g, ce, _, _ = random_instance(4, 5, 2, seed=seed)
        GHF = g[:, None] * (H @ F)
        W, U = receive_updates(GHF, ce)
        r = spectral_efficiency(H, F, U, g, np.diag(ce))
        assert abs(np.linalg.slogdet(W)[1] / np.log(2) - r) < 1e-9

    @pytest.mark.parametrize("seed", [14, 15])
    def test_w_is_inverse_mse_at_mmse_combiner(self, seed):
        H, F, g, ce, _, _ = random_instance(4, 4, 3, seed=seed)
        GHF = g[:, None] * (H @ F)
        W, U = receive_updates(GHF, ce)
        E = mse_matrix(H, F, U, g, ce)
        np.testing.assert_allclose(W @ E, np.eye(3), atol=1e-9)

    def test_w_minus_identity_psd(self):
        H, F, g, ce, _, _ = random_instance(4, 4, 2, seed=16)
        W = receive_updates(g[:, None] * (H @ F), ce)[0]
        assert np.linalg.eigvalsh(W - np.eye(2)).min() > -1e-12


class TestMseMatrix:
    def test_zero_combiner(self):
        H, F, g, ce, _, _ = random_instance(3, 3, 2, seed=17)
        np.testing.assert_allclose(
            mse_matrix(H, F, np.zeros((3, 2)), g, ce), np.eye(2), atol=1e-15
        )

    def test_mmse_closed_form(self):
        H, F, g, ce, _, _ = random_instance(4, 5, 3, seed=18)
        GHF = g[:, None] * (H @ F)
        U = receive_updates(GHF, ce)[1]
        E = mse_matrix(H, F, U, g, ce)
        A = GHF @ GHF.conj().T + np.diag(ce)
        E_closed = np.eye(3) - GHF.conj().T @ np.linalg.solve(A, GHF)
        np.testing.assert_allclose(E, E_closed, atol=1e-10)

    def test_trace_bounded_at_mmse(self):
        H, F, g, ce, _, _ = random_instance(4, 4, 3, seed=19)
        GHF = g[:, None] * (H @ F)
        U = receive_updates(GHF, ce)[1]
        assert np.trace(mse_matrix(H, F, U, g, ce)).real <= 3 + 1e-12


class TestPrecoder:
    def test_full_resolution_matches_classic_form(self):
        # at G = I the diagonal correction vanishes
        H, F, _, _, sn2, pt = random_instance(4, 4, 2, seed=20)
        g = np.ones(4)
        ce = sn2 * np.ones(4)
        GHF = g[:, None] * (H @ F)
        W, U = receive_updates(GHF, ce)
        F_new = update_precoder(Link.of(H, g, 4), U, W, pt)[0]
        UWU = U @ W @ U.conj().T
        J = H.conj().T @ UWU @ H
        rhs = H.conj().T @ U @ W
        F_classic = np.linalg.lstsq(J, rhs, rcond=None)[0]
        if np.linalg.norm(F_classic) ** 2 > pt:
            # replicate the bisection result instead
            assert np.linalg.norm(F_new) ** 2 == pytest.approx(pt, rel=1e-6)
        else:
            np.testing.assert_allclose(F_new, F_classic, atol=1e-8)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_power_feasible(self, seed):
        H, F, g, ce, _, pt = random_instance(4, 6, 3, seed=seed, sigma_n2=1e-4)
        GHF = g[:, None] * (H @ F)
        W, U = receive_updates(GHF, ce)
        F_new = update_precoder(Link.of(H, g, 6), U, W, pt)[0]
        assert np.linalg.norm(F_new) ** 2 <= pt * (1 + bitalloc._POWER_SLACK)

    def test_oracle_slack_covers_the_power_tolerances(self):
        # ES's ceiling pruning is exact only while its power slack exceeds
        # both of the precoder's tolerances
        assert bitalloc._POWER_SLACK == 10 * beamforming._POWER_RTOL
        assert beamforming._MIN_NORM_RTOL < beamforming._POWER_RTOL

    def test_power_monotone_in_multiplier(self):
        H, F, g, ce, _, pt = random_instance(4, 4, 2, seed=24)
        GHF = g[:, None] * (H @ F)
        W, U = receive_updates(GHF, ce)
        UWU = U @ W @ U.conj().T
        G = np.diag(g)
        J = H.conj().T @ (G @ UWU + np.diag(np.real(np.diag(UWU))) @ (np.eye(4) - G)) @ G @ H
        rhs = H.conj().T @ G @ U @ W
        powers = [
            np.linalg.norm(np.linalg.solve(J + mu * np.eye(4), rhs)) ** 2
            for mu in [0.01, 0.1, 1.0, 10.0]
        ]
        assert all(p2 < p1 for p1, p2 in zip(powers, powers[1:]))

    def test_rank_deficient_j_handled(self):
        # Nt > Nr makes J singular; the minimum-norm solution is used
        H, F, g, ce, _, pt = random_instance(3, 6, 2, seed=25)
        GHF = g[:, None] * (H @ F)
        W, U = receive_updates(GHF, ce)
        F_new = update_precoder(Link.of(H, g, 6), U, W, pt)[0]
        assert np.all(np.isfinite(F_new))
        assert np.linalg.norm(F_new) ** 2 <= pt * (1 + bitalloc._POWER_SLACK)

    def test_no_linear_solves(self, monkeypatch):
        # one eigh per update on both branches; the bisection is scalar
        instances = []
        for sn2 in (1e-4, 1.0):  # minimum-norm branch, then bisection
            H, F, g, ce, _, pt = random_instance(3, 6, 2, seed=26, sigma_n2=sn2)
            W, U = receive_updates(g[:, None] * (H @ F), ce)
            instances.append((Link.of(H, g, 6), U, W, pt))

        def forbidden(*args, **kwargs):
            raise AssertionError("linear solve in the precoder update")

        # the kernels under beamforming._solve, np.linalg.solve and np.linalg.lstsq
        for kernel in ("solve", "solve1", "lstsq"):
            monkeypatch.setattr(_umath_linalg, kernel, forbidden)
        with pytest.raises(AssertionError, match="linear solve"):
            update_combiner(np.ones((3, 2)), np.eye(2))  # the patch reaches beamforming._solve
        mus = [update_precoder(*inst)[1] for inst in instances]
        assert mus[0] == 0.0 and mus[1] > 0

    @pytest.mark.parametrize("n", [3, 9, 40, 200])
    def test_minimum_norm_test_at_its_limit(self, n):
        # at and one ulp either side of the limit, the test agrees with numpy's array form
        rng = np.random.default_rng(n)
        lam, c2 = np.sort(rng.uniform(-1.0, 2.0, n)), rng.uniform(0.0, 1.0, n)
        keep = np.abs(lam) > 0.25
        total = np.sum(c2[keep] / lam[keep] ** 2)
        for limit in (total, np.nextafter(total, 0.0), np.nextafter(total, np.inf)):
            fits = _minimum_norm_fits(secular_terms(lam, c2), 0.25, float(limit))
            assert fits == (total <= limit)

    def test_stack_matches_lone_updates(self, monkeypatch):
        # three problems on one channel, one link of their stacked gains:
        # minimum-norm updates at sigma_n2 1e-4 and 0.1, bisection at 1.0
        H, F, *_, pt = random_instance(3, 6, 2, seed=26)
        problems = []
        for b, sn2, mu in ((2, 1e-4, 0.0), (2, 1.0, 0.3), (3, 0.1, 0.2)):
            g = gain_diagonal([b] * 3, 3)
            ce = effective_noise_cov(H @ F, *noise_weights(g, sn2))
            W, U = receive_updates(g[:, None] * (H @ F), ce)
            problems.append((g, U, W, mu))
        g, U, W, mu = (list(x) for x in zip(*problems))
        fits, branches = beamforming._minimum_norm_fits, []

        def recorded_fits(*args):
            branches.append(fits(*args))
            return branches[-1]

        monkeypatch.setattr(beamforming, "_minimum_norm_fits", recorded_fits)
        F_stack, mu_stack = update_precoder(Link.of(H, np.array(g), 6), np.array(U), np.array(W),
                                            pt, mu)
        assert branches == [True, False, True]
        monkeypatch.undo()
        assert F_stack.shape == (3, 6, 2)
        assert isinstance(mu_stack, list) and len(mu_stack) == 3
        assert all(type(m) is float for m in mu_stack)
        for i in range(3):
            F_i, mu_i = update_precoder(Link.of(H, g[i], 6), U[i], W[i], pt, mu[i])
            assert F_i.shape == (6, 2) and type(mu_i) is float
            np.testing.assert_array_equal(F_stack[i], F_i)
            assert mu_stack[i] == mu_i
        assert mu_stack[0] == mu_stack[2] == 0.0 < mu_stack[1]

    @settings(max_examples=300, deadline=None)
    @given(precoder_instances())
    def test_matches_solve_reference(self, instance):
        H, g, U, W, pt = instance[:5]
        F_new, mu_new = update_precoder(Link.of(H, g, H.shape[1]), U, W, pt)
        F_ref, mu_ref = reference_precoder(H, np.diag(g), U, W, pt)
        assert (mu_new == 0.0) == (mu_ref == 0.0)
        assert np.linalg.norm(F_new - F_ref) <= 1e-9 * np.linalg.norm(F_ref)
        assert np.linalg.norm(F_new) ** 2 <= pt * (1 + 1e-8)
        np.testing.assert_array_equal(update_precoder(Link.of(H, g, H.shape[1]), U, W, pt)[0], F_new)


class TestReducedPrecoder:
    """The update on the reduced channel H V_r, mapped back by V_r, is the full-space update."""

    @staticmethod
    def two_mode_channel():
        # a 2 x 64 channel of rank 2 with singular values 1 and 1e-7, whose
        # weak mode puts an eigenvalue of J between the cutoffs
        # eps * 2 * max|lam| and eps * 64 * max|lam|
        rng = np.random.default_rng(1)
        A = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        B = np.linalg.qr(rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)))[0]
        F = B @ (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))
        return (A * [1.0, 1e-7]) @ B.conj().T, F / np.linalg.norm(F)

    @staticmethod
    def paired_updates(H, F, g, sigma_n2):
        HF = H @ F
        ce = effective_noise_cov(HF, *noise_weights(g, sigma_n2))
        W, U = receive_updates(g[:, None] * HF, ce)
        return U, W

    @pytest.mark.parametrize("quantized", [True, False])
    @pytest.mark.parametrize("sn2, minimum_norm", [(1e-4, True), (1.0, False)])
    def test_gaussian_channel(self, quantized, sn2, minimum_norm):
        # Nt = 2 Nr: the full-space J has Nt - Nr null eigenvalues for the cutoff to drop
        H, F, g, _, _, pt = random_instance(3, 6, 2, seed=26, sigma_n2=sn2)
        g = g if quantized else np.ones(3)
        U, W = self.paired_updates(H, F, g, sn2)
        Vr = range_basis(H)
        F_full, mu = update_precoder(Link.of(H, g, 6), U, W, pt)
        assert (mu == 0.0) == minimum_norm
        np.testing.assert_allclose(Vr @ update_precoder(Link.of(H @ Vr, g, 6), U, W, pt)[0], F_full,
                                   rtol=1e-10)

    @pytest.mark.parametrize("bits", [[1, 2, 3, 4] * 2, None])
    @pytest.mark.parametrize("sn2", [1e-2, 1.0])
    def test_few_path_channel(self, bits, sn2):
        # four paths: rank 4 of min(Nt, Nr) = 8, from the water-filling start
        H = saleh_valenzuela(16, 8, SVParams(2, 2), seed=5)
        g = gain_diagonal(bits, 8)
        U, W = self.paired_updates(H, waterfilling_baseline(H, 1.0, sn2, 3).F, g, sn2)
        Vr = range_basis(H)
        assert Vr.shape[1] == 4
        np.testing.assert_allclose(Vr @ update_precoder(Link.of(H @ Vr, g, 16), U, W, 1.0)[0],
                                   update_precoder(Link.of(H, g, 16), U, W, 1.0)[0], rtol=1e-10)

    @pytest.mark.parametrize("bits", [[2, 2], None])
    def test_cutoff_keeps_the_full_dimension(self, bits):
        H, F = self.two_mode_channel()
        g = gain_diagonal(bits, 2)
        U, W = self.paired_updates(H, F, g, 1e-2)
        Vr = range_basis(H)
        assert Vr.shape[1] == 2
        F_full, mu = update_precoder(Link.of(H, g, 64), U, W, 1.0)
        assert mu == 0.0
        np.testing.assert_allclose(Vr @ update_precoder(Link.of(H @ Vr, g, 64), U, W, 1.0)[0], F_full,
                                   rtol=1e-10)
        if bits is not None:
            # the reduced dimension's cutoff keeps the weak eigenvalue and
            # lands on another branch
            assert update_precoder(Link.of(H @ Vr, g, 2), U, W, 1.0)[1] > 0


# a secular instance whose root is 0.01: the first Newton step from any start
# far right of it falls below the floor 0 (from 2**10 times the root, to -505)
BELOW_FLOOR = (np.array([1e-3, 1e3]), np.array([1e-6, 1.0]), 0.008265462789917657,
               10.999340073361331)


class TestBisectionReplay:
    @settings(max_examples=300, deadline=None)
    @given(secular_instances(), st.none() | st.floats(-60.0, 60.0))
    @example(instance=BELOW_FLOOR, log2_ratio=10.0)
    def test_same_multiplier_as_bisection(self, instance, log2_ratio):
        # the warm start lies at root * 2**log2_ratio: left of the root, right
        # of it or far from it; None is the cold start 0
        lam, c2, pt, hi = instance
        root = reference_bisection(*instance)
        start = 0.0 if log2_ratio is None else root * 2.0 ** log2_ratio
        assert _bisect_multiplier(lam, c2, secular_terms(lam, c2), pt, hi, start) == root

    def test_bracket_certified_around_multiplier(self, monkeypatch):
        H, F, g, ce, _, pt = random_instance(4, 8, 2, seed=27, sigma_n2=1.0)
        GHF = g[:, None] * (H @ F)
        W, U = receive_updates(GHF, ce)
        seen = []

        def spy(*args):
            seen.append(_certified_bracket(*args))
            return seen[-1]

        monkeypatch.setattr(beamforming, "_certified_bracket", spy)
        mu = update_precoder(Link.of(H, g, 8), U, W, pt)[1]
        (a, b), = seen
        assert 0 < a < mu < b < math.inf

    def test_without_newton_steps_falls_back_to_the_full_loop(self, monkeypatch):
        monkeypatch.setattr(beamforming, "_NEWTON_STEPS", 0)
        rng = np.random.default_rng(28)
        for _ in range(20):
            lam = np.sort(rng.uniform(0.0, 2.0, 6))
            c2 = rng.uniform(0.0, 1.0, 6)
            pt = 0.5 * float(c2 @ lam ** -2)
            hi = math.sqrt(c2.sum() / pt)
            terms = secular_terms(lam, c2)
            assert _certified_bracket(terms, pt, hi, 1e-8 * pt, 0.0, 0.0) == (-1.0, math.inf)
            mu = reference_bisection(lam, c2, pt, hi)
            assert _bisect_multiplier(lam, c2, terms, pt, hi, 0.0) == mu
            # a warm start at the root takes no Newton step either
            assert _certified_bracket(terms, pt, hi, 1e-8 * pt, 0.0, mu) == (-1.0, math.inf)
            assert _bisect_multiplier(lam, c2, terms, pt, hi, mu) == mu

    @settings(max_examples=300, deadline=None)
    @given(secular_instances())
    def test_bracket_fires_where_the_grid_scan_did(self, instance):
        # a bracket that stopped firing would leave mu as it is and quietly
        # fall back to evaluating P at every midpoint
        lam, c2, pt, hi = instance
        args = (lam, c2, pt, hi, 1e-8 * pt, max(0.0, -float(lam[0])))
        if frozen_bracket(*args)[1] < math.inf:
            assert _certified_bracket(secular_terms(lam, c2), *args[2:], 0.0)[1] < math.inf

    def test_root_below_grid(self):
        # the root sits near 1e-22, below the grid's floor hi * 2**-60
        lam, c2, pt = np.array([1e-25, 1e3]), np.array([1e-44, 1.0]), 1.0
        hi = math.sqrt(c2.sum() / pt)
        terms = secular_terms(lam, c2)
        assert _certified_bracket(terms, pt, hi, 1e-8 * pt, 0.0, 0.0) == (-1.0, math.inf)
        mu = _bisect_multiplier(lam, c2, terms, pt, hi, 0.0)
        assert mu == reference_bisection(lam, c2, pt, hi)
        assert 0 < mu < 1e-21


class TestIterationIdentity:
    """One AltMin iteration, and whole solves, against the frozen reference, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(precoder_instances())
    def test_precoder_instances(self, instance):
        H, g, _, _, pt, F, sigma_n2 = instance
        assert_same_iteration(one_iteration(H, g, F, sigma_n2, pt),
                              frozen_iteration(H, g, F, sigma_n2, pt))

    @pytest.mark.parametrize("n, ns", [(16, 4), (64, 8)])
    @pytest.mark.parametrize("bits, pt, minimum_norm", [("mixed", 1.0, False), (None, 10.0, True)])
    def test_saleh_valenzuela_channel(self, n, ns, bits, pt, minimum_norm):
        # on H V_r from the water-filling start; the 64x64 channel has rank 50
        H = saleh_valenzuela(n, n, seed=n)
        g = gain_diagonal([1, 2, 3, 4] * (n // 4) if bits else None, n)
        Vr = range_basis(H)
        F = Vr.conj().T @ waterfilling_baseline(H, 1.0, 0.01, ns).F
        new = one_iteration(H @ Vr, g, F, 0.01, pt, n)
        assert (new[4] == 0.0) == minimum_norm
        assert_same_iteration(new, frozen_iteration(H @ Vr, g, F, 0.01, pt, n))

    @pytest.mark.parametrize("nt, nr, ns, bits", [(8, 4, 2, [1, 3, 2, 1]), (16, 16, 4, [2] * 16),
                                                  (64, 64, 8, [3] * 64)])
    def test_solve(self, nt, nr, ns, bits):
        H = saleh_valenzuela(nt, nr, seed=nt + 1)
        bf, rep = altmin_beamforming(H, bits, 1.0, 0.01, ns)
        F, U, W, trace = frozen_altmin(H, bits, 1.0, 0.01, ns)
        for x, y in ((bf.F, F), (bf.U, U), (bf.W, W), (rep.objective_trace, trace)):
            np.testing.assert_array_equal(x, y)


class TestVectorDiagonals:
    @settings(max_examples=200, deadline=None)
    @given(precoder_instances())
    def test_match_dense_forms(self, instance):
        H, g, U, W, pt, F, sigma_n2 = instance
        ce = effective_noise_cov(H @ F, *noise_weights(g, sigma_n2))
        G, C_e = np.diag(g), np.diag(ce)
        np.testing.assert_allclose(C_e, dense_noise_cov(G, H, F, sigma_n2), rtol=1e-12)
        np.testing.assert_allclose(U, dense_combiner(H, F, G, C_e), rtol=1e-12)
        np.testing.assert_allclose(W, dense_weight(H, F, G, C_e), rtol=1e-12)
        np.testing.assert_allclose(mse_matrix(H, F, U, g, ce), dense_mse(H, F, U, G, C_e),
                                   rtol=1e-12)
        assert spectral_efficiency(H, F, U, g, C_e) == pytest.approx(
            dense_se(H, F, U, G, C_e), rel=1e-12)


class TestAltMin:
    @pytest.mark.parametrize("max_iter", [20, 40, 200])
    def test_final_se_on_nearly_dependent_combiner(self, max_iter):
        # WMMSE drives two combiner columns of this channel toward dependence;
        # the reported SE must stay the objective log2 det W at the returned F
        H = saleh_valenzuela(7, 8, seed=494840897)
        bits = (1, 4, 5, 5, 4, 2, 1, 2)
        sn2 = 10 ** (-19.206880934016112 / 10)
        bf, rep = altmin_beamforming(H, bits, 1.0, sn2, 7, max_iter=max_iter)
        expected = np.linalg.slogdet(bf.W)[1] / np.log(2)
        assert rep.final_se == pytest.approx(expected, rel=1e-9)

    def test_full_resolution_matches_wf_capacity(self):
        H = saleh_valenzuela(8, 8, seed=30)
        pt, sn2, ns = 1.0, 0.1, 4
        bf, rep = altmin_beamforming(H, None, pt, sn2, ns)
        sv = np.linalg.svd(H, compute_uv=False)[:ns]
        p = waterfilling_power(sv**2 / sn2, pt)
        capacity = np.sum(np.log2(1 + p * sv**2 / sn2))
        assert abs(rep.final_se - capacity) < 1e-2
        assert rep.converged

    @pytest.mark.parametrize("seed", list(range(6)))
    def test_objective_trace_nondecreasing(self, seed):
        H = saleh_valenzuela(8, 8, seed=40 + seed)
        _, rep = altmin_beamforming(H, [1] * 8, 1.0, 1e-3, 2)
        assert np.all(np.diff(rep.objective_trace) >= -1e-9)

    def test_objective_dip_within_power_tolerance(self):
        # the bisection accepts any power within 1e-8 pt, so the trace may
        # fall by up to about Ns * 1e-8; on this 2 x 1 channel it falls by
        # 1.08e-9 from iteration 1 to 2
        H = np.array([[-0.32007138 - 0.15245022j], [0.17447379 - 0.30861895j]])
        ns = 1
        _, rep = altmin_beamforming(H, None, 1.0, 1.0, ns)
        assert rep.iterations == 2 and rep.converged
        drop = rep.objective_trace[0] - rep.objective_trace[1]
        assert drop == pytest.approx(1.08e-9, rel=1e-2)
        assert drop <= ns * 1e-8

    def test_one_svd_of_h_per_solve(self, monkeypatch):
        # the water-filling start and V_r come from one thin SVD of H
        H = saleh_valenzuela(8, 4, seed=71)
        svd = np.linalg.svd
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(a is H)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        altmin_beamforming(H, [1, 3, 2, 1], 1.0, 0.01, 2, max_iter=3)
        assert sum(calls) == 1

    def test_one_bit_high_snr_beats_wf(self):
        # quantization-aware design strictly better than the unaware WF
        # beamformers on at least 95 of 100 channels
        wins = 0
        for seed in range(100):
            H = saleh_valenzuela(8, 8, seed=500 + seed)
            sn2 = 1e-3
            bits = [1] * 8
            g = gain_diagonal(bits, len(bits))
            wf = waterfilling_baseline(H, 1.0, sn2, 2)
            ce = effective_noise_cov(H @ wf.F, *noise_weights(g, sn2))
            se_wf = spectral_efficiency(H, wf.F, wf.U, g, np.diag(ce))
            _, rep = altmin_beamforming(H, bits, 1.0, sn2, 2)
            wins += rep.final_se > se_wf
        assert wins >= 95

    def test_wmmse_equivalence_identities(self):
        # tr(W E) = Ns and log2 det W = R at the paired updates
        for seed in range(10):
            H, F, g, ce, _, _ = random_instance(5, 4, 3, seed=600 + seed)
            GHF = g[:, None] * (H @ F)
            W, U = receive_updates(GHF, ce)
            E = mse_matrix(H, F, U, g, ce)
            assert abs(np.trace(W @ E).real - 3) < 1e-9
            r = spectral_efficiency(H, F, U, g, np.diag(ce))
            assert abs(np.linalg.slogdet(W)[1] / np.log(2) - r) < 1e-9

    def test_permutation_equivariance(self):
        H = saleh_valenzuela(6, 6, seed=70)
        bits = [1, 2, 3, 1, 2, 3]
        perm = np.array([4, 2, 0, 5, 1, 3])
        bf, rep = altmin_beamforming(H, bits, 1.0, 0.01, 2)
        bf_p, rep_p = altmin_beamforming(
            H[perm], [bits[i] for i in perm], 1.0, 0.01, 2
        )
        assert abs(rep.final_se - rep_p.final_se) < 1e-9
        np.testing.assert_allclose(bf_p.U, bf.U[perm], atol=1e-8)

    def test_returned_weight_matches_final_precoder(self):
        H = saleh_valenzuela(8, 4, seed=71)
        bits, sn2 = [1, 3, 2, 1], 0.01
        bf, _ = altmin_beamforming(H, bits, 1.0, sn2, 2)
        g = gain_diagonal(bits, len(bits))
        ce = effective_noise_cov(H @ bf.F, *noise_weights(g, sn2))
        np.testing.assert_allclose(bf.W, receive_updates(g[:, None] * (H @ bf.F), ce)[0],
                                   rtol=1e-12)

    def test_final_power_feasible(self):
        H = saleh_valenzuela(6, 6, seed=71)
        bf, _ = altmin_beamforming(H, [2] * 6, 1.3, 1e-3, 3)
        assert np.linalg.norm(bf.F) ** 2 <= 1.3 * (1 + 1e-9)

    def test_max_iter_reached_reports_not_converged(self):
        H = saleh_valenzuela(6, 6, seed=72)
        _, rep = altmin_beamforming(H, [1] * 6, 1.0, 1e-4, 3, eps=1e-12, max_iter=3)
        assert not rep.converged
        assert rep.iterations == 3

    @settings(max_examples=60, deadline=None)
    @given(altmin_instances())
    def test_reduced_solve_properties(self, instance):
        H, bits, pt, sigma_n2, ns = instance
        bf, rep = altmin_beamforming(H, bits, pt, sigma_n2, ns)
        Vr = range_basis(H)
        F = bf.F
        assert np.linalg.norm(F - Vr @ (Vr.conj().T @ F)) <= 1e-12 * np.linalg.norm(F)
        assert np.linalg.norm(F) ** 2 <= pt * (1 + 1e-8)
        # the bisection stops anywhere within 1e-8 pt of pt; a step that lands
        # below the previous precoder's power loses up to about Ns * 1e-8 of
        # log det W (a 2 x 1 channel at 0 dB loses 1.1e-9, on the full-space
        # solve as well)
        assert np.all(np.diff(rep.objective_trace) >= -(1e-9 + 1e-8 * ns))
        np.testing.assert_allclose(rep.final_se, np.linalg.slogdet(bf.W)[1] / np.log(2),
                                   rtol=1e-12)

    def test_zero_channel(self):
        # rank 0: the reduced channel has no columns and the precoder stays zero
        H = np.zeros((4, 8), dtype=complex)
        with pytest.warns(RuntimeWarning, match="regulariz"):
            bf, rep = altmin_beamforming(H, [2] * 4, 1.0, 0.1, 2)
        assert rep.final_se == 0.0 and rep.iterations == 2 and rep.converged
        np.testing.assert_array_equal(bf.F, np.zeros((8, 2)))

    @pytest.mark.parametrize("bits", [[2] * 8, None])
    def test_rank_one_channel(self, bits):
        # one path, two streams: every precoder in range(H^H) is v x^H, so the
        # SE is log2(1 + sum_k g_k d_k / ((1 - g_k) d_k + sigma_n2)) with the
        # row powers d_k = ||F||^2 ||h_k||^2, and the best F spends all of pt
        H = saleh_valenzuela(8, 8, SVParams(1, 1), seed=0)
        pt, sn2 = 1.0, 0.01
        bf, rep = altmin_beamforming(H, bits, pt, sn2, 2)
        g = gain_diagonal(bits, 8)
        power = np.linalg.norm(bf.F) ** 2
        d = power * np.sum(np.abs(H) ** 2, axis=1)
        expected = np.log2(1 + np.sum(g * d / ((1 - g) * d + sn2)))
        assert rep.final_se == pytest.approx(expected, rel=1e-12)
        assert rep.iterations == 2 and rep.converged
        assert power == pytest.approx(pt, rel=1e-8)

    @pytest.mark.parametrize("max_iter", [0, -2])
    def test_no_iterations_returns_waterfilling_start(self, max_iter):
        H = saleh_valenzuela(6, 6, seed=72)
        bf, rep = altmin_beamforming(H, [1] * 6, 1.0, 1e-4, 3, max_iter=max_iter)
        assert rep.iterations == 0 and not rep.converged
        np.testing.assert_array_equal(bf.F, waterfilling_baseline(H, 1.0, 1e-4, 3).F)
