"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``ACCEPTANCE nn PASS|FAIL`` line with the
measured quantities before asserting, so a full run (``pytest -s
tests/test_acceptance.py``) shows the per-criterion outcome even when a
criterion fails.

Known red criteria (measured limits of the underlying approximations, see
the module docstrings and README):

* 02 - the fitted gamma formula misses the five-bit table value by ~16.6%
  (bound: 12%) and the high-resolution formula by ~6.1% (bound: 5%);
  both formulas are inside their bounds at every other resolution.
* 07 - the one-bit beamforming gain over water-filling, measured on the
  diagonal-approximation SE, is ~12% (11.9%) at this instance size (bound: 20%);
  the alternating design provably saturates the diagonal-model ceiling
  here, so no implementation can reach the stated margin.
"""

import dataclasses
import time

import numpy as np
import pytest

from qmimo.beamforming import (
    altmin_beamforming,
    mse_matrix,
    receive_updates,
    spectral_efficiency,
    waterfilling_baseline,
    waterfilling_power,
)
from qmimo.bitalloc import exhaustive_search, gpos_bfba
from qmimo.bussgang import (
    effective_noise_cov,
    gain_diagonal,
    noise_weights,
    onebit_arcsine,
    optimal_onebit_beta,
    qd_cov_approx,
)
from qmimo.channel import saleh_valenzuela
from qmimo.cli import parse_config, run_sweep
from qmimo.evaluation import PointConfig, run_experiment, se_simulated, total_power
from qmimo.quantizer import (
    distortion_table,
    gamma_approx,
    lloyd_max_design,
    quantizer_mse,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_quantizer_fixed_points():
    t0 = time.perf_counter()
    q = lloyd_max_design(1)
    level = np.sqrt(2 / np.pi)
    code_dev = float(np.max(np.abs(q.codebook - [-level, level])))
    gamma_dev = abs(quantizer_mse(q) - (1 - 2 / np.pi))
    elapsed = time.perf_counter() - t0
    ok = code_dev <= 1e-6 and gamma_dev <= 1e-4 and elapsed < 1.0
    report(1, ok, f"codebook dev {code_dev:.2e} (<=1e-6), "
                  f"gamma(1) dev {gamma_dev:.2e} (<=1e-4), runtime {elapsed:.2f}s (<1s)")
    assert code_dev <= 1e-6
    assert gamma_dev <= 1e-4
    assert elapsed < 1.0


def test_criterion_02_gamma_approximation_quality():
    lloyd_max_design.cache_clear()
    distortion_table.cache_clear()
    t0 = time.perf_counter()
    table = distortion_table()
    build_s = time.perf_counter() - t0
    fitted = {
        b: abs(gamma_approx(b, "fitted") - table.gamma(b)) / table.gamma(b)
        for b in range(1, 6)
    }
    high = {
        b: abs(gamma_approx(b, "high_res") - table.gamma(b)) / table.gamma(b)
        for b in range(5, 9)
    }
    elapsed = time.perf_counter() - t0
    fit_ok = {b: e <= 0.12 for b, e in fitted.items()}
    high_ok = {b: e <= 0.05 for b, e in high.items()}
    ok = all(fit_ok.values()) and all(high_ok.values()) and elapsed < 10.0
    detail = (
        "fitted rel err " + " ".join(f"b{b}={e:.1%}" for b, e in fitted.items())
        + " (<=12%); high-res " + " ".join(f"b{b}={e:.1%}" for b, e in high.items())
        + f" (<=5%); table build {build_s:.1f}s, total {elapsed:.1f}s (<10s)"
    )
    report(2, ok, detail)
    assert elapsed < 10.0
    for b, e in fitted.items():
        assert e <= 0.12, f"fitted approximation off by {e:.1%} at b={b}"
    for b, e in high.items():
        assert e <= 0.05, f"high-res approximation off by {e:.1%} at b={b}"


def test_criterion_03_one_bit_consistency():
    sigma2 = 1.0
    C_y = sigma2 * np.eye(3)
    g5 = gain_diagonal([1, 1, 1], 3)
    C5 = np.diag(qd_cov_approx(g5, C_y).C_eta)
    out = onebit_arcsine(C_y, optimal_onebit_beta(sigma2))
    g_dev = float(np.max(np.abs(g5 - out.g)))
    c_dev = float(np.max(np.abs(C5 - out.C_eta)))
    g_val = abs(g5[0] - 0.6366)
    c_val = abs(C5[0, 0] - 0.2313 * sigma2)
    ok = max(g_dev, c_dev) <= 1e-3 and g_val <= 1e-3 and c_val <= 1e-3
    report(3, ok, f"pipeline deviation G {g_dev:.2e}, C_eta {c_dev:.2e} (<=1e-3); "
                  f"G entry dev {g_val:.2e}, C_eta entry dev {c_val:.2e}")
    assert g_dev <= 1e-3 and c_dev <= 1e-3
    assert g_val <= 1e-3 and c_val <= 1e-3


def test_criterion_04_bussgang_statistics(one_shot_stream):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    H = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(8)
    F = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    F /= np.linalg.norm(F)
    sn2 = 0.05
    bits = [1, 2, 3, 2]
    n = 10**6

    # (a) distortion uncorrelated with the input
    y, _, eta = one_shot_stream(H, F, sn2, bits, n, seed=1404)
    prod = eta[:, None, :] * y.conj()[None, :, :]
    mean = prod.mean(axis=2)
    se = np.sqrt(prod.real.var(axis=2, ddof=1) + prod.imag.var(axis=2, ddof=1)) / np.sqrt(n)
    uncorr_sigmas = float(np.max(np.abs(mean) / se))

    # (b) simulated diagonal vs the closed form
    C_y = (H @ F) @ (H @ F).conj().T + sn2 * np.eye(4)
    expected_diag = qd_cov_approx(gain_diagonal(bits, len(bits)), C_y).C_eta
    sim_diag = (np.abs(eta) ** 2).mean(axis=1)
    diag_rel = float(np.max(np.abs(sim_diag - expected_diag) / expected_diag))

    # (c) arcsine law vs brute-force sign quantization, correlated pair
    rho, beta = 0.5, 1.0
    C2 = np.array([[1.0, rho], [rho, 1.0]], dtype=complex)
    L = np.linalg.cholesky(C2)
    w = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) / np.sqrt(2)
    yc = L @ w
    z = np.sqrt(beta / 2) * (np.sign(yc.real) + 1j * np.sign(yc.imag))
    prod_z = z[0] * z[1].conj()
    sample = prod_z.mean()
    se_z = np.sqrt(prod_z.real.var(ddof=1) + prod_z.imag.var(ddof=1)) / np.sqrt(n)
    arcsine_sigmas = abs(sample - onebit_arcsine(C2, beta).C_z[0, 1]) / se_z

    elapsed = time.perf_counter() - t0
    ok = uncorr_sigmas < 4 and diag_rel <= 0.02 and arcsine_sigmas < 3 and elapsed < 60
    report(4, ok, f"max |E[eta y*]| {uncorr_sigmas:.2f} sigma (<4); "
                  f"diag rel dev {diag_rel:.2%} (<=2%); "
                  f"arcsine dev {arcsine_sigmas:.2f} sigma (<3); "
                  f"runtime {elapsed:.0f}s (<60s)")
    assert uncorr_sigmas < 4
    assert diag_rel <= 0.02
    assert arcsine_sigmas < 3
    assert elapsed < 60


def test_criterion_05_wmmse_identities():
    rng = np.random.default_rng(505)
    worst_tr, worst_ld = 0.0, 0.0
    for _ in range(50):
        nr = int(rng.integers(2, 7))
        nt = int(rng.integers(2, 7))
        ns = int(rng.integers(1, min(nr, nt) + 1))
        H = (rng.standard_normal((nr, nt)) + 1j * rng.standard_normal((nr, nt))) / np.sqrt(2 * nt)
        F = rng.standard_normal((nt, ns)) + 1j * rng.standard_normal((nt, ns))
        F /= np.linalg.norm(F)
        bits = list(rng.integers(1, 6, nr))
        g = gain_diagonal(bits, len(bits))
        ce = effective_noise_cov(H @ F, *noise_weights(g, 0.05))
        W, U = receive_updates(g[:, None] * (H @ F), ce)
        E = mse_matrix(H, F, U, g, ce)
        worst_tr = max(worst_tr, abs(np.trace(W @ E).real - ns))
        r = spectral_efficiency(H, F, U, g, np.diag(ce))
        worst_ld = max(worst_ld, abs(np.linalg.slogdet(W)[1] / np.log(2) - r))
    ok = worst_tr <= 1e-9 and worst_ld <= 1e-9
    report(5, ok, f"max |tr(WE)-Ns| {worst_tr:.2e} (<=1e-9); "
                  f"max |log2 det W - R| {worst_ld:.2e} (<=1e-9), 50 instances")
    assert worst_tr <= 1e-9
    assert worst_ld <= 1e-9


def test_criterion_06_altmin_contract():
    runs = 0
    worst_drop = 0.0
    for b in (1, 3, 5):
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            for k in range(9):
                if runs >= 100:
                    break
                H = saleh_valenzuela(8, 8, seed=6000 + runs)
                _, rep = altmin_beamforming(H, [b] * 8, 1.0, 10 ** (-snr_db / 10), 2)
                diffs = np.diff(rep.objective_trace)
                if diffs.size:
                    worst_drop = max(worst_drop, float(-diffs.min()))
                runs += 1
    # full-resolution solve lands on the water-filling capacity
    H = saleh_valenzuela(8, 8, seed=6999)
    sn2 = 0.1
    _, rep = altmin_beamforming(H, None, 1.0, sn2, 2)
    sv = np.linalg.svd(H, compute_uv=False)[:2]
    p = waterfilling_power(sv**2 / sn2, 1.0)
    capacity = float(np.sum(np.log2(1 + p * sv**2 / sn2)))
    cap_dev = abs(rep.final_se - capacity)
    ok = worst_drop <= 1e-9 and cap_dev <= 1e-2
    report(6, ok, f"{runs} runs, worst objective drop {worst_drop:.2e} (<=1e-9); "
                  f"full-resolution SE dev from WF capacity {cap_dev:.2e} (<=1e-2)")
    assert worst_drop <= 1e-9
    assert cap_dev <= 1e-2


def test_criterion_07_beamforming_gain_trend():
    t0 = time.perf_counter()
    nt = nr = 16
    ns, sn2 = 4, 1e-3
    bits = [1] * nr
    g = gain_diagonal(bits, len(bits))
    se_wf, se_am = [], []
    for k in range(100):
        H = saleh_valenzuela(nt, nr, seed=7000 + k)
        wf = waterfilling_baseline(H, 1.0, sn2, ns)
        ce = effective_noise_cov(H @ wf.F, *noise_weights(g, sn2))
        se_wf.append(spectral_efficiency(H, wf.F, wf.U, g, np.diag(ce)))
        _, rep = altmin_beamforming(H, bits, 1.0, sn2, ns)
        se_am.append(rep.final_se)
    gain = np.mean(se_am) / np.mean(se_wf) - 1.0
    elapsed = time.perf_counter() - t0
    ok = gain >= 0.20 and elapsed < 300
    report(7, ok, f"mean AltMin-BF {np.mean(se_am):.2f} vs WF {np.mean(se_wf):.2f} "
                  f"bits/s/Hz: gain {gain:.1%} (>=20%); runtime {elapsed:.0f}s (<300s)")
    assert elapsed < 300
    assert gain >= 0.20, (
        f"measured approximate-SE gain {gain:.1%}; the alternating design "
        f"reaches the diagonal-model one-bit ceiling "
        f"Ns*log2(1 + (Nr/Ns) g/(1-g)) = "
        f"{ns * np.log2(1 + nr / ns * (2 / np.pi) / (1 - 2 / np.pi)):.2f} bits/s/Hz "
        f"on every channel, so the residual gap is the water-filling baseline itself"
    )


def test_criterion_08_gpos_vs_exhaustive():
    t0 = time.perf_counter()
    kw = dict(pt=1.0, sigma_n2=10 ** (-2.0), ns=2, b_max=3, budget=8)
    gpos_se, es_se, uniform_wins = [], [], 0
    for k in range(50):
        H = saleh_valenzuela(8, 4, seed=8000 + k)
        res = gpos_bfba(H, **kw)
        _, se_opt = exhaustive_search(H, **kw)
        _, rep_u = altmin_beamforming(H, [2, 2, 2, 2], 1.0, kw["sigma_n2"], 2)
        gpos_se.append(res.se)
        es_se.append(se_opt)
        uniform_wins += res.se >= rep_u.final_se
    ratio = np.mean(gpos_se) / np.mean(es_se)
    elapsed = time.perf_counter() - t0
    ok = ratio >= 0.98 and uniform_wins == 50 and elapsed < 600
    report(8, ok, f"mean GPOS/ES {ratio:.4f} (>=0.98); GPOS >= uniform on "
                  f"{uniform_wins}/50 channels (need 50); runtime {elapsed:.0f}s (<600s)")
    assert ratio >= 0.98
    assert uniform_wins == 50
    assert elapsed < 600


def test_criterion_09_overestimation_trend():
    nt = nr = 32
    ns, sn2 = 8, 10 ** (-2.0)
    num_channels = 50
    gaps = {}
    overestimated = 0
    for b in (1, 2, 4, 8):
        bits = [b] * nr
        gap = []
        for k in range(num_channels):
            H = saleh_valenzuela(nt, nr, seed=9000 + k)
            bf, rep = altmin_beamforming(H, bits, 1.0, sn2, ns)
            sim = se_simulated(H, bf.F, bf.U, bits, sn2,
                               num_samples=10**5, seed=9500 + 10 * k + b)
            gap.append(rep.final_se - sim)
            if b == 1 and rep.final_se > sim:
                overestimated += 1
        gaps[b] = float(np.mean(gap))
    frac = overestimated / num_channels
    shrinks = all(gaps[a] > gaps[b] for a, b in ((1, 2), (2, 4), (4, 8)))
    ok = frac >= 0.95 and shrinks
    report(9, ok, f"approx > sim on {frac:.0%} of channels at b=1 (>=95%); "
                  "mean gap by bits " +
                  " ".join(f"b{b}={g:.2f}" for b, g in gaps.items()) +
                  f" monotone shrinking: {shrinks}")
    assert frac >= 0.95
    assert shrinks


def test_criterion_10_power_and_ee():
    # 64 (25 + 43) mW + 64 * 2 * 494e-15 * 1e9 * 2^3 W = 4.857856 W
    p = total_power([3] * 64)
    p_dev = abs(p - 4.857856)
    cfg = PointConfig(nt=8, nr=4, ns=2, snr_db=20.0, b=3, b_max=5)
    res = run_experiment(cfg, ["GPOS", "FullPrecision"], num_channels=5, seed=10)
    ee_gpos = res.outcomes["GPOS"].summary()["mean_ee"]
    ee_full = res.outcomes["FullPrecision"].summary()["mean_ee"]
    ok = p_dev <= 1e-6 and ee_gpos > ee_full
    report(10, ok, f"total power {p:.6f} W dev {p_dev:.1e} (<=1e-6); "
                   f"EE GPOS {ee_gpos:.2f} vs full precision {ee_full:.2f} bits/J/Hz")
    assert p_dev <= 1e-6
    assert ee_gpos > ee_full


def test_criterion_11_determinism(tmp_path, capsys):
    import json

    doc = {
        "Nt": 8, "Nr": 4, "Ns": 2, "snr_db": [10.0, 20.0], "b": 2, "b_max": 3,
        "schemes": ["WF", "AltMinBF", "GPOS"], "num_channels": 3, "seed": 11,
        "sim_se": True, "num_qd_samples": 10**4,
    }
    cfg_path = tmp_path / "acceptance.json"
    cfg_path.write_text(json.dumps(doc))
    config = parse_config(cfg_path)
    run_sweep(dataclasses.replace(config, output_dir=str(tmp_path / "a")))
    run_sweep(dataclasses.replace(config, output_dir=str(tmp_path / "b")))
    capsys.readouterr()  # drop the per-point progress lines
    csv_a = (tmp_path / "a" / "results.csv").read_bytes()
    csv_b = (tmp_path / "b" / "results.csv").read_bytes()
    json_a = (tmp_path / "a" / "results.json").read_bytes()
    json_b = (tmp_path / "b" / "results.json").read_bytes()
    ok = csv_a == csv_b and json_a == json_b
    report(11, ok, f"repeated run byte-identical: csv {csv_a == csv_b}, "
                   f"json {json_a == json_b} ({len(csv_a)} csv bytes)")
    assert csv_a == csv_b
    assert json_a == json_b
