"""Power/EE arithmetic, simulated-covariance SE, and the experiment harness."""

import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest

from qmimo.beamforming import altmin_beamforming, waterfilling_baseline, waterfilling_power
from qmimo.bitalloc import exhaustive_search, gpos_bfba
from qmimo.bussgang import qd_cov_simulated
from qmimo.channel import SVParams, saleh_valenzuela
from qmimo.evaluation import (
    F_S,
    FOM_KAPPA,
    FULL_PRECISION_BITS,
    P_LNA,
    P_RF,
    SCHEMES,
    PointConfig,
    energy_efficiency,
    run_experiment,
    se_simulated,
    total_power,
)


class TestTotalPower:
    def test_reference_value_64_chains_3_bits(self):
        # 64*(25+43) mW + 64*2*494e-15*1e9*8 W = 4.352 + 0.505856 W
        assert total_power([3] * 64) == pytest.approx(4.857856, abs=1e-9)

    def test_adc_term_doubles_per_bit(self):
        base = 4 * (P_LNA + P_RF)
        adc1 = total_power([1] * 4) - base
        adc2 = total_power([2] * 4) - base
        assert adc2 == pytest.approx(2 * adc1, rel=1e-12)

    def test_zero_chains(self):
        assert total_power([]) == 0.0

    def test_mixed_bits(self):
        expected = 2 * (P_LNA + P_RF) + 2 * FOM_KAPPA * F_S * (2 + 16)
        assert total_power([1, 4]) == pytest.approx(expected, rel=1e-12)


class TestEnergyEfficiency:
    def test_zero_se(self):
        assert energy_efficiency(0.0, 2.0) == 0.0

    def test_monotone_in_power(self):
        assert energy_efficiency(10.0, 2.0) > energy_efficiency(10.0, 4.0)

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            energy_efficiency(1.0, 0.0)


class TestSeSimulated:
    def setup_method(self):
        self.H = saleh_valenzuela(8, 8, seed=0)
        self.sn2 = 0.1

    def test_full_resolution_matches_unquantized(self):
        from qmimo.beamforming import spectral_efficiency

        bf = waterfilling_baseline(self.H, 1.0, self.sn2, 2)
        se = se_simulated(self.H, bf.F, bf.U, None, self.sn2, num_samples=10**4, seed=1)
        expected = spectral_efficiency(
            self.H, bf.F, bf.U, np.ones(8), self.sn2 * np.eye(8)
        )
        assert se == pytest.approx(expected, abs=1e-12)

    def test_high_resolution_close_to_approx(self):
        bits = [8] * 8
        bf, rep = altmin_beamforming(self.H, bits, 1.0, self.sn2, 2)
        se_sim = se_simulated(self.H, bf.F, bf.U, bits, self.sn2, num_samples=10**5, seed=2)
        assert abs(se_sim - rep.final_se) / rep.final_se < 0.02

    def test_one_bit_below_approx_at_high_snr(self):
        sn2 = 1e-3
        bits = [1] * 8
        bf, rep = altmin_beamforming(self.H, bits, 1.0, sn2, 2)
        se_sim = se_simulated(self.H, bf.F, bf.U, bits, sn2, num_samples=10**5, seed=3)
        assert se_sim < rep.final_se


class TestPointConfig:
    def test_noise_power_from_snr(self):
        cfg = PointConfig(snr_db=20.0, pt=2.0)
        assert cfg.sigma_n2 == pytest.approx(0.02)

    def test_budget_default(self):
        cfg = PointConfig(nr=64, b=2)
        assert cfg.budget == 128

    def test_budget_with_varsigma(self):
        cfg = PointConfig(nr=64, b=2, varsigma=0.55)
        assert cfg.budget == int(np.floor(0.55 * 128))

    @pytest.mark.parametrize("varsigma, total, budget", [
        (0.29, 100, 29),   # 0.29 * 100 == 28.999999999999996
        (0.57, 100, 57),   # 0.57 * 100 == 56.99999999999999
        (0.6, 192, 115),
    ])
    def test_budget_floors_the_decimal_product(self, varsigma, total, budget):
        assert PointConfig(nr=64, b=3, varsigma=varsigma, b_total=total).budget == budget

    def test_validate_ns(self):
        cfg = PointConfig(nt=4, nr=4, ns=5)
        with pytest.raises(ValueError, match="ns"):
            cfg.validate()
        for ns in (0, 1.5, True):
            with pytest.raises(ValueError, match=f"Ns must be a whole number >= 1, got {ns}"):
                PointConfig(nt=4, nr=4, ns=ns).validate()

    def test_validate_num_qd_samples(self):
        # b and b_max: tests/test_quantizer.py, TestResolutionRule
        for n in (0, 1e4 + 0.5):
            with pytest.raises(ValueError, match=re.escape(f"num_qd_samples must be a whole "
                                                           f"number >= 1, got {n!r}")):
                PointConfig(num_qd_samples=n).validate()

    def test_integral_floats_run_as_their_integers(self):
        # an 8x4 point given as floats: ES enumerates, range(i2) and the
        # stream slices take the stored ints
        ints = dict(nt=8, nr=4, ns=2, b=2, b_max=3, b_total=8, max_iter=500, i2=15,
                    scoring_max_iter=30, num_qd_samples=10**4)
        floats = PointConfig(snr_db=20.0, sim_se=True, **{k: float(v) for k, v in ints.items()})
        assert {k: type(getattr(floats, k)) for k in ints} == dict.fromkeys(ints, int)
        schemes = ["WF", "GPOS", "ES"]
        want, got = (run_experiment(cfg, schemes, num_channels=2, seed=5).outcomes
                     for cfg in (PointConfig(snr_db=20.0, sim_se=True, **ints), floats))
        for scheme in schemes:
            np.testing.assert_array_equal(got[scheme].se_apx, want[scheme].se_apx)
            if scheme != "ES":
                np.testing.assert_array_equal(got[scheme].se_sim, want[scheme].se_sim)
            assert got[scheme].allocations == want[scheme].allocations
            assert {type(b) for bits in got[scheme].allocations for b in bits} == {int}

    def test_validate_b_above_b_max(self):
        with pytest.raises(ValueError, match="b=4 exceeds b_max=3"):
            PointConfig(b=4, b_max=3).validate()

    def test_validate_gpos_budget(self):
        cfg = PointConfig(nr=64, b=2, varsigma=0.25)  # budget 32 < 64
        with pytest.raises(ValueError, match="budget"):
            cfg.validate(["GPOS"])
        cfg.validate(["WF"])  # fine without bit allocation

    @pytest.mark.parametrize("function, keyword, field", [
        (altmin_beamforming, "eps", "eps"),
        (altmin_beamforming, "max_iter", "max_iter"),
        (gpos_bfba, "eps", "eps"),
        (gpos_bfba, "max_iter", "max_iter"),
        (gpos_bfba, "i2", "i2"),
        (gpos_bfba, "scoring_max_iter", "scoring_max_iter"),
        (exhaustive_search, "eps", "eps"),
        (exhaustive_search, "max_iter", "max_iter"),
        (se_simulated, "num_samples", "num_qd_samples"),
        (qd_cov_simulated, "num_samples", "num_qd_samples"),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_library_default_matches_field_default(self, function, keyword, field):
        # the library repeats these config defaults as keyword defaults
        fields = {f.name: f.default for f in dataclasses.fields(PointConfig)}
        assert inspect.signature(function).parameters[keyword].default == fields[field]


DESK = dict(nt=8, nr=8, ns=2, sv=SVParams())


class TestRunExperiment:
    def test_full_precision_equals_wf_capacity(self):
        cfg = PointConfig(**DESK, snr_db=10.0, b=2)
        res = run_experiment(cfg, ["FullPrecision"], num_channels=5, seed=1)
        out = res.outcomes["FullPrecision"]
        expected = []
        for c in range(5):
            from qmimo.evaluation import derive_seed

            H = saleh_valenzuela(8, 8, seed=derive_seed(1, 0, c))
            sv = np.linalg.svd(H, compute_uv=False)[:2]
            p = waterfilling_power(sv**2 / cfg.sigma_n2, 1.0)
            expected.append(np.sum(np.log2(1 + p * sv**2 / cfg.sigma_n2)))
        np.testing.assert_allclose(out.se_apx, expected, atol=1e-9)
        # power accounted at the full-precision proxy resolution
        assert out.power_w[0] == pytest.approx(total_power([FULL_PRECISION_BITS] * 8))

    def test_deterministic_repeat(self):
        cfg = PointConfig(**DESK, snr_db=20.0, b=1, sim_se=True, num_qd_samples=10**4)
        r1 = run_experiment(cfg, ["WF", "AltMinBF"], num_channels=3, seed=7)
        r2 = run_experiment(cfg, ["WF", "AltMinBF"], num_channels=3, seed=7)
        for scheme in ("WF", "AltMinBF"):
            np.testing.assert_array_equal(r1.outcomes[scheme].se_apx, r2.outcomes[scheme].se_apx)
            np.testing.assert_array_equal(r1.outcomes[scheme].se_sim, r2.outcomes[scheme].se_sim)
            np.testing.assert_array_equal(r1.outcomes[scheme].ee, r2.outcomes[scheme].ee)

    def test_simulated_se_independent_of_scheme_order(self):
        # a scheme's Monte-Carlo stream is keyed by the scheme, not by its place in the list
        cfg = PointConfig(**DESK, snr_db=20.0, b=1, sim_se=True, num_qd_samples=10**4)
        runs = [run_experiment(cfg, schemes, num_channels=3, seed=7).outcomes
                for schemes in (["WF", "AltMinBF"], ["AltMinBF", "WF"],
                                ["FullPrecision", "AltMinBF", "WF"])]
        for scheme in ("WF", "AltMinBF"):
            for other in runs[1:]:
                np.testing.assert_array_equal(other[scheme].se_sim, runs[0][scheme].se_sim)

    def test_altmin_beats_wf_one_bit_high_snr(self):
        cfg = PointConfig(**DESK, snr_db=30.0, b=1)
        res = run_experiment(cfg, ["WF", "AltMinBF"], num_channels=20, seed=3)
        assert res.outcomes["AltMinBF"].summary()["mean_se_apx"] > res.outcomes["WF"].summary()["mean_se_apx"]

    def test_gpos_allocations_recorded(self):
        cfg = PointConfig(nt=8, nr=4, ns=2, snr_db=20.0, b=2, b_max=3)
        res = run_experiment(cfg, ["GPOS"], num_channels=2, seed=5)
        out = res.outcomes["GPOS"]
        assert len(out.allocations) == 2
        for alloc in out.allocations:
            assert sum(alloc) == 8
        assert out.failed_channels == []

    def test_scheme_failure_recorded_and_skipped(self, monkeypatch):
        import qmimo.evaluation as ev

        calls = {"n": 0}
        original = ev.beamforming.waterfilling_baseline

        def flaky(H, pt, sigma_n2, ns):
            calls["n"] += 1
            if calls["n"] == 2:
                raise np.linalg.LinAlgError("synthetic failure")
            return original(H, pt, sigma_n2, ns)

        monkeypatch.setattr(ev.beamforming, "waterfilling_baseline", flaky)
        cfg = PointConfig(**DESK, snr_db=10.0, b=2)
        with pytest.warns(RuntimeWarning, match="failed on channel"):
            res = run_experiment(cfg, ["WF"], num_channels=3, seed=9)
        out = res.outcomes["WF"]
        assert out.failed_channels == [1]
        assert out.se_apx.size == 2

    def test_lapack_failure_is_a_channel_failure(self, monkeypatch):
        # channel 1 hands the combiner's direct LAPACK solve a singular system:
        # AltMinBF and GPOS fail there, each with its one warning and no other
        import qmimo.evaluation as ev
        from numpy.linalg import _umath_linalg

        draw, solve, drawn = ev.channel.saleh_valenzuela, _umath_linalg.solve, []

        def counted_draw(*args, **kwargs):
            drawn.append(None)
            return draw(*args, **kwargs)

        def solve_on(a, b, **kwargs):
            return solve(np.zeros_like(a) if len(drawn) == 2 else a, b, **kwargs)

        monkeypatch.setattr(ev.channel, "saleh_valenzuela", counted_draw)
        monkeypatch.setattr(_umath_linalg, "solve", solve_on)
        cfg = PointConfig(nt=8, nr=4, ns=2, snr_db=10.0, b=2, b_max=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run_experiment(cfg, ["WF", "AltMinBF", "GPOS"], num_channels=3, seed=5)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "scheme AltMinBF failed on channel 1: Singular matrix"),
            (RuntimeWarning, "scheme GPOS failed on channel 1: Singular matrix"),
        ]
        assert {s: out.failed_channels for s, out in res.outcomes.items()} == {
            "WF": [], "AltMinBF": [1], "GPOS": [1]}

    @pytest.mark.parametrize("error", [TypeError, ValueError])
    def test_programming_error_propagates(self, monkeypatch, error):
        # a ValueError on the per-channel path is an input check or a shape
        # bug, not a numerical channel failure
        import qmimo.evaluation as ev

        def broken(H, pt, sigma_n2, ns):
            raise error("synthetic bug")

        monkeypatch.setattr(ev.beamforming, "waterfilling_baseline", broken)
        cfg = PointConfig(**DESK, snr_db=10.0, b=2)
        with pytest.raises(error, match="synthetic bug"):
            run_experiment(cfg, ["WF"], num_channels=2, seed=9)

    @pytest.mark.parametrize("schemes", [["WF", "AltMinBF", "GPOS", "ES"], ["AltMinBF", "GPOS"]])
    def test_solves_continue_the_channel_store_only_with_es(self, monkeypatch, schemes):
        # with ES every solve of an allocation already solved on the channel
        # continues that solve's report; without ES no solve continues another
        import qmimo.bitalloc as ba

        solve, batch, starts, stacked = ba.altmin_beamforming, ba._altmin_batch, [], {}

        def batched(H, allocations, *args):
            reports = batch(H, allocations, *args)
            stacked.update((id(r), (r, s)) for r, s in zip(reports, args[-1]))
            return reports

        def recorded(H, bits, *args, **kwargs):
            result = solve(H, bits, *args, **kwargs)
            start = kwargs.get("start")
            # a scoring or ES solve resumes its stacked iterations: the report
            # it continues is the one those iterations started from
            report, first = stacked.get(id(start), (None, None))
            start = first if report is start else start
            starts.append((H.tobytes(), tuple(bits), start, result[1]))
            return result

        monkeypatch.setattr(ba, "_altmin_batch", batched)
        monkeypatch.setattr(ba, "altmin_beamforming", recorded)
        cfg = PointConfig(nt=8, nr=4, ns=2, snr_db=10.0, b=2, b_max=3)
        run_experiment(cfg, schemes, num_channels=2, seed=5)
        latest, continued = {}, 0
        for channel_bits, start, rep in ((s[:2], s[2], s[3]) for s in starts):
            expected = latest.get(channel_bits) if "ES" in schemes else None
            assert start is expected, channel_bits[1]
            continued += start is not None
            latest[channel_bits] = rep
        assert len({h for h, *_ in starts}) == 2
        assert (continued > 0) == ("ES" in schemes)

    def test_es_runs_last_in_any_position(self):
        # ES continues the channel's AltMinBF and GPOS solves, so it runs last
        # on each channel and its outcome comes last, wherever it is listed
        cfg = PointConfig(nt=8, nr=4, ns=2, snr_db=20.0, b=2, b_max=3)
        results = [run_experiment(cfg, schemes, num_channels=2, seed=3)
                   for schemes in (("ES", "WF", "GPOS"), ("WF", "ES", "GPOS"),
                                   ("WF", "GPOS", "ES"))]
        for res in results:
            assert list(res.outcomes) == ["WF", "GPOS", "ES"]
        for res in results[:2]:
            for scheme, out in res.outcomes.items():
                last = results[-1].outcomes[scheme]
                for name in ("se_apx", "ee", "power_w", "iterations"):
                    np.testing.assert_array_equal(getattr(out, name), getattr(last, name))
                assert out.allocations == last.allocations
                assert out.failed_channels == last.failed_channels == []

    def test_pt_moves_no_output_at_fixed_snr(self):
        # sigma_n2 = Pt / SNR scales with Pt, F with sqrt(Pt), and every SE is
        # invariant to that common scale, the Monte-Carlo one included
        results = [run_experiment(PointConfig(nt=8, nr=4, ns=2, snr_db=10.0, pt=pt, b=2,
                                              b_max=3, sim_se=True, num_qd_samples=10**4),
                                  SCHEMES, num_channels=2, seed=5).outcomes
                   for pt in (0.37, 1.0, 2.0)]
        for outcomes in results[1:]:
            for scheme, out in outcomes.items():
                ref = results[0][scheme]
                np.testing.assert_allclose(out.se_apx, ref.se_apx, rtol=1e-12)
                if ref.se_sim is not None:
                    np.testing.assert_allclose(out.se_sim, ref.se_sim, rtol=1e-12)
                np.testing.assert_array_equal(out.iterations, ref.iterations)
                assert out.allocations == ref.allocations
                assert out.altmin_unconverged == ref.altmin_unconverged
                assert out.failed_channels == ref.failed_channels == []

    def test_unknown_scheme_rejected(self):
        cfg = PointConfig(**DESK, snr_db=10.0, b=2)
        with pytest.raises(ValueError, match="unknown scheme"):
            run_experiment(cfg, ["ZF"], num_channels=1, seed=0)

    def test_duplicate_scheme_rejected(self):
        cfg = PointConfig(**DESK, snr_db=10.0, b=2)
        with pytest.raises(ValueError, match="duplicate scheme"):
            run_experiment(cfg, ["WF", "AltMinBF", "WF"], num_channels=1, seed=0)

    def test_ee_trend_low_resolution_beats_full_precision(self):
        cfg = PointConfig(nt=8, nr=4, ns=2, snr_db=20.0, b=3, b_max=5)
        res = run_experiment(cfg, ["GPOS", "FullPrecision"], num_channels=4, seed=11)
        assert res.outcomes["GPOS"].summary()["mean_ee"] > res.outcomes["FullPrecision"].summary()["mean_ee"]

    def test_mean_se_monotone_in_snr(self):
        means = {s: [] for s in ("WF", "AltMinBF")}
        for snr in (0.0, 10.0, 20.0):
            cfg = PointConfig(**DESK, snr_db=snr, b=2)
            res = run_experiment(cfg, list(means), num_channels=10, seed=13)
            for s in means:
                means[s].append(res.outcomes[s].summary()["mean_se_apx"])
        for s, vals in means.items():
            assert vals[0] < vals[1] < vals[2], (s, vals)

    def test_mean_se_nondecreasing_in_bits(self):
        vals = []
        for b in (1, 2, 3):
            cfg = PointConfig(**DESK, snr_db=20.0, b=b)
            res = run_experiment(cfg, ["AltMinBF"], num_channels=10, seed=17)
            vals.append(res.outcomes["AltMinBF"].summary()["mean_se_apx"])
        assert vals[0] <= vals[1] <= vals[2]
