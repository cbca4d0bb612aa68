"""Config parsing, sweep execution, result serialization, exit codes."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import qmimo.cli as cli
from qmimo.channel import SVParams
from qmimo.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    run_sweep,
    write_results,
)
from qmimo.evaluation import PointConfig

# Per-scheme JSON keys in file order; the first seven are the CSV aggregates.
JSON_SCHEME_KEYS = [
    "mean_se_apx", "stderr_se_apx", "mean_se_sim", "stderr_se_sim", "mean_ee",
    "total_power_w", "mean_iterations", "se_apx_per_channel", "se_sim_per_channel",
    "ee_per_channel", "allocations", "failures", "failed_channels", "altmin_unconverged",
]
# CSV columns after the one column per swept axis
FIXED_HEADER = ("scheme,mean_se_apx,stderr_se_apx,mean_se_sim,stderr_se_sim,"
                "mean_ee,total_power_w,mean_iterations,seed")
# keys that take a list of values as a swept axis, with two feasible values each
SWEEPABLE = {
    "Nt": [4, 5], "Nr": [4, 5], "Ns": [1, 2], "snr_db": [0.0, 10.0], "b": [1, 2],
    "Pt": [1.0, 2.0], "b_max": [4, 8], "varsigma": [0.5, 1.0], "eps": [1e-4, 1e-3],
    "max_iter": [10, 20], "I2": [1, 2], "scoring_max_iter": [5, 6], "num_qd_samples": [10, 20],
}


def reject_constant(constant):
    """``json.loads`` hook: strict JSON has no NaN or Infinity."""
    raise ValueError(f"non-standard JSON constant {constant}")


def write_config(tmp_path, **overrides):
    doc = {
        "Nt": 4, "Nr": 4, "Ns": 2, "snr_db": 10.0, "b": 1,
        "schemes": ["WF"], "num_channels": 2, "seed": 3,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestParseConfig:
    def test_minimal_defaults(self, tmp_path):
        path = write_config(tmp_path, Nt=64, Nr=64, Ns=8, snr_db=10, b=2)
        cfg = parse_config(path)
        assert cfg.base.pt == 1.0
        assert cfg.base.varsigma == 1.0
        assert cfg.base.b_total is None
        _, point = cfg.points()[0]
        assert point.budget == 128

    def test_required_keys_only_is_default_point(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"Nt": 8, "Nr": 6, "Ns": 3, "snr_db": 5, "b": 4}))
        cfg = parse_config(path)
        assert cfg == ExperimentConfig(
            base=PointConfig(nt=8, nr=6, ns=3, snr_db=5.0, b=4),
            axes={"snr_db": (5.0,), "b": (4,)},
        )

    def test_every_key_lands_on_its_field(self, tmp_path):
        doc = {
            "Nt": 6, "Nr": 5, "Ns": 3, "snr_db": [1.5, 2.5], "b": [3, 4],
            "Pt": 2.0, "b_max": 6, "varsigma": 0.8, "b_total": 17, "eps": 1e-3,
            "max_iter": 77, "I2": 4, "scoring_max_iter": 9,
            "sv": {"num_clusters": 2, "rays_per_cluster": 3, "angle_spread_deg": 5.0},
            "num_qd_samples": 20000, "sim_se": True, "seed": 12,
            "schemes": ["GPOS", "FullPrecision"], "num_channels": 7,
            "output_dir": "elsewhere",
        }
        assert set(doc) == set(cli._KEYS)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        cfg = parse_config(path)
        base = PointConfig(
            nt=6, nr=5, ns=3, snr_db=1.5, pt=2.0, b=3, b_max=6, varsigma=0.8,
            b_total=17, eps=1e-3, max_iter=77, i2=4, scoring_max_iter=9,
            sv=SVParams(num_clusters=2, rays_per_cluster=3, angle_spread_deg=5.0),
            sim_se=True, num_qd_samples=20000,
        )
        assert cfg == ExperimentConfig(
            base=base, axes={"snr_db": (1.5, 2.5), "b": (3, 4)}, seed=12,
            schemes=("GPOS", "FullPrecision"), num_channels=7, output_dir="elsewhere",
        )
        defaults = ExperimentConfig(base=PointConfig(), axes={})
        for f in dataclasses.fields(PointConfig):
            assert getattr(cfg.base, f.name) != getattr(defaults.base, f.name), f.name
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name
        assert [point for _, point in cfg.points()] == [
            dataclasses.replace(base, snr_db=snr, b=b) for snr in (1.5, 2.5) for b in (3, 4)
        ]

    def test_infeasible_budget(self, tmp_path):
        path = write_config(
            tmp_path, Nt=64, Nr=64, Ns=8, varsigma=0.5, b_total=100,
            schemes=["GPOS"], b=2,
        )
        with pytest.raises(ConfigError, match="budget"):
            parse_config(path)

    def test_sweep_expansion(self, tmp_path):
        path = write_config(tmp_path, snr_db=[0, 10, 20, 30])
        cfg = parse_config(path)
        assert len(cfg.points()) == 4

    def test_cartesian_product(self, tmp_path):
        path = write_config(tmp_path, snr_db=[0, 10], b=[1, 2, 3])
        assert len(parse_config(path).points()) == 6

    def test_unknown_key_rejected(self, tmp_path):
        for key in ("snr", "carrier_frequency_hz"):
            path = write_config(tmp_path, **{key: 10})
            with pytest.raises(ConfigError, match=f"unknown config keys.*{key}"):
                parse_config(path)

    @pytest.mark.parametrize("key, value", [
        ("snr_db", []), ("Nt", "x"), ("schemes", 5),
        ("sim_se", "false"), ("Nt", 8.7), ("num_channels", 2.9), ("Nt", True),
        ("sv", {"num_clusters": 2.5}), ("schemes", ["WF", "WF"]), ("schemes", "WF"),
        ("output_dir", None), ("output_dir", 3),
        ("snr_db", math.nan), ("Pt", math.inf), ("eps", math.nan),
        ("snr_db", [10.0, -math.inf]), ("sv", {"angle_spread_deg": math.inf}),
        # an empty axis, and a list for a key that is not an axis
        *[(key, []) for key in SWEEPABLE if key != "snr_db"],
        ("seed", [1, 2]), ("num_channels", [1, 2]), ("b_total", [8, 9]),
        ("sv", [{"num_clusters": 2}]), ("sim_se", [True, False]),
    ])
    def test_invalid_value_names_key(self, tmp_path, key, value):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f"invalid value for '{key}'"):
            parse_config(path)

    def test_missing_required(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"Nt": 4, "Nr": 4}))
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_unknown_scheme(self, tmp_path):
        path = write_config(tmp_path, schemes=["ZF"])
        with pytest.raises(ConfigError, match="unknown schemes"):
            parse_config(path)

    def test_unknown_sv_key(self, tmp_path):
        path = write_config(tmp_path, sv={"clusters": 3})
        with pytest.raises(ConfigError, match="unknown sv keys"):
            parse_config(path)

    def test_ns_feasibility(self, tmp_path):
        path = write_config(tmp_path, Ns=8)
        with pytest.raises(ConfigError, match="ns"):
            parse_config(path)

    @pytest.mark.parametrize("overrides, args, key", [
        ({"varsigma": 1.5}, [], "varsigma"),
        ({"Pt": -1}, [], "Pt"),
        ({"Ns": 0}, [], "Ns"),
        ({"num_channels": 0}, [], "num_channels"),
        ({}, ["--channels", "0"], "num_channels"),
        ({"varsigma": 0.0}, [], "varsigma"),
        ({"num_qd_samples": 0, "sim_se": True}, [], "num_qd_samples"),
        ({"num_qd_samples": -5, "sim_se": True}, [], "num_qd_samples"),
        ({"max_iter": 0}, [], "max_iter"),
        ({"scoring_max_iter": 0}, [], "scoring_max_iter"),
        ({"I2": -1}, [], "I2"),
        ({"eps": -1}, [], "eps"),
        ({"seed": -1}, [], "seed"),
        ({}, ["--seed", "-1"], "seed"),
    ])
    def test_out_of_range_names_key(self, tmp_path, capsys, overrides, args, key):
        path = write_config(tmp_path, **overrides)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out"), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err


class TestSweepAxes:
    def run(self, tmp_path, **overrides):
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, **overrides)), "--output-dir", str(out)]) == 0
        doc = json.loads((out / "results.json").read_text())
        with open(out / "results.csv") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        return doc, ",".join(reader.fieldnames), rows

    def test_extra_axis_nests_in_key_order(self, tmp_path, capsys):
        doc, header, rows = self.run(tmp_path, Nt=8, Nr=8, Ns=[2, 4], b=[2, 3], snr_db=20,
                                     num_channels=1)
        assert header == "Ns,snr_db,b," + FIXED_HEADER
        assert [(r["Ns"], r["snr_db"], r["b"]) for r in rows] == [
            ("2", "20", "2"), ("2", "20", "3"), ("4", "20", "2"), ("4", "20", "3")]
        assert [list(p["axes"]) for p in doc["points"]] == [["Ns", "snr_db", "b"]] * 4
        assert [p["config"]["ns"] for p in doc["points"]] == [int(r["Ns"]) for r in rows]
        assert [p["config"]["b"] for p in doc["points"]] == [int(r["b"]) for r in rows]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "[1/4] Ns=2 snr_db=20 b=2"

    def test_default_layout_is_pinned(self, tmp_path):
        doc, header, _ = self.run(tmp_path, snr_db=[0, 10], b=[1, 2])
        assert header == "snr_db,b," + FIXED_HEADER
        assert all(list(p["axes"]) == ["snr_db", "b"] for p in doc["points"])

    def test_json_key_order_does_not_change_output(self, tmp_path):
        ordered = {"snr_db": [0, 10], "b": [2, 1], "Ns": [1, 2]}
        runs = []
        for name, keys in (("a", ["snr_db", "b", "Ns"]), ("b", ["b", "Ns", "snr_db"])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"Nt": 4, "Nr": 4, **{k: ordered[k] for k in keys},
                                        "schemes": ["WF"], "num_channels": 1}))
            out = tmp_path / name
            assert main(["run", str(path), "--output-dir", str(out)]) == 0
            runs.append(out)
        for name in ("results.csv", "results.json"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
        axes = [p["axes"] for p in json.loads((runs[0] / "results.json").read_text())["points"]]
        assert axes[:3] == [{"Ns": 1, "snr_db": 0.0, "b": 2}, {"Ns": 1, "snr_db": 0.0, "b": 1},
                            {"Ns": 1, "snr_db": 10.0, "b": 2}]

    @pytest.mark.parametrize("key", SWEEPABLE)
    def test_every_sweepable_key_is_an_axis(self, tmp_path, key):
        cfg = parse_config(write_config(tmp_path, **{key: SWEEPABLE[key]}))
        assert cfg.axes[key] == tuple(SWEEPABLE[key])
        field = cli._KEYS[key][0]
        assert [getattr(point, field) for _, point in cfg.points()] == SWEEPABLE[key]

    def test_infeasible_point_on_new_axis_names_all_axes(self, tmp_path):
        path = write_config(tmp_path, Nt=8, Nr=8, Ns=[2, 9])
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "infeasible point {'Ns': 9, 'snr_db': 10.0, 'b': 1}" in str(err.value)


class TestRunSweep:
    def test_single_point_csv(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        status = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "out")))
        assert status == 0
        with open(tmp_path / "out" / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["scheme"] == "WF"
        assert float(rows[0]["mean_se_apx"]) > 0

    def test_rerun_identical_files(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, snr_db=[0, 20]))
        run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "a")))
        run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "b")))
        for name in ("results.csv", "results.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_oracle_size_guard_fails_the_point(self, tmp_path, capsys):
        # run_sweep has no config check of its own: the refusal is not a channel failure
        base = PointConfig(nt=8, nr=8, ns=2, b=2, b_max=8)
        config = ExperimentConfig(base=base, axes={"snr_db": (10.0,), "b": (2,)},
                                  schemes=("ES",), num_channels=2)
        assert run_sweep(dataclasses.replace(config, output_dir=str(tmp_path))) == 1
        assert "size guard" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    def test_interrupted_run_keeps_completed_points(self, tmp_path, monkeypatch):
        import qmimo.evaluation as ev

        real = ev.run_experiment
        calls = {"n": 0}

        def failing(config, schemes, num_channels, seed):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("synthetic point failure")
            return real(config, schemes, num_channels, seed)

        monkeypatch.setattr(cli.evaluation, "run_experiment", failing)
        cfg = parse_config(write_config(tmp_path, snr_db=[0, 10, 20]))
        status = run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "out")))
        assert status == 1
        with open(tmp_path / "out" / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1  # first point survived on disk


class TestWriteResults:
    def test_empty_csv_is_header_only(self, tmp_path):
        # no records name no axes: the header is the fixed columns alone
        path = tmp_path / "empty.csv"
        write_results([], "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines == [FIXED_HEADER]

    def test_json_round_trip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "out")))
        doc = json.loads((tmp_path / "out" / "results.json").read_text())
        point = doc["points"][0]
        se = point["schemes"]["WF"]["se_apx_per_channel"]
        assert len(se) == 2
        assert point["schemes"]["WF"]["mean_se_apx"] == pytest.approx(np.mean(se), rel=1e-15)
        # floats round-trip bit-exactly through the JSON layer
        rewritten = json.loads(json.dumps(doc))
        assert rewritten == doc

    def test_csv_floats_round_trip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "out")))
        doc = json.loads((tmp_path / "out" / "results.json").read_text())
        with open(tmp_path / "out" / "results.csv") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["mean_se_apx"]) == doc["points"][0]["schemes"]["WF"]["mean_se_apx"]

    def read_outputs(self, out):
        doc = json.loads((out / "results.json").read_text())
        with open(out / "results.csv") as fh:
            return doc, next(csv.DictReader(fh))

    def test_sim_se_off_is_null_and_empty(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "out")))
        doc, row = self.read_outputs(tmp_path / "out")
        point = doc["points"][0]
        assert list(point) == ["axes", "seed", "num_channels", "config", "schemes"]
        wf = point["schemes"]["WF"]
        assert list(wf) == JSON_SCHEME_KEYS
        for key in ("mean_se_sim", "stderr_se_sim", "se_sim_per_channel"):
            assert wf[key] is None, key
        assert row["mean_se_sim"] == row["stderr_se_sim"] == ""
        assert row["mean_se_apx"] != ""

    def test_all_channels_failed_is_nan_and_empty(self, tmp_path, monkeypatch):
        def failing(H, pt, sigma_n2, ns):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(cli.evaluation.beamforming, "waterfilling_baseline", failing)
        cfg = parse_config(write_config(tmp_path, sim_se=True))
        with pytest.warns(RuntimeWarning, match="failed on channel"):
            assert run_sweep(dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))) == 0
        doc, row = self.read_outputs(tmp_path / "out")
        wf = doc["points"][0]["schemes"]["WF"]
        assert list(wf) == JSON_SCHEME_KEYS
        for key in JSON_SCHEME_KEYS[:7]:
            assert wf[key] is None, key
            assert row[key] == "", key
        for key in ("se_apx_per_channel", "se_sim_per_channel", "ee_per_channel", "allocations"):
            assert wf[key] == [], key
        assert wf["failures"] == cfg.num_channels == 2
        assert wf["failed_channels"] == [0, 1]

    def test_one_channel_run_is_strict_json(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path)), "--output-dir", str(out),
                     "--channels", "1"]) == 0
        doc = json.loads((out / "results.json").read_text(), parse_constant=reject_constant)
        wf = doc["points"][0]["schemes"]["WF"]
        assert wf["stderr_se_apx"] is None
        assert wf["mean_se_apx"] == wf["se_apx_per_channel"][0]

    def test_non_finite_value_is_refused(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        [(axes, point)] = cfg.points()
        result = cli.evaluation.run_experiment(point, ("WF",), 1, 0)
        result.outcomes["WF"].se_apx[0] = np.nan
        with pytest.raises(ValueError, match="JSON"):
            write_results([(axes, result)], "json", tmp_path / "bad.json")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            write_results([], "yaml", "out.yaml")


class TestMain:
    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, schemes=["ZF"])
        assert main(["run", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_successful_run(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 0
        assert (out / "results.csv").exists()
        assert (out / "results.json").exists()

    def test_channel_and_seed_overrides(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out),
                     "--channels", "1", "--seed", "99"]) == 0
        doc = json.loads((out / "results.json").read_text())
        assert doc["points"][0]["num_channels"] == 1
        assert doc["points"][0]["seed"] == 99

    def test_dump_quantizers(self, tmp_path):
        path = write_config(tmp_path, b=[1, 2])
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out),
                     "--channels", "1", "--dump-quantizers"]) == 0
        doc = json.loads((out / "quantizers.json").read_text(),
                         parse_constant=reject_constant)
        assert set(doc) == {"1", "2"}
        assert set(doc["1"]) == {"bits", "thresholds", "codebook", "gamma"}
        assert doc["1"]["codebook"] == pytest.approx([-0.7978845608, 0.7978845608])
        assert doc["1"]["gamma"] == pytest.approx(1 - 2 / np.pi)
        # the 2**b - 1 finite decision levels; the outer cells are open-ended
        assert doc["1"]["thresholds"] == [0.0]
        assert doc["2"]["thresholds"] == pytest.approx([-0.9815988, 0.0, 0.9815988], abs=1e-7)

    def test_dump_quantizers_failure_is_run_error(self, tmp_path, monkeypatch, capsys):
        def unwritable(*args):
            raise OSError("synthetic: read-only file system")

        monkeypatch.setattr(cli, "_dump_quantizers", unwritable)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path)), "--output-dir", str(out),
                     "--dump-quantizers"]) == 1
        err = capsys.readouterr().err
        assert "run error:" in err
        assert "OSError: synthetic" in err

    def test_oracle_guard(self, tmp_path, capsys):
        path = write_config(tmp_path, Nt=32, Nr=32, Ns=2, b_max=8)
        assert main(["run", str(path), "--oracle"]) == 2
        assert "oracle" in capsys.readouterr().err

    def test_oracle_adds_es_rows(self, tmp_path):
        path = write_config(
            tmp_path, Nt=4, Nr=3, Ns=2, b=2, b_max=3,
            schemes=["GPOS"], num_channels=1,
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out), "--oracle"]) == 0
        with open(out / "results.csv") as fh:
            schemes = {row["scheme"] for row in csv.DictReader(fh)}
        assert schemes == {"GPOS", "ES"}

    def test_oracle_row_has_no_simulated_se(self, tmp_path):
        path = write_config(tmp_path, Nt=4, Nr=3, Ns=2, b=2, b_max=3, schemes=["GPOS"],
                            sim_se=True, num_qd_samples=10**4)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out), "--oracle"]) == 0
        schemes = json.loads((out / "results.json").read_text())["points"][0]["schemes"]
        assert schemes["ES"]["se_sim_per_channel"] is None
        assert len(schemes["GPOS"]["se_sim_per_channel"]) == 2
        with open(out / "results.csv") as fh:
            rows = {row["scheme"]: row for row in csv.DictReader(fh)}
        assert rows["ES"]["mean_se_sim"] == rows["ES"]["stderr_se_sim"] == ""
        assert rows["GPOS"]["mean_se_sim"] != "" and rows["GPOS"]["stderr_se_sim"] != ""

    @pytest.mark.parametrize("max_iter, capped", [(2, 3), (500, 0)])
    def test_capped_solves_counted_in_json_only(self, tmp_path, max_iter, capped):
        # two iterations reach eps on none of these channels, 500 on all of them
        path = write_config(tmp_path, Nt=8, Nr=4, Ns=2, b=2, b_max=3, max_iter=max_iter,
                            schemes=["WF", "AltMinBF", "GPOS", "FullPrecision"],
                            num_channels=3)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out), "--oracle"]) == 0
        schemes = json.loads((out / "results.json").read_text())["points"][0]["schemes"]
        assert {name: s["altmin_unconverged"] for name, s in schemes.items()} == {
            "WF": 0, "AltMinBF": capped, "GPOS": capped, "FullPrecision": 0, "ES": None}
        with open(out / "results.csv") as fh:
            assert fh.readline().strip() == "snr_db,b," + FIXED_HEADER

    def test_empty_schemes_without_oracle(self, tmp_path, capsys):
        path = write_config(tmp_path, schemes=[])
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out)]) == 2
        assert "schemes" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_oracle_only_run(self, tmp_path):
        path = write_config(
            tmp_path, Nt=4, Nr=3, Ns=2, b=2, b_max=3, schemes=[], num_channels=1,
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out), "--oracle"]) == 0
        with open(out / "results.csv") as fh:
            schemes = [row["scheme"] for row in csv.DictReader(fh)]
        assert schemes == ["ES"]

    def oracle_only_config(self, tmp_path):
        # ES only, 2 points x 3 channels
        return write_config(tmp_path, Nt=8, Nr=3, Ns=2, b=2, b_max=3, schemes=[],
                            snr_db=[0.0, 10.0], num_channels=3)

    def test_oracle_channel_failure_recorded(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        original = cli.evaluation.bitalloc.exhaustive_search

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise np.linalg.LinAlgError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.evaluation.bitalloc, "exhaustive_search", flaky)
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="scheme ES failed on channel 1"):
            status = main(["run", str(self.oracle_only_config(tmp_path)),
                           "--output-dir", str(out), "--oracle"])
        assert status == 0
        points = json.loads((out / "results.json").read_text())["points"]
        es = [p["schemes"]["ES"] for p in points]
        assert [e["failures"] for e in es] == [1, 0]
        assert [e["failed_channels"] for e in es] == [[1], []]
        assert [len(e["allocations"]) for e in es] == [2, 3]
        assert len(es[0]["se_apx_per_channel"]) == 2

    def test_oracle_infeasible_budget_is_config_error(self, tmp_path, capsys):
        # a budget below Nr is a config fault, not a numerical channel failure
        path = write_config(tmp_path, Nt=8, Nr=3, Ns=2, b=2, b_max=3, schemes=[],
                            b_total=2)
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out), "--oracle"]) == 2
        assert "budget 2 < Nr=3" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_oracle_only_run_draws_each_channel_once(self, tmp_path, monkeypatch):
        draws = {"n": 0}
        original = cli.channel.saleh_valenzuela

        def counted(*args, **kwargs):
            draws["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.channel, "saleh_valenzuela", counted)
        out = tmp_path / "out"
        assert main(["run", str(self.oracle_only_config(tmp_path)),
                     "--output-dir", str(out), "--oracle"]) == 0
        assert draws["n"] == 6

    def test_oracle_run_draws_each_channel_once(self, tmp_path, monkeypatch):
        # ES runs in the channel pass of the other schemes: 2 points x 3 channels
        draws = {"n": 0}
        original = cli.channel.saleh_valenzuela

        def counted(*args, **kwargs):
            draws["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.channel, "saleh_valenzuela", counted)
        path = write_config(tmp_path, Nt=8, Nr=3, Ns=2, b=2, b_max=3, snr_db=[0.0, 10.0],
                            schemes=["WF", "AltMinBF", "GPOS"], num_channels=3)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out"), "--oracle"]) == 0
        assert draws["n"] == 6

    @pytest.mark.parametrize("schemes", [["ES", "WF", "GPOS"], ["WF", "ES", "GPOS"],
                                         ["WF", "GPOS", "ES"]])
    def test_es_in_schemes_equals_oracle(self, tmp_path, schemes):
        def run(name, config_schemes, *flags):
            path = write_config(tmp_path / name, Nt=8, Nr=3, Ns=2, b=2, b_max=3,
                                snr_db=[0.0, 20.0], schemes=config_schemes, num_channels=2)
            assert main(["run", str(path), "--output-dir", str(tmp_path / name / "out"),
                         *flags]) == 0
            return [(tmp_path / name / "out" / f).read_bytes()
                    for f in ("results.csv", "results.json")]

        (tmp_path / "listed").mkdir()
        (tmp_path / "flag").mkdir()
        listed = run("listed", schemes)
        assert listed == run("flag", ["WF", "GPOS"], "--oracle")
        rows = list(csv.DictReader(listed[0].decode().splitlines()))
        assert [r["scheme"] for r in rows] == ["WF", "GPOS", "ES"] * 2

    def test_es_in_schemes_and_oracle_is_duplicate(self, tmp_path, capsys):
        path = write_config(tmp_path, Nt=8, Nr=3, Ns=2, b=2, b_max=3, schemes=["ES"])
        out = tmp_path / "out"
        assert main(["run", str(path), "--output-dir", str(out), "--oracle"]) == 2
        assert "duplicate scheme name" in capsys.readouterr().err
        assert not out.exists()

    def test_run_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(cli, "run_sweep", boom)
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "RuntimeError: synthetic" in err
        assert "Traceback" in err

    def test_point_error_reports_type_and_traceback(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(cli.evaluation, "run_experiment", broken)
        path = write_config(tmp_path)
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "TypeError: synthetic bug" in err
        assert "Traceback" in err
