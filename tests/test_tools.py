"""``tools/src_lines.py``, the line split that ROADMAP and CHANGES quote, and
``tools/same_outputs.py``, the byte-identity check between two source trees."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_lines = load_tool("src_lines")
same_outputs = load_tool("same_outputs")


def test_columns_add_up(capsys):
    package = ROOT / "src" / "qmimo"
    assert src_lines.main(["src_lines.py", str(package)]) == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", *src_lines.KINDS]
    assert [row[0] for row in rows] == sorted(p.name for p in package.glob("*.py"))
    for name, *numbers in rows:
        lines, *kinds = map(int, numbers)
        assert sum(kinds) == lines == len((package / name).read_text().splitlines()), name
    assert total[0] == "total"
    assert [int(x) for x in total[1:]] == [sum(int(row[i]) for row in rows)
                                           for i in range(1, len(total))]


def copied_src(tmp_path):
    """A copy of this checkout's ``src/qmimo`` under ``tmp_path``, to mutate."""
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "qmimo", changed / "qmimo",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return changed


def test_same_outputs_names_what_a_changed_constant_moves(tmp_path, monkeypatch, capsys):
    small = {"Nt": 4, "Nr": 4, "Ns": 2, "snr_db": 10.0, "b": [1, 2],
             "schemes": ["WF"], "num_channels": 2, "seed": 3}
    monkeypatch.setattr(same_outputs, "cases",
                        lambda: {"small": (small, same_outputs.run_args("--dump-quantizers"))})
    src = ROOT / "src"
    assert same_outputs.main(["same_outputs.py", str(src), str(src)]) == 0
    assert capsys.readouterr().out == "1 configs, 0 differing outputs\n"

    changed = copied_src(tmp_path)
    module = changed / "qmimo" / "evaluation.py"
    text = module.read_text()
    assert text.count("P_LNA = 25e-3") == 1
    module.write_text(text.replace("P_LNA = 25e-3", "P_LNA = 26e-3"))
    assert same_outputs.main(["same_outputs.py", str(src), str(changed)]) == 1
    # the receiver power moves the CSV and JSON results, not the quantizers or the progress lines
    assert capsys.readouterr().out.splitlines() == [
        "differs: small/results.csv", "differs: small/results.json",
        "1 configs, 2 differing outputs"]


def test_same_outputs_sees_an_ulp_of_the_covariance(tmp_path, monkeypatch, capsys):
    # the written files round such a change away; the covariance case prints its bytes
    case = same_outputs.cases()["mc-covariance"]
    monkeypatch.setattr(same_outputs, "cases", lambda: {"mc-covariance": case})
    src = ROOT / "src"
    changed = copied_src(tmp_path)
    module = changed / "qmimo" / "bussgang.py"
    text = module.read_text()
    line = "    gram.imag = R[nr:, :nr] - R[:nr, nr:]\n"
    assert text.count(line) == 1
    module.write_text(text.replace(
        line, line + "    gram.real[0, 0] = np.nextafter(gram.real[0, 0], np.inf)\n"))
    assert same_outputs.main(["same_outputs.py", str(src), str(changed)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: mc-covariance/stdout", "1 configs, 1 differing outputs"]


def test_same_outputs_reads_its_configs():
    cases = same_outputs.cases()
    assert len(cases) == 15
    assert cases["workload-oracle-8x4"][1][-1] == "--oracle"
    assert cases["oracle-continuation-8x4"][1][-1] == "--oracle"
    assert cases["uniform-continuation-8x4"][1][-1] == "--oracle"
    # the Monte-Carlo path quantizes some chains by binary search
    from qmimo.quantizer import _COUNT_MAX_BITS

    config, _ = cases["mc-8bit-8x4"]
    assert config["sim_se"] and max(config["b"]) > _COUNT_MAX_BITS
    # at 64x64 the last block ends in a partial H F s sub-block
    from qmimo.bussgang import _HFS_BLOCK, _MC_BLOCK

    config, _ = cases["mc-64x64"]
    assert config["sim_se"] and (config["Nr"], config["Ns"]) == (64, 8)
    remainder = config["num_qd_samples"] % _MC_BLOCK
    assert remainder > _HFS_BLOCK and remainder % _HFS_BLOCK != 0
    # so do both covariance calls, at 32x32 Ns 4 and 64x64 Ns 8
    config, _ = cases["mc-covariance"]
    assert [call[:3] for call in config["calls"]] == [[32, 32, 4], [64, 64, 8]]
    for nr, *_, bits, n in config["calls"]:
        assert len(bits) == nr and n > _MC_BLOCK and n % _HFS_BLOCK != 0


def test_same_outputs_spans_the_scoring_chunks():
    # the first GPOS neighbour list of the stacks case is stacked in more than one chunk
    from qmimo import beamforming
    from qmimo.bitalloc import greedy_init, neighbor_set

    config, _ = same_outputs.cases()["gpos-stacks-16x16"]
    nr, b_max = config["Nr"], config["b_max"]
    incumbent = greedy_init(nr, b_max, nr * config["b"])
    assert len(neighbor_set(incumbent, {incumbent})) > beamforming._BATCH
