"""Check that two qmimo source trees write the same files.

Usage: ``python3 tools/same_outputs.py OLD_SRC NEW_SRC``, where each
argument is a directory holding the ``qmimo`` package (a checkout's
``src``). Every config of :func:`cases` runs through ``qmimo run`` once
with each tree, in a subprocess with one BLAS thread, and ``results.csv``,
``results.json``, ``quantizers.json``, stdout, stderr and the exit status
are compared byte for byte. Exits 0 if all agree and 1 otherwise, naming
each output that differs; a run that fails with both trees counts as a
difference in its status, since it compares nothing.

The configs are the two golden configs of ``tests/test_golden.py``, four
sweeps defined here, and point 0 of each workload in
``perfbench/workloads.py`` at seed 0; both files are read, never edited.
Standard library only: nothing of qmimo is imported into this process.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = ("results.csv", "results.json", "quantizers.json")
# paths inside each case's working directory
CONFIG, OUT = "config.json", "out"


def run_args(*extra: str) -> list[str]:
    """``qmimo run`` arguments for a case's config and output directory."""
    return ["run", CONFIG, "--output-dir", OUT, *extra]


def _golden_configs() -> dict[str, dict]:
    """The ``CONFIGS`` literal of ``tests/test_golden.py``, evaluated without builtins."""
    source = (ROOT / "tests" / "test_golden.py").read_text()
    for node in ast.parse(source).body:
        if [getattr(t, "id", None) for t in getattr(node, "targets", ())] == ["CONFIGS"]:
            code = compile(ast.Expression(node.value), "test_golden.py", "eval")
            return eval(code, {"__builtins__": {}})
    raise LookupError("tests/test_golden.py defines no CONFIGS")


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def cases() -> dict[str, tuple[dict, list[str]]]:
    """Case name -> (config, ``qmimo run`` arguments)."""
    out = {f"golden-{name}": (doc, run_args()) for name, doc in _golden_configs().items()}
    out["oracle-8x4-sweep"] = (
        {"Nt": 8, "Nr": 4, "Ns": 2, "snr_db": [-10, 0, 10, 20], "b": [2, 3], "b_max": 3,
         "schemes": ["WF", "AltMinBF", "GPOS", "FullPrecision"], "sim_se": True,
         "num_qd_samples": 10**4, "num_channels": 3},
        run_args("--oracle", "--dump-quantizers"),
    )
    out["streams-16x16"] = (
        {"Nt": 16, "Nr": 16, "Ns": [2, 4], "snr_db": 20, "b": [1, 3], "b_max": 4,
         "schemes": ["GPOS", "AltMinBF"], "num_channels": 1},
        run_args(),
    )
    # GPOS final solves that start afresh (scoring_max_iter > max_iter) and that
    # continue the greedy allocation's scoring solve (I2 = 0)
    out["gpos-continuation-8x4"] = (
        {"Nt": 8, "Nr": 4, "Ns": 2, "snr_db": [0, 20], "b": 2, "b_max": 3, "I2": [0, 15],
         "max_iter": [20, 500], "scoring_max_iter": 40, "schemes": ["GPOS"], "num_channels": 3},
        run_args(),
    )
    # ES continuing AltMinBF solves capped at max_iter, scoring solves longer
    # than max_iter, and GPOS final solves
    out["oracle-continuation-8x4"] = (
        {"Nt": 8, "Nr": 4, "Ns": 2, "snr_db": [0, 10, 20, 30], "b": 2, "b_max": 3,
         "I2": [0, 15], "max_iter": [20, 500], "scoring_max_iter": 40,
         "schemes": ["WF", "AltMinBF", "GPOS"], "num_channels": 3},
        run_args("--oracle"),
    )
    for w in _workloads().values():
        out[f"workload-{w.name}"] = (w.point_config(0), w.cli_args(CONFIG, OUT, w.chunk_seed(0, 0)))
    return out


def _run(src: Path, config: dict, args: list[str], work: Path) -> dict[str, bytes]:
    """The outputs of one ``qmimo run`` from ``src`` in the directory ``work``."""
    work.mkdir(parents=True)
    (work / CONFIG).write_text(json.dumps(config, indent=1))
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    entry = "import sys; from qmimo.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", entry, *args],
        cwd=work, env={**os.environ, **threads, "PYTHONPATH": str(src)}, capture_output=True,
    )
    outputs = {name: (work / OUT / name).read_bytes()
               for name in FILES if (work / OUT / name).is_file()}
    # warnings name the source file: the tree's location is not an output
    outputs.update(stdout=proc.stdout, stderr=proc.stderr.replace(str(src).encode(), b"SRC"),
                   status=str(proc.returncode).encode())
    return outputs


def compare(old_src, new_src, runs: dict[str, tuple[dict, list[str]]]) -> list[str]:
    """``case/output`` names that differ between the two trees, in case order."""
    old_src, new_src = Path(old_src).resolve(), Path(new_src).resolve()
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, args) in runs.items():
            old = _run(old_src, config, args, Path(tmp) / "old" / name)
            new = _run(new_src, config, args, Path(tmp) / "new" / name)
            differ += [f"{name}/{key}" for key in sorted(old.keys() | new.keys())
                       if old.get(key) != new.get(key)]
            if old["status"] == new["status"] != b"0":  # failed on both sides: nothing compared
                differ.append(f"{name}/status")
    return differ


def main(argv=None) -> int:
    argv = sys.argv if argv is None else argv
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    runs = cases()
    differ = compare(argv[1], argv[2], runs)
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(runs)} configs, {len(differ)} differing outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
