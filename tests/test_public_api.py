"""Every public name resolves: module ``__all__`` lists and the package re-exports."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmimo

MODULES = ["beamforming", "bitalloc", "bussgang", "channel", "cli", "evaluation", "quantizer"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"qmimo.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_are_public():
    tree = ast.parse(Path(qmimo.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        module = importlib.import_module(f"qmimo.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert hasattr(qmimo, alias.name), alias.name


def test_run_loads_no_scipy(tmp_path):
    # the package runs on numpy alone: a Monte-Carlo SE run at b = 3 designs
    # a Lloyd-Max quantizer and forms the distortion Gram without scipy
    script = (
        "import json, sys\n"
        "import qmimo.cli\n"
        "cfg = {'Nt': 4, 'Nr': 4, 'Ns': 2, 'snr_db': 10.0, 'b': 3, 'schemes': ['WF', 'AltMinBF'],\n"
        "       'num_channels': 1, 'seed': 0, 'sim_se': True, 'num_qd_samples': 10000}\n"
        "path = sys.argv[1] + '/config.json'\n"
        "open(path, 'w').write(json.dumps(cfg))\n"
        "status = qmimo.cli.main(['run', path, '--output-dir', sys.argv[1] + '/out'])\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qmimo.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
    assert (tmp_path / "out" / "results.csv").exists()
