"""Every public name resolves: module ``__all__`` lists and the package re-exports."""

import ast
import importlib
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


def test_import_leaves_out_scipy_stats():
    # scipy.stats takes about half a second to import; the package needs
    # only scipy.special's ndtr/ndtri
    script = "import sys, qmimo; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(qmimo.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
