"""The benchmark tracer binds qmimo functions by name; deleting one breaks ``--trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_against_src():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    script = (
        "import qmimo, tracer\n"
        f"assert qmimo.__file__.startswith({str(ROOT / 'src')!r}), qmimo.__file__\n"
        "tracer.Tracer().install()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
