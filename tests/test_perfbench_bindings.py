"""The benchmark tracer binds qmimo functions by name; deleting one breaks ``--trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_with_tracer(body: str) -> subprocess.CompletedProcess:
    """Run ``body`` in a fresh interpreter after ``t = tracer.Tracer(); t.install()``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    script = (
        "import qmimo, tracer\n"
        f"assert qmimo.__file__.startswith({str(ROOT / 'src')!r}), qmimo.__file__\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
    ) + body
    return subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_tracer_installs_against_src():
    proc = run_with_tracer("")
    assert proc.returncode == 0, proc.stderr


def test_tracer_records_altmin_layer_spans():
    # an update inlined into altmin_beamforming would zero its column of the
    # per-layer table without failing the install
    proc = run_with_tracer(
        "from qmimo import beamforming, channel\n"
        "H = channel.saleh_valenzuela(4, 4, seed=0).H\n"
        "beamforming.altmin_beamforming(H, [2] * 4, 1.0, 0.1, 2, max_iter=3)\n"
        "recorded = {span[0] for span in t.spans}\n"
        "need = {'beamforming.update_combiner', 'beamforming.update_weight',\n"
        "        'beamforming.update_precoder', 'beamforming.spectral_efficiency',\n"
        "        'bussgang.effective_noise_cov'}\n"
        "assert need <= recorded, sorted(need - recorded)\n"
    )
    assert proc.returncode == 0, proc.stderr
