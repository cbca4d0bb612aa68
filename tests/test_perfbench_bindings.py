"""The benchmark tracer binds qmimo functions by name; deleting one breaks ``--trace 1``."""

import json
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
        "H = channel.saleh_valenzuela(4, 4, seed=0)\n"
        "beamforming.altmin_beamforming(H, [2] * 4, 1.0, 0.1, 2, max_iter=3)\n"
        "recorded = {span[0] for span in t.spans}\n"
        "need = {'beamforming.update_combiner', 'beamforming.update_weight',\n"
        "        'beamforming.update_precoder', 'beamforming.spectral_efficiency',\n"
        "        'bussgang.effective_noise_cov'}\n"
        "assert need <= recorded, sorted(need - recorded)\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_altmin_layer_span_counts():
    # the per-layer table divides by these counts: the receive side runs once
    # per iteration plus once at the final precoder, the precoder once per iteration
    proc = run_with_tracer(
        "from collections import Counter\n"
        "from qmimo import beamforming, channel\n"
        "H = channel.saleh_valenzuela(8, 4, seed=0)\n"
        "for max_iter in (500, 3):\n"
        "    start = len(t.spans)\n"
        "    _, rep = beamforming.altmin_beamforming(H, [2] * 4, 1.0, 0.01, 2, max_iter=max_iter)\n"
        "    assert rep.converged if max_iter == 500 else rep.iterations == 3, rep\n"
        "    n = Counter(span[0] for span in t.spans[start:])\n"
        "    k = rep.iterations\n"
        "    for name in ('bussgang.effective_noise_cov', 'beamforming.update_weight',\n"
        "                 'beamforming.update_combiner'):\n"
        "        assert n[name] == k + 1, (name, n[name], k)\n"
        "    assert n['beamforming.update_precoder'] == k, (n['beamforming.update_precoder'], k)\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_allocation_solves_are_children_of_their_search():
    # the tracer counts exhaustive_solves and scoring_s from the AltMin spans
    # whose parent is the search span; a traced scorer in between, or a solve
    # outside the search, would zero those counters without failing; the
    # oracle's SE ceiling may skip some of its allocations, never all
    proc = run_with_tracer(
        "from qmimo import bitalloc, channel\n"
        "H = channel.saleh_valenzuela(8, 4, seed=0)\n"
        "kw = dict(pt=1.0, sigma_n2=0.01, ns=2, b_max=3, budget=8)\n"
        "bitalloc.exhaustive_search(H, **kw)\n"
        "res = bitalloc.gpos_bfba(H, **kw)\n"
        "name = {i: span[0] for i, span in enumerate(t.spans)}\n"
        "parents = [name.get(s[3]) for s in t.spans if s[0] == 'beamforming.altmin_beamforming']\n"
        "assert 1 <= parents.count('bitalloc.exhaustive_search') <= "
        "len(bitalloc.enumerate_allocations(4, 3, 8)), parents\n"
        "assert parents.count('bitalloc.gpos_bfba') == len(res.scored_allocations) + 1, parents\n"
        "assert len(parents) == parents.count('bitalloc.exhaustive_search') "
        "+ parents.count('bitalloc.gpos_bfba'), parents\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_oracle_row_shares_the_point_channel_ids(tmp_path):
    # the tracer gives a point's oracle row the channel ids of its other
    # schemes; an oracle loop entered through the traced run_experiment
    # would open a second point and split one channel evaluation in two
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"Nt": 8, "Nr": 4, "Ns": 2, "snr_db": 10, "b": 2,
                                  "b_max": 3, "schemes": ["GPOS"]}))
    args = ["run", str(config), "--output-dir", str(tmp_path / "out"),
            "--channels", "2", "--oracle"]
    proc = run_with_tracer(
        "from collections import Counter\n"
        "from qmimo import cli\n"
        f"assert cli.main({args!r}) == 0\n"
        "n = Counter(span[0] for span in t.spans)\n"
        "assert n['evaluation.run_experiment'] == 1, n\n"
        "assert n['cli.oracle_outcome'] == 1, n\n"
        "for name in ('bitalloc.exhaustive_search', 'bitalloc.gpos_bfba'):\n"
        "    ids = [span[4] for span in t.spans if span[0] == name]\n"
        "    assert ids == ['0.0', '0.1'], (name, ids)\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_quantize_spans_are_children_of_the_covariance():
    # the tracer's per-layer quantize columns count quantize_real spans; a
    # kernel that inlined the quantizer would zero them without failing.
    # Nr = 3 over two full blocks and a remainder: one call per chain and block
    proc = run_with_tracer(
        "import numpy as np\n"
        "from qmimo import bussgang\n"
        "rng = np.random.default_rng(0)\n"
        "H = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))\n"
        "F = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))\n"
        "bussgang.qd_cov_simulated(H, F, 0.1, [1, 2, 3],\n"
        "                          num_samples=2 * bussgang._MC_BLOCK + 17, seed=0)\n"
        "name = {i: span[0] for i, span in enumerate(t.spans)}\n"
        "parents = [name.get(s[3]) for s in t.spans if s[0] == 'quantizer.quantize_real']\n"
        "assert parents == ['bussgang.qd_cov_simulated'] * 9, parents\n"
    )
    assert proc.returncode == 0, proc.stderr
