"""Golden outputs: two pinned sweeps must reproduce the stored results.

``tests/data/golden.json`` holds the per-channel SE, the allocations and
the mean AltMin iteration counts of two ``run_sweep`` configurations, as
written by the code before the eigen-domain precoder update. A change may
reorder floating-point operations, so SE is compared at rtol 1e-9;
allocations and iteration counts must match exactly.

Regenerate the file (only when a result change is intended and explained)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from qmimo.cli import parse_config, run_sweep

GOLDEN_PATH = Path(__file__).parent / "data" / "golden.json"
SE_RTOL = 1e-9

CONFIGS = {
    # the criterion-11 determinism config
    "criterion11-8x4": {
        "Nt": 8, "Nr": 4, "Ns": 2, "snr_db": [10.0, 20.0], "b": 2, "b_max": 3,
        "schemes": ["WF", "AltMinBF", "GPOS"], "num_channels": 3, "seed": 11,
        "sim_se": True, "num_qd_samples": 10**4,
    },
    # one-bit 16x16 point; a budget of Nr bits leaves GPOS a single allocation
    "onebit-16x16": {
        "Nt": 16, "Nr": 16, "Ns": 4, "snr_db": 30.0, "b": 1,
        "schemes": ["WF", "AltMinBF", "GPOS"], "num_channels": 2, "seed": 5,
        "sim_se": True, "num_qd_samples": 10**4,
    },
}

PINNED_FIELDS = ("se_apx_per_channel", "se_sim_per_channel", "allocations",
                 "mean_iterations")


def run_config(doc: dict, tmp_dir: Path) -> list[dict]:
    """Run one config through ``run_sweep`` and keep the pinned fields."""
    cfg_path = tmp_dir / "config.json"
    cfg_path.write_text(json.dumps(doc))
    status = run_sweep(dataclasses.replace(parse_config(cfg_path), output_dir=str(tmp_dir / "out")))
    assert status == 0
    points = json.loads((tmp_dir / "out" / "results.json").read_text())["points"]
    return [
        {
            "axes": p["axes"],
            "schemes": {
                name: {k: out[k] for k in PINNED_FIELDS}
                for name, out in p["schemes"].items()
            },
        }
        for p in points
    ]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden(name, tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text())[name]
    got = run_config(CONFIGS[name], tmp_path)
    assert [p["axes"] for p in got] == [p["axes"] for p in expected]
    for p_got, p_exp in zip(got, expected):
        assert p_got["schemes"].keys() == p_exp["schemes"].keys()
        for scheme, exp in p_exp["schemes"].items():
            out = p_got["schemes"][scheme]
            where = f"{name} {p_exp['axes']} {scheme}"
            np.testing.assert_allclose(out["se_apx_per_channel"],
                                       exp["se_apx_per_channel"],
                                       rtol=SE_RTOL, atol=0, err_msg=where)
            np.testing.assert_allclose(out["se_sim_per_channel"],
                                       exp["se_sim_per_channel"],
                                       rtol=SE_RTOL, atol=0, err_msg=where)
            assert out["allocations"] == exp["allocations"], where
            assert out["mean_iterations"] == exp["mean_iterations"], where


if __name__ == "__main__":
    import tempfile

    golden = {}
    for name, doc in sorted(CONFIGS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            golden[name] = run_config(doc, Path(tmp))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
