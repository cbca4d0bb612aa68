"""Output check of one benchmark chunk: one sweep point, one channel.

Every channel evaluation is checked against invariants of the paper's
problem: every SE is finite and >= 0; GPOS and ES allocations have one
entry per receive chain in [1, b_max] summing to the active-bit budget;
and on an oracle point ES SE >= GPOS SE on every channel (ES scores the
identical full solve at GPOS's final allocation). At the default seed the
outputs are also compared with the stored reference of the same chunk:
SE at rtol 1e-9, allocations exactly. A chunk that misses any check, or
whose point recorded a scheme failure, counts as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-9
ALLOC_SCHEMES = ("GPOS", "ES")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _budget(cfg: dict) -> int:
    b_total = cfg["nr"] * cfg["b"] if cfg["b_total"] is None else cfg["b_total"]
    return math.floor(cfg["varsigma"] * b_total)


def reference_from(doc: dict) -> dict:
    """The outputs of a one-point ``results.json`` that a reference keeps."""
    (p,) = doc["points"]
    schemes = {}
    for name, s in p["schemes"].items():
        schemes[name] = {
            "se_apx": s["se_apx_per_channel"],
            "se_sim": s["se_sim_per_channel"],
            "allocations": s["allocations"] if name in ALLOC_SCHEMES else None,
        }
    return {"axes": p["axes"], "schemes": schemes}


def load_reference(workload: str):
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def _close(a: float, r: float) -> bool:
    return a is not None and r is not None and abs(a - r) <= RTOL * abs(r)


def _channel_misses(point: dict, c: int, ref: dict | None) -> list[str]:
    cfg, schemes = point["config"], point["schemes"]
    out = []
    for name, s in schemes.items():
        for key in ("se_apx_per_channel", "se_sim_per_channel"):
            v = s[key][c] if s[key] is not None else 0.0
            if not (math.isfinite(v) and v >= 0):
                out.append(f"{name} {key} = {v}")
        if name in ALLOC_SCHEMES:
            bits = s["allocations"][c]
            if (len(bits) != cfg["nr"] or sum(bits) != _budget(cfg)
                    or not all(1 <= b <= cfg["b_max"] for b in bits)):
                out.append(f"{name} allocation {bits} infeasible")
    if "ES" in schemes and "GPOS" in schemes:
        es, gpos = schemes["ES"]["se_apx_per_channel"][c], schemes["GPOS"]["se_apx_per_channel"][c]
        if not es >= gpos:
            out.append(f"ES SE {es} < GPOS SE {gpos}")
    if ref is not None and c < len(next(iter(ref["schemes"].values()))["se_apx"]):
        for name, r in ref["schemes"].items():
            s = schemes.get(name)
            if s is None:
                out.append(f"{name} missing")
                continue
            if not _close(s["se_apx_per_channel"][c], r["se_apx"][c]):
                out.append(f"{name} se_apx differs from reference")
            if r["se_sim"] is not None and (
                    s["se_sim_per_channel"] is None
                    or not _close(s["se_sim_per_channel"][c], r["se_sim"][c])):
                out.append(f"{name} se_sim differs from reference")
            if r["allocations"] is not None and list(s["allocations"][c]) != r["allocations"][c]:
                out.append(f"{name} allocation differs from reference")
    return out


def check_chunk(results_json: Path, reference: dict | None) -> list[str]:
    """Descriptions of the checks one chunk's outputs miss; empty if it passes."""
    if not results_json.is_file():
        return ["no results.json"]
    points = json.loads(results_json.read_text())["points"]
    if len(points) != 1:
        return [f"{len(points)} points, expected 1"]
    point = points[0]
    if reference is not None and reference["axes"] != point["axes"]:
        return [f"axes {point['axes']} != reference {reference['axes']}"]
    short = [n for n, s in point["schemes"].items()
             if s["failures"] or len(s["se_apx_per_channel"]) != 1]
    if short:
        return [f"schemes {short} failed"]
    return _channel_misses(point, 0, reference)
