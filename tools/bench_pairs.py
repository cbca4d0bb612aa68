"""Paired benchmark runs of two checkouts, summarised as in the ``BENCH_*.json`` files.

Usage::

    python3 tools/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT --workload W \\
        --seeds A-B [--claim METRIC] [--out FILE]

For each seed from A to B, ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` runs once in each checkout, one after the other:
odd seeds run the parent first, even seeds the change. T is
``run_seconds`` of the change's ``BENCHMARK.json``. Each run's
``result.json`` becomes one record of ``runs``; :func:`summarize` turns
the records into the ``summary`` block (per workload and end-to-end
metric: each side's median, q1, q3 and n, the pairs the change wins, the
median ratio and difference, the parent's quartile spread and whether
the change stays within ``BENCHMARK.json``'s bound) and, for each
``--claim``, the ``claim`` block. A claim is met when the change wins at
least nine of every ten pairs and its median beats the parent's by more
than the parent's quartile spread.

``--out`` (default ``BENCH.json``) is updated, not replaced: its other
keys and its runs of other workloads or seeds are kept, and the summary
is taken over all of its runs. Standard library only: nothing of qmimo
is imported, and nothing under ``perfbench/`` is written except the runs'
own output directories.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RECORD_KEYS = ("reference_checked", "exit_status", "attempted", "failed",
               "results_csv_sha256", "end_to_end")


def seed_range(text: str) -> list[int]:
    """The seeds of ``"A-B"`` (both included) or of a single ``"A"``."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run in ``checkout``: its record for ``runs``."""
    out = checkout / "perfbench" / "out" / workload / f"seed{seed}-trace0" / "result.json"
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    record = {"workload": workload, "seed": seed, "returncode": proc.returncode}
    if proc.returncode == 0 and out.is_file():
        result = json.loads(out.read_text())
        record.update((key, result[key]) for key in RECORD_KEYS)
    else:
        record["stderr_tail"] = proc.stderr[-2000:]
    return record


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "n": len(values)}


def _compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's block over paired values, ``parent[i]`` and ``change[i]`` of one seed."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = _quartiles(parent), _quartiles(change)
    ratio = c["median"] / p["median"] if p["median"] else 1.0
    return {
        "parent": p,
        "change": c,
        "pairs_change_better": sum(sign * (y - x) > 0 for x, y in zip(parent, change)),
        "median_ratio": round(ratio, 4),
        "parent_quartile_spread": round(p["q3"] - p["q1"], 6),
        "median_difference": round(c["median"] - p["median"], 6),
        "within_bound": sign * (ratio - 1.0) >= -bound,
    }


def summarize(runs: list[dict], metrics: list[dict],
              claims: list[tuple[str, str]] = ()) -> tuple[dict, dict]:
    """``(summary, claim)`` of the records ``runs``.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries (name,
    ``better``, ``bound``); ``claims`` are ``(workload, metric)`` pairs. A
    seed counts as a pair when both sides have a completed run of it.
    """
    summary, claim = {}, {}
    for workload in sorted({r["workload"] for r in runs}):
        done = {(r["seed"], r["side"]): r for r in runs
                if r["workload"] == workload and "end_to_end" in r}
        seeds = sorted(s for s in {s for s, _ in done} if all((s, side) in done for side in SIDES))
        block = {"seeds": seeds,
                 "results_csv_identical_pairs": sum(
                     done[s, "parent"]["results_csv_sha256"] == done[s, "change"]["results_csv_sha256"]
                     for s in seeds)}
        for m in metrics if seeds else ():
            block[m["name"]] = _compare(*([done[s, side]["end_to_end"][m["name"]] for s in seeds]
                                          for side in SIDES), m["better"], m["bound"])
        summary[workload] = block
    for workload, name in claims:
        m = summary.get(workload, {}).get(name)
        if m is None:
            claim[f"{workload} {name}"] = {"pairs": 0, "met": False}
            continue
        spread, difference = m["parent_quartile_spread"], m["median_difference"]
        better = next(x["better"] for x in metrics if x["name"] == name)
        gain = difference if better == "higher" else -difference
        n = len(summary[workload]["seeds"])
        claim[f"{workload} {name}"] = {
            "pairs_change_better": m["pairs_change_better"], "pairs": n,
            "median_ratio": m["median_ratio"], "parent_quartile_spread": spread,
            "median_difference": difference, "parent_median": m["parent"]["median"],
            "change_median": m["change"]["median"],
            "met": n > 0 and 10 * m["pairs_change_better"] >= 9 * n and gain > spread,
        }
    return summary, claim


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_range)
    p.add_argument("--claim", action="append", default=[], metavar="METRIC")
    p.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = p.parse_args(argv[1:])
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc.setdefault("command", "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {bench['run_seconds']} --trace 0")
    runs = [r for r in doc.get("runs", [])
            if (r["workload"], r["seed"]) not in {(args.workload, s) for s in args.seeds}]
    for seed in args.seeds:
        for side in (SIDES if seed % 2 else SIDES[::-1]):
            record = run(checkouts[side], args.workload, seed, bench["run_seconds"])
            runs.append({**record, "side": side})
            e2e = record.get("end_to_end") or {}
            print(f"{args.workload} seed {seed} {side}: "
                  + (", ".join(f"{k} {v:.6g}" for k, v in e2e.items()) or
                     f"failed ({record['returncode']})"), flush=True)
            doc["runs"] = runs
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    summary, claim = summarize(runs, bench["end_to_end"],
                               [(args.workload, name) for name in args.claim])
    claim = {**doc.pop("claim", {}), **claim}
    doc = {**{k: v for k, v in doc.items() if k not in ("summary", "runs")},
           "claim": claim, "summary": summary, "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for key, c in claim.items():
        if not isinstance(c, dict) or "median_difference" not in c:
            continue
        print(f"claim {key}: {'met' if c['met'] else 'not met'} ({c['pairs_change_better']} of "
              f"{c['pairs']} pairs, median difference {c['median_difference']:.6g} against "
              f"the parent's quartile spread {c['parent_quartile_spread']:.6g})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
