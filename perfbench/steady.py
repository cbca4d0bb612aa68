"""Steadiness check of the benchmark over several seeds.

    python3 perfbench/steady.py --workloads simse-32 oracle-8x4 --seeds 1-10

Runs ``run.py --trace 0`` once per seed and workload (with ``run_seconds``
from ``BENCHMARK.json``), then reruns the first seed and requires its
``results.csv`` sha256 to be identical (byte determinism for a fixed code
and seed). For each end-to-end metric it prints the median and the
distance between the first and third quartile as a share of the median,
against the metric's bound. The summary goes to
``perfbench/out/steady-<workloads>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} failed:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((HERE / "out" / workload / f"seed{seed}-trace0" / "result.json").read_text())
    return {"seed": seed, "correct": line["correct"], "failed": line["failed"],
            "metrics": {k: m["value"] for k, m in line["metrics"].items()},
            "csv_sha256": result["results_csv_sha256"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="benchmark steadiness check")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    args = p.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, ok = {}, True
    for workload in args.workloads:
        runs = [_run(bench, workload, s) for s in args.seeds]
        again = _run(bench, workload, args.seeds[0])
        same_bytes = again["csv_sha256"] == runs[0]["csv_sha256"]
        print(f"{workload}: {len(runs)} seeds, all correct: {all(r['correct'] for r in runs)}, "
              f"results.csv identical on rerun of seed {args.seeds[0]}: {same_bytes}")
        ok &= same_bytes and all(r["correct"] for r in runs)
        spreads = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            spreads[name] = {"median": med, "spread": spread, "bound": bound, "values": values}
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER")
            print(f"  {name:20s} median {med:12.6g}  spread {spread:7.2%}  bound {bound:.0%}  {flag}")
            if name != "setup_s":
                ok &= spread <= bound
        summary[workload] = {"runs": runs, "rerun": again, "csv_identical": same_bytes,
                             "spreads": spreads}
    out = HERE / "out" / f"steady-{'-'.join(args.workloads)}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
