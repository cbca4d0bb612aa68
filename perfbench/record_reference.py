"""Record the reference outputs the output check compares against.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload (default: all) once, traced, at ``DEFAULT_SEED`` for
``run_seconds`` from ``BENCHMARK.json`` and stores the SE values and
GPOS/ES allocations of every chunk in ``perfbench/reference/<workload>.json``. Run it from the root of a
checkout, only on the commit whose outputs are meant to be the reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
from check import REFERENCE_DIR, reference_from
from workloads import DEFAULT_SEED, WORKLOADS


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    for name in names:
        result = run.run_one(name, DEFAULT_SEED, seconds, 1)
        out = run.HERE / "out" / name / f"seed{DEFAULT_SEED}-trace1" / "program"
        chunks = [reference_from(json.loads((out / f"chunk{k}" / "results.json").read_text()))
                  for k in result["chunks"]]
        ref = {"workload": name, "seed": DEFAULT_SEED,
               "source": result["environment"]["git_commit"]
               or result["environment"]["source_sha256"],
               "chunks": chunks}
        REFERENCE_DIR.mkdir(exist_ok=True)
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
        print(f"{name}: {len(chunks)} chunks recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
