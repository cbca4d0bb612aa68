"""One benchmark worker: a qmimo program that runs chunks on request.

Started by ``run.py`` with a qmimo source tree on ``PYTHONPATH`` (the
checkout's ``src`` for the program, the frozen copy under ``baseline/``
for the reference) and the BLAS thread count fixed in the environment. It
times ``import qmimo`` plus the first ``distortion_table()`` build and
prints ``{"setup_s": ...}``; ``--setup-only`` stops there.

Otherwise it reads chunk indices from stdin, one per line. Chunk ``k`` is
one ``qmimo run`` sweep through ``qmimo.cli.main(["run", ...])`` (see
``workloads.py``), and the worker answers each with one JSON line holding
the chunk's wall and CPU seconds. A line ``<k> warmup`` runs chunk ``k``
without recording it. At the end of its input the program
worker checks every chunk's outputs and writes ``result.json``. With
``--trace 1`` the public functions of every qmimo module are wrapped first,
and the per-layer table and the span dump are written beside the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

t_start = time.perf_counter()


def _setup(src: Path, trace: bool):
    """Import qmimo from ``src`` and build the distortion table."""
    import qmimo
    from qmimo import quantizer

    if Path(qmimo.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"qmimo imported from {qmimo.__file__}, not from {src}")
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    quantizer.distortion_table()
    return tracer, time.perf_counter() - t_start


def _cpu_s() -> float:
    """User+sys CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, required=True, help="directory holding qmimo")
    p.add_argument("--role", choices=("program", "reference"), default="program")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, help="directory for this run's files")
    args = p.parse_args(argv)

    tracer, setup_s = _setup(args.src, bool(args.trace))
    print(json.dumps({"setup_s": setup_s}), flush=True)
    if args.setup_only:
        return 0

    from qmimo import cli

    import check
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    out = args.out / args.role
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    configs = []
    for point in range(w.points):
        configs.append(out / f"config-{point}.json")
        configs[-1].write_text(json.dumps(w.point_config(point), indent=1))

    chunks, wall, cpu, status = [], [], [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for line in sys.stdin:
            k, *warmup = line.split()
            k = int(k)
            sweep = out / f"chunk{k}"
            cli_args = w.cli_args(configs[k % w.points], sweep, w.chunk_seed(args.seed, k))
            progress = io.StringIO()
            c0, t0 = _cpu_s(), time.perf_counter()
            with contextlib.redirect_stdout(progress):
                code = cli.main(cli_args)
            reply = {"chunk": k, "wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - c0,
                     "status": code}
            if not warmup:
                chunks.append(k)
                wall.append(reply["wall_s"])
                cpu.append(reply["cpu_s"])
                status.append(code)
            print(json.dumps(reply), flush=True)
    if args.role == "reference":
        return 0

    ref = check.load_reference(w.name)
    reference = ref["chunks"] if ref is not None and ref["seed"] == args.seed else None
    failed, misses = 0, []
    csv_hash = hashlib.sha256()
    for k, code in zip(chunks, status):
        sweep = out / f"chunk{k}"
        if code != 0:
            found = [f"qmimo run exited with status {code}"]
        else:
            found = check.check_chunk(sweep / "results.json",
                                      reference[k] if reference and k < len(reference) else None)
        if found:
            failed += 1
            misses.append(f"chunk {k}: " + "; ".join(found))
        csv = sweep / "results.csv"
        csv_hash.update(csv.read_bytes() if csv.is_file() else b"missing\n")
    ridge = sum("regularizing" in str(m.message) for m in caught
                if issubclass(m.category, RuntimeWarning))
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "chunks": chunks,
        "attempted": len(chunks),
        "failed": failed,
        "misses": misses[:50],
        "reference_checked": reference is not None,
        "exit_status": status,
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "ridge_warnings": ridge,
        "warnings": sorted({str(m.message) for m in caught})[:20],
        "results_csv_sha256": csv_hash.hexdigest(),
        "environment": _environment(),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(ridge, len(chunks), sum(wall))
        (args.out / "layers.json").write_text(json.dumps(
            {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}, indent=1))
        tracer.dump(args.out / "spans.jsonl")
        result["layers"] = {name: v for name, (v, _) in layers.items()}
    (args.out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
