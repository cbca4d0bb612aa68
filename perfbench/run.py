"""qmimo benchmark launcher.

    python3 perfbench/run.py --workload oracle-8x4 --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Run from the root of a checkout that holds ``src/qmimo``. One workload
prints its metrics and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload untraced and then traced, and
prints both tables plus each workload's tracing overhead.

An untraced run is a paired comparison. Two worker processes
(``workload.py``) run the same chunks one after the other, taking turns at
going first: the program from the checkout's ``src`` and the reference, a
frozen copy of the program (``baseline/qmimo-src.zip``). Both see the same
inputs and nearly the same state of a shared machine, so the ratio of
their times is steady where each time alone is not. The end-to-end metrics
are that ratio applied to the reference's cost on a fixed machine (see
``workloads.py``). A traced run pairs the traced program with the untraced
reference in the same way.

Each run's files (chunk outputs, worker logs, ``result.json``, and for a
traced run ``layers.json`` and ``spans.jsonl``) land in
``perfbench/out/<workload>/seed<seed>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_SETUP_S, WORKLOADS  # noqa: E402

#: BLAS threads of every benchmark process, fixed at launch. On a 2-vCPU
#: VM, one thread gave the same simse-32 throughput as two with 44 % less
#: CPU per channel and a 40 % smaller run-to-run range (six interleaved pairs).
BLAS_THREADS = 1
TIMEOUT_S = 170
E2E_UNITS = {"channels_per_s": "1/s", "cpu_s_per_channel": "s", "setup_s": "s",
             "peak_rss_mb": "MB", "ok_frac": "frac"}
SOURCES = {"program": ROOT / "src", "reference": HERE / "baseline" / "qmimo-src.zip" / "src"}
#: The one CPU every worker and probe is pinned to. Unpinned, the two
#: workers of a pair settled on different vCPUs of a shared host, whose
#: speeds differed by up to 20 %.
CPU = max(os.sched_getaffinity(0))


def _pin() -> None:
    os.sched_setaffinity(0, {CPU})


def _env(role: str) -> dict:
    env = dict(os.environ)
    src = str(SOURCES[role])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # compile qmimo on every import, so set-up time does not depend on a cache
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _argv(role: str, args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "workload.py"), "--src", str(SOURCES[role]),
            "--role", role, *args]


def _probe(role: str) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(_argv(role, ["--setup-only"]), env=_env(role), preexec_fn=_pin,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Worker:
    """A ``workload.py`` process that runs chunks on request."""

    def __init__(self, role: str, args: list[str], out: Path):
        self.role = role
        self.log_path = out / f"{role}.log"
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(_argv(role, args), env=_env(role), preexec_fn=_pin, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log)
        self.setup_s = self._reply()["setup_s"]

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError(f"{self.role} worker exited with status {self.proc.returncode}:\n"
                               + self.log_path.read_text()[-4000:])
        return json.loads(line)

    def run(self, k: int, warmup: bool = False) -> dict:
        self.proc.stdin.write(f"{k} warmup\n" if warmup else f"{k}\n")
        self.proc.stdin.flush()
        reply = self._reply()
        if reply["chunk"] != k:
            raise RuntimeError(f"{self.role} worker answered chunk {reply['chunk']}, not {k}")
        return reply

    def finish(self) -> None:
        self.proc.stdin.close()
        code = self.proc.wait(timeout=TIMEOUT_S)
        self.log.close()
        if code != 0:
            raise RuntimeError(f"{self.role} worker exited with status {code}:\n"
                               + self.log_path.read_text()[-4000:])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.log.close()


def _source_id() -> dict:
    """The git commit if there is one, and a hash of the program source."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return its result record (see ``workload.py``)."""
    w = WORKLOADS[workload]
    out = HERE / "out" / workload / f"seed{seed}-trace{trace}"
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").unlink(missing_ok=True)
    chunks = w.channels(seconds) * w.points
    args = ["--workload", workload, "--seed", str(seed), "--out", str(out), "--trace"]
    setup = {"program": [], "reference": []}
    workers: list[Worker] = []
    pairs = []
    try:
        if not trace:
            # set-up is paired too: program and reference probes, then the
            # reference and program workers time their own set-up
            for role in ("program", "reference"):
                setup[role].append(_probe(role))
        for role in ("reference", "program"):
            workers.append(Worker(role, args + [str(trace if role == "program" else 0)], out))
            setup[role].append(workers[-1].setup_s)
        if not trace:
            # fill lazy caches and wake the CPU before the first timed pair;
            # a traced run skips it, so that its spans cover the timed chunks only
            for wk in workers:
                wk.run(0, warmup=True)
        for k in range(chunks):
            # take turns at going first, so neither side always runs
            # right after the other has warmed the caches
            turn = workers if k % 2 == 0 else workers[::-1]
            pairs.append({wk.role: wk.run(k) for wk in turn})
        for wk in workers:
            wk.finish()
    finally:
        for wk in workers:
            wk.kill()
    result = json.loads((out / "result.json").read_text())
    result["environment"].update(_source_id(), workload_seed=seed)
    n = result["attempted"]
    failed_frac = result["failed"] / n
    result["failed_frac"] = failed_frac
    result["channels_per_s_measured"] = n / sum(result["wall_s"])
    ref = {key: [p["reference"][key] for p in pairs] for key in ("wall_s", "cpu_s")}
    speed = sum(ref["wall_s"]) / sum(result["wall_s"])
    result["reference"] = dict(ref, setup_s=setup["reference"])
    result["setup_samples_s"] = setup["program"]
    result["speed_vs_reference"] = speed
    result["end_to_end"] = {
        "channels_per_s": speed / w.eval_s,
        "cpu_s_per_channel": w.eval_s * sum(result["cpu_s"]) / sum(ref["cpu_s"]),
        "setup_s": REFERENCE_SETUP_S * statistics.median(setup["program"])
        / statistics.median(setup["reference"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1.0 - failed_frac,
    }
    if trace:
        plain = out.parent / f"seed{seed}-trace0" / "result.json"
        if plain.is_file():
            base = json.loads(plain.read_text())
            if base["chunks"] == result["chunks"]:
                result["tracing_overhead_channels_per_s"] = (
                    base["end_to_end"]["channels_per_s"] - result["end_to_end"]["channels_per_s"])
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return result


def _metrics(result: dict, trace: int) -> dict:
    if trace:
        layers = json.loads((HERE / "out" / result["workload"] / f"seed{result['seed']}-trace1"
                             / "layers.json").read_text())
        return layers
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in result["end_to_end"].items()}


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")


def baseline_rows(layers: dict[str, dict]) -> list[tuple[str, str, str]]:
    """ROADMAP "Baseline numbers" rows, reproduced from traced per-layer metrics.

    ``layers`` maps a workload name to its ``{metric: value}`` table.
    """
    def show(workload, fmt, fn):
        t = layers.get(workload)
        if t is None:
            return "not run"
        try:
            return format(fn(t), fmt)
        except ZeroDivisionError:
            return "no calls"

    not_measured = "not measured"
    builds = [t["quantizer.table_build_s"] for t in layers.values()]
    return [
        ("distortion_table() build, b = 1..12",
         f"{statistics.median(builds):.3g} s" if builds else "not run",
         "quantizer.table_build_s, median over the traced workloads"),
        ("AltMin 64x64, Ns=8, b=3: s per solve",
         show("sweep-64", ".3g", lambda t: t["beamforming.altmin_s"] / t["beamforming.altmin_calls"]),
         "sweep-64: beamforming.altmin_s / altmin_calls (10 and 20 dB)"),
        ("AltMin 64x64, Ns=8, b=3: iterations per solve",
         show("sweep-64", ".0f", lambda t: t["beamforming.altmin_iters"] / t["beamforming.altmin_calls"]),
         "sweep-64: beamforming.altmin_iters / altmin_calls"),
        ("AltMin 64x64, Ns=8, b=3: ms per iteration",
         show("sweep-64", ".3g", lambda t: t["beamforming.iter_ms"]),
         "sweep-64: beamforming.iter_ms"),
        ("update_precoder share of AltMin",
         show("sweep-64", ".1%", lambda t: t["beamforming.update_precoder_s"] / t["beamforming.altmin_s"]),
         "sweep-64: beamforming.update_precoder_s / altmin_s"),
        ("AltMin 16x16, Ns=4, b=1, 30 dB (warm)", not_measured, "no workload runs this point"),
        ("se_simulated, 1e5 samples, 64x64", not_measured, "no workload runs this point"),
        ("se_simulated, 1e5 samples, 32x32: s per call",
         show("simse-32", ".3g", lambda t: t["evaluation.se_simulated_quantized_s"]
              / t["evaluation.se_simulated_quantized_calls"]),
         "simse-32: evaluation.se_simulated_quantized_s / _calls (b = 1 and 3)"),
        ("GPOS scoring solve, capped at 30 iters: s per solve",
         show("gpos-16", ".3g", lambda t: 1 / t["bitalloc.scored_per_s"]),
         "gpos-16 at 16x16: 1 / bitalloc.scored_per_s; 64x64 not measured"),
        ("GPOS, paper scale, one channel", not_measured, "no workload runs 64x64 GPOS"),
        ("tier-1: criterion 09 / criterion 08", not_measured, "test wall times are outside the benchmark"),
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qmimo benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qmimo" / "__init__.py").is_file():
        print(f"no qmimo source under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        layers = {}
        for name in WORKLOADS:
            plain = run_one(name, args.seed, args.seconds, 0)
            traced = run_one(name, args.seed, args.seconds, 1)
            layers[name] = traced["layers"]
            _print_table(f"{name} (seed {args.seed}, {plain['attempted']} channel evaluations)",
                         {**_metrics(plain, 0),
                          "failed_frac": {"value": plain["failed_frac"], "unit": "frac"}})
            _print_table(f"{name} traced", _metrics(traced, 1))
            print(f"  tracing overhead: {traced['tracing_overhead_channels_per_s']:.6g} 1/s"
                  " (channels_per_s, untraced minus traced)")
        rows = baseline_rows(layers)
        print("ROADMAP baseline rows")
        for row, value, source in rows:
            print(f"  {row:52s} {value:>14s}  {source}")
        (HERE / "out" / f"baseline-rows-seed{args.seed}.json").write_text(json.dumps(rows, indent=1))
        return 0

    def timed_out(signum, frame):
        raise TimeoutError(f"run exceeded {TIMEOUT_S} s")

    signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(TIMEOUT_S)
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    signal.alarm(0)
    metrics = _metrics(result, args.trace)
    _print_table(f"{args.workload} (seed {args.seed}, {result['attempted']} channel evaluations,"
                 f" failed_frac {result['failed_frac']:.6g})", metrics)
    for miss in result["misses"]:
        print(f"  miss: {miss}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
