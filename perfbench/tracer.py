"""Span tracing of qmimo's public functions, installed from outside.

A :class:`Tracer` replaces each traced function on every name a caller
looks it up by (a module global, an attribute reached through a module, or
a class attribute) with a wrapper that records one span: name, start, end,
parent span, channel evaluation and an optional value taken from the call.
Spans stay in memory; :meth:`Tracer.layer_metrics` reduces them to the
per-layer table and :meth:`Tracer.dump` writes them out when the run ends.

A channel evaluation is identified by (sweep point, channel index). Every
``channel.saleh_valenzuela`` call starts the next channel of the enclosing
``run_experiment`` or oracle loop, and the oracle loop of a point reuses
that point's channel ids, so both halves of one evaluation share an id.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

#: Percentiles tried for the per-channel tail, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, channel, value]
        self._stack: list[int] = []
        self._point = -1
        self._chan = -1
        self._open: tuple[str, float] | None = None
        self.channel_s: dict[str, float] = {}
        self._table_misses = 0
        self.t0 = time.perf_counter()

    # -- channel bookkeeping -------------------------------------------
    def _close_channel(self) -> None:
        if self._open is not None:
            cid, start = self._open
            self.channel_s[cid] = self.channel_s.get(cid, 0.0) + time.perf_counter() - start
            self._open = None

    def _enter_loop(self, new_point: bool) -> None:
        self._close_channel()
        self._point += new_point
        self._chan = -1

    def _next_channel(self) -> None:
        self._close_channel()
        self._chan += 1
        self._open = (f"{self._point}.{self._chan}", time.perf_counter())

    @property
    def channel(self) -> str | None:
        return self._open[0] if self._open else None

    # -- wrapping ------------------------------------------------------
    def wrap(self, bindings, name: str, before=None, value=None) -> None:
        """Trace the function found at ``bindings[0]`` on every binding.

        ``bindings`` is a list of ``(owner, attribute)`` pairs that all
        hold the same function. ``before()`` runs ahead of the call;
        ``value(args, kwargs, result)`` gives the number stored with the
        span.
        """
        fn = getattr(*bindings[0])
        for owner, attr in bindings[1:]:
            if getattr(owner, attr) is not fn:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the traced function {name}")
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.channel, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[5] = value(args, kwargs, result)
            return result

        for owner, attr in bindings:
            setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the public functions of all seven qmimo modules."""
        from qmimo import (beamforming, bitalloc, bussgang, channel, cli,
                           evaluation, quantizer)

        table_fn = quantizer.distortion_table
        self._table_misses = table_fn.cache_info().misses

        def built(args, kwargs, result):
            # lru_cache: a new miss during this call means the table was built
            return table_fn.cache_info().misses

        self.wrap([(m, "distortion_table") for m in (quantizer, evaluation, cli, bussgang)],
                  "quantizer.distortion_table", value=built)
        self.wrap([(quantizer.ScalarQuantizer, "quantize_real")], "quantizer.quantize_real")

        def qd_cov_bytes(args, kwargs, result):
            H, F = args[0], args[1]
            n = kwargs.get("num_samples", args[4] if len(args) > 4 else 10**5)
            nr, ns = H.shape[0], F.shape[1]
            # complex128 arrays one call allocates: symbols s (ns x n); noise,
            # H F s, y, z and eta (nr x n each); the nr x nr accumulator
            return 16 * (n * (ns + 5 * nr) + nr * nr)

        self.wrap([(bussgang, "qd_cov_simulated")], "bussgang.qd_cov_simulated",
                  value=qd_cov_bytes)
        self.wrap([(bussgang, "effective_noise_cov"), (beamforming, "effective_noise_cov")],
                  "bussgang.effective_noise_cov")
        self.wrap([(channel, "saleh_valenzuela")], "channel.saleh_valenzuela",
                  before=self._next_channel)

        def altmin_value(args, kwargs, result):
            report = result[1]
            return [report.iterations, bool(report.converged)]

        self.wrap([(beamforming, "altmin_beamforming"), (bitalloc, "altmin_beamforming")],
                  "beamforming.altmin_beamforming", value=altmin_value)
        for fn in ("update_combiner", "update_weight", "update_precoder",
                   "spectral_efficiency", "waterfilling_baseline"):
            self.wrap([(beamforming, fn)], f"beamforming.{fn}")

        self.wrap([(bitalloc, "gpos_bfba")], "bitalloc.gpos_bfba",
                  value=lambda a, k, r: r.iterations)
        self.wrap([(bitalloc, "neighbor_set")], "bitalloc.neighbor_set",
                  value=lambda a, k, r: len(r))
        self.wrap([(bitalloc, "exhaustive_search")], "bitalloc.exhaustive_search")

        def experiment_done(args, kwargs, result):
            self._close_channel()

        self.wrap([(evaluation, "run_experiment")], "evaluation.run_experiment",
                  before=lambda: self._enter_loop(True), value=experiment_done)
        self.wrap([(evaluation, "se_simulated")], "evaluation.se_simulated",
                  value=lambda a, k, r: a[3] is not None)

        def file_size(args, kwargs, result):
            path = args[2] if len(args) > 2 else kwargs["path"]
            return os.path.getsize(path)

        self.wrap([(cli, "write_results")], "cli.write_results", value=file_size)
        self.wrap([(cli, "_oracle_outcome")], "cli.oracle_outcome",
                  before=lambda: self._enter_loop(False), value=experiment_done)

    # -- reduction -----------------------------------------------------
    def layer_metrics(self, ridge_warnings: int, channels: int, sweep_s: float) -> dict:
        """Per-layer metrics, as ``name -> (value, unit)``."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        children: dict[int, list[int]] = {}
        by_name: dict[str, list[int]] = {}
        for i, (name, t0, t1, parent, _, _) in enumerate(spans):
            by_name.setdefault(name, []).append(i)
            if parent >= 0:
                child_s[parent] += t1 - t0
                children.setdefault(parent, []).append(i)

        def of(name):
            return by_name.get(name, [])

        def total(idx):
            return sum(spans[i][2] - spans[i][1] for i in idx)

        def self_s(idx):
            return total(idx) - sum(child_s[i] for i in idx)

        def values(idx):
            return [spans[i][5] for i in idx]

        table = of("quantizer.distortion_table")
        built, misses = [], self._table_misses
        for i in table:
            if spans[i][5] > misses:
                built.append(i)
            misses = spans[i][5]
        qd = of("bussgang.qd_cov_simulated")
        enc = of("bussgang.effective_noise_cov")
        sv = of("channel.saleh_valenzuela")
        altmin = of("beamforming.altmin_beamforming")
        iters = sum(v[0] for v in values(altmin))
        altmin_s = total(altmin)
        gpos = of("bitalloc.gpos_bfba")
        scoring, final = [], []
        for g in gpos:
            solves = [c for c in children.get(g, ()) if spans[c][0] == "beamforming.altmin_beamforming"]
            scoring += solves[:-1]
            final += solves[-1:]
        scoring_s = total(scoring)
        neighbours = of("bitalloc.neighbor_set")
        ex = of("bitalloc.exhaustive_search")
        ex_set = set(ex)
        ex_solves = sum(1 for i in altmin if spans[i][3] in ex_set)
        writes = of("cli.write_results")
        se_sim = of("evaluation.se_simulated")
        se_sim_q = [i for i in se_sim if spans[i][5]]

        chan = sorted(self.channel_s.values())
        p50 = statistics.median(chan) if chan else 0.0
        pct = next((p for p in _TAIL_PERCENTILES if len(chan) * (1 - p / 100) >= 10), 50.0)
        tail = statistics.quantiles(chan, n=1000, method="inclusive")[round(pct * 10) - 1] \
            if len(chan) >= 2 and pct != 50.0 else p50

        return {
            "quantizer.table_build_s": (total(built), "s"),
            "quantizer.quantize_real_calls": (len(of("quantizer.quantize_real")), "count"),
            "quantizer.quantize_real_s": (total(of("quantizer.quantize_real")), "s"),
            "bussgang.qd_cov_simulated_calls": (len(qd), "count"),
            "bussgang.qd_cov_simulated_self_s": (self_s(qd), "s"),
            "bussgang.qd_cov_bytes_computed": (sum(values(qd)), "bytes"),
            "bussgang.effective_noise_cov_calls": (len(enc), "count"),
            "bussgang.effective_noise_cov_s": (total(enc), "s"),
            "channel.saleh_valenzuela_calls": (len(sv), "count"),
            "channel.saleh_valenzuela_s": (total(sv), "s"),
            "beamforming.altmin_calls": (len(altmin), "count"),
            "beamforming.altmin_s": (altmin_s, "s"),
            "beamforming.altmin_iters": (iters, "count"),
            "beamforming.altmin_nonconverged": (sum(not v[1] for v in values(altmin)), "count"),
            "beamforming.iter_ms": (1e3 * altmin_s / iters if iters else 0.0, "ms"),
            "beamforming.update_precoder_s": (total(of("beamforming.update_precoder")), "s"),
            "beamforming.update_combiner_s": (total(of("beamforming.update_combiner")), "s"),
            "beamforming.update_weight_s": (total(of("beamforming.update_weight")), "s"),
            "beamforming.spectral_efficiency_s": (total(of("beamforming.spectral_efficiency")), "s"),
            "beamforming.waterfilling_baseline_s": (total(of("beamforming.waterfilling_baseline")), "s"),
            "beamforming.ridge_warnings": (ridge_warnings, "count"),
            "bitalloc.gpos_calls": (len(gpos), "count"),
            "bitalloc.gpos_s": (total(gpos), "s"),
            "bitalloc.gpos_sweeps": (sum(values(gpos)), "count"),
            "bitalloc.neighbours_scored": (sum(values(neighbours)), "count"),
            "bitalloc.scoring_s": (scoring_s, "s"),
            "bitalloc.final_solve_s": (total(final), "s"),
            "bitalloc.neighbor_set_s": (total(neighbours), "s"),
            "bitalloc.scored_per_s": (len(scoring) / scoring_s if scoring_s else 0.0, "1/s"),
            "bitalloc.exhaustive_calls": (len(ex), "count"),
            "bitalloc.exhaustive_solves": (ex_solves, "count"),
            "bitalloc.exhaustive_s": (total(ex), "s"),
            "evaluation.run_experiment_s": (total(of("evaluation.run_experiment")), "s"),
            "evaluation.se_simulated_calls": (len(se_sim), "count"),
            "evaluation.se_simulated_s": (total(se_sim), "s"),
            "evaluation.se_simulated_quantized_calls": (len(se_sim_q), "count"),
            "evaluation.se_simulated_quantized_s": (total(se_sim_q), "s"),
            "evaluation.channel_samples": (len(chan), "count"),
            "evaluation.channel_s_p50": (p50, "s"),
            "evaluation.channel_s_tail": (tail, "s"),
            "evaluation.channel_s_tail_pct": (pct, "%"),
            "cli.write_results_calls": (len(writes), "count"),
            "cli.write_results_s": (total(writes), "s"),
            "cli.bytes_written": (sum(values(writes)), "bytes"),
            "trace.channels_per_s": (channels / sweep_s, "1/s"),
            "trace.spans": (len(spans), "count"),
        }

    def dump(self, path) -> None:
        """Write every span as one JSON line, times relative to tracer start."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, chan, value) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(t0 - self.t0, 9), round(t1 - self.t0, 9),
                                     parent, chan, value]) + "\n")
