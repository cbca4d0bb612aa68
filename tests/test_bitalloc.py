"""Greedy initialization, swap neighborhoods, GPOS and the exhaustive oracle."""

import math
import tracemalloc
import warnings
from itertools import product
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

import qmimo.bitalloc as bitalloc
from qmimo import beamforming
from qmimo.bitalloc import (
    enumerate_allocations,
    exhaustive_search,
    gpos_bfba,
    greedy_init,
    neighbor_set,
    se_ceiling,
)
from qmimo.beamforming import altmin_beamforming, spectral_efficiency
from qmimo.bussgang import effective_noise_cov, gain_diagonal, noise_weights
from qmimo.channel import saleh_valenzuela


class TestGreedyInit:
    def test_no_reduction_needed(self):
        a = greedy_init(4, 3, 12)
        assert a == (3, 3, 3, 3)

    def test_partial_reduction(self):
        # chains drop to the floor in index order until the budget is met
        a = greedy_init(4, 3, 8)
        assert a == (1, 1, 3, 3)

    def test_floor_everywhere(self):
        a = greedy_init(4, 3, 4)
        assert a == (1, 1, 1, 1)

    def test_infeasible_low(self):
        with pytest.raises(ValueError, match="Nr"):
            greedy_init(4, 3, 3)

    def test_infeasible_high(self):
        with pytest.raises(ValueError, match="b_max"):
            greedy_init(4, 3, 13)


class TestNeighborSet:
    def test_all_equal_has_no_neighbors(self):
        a = (2, 2, 2)
        assert neighbor_set(a, set()) == []

    def test_single_swap(self):
        a = (1, 3)
        out = neighbor_set(a, set())
        assert out == [(3, 1)]

    def test_three_unequal(self):
        a = (1, 2, 3)
        out = set(neighbor_set(a, set()))
        assert out == {(2, 1, 3), (3, 2, 1), (1, 3, 2)}
        assert len(out) == 3  # = Nr(Nr-1)/2

    def test_tabu_excluded(self):
        a = (1, 2, 3)
        out = set(neighbor_set(a, {(3, 2, 1)}))
        assert out == {(2, 1, 3), (1, 3, 2)}

    def test_swaps_preserve_sum_and_bounds(self):
        a = (1, 3, 2, 3, 1)
        for n in neighbor_set(a, set()):
            assert sum(n) == 10
            assert all(1 <= b <= 3 for b in n)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_greedy_and_neighbors_properties(self, data):
        nr = data.draw(st.integers(1, 8), label="nr")
        b_max = data.draw(st.integers(1, 6), label="b_max")
        drawn = tuple(data.draw(st.lists(st.integers(1, b_max), min_size=nr, max_size=nr),
                                label="drawn"))
        budget = sum(drawn)
        greedy = greedy_init(nr, b_max, budget)
        assert len(greedy) == nr and sum(greedy) == budget
        assert all(1 <= b <= b_max for b in greedy)
        bits = data.draw(st.sampled_from([greedy, drawn]), label="bits")
        # one swap per unequal pair; it changes exactly those two positions,
        # so distinct pairs never give the same neighbor and only tabu rejects one
        swaps = [bits[:i] + (bits[j],) + bits[i + 1:j] + (bits[i],) + bits[j + 1:]
                 for i in range(nr) for j in range(i + 1, nr) if bits[i] != bits[j]]
        candidates = sorted(swaps) + [greedy, bits]
        tabu = data.draw(st.sets(st.sampled_from(candidates)), label="tabu")
        out = neighbor_set(bits, tabu)
        assert len(out) == len(set(out))
        assert len(out) == sum(s not in tabu for s in swaps)
        assert set(out) == set(swaps) - tabu
        for n in out:
            assert sum(n) == budget
            assert all(1 <= b <= b_max for b in n)
            assert sum(x != y for x, y in zip(n, bits)) == 2
            assert n not in tabu


class TestEnumerate:
    def test_seven_compositions(self):
        allocs = enumerate_allocations(3, 3, 6)
        assert len(allocs) == 7
        assert allocs == sorted(allocs)  # lexicographic

    def test_forced_all_ones(self):
        assert enumerate_allocations(3, 3, 3) == [(1, 1, 1)]

    def test_forced_all_max(self):
        assert enumerate_allocations(3, 3, 9) == [(3, 3, 3)]


def small_problem(seed):
    H = saleh_valenzuela(8, 4, seed=seed)
    return H, dict(pt=1.0, sigma_n2=0.01, ns=2, b_max=3, budget=8)


class TestGpos:
    def test_uniform_budget_degenerates_to_beamforming(self):
        # all chains equal: no swap exists, search exits immediately
        H, kw = small_problem(0)
        res = gpos_bfba(H, **{**kw, "budget": 12})
        assert res.allocation == (3, 3, 3, 3)
        assert res.iterations == 0
        _, rep = altmin_beamforming(H, (3, 3, 3, 3), 1.0, 0.01, 2)
        assert res.se == pytest.approx(rep.final_se, rel=1e-9)

    def test_incumbent_se_nondecreasing(self):
        H, kw = small_problem(1)
        res = gpos_bfba(H, **kw)
        assert np.all(np.diff(res.se_trace) >= 0)

    def test_no_allocation_scored_twice(self):
        H, kw = small_problem(2)
        res = gpos_bfba(H, **kw)
        assert len(res.scored_allocations) == len(set(res.scored_allocations))

    def test_all_scored_allocations_feasible(self):
        H, kw = small_problem(3)
        res = gpos_bfba(H, **kw)
        for bits in res.scored_allocations:
            assert sum(bits) == 8
            assert all(1 <= b <= 3 for b in bits)

    def test_swap_search_preserves_multiset(self):
        H, kw = small_problem(4)
        res = gpos_bfba(H, **kw)
        assert sorted(res.allocation) == [1, 1, 3, 3]

    def test_deterministic(self):
        H, kw = small_problem(5)
        a = gpos_bfba(H, **kw)
        b = gpos_bfba(H, **kw)
        assert a.allocation == b.allocation
        assert a.se == b.se


class TestFinalSolveContinuation:
    """GPOS's final solve continues the incumbent's stored scoring solve, and without a
    store starts from F0: the floats of a solve from F0 either way."""

    @pytest.mark.parametrize("i2, scoring_max_iter, max_iter, kinds", [
        # scoring solves that converged before their cap, and ones it stopped
        (15, 30, 500, {"converged", "capped"}),
        # scoring solves longer than the final cap, from which the final solve
        # starts afresh, and shorter ones
        (15, 40, 20, {"converged", "longer"}),
        # no sweep: the greedy allocation's own scoring solve continues
        (0, 30, 500, {"converged", "capped"}),
    ])
    def test_matches_a_solve_from_f0(self, monkeypatch, i2, scoring_max_iter, max_iter, kinds):
        solve = bitalloc.altmin_beamforming
        calls = []

        def recorded(H, bits, *args, **kwargs):
            result = solve(H, bits, *args, **kwargs)
            calls.append((bits, kwargs.get("start"), result[1]))
            return result

        monkeypatch.setattr(bitalloc, "altmin_beamforming", recorded)
        seen = set()
        for snr_db in (0, 10, 20, 30):
            kw = dict(pt=1.0, sigma_n2=10 ** (-snr_db / 10), ns=2, b_max=3, budget=8)
            for seed in range(8000, 8010):
                H = saleh_valenzuela(8, 4, seed=seed)
                where = f"{snr_db} dB, seed {seed}"
                for solved in ({}, None):
                    calls.clear()
                    res = gpos_bfba(H, i2=i2, scoring_max_iter=scoring_max_iter,
                                    max_iter=max_iter, solved=solved, **kw)
                    *scoring, (bits, start, rep) = calls
                    assert bits == res.allocation and rep is res.final_report, where
                    if i2 == 0:
                        assert res.allocation == greedy_init(4, 3, 8)
                    if solved is None:
                        # no store: the final solve starts from F0, and each scoring
                        # solve resumes its stacked iterations and runs none of its own
                        assert start is None, where
                        assert all(s.iterations == r.iterations for _, s, r in scoring), where
                    else:
                        kept, = [r for b, _, r in scoring if b == bits]
                        assert start is kept, where
                        seen.add("longer" if kept.iterations > max_iter
                                 else "converged" if kept.converged else "capped")
                    bf, fresh = solve(H, res.allocation, kw["pt"], kw["sigma_n2"], kw["ns"],
                                      max_iter=max_iter)
                    assert res.se == rep.final_se == fresh.final_se, where
                    assert (rep.iterations, rep.converged) == (fresh.iterations,
                                                               fresh.converged), where
                    np.testing.assert_array_equal(rep.objective_trace, fresh.objective_trace)
                    for x, y in ((res.beamformers.F, bf.F), (res.beamformers.U, bf.U),
                                 (res.beamformers.W, bf.W)):
                        np.testing.assert_array_equal(x, y, err_msg=where)
        assert seen == kinds


class TestOracleContinuation:
    """ES continues the channel's AltMinBF and GPOS solves: the result of solving afresh.

    The stored reports are the starts of ES's stacked iterations (``_altmin_batch``).
    """

    @pytest.mark.parametrize("scoring_max_iter, max_iter, kinds", [
        # scoring solves that converged before their cap, and ones it stopped
        (30, 500, {"fresh", "converged", "capped"}),
        # scoring solves longer than max_iter, whose starts ES ignores, and an
        # AltMinBF solve that stopped at max_iter
        (40, 20, {"fresh", "converged", "capped", "longer", "AltMinBF capped"}),
    ])
    def test_matches_a_search_from_f0(self, monkeypatch, scoring_max_iter, max_iter, kinds):
        batch = bitalloc._altmin_batch
        starts = []

        def recorded(H, allocations, *args):
            starts.extend(zip(allocations, args[-1]))
            return batch(H, allocations, *args)

        seen = set()
        uniform = (2, 2, 2, 2)
        for snr_db in (0, 10, 20, 30):
            kw = dict(pt=1.0, sigma_n2=10 ** (-snr_db / 10), ns=2, b_max=3, budget=8,
                      max_iter=max_iter)
            for seed in range(8000, 8010):
                H = saleh_valenzuela(8, 4, seed=seed)
                where = f"{snr_db} dB, seed {seed}"
                _, altmin = altmin_beamforming(H, uniform, kw["pt"], kw["sigma_n2"], kw["ns"],
                                               max_iter=max_iter)
                solved = {uniform: altmin}
                res = gpos_bfba(H, scoring_max_iter=scoring_max_iter, solved=solved, **kw)
                alone = gpos_bfba(H, scoring_max_iter=scoring_max_iter, **kw)
                assert (res.allocation, res.se) == (alone.allocation, alone.se), where
                kept = dict(solved)
                monkeypatch.setattr(bitalloc, "_altmin_batch", recorded)
                starts.clear()
                got = exhaustive_search(H, solved=solved, **kw)
                monkeypatch.setattr(bitalloc, "_altmin_batch", batch)
                assert got == exhaustive_search(H, **kw), where
                for bits, start in starts:
                    # every allocation solved before ES continues, no other does
                    assert start is kept.get(bits), (where, bits)
                    seen.add("fresh" if start is None
                             else "longer" if start.iterations > max_iter
                             else "AltMinBF capped" if start is altmin and not start.converged
                             else "converged" if start.converged else "capped")
        assert seen == kinds

    def test_adds_no_entries_to_the_store(self):
        # ES continues the store but keeps its own reports out of it: no later
        # solve on the channel would read them
        H = saleh_valenzuela(8, 6, seed=0)
        kw = dict(pt=1.0, sigma_n2=0.1, ns=2, b_max=4, budget=12)
        uniform = (2,) * 6
        solved = {uniform: altmin_beamforming(H, uniform, kw["pt"], kw["sigma_n2"], kw["ns"])[1]}
        gpos_bfba(H, solved=solved, **kw)
        before = dict(solved)
        got = exhaustive_search(H, solved=solved, **kw)
        assert solved.keys() == before.keys()
        assert all(solved[bits] is rep for bits, rep in before.items())
        assert got == exhaustive_search(H, **kw)


class TestExhaustive:
    def test_single_candidate_all_ones(self):
        H, kw = small_problem(6)
        alloc, _ = exhaustive_search(H, **{**kw, "budget": 4})
        assert alloc == (1, 1, 1, 1)

    def test_single_candidate_all_max(self):
        H, kw = small_problem(7)
        alloc, _ = exhaustive_search(H, **{**kw, "budget": 12})
        assert alloc == (3, 3, 3, 3)

    def test_size_guard(self):
        H = saleh_valenzuela(8, 8, seed=8)
        with pytest.raises(ValueError, match="exceeds"):
            exhaustive_search(H, pt=1.0, sigma_n2=0.01, ns=2, b_max=8, budget=32)

    def test_gpos_close_to_oracle(self):
        # the swap search cannot leave the greedy multiset, yet it stays
        # within a few percent of the enumerated optimum on average
        ratios = []
        for seed in range(6):
            H, kw = small_problem(100 + seed)
            res = gpos_bfba(H, **kw)
            _, se_opt = exhaustive_search(H, **kw)
            assert res.se <= se_opt + 1e-9
            ratios.append(res.se / se_opt)
        assert np.mean(ratios) >= 0.98


    @pytest.mark.parametrize("snr_db", [0, 10, 20, 30])
    def test_pruned_oracle_matches_solving_every_allocation(self, monkeypatch, snr_db):
        # criterion-08 instances: the ceiling skips no allocation that could
        # win or tie, and at 20 dB it skips some
        solve = bitalloc.altmin_beamforming
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(bitalloc, "altmin_beamforming", counted)
        kw = dict(pt=1.0, sigma_n2=10 ** (-snr_db / 10), ns=2, b_max=3, budget=8)
        allocations = enumerate_allocations(4, 3, 8)
        solves = []
        for seed in range(8000, 8010):
            H = saleh_valenzuela(8, 4, seed=seed)
            se, bits = bitalloc._best(H, allocations, kw["pt"], kw["sigma_n2"], kw["ns"],
                                      1e-4, 500)
            calls[0] = 0
            assert exhaustive_search(H, **kw) == (bits, se)
            solves.append(calls[0])
        assert all(1 <= n <= len(allocations) for n in solves), solves
        if snr_db == 20:
            assert min(solves) < len(allocations), solves


def lone_solves(H, allocations, kw, max_iter, store):
    """``_best`` as a loop of lone solves, each continuing and then updating ``store``."""
    scored = []
    for bits in allocations:
        _, rep = altmin_beamforming(H, bits, kw["pt"], kw["sigma_n2"], kw["ns"],
                                    max_iter=max_iter, start=store.get(bits))
        store[bits] = rep
        scored.append((rep.final_se, bits))
    return min(scored, key=lambda x: (-x[0], x[1]))


def assert_same_report(got, want, where):
    assert (got.iterations, got.converged) == (want.iterations, want.converged), where
    assert got.final_se == want.final_se, where
    np.testing.assert_array_equal(got.objective_trace, want.objective_trace, err_msg=where)
    np.testing.assert_array_equal(got.iterate[0], want.iterate[0], err_msg=where)
    assert got.iterate[1] == want.iterate[1], where


@st.composite
def scored_lists(draw):
    """(H, allocations, kw, max_iter, starts, batch): an 8x4 or 6x3 channel, maybe of
    rank < Nr, 1-12 allocations and, per allocation, no start, a capped start, a
    converged one or one that ran longer than max_iter."""
    nt, nr = draw(st.sampled_from([(8, 4), (6, 3)]))
    rank = draw(st.sampled_from([1, 2, nr]))
    ns = draw(st.integers(1, min(2, rank)))
    snr_db = draw(st.sampled_from([0, 10, 20, 30]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((nr, rank)) + 1j * rng.standard_normal((nr, rank))
    B = rng.standard_normal((rank, nt)) + 1j * rng.standard_normal((rank, nt))
    H = A @ B / np.sqrt(2 * nt * rank)
    pool = list(product(range(1, 4), repeat=nr))
    allocations = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    max_iter = draw(st.sampled_from([4, 30]))
    kw = dict(pt=1.0, sigma_n2=10 ** (-snr_db / 10), ns=ns)
    starts = {}
    for bits in allocations:
        cap = draw(st.sampled_from([None, max_iter // 2, 200, max_iter + 5]))
        if cap is not None:
            starts[bits] = altmin_beamforming(H, bits, kw["pt"], kw["sigma_n2"], ns,
                                              max_iter=cap)[1]
    return H, allocations, kw, max_iter, starts, draw(st.sampled_from([1, 3, 32]))


class TestStackedScoring:
    """``_best`` runs the AltMin iterations of its list stacked, in chunks of
    ``beamforming._BATCH``; its scores and stored reports are those of lone solves."""

    @settings(max_examples=100, deadline=None)
    @given(scored_lists())
    def test_matches_lone_solves(self, case):
        H, allocations, kw, max_iter, starts, batch = case
        want_store, got_store = dict(starts), dict(starts)
        want = lone_solves(H, allocations, kw, max_iter, want_store)
        with mock.patch.object(beamforming, "_BATCH", batch):
            got = bitalloc._best(H, allocations, kw["pt"], kw["sigma_n2"], kw["ns"], 1e-4,
                                 max_iter, got_store)
        assert got == want
        assert got_store.keys() == want_store.keys()
        for bits in allocations:
            assert_same_report(got_store[bits], want_store[bits], bits)

    def test_stack_mixes_both_precoder_branches(self, monkeypatch):
        # a rank-2 channel at one stream and 20 dB: minimum-norm and bisection
        # updates share stacks
        rng = np.random.default_rng(5)
        H = ((rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
             @ (rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))) / 4.0)
        kw = dict(pt=1.0, sigma_n2=0.01, ns=1)
        allocations = enumerate_allocations(4, 3, 8)
        fits, update = beamforming._minimum_norm_fits, beamforming.update_precoder
        branches = []

        def recorded_fits(*args):
            branches[-1].append(fits(*args))
            return branches[-1][-1]

        def recorded_update(link, U, *args):
            branches.append([])
            return update(link, U, *args)

        monkeypatch.setattr(beamforming, "_minimum_norm_fits", recorded_fits)
        monkeypatch.setattr(beamforming, "update_precoder", recorded_update)
        got_store = {}
        got = bitalloc._best(H, allocations, kw["pt"], kw["sigma_n2"], 1, 1e-4, 30, got_store)
        assert any(True in b and False in b for b in branches), branches
        monkeypatch.undo()
        want_store = {}
        assert got == lone_solves(H, allocations, kw, 30, want_store)
        for bits in allocations:
            assert_same_report(got_store[bits], want_store[bits], bits)

    @pytest.mark.parametrize("k, batch", [(1, 32), (5, 4), (4, 4)])
    def test_failure_surfaces_where_the_lone_solves_fail(self, monkeypatch, k, batch):
        # allocation k's eigh fails at its second update; before that error the
        # lone solves warn once per allocation solved (a spectral_efficiency
        # spy) and store those allocations' reports, and so does _best
        H = saleh_valenzuela(8, 4, seed=3)
        kw = dict(pt=1.0, sigma_n2=0.1, ns=2)
        allocations = enumerate_allocations(4, 3, 8)[:8]
        starts = {bits: altmin_beamforming(H, bits, 1.0, 0.1, 2, max_iter=3)[1]
                  for bits in allocations[::3] if bits != allocations[k]}
        eigh, se = _umath_linalg.eigh_lo, beamforming.spectral_efficiency
        seen = []

        def recording(a, **kwargs):
            seen.append(a.reshape(-1, *a.shape[-2:])[0].copy())
            return eigh(a, **kwargs)

        monkeypatch.setattr(_umath_linalg, "eigh_lo", recording)
        altmin_beamforming(H, allocations[k], 1.0, 0.1, 2, max_iter=30)
        bad = seen[1]

        def failing(a, **kwargs):
            if any(np.array_equal(x, bad) for x in a.reshape(-1, *a.shape[-2:])):
                zero = np.zeros(())
                zero / zero  # the invalid flag LAPACK's failure raises
            return eigh(a, **kwargs)

        def warning_se(H, F, U, g, C_e):
            warnings.warn(f"SE at gains {g.tolist()}", RuntimeWarning)
            return se(H, F, U, g, C_e)

        monkeypatch.setattr(_umath_linalg, "eigh_lo", failing)
        monkeypatch.setattr(beamforming, "spectral_efficiency", warning_se)
        monkeypatch.setattr(beamforming, "_BATCH", batch)
        outcomes = []
        for run in (lambda store: lone_solves(H, allocations, kw, 30, store),
                    lambda store: bitalloc._best(H, allocations, 1.0, 0.1, 2, 1e-4, 30, store)):
            store = dict(starts)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(np.linalg.LinAlgError) as error:
                    run(store)
            outcomes.append((str(error.value), [str(w.message) for w in caught], store))
        (message, warned, store), (got_message, got_warned, got_store) = outcomes
        assert message == got_message == "Eigenvalues did not converge"
        assert len(warned) == k and got_warned == warned
        assert got_store.keys() == store.keys()
        for bits in store:
            assert_same_report(got_store[bits], store[bits], bits)

    def test_stack_memory_is_bounded_by_the_chunk(self, monkeypatch):
        # 200 64x64 allocations; the stacked arrays hold a few complex Nr x Nr
        # matrices per problem, so the chunk bounds the peak and one stack of all
        # 200 would exceed it
        H = saleh_valenzuela(64, 64, seed=0)
        rng = np.random.default_rng(0)
        allocations = sorted({tuple(rng.integers(1, 4, 64).tolist()) for _ in range(200)})
        assert len(allocations) >= 200
        bound = 6 * beamforming._BATCH * 64 * 64 * 16
        peaks = []
        for batch in (beamforming._BATCH, len(allocations)):
            monkeypatch.setattr(beamforming, "_BATCH", batch)
            tracemalloc.start()
            try:
                bitalloc._best(H, allocations, 1.0, 0.01, 8, 1e-4, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < bound < peaks[1], (peaks, bound)

    @pytest.mark.parametrize("with_store", [False, True])
    def test_one_resuming_solve_per_scored_allocation(self, monkeypatch, with_store):
        # the tracer counts one AltMin span per scored allocation: each _best
        # list calls altmin_beamforming once per allocation, in list order, and
        # each call resumes a finished stacked report with no update of its own
        H = saleh_valenzuela(8, 4, seed=11)
        kw = dict(pt=1.0, sigma_n2=0.01, ns=2, b_max=3, budget=8)
        solve, best, update = (bitalloc.altmin_beamforming, bitalloc._best,
                               beamforming.update_precoder)
        lists, calls, updates = [], [], [0]

        def listed(H, allocations, *args):
            lists.append(list(allocations))
            return best(H, allocations, *args)

        def counted(*args):
            updates[0] += 1
            return update(*args)

        def spied(H, bits, pt, sigma_n2, ns, eps=1e-4, max_iter=500, start=None):
            before = updates[0]
            result = solve(H, bits, pt, sigma_n2, ns, eps=eps, max_iter=max_iter, start=start)
            calls.append((bits, start, result[1], max_iter, updates[0] - before))
            return result

        monkeypatch.setattr(bitalloc, "_best", listed)
        monkeypatch.setattr(bitalloc, "altmin_beamforming", spied)
        monkeypatch.setattr(beamforming, "update_precoder", counted)
        store = {} if with_store else None
        res = gpos_bfba(H, solved=store, **kw)
        gpos_calls, gpos_lists = list(calls), list(lists)
        calls.clear(), lists.clear()
        exhaustive_search(H, solved=store, **kw)
        for made, scored in ((gpos_calls[:-1], gpos_lists), (calls, lists)):
            assert [c[0] for c in made] == [bits for allocs in scored for bits in allocs]
            for bits, start, rep, max_iter, fresh in made:
                assert math.isnan(start.final_se), bits
                assert start.converged or start.iterations == max_iter, bits
                assert (rep.iterations, fresh) == (start.iterations, 0), bits
        assert [c[0] for c in gpos_calls] == [*res.scored_allocations, res.allocation]
        # GPOS's final solve continues the incumbent's scoring report, kept in the store
        kept = [rep for bits, _, rep, *_ in gpos_calls[:-1] if bits == res.allocation]
        assert gpos_calls[-1][1] is (kept[-1] if with_store else None)


class TestSeCeiling:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bounds_any_precoder_and_combiner(self, data):
        nt = data.draw(st.integers(1, 8), label="nt")
        nr = data.draw(st.integers(1, 8), label="nr")
        ns = data.draw(st.integers(1, min(nt, nr)), label="ns")
        bits = tuple(data.draw(st.lists(st.integers(1, 10), min_size=nr, max_size=nr),
                               label="bits"))
        snr_db = data.draw(st.floats(-10, 40), label="snr_db")
        pt = data.draw(st.floats(0.1, 10), label="pt")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        H = saleh_valenzuela(nt, nr, seed=int(rng.integers(2**32)))
        F = rng.standard_normal((nt, ns)) + 1j * rng.standard_normal((nt, ns))
        F *= np.sqrt(pt) / np.linalg.norm(F)
        U = rng.standard_normal((nr, ns)) + 1j * rng.standard_normal((nr, ns))
        sigma_n2 = pt / 10 ** (snr_db / 10)
        g = gain_diagonal(bits, nr)
        ce = effective_noise_cov(H @ F, *noise_weights(g, sigma_n2))
        se = spectral_efficiency(H, F, U, g, ce)
        assert se <= se_ceiling(H, bits, pt, sigma_n2, ns) + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bounds_altmin(self, data):
        nt = data.draw(st.integers(2, 8), label="nt")
        nr = data.draw(st.integers(2, 6), label="nr")
        ns = data.draw(st.integers(1, min(nt, nr)), label="ns")
        bits = tuple(data.draw(st.lists(st.integers(1, 6), min_size=nr, max_size=nr),
                               label="bits"))
        snr_db = data.draw(st.sampled_from([0, 10, 20, 30]), label="snr_db")
        H = saleh_valenzuela(nt, nr, seed=data.draw(st.integers(0, 10**6), label="seed"))
        sigma_n2 = 10 ** (-snr_db / 10)
        _, rep = altmin_beamforming(H, bits, 1.0, sigma_n2, ns)
        # the precoder meets pt only to its power tolerance; the oracle
        # bounds the same slightly larger power
        ceiling = se_ceiling(H, bits, 1.0 + bitalloc._POWER_SLACK, sigma_n2, ns)
        assert rep.final_se <= ceiling + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.permutations((1, 1, 2, 3, 5, 8)), st.integers(0, 10**6))
    def test_depends_on_multiset_only(self, bits, seed):
        H = saleh_valenzuela(8, 6, seed=seed)
        ceiling = se_ceiling(H, (1, 1, 2, 3, 5, 8), 1.0, 0.01, 3)
        assert se_ceiling(H, tuple(bits), 1.0, 0.01, 3) == ceiling

    def test_noiseless_one_bit_limit_is_criterion_07_ceiling(self):
        nr, ns = 16, 4
        H = saleh_valenzuela(16, nr, seed=7000)
        g = 2 / np.pi
        limit = ns * np.log2(1 + nr / ns * g / (1 - g))
        ceilings = [se_ceiling(H, (1,) * nr, 1.0, sigma_n2, ns)
                    for sigma_n2 in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert np.all(np.diff(ceilings) > 0)
        assert ceilings[-1] == pytest.approx(limit, rel=1e-6)


class TestTieBreak:
    """Allocations scored by their multiset only: every permutation ties."""

    SCORE = {(1, 2, 2, 3): 2.0}   # the best multiset; every other one scores 1.0

    @pytest.fixture
    def multiset_scores(self, monkeypatch):
        def fake_altmin(H, bits, pt, sigma_n2, ns, eps, max_iter, start=None):
            return None, SimpleNamespace(final_se=self.SCORE.get(tuple(sorted(bits)), 1.0))

        monkeypatch.setattr(bitalloc, "altmin_beamforming", fake_altmin)

    @pytest.mark.parametrize("order", [list, lambda allocs: allocs[::-1]])
    def test_exhaustive_returns_smallest_tied_maximum(self, multiset_scores, monkeypatch, order):
        # the tie-break holds whatever order the candidates are solved in
        enumerate_in_order = enumerate_allocations
        monkeypatch.setattr(bitalloc, "enumerate_allocations",
                            lambda *args: order(enumerate_in_order(*args)))
        H, kw = small_problem(0)
        bits, se = exhaustive_search(H, **kw)
        assert bits == (1, 2, 2, 3)
        assert se == 2.0

    def test_gpos_keeps_greedy_on_ties(self, multiset_scores):
        # every neighbor is a permutation of the incumbent, so none improves it
        H, kw = small_problem(0)
        res = gpos_bfba(H, **kw)
        assert res.allocation == greedy_init(4, 3, 8) == (1, 1, 3, 3)
        assert res.iterations == 1
        np.testing.assert_array_equal(res.se_trace, [1.0, 1.0])
