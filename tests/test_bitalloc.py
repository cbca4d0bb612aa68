"""Greedy initialization, swap neighborhoods, GPOS and the exhaustive oracle."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmimo.bitalloc as bitalloc
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
    """GPOS's final solve continues the incumbent's scoring solve: the floats of a solve from F0."""

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
        finals = []

        def recorded(*args, **kwargs):
            result = solve(*args, **kwargs)
            if kwargs.get("start") is not None:
                finals.append((kwargs["start"], result[1]))
            return result

        monkeypatch.setattr(bitalloc, "altmin_beamforming", recorded)
        seen = set()
        for snr_db in (0, 10, 20, 30):
            kw = dict(pt=1.0, sigma_n2=10 ** (-snr_db / 10), ns=2, b_max=3, budget=8)
            for seed in range(8000, 8010):
                H = saleh_valenzuela(8, 4, seed=seed)
                finals.clear()
                res = gpos_bfba(H, i2=i2, scoring_max_iter=scoring_max_iter, max_iter=max_iter,
                                **kw)
                (kept, rep), = finals
                if i2 == 0:
                    assert res.allocation == greedy_init(4, 3, 8)
                seen.add("longer" if kept.iterations > max_iter
                         else "converged" if kept.converged else "capped")
                bf, fresh = altmin_beamforming(H, res.allocation, kw["pt"], kw["sigma_n2"],
                                               kw["ns"], max_iter=max_iter)
                where = f"{snr_db} dB, seed {seed}"
                assert res.se == rep.final_se == fresh.final_se, where
                assert (rep.iterations, rep.converged) == (fresh.iterations, fresh.converged), where
                np.testing.assert_array_equal(rep.objective_trace, fresh.objective_trace)
                for x, y in ((res.beamformers.F, bf.F), (res.beamformers.U, bf.U),
                             (res.beamformers.W, bf.W)):
                    np.testing.assert_array_equal(x, y, err_msg=where)
        assert seen == kinds


class TestOracleContinuation:
    """ES continues the channel's AltMinBF and GPOS solves: the result of solving afresh."""

    @pytest.mark.parametrize("scoring_max_iter, max_iter, kinds", [
        # scoring solves that converged before their cap, and ones it stopped
        (30, 500, {"fresh", "converged", "capped"}),
        # scoring solves longer than max_iter, whose starts ES ignores, and an
        # AltMinBF solve that stopped at max_iter
        (40, 20, {"fresh", "converged", "capped", "longer", "AltMinBF capped"}),
    ])
    def test_matches_a_search_from_f0(self, monkeypatch, scoring_max_iter, max_iter, kinds):
        solve = bitalloc.altmin_beamforming
        starts = []

        def recorded(*args, **kwargs):
            starts.append((args[1], kwargs.get("start")))
            return solve(*args, **kwargs)

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
                monkeypatch.setattr(bitalloc, "altmin_beamforming", recorded)
                starts.clear()
                got = exhaustive_search(H, solved=solved, **kw)
                monkeypatch.setattr(bitalloc, "altmin_beamforming", solve)
                assert got == exhaustive_search(H, **kw), where
                for bits, start in starts:
                    # every allocation solved before ES continues, no other does
                    assert start is kept.get(bits), (where, bits)
                    seen.add("fresh" if start is None
                             else "longer" if start.iterations > max_iter
                             else "AltMinBF capped" if start is altmin and not start.converged
                             else "converged" if start.converged else "capped")
        assert seen == kinds


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
