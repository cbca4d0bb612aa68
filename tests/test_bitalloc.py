"""Greedy initialization, swap neighborhoods, GPOS and the exhaustive oracle."""

import numpy as np
import pytest

from qmimo.bitalloc import (
    BitAllocation,
    enumerate_allocations,
    exhaustive_search,
    gpos_bfba,
    greedy_init,
    neighbor_set,
)
from qmimo.beamforming import altmin_beamforming
from qmimo.channel import saleh_valenzuela


class TestGreedyInit:
    def test_no_reduction_needed(self):
        a = greedy_init(4, 3, 12)
        assert a.bits == (3, 3, 3, 3)

    def test_partial_reduction(self):
        # chains drop to the floor in index order until the budget is met
        a = greedy_init(4, 3, 8)
        assert a.bits == (1, 1, 3, 3)

    def test_floor_everywhere(self):
        a = greedy_init(4, 3, 4)
        assert a.bits == (1, 1, 1, 1)

    def test_infeasible_low(self):
        with pytest.raises(ValueError, match="Nr"):
            greedy_init(4, 3, 3)

    def test_infeasible_high(self):
        with pytest.raises(ValueError, match="b_max"):
            greedy_init(4, 3, 13)


class TestBitAllocation:
    def test_validation(self):
        with pytest.raises(ValueError):
            BitAllocation(bits=(0, 2), b_max=3, budget=2)
        with pytest.raises(ValueError):
            BitAllocation(bits=(4, 2), b_max=3, budget=6)
        with pytest.raises(ValueError):
            BitAllocation(bits=(2, 2), b_max=3, budget=5)


class TestNeighborSet:
    def test_all_equal_has_no_neighbors(self):
        a = BitAllocation(bits=(2, 2, 2), b_max=3, budget=6)
        assert neighbor_set(a, set()) == []

    def test_single_swap(self):
        a = BitAllocation(bits=(1, 3), b_max=3, budget=4)
        out = neighbor_set(a, set())
        assert [n.bits for n in out] == [(3, 1)]

    def test_three_unequal(self):
        a = BitAllocation(bits=(1, 2, 3), b_max=3, budget=6)
        out = {n.bits for n in neighbor_set(a, set())}
        assert out == {(2, 1, 3), (3, 2, 1), (1, 3, 2)}
        assert len(out) == 3  # = Nr(Nr-1)/2

    def test_tabu_excluded(self):
        a = BitAllocation(bits=(1, 2, 3), b_max=3, budget=6)
        out = {n.bits for n in neighbor_set(a, {(3, 2, 1)})}
        assert out == {(2, 1, 3), (1, 3, 2)}

    def test_swaps_preserve_sum_and_bounds(self):
        a = BitAllocation(bits=(1, 3, 2, 3, 1), b_max=3, budget=10)
        for n in neighbor_set(a, set()):
            assert sum(n.bits) == 10
            assert all(1 <= b <= 3 for b in n.bits)


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
    H = saleh_valenzuela(8, 4, seed=seed).H
    return H, dict(pt=1.0, sigma_n2=0.01, ns=2, b_max=3, budget=8)


class TestGpos:
    def test_uniform_budget_degenerates_to_beamforming(self):
        # all chains equal: no swap exists, search exits immediately
        H, kw = small_problem(0)
        res = gpos_bfba(H, **{**kw, "budget": 12})
        assert res.allocation.bits == (3, 3, 3, 3)
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
        assert sorted(res.allocation.bits) == [1, 1, 3, 3]

    def test_deterministic(self):
        H, kw = small_problem(5)
        a = gpos_bfba(H, **kw)
        b = gpos_bfba(H, **kw)
        assert a.allocation == b.allocation
        assert a.se == b.se


class TestExhaustive:
    def test_single_candidate_all_ones(self):
        H, kw = small_problem(6)
        alloc, _ = exhaustive_search(H, **{**kw, "budget": 4})
        assert alloc.bits == (1, 1, 1, 1)

    def test_single_candidate_all_max(self):
        H, kw = small_problem(7)
        alloc, _ = exhaustive_search(H, **{**kw, "budget": 12})
        assert alloc.bits == (3, 3, 3, 3)

    def test_size_guard(self):
        H = saleh_valenzuela(8, 8, seed=8).H
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
