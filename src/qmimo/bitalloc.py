"""Per-chain ADC bit allocation under a total-bit budget.

Resolutions live in {1, ..., b_max} and must sum to the active-bit budget,
which the caller passes in (``PointConfig.budget`` is floor(varsigma *
b_total)). A greedy sweep produces the starting allocation; a pair-swap
neighborhood search with a visited list improves it, scoring candidates by
short alternating-minimization solves. An exhaustive enumeration is kept
as the optimality oracle for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
import numpy as np

from .beamforming import Beamformers, altmin_beamforming

__all__ = [
    "BitAllocation",
    "GposResult",
    "greedy_init",
    "neighbor_set",
    "gpos_bfba",
    "exhaustive_search",
]

#: Largest unconstrained search space b_max^Nr the exhaustive oracle accepts.
MAX_SEARCH_SPACE = 10**6


@dataclass(frozen=True)
class BitAllocation:
    """A feasible per-chain resolution vector with its constraints."""

    bits: tuple[int, ...]
    b_max: int
    budget: int

    def __post_init__(self):
        if any(b < 1 or b > self.b_max for b in self.bits):
            raise ValueError(
                f"resolutions must lie in [1, {self.b_max}], got {self.bits}"
            )
        if sum(self.bits) != self.budget:
            raise ValueError(
                f"allocation sums to {sum(self.bits)}, budget is {self.budget}"
            )

    def __len__(self) -> int:
        return len(self.bits)


def _check_feasible(nr: int, b_max: int, budget: int) -> None:
    if budget < nr:
        raise ValueError(
            f"budget {budget} < Nr={nr}: cannot give every chain >= 1 bit"
        )
    if budget > nr * b_max:
        raise ValueError(
            f"budget {budget} > Nr*b_max={nr * b_max}: budget not reachable"
        )


def greedy_init(nr: int, b_max: int, budget: int) -> BitAllocation:
    """Greedy starting allocation: all chains at b_max, then sweep down.

    Chains are visited in index order, each decremented to a floor of 1
    until the sum equals the active-bit budget.
    """
    _check_feasible(nr, b_max, budget)
    bits = [b_max] * nr
    for n in range(nr):
        while bits[n] >= 2 and sum(bits) > budget:
            bits[n] -= 1
        if sum(bits) == budget:
            break
    return BitAllocation(bits=tuple(bits), b_max=b_max, budget=budget)


def neighbor_set(alloc: BitAllocation, tabu: set[tuple[int, ...]]) -> list[BitAllocation]:
    """All swap neighbors of an allocation not yet visited.

    A neighbor swaps positions (i, j) with unequal values, which preserves
    the bit sum and the bounds; there are at most Nr(Nr-1)/2 of them.
    """
    out = []
    seen = set()
    bits = alloc.bits
    nr = len(bits)
    for i in range(nr):
        for j in range(i + 1, nr):
            if bits[i] == bits[j]:
                continue
            cand = list(bits)
            cand[i], cand[j] = cand[j], cand[i]
            cand = tuple(cand)
            if cand in tabu or cand in seen:
                continue
            seen.add(cand)
            out.append(BitAllocation(bits=cand, b_max=alloc.b_max, budget=alloc.budget))
    return out


@dataclass(frozen=True)
class GposResult:
    allocation: BitAllocation
    beamformers: Beamformers
    se: float
    iterations: int
    se_trace: np.ndarray          # incumbent (scoring) SE per search iteration
    scored_allocations: tuple[tuple[int, ...], ...]


def gpos_bfba(H: np.ndarray, *, pt: float, sigma_n2: float, ns: int,
              b_max: int, budget: int, i2: int = 15, scoring_max_iter: int = 30,
              eps: float = 1e-4, max_iter: int = 500) -> GposResult:
    """Greedy pair-order search over bit allocations with joint beamforming.

    Each search iteration scores every unvisited swap neighbor of the
    current candidate with a short (``scoring_max_iter``-capped)
    alternating-minimization solve, moves to the best one if it strictly
    improves the incumbent, and stops after ``i2`` iterations or when the
    neighborhood is exhausted. The returned beamformers come from a
    full-convergence solve at the incumbent. Ties between equal-SE
    neighbors break toward the lexicographically smallest allocation.
    """
    incumbent = greedy_init(H.shape[0], b_max, budget)

    scored: list[tuple[int, ...]] = []

    def score(alloc: BitAllocation) -> float:
        scored.append(alloc.bits)
        _, rep = altmin_beamforming(
            H, alloc.bits, pt, sigma_n2, ns,
            eps=eps, max_iter=scoring_max_iter,
        )
        return rep.final_se

    visited: set[tuple[int, ...]] = {incumbent.bits}
    best_se = score(incumbent)
    se_trace = [best_se]
    candidate = incumbent
    iterations = 0
    for iterations in range(1, i2 + 1):
        neighbors = neighbor_set(candidate, visited)
        visited.update(n.bits for n in neighbors)
        if not neighbors:
            iterations -= 1
            break
        ranked = sorted(
            ((score(n), n) for n in neighbors),
            key=lambda pair: (-pair[0], pair[1].bits),
        )
        se_best, alloc_best = ranked[0]
        if se_best > best_se:
            best_se, incumbent = se_best, alloc_best
        candidate = incumbent
        se_trace.append(best_se)
    beamformers, report = altmin_beamforming(
        H, incumbent.bits, pt, sigma_n2, ns, eps=eps, max_iter=max_iter
    )
    return GposResult(
        allocation=incumbent,
        beamformers=beamformers,
        se=report.final_se,
        iterations=iterations,
        se_trace=np.asarray(se_trace),
        scored_allocations=tuple(scored),
    )


def enumerate_allocations(nr: int, b_max: int, budget: int) -> list[tuple[int, ...]]:
    """All vectors in {1..b_max}^nr summing to the budget, lexicographic order."""
    _check_feasible(nr, b_max, budget)
    return [t for t in product(range(1, b_max + 1), repeat=nr) if sum(t) == budget]


def exhaustive_search(H: np.ndarray, *, pt: float, sigma_n2: float, ns: int,
                      b_max: int, budget: int, eps: float = 1e-4,
                      max_iter: int = 500) -> tuple[BitAllocation, float]:
    """Score every feasible allocation with a full solve; return the best.

    Refuses instances whose unconstrained search space b_max^Nr exceeds
    ``MAX_SEARCH_SPACE``. Ties break toward the lexicographically smallest
    allocation, which makes the result deterministic.
    """
    nr = H.shape[0]
    if b_max**nr > MAX_SEARCH_SPACE:
        raise ValueError(
            f"exhaustive search over ~{b_max}^{nr} allocations "
            f"exceeds the size guard {MAX_SEARCH_SPACE:g}"
        )
    best_se = -np.inf
    best: tuple[int, ...] | None = None
    for bits in enumerate_allocations(nr, b_max, budget):
        _, rep = altmin_beamforming(H, bits, pt, sigma_n2, ns, eps=eps, max_iter=max_iter)
        if rep.final_se > best_se:
            best_se, best = rep.final_se, bits
    return BitAllocation(bits=best, b_max=b_max, budget=budget), float(best_se)
