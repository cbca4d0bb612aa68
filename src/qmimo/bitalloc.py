"""Per-chain ADC bit allocation under a total-bit budget.

An allocation is a tuple of per-chain resolutions in {1, ..., b_max} that
sums to the active-bit budget, which the caller passes in
(``PointConfig.budget`` is floor(varsigma * b_total)). A greedy sweep
produces the starting allocation; a pair-swap neighborhood search with a
visited list improves it, scoring candidates by short
alternating-minimization solves. An exhaustive enumeration is kept as the
optimality oracle for small instances. Both pick the best of a list of
allocations through one scorer, ``_best``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
import numpy as np

from .beamforming import Beamformers, altmin_beamforming

__all__ = [
    "GposResult",
    "greedy_init",
    "neighbor_set",
    "gpos_bfba",
    "exhaustive_search",
]

#: Largest unconstrained search space b_max^Nr the exhaustive oracle accepts.
MAX_SEARCH_SPACE = 10**6


def _check_feasible(nr: int, b_max: int, budget: int) -> None:
    if budget < nr:
        raise ValueError(
            f"budget {budget} < Nr={nr}: cannot give every chain >= 1 bit"
        )
    if budget > nr * b_max:
        raise ValueError(
            f"budget {budget} > Nr*b_max={nr * b_max}: budget not reachable"
        )


def greedy_init(nr: int, b_max: int, budget: int) -> tuple[int, ...]:
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
    return tuple(bits)


def neighbor_set(bits: tuple[int, ...], tabu: set[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All swap neighbors of an allocation not yet visited.

    A neighbor swaps positions (i, j) with unequal values, which preserves
    the bit sum and the bounds; there are at most Nr(Nr-1)/2 of them.
    """
    out = []
    nr = len(bits)
    for i in range(nr):
        for j in range(i + 1, nr):
            if bits[i] == bits[j]:
                continue
            cand = list(bits)
            cand[i], cand[j] = cand[j], cand[i]
            cand = tuple(cand)
            if cand not in tabu:
                out.append(cand)
    return out


def _best(H: np.ndarray, allocations: list[tuple[int, ...]], pt: float, sigma_n2: float,
          ns: int, eps: float, max_iter: int) -> tuple[float, tuple[int, ...]]:
    """Solve each allocation in order; ``(se, bits)`` of the highest SE, ties to the smallest bits."""
    scored = []
    for bits in allocations:
        _, rep = altmin_beamforming(H, bits, pt, sigma_n2, ns, eps=eps, max_iter=max_iter)
        scored.append((rep.final_se, bits))
    return min(scored, key=lambda pair: (-pair[0], pair[1]))


@dataclass(frozen=True)
class GposResult:
    allocation: tuple[int, ...]
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
    incumbent with a short (``scoring_max_iter``-capped)
    alternating-minimization solve, moves to the best one if it strictly
    improves the incumbent, and stops after ``i2`` iterations or when the
    neighborhood is exhausted. The returned beamformers come from a
    full-convergence solve at the incumbent. Ties between equal-SE
    neighbors break toward the lexicographically smallest allocation.
    """
    incumbent = greedy_init(H.shape[0], b_max, budget)
    scored = [incumbent]
    visited = {incumbent}
    best_se, _ = _best(H, [incumbent], pt, sigma_n2, ns, eps, scoring_max_iter)
    se_trace = [best_se]
    iterations = 0
    for iterations in range(1, i2 + 1):
        neighbors = neighbor_set(incumbent, visited)
        if not neighbors:
            iterations -= 1
            break
        visited.update(neighbors)
        scored += neighbors
        se, bits = _best(H, neighbors, pt, sigma_n2, ns, eps, scoring_max_iter)
        if se > best_se:
            best_se, incumbent = se, bits
        se_trace.append(best_se)
    beamformers, report = altmin_beamforming(
        H, incumbent, pt, sigma_n2, ns, eps=eps, max_iter=max_iter
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


def _check_oracle(nr: int, b_max: int, budget: int) -> None:
    """Raise ``ValueError`` for an instance the exhaustive oracle refuses."""
    if b_max**nr > MAX_SEARCH_SPACE:
        raise ValueError(
            f"exhaustive oracle over ~{b_max}^{nr} allocations "
            f"exceeds the size guard {MAX_SEARCH_SPACE:g}"
        )
    _check_feasible(nr, b_max, budget)


def exhaustive_search(H: np.ndarray, *, pt: float, sigma_n2: float, ns: int,
                      b_max: int, budget: int, eps: float = 1e-4,
                      max_iter: int = 500) -> tuple[tuple[int, ...], float]:
    """Score every feasible allocation with a full solve; return ``(bits, se)``.

    Refuses instances whose unconstrained search space b_max^Nr exceeds
    ``MAX_SEARCH_SPACE``. Ties break toward the lexicographically smallest
    allocation, which makes the result deterministic.
    """
    nr = H.shape[0]
    _check_oracle(nr, b_max, budget)
    se, bits = _best(H, enumerate_allocations(nr, b_max, budget), pt, sigma_n2, ns,
                     eps, max_iter)
    return bits, float(se)
