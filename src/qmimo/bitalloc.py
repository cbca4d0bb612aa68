"""Per-chain ADC bit allocation under a total-bit budget.

An allocation is a tuple of per-chain resolutions in {1, ..., b_max}
summing to the caller's active-bit budget (``PointConfig.budget``). A
greedy sweep produces the starting allocation; a pair-swap neighborhood
search with a visited list improves it, scoring candidates by short
alternating-minimization solves. An exhaustive oracle returns the optimum
over every feasible allocation of a small instance. Both pick the best of
a list of allocations through one scorer, ``_best``, which runs the AltMin
iterations of the list stacked (README, "Bit allocation"). Both take an
optional ``solved`` dict, allocation to the ``AltMinReport`` of its latest
solve on the same H. Each solve continues the stored report
(``altmin_beamforming``'s ``start``), ``_best``'s through its stack, and
``_solve`` stores its report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .beamforming import _POWER_RTOL, AltMinReport, Beamformers, _altmin_batch, altmin_beamforming
from .bussgang import gain_diagonal

__all__ = [
    "GposResult",
    "greedy_init",
    "neighbor_set",
    "gpos_bfba",
    "exhaustive_search",
    "se_ceiling",
]

#: Largest unconstrained search space b_max^Nr the exhaustive oracle accepts.
MAX_SEARCH_SPACE = 10**6
# AltMin's precoder meets pt only to within beamforming._POWER_RTOL, so the
# oracle bounds a power ten times that above pt
_POWER_SLACK = 10 * _POWER_RTOL
# the oracle skips a multiset only if its ceiling is below the incumbent SE
# by more than this relative margin, far above the rounding of either
_PRUNE_RTOL = 1e-9


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


def _rank(scored: tuple) -> tuple[float, tuple[int, ...]]:
    """Sort key of an ``(se, bits, ...)`` tuple: highest SE first, ties to the smallest bits."""
    return -scored[0], scored[1]


def _solve(H: np.ndarray, bits: tuple[int, ...], pt: float, sigma_n2: float, ns: int,
           eps: float, max_iter: int, solved: Optional[dict],
           start: Optional[AltMinReport] = None) -> tuple[Beamformers, AltMinReport]:
    """Solve ``bits`` continuing ``start``, by default ``solved[bits]``, then store the report.

    ``solved=None``: no store, and without ``start`` a solve from F0.
    """
    if start is None and solved is not None:
        start = solved.get(bits)
    result = altmin_beamforming(H, bits, pt, sigma_n2, ns, eps=eps, max_iter=max_iter,
                                start=start)
    if solved is not None:
        solved[bits] = result[1]
    return result


def _best(H: np.ndarray, allocations: list[tuple[int, ...]], pt: float, sigma_n2: float,
          ns: int, eps: float, max_iter: int,
          solved: Optional[dict] = None) -> tuple[float, tuple[int, ...]]:
    """Solve each allocation in order; ``(se, bits)`` of the highest SE, ties to the smallest bits.

    The iterations run stacked from the stored starts (``_altmin_batch``);
    each allocation's ``_solve`` then resumes its finished report.
    """
    starts = [None if solved is None else solved.get(bits) for bits in allocations]
    starts = _altmin_batch(H, allocations, pt, sigma_n2, ns, eps, max_iter, starts)
    return min(((_solve(H, bits, pt, sigma_n2, ns, eps, max_iter, solved, start)[1].final_se,
                 bits) for bits, start in zip(allocations, starts)), key=_rank)


@dataclass(frozen=True)
class GposResult:
    allocation: tuple[int, ...]
    beamformers: Beamformers
    se: float
    iterations: int
    se_trace: np.ndarray          # incumbent (scoring) SE per search iteration
    scored_allocations: tuple[tuple[int, ...], ...]
    final_report: AltMinReport    # of the full-convergence solve at the allocation


def gpos_bfba(H: np.ndarray, *, pt: float, sigma_n2: float, ns: int,
              b_max: int, budget: int, i2: int = 15, scoring_max_iter: int = 30,
              eps: float = 1e-4, max_iter: int = 500,
              solved: Optional[dict] = None) -> GposResult:
    """Greedy pair-order search over bit allocations with joint beamforming.

    Each search iteration scores every unvisited swap neighbor of the
    incumbent with a short (``scoring_max_iter``-capped)
    alternating-minimization solve, moves to the best one if it strictly
    improves the incumbent, and stops after ``i2`` iterations or when the
    neighborhood is exhausted. The returned beamformers come from a
    full-convergence solve at the incumbent. Ties between equal-SE
    neighbors break toward the lexicographically smallest allocation. Every
    solve, the final one too, continues ``solved`` (module docstring).
    """
    incumbent = greedy_init(H.shape[0], b_max, budget)
    scored = [incumbent]
    visited = {incumbent}
    best_se, _ = _best(H, [incumbent], pt, sigma_n2, ns, eps, scoring_max_iter, solved)
    se_trace = [best_se]
    for _ in range(i2):
        neighbors = neighbor_set(incumbent, visited)
        if not neighbors:
            break
        visited.update(neighbors)
        scored += neighbors
        se, bits = _best(H, neighbors, pt, sigma_n2, ns, eps, scoring_max_iter, solved)
        if se > best_se:
            best_se, incumbent = se, bits
        se_trace.append(best_se)
    beamformers, report = _solve(H, incumbent, pt, sigma_n2, ns, eps, max_iter, solved)
    return GposResult(
        allocation=incumbent,
        beamformers=beamformers,
        se=report.final_se,
        iterations=len(se_trace) - 1,
        se_trace=np.asarray(se_trace),
        scored_allocations=tuple(scored),
        final_report=report,
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


def se_ceiling(H: np.ndarray, bits: tuple[int, ...], pt: float, sigma_n2: float,
               ns: int) -> float:
    """Certified upper bound on the SE of ``bits`` over every ``F`` with ``||F||_F^2 <= pt``.

    With ``A = H F``, ``d_k = ||A_k||^2`` and
    ``w_k = g_k / ((1 - g_k) d_k + sigma_n2)``, the MMSE combiner, which no
    other combiner beats, reaches ``log2 det(I + A^H diag(w) A)``. Hadamard's
    inequality and AM-GM bound that by ``Ns log2(1 + T / Ns)``, where T is the
    largest ``sum_k g_k d_k / ((1 - g_k) d_k + sigma_n2)`` over ``d >= 0`` with
    ``sum d <= D = pt ||H||_2^2``. T is separable and concave; its Lagrangian
    dual ``q(nu) = nu D + sum_k g_k / (1 - g_k) (1 - sqrt(sigma_n2 nu / g_k))_+^2``
    is at least T at every ``nu >= 0`` (weak duality). It is evaluated at the
    multiplier of the water-filling on ``nu**-0.5``, so rounding in that
    multiplier loosens the bound but never breaks it. The bound depends on
    ``bits`` only through its multiset.
    """
    if not sigma_n2 > 0:
        raise ValueError(f"sigma_n2 must be positive, got {sigma_n2}")
    g = np.sort(gain_diagonal(bits, H.shape[0]))[::-1]
    big_d = pt * np.linalg.norm(H, 2) ** 2
    # water level x = nu**-0.5 with the k strongest chains active, from
    # sum over them of (sqrt(g sigma_n2) x - sigma_n2) / (1 - g) = D
    x = ((big_d + sigma_n2 * np.cumsum(1.0 / (1.0 - g)))
         / (np.sqrt(sigma_n2) * np.cumsum(np.sqrt(g) / (1.0 - g))))
    active = np.flatnonzero(x > np.sqrt(sigma_n2 / g))
    nu = x[active[-1]] ** -2.0 if active.size else g[0] / sigma_n2
    gap = np.clip(1.0 - np.sqrt(sigma_n2 * nu / g), 0.0, None)
    t = nu * big_d + float(np.sum(g / (1.0 - g) * gap**2))
    return ns * float(np.log2(1.0 + t / ns))


def exhaustive_search(H: np.ndarray, *, pt: float, sigma_n2: float, ns: int,
                      b_max: int, budget: int, eps: float = 1e-4, max_iter: int = 500,
                      solved: Optional[dict] = None) -> tuple[tuple[int, ...], float]:
    """The best feasible allocation and its SE, ``(bits, se)``, from full solves.

    The result is that of solving every allocation, ties broken toward the
    lexicographically smallest; multisets whose :func:`se_ceiling` lies
    below the incumbent are skipped (README, "CLI", ``--oracle``).
    Continuing ``solved`` (module docstring) changes no float or entry. Raises
    ``ValueError`` if the unconstrained search space b_max^Nr exceeds
    ``MAX_SEARCH_SPACE`` or the budget is infeasible.
    """
    nr = H.shape[0]
    _check_oracle(nr, b_max, budget)
    multisets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for bits in enumerate_allocations(nr, b_max, budget):
        multisets.setdefault(tuple(sorted(bits)), []).append(bits)
    ceiling = {m: se_ceiling(H, m, pt * (1.0 + _POWER_SLACK), sigma_n2, ns)
               for m in multisets}
    best = None
    for m in sorted(multisets, key=lambda m: (-ceiling[m], m)):
        if best is not None and ceiling[m] < best[0] * (1.0 - _PRUNE_RTOL):
            break
        # a copy: no later solve reads the oracle's own reports
        winner = _best(H, multisets[m], pt, sigma_n2, ns, eps, max_iter, dict(solved or {}))
        best = winner if best is None else min(best, winner, key=_rank)
    se, bits = best
    return bits, float(se)
