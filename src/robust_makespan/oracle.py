"""Exhaustive reference computations for small instances.

Everything here enumerates permutations and/or extreme scenarios outright
and is meant for cross-checking the solvers in tests and `verify`; sizes
are capped accordingly (n <= 7 for scenario grids, n <= 6 where every
grid point also needs its own permutation enumeration). The four oracles
are one enumeration, `_min_max`, which runs the completion-time recursion
itself in Python integers: no pricing, sorting or checking code of the
library runs here, so an oracle never agrees with a solver by sharing it.
"""
from __future__ import annotations

import functools
from itertools import combinations, permutations

from .core import Instance, Scenario, Schedule

_MAX_PERMUTATION_N = 10
_MAX_GRID_N = 7
_MAX_REGRET_GRID_N = 6


def _require_small(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"refusing brute force for n={n} (cap {cap})")


def _min_max(instance: Instance, grid: list[tuple[tuple[int, ...], int]], orders=None) -> int:
    """Minimum over `orders` (all n! when None) of the maximum over `grid`'s (releases,
    optimum) pairs of makespan minus optimum. An order is dropped once a partial makespan
    minus an optimum reaches the best so far, as makespans only grow with each job; the n!
    orders start from the first scenario's release order, so that dropping starts early.
    """
    jobs = list(enumerate(instance.columns[0].tolist()))  # (index, p) records
    if orders is None:
        orders = permutations(sorted(jobs, key=lambda job: grid[0][0][job[0]]))
    else:
        orders = [[jobs[i] for i in order] for order in orders]
    # above every value: no makespan exceeds the latest release plus all the work
    best = max(max(releases) for releases, _ in grid) + sum(p for _, p in jobs) + 1
    for order in orders:
        worst = 0
        for releases, optimum in grid:
            t, limit = 0, best + optimum
            for i, p in order:
                r = releases[i]
                if r > t:
                    t = r
                t += p
                if t >= limit:
                    break
            if t >= limit:
                break
            if t - optimum > worst:
                worst = t - optimum
        else:
            best = worst
    return best


@functools.lru_cache(maxsize=1 << 16)
def brute_min_makespan(scenario: Scenario, instance: Instance) -> int:
    """Minimum makespan over all n! orders, by enumeration. Capped at n = 10.

    Cached: the regret oracles ask for the same scenario optimum repeatedly.
    """
    n = instance.n
    _require_small(n, _MAX_PERMUTATION_N)
    if len(scenario.releases) != n:
        raise ValueError(f"dimension mismatch: {n} jobs but {len(scenario.releases)} releases")
    return _min_max(instance, [(scenario.releases, 0)])


def enumerate_feasible_scenarios(instance: Instance) -> list[Scenario]:
    """Every extreme point of the feasible scenario set, deduplicated and sorted.

    U2: all subsets of at most gamma jobs raised to their upper bounds.
    U1: all subsets whose widths fit the budget raised fully, plus variants
    raising one extra job as far as the leftover budget allows. The makespan
    is componentwise monotone in releases, so worst cases over the full set
    are attained on these points. Capped at n = 7.
    """
    n = instance.n
    _require_small(n, _MAX_GRID_N)
    model = instance.uncertainty
    _, r_lo, r_hi = instance.columns
    lows, highs = r_lo.tolist(), r_hi.tolist()
    seen: set[tuple[int, ...]] = set()
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            # the budget left: U2 counts the raised jobs, U1 sums their widths
            used = size if model.kind == "U2" else sum(highs[i] - lows[i] for i in subset)
            left = model.gamma - used
            if left < 0:
                continue
            rel = lows.copy()
            for i in subset:
                rel[i] = highs[i]
            seen.add(tuple(rel))
            if model.kind == "U1":
                for k in range(n):
                    raised = min(highs[k], lows[k] + left)
                    if raised > rel[k]:
                        seen.add((*rel[:k], raised, *rel[k + 1 :]))
    return [Scenario(rel) for rel in sorted(seen)]


def _regret_grid(instance: Instance) -> list[tuple[tuple[int, ...], int]]:
    """(releases, brute_min_makespan) of every grid scenario. Capped at n = 6."""
    _require_small(instance.n, _MAX_REGRET_GRID_N)
    return [(s.releases, brute_min_makespan(s, instance))
            for s in enumerate_feasible_scenarios(instance)]


def brute_max_regret(schedule: Schedule, instance: Instance) -> int:
    """Worst regret of a schedule over the enumerated scenario grid. Capped at n = 6."""
    order = schedule.indices.tolist()
    if len(order) != instance.n:
        raise ValueError(f"dimension mismatch: {instance.n} jobs but {len(order)} in the schedule")
    return _min_max(instance, _regret_grid(instance), [order])


def brute_min_worst_cost(instance: Instance) -> int:
    """Exhaustive optimum of the worst-case-makespan criterion. Capped at n = 7.

    For every order takes the worst makespan over the scenario grid, then
    minimizes over orders.
    """
    return _min_max(instance, [(s.releases, 0) for s in enumerate_feasible_scenarios(instance)])


def brute_min_max_regret(instance: Instance) -> int:
    """Exhaustive optimum of the worst-regret criterion. Capped at n = 6.

    Scenario optima come from brute_min_makespan; for every order the worst
    regret over the grid is formed, then minimized over orders.
    """
    return _min_max(instance, _regret_grid(instance))
