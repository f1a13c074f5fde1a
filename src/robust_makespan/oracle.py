"""Exhaustive reference computations for small instances.

Everything here enumerates permutations and/or extreme scenarios outright
and is meant for cross-checking the solvers in tests and `verify`; sizes
are capped accordingly (n <= 7 for scenario grids, n <= 6 where every
grid point also needs its own permutation enumeration).
"""
from __future__ import annotations

import functools
from itertools import combinations, permutations

from .core import Instance, Scenario, Schedule, evaluate

_MAX_PERMUTATION_N = 10
_MAX_GRID_N = 7
_MAX_REGRET_GRID_N = 6


def _require_small(n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"refusing brute force for n={n} (cap {cap})")


@functools.lru_cache(maxsize=1 << 16)
def brute_min_makespan(scenario: Scenario, instance: Instance) -> int:
    """Minimum makespan over all n! orders, by enumeration. Capped at n = 10.

    Cached: the regret oracles ask for the same scenario optimum repeatedly.
    """
    n = instance.n
    _require_small(n, _MAX_PERMUTATION_N)
    if len(scenario.releases) != n:
        raise ValueError(f"dimension mismatch: {n} jobs but {len(scenario.releases)} releases")
    rel = scenario.releases
    pairs = tuple(zip(rel, instance.columns[0].tolist()))
    best = None
    for perm in permutations(pairs):
        t = 0
        for r, p in perm:
            if r > t:
                t = r
            t += p
            if best is not None and t >= best:
                break
        else:
            best = t
    return best


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
    lows = tuple(r_lo.tolist())
    highs = tuple(r_hi.tolist())
    seen: set[tuple[int, ...]] = set()

    if model.kind == "U2":
        for size in range(0, min(model.gamma, n) + 1):
            for subset in combinations(range(n), size):
                rel = list(lows)
                for i in subset:
                    rel[i] = highs[i]
                seen.add(tuple(rel))
    else:
        for size in range(0, n + 1):
            for subset in combinations(range(n), size):
                used = sum(highs[i] - lows[i] for i in subset)
                if used > model.gamma:
                    continue
                rel = list(lows)
                for i in subset:
                    rel[i] = highs[i]
                seen.add(tuple(rel))
                leftover = model.gamma - used
                if leftover <= 0:
                    continue
                for k in range(n):
                    if k in subset:
                        continue
                    raised = min(highs[k], lows[k] + leftover)
                    if raised > lows[k]:
                        variant = list(rel)
                        variant[k] = raised
                        seen.add(tuple(variant))
    return [Scenario(rel) for rel in sorted(seen)]


def brute_max_regret(schedule: Schedule, instance: Instance) -> int:
    """Worst regret of a schedule over the enumerated scenario grid. Capped at n = 6."""
    _require_small(instance.n, _MAX_REGRET_GRID_N)
    worst = 0
    for scenario in enumerate_feasible_scenarios(instance):
        regret = evaluate(schedule, scenario, instance).makespan - brute_min_makespan(
            scenario, instance
        )
        if regret > worst:
            worst = regret
    return worst


def brute_min_worst_cost(instance: Instance) -> int:
    """Exhaustive optimum of the worst-case-makespan criterion. Capped at n = 7.

    For every order takes the worst makespan over the scenario grid, then
    minimizes over orders.
    """
    n = instance.n
    _require_small(n, _MAX_GRID_N)
    grid = [s.releases for s in enumerate_feasible_scenarios(instance)]
    procs = tuple(instance.columns[0].tolist())
    best = None
    for perm in permutations(range(n)):
        worst = 0
        for rel in grid:
            t = 0
            for i in perm:
                r = rel[i]
                if r > t:
                    t = r
                t += procs[i]
            if t > worst:
                worst = t
                if best is not None and worst >= best:
                    break
        else:
            best = worst
    return best


def brute_min_max_regret(instance: Instance) -> int:
    """Exhaustive optimum of the worst-regret criterion. Capped at n = 6.

    Scenario optima come from brute_min_makespan; for every order the worst
    regret over the grid is formed, then minimized over orders.
    """
    n = instance.n
    _require_small(n, _MAX_REGRET_GRID_N)
    scenarios = enumerate_feasible_scenarios(instance)
    grid = [
        (s.releases, brute_min_makespan(s, instance)) for s in scenarios
    ]
    procs = tuple(instance.columns[0].tolist())
    best = None
    for perm in permutations(range(n)):
        worst = 0
        for rel, opt in grid:
            t = 0
            for i in perm:
                r = rel[i]
                if r > t:
                    t = r
                t += procs[i]
            regret = t - opt
            if regret > worst:
                worst = regret
                if best is not None and worst >= best:
                    break
        else:
            best = worst
    return best
