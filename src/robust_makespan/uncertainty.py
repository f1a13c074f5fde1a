"""Uncertainty-set semantics: budget feasibility, interval trimming, distinguished scenarios."""
from __future__ import annotations

import numpy as np

from .core import MAX_TIME, Instance, Scenario, _is_integer, _releases


def is_feasible(scenario: Scenario, instance: Instance) -> bool:
    """Whether every release lies in its interval [r_lo, r_hi] and the deviations
    from the lower bounds fit the budget (summed deviation for U1, count of
    deviating jobs for U2).

    Like the evaluators, it raises ValueError when max(releases) + sum(p)
    leaves the 64-bit range.
    """
    model = instance.uncertainty
    _, r_lo, r_hi = instance.columns
    releases = _releases(instance, scenario)
    if (releases < r_lo).any() or (releases > r_hi).any():
        return False
    dev = releases - r_lo
    if model.kind == "U2":
        return int(np.count_nonzero(dev)) <= model.gamma
    # the int64 sum is exact while n * max(dev) fits; otherwise sum Python integers
    if int(dev.max()) * dev.size <= MAX_TIME:
        return int(dev.sum()) <= model.gamma
    return sum(dev.tolist()) <= model.gamma


def normalize_u1(instance: Instance) -> Instance:
    """Trim U1 intervals so no single job can exceed the budget on its own.

    Replaces each r_hi by min(r_hi, r_lo + gamma) (the instance's
    `trimmed_r_hi`); the set of feasible scenarios is unchanged because any
    release beyond r_lo + gamma would already blow the summed budget. U2
    instances, and U1 instances with nothing to trim, are returned as-is.
    """
    if instance.uncertainty.kind != "U1":
        return instance
    p, r_lo, r_hi = instance.columns
    upper = instance.trimmed_r_hi
    if np.array_equal(upper, r_hi):
        return instance
    return Instance.from_arrays(p, r_lo, upper, instance.uncertainty)


def candidate_scenario(instance: Instance, jid: int) -> Scenario:
    """The scenario with job `jid` at its trimmed upper bound and every other job at its
    lower bound: the candidate that `RegretReport.worst_job` names, always feasible."""
    if not _is_integer(jid):
        raise ValueError(f"job id must be an integer, got {jid!r}")
    if not 1 <= jid <= instance.n:
        raise ValueError(f"no job with id {jid}")
    releases = instance.columns[1].copy()
    releases[jid - 1] = instance.trimmed_r_hi[jid - 1]
    return Scenario(releases)


def candidate_scenarios(instance: Instance) -> tuple[Scenario, ...]:
    """All n single-deviation scenarios (`candidate_scenario`), in job-id order.

    For a trimmed instance this finite set is enough to certify worst-case
    regret for every schedule. Materializes n vectors of length n; meant for
    small and mid-size instances (the solvers never build this set explicitly).
    """
    return tuple(candidate_scenario(instance, jid) for jid in range(1, instance.n + 1))


def extreme_scenarios(instance: Instance) -> tuple[Scenario, Scenario]:
    """(all lower bounds, all upper bounds), from the intervals as given (untrimmed).

    The all-upper-bounds vector may violate the deviation budget; it is still
    a valid input to the evaluator and drives the worst-case analysis.
    """
    _, r_lo, r_hi = instance.columns
    return Scenario(r_lo), Scenario(r_hi)
