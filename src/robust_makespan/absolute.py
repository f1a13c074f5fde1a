"""Worst-case (absolute) criterion: evaluate and minimize the worst makespan.

For any fixed order, the worst feasible scenario achieves exactly the
makespan of the hypothetical all-upper-bounds release vector: pushing the
critical job to its upper bound and dropping everyone else to their lower
bound is feasible and loses nothing. Minimizing that worst case reduces to
sorting by latest possible release date. Under U1 the upper bounds are the
instance's trimmed ones (`Instance.trimmed_r_hi`), so every entry point here
is exact on untrimmed instances too.
"""
from __future__ import annotations

from .core import (
    Instance,
    Scenario,
    Schedule,
    _check_covers,
    _completions_and_critical,
    _completions_arrays,
    _sorted_order,
)
from .uncertainty import candidate_scenario


def _worst_case(schedule: Schedule, instance: Instance) -> tuple[int, int]:
    """(worst-case makespan, critical job id) of a schedule: its makespan when every
    job is released at its trimmed upper bound, and the job that makespan rests on."""
    idx = schedule.indices
    _check_covers(instance, idx.size, "perm")
    comp, crit = _completions_and_critical(instance.trimmed_r_hi, instance.columns[0], idx)
    return int(comp[-1]), int(idx[crit - 1]) + 1


def robust_absolute_cost(schedule: Schedule, instance: Instance) -> int:
    """Worst-case makespan of a schedule over the uncertainty set.

    Equals the makespan under the all-upper-bounds scenario, with U1 upper
    bounds trimmed to r_lo + gamma.
    """
    return _worst_case(schedule, instance)[0]


def worst_case_scenario_absolute(schedule: Schedule, instance: Instance) -> Scenario:
    """A feasible scenario attaining the worst-case makespan of the schedule.

    Takes the critical job under the all-upper-bounds vector and raises only
    that job (to its trimmed upper bound); the result is feasible, attains
    robust_absolute_cost, and keeps the same job critical.
    """
    return candidate_scenario(instance, _worst_case(schedule, instance)[1])


def solve_robust_absolute(instance: Instance) -> tuple[Schedule, int]:
    """Minimize the worst-case makespan: sort by latest possible release date.

    Reads the trimmed U1 bounds; ties are broken by ascending job id. The
    returned cost is the worst-case makespan of the returned schedule, which
    no other schedule can beat.
    """
    p = instance.columns[0]
    upper = instance.trimmed_r_hi
    order, sorted_upper = _sorted_order(upper)
    cost = int(_completions_arrays(sorted_upper, p[order])[-1])
    return Schedule._from_order(order), cost
