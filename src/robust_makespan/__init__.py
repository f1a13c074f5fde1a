"""Robust single-machine makespan scheduling under release-date uncertainty.

Solvers for the worst-case-makespan and worst-regret criteria over budgeted
release-date intervals, plus brute-force oracles and a CLI.
"""
from .absolute import (
    robust_absolute_cost,
    solve_robust_absolute,
    worst_case_scenario_absolute,
)
from .core import (
    Instance,
    Job,
    Scenario,
    Schedule,
    ScheduleEvaluation,
    UncertaintyModel,
    erd_schedule,
    evaluate,
    optimal_makespan,
)
from .regret import (
    RegretReport,
    all_optimal_makespans_fast,
    all_optimal_makespans_naive,
    max_regret,
    regret_of,
    solve_robust_regret,
)
from .rmq import IntervalMinTable
from .uncertainty import (
    candidate_scenario,
    candidate_scenarios,
    extreme_scenarios,
    is_feasible,
    normalize_u1,
)

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "IntervalMinTable",
    "Job",
    "RegretReport",
    "Scenario",
    "Schedule",
    "ScheduleEvaluation",
    "UncertaintyModel",
    "all_optimal_makespans_fast",
    "all_optimal_makespans_naive",
    "candidate_scenario",
    "candidate_scenarios",
    "erd_schedule",
    "evaluate",
    "extreme_scenarios",
    "is_feasible",
    "max_regret",
    "normalize_u1",
    "optimal_makespan",
    "regret_of",
    "robust_absolute_cost",
    "solve_robust_regret",
    "solve_robust_absolute",
    "worst_case_scenario_absolute",
]
