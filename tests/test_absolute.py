"""Worst-case-makespan criterion: cost, attaining scenario, and solver."""
import random
from itertools import permutations

from robust_makespan import (
    Schedule,
    evaluate,
    extreme_scenarios,
    is_feasible,
    normalize_u1,
    robust_absolute_cost,
    solve_robust_absolute,
    worst_case_scenario_absolute,
)
from robust_makespan.oracle import brute_min_worst_cost, enumerate_feasible_scenarios

from conftest import make_instance, random_instance, random_schedule


def test_cost_degenerate_intervals_is_nominal_makespan():
    inst = make_instance([(2, 3, 3), (2, 1, 1), (2, 2, 2)])
    low, _ = extreme_scenarios(inst)
    for perm in permutations((1, 2, 3)):
        sched = Schedule(perm)
        assert robust_absolute_cost(sched, inst) == evaluate(sched, low, inst).makespan


def test_cost_two_job_hand_case():
    inst = make_instance([(1, 1, 10), (5, 2, 3)])
    assert robust_absolute_cost(Schedule((2, 1)), inst) == 11
    assert robust_absolute_cost(Schedule((1, 2)), inst) == 16


def test_cost_equals_enumerated_worst_case():
    rng = random.Random(0)
    for _ in range(120):
        inst = normalize_u1(random_instance(rng))
        sched = random_schedule(rng, inst.n)
        grid_worst = max(
            evaluate(sched, sc, inst).makespan
            for sc in enumerate_feasible_scenarios(inst)
        )
        assert robust_absolute_cost(sched, inst) == grid_worst


def test_worst_scenario_single_job():
    inst = make_instance([(2, 1, 9)])
    assert worst_case_scenario_absolute(Schedule((1,)), inst).releases == (9,)


def test_worst_scenario_two_job_hand_case():
    inst = make_instance([(1, 1, 10), (5, 2, 3)])
    assert worst_case_scenario_absolute(Schedule((2, 1)), inst).releases == (10, 2)


def test_worst_scenario_degenerate_intervals():
    inst = make_instance([(2, 3, 3), (4, 1, 1)])
    low, high = extreme_scenarios(inst)
    assert worst_case_scenario_absolute(Schedule((2, 1)), inst) == low == high


def test_worst_scenario_attains_cost_and_keeps_critical_job():
    rng = random.Random(1)
    for _ in range(150):
        inst = normalize_u1(random_instance(rng))
        sched = random_schedule(rng, inst.n)
        cost = robust_absolute_cost(sched, inst)
        scenario = worst_case_scenario_absolute(sched, inst)
        assert is_feasible(scenario, inst)
        ev = evaluate(sched, scenario, inst)
        assert ev.makespan == cost
        # the job that was critical under all-upper-bounds stays critical
        _, upper = extreme_scenarios(inst)
        up_ev = evaluate(sched, upper, inst)
        assert up_ev.makespan == cost
        crit = up_ev.critical_position
        jid = sched.perm[crit - 1]
        suffix = sum(inst.jobs[j - 1].p for j in sched.perm[crit - 1 :])
        assert scenario.releases[jid - 1] + suffix == ev.makespan


def test_solver_two_job_hand_case():
    inst = make_instance([(1, 1, 10), (5, 2, 3)])
    sched, cost = solve_robust_absolute(inst)
    assert sched.perm == (2, 1)
    assert cost == 11


def test_solver_degenerate_intervals_reduces_to_release_order():
    inst = make_instance([(2, 3, 3), (2, 1, 1), (2, 2, 2)])
    sched, cost = solve_robust_absolute(inst)
    assert sched.perm == (2, 3, 1)
    assert cost == 7


def test_solver_sorts_by_latest_release_with_id_ties():
    inst = make_instance([(4, 0, 5), (1, 0, 5), (9, 0, 2)])
    sched, _ = solve_robust_absolute(inst)
    assert sched.perm == (3, 1, 2)


def test_solver_matches_exhaustive_minimum():
    rng = random.Random(2)
    for _ in range(120):
        inst = random_instance(rng)
        _, cost = solve_robust_absolute(inst)
        assert cost == brute_min_worst_cost(inst)


def test_solver_never_beaten_by_any_order():
    rng = random.Random(3)
    for _ in range(60):
        inst = random_instance(rng, max_n=5)
        trimmed = normalize_u1(inst)
        _, cost = solve_robust_absolute(inst)
        for perm in permutations(range(1, inst.n + 1)):
            assert robust_absolute_cost(Schedule(perm), trimmed) >= cost
