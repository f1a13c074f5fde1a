"""Exact answers on untrimmed U1 input and at magnitudes near the int64 limit.

Every expected value here comes from Python-int arithmetic: the brute-force
oracles (which evaluate in Python integers at these sizes) or the small
reference recursion below.
"""
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_makespan import (
    Instance,
    Job,
    Schedule,
    UncertaintyModel,
    all_optimal_makespans_fast,
    all_optimal_makespans_naive,
    evaluate,
    extreme_scenarios,
    is_feasible,
    max_regret,
    normalize_u1,
    robust_absolute_cost,
    solve_robust_absolute,
    solve_robust_regret,
    worst_case_scenario_absolute,
)
from robust_makespan.core import MAX_TIME
from robust_makespan.oracle import (
    brute_max_regret,
    brute_min_max_regret,
    brute_min_worst_cost,
    enumerate_feasible_scenarios,
)

from conftest import make_instance, random_instance, random_schedule


def py_makespan(perm, releases, p):
    """Makespan of processing job ids `perm` in order, in Python integers."""
    t = 0
    for jid in perm:
        t = max(t, releases[jid - 1]) + p[jid - 1]
    return t


def py_optimum(releases, p):
    """Optimal makespan of one scenario: release order, ties by id."""
    order = sorted(range(1, len(p) + 1), key=lambda jid: (releases[jid - 1], jid))
    return py_makespan(order, releases, p)


def py_reference(inst):
    """(p, r_lo, trimmed r_hi) as Python-int lists."""
    p, r_lo, r_hi = (c.tolist() for c in inst.columns)
    if inst.uncertainty.kind == "U1":
        r_hi = [min(hi, lo + inst.uncertainty.gamma) for lo, hi in zip(r_lo, r_hi)]
    return p, r_lo, r_hi


def py_per_candidate(perm, inst):
    """Regret of `perm` against every single-deviation scenario."""
    p, r_lo, r_hi = py_reference(inst)
    out = []
    for j in range(len(p)):
        releases = list(r_lo)
        releases[j] = r_hi[j]
        out.append(py_makespan(perm, releases, p) - py_optimum(releases, p))
    return out


def test_u1_trimming_does_not_wrap_near_int64_limit():
    # r_lo + gamma = 2**63 leaves int64; the trimmed bound must stay r_hi
    inst = Instance(
        (Job(1, 1, 2**62, 2**62 + 10), Job(2, 5, 0, 0)), UncertaintyModel("U1", 2**62)
    )
    p, r_lo, r_hi = py_reference(inst)
    assert inst.trimmed_r_hi.tolist() == r_hi == [2**62 + 10, 0]
    assert normalize_u1(inst) is inst
    want_cost = min(py_makespan(perm, r_hi, p) for perm in permutations((1, 2)))
    assert want_cost == 2**62 + 11 == brute_min_worst_cost(inst)
    for candidate in (inst, normalize_u1(inst)):
        sched, cost = solve_robust_absolute(candidate)
        assert cost == want_cost
        assert robust_absolute_cost(sched, candidate) == want_cost
        report = solve_robust_regret(candidate)
        assert list(report.per_candidate) == py_per_candidate(report.schedule.perm, inst)
        assert report.regret == max(report.per_candidate) == brute_min_max_regret(inst)


@pytest.mark.parametrize("gamma", [2**63 - 1, 2**63, 2**70])
def test_u1_budget_beyond_int64_is_exact(gamma):
    inst = make_instance(
        [(1, 2**62, 2**62 + 10), (5, 0, 0), (3, 7, 2**61)], kind="U1", gamma=gamma
    )
    p, r_lo, r_hi = py_reference(inst)
    assert inst.trimmed_r_hi.tolist() == r_hi
    assert normalize_u1(inst) is inst
    _, cost = solve_robust_absolute(inst)
    assert cost == brute_min_worst_cost(inst)
    report = solve_robust_regret(inst)
    assert report.regret == brute_min_max_regret(inst)
    assert list(report.per_candidate) == py_per_candidate(report.schedule.perm, inst)
    sched = Schedule((3, 1, 2))
    assert max_regret(sched, inst).regret == brute_max_regret(sched, inst)
    assert robust_absolute_cost(sched, inst) == py_makespan(sched.perm, r_hi, p)
    assert is_feasible(worst_case_scenario_absolute(sched, inst), inst)


def test_untrimmed_u1_entry_points_by_hand():
    # job 1 may move from 0 to 10, but the budget only lets it reach 2
    inst = make_instance([(1, 0, 10), (5, 0, 0)], kind="U1", gamma=2)
    sched = Schedule((1, 2))
    assert max_regret(sched, inst).regret == 2 == brute_max_regret(sched, inst)
    assert robust_absolute_cost(sched, inst) == 8
    assert worst_case_scenario_absolute(sched, inst).releases == (2, 0)
    trimmed = normalize_u1(inst)
    for optima in (all_optimal_makespans_fast, all_optimal_makespans_naive):
        assert optima(inst).tolist() == optima(trimmed).tolist() == [6, 6]
    # the extreme scenarios keep the raw interval bounds
    assert extreme_scenarios(inst)[1].releases == (10, 0)


def test_untrimmed_u1_entry_points_match_oracles():
    rng = random.Random(11)
    for _ in range(80):
        inst = random_instance(rng, kind="U1", w_max=20)
        trimmed = normalize_u1(inst)
        sched = random_schedule(rng, inst.n)
        grid = enumerate_feasible_scenarios(inst)
        cost = robust_absolute_cost(sched, inst)
        assert cost == max(evaluate(sched, s, inst).makespan for s in grid)
        scenario = worst_case_scenario_absolute(sched, inst)
        assert is_feasible(scenario, inst)
        assert evaluate(sched, scenario, inst).makespan == cost
        assert max_regret(sched, inst).regret == brute_max_regret(sched, inst)
        fast = all_optimal_makespans_fast(inst).tolist()
        assert fast == all_optimal_makespans_naive(inst).tolist()
        assert fast == all_optimal_makespans_fast(trimmed).tolist()
        assert solve_robust_absolute(inst)[1] == brute_min_worst_cost(inst)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solvers_exact_at_large_magnitudes(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    base = data.draw(st.sampled_from([0, 2**40, 2**61, 2**62, MAX_TIME - 2**20]))
    n = rng.randint(1, 5)
    jobs = []
    for _ in range(n):
        r_lo = base + rng.randint(0, 12)
        jobs.append((rng.randint(1, 6), r_lo, r_lo + rng.choice((0, 3, 8, 2**20 - 100))))
    kind = rng.choice(("U1", "U2"))
    if kind == "U1":
        gamma = data.draw(st.sampled_from([0, 3, 2**62, 2**63, 2**70]))
    else:
        gamma = rng.randint(1, n)
    inst = make_instance(jobs, kind=kind, gamma=gamma)
    p, _, r_hi = py_reference(inst)
    sched, cost = solve_robust_absolute(inst)
    assert cost == brute_min_worst_cost(inst)
    assert robust_absolute_cost(sched, inst) == py_makespan(sched.perm, r_hi, p)
    report = solve_robust_regret(inst)
    assert report.regret == brute_min_max_regret(inst)
    assert list(report.per_candidate) == py_per_candidate(report.schedule.perm, inst)
    other = random_schedule(rng, n)
    assert list(max_regret(other, inst).per_candidate) == py_per_candidate(other.perm, inst)
