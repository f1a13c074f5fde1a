"""Deviation budgets, interval trimming, and the distinguished scenarios."""
import random
from itertools import permutations

import pytest

from robust_makespan import (
    Scenario,
    Schedule,
    candidate_scenario,
    candidate_scenarios,
    evaluate,
    extreme_scenarios,
    is_feasible,
    normalize_u1,
)
from robust_makespan.oracle import enumerate_feasible_scenarios

from conftest import make_instance, random_instance


def test_is_feasible_lower_bounds_always():
    rng = random.Random(0)
    for _ in range(30):
        inst = random_instance(rng)
        low, _ = extreme_scenarios(inst)
        assert is_feasible(low, inst)


def test_is_feasible_u2_counts_deviating_jobs():
    inst = make_instance([(1, 0, 4), (1, 0, 4), (1, 0, 4)], kind="U2", gamma=1)
    assert is_feasible(Scenario((4, 0, 0)), inst)
    assert not is_feasible(Scenario((4, 4, 0)), inst)
    assert not is_feasible(Scenario((1, 1, 0)), inst)


def test_is_feasible_u1_sums_deviation():
    inst = make_instance([(1, 0, 4), (1, 0, 0)], kind="U1", gamma=3)
    assert is_feasible(Scenario((3, 0)), inst)
    assert not is_feasible(Scenario((4, 0)), inst)


def test_is_feasible_refuses_releases_outside_their_intervals():
    # deviations +5 and -5 sum to 0, inside a zero budget, but job 2 starts early
    inst = make_instance([(1, 5, 10), (1, 5, 10)], kind="U1", gamma=0)
    assert not is_feasible(Scenario((10, 0)), inst)
    assert is_feasible(Scenario((5, 5)), inst)
    # job 1 released past its upper bound of 10
    for kind, gamma in (("U1", 100), ("U2", 1)):
        inst = make_instance([(1, 5, 10), (1, 5, 10)], kind=kind, gamma=gamma)
        assert not is_feasible(Scenario((50, 5)), inst)
        assert is_feasible(Scenario((10, 5)), inst)


def test_normalize_trims_wide_intervals():
    inst = make_instance([(1, 2, 10)], kind="U1", gamma=5)
    assert normalize_u1(inst).jobs[0].r_hi == 7
    inst = make_instance([(1, 2, 6)], kind="U1", gamma=5)
    assert normalize_u1(inst) is inst
    inst = make_instance([(1, 3, 9)], kind="U1", gamma=0)
    assert normalize_u1(inst).jobs[0].r_hi == 3


def test_normalize_leaves_u2_alone():
    inst = make_instance([(1, 0, 100)], kind="U2", gamma=1)
    assert normalize_u1(inst) is inst


def test_normalize_is_idempotent():
    rng = random.Random(1)
    for _ in range(40):
        inst = random_instance(rng, kind="U1")
        once = normalize_u1(inst)
        assert normalize_u1(once) is once
        gamma = inst.uncertainty.gamma
        assert all(job.r_hi - job.r_lo <= gamma for job in once.jobs)


def test_normalize_preserves_worst_case_makespans():
    # the achievable worst case of every order is unchanged by trimming
    rng = random.Random(2)
    for _ in range(40):
        inst = random_instance(rng, kind="U1", max_n=4)
        trimmed = normalize_u1(inst)
        before = enumerate_feasible_scenarios(inst)
        after = enumerate_feasible_scenarios(trimmed)
        for perm in permutations(range(1, inst.n + 1)):
            sched = Schedule(perm)
            worst_before = max(evaluate(sched, s, inst).makespan for s in before)
            worst_after = max(evaluate(sched, s, trimmed).makespan for s in after)
            assert worst_before == worst_after


def test_candidate_scenarios_by_hand():
    inst = make_instance([(1, 1, 4), (1, 2, 2)])
    got = candidate_scenarios(inst)
    assert got[0].releases == (4, 2)
    assert got[1].releases == (1, 2)
    assert candidate_scenario(inst, 1).releases == (4, 2)


def test_candidate_scenario_rejects_ids_outside_1_to_n():
    inst = make_instance([(1, 1, 4), (1, 2, 2)])
    for jid in (0, 3, -1, 2**64):
        with pytest.raises(ValueError, match="no job with id"):
            candidate_scenario(inst, jid)
    # True == 1 and 1.0 == 1, but neither is a job id
    for jid in (True, 1.0):
        with pytest.raises(ValueError, match="must be an integer"):
            candidate_scenario(inst, jid)


def test_candidate_scenarios_degenerate_intervals_collapse():
    inst = make_instance([(1, 3, 3), (2, 1, 1)])
    low, high = extreme_scenarios(inst)
    assert low == high
    for sc in candidate_scenarios(inst):
        assert sc == low


def test_candidate_scenarios_single_job():
    inst = make_instance([(2, 0, 7)])
    assert candidate_scenarios(inst)[0].releases == (7,)


def test_candidates_feasible_after_trimming():
    rng = random.Random(3)
    for _ in range(60):
        inst = normalize_u1(random_instance(rng))
        for sc in candidate_scenarios(inst):
            assert is_feasible(sc, inst)


def test_extreme_scenarios_by_hand():
    inst = make_instance([(1, 1, 4), (1, 2, 2)])
    low, high = extreme_scenarios(inst)
    assert low.releases == (1, 2)
    assert high.releases == (4, 2)


def test_extremes_collapse_under_zero_budget():
    inst = normalize_u1(make_instance([(1, 3, 9), (1, 0, 5)], kind="U1", gamma=0))
    low, high = extreme_scenarios(inst)
    assert low == high == Scenario((3, 0))
