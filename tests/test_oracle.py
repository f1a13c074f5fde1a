"""The brute-force references themselves: definitions, caps, hand values."""
import random
from itertools import permutations

import pytest

from robust_makespan import Scenario, Schedule, core, evaluate, is_feasible, oracle
from robust_makespan.oracle import (
    brute_max_regret,
    brute_min_makespan,
    brute_min_max_regret,
    brute_min_worst_cost,
    enumerate_feasible_scenarios,
)

from conftest import make_instance, random_instance, random_interval_scenario


def test_brute_min_makespan_hand_cases():
    inst = make_instance([(3, 5, 5)])
    assert brute_min_makespan(Scenario((5,)), inst) == 8
    inst = make_instance([(2, 3, 3), (2, 1, 1), (2, 2, 2)])
    assert brute_min_makespan(Scenario((3, 1, 2)), inst) == 7
    assert brute_min_makespan(Scenario((0, 0, 0)), inst) == 6


def test_brute_min_makespan_is_true_minimum():
    rng = random.Random(0)
    for _ in range(30):
        inst = random_instance(rng, max_n=5)
        sc = random_interval_scenario(rng, inst)
        want = min(
            evaluate(Schedule(p), sc, inst).makespan
            for p in permutations(range(1, inst.n + 1))
        )
        assert brute_min_makespan(sc, inst) == want


def test_brute_min_makespan_refuses_a_scenario_of_the_wrong_length():
    inst = make_instance([(1, 0, 0), (2, 0, 0)])
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 jobs but 3 releases$"):
        brute_min_makespan(Scenario((0, 0, 0)), inst)


def test_brute_min_makespan_refuses_large():
    inst = make_instance([(1, 0, 0)] * 11)
    with pytest.raises(ValueError, match="refusing"):
        brute_min_makespan(Scenario((0,) * 11), inst)


def test_enumerate_u2_single_budget():
    inst = make_instance([(1, 0, 4), (1, 0, 7)], kind="U2", gamma=1)
    got = {s.releases for s in enumerate_feasible_scenarios(inst)}
    assert got == {(0, 0), (4, 0), (0, 7)}


def test_enumerate_u2_full_budget_gives_all_corners():
    inst = make_instance([(1, 0, 1), (1, 0, 2), (1, 0, 3)], kind="U2", gamma=3)
    got = {s.releases for s in enumerate_feasible_scenarios(inst)}
    assert len(got) == 8


def test_enumerate_u1_contains_upper_corner_when_budget_slack():
    inst = make_instance([(1, 0, 2), (1, 1, 3)], kind="U1", gamma=10)
    got = {s.releases for s in enumerate_feasible_scenarios(inst)}
    assert (2, 3) in got


def test_enumerate_u1_includes_budget_saturating_points():
    inst = make_instance([(1, 0, 4), (1, 0, 4)], kind="U1", gamma=3)
    got = {s.releases for s in enumerate_feasible_scenarios(inst)}
    # full raises are infeasible; the saturated partial points must be present
    assert (3, 0) in got and (0, 3) in got
    assert (4, 0) not in got


def test_enumerated_scenarios_are_feasible_and_deduplicated():
    rng = random.Random(1)
    for _ in range(60):
        inst = random_instance(rng)
        scenarios = enumerate_feasible_scenarios(inst)
        releases = [s.releases for s in scenarios]
        assert len(set(releases)) == len(releases)
        assert releases == sorted(releases)
        for sc in scenarios:
            assert is_feasible(sc, inst)
            assert all(
                job.r_lo <= r <= job.r_hi for job, r in zip(inst.jobs, sc.releases)
            )


def test_enumerate_refuses_large():
    inst = make_instance([(1, 0, 0)] * 8)
    with pytest.raises(ValueError, match="refusing"):
        enumerate_feasible_scenarios(inst)
    # the regret oracles also need a permutation enumeration per grid point,
    # so they refuse one size earlier
    inst7 = make_instance([(1, 0, 0)] * 7)
    with pytest.raises(ValueError, match="refusing"):
        brute_max_regret(Schedule(tuple(range(1, 8))), inst7)
    with pytest.raises(ValueError, match="refusing"):
        brute_min_max_regret(inst7)
    assert brute_min_worst_cost(inst7) == 7


def test_brute_max_regret_hand_cases():
    inst = make_instance([(2, 0, 4), (3, 0, 0)], kind="U2", gamma=1)
    assert brute_max_regret(Schedule((1, 2)), inst) == 3
    assert brute_max_regret(Schedule((2, 1)), inst) == 0
    degenerate = make_instance([(2, 3, 3), (2, 1, 1)])
    erd_order = Schedule((2, 1))
    assert brute_max_regret(erd_order, degenerate) == 0
    for wrong in (Schedule((1,)), Schedule((1, 2, 3))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            brute_max_regret(wrong, inst)


def test_brute_exhaustive_solvers_match_definitions():
    rng = random.Random(2)
    for _ in range(25):
        inst = random_instance(rng, max_n=4)
        grid = enumerate_feasible_scenarios(inst)
        perms = [Schedule(p) for p in permutations(range(1, inst.n + 1))]
        want_cost = min(
            max(evaluate(s, sc, inst).makespan for sc in grid) for s in perms
        )
        assert brute_min_worst_cost(inst) == want_cost
        want_regret = min(brute_max_regret(s, inst) for s in perms)
        assert brute_min_max_regret(inst) == want_regret
        # the literal oracle against the library's evaluator: spans[s][k] is the makespan of
        # order s under grid scenario k, and each scenario's optimum is a column minimum
        spans = [[evaluate(s, sc, inst).makespan for sc in grid] for s in perms]
        optima = [min(column) for column in zip(*spans)]
        for s, row in zip(perms, spans):
            assert brute_max_regret(s, inst) == max(m - o for m, o in zip(row, optima))


@pytest.mark.parametrize("case", ["U1 partial raise", "U1 full raises", "U2"])
def test_oracles_run_no_library_pricing_code(case, monkeypatch):
    # the oracles check the library's evaluator, sorts and checks, so they must not call them:
    # with each of those refusing, every oracle returns the value it returned before
    inst = {
        "U1 partial raise": make_instance([(2, 0, 4), (3, 1, 6), (1, 2, 2), (2, 0, 5)],
                                          kind="U1", gamma=6),
        "U1 full raises": make_instance([(2, 0, 3), (1, 1, 4), (3, 0, 2)], kind="U1", gamma=20),
        "U2": make_instance([(2, 0, 4), (3, 1, 6), (1, 2, 2), (2, 0, 5), (1, 3, 9)],
                            kind="U2", gamma=2),
    }[case]
    schedule = Schedule(tuple(range(inst.n, 0, -1)))
    scenario = Scenario(inst.columns[2])

    def values():
        return (brute_min_makespan(scenario, inst), enumerate_feasible_scenarios(inst),
                brute_max_regret(schedule, inst), brute_min_worst_cost(inst),
                brute_min_max_regret(inst))

    want = values()
    if case == "U1 partial raise":  # the budget leaves a raise short of an upper bound
        assert (4, 1, 2, 2) in {s.releases for s in want[1]}

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle called the library's pricing code")

    for name in ("evaluate", "_profile_from_sorted", "_sorted_order", "_releases"):
        monkeypatch.setattr(core, name, refuse)
        if hasattr(oracle, name):
            monkeypatch.setattr(oracle, name, refuse)
    brute_min_makespan.cache_clear()
    assert values() == want
