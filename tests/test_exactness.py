"""Exact answers on untrimmed U1 input and at magnitudes near the int64 limit.

Every expected value here comes from Python-int arithmetic: the brute-force
oracles (which evaluate in Python integers at these sizes) or the small
reference recursion below.
"""
import ast
import functools
import importlib
import json
import random
import sys
import threading
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_makespan import (
    Instance,
    IntervalMinTable,
    Job,
    Scenario,
    Schedule,
    UncertaintyModel,
    all_optimal_makespans_fast,
    all_optimal_makespans_naive,
    candidate_scenario,
    candidate_scenarios,
    erd_schedule,
    evaluate,
    extreme_scenarios,
    is_feasible,
    max_regret,
    normalize_u1,
    optimal_makespan,
    regret_of,
    robust_absolute_cost,
    solve_robust_absolute,
    solve_robust_regret,
    worst_case_scenario_absolute,
)
from robust_makespan.cli import CliError, load_instance
from robust_makespan import absolute, cli, core, regret
from robust_makespan.core import _PACKED_MIN, MAX_TIME, _sorted_order
from robust_makespan.oracle import (
    brute_max_regret,
    brute_min_max_regret,
    brute_min_worst_cost,
    enumerate_feasible_scenarios,
)

from conftest import (
    count_argsort_calls,
    count_numpy_calls,
    gather_spy,
    make_instance,
    random_instance,
    random_schedule,
    refuse_threads,
)


def py_makespan(perm, releases, p):
    """Makespan of processing job ids `perm` in order, in Python integers."""
    t = 0
    for jid in perm:
        t = max(t, releases[jid - 1]) + p[jid - 1]
    return t


def py_erd(releases):
    """Job ids in release order, ties by id."""
    return sorted(range(1, len(releases) + 1), key=lambda jid: (releases[jid - 1], jid))


def py_optimum(releases, p):
    """Optimal makespan of one scenario: release order, ties by id."""
    return py_makespan(py_erd(releases), releases, p)


def py_evaluate(perm, releases, p):
    """(completions, critical position) of processing `perm`, in Python integers.

    The critical position is the last one whose job completes at its release
    plus processing time.
    """
    t, completions, critical = 0, [], 1
    for i, jid in enumerate(perm, start=1):
        t = max(t, releases[jid - 1]) + p[jid - 1]
        completions.append(t)
        if t == releases[jid - 1] + p[jid - 1]:
            critical = i
    return completions, critical


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


def test_candidate_scenarios_raise_to_trimmed_bounds():
    inst = make_instance([(1, 0, 10), (5, 0, 0)], kind="U1", gamma=2)
    assert candidate_scenario(inst, 1).releases == (2, 0)
    assert [sc.releases for sc in candidate_scenarios(inst)] == [(2, 0), (0, 0)]
    rng = random.Random(12)
    untrimmed = 0
    for _ in range(120):
        inst = random_instance(rng, kind="U1", w_max=25)
        untrimmed += normalize_u1(inst) is not inst
        report = solve_robust_regret(inst)
        worst = candidate_scenario(inst, report.worst_job)
        assert is_feasible(worst, inst)
        assert regret_of(report.schedule, worst, inst) == report.regret
        other = max_regret(random_schedule(rng, inst.n), inst)
        scenarios = candidate_scenarios(inst)
        assert all(is_feasible(sc, inst) for sc in scenarios)
        assert [regret_of(other.schedule, sc, inst) for sc in scenarios] == list(
            other.per_candidate
        )
    assert untrimmed > 30


@pytest.mark.parametrize("n", [2, 3000])
def test_scenarios_outside_int64_raise_value_error(n):
    inst = Instance.from_arrays([1] * n, [0] * n, [0] * n, UncertaintyModel("U1", 5))
    sched = Schedule(tuple(range(n, 0, -1)))
    entry_points = (
        lambda sc: evaluate(sched, sc, inst),
        lambda sc: optimal_makespan(sc, inst),
        lambda sc: erd_schedule(sc, inst),
        lambda sc: is_feasible(sc, inst),
    )
    for release in (3.9, 2**63, -1, -(2**63), True):
        with pytest.raises(ValueError):
            Scenario((release,) + (0,) * (n - 1))
    # fits in int64, but its completion at 2**63 would not
    edge = Scenario((MAX_TIME,) + (0,) * (n - 1))
    for call in entry_points:
        with pytest.raises(ValueError, match="64-bit"):
            call(edge)
    # n ticks lower, every completion fits, the last one exactly
    low = Scenario((MAX_TIME - n,) + (0,) * (n - 1))
    releases = list(low.releases)
    assert evaluate(Schedule(tuple(range(1, n + 1))), low, inst).makespan == MAX_TIME
    assert evaluate(sched, low, inst).makespan == py_makespan(sched.perm, releases, [1] * n)
    assert optimal_makespan(low, inst) == py_optimum(releases, [1] * n)
    assert list(erd_schedule(low, inst).perm) == py_erd(releases)
    assert not is_feasible(low, inst)


@pytest.mark.parametrize("n", [2, 3000])
def test_u1_deviation_sum_does_not_wrap(n):
    big = 2**62 if n == 2 else 2**61
    raised = min(n, 8)
    # raised * big = 2**63 or 2**64: an int64 sum wraps to a negative value or 0
    inst = Instance.from_arrays([1] * n, [0] * n, [big] * n, UncertaintyModel("U1", 5))
    releases = [big] * raised + [0] * (n - raised)
    assert sum(releases) > 5
    assert not is_feasible(Scenario(tuple(releases)), inst)
    ev = evaluate(Schedule(tuple(range(1, n + 1))), Scenario(tuple(releases)), inst)
    assert ev.makespan == py_makespan(range(1, n + 1), releases, [1] * n)
    roomy = Instance.from_arrays([1] * n, [0] * n, [big] * n, UncertaintyModel("U1", big))
    assert is_feasible(Scenario((big,) + (0,) * (n - 1)), roomy)
    assert not is_feasible(Scenario((big, 1) + (0,) * (n - 2)), roomy)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 2047, 2048, 2049])
def test_one_numpy_path_matches_python_loops_at_every_size(n):
    rng = random.Random(n)
    p = [rng.randint(1, 9) for _ in range(n)]
    r_lo = [rng.randint(0, 3 * n) for _ in range(n)]
    r_hi = [r + rng.choice((0, 0, 5, 40)) for r in r_lo]
    releases = [rng.randint(lo, hi) for lo, hi in zip(r_lo, r_hi)]
    scenario = Scenario(tuple(releases))
    deviation = sum(r - lo for r, lo in zip(releases, r_lo))
    moved = sum(r != lo for r, lo in zip(releases, r_lo))
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    sched = Schedule(tuple(perm))
    for model in (UncertaintyModel("U1", n), UncertaintyModel("U2", 2)):
        inst = Instance.from_arrays(p, r_lo, r_hi, model)
        ev = evaluate(sched, scenario, inst)
        completions, critical = py_evaluate(perm, releases, p)
        assert list(ev.completions) == completions
        assert ev.makespan == completions[-1]
        assert ev.critical_position == critical
        assert optimal_makespan(scenario, inst) == py_optimum(releases, p)
        assert list(erd_schedule(scenario, inst).perm) == py_erd(releases)
        upper = py_reference(inst)[2]
        got_sched, got_cost = solve_robust_absolute(inst)
        assert list(got_sched.perm) == py_erd(upper)
        assert got_cost == py_makespan(py_erd(upper), upper, p)
    for kind, used in (("U1", deviation), ("U2", moved)):
        for gamma in (used - 1, used):
            if gamma < (1 if kind == "U2" else 0):
                continue
            inst = Instance.from_arrays(p, r_lo, r_hi, UncertaintyModel(kind, gamma))
            assert is_feasible(scenario, inst) == (used <= gamma)
    # Schedule validation: n + 1, 0, floats and duplicates are refused
    bad = [[n + 1] + perm[1:], [0] + perm[1:], [float(perm[0])] + perm[1:]]
    if n >= 2:
        bad.append([perm[1]] + perm[1:])
    for perm_bad in bad:
        with pytest.raises(ValueError):
            Schedule(tuple(perm_bad))


@pytest.mark.parametrize("n", [1, 2, 3000])
def test_lazy_tuples_equal_an_eager_build(n):
    rng = random.Random(n)
    p = [rng.randint(1, 9) for _ in range(n)]
    r_lo = [rng.randint(0, 3 * n) for _ in range(n)]
    r_hi = [r + rng.randint(0, 3 * n) for r in r_lo]
    # gamma exceeds every width, so r_hi is already trimmed
    inst = Instance.from_arrays(p, r_lo, r_hi, UncertaintyModel("U1", 10 * n))
    sched, _ = solve_robust_absolute(inst)
    assert sched.perm == tuple((sched.indices + 1).tolist())
    # the release order's per-candidate regrets differ from job to job
    low, _ = extreme_scenarios(inst)
    for report in (solve_robust_regret(inst), max_regret(erd_schedule(low, inst), inst)):
        perm = report.schedule.perm
        assert perm == tuple((report.schedule.indices + 1).tolist())
        assert all(type(jid) is int for jid in perm)
        assert all(type(value) is int for value in report.per_candidate)
        assert max(report.per_candidate) == report.regret
        if n <= 2:
            assert list(report.per_candidate) == py_per_candidate(perm, inst)
            continue
        # the Python-int reference is O(n^2), so here it checks a sample of candidates
        for j in rng.sample(range(n), 40):
            releases = [*r_lo[:j], r_hi[j], *r_lo[j + 1:]]
            assert report.per_candidate[j] == (py_makespan(perm, releases, p)
                                               - py_optimum(releases, p))


@pytest.mark.parametrize("spread", ["packed", "fallback"])
def test_sort_paths_exact_near_2_62(spread, monkeypatch):
    # every release near 2**62 still packs (the sort subtracts the minimum);
    # mixing releases near 0 and near 2**62 leaves no room for the job index,
    # so every sort falls back to np.argsort
    n = _PACKED_MIN + 1
    rng = random.Random(n)
    p = [rng.randint(1, 9) for _ in range(n)]
    r_lo = [2**62 * (spread == "packed" or k % 2) + rng.randint(0, 3 * n) for k in range(n)]
    r_hi = [r + rng.choice((0, 0, 5, 40)) for r in r_lo]
    releases = [rng.randint(lo, hi) for lo, hi in zip(r_lo, r_hi)]
    calls = count_argsort_calls(monkeypatch)
    for model in (UncertaintyModel("U1", 20), UncertaintyModel("U2", 2)):
        inst = Instance.from_arrays(p, r_lo, r_hi, model)
        _, lows, upper = py_reference(inst)
        sched, cost = solve_robust_absolute(inst)
        assert list(sched.perm) == py_erd(upper)
        assert cost == py_makespan(sched.perm, upper, p)
        # the regret rule in Python integers: sort by upper bound minus the
        # candidate's optimum, ties by id
        candidates = [lows[:j] + [upper[j]] + lows[j + 1 :] for j in range(n)]
        optima = [py_optimum(rel, p) for rel in candidates]
        perm = sorted(range(1, n + 1), key=lambda jid: (upper[jid - 1] - optima[jid - 1], jid))
        per_candidate = [py_makespan(perm, rel, p) - opt for rel, opt in zip(candidates, optima)]
        report = solve_robust_regret(inst)
        assert list(report.schedule.perm) == perm
        assert list(report.per_candidate) == per_candidate
        assert report.regret == max(per_candidate)
        scenario = Scenario(tuple(releases))
        assert list(erd_schedule(scenario, inst).perm) == py_erd(releases)
        assert optimal_makespan(scenario, inst) == py_optimum(releases, p)
    assert (len(calls) == 0) == (spread == "packed")


def check_regret_paths(inst, other):
    """The fast optima, the regret solve and max_regret of the schedule `other`, each
    against the Python-int rule on every candidate."""
    p, lows, upper = py_reference(inst)
    n = inst.n
    candidates = [lows[:j] + [upper[j]] + lows[j + 1 :] for j in range(n)]
    optima = [py_optimum(rel, p) for rel in candidates]
    assert all_optimal_makespans_fast(inst).tolist() == optima
    report = solve_robust_regret(inst)
    perm = sorted(range(1, n + 1), key=lambda jid: (upper[jid - 1] - optima[jid - 1], jid))
    assert list(report.schedule.perm) == perm
    for got in (report, max_regret(other, inst)):
        want = [py_makespan(got.schedule.perm, rel, p) - opt
                for rel, opt in zip(candidates, optima)]
        assert list(got.per_candidate) == want
        assert (got.regret, got.worst_job) == (max(want), want.index(max(want)) + 1)


@pytest.mark.parametrize("past", [0, 1])
def test_insertion_rank_paths_exact_at_the_span_bound(past, monkeypatch):
    # releases near 2**62 whose span, max(r_hi) - min(r_lo) + 1, is exactly
    # _SPAN_PER_JOB * n (ranks counted) or one more (ranks binary-searched)
    n = _PACKED_MIN
    span = regret._SPAN_PER_JOB * n + past
    rng = random.Random(span)
    p = [rng.randint(1, 9) for _ in range(n)]
    r_lo = [2**62 + rng.randint(0, span - 200) for _ in range(n)]
    r_hi = [r + rng.choice((0, 0, 5, 40, 150)) for r in r_lo]
    r_lo[0], r_hi[-1] = 2**62, 2**62 + span - 1
    counted = count_numpy_calls(monkeypatch, "bincount")
    searched = count_numpy_calls(monkeypatch, "searchsorted")
    inst = Instance.from_arrays(p, r_lo, r_hi, UncertaintyModel("U2", 2))
    check_regret_paths(inst, Schedule(rng.sample(range(1, n + 1), n)))
    # one optima pass each for the fast optima, the solve and max_regret
    assert (len(counted), len(searched)) == ((3, 0) if past == 0 else (0, 3))


def test_regret_key_sort_falls_back_to_lexsort_exactly_near_2_62(monkeypatch):
    # releases near 0 and near 2**62: the regret keys then span about 2**62,
    # which leaves no room for the job index in a packed key
    n = _PACKED_MIN + 1
    rng = random.Random(n)
    p = [rng.randint(1, 9) for _ in range(n)]
    r_lo = [2**62 * (k % 2) + rng.randint(0, 3 * n) for k in range(n)]
    r_hi = [r + rng.choice((0, 0, 5, 40)) for r in r_lo]
    calls = count_numpy_calls(monkeypatch, "lexsort")
    inst = Instance.from_arrays(p, r_lo, r_hi, UncertaintyModel("U1", 20))
    check_regret_paths(inst, Schedule(rng.sample(range(1, n + 1), n)))
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["U1", "U2"])
@pytest.mark.parametrize("n", [2, _PACKED_MIN + 1])
def test_regret_report_exact_at_the_int64_edge(n, kind):
    # sum(p) + max(trimmed r_hi) == MAX_TIME: with that job first in the schedule, its
    # candidate's makespan, r_hi + sum(p) in the report's closed form, is MAX_TIME itself
    rng = random.Random(n)
    p = [rng.randint(1, 9) for _ in range(n)]
    top = MAX_TIME - sum(p)
    r_lo = [top - rng.randint(1, 3 * n) for _ in range(n)]
    r_hi = [min(top, r + rng.choice((0, 0, 5, 40, 3 * n))) for r in r_lo]
    r_lo[-1], r_hi[-1] = top - 5, top
    inst = Instance.from_arrays(p, r_lo, r_hi, UncertaintyModel(kind, 20))
    assert int(inst.trimmed_r_hi.max()) + sum(p) == MAX_TIME
    perm = [n] + rng.sample(range(1, n), n - 1)
    raised = r_lo[:-1] + [top]
    assert py_makespan(perm, raised, p) == MAX_TIME
    check_regret_paths(inst, Schedule(perm))


def test_each_tie_pack_is_the_lexsort(monkeypatch):
    # one set of keys with ties, stretched to each range bound: below 2**(62 - 2 bits) the
    # tie and the index both fit under the key (no inverse), below 2**(62 - bits) the tie
    # alone does (one inverse, built in np.empty), and past that np.lexsort sorts
    n = _PACKED_MIN + 1
    bits = (n - 1).bit_length()
    rng = np.random.default_rng(n)
    base = rng.integers(0, 50, n)
    base[0], base[-1] = 0, 50
    tie = rng.permutation(n)
    inverses = count_numpy_calls(monkeypatch, "empty")
    lexsorts = count_numpy_calls(monkeypatch, "lexsort")
    for span, want_calls in ((2 ** (62 - 2 * bits) - 1, (0, 0)), (2 ** (62 - 2 * bits), (1, 0)),
                             (2 ** (62 - bits) - 1, (1, 0)), (2 ** (62 - bits), (0, 1))):
        keys = base * (span // 50)
        keys[-1] = span
        keys -= 2**61  # negative keys: the pack subtracts the minimum
        want = np.lexsort((tie, keys))
        inverses.clear()
        lexsorts.clear()
        order, ordered = _sorted_order(keys, tie)
        assert (len(inverses), len(lexsorts)) == want_calls, span
        assert np.array_equal(order, want), span
        assert np.array_equal(ordered, keys[want]), span


def test_each_carry_pack_is_the_gather(monkeypatch, split_at):
    # a 6-bit column carried beside a tie, one set of keys stretched to each bit edge:
    # tie, index and column fill 62 bits exactly; one more bit leaves the column to a gather;
    # then the tie alone packs (one inverse), and past that np.lexsort sorts
    n = 2**15
    split_at(n)  # from the split size on, carried columns ride the packed sort
    bits = (n - 1).bit_length()
    rng = np.random.default_rng(n)
    base = rng.integers(0, 50, n)
    base[0], base[-1] = 0, 50
    tie = rng.permutation(n)
    column = rng.integers(0, 64, n)
    column[0] = 63
    inverses = count_numpy_calls(monkeypatch, "empty")
    lexsorts = count_numpy_calls(monkeypatch, "lexsort")
    for span, want_calls in ((2 ** (62 - 2 * bits - 6) - 1, (0, 0, 0)),
                             (2 ** (62 - 2 * bits - 6), (0, 0, 1)),
                             (2 ** (62 - bits) - 1, (1, 0, 1)), (2 ** (62 - bits), (0, 1, 1))):
        keys = base * (span // 50)
        keys[-1] = span
        keys += MAX_TIME - span  # the largest key is MAX_TIME itself
        want = np.lexsort((tie, keys))
        inverses.clear()
        lexsorts.clear()
        spy = gather_spy(column)
        order, ordered, carried = _sorted_order(keys, tie, carry=(spy,))
        assert (len(inverses), len(lexsorts), spy.gathers) == want_calls, span
        assert np.array_equal(order, want), span
        assert np.array_equal(ordered, keys[want]), span
        assert np.array_equal(carried, column[want]), span


@pytest.mark.parametrize("kind", ["U1", "U2"])
@pytest.mark.parametrize("n", [2, 2**15 + 1])
def test_absolute_entry_points_exact_at_the_int64_edge(n, kind, split_at):
    # max(trimmed r_hi) + sum(p) == MAX_TIME: each makespan, sum(p) + max(d), reaches
    # MAX_TIME itself without wrapping, and from the split size, patched to 2**15, on p rides
    # the packed sort
    split_at(2**15)
    rng = random.Random(n)
    p = [rng.randint(1, 9) for _ in range(n)]
    top = MAX_TIME - sum(p)
    r_lo = [top - rng.randint(1, 3 * n) for _ in range(n)]
    r_hi = [min(top, r + rng.choice((0, 0, 5, 40, 3 * n))) for r in r_lo]
    r_lo[-1], r_hi[-1] = top - 5, top
    inst = Instance.from_arrays(p, r_lo, r_hi, UncertaintyModel(kind, 20))
    _, lows, upper = py_reference(inst)
    assert max(upper) + sum(p) == MAX_TIME
    sched, cost = solve_robust_absolute(inst)
    assert list(sched.perm) == py_erd(upper)
    assert cost == py_makespan(sched.perm, upper, p)
    first = Schedule([n] + rng.sample(range(1, n), n - 1))  # the job at the top goes first
    for schedule in (sched, first):
        completions, critical = py_evaluate(schedule.perm, upper, p)
        assert robust_absolute_cost(schedule, inst) == completions[-1]
        raised = schedule.perm[critical - 1]
        want = [*lows[:raised - 1], upper[raised - 1], *lows[raised:]]
        assert worst_case_scenario_absolute(schedule, inst).releases == tuple(want)
    assert robust_absolute_cost(first, inst) == MAX_TIME
    for releases in (upper, [top] * n):
        assert optimal_makespan(Scenario(releases), inst) == py_optimum(releases, p)
    assert optimal_makespan(Scenario([top] * n), inst) == MAX_TIME


def test_range_min_table_stores_int64_for_every_input():
    # values that would fit 32 bits get the same full-width levels and suffix
    for values in ([5, 2, 7, 1], [0] * 9, [MAX_TIME, -MAX_TIME - 1, 3, 0, 1]):
        t = IntervalMinTable(values)
        assert [level.dtype for level in t.levels] == [np.dtype(np.int64)] * len(t.levels)
        assert t.suffix.dtype == np.int64


# a float, a bool, a string and an integer past 64 bits; gamma may be any
# integer >= 0, so UncertaintyModel gets only the first three
_NOT_INT64 = [1.5, True, "3", 2**64]
_MODEL = UncertaintyModel("U2", 1)
_INST = make_instance([(1, 0, 3), (2, 1, 4)])
_TABLE = IntervalMinTable([5, 2, 7])
_INTEGER_ENTRY_POINTS = {
    "Instance": lambda v: Instance((Job(1, 1, 0, 0), Job(2, v, 0, 0)), _MODEL),
    "Instance.from_arrays": lambda v: Instance.from_arrays([1, 1], [0, v], [0, 3], _MODEL),
    "Scenario": lambda v: Scenario((0, v)),
    "Schedule": lambda v: Schedule((1, v)),
    "UncertaintyModel": lambda v: UncertaintyModel("U1", v),
    "candidate_scenario": lambda v: candidate_scenario(_INST, v),
    "IntervalMinTable": lambda v: IntervalMinTable([5, v, 7]),
    "range_min_many": lambda v: _TABLE.range_min_many([1, 1], [2, v]),
    "range_min": lambda v: _TABLE.range_min(v, 2),
    "consumed_blocks": lambda v: _TABLE.consumed_blocks(1, v),
}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry in _INTEGER_ENTRY_POINTS for value in _NOT_INT64
    if not (entry == "UncertaintyModel" and value == 2**64)
])
def test_integer_entry_points_refuse_non_int64(entry, value):
    with pytest.raises(ValueError):
        _INTEGER_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", _NOT_INT64, ids=repr)
def test_instance_file_job_fields_refuse_non_int64(tmp_path, value):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "version": 1, "uncertainty": {"kind": "U2", "gamma": 1},
        "jobs": [{"id": 1, "p": 2, "r_lo": 0, "r_hi": 4},
                 {"id": 2, "p": value, "r_lo": 0, "r_hi": 0}],
    }))
    with pytest.raises(CliError, match=r"jobs\[1\]: field 'p'"):
        load_instance(path)


def test_unsigned_query_bounds_past_int64_do_not_wrap():
    # 2**64 - 1 as int64 is -1, which would read as an empty range
    with pytest.raises(ValueError, match="64-bit"):
        _TABLE.range_min_many(np.array([1], np.uint64), np.array([2**64 - 1], np.uint64))
    assert _TABLE.range_min_many(np.array([1], np.uint64), np.array([3], np.uint64)).tolist() == [2]


def test_lone_numbers_and_strings_raise_value_error():
    calls = [
        lambda: Job(1, "2", 0, 1),
        lambda: Job(1, 2, 0, None),
        lambda: Instance.from_arrays(1, 0, 0, _MODEL),
        lambda: Instance.from_arrays(np.array(1, dtype=object), [0], [0], _MODEL),
        lambda: Scenario(5),
        lambda: Schedule(5),
        lambda: IntervalMinTable(5),
        lambda: Instance.from_arrays([1, 2], [0, 0], [3, 0], "U2"),
        lambda: Instance((Job(1, 1, 0, 0),), None),
        lambda: Instance((Job(1, 1, 0, 0),), {"kind": "U2", "gamma": 1}),
        lambda: Instance(None, _MODEL),
        lambda: Instance(5, _MODEL),
        lambda: Instance([1, 2], _MODEL),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    # a fractional bound once surfaced as numpy's "negative shift count"
    with pytest.raises(ValueError, match="must be integers"):
        _TABLE.consumed_blocks(1, 2.5)


# ---------------------------------------------------------------------------
# passes in halves (`core._split`): each answer equals the whole pass's, at the split edge

# the patched _SPLIT_MIN: from it on, carried columns also ride the packed sorts
_SPLIT_EDGE = 2**15
_SPLIT_SIZES = [_SPLIT_EDGE - 1, _SPLIT_EDGE, _SPLIT_EDGE + 1]


def whole_and_halves(split_at, run):
    """[run() with every pass whole, run() with passes from _SPLIT_EDGE elements on in
    halves]; neither may leave a thread running."""
    threads = threading.active_count()
    results = []
    for at in (2**62, _SPLIT_EDGE):
        split_at(at)
        results.append(run())
        assert threading.active_count() == threads
    return results


def test_split_runs_the_halves_on_two_threads_and_raises_their_exceptions(split_at, cpus):
    split_at(4)
    threads = threading.active_count()
    seen = []

    def halves(a, b):
        seen.append(threading.get_ident())
        return a, b

    assert core._split(halves, 9) == [(0, 4), (4, 9)]
    assert len(set(seen)) == 2 and threading.get_ident() in seen
    assert core._split(halves, 3) == [(0, 3)]

    def fails_in(half):
        def fn(a, b):
            if (a == 0) == (half == "worker"):
                raise KeyError(half)
            return b
        return fn

    for half in ("worker", "caller"):
        with pytest.raises(KeyError, match=half):
            core._split(fails_in(half), 9)
        assert threading.active_count() == threads
    cpus(1)
    assert core._split(halves, 9) == [(0, 9)]  # one CPU allowed: the whole pass
    cpus(2, affinity=False)
    assert core._split(halves, 9) == [(0, 4), (4, 9)]  # no affinity call: the host's count
    split_at(2**62)  # from the caller's own size on, whatever _SPLIT_MIN is
    assert core._split(halves, 9, 4) == [(0, 4), (4, 9)]
    assert core._split(halves, 3, 4) == [(0, 3)]


def test_split_runs_the_whole_pass_when_no_thread_starts(split_at, monkeypatch):
    split_at(4)
    threads = threading.active_count()
    refused = refuse_threads(monkeypatch)
    assert core._split(lambda a, b: (a, b), 9) == [(0, 9)]
    assert len(refused) == 1 and threading.active_count() == threads


def test_packed_sort_makes_one_size_decision_for_its_carry_and_halves(split_at, cpus,
                                                                      monkeypatch):
    # from the split size on, a packed sort carries its columns and, with two CPUs, starts
    # one thread to pack and one to sort and unpack (its extrema are one serial pass); with
    # one CPU it still carries; below that size it starts no thread and gathers
    split_at(2**16)
    starts, start = [], threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    for n, allowed, want_starts, want_gathers in ((2**16, 2, 2, 0), (2**16, 1, 0, 0),
                                                  (2**15 + 1, 2, 0, 1)):
        cpus(allowed)
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 4 * n, n)
        column = rng.integers(0, 101, n)
        spy = gather_spy(column)
        starts.clear()
        order, ordered, carried = _sorted_order(keys, carry=(spy,))
        assert (len(starts), spy.gathers) == (want_starts, want_gathers), (n, allowed)
        want = np.argsort(keys, kind="stable")
        for got, expected in ((order, want), (ordered, keys[want]), (carried, column[want])):
            assert np.array_equal(got, expected), (n, allowed)


def test_entry_points_answer_alike_without_an_affinity_call_or_a_thread(split_at, cpus,
                                                                       monkeypatch):
    # at the split size: with os.sched_getaffinity removed (as where the platform lacks it)
    # the CPU count comes from os.cpu_count; with no thread to be had every pass, the naive
    # reference's halves included, runs whole
    n = 4096
    rng = np.random.default_rng(n)
    r_lo = rng.integers(0, 4 * n, n)
    inst = Instance.from_arrays(rng.integers(1, 10, n), r_lo, r_lo + rng.integers(0, 60, n),
                                UncertaintyModel("U1", 500))
    threads = threading.active_count()

    def answers():
        return (solve_robust_absolute(inst), solve_robust_regret(inst),
                all_optimal_makespans_fast(inst).tolist(),
                all_optimal_makespans_naive(inst).tolist())

    split_at(2**62)
    whole = answers()
    split_at(n)
    monkeypatch.setattr(regret, "_NAIVE_SPLIT_MIN", n)  # the reference's halves too
    assert answers() == whole
    cpus(2, affinity=False)
    assert core._cpus() == 2 and answers() == whole
    assert threading.active_count() == threads
    refused = refuse_threads(monkeypatch)
    assert answers() == whole
    assert refused and threading.active_count() == threads


@pytest.mark.parametrize("n", _SPLIT_SIZES)
def test_each_sort_layout_is_the_whole_pass_in_halves(n, split_at):
    # a 6-bit carried column under keys with ties, with and without a tie column; the key
    # range stretched to each layout's bit edge, with negative keys or keys ending at MAX_TIME
    bits = (n - 1).bit_length()
    rng = np.random.default_rng(n)
    base = rng.integers(0, 50, n)
    base[0], base[-1] = 0, 50
    tie = rng.permutation(n)
    column = rng.integers(0, 64, n)
    column[0] = 63
    for span in (2 ** (62 - 2 * bits - 6) - 1, 2 ** (62 - 2 * bits - 6), 2 ** (62 - bits - 6),
                 2 ** (62 - bits) - 1, 2 ** (62 - bits)):
        keys = base * (span // 50)
        keys[-1] = span
        for shifted in (keys - 2**61, keys + (MAX_TIME - span)):
            for t in (None, tie):
                want = np.argsort(shifted, kind="stable") if t is None else np.lexsort((t, shifted))
                for got in whole_and_halves(split_at,
                                            lambda: _sorted_order(shifted, t, carry=(column,))):
                    for part, column_want in zip(got, (want, shifted[want], column[want])):
                        assert np.array_equal(part, column_want), (span, t is None)


@pytest.mark.parametrize("n", _SPLIT_SIZES)
def test_critical_position_stays_the_last_argmax_across_the_split_point(n, split_at):
    # unit jobs in a shuffled order, released so that the terms release + work from there on
    # reach their maximum at positions 2, h - 1 and h, on both sides of the split point h
    h = n // 2
    rng = np.random.default_rng(n)
    perm = (rng.permutation(n) + 1).tolist()
    top = 3 * n
    releases = [0] * n
    for k in (1, h - 1, h):
        releases[perm[k] - 1] = top - (n - k)
    p = [1] * n
    inst = Instance.from_arrays(p, releases, releases, UncertaintyModel("U2", 1))
    sched = Schedule(perm)
    completions, critical = py_evaluate(perm, releases, p)
    assert critical == h + 1 and completions[-1] == top
    for ev in whole_and_halves(split_at, lambda: evaluate(sched, Scenario(releases), inst)):
        assert (list(ev.completions), ev.makespan, ev.critical_position) == (
            completions, top, critical)
    for worst in whole_and_halves(split_at, lambda: absolute._worst_case(sched, inst)):
        assert worst == (top, perm[h])


@pytest.mark.parametrize("n", _SPLIT_SIZES)
@pytest.mark.parametrize("shape", ["narrow", "wide", "sparse", "edge"])
def test_solver_entry_points_are_the_whole_pass_in_halves(n, shape, split_at):
    # narrow and wide: the lib benchmark shapes; sparse: releases over 63n, past the counted
    # ranks; edge: the latest completion is MAX_TIME itself
    rng = np.random.default_rng(n)
    p = rng.integers(1, 101, n)
    r_lo = rng.integers(0, (63 if shape == "sparse" else 2) * n, n)
    r_hi = r_lo + rng.integers(0, n + 1 if shape == "wide" else 101, n)
    if shape == "edge":
        shift = MAX_TIME - int(r_hi.max()) - int(p.sum())
        r_lo, r_hi = r_lo + shift, r_hi + shift
    model = UncertaintyModel("U1", n // 50) if shape == "wide" else UncertaintyModel("U2", 3)
    inst = Instance.from_arrays(p, r_lo, r_hi, model)
    sched = Schedule(rng.permutation(n) + 1)
    scenario = Scenario(inst.trimmed_r_hi)

    def run():
        return (solve_robust_regret(inst), solve_robust_absolute(inst), max_regret(sched, inst),
                all_optimal_makespans_fast(inst).tolist(), evaluate(sched, scenario, inst),
                optimal_makespan(scenario, inst), worst_case_scenario_absolute(sched, inst))

    whole, halves = whole_and_halves(split_at, run)
    assert whole == halves


@pytest.mark.parametrize("n", _SPLIT_SIZES)
def test_suffix_index_is_the_whole_pass_in_halves(n, split_at):
    # the minimum on both sides of the split point, and values at both ends of int64
    rng = np.random.default_rng(n)
    few = rng.integers(1, 4, n)
    few[[3, n // 2 - 1, n // 2]] = 0
    extreme = rng.choice(np.array([-(2**63), -1, 0, MAX_TIME]), n)
    for values in (few, extreme, few[::-1].copy()):
        whole, halves = whole_and_halves(split_at, lambda: IntervalMinTable(values))
        assert np.array_equal(whole.suffix, halves.suffix)
        assert np.array_equal(whole.first, halves.first) and whole.first.dtype == halves.first.dtype
        assert np.array_equal(whole.suffix, np.minimum.accumulate(values[::-1])[::-1])


def _sort_keys(n):
    """Keys on which a sort in halves could go wrong: all equal, already sorted, reverse
    sorted, and one value repeated across the median position n // 2."""
    run = np.random.default_rng(n).integers(0, 1000, n)
    run[::2] = 500
    assert np.sort(run)[[n // 3, n // 2, 2 * n // 3]].tolist() == [500] * 3
    climb = np.arange(n) // 3
    return {"equal": np.full(n, 7), "sorted": climb, "reversed": climb[::-1].copy(),
            "median run": run}


@pytest.mark.parametrize("n", [_SPLIT_EDGE, _SPLIT_EDGE + 1])  # even and odd
@pytest.mark.parametrize("shape", ["equal", "sorted", "reversed", "median run"])
def test_sorts_at_the_split_edge_on_adversarial_keys(n, shape, split_at, cpus, monkeypatch):
    # one CPU: one sort; two CPUs: a median partition, then a sort of each half on its own
    # thread; no thread to be had: the partition, then one sort of the whole
    keys = _sort_keys(n)[shape]
    rng = np.random.default_rng(n)
    tie = rng.permutation(n)
    carry = (rng.integers(0, 64, n), rng.integers(0, 2**20, n))  # the second may not fit
    wants = [(None, np.argsort(keys, kind="stable")), (tie, np.lexsort((tie, keys)))]
    split_at(_SPLIT_EDGE)
    threads = threading.active_count()
    for mode in ("one CPU", "no affinity call", "no thread"):
        with monkeypatch.context() as patch:
            if mode == "one CPU":
                cpus(1)
            elif mode == "no affinity call":
                cpus(2, affinity=False)
            else:
                refused = refuse_threads(patch)
            for t, want in wants:
                for columns in ((), carry):
                    got = _sorted_order(keys, t, carry=columns)
                    assert len(got) == 2 + len(columns)
                    for part, expected in zip(got, (want, keys[want], *(c[want] for c in columns))):
                        assert np.array_equal(part, expected), (mode, t is None, len(columns))
        assert threading.active_count() == threads
    assert refused


def _tracer_targets() -> list:
    """`TARGETS` of perfbench/tracer.py, read from its source without importing it."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    return next(ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
                if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "TARGETS" for target in node.targets))


def test_split_halves_call_no_traced_function(split_at, monkeypatch, tmp_path):
    # the tracer keeps one span stack, so no `_split` half may call a callable it wraps: each
    # one, rebound where the tracer rebinds it, records every call from another thread
    caller, calls, strays = threading.get_ident(), [], []

    def on_caller(fn, name):
        @functools.wraps(fn)
        def check(*args, **kwargs):
            (calls if threading.get_ident() == caller else strays).append(name)
            return fn(*args, **kwargs)
        return check

    for module_name, path, name, mode in _tracer_targets():
        module = importlib.import_module(f"robust_makespan.{module_name}")
        *parents, attr = path.split(".")
        owner = functools.reduce(getattr, parents, module)
        original = vars(owner).get(attr)
        if not callable(original):  # a slot, or a name that is gone: the tracer skips it too
            continue
        # a module function is rebound under every alias in the package, as the tracer does
        owners = [owner] if isinstance(owner, type) or mode == "local" else [
            alias for key, alias in list(sys.modules.items())
            if key.startswith("robust_makespan.") and vars(alias).get(attr) is original]
        for alias in owners:
            monkeypatch.setattr(alias, attr, on_caller(original, name))
    split_at(_SPLIT_EDGE)
    n = 2 * _SPLIT_EDGE
    rng = np.random.default_rng(n)
    r_lo = rng.integers(0, 2 * n, n)
    inst = Instance.from_arrays(rng.integers(1, 101, n), r_lo, r_lo + rng.integers(0, n, n),
                                UncertaintyModel("U1", n // 50))
    schedule, _ = solve_robust_absolute(inst)
    solve_robust_regret(inst)
    max_regret(schedule, inst)
    all_optimal_makespans_fast(inst)
    path = tmp_path / "inst.json"
    assert cli.main(["generate", "--n", str(n), "--seed", "1", "--model", "U1", "--gamma", "50",
                     "--r-range", "0", str(2 * n), "--output", str(path)]) == 0
    for criterion in ("absolute", "regret"):
        assert cli.main(["solve", "--criterion", criterion, "--input", str(path),
                         "--output", str(tmp_path / f"{criterion}.json")]) == 0
    assert {"rmq.range_min_many", "regret.stable_argsort", "cli.load_instance"} <= set(calls)
    assert strays == []
