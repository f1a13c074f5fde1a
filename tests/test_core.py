"""Core types and the completion-time machinery."""
import pickle
import random
import re
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robust_makespan
from robust_makespan import (
    Instance,
    Job,
    Scenario,
    Schedule,
    UncertaintyModel,
    erd_schedule,
    evaluate,
    candidate_scenario,
    extreme_scenarios,
    is_feasible,
    max_regret,
    normalize_u1,
    optimal_makespan,
    robust_absolute_cost,
    solve_robust_absolute,
    solve_robust_regret,
    worst_case_scenario_absolute,
)
from robust_makespan.core import _PACKED_MIN, MAX_TIME, _sorted_order

from conftest import (
    count_argsort_calls,
    make_instance,
    random_instance,
    random_interval_scenario,
    random_schedule,
)


# ---------------------------------------------------------------------------
# type invariants


def test_job_rejects_nonpositive_processing_time():
    with pytest.raises(ValueError, match="processing time"):
        Job(1, 0, 0, 1)


def test_job_rejects_bad_interval():
    with pytest.raises(ValueError, match="interval"):
        Job(1, 1, 5, 4)
    with pytest.raises(ValueError, match="interval"):
        Job(1, 1, -1, 4)


def test_instance_requires_id_order():
    with pytest.raises(ValueError, match="id order"):
        Instance((Job(2, 1, 0, 0), Job(1, 1, 0, 0)), UncertaintyModel("U2", 1))
    with pytest.raises(ValueError, match="at least one job"):
        Instance((), UncertaintyModel("U2", 1))


def test_instance_rejects_oversized_time_data():
    with pytest.raises(ValueError, match="64-bit"):
        make_instance([(2, 0, MAX_TIME)])
    # exactly at the bound is fine
    make_instance([(1, 0, MAX_TIME - 1)])


def test_uncertainty_model_validation():
    with pytest.raises(ValueError, match="kind"):
        UncertaintyModel("U3", 1)
    with pytest.raises(ValueError, match="at least 1"):
        UncertaintyModel("U2", 0)
    with pytest.raises(ValueError, match="non-negative"):
        UncertaintyModel("U1", -1)
    UncertaintyModel("U1", 0)


def test_schedule_must_be_permutation():
    Schedule((2, 1, 3))
    with pytest.raises(ValueError):
        Schedule((1, 1, 2))
    with pytest.raises(ValueError):
        Schedule((0, 1, 2))


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_single_job():
    inst = make_instance([(3, 5, 5)])
    ev = evaluate(Schedule((1,)), Scenario((5,)), inst)
    assert ev.completions == (8,)
    assert ev.makespan == 8
    assert ev.critical_position == 1


def test_evaluate_three_jobs_hand_recursion():
    # jobs (p, r) = (2,3), (2,1), (2,2); order (2,3,1) starts at release 1
    inst = make_instance([(2, 3, 3), (2, 1, 1), (2, 2, 2)])
    ev = evaluate(Schedule((2, 3, 1)), Scenario((3, 1, 2)), inst)
    assert ev.completions == (3, 5, 7)
    assert ev.makespan == 7
    assert ev.critical_position == 1
    # 7 is also the best any order can do
    best = min(
        evaluate(Schedule(p), Scenario((3, 1, 2)), inst).makespan
        for p in permutations((1, 2, 3))
    )
    assert best == 7


def test_evaluate_all_zero_releases_gives_processing_sum():
    rng = random.Random(0)
    for _ in range(25):
        inst = random_instance(rng)
        sched = random_schedule(rng, inst.n)
        zero = Scenario((0,) * inst.n)
        ev = evaluate(sched, zero, inst)
        assert ev.makespan == sum(job.p for job in inst.jobs)
        assert ev.critical_position == 1


def test_evaluate_dimension_mismatch():
    inst = make_instance([(1, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="dimension"):
        evaluate(Schedule((1,)), Scenario((0, 0)), inst)
    with pytest.raises(ValueError, match="dimension"):
        evaluate(Schedule((1, 2)), Scenario((0,)), inst)


def test_evaluate_completions_strictly_increase():
    rng = random.Random(1)
    for _ in range(50):
        inst = random_instance(rng)
        sched = random_schedule(rng, inst.n)
        ev = evaluate(sched, random_interval_scenario(rng, inst), inst)
        assert all(a < b for a, b in zip(ev.completions, ev.completions[1:]))
        assert ev.makespan == ev.completions[-1]


def test_evaluate_vector_path_matches_loop_path():
    # the numpy path at n = 3000 against a Python-int loop
    rng = random.Random(2)
    n = 3000
    jobs = []
    for i in range(n):
        r_lo = rng.randint(0, 500)
        jobs.append(Job(i + 1, rng.randint(1, 9), r_lo, r_lo + rng.randint(0, 80)))
    inst = Instance(tuple(jobs), UncertaintyModel("U2", 3))
    sched = random_schedule(rng, n)
    sc = Scenario(tuple(rng.randint(j.r_lo, j.r_hi) for j in inst.jobs))
    ev = evaluate(sched, sc, inst)
    t = 0
    comp = []
    crit = 1
    for i, jid in enumerate(sched.perm, start=1):
        t = max(t, sc.releases[jid - 1]) + inst.jobs[jid - 1].p
        comp.append(t)
        if t == sc.releases[jid - 1] + inst.jobs[jid - 1].p:
            crit = i
    assert list(ev.completions) == comp
    assert ev.critical_position == crit


# ---------------------------------------------------------------------------
# critical jobs


def test_critical_job_single_and_zero_release():
    inst = make_instance([(3, 5, 5)])
    ev = evaluate(Schedule((1,)), Scenario((5,)), inst)
    assert ev.critical_position == 1


def test_critical_job_hand_case():
    inst = make_instance([(2, 3, 3), (2, 1, 1), (2, 2, 2)])
    sched, sc = Schedule((2, 3, 1)), Scenario((3, 1, 2))
    ev = evaluate(sched, sc, inst)
    assert ev.critical_position == 1


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_critical_job_satisfies_makespan_equation(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    inst = random_instance(rng)
    sched = random_schedule(rng, inst.n)
    sc = random_interval_scenario(rng, inst)
    ev = evaluate(sched, sc, inst)
    i = ev.critical_position
    jid = sched.perm[i - 1]
    suffix = sum(inst.jobs[j - 1].p for j in sched.perm[i - 1 :])
    assert sc.releases[jid - 1] + suffix == ev.makespan
    # chosen position is the last one completing right at release + processing
    for later in range(i + 1, inst.n + 1):
        jid2 = sched.perm[later - 1]
        assert ev.completions[later - 1] != sc.releases[jid2 - 1] + inst.jobs[jid2 - 1].p


# ---------------------------------------------------------------------------
# release-date ordering


def test_erd_sorts_by_release():
    inst = make_instance([(1, 3, 3), (1, 1, 1), (1, 2, 2)])
    assert erd_schedule(Scenario((3, 1, 2)), inst).perm == (2, 3, 1)


def test_erd_breaks_ties_by_id():
    inst = make_instance([(5, 1, 1), (2, 1, 1)])
    assert erd_schedule(Scenario((1, 1)), inst).perm == (1, 2)


SORT_SIZES = [1, 2, _PACKED_MIN - 1, _PACKED_MIN, _PACKED_MIN + 1, 3000]


def _sort_cases(n: int) -> dict:
    """Named int64 key arrays of length n for the shared stable sort."""
    rng = np.random.default_rng(n)
    span = 1 << (62 - max(1, (n - 1).bit_length()))
    cases = {
        "heavy ties": rng.integers(0, 4, n),
        "all equal": np.full(n, 7, dtype=np.int64),
        "negative": rng.integers(-(2**40), 5, n),
        "int64 extremes": rng.integers(-(2**63), MAX_TIME, n, endpoint=True),
    }
    # range exactly span - 1 (the widest that packs) and span (falls back),
    # offset so that the keys are negative
    for name, width in (("packs", span - 1), ("falls back", span)):
        keys = rng.integers(-(2**61), -(2**61) + width, n, endpoint=True)
        keys[0], keys[-1] = -(2**61), -(2**61) + width
        if n > 3:
            keys[1 : n // 2 : 3] = keys[n // 2]  # ties inside the wide range
        cases[f"range {name}"] = keys
    extremes = cases["int64 extremes"]
    extremes[0], extremes[-1] = MAX_TIME, -(2**63)
    return cases


@pytest.mark.parametrize("n", SORT_SIZES)
def test_sorted_order_is_the_stable_argsort(n):
    for name, keys in _sort_cases(n).items():
        order, ordered = _sorted_order(keys)
        want = np.argsort(keys, kind="stable")
        assert order.dtype == ordered.dtype == np.int64, name
        assert np.array_equal(order, want), name
        assert np.array_equal(ordered, keys[want]), name


@pytest.mark.parametrize("n", SORT_SIZES)
def test_sorted_order_packs_exactly_when_the_range_fits(n, monkeypatch):
    cases = _sort_cases(n)
    calls = count_argsort_calls(monkeypatch)
    for name, keys in cases.items():
        packs = n >= _PACKED_MIN and name not in ("range falls back", "int64 extremes")
        calls.clear()
        _sorted_order(keys)
        assert len(calls) == (0 if packs else 1), name


def test_fast_paths_never_call_argsort(monkeypatch):
    rng = random.Random(7)
    n = 3000
    p = [rng.randint(1, 9) for _ in range(n)]
    r_lo = [rng.randint(0, 3 * n) for _ in range(n)]
    r_hi = [r + rng.randint(0, 40) for r in r_lo]

    def refuse(*args, **kwargs):
        raise AssertionError("np.argsort called on a fast path")

    monkeypatch.setattr(np, "argsort", refuse)
    for model in (UncertaintyModel("U1", 12), UncertaintyModel("U2", 2)):
        inst = Instance.from_arrays(p, r_lo, r_hi, model)
        low, _ = extreme_scenarios(inst)
        solve_robust_absolute(inst)
        solve_robust_regret(inst)
        erd_schedule(low, inst)
        optimal_makespan(low, inst)


def test_erd_is_optimal_small():
    rng = random.Random(3)
    for _ in range(150):
        inst = random_instance(rng, max_n=6)
        sc = random_interval_scenario(rng, inst)
        got = evaluate(erd_schedule(sc, inst), sc, inst).makespan
        best = min(
            evaluate(Schedule(p), sc, inst).makespan
            for p in permutations(range(1, inst.n + 1))
        )
        assert got == best


def test_optimal_makespan_examples():
    inst = make_instance([(2, 3, 3), (2, 1, 1), (2, 2, 2)])
    assert optimal_makespan(Scenario((3, 1, 2)), inst) == 7
    inst = make_instance([(3, 6, 6), (1, 1, 1), (2, 5, 5)])
    assert optimal_makespan(Scenario((6, 1, 5)), inst) == 10
    rng = random.Random(4)
    for _ in range(20):
        inst = random_instance(rng)
        zero = Scenario((0,) * inst.n)
        assert optimal_makespan(zero, inst) == sum(job.p for job in inst.jobs)


def test_optimal_makespan_equals_erd_evaluation():
    rng = random.Random(5)
    for _ in range(60):
        inst = random_instance(rng)
        sc = random_interval_scenario(rng, inst)
        sched = erd_schedule(sc, inst)
        assert optimal_makespan(sc, inst) == evaluate(sched, sc, inst).makespan


# ---------------------------------------------------------------------------
# order-free properties


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_makespan_monotone_in_releases(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    inst = random_instance(rng)
    sched = random_schedule(rng, inst.n)
    low = random_interval_scenario(rng, inst)
    bumped = Scenario(tuple(r + rng.randint(0, 5) for r in low.releases))
    assert (
        evaluate(sched, bumped, inst).makespan >= evaluate(sched, low, inst).makespan
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_single_release_bump_shifts_makespan_by_at_most_that_much(data):
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    inst = random_instance(rng)
    sched = random_schedule(rng, inst.n)
    sc = random_interval_scenario(rng, inst)
    jid = rng.randint(1, inst.n)
    eps = rng.randint(0, 10)
    releases = list(sc.releases)
    releases[jid - 1] += eps
    bumped = Scenario(tuple(releases))
    before = evaluate(sched, sc, inst)
    after = evaluate(sched, bumped, inst)
    assert after.makespan <= before.makespan + eps
    # equality whenever the bumped job was critical
    pos = sched.perm.index(jid) + 1
    suffix = sum(inst.jobs[j - 1].p for j in sched.perm[pos - 1 :])
    if sc.releases[jid - 1] + suffix == before.makespan:
        assert after.makespan == before.makespan + eps
    assert optimal_makespan(bumped, inst) <= optimal_makespan(sc, inst) + eps


# ---------------------------------------------------------------------------
# columnar instances


def test_from_arrays_equals_job_constructor():
    jobs = (Job(1, 2, 0, 4), Job(2, 3, 1, 5), Job(3, 1, 2, 2))
    model = UncertaintyModel("U1", 3)
    inst = Instance(jobs, model)
    for p, r_lo, r_hi in (
        ([2, 3, 1], [0, 1, 2], [4, 5, 2]),
        (np.array([2, 3, 1]), np.array([0, 1, 2], dtype=np.int32),
         np.array([4, 5, 2], dtype=np.uint8)),
    ):
        built = Instance.from_arrays(p, r_lo, r_hi, model)
        assert built == inst
        assert hash(built) == hash(inst)
        assert "jobs" not in built.__dict__  # derived only on request
        assert built.jobs == jobs
    assert Instance.from_arrays([2, 3, 1], [0, 1, 2], [4, 5, 2], UncertaintyModel("U2", 3)) != inst
    assert [c.tolist() for c in inst.columns] == [[2, 3, 1], [0, 1, 2], [4, 5, 2]]
    assert all(c.dtype == np.int64 for c in inst.columns)


def test_from_arrays_copies_and_freezes_columns():
    p = np.array([2, 3])
    inst = Instance.from_arrays(p, [0, 0], [1, 1], UncertaintyModel("U2", 1))
    p[0] = 99
    assert inst.columns[0].tolist() == [2, 3]
    with pytest.raises(ValueError):
        inst.columns[0][0] = 5
    with pytest.raises(AttributeError):
        inst.uncertainty = UncertaintyModel("U2", 2)
    assert pickle.loads(pickle.dumps(inst)) == inst


def test_from_arrays_rejects_bad_columns():
    model = UncertaintyModel("U2", 1)
    with pytest.raises(ValueError, match="integers"):
        Instance.from_arrays(np.array([1.0, 2.0]), [0, 0], [0, 0], model)
    with pytest.raises(ValueError, match=r"p\[1\] must be an integer"):
        Instance.from_arrays([1, 2.5], [0, 0], [0, 0], model)
    with pytest.raises(ValueError, match=r"r_lo\[0\] must be an integer"):
        Instance.from_arrays([1, 2], [True, 0], [1, 0], model)
    with pytest.raises(ValueError, match="integers"):
        Instance.from_arrays([1, 2], np.array([False, False]), [0, 0], model)
    with pytest.raises(ValueError, match="one-dimensional"):
        Instance.from_arrays(np.ones((2, 2), dtype=np.int64), np.zeros(2, np.int64),
                             np.zeros(2, np.int64), model)
    with pytest.raises(ValueError, match="must be an integer"):
        Instance.from_arrays([[1, 2], [3, 4]], [0, 0], [0, 0], model)
    with pytest.raises(ValueError, match="length"):
        Instance.from_arrays([1, 2, 3], [0, 0], [0, 0], model)
    with pytest.raises(ValueError, match="at least one job"):
        Instance.from_arrays([], [], [], model)
    with pytest.raises(ValueError, match="job 2: processing time"):
        Instance.from_arrays([1, 0], [0, 0], [0, 0], model)
    with pytest.raises(ValueError, match=r"job 1: release interval \[3, 2\]"):
        Instance.from_arrays([1, 1], [3, 0], [2, 0], model)
    with pytest.raises(ValueError, match="64-bit"):
        Instance.from_arrays([1], [0], [2**63], model)
    with pytest.raises(ValueError, match="64-bit"):
        Instance.from_arrays([1], [0], np.array([2**63], dtype=np.uint64), model)


def test_instance_rejects_non_integer_job_fields():
    model = UncertaintyModel("U2", 1)
    with pytest.raises(ValueError, match="job 1: field 'p' must be an integer, got 2.5"):
        Instance((Job(1, 2.5, 0, 3),), model)
    with pytest.raises(ValueError, match="job 1: field 'p' must be an integer, got True"):
        Instance((Job(1, True, 0, 0),), model)
    with pytest.raises(ValueError, match="job 2: field 'r_hi'"):
        Instance((Job(1, 1, 0, 0), Job(2, 1, 0, 3.0)), model)
    with pytest.raises(ValueError, match="field 'id'"):
        Instance((Job(1.0, 1, 0, 0),), model)
    with pytest.raises(ValueError, match="id order"):
        Instance((Job(1, 1, 0, 0), Job(2**70, 1, 0, 0)), model)
    with pytest.raises(ValueError, match="gamma must be an integer"):
        UncertaintyModel("U1", 2.5)


def test_instance_worst_case_bound_uses_exact_sum():
    # four processing times of 2**62 sum to 2**64, which an int64 sum wraps to 0
    model = UncertaintyModel("U2", 1)
    with pytest.raises(ValueError, match="64-bit"):
        make_instance([(2**62, 0, 0)] * 4)
    with pytest.raises(ValueError, match="64-bit"):
        Instance.from_arrays([2**62] * 4, [0] * 4, [0] * 4, model)
    with pytest.raises(ValueError, match="64-bit"):
        make_instance([(2**70, 0, 0)])
    big = make_instance([(1, 0, MAX_TIME - 2), (1, 0, 0)])
    assert big.columns[2].tolist() == [MAX_TIME - 2, 0]


def test_schedule_requires_integer_ids():
    with pytest.raises(ValueError, match="integer"):
        Schedule((1.0, 2.0))
    with pytest.raises(ValueError, match="integer"):
        Schedule((True, 2))
    n = 3000
    with pytest.raises(ValueError, match="integer"):
        Schedule(tuple(float(i) for i in range(1, n + 1)))
    with pytest.raises(ValueError, match="permutation"):
        Schedule(tuple(range(2, n + 2)))
    assert Schedule(np.arange(1, n + 1)).indices.tolist() == list(range(n))


def test_hot_paths_never_build_job_records():
    rng = random.Random(6)
    for n in (5, 3000):
        p = [rng.randint(1, 9) for _ in range(n)]
        r_lo = [rng.randint(0, 40) for _ in range(n)]
        r_hi = [r + rng.randint(0, 30) for r in r_lo]
        for model in (UncertaintyModel("U1", 12), UncertaintyModel("U2", 2)):
            inst = Instance.from_arrays(p, r_lo, r_hi, model)
            trimmed = normalize_u1(inst)
            low, high = extreme_scenarios(inst)
            sched, _ = solve_robust_absolute(inst)
            report = solve_robust_regret(inst)
            robust_absolute_cost(report.schedule, inst)
            worst_case_scenario_absolute(sched, inst)
            max_regret(sched, inst)
            is_feasible(candidate_scenario(inst, 1), inst)
            evaluate(sched, high, inst).critical_position
            optimal_makespan(low, inst)
            erd_schedule(low, inst)
            for built in (inst, trimmed):
                assert "jobs" not in built.__dict__


# ---------------------------------------------------------------------------
# public surface


def test_every_public_name_appears_in_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [name for name in robust_makespan.__all__ if not re.search(rf"\b{name}\b", readme)]
    assert missing == []
