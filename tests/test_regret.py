"""Regret criterion: per-scenario optima (both paths), reports, and the solver."""
import dataclasses
import pickle
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from robust_makespan import (
    Instance,
    Scenario,
    Schedule,
    UncertaintyModel,
    all_optimal_makespans_fast,
    all_optimal_makespans_naive,
    candidate_scenarios,
    erd_schedule,
    evaluate,
    max_regret,
    normalize_u1,
    optimal_makespan,
    regret_of,
    solve_robust_regret,
)
from robust_makespan import core, regret
from robust_makespan.core import _PACKED_MIN
from robust_makespan.oracle import brute_max_regret, brute_min_max_regret
from robust_makespan.rmq import IntervalMinTable

from conftest import gather_spy, make_instance, random_instance, random_schedule


def slack_profile(inst):
    """The all-lower-bounds profile, per release-sorted position, as Python tuples: the work
    from each position on (`rest`, one entry longer) and each term's slack below the makespan
    (`gap`); every term rs[k] + rest[k] plus its gap is the base makespan."""
    p, r_lo, _ = inst.columns
    order, rs = regret._release_order(r_lo)
    rest, term, base = regret._profile_from_sorted(rs, p[order])
    assert np.array_equal(term, rs + rest[:-1]) and base == term.max()
    return SimpleNamespace(
        order=tuple((order + 1).tolist()),
        rest=tuple(rest.tolist()),
        gap=tuple((base - term).tolist()),
        base_makespan=base,
    )


def two_job_instance():
    # j1: p=2, releases in [0,4]; j2: p=3, release fixed at 0
    return make_instance([(2, 0, 4), (3, 0, 0)], kind="U2", gamma=1)


# ---------------------------------------------------------------------------
# regret of a single scenario


def test_regret_zero_for_scenario_optimal_order():
    rng = random.Random(0)
    for _ in range(40):
        inst = random_instance(rng)
        sc = candidate_scenarios(inst)[rng.randrange(inst.n)]
        assert regret_of(erd_schedule(sc, inst), sc, inst) == 0


def test_regret_two_job_hand_case():
    inst = two_job_instance()
    assert regret_of(Schedule((1, 2)), Scenario((4, 0)), inst) == 3
    assert regret_of(Schedule((2, 1)), Scenario((4, 0)), inst) == 0


# ---------------------------------------------------------------------------
# worst regret over the candidate scenarios


def test_max_regret_degenerate_intervals():
    inst = make_instance([(2, 3, 3), (2, 1, 1)])
    low = Scenario((3, 1))
    for perm in ((1, 2), (2, 1)):
        sched = Schedule(perm)
        assert max_regret(sched, inst).regret == regret_of(sched, low, inst)


def test_max_regret_two_job_hand_case():
    inst = two_job_instance()
    report = max_regret(Schedule((2, 1)), inst)
    assert report.regret == 0
    assert report.per_candidate == (0, 0)
    report = max_regret(Schedule((1, 2)), inst)
    assert report.regret == 3
    assert report.per_candidate == (3, 0)
    assert report.worst_job == 1


def test_max_regret_matches_candidate_by_candidate_evaluation():
    rng = random.Random(1)
    for _ in range(150):
        inst = normalize_u1(random_instance(rng))
        sched = random_schedule(rng, inst.n)
        report = max_regret(sched, inst)
        direct = tuple(
            regret_of(sched, sc, inst) for sc in candidate_scenarios(inst)
        )
        assert report.per_candidate == direct
        assert report.regret == max(direct)
        assert report.worst_job == direct.index(max(direct)) + 1
        assert report.regret >= 0


def test_max_regret_matches_grid_oracle():
    rng = random.Random(2)
    for _ in range(150):
        inst = random_instance(rng)
        sched = random_schedule(rng, inst.n)
        assert max_regret(sched, normalize_u1(inst)).regret == brute_max_regret(sched, inst)


def test_max_regret_dimension_mismatch():
    inst = two_job_instance()
    with pytest.raises(ValueError, match="dimension"):
        max_regret(Schedule((1, 2, 3)), inst)


# ---------------------------------------------------------------------------
# slack profile


def test_slack_profile_by_hand():
    inst = make_instance([(3, 0, 6), (1, 1, 1), (2, 5, 5)])
    prof = slack_profile(inst)
    assert prof.order == (1, 2, 3)
    assert prof.rest == (6, 3, 2, 0)
    assert prof.gap == (1, 3, 0)  # terms 6, 4 and 7
    assert prof.base_makespan == 7


def test_slack_profile_zero_releases():
    inst = make_instance([(4, 0, 0), (2, 0, 0), (1, 0, 0)])
    prof = slack_profile(inst)
    assert prof.rest == (7, 3, 1, 0)
    # with every release at 0, a term's gap is the work before it
    assert prof.gap == (0, 4, 6)
    assert prof.base_makespan == 7


def test_slack_profile_single_job():
    inst = make_instance([(2, 5, 9)])
    prof = slack_profile(inst)
    assert prof.rest == (2, 0)
    assert prof.gap == (0,)
    assert prof.base_makespan == 7


def test_slack_profile_recurrences_hold():
    rng = random.Random(3)
    for _ in range(80):
        inst = random_instance(rng, max_n=8)
        prof = slack_profile(inst)
        n = inst.n
        # order sorts by lower release bound with id ties
        lows = [inst.jobs[j - 1].r_lo for j in prof.order]
        assert lows == sorted(lows)
        assert len(prof.rest) == n + 1 and prof.rest[n] == 0
        prev = 0
        for i in range(n):
            job = inst.jobs[prof.order[i] - 1]
            assert prof.rest[i] == job.p + prof.rest[i + 1]
            prev = max(prev, job.r_lo) + job.p
        assert min(prof.gap) == 0
        assert prof.base_makespan == prev
        assert prof.base_makespan == optimal_makespan(Scenario(inst.columns[1]), inst)


# ---------------------------------------------------------------------------
# per-candidate optima, both paths


def test_all_optima_degenerate_intervals():
    inst = make_instance([(2, 3, 3), (2, 1, 1), (2, 2, 2)])
    base = optimal_makespan(Scenario((3, 1, 2)), inst)
    assert all_optimal_makespans_fast(inst).tolist() == [base] * 3
    assert all_optimal_makespans_naive(inst).tolist() == [base] * 3


def test_all_optima_by_hand():
    inst = make_instance([(3, 0, 6), (1, 1, 1), (2, 5, 5)])
    assert all_optimal_makespans_naive(inst).tolist() == [10, 7, 7]
    assert all_optimal_makespans_fast(inst).tolist() == [10, 7, 7]
    inst = two_job_instance()
    assert all_optimal_makespans_naive(inst).tolist() == [6, 5]
    assert all_optimal_makespans_fast(inst).tolist() == [6, 5]


def test_all_optima_stationary_when_gaps_are_huge():
    inst = make_instance([(1, 0, 0), (1, 100, 100), (1, 200, 200)])
    base = optimal_makespan(Scenario((0, 100, 200)), inst)
    assert all_optimal_makespans_fast(inst).tolist() == [base] * 3


def test_fast_agrees_with_naive_small():
    rng = random.Random(4)
    for _ in range(400):
        inst = normalize_u1(random_instance(rng, max_n=7))
        naive = all_optimal_makespans_naive(inst)
        assert np.array_equal(all_optimal_makespans_fast(inst), naive)
        literal = [optimal_makespan(sc, inst) for sc in candidate_scenarios(inst)]
        assert naive.tolist() == literal


def test_fast_agrees_with_literal_per_candidate_sort():
    # independent reference: a fresh sort and evaluation per candidate scenario
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(100, 700)
        jobs = [(rng.randint(1, 5), rng.randint(0, 60)) for _ in range(n)]
        inst = make_instance(
            [(p, r, r + rng.randint(0, 15)) for p, r in jobs], kind="U2", gamma=2
        )
        fast = all_optimal_makespans_fast(inst)
        naive = all_optimal_makespans_naive(inst)
        literal = [optimal_makespan(sc, inst) for sc in candidate_scenarios(inst)]
        assert fast.tolist() == literal
        assert naive.tolist() == literal


def test_all_optima_tie_stress():
    # masses of equal bounds exercise both paths' tie handling
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(2, 40)
        inst = make_instance(
            [
                (rng.randint(1, 3), r_lo, r_lo + rng.choice((0, 0, 1, 2)))
                for r_lo in (rng.choice((0, 1, 2)) for _ in range(n))
            ],
            kind="U2",
            gamma=1,
        )
        fast = all_optimal_makespans_fast(inst)
        assert np.array_equal(fast, all_optimal_makespans_naive(inst))
        literal = [optimal_makespan(sc, inst) for sc in candidate_scenarios(inst)]
        assert fast.tolist() == literal


def test_all_optima_never_below_base_makespan():
    rng = random.Random(7)
    for _ in range(80):
        inst = normalize_u1(random_instance(rng))
        base = slack_profile(inst).base_makespan
        assert base == optimal_makespan(Scenario(inst.columns[1]), inst)
        assert all(m >= base for m in all_optimal_makespans_fast(inst))


def test_all_optima_each_term_binds():
    # optimum = max(base, base + p_j - min(gap over (a, s]), rh_j + p_j + rest[s])
    inst = make_instance([(3, 0, 6), (1, 1, 1), (2, 5, 9)])
    prof = slack_profile(inst)
    assert prof.base_makespan == 7 and prof.gap == (1, 3, 0) and prof.rest == (6, 3, 2, 0)
    # job 1 passes both others (s = 3) and lifts the tight term 3: 7 + 3 - 0, its own 6 + 3 + 0
    # job 2 stays put: the base, its own term being 1 + 1 + 2
    # job 3 stays last: its own term 9 + 2 + 0
    assert all_optimal_makespans_naive(inst).tolist() == [10, 7, 11]
    assert all_optimal_makespans_fast(inst).tolist() == [10, 7, 11]
    # terms 1 + 5 and 4 + 3: the base binds for job 1 (own 1 + 2 + 3), job 2's own term 5 + 3
    inst = Instance.from_arrays([2, 3], [1, 4], [1, 5], UncertaintyModel("U2", 1))
    assert slack_profile(inst).base_makespan == 7
    assert all_optimal_makespans_naive(inst).tolist() == [7, 8]
    assert all_optimal_makespans_fast(inst).tolist() == [7, 8]


def test_naive_parallel_merge_is_deterministic(cpus, monkeypatch):
    monkeypatch.setattr(regret, "_NAIVE_SPLIT_MIN", 4096)  # so that two CPUs split the 5,000
    rng = random.Random(8)
    n = 5000
    jobs = []
    for _ in range(n):
        r_lo = rng.randint(0, 4000)
        jobs.append((rng.randint(1, 9), r_lo, r_lo + rng.randint(0, 200)))
    inst = make_instance(jobs, kind="U2", gamma=10)
    cpus(1)
    serial = all_optimal_makespans_naive(inst)
    cpus(2)
    assert np.array_equal(serial, all_optimal_makespans_naive(inst))
    assert np.array_equal(serial, all_optimal_makespans_fast(inst))


@pytest.mark.parametrize("n", [7, _PACKED_MIN + 1])
def test_naive_reference_sorts_on_its_own(n, monkeypatch):
    # the reference must not share the fast path's sort: with both entry points refusing,
    # it returns the optima it returned before, on heavy release ties
    rng = np.random.default_rng(n)
    r_lo = rng.integers(0, max(2, n // 8), n)
    inst = Instance.from_arrays(rng.integers(1, 10, n), r_lo, r_lo + rng.integers(0, 13, n),
                                UncertaintyModel("U1", 9))
    want = all_optimal_makespans_naive(inst)

    def refuse(*args, **kwargs):
        raise AssertionError("the naive reference called the fast path's sort")

    monkeypatch.setattr(regret, "_release_order", refuse)
    monkeypatch.setattr(regret, "_sorted_order", refuse)
    monkeypatch.setattr(core, "_sorted_order", refuse)
    assert np.array_equal(all_optimal_makespans_naive(inst), want)


def test_package_import_leaves_multiprocessing_out():
    # no module of the package needs it: the naive reference's halves run on a thread
    src = str(Path(regret.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import robust_makespan; "
            "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False"]


@pytest.fixture
def rmq_split(monkeypatch):
    """Count the fast path's range queries: calls, shortcut hits and walked ranges; and,
    per table, [ranges walked, whether its block levels are built] after each call."""
    seen = {"calls": 0, "hit": 0, "walked": 0, "tables": {}}

    class Spy(IntervalMinTable):
        def range_min_many(self, lo, hi):
            nonempty = lo <= hi
            hit = nonempty & (self.first[np.clip(lo - 1, 0, self.n - 1)] < hi)
            walked = int((nonempty & ~hit).sum())
            seen["calls"] += 1
            seen["hit"] += int(hit.sum())
            seen["walked"] += walked
            out = super().range_min_many(lo, hi)
            row = seen["tables"].setdefault(self, [0, False])
            row[0] += walked
            row[1] = "levels" in self.__dict__
            return out

    monkeypatch.setattr(regret, "IntervalMinTable", Spy)
    return seen


def _levels_built_iff_walked(seen):
    return bool(seen["tables"]) and all(
        built == (walked > 0) for walked, built in seen["tables"].values())


def _regime_instance(rng, n, span, kind, w_max, tie_step=1):
    """Releases over [0, span) (multiples of tie_step), widths 0..w_max, p in 1..100."""
    p = rng.integers(1, 101, n)
    r_lo = rng.integers(0, max(1, span // tie_step), n) * tie_step
    r_hi = r_lo + rng.integers(0, w_max + 1, n)
    gamma = max(1, n // 10) if kind == "U2" else max(0, w_max // 2)
    return Instance.from_arrays(p, r_lo, r_hi, UncertaintyModel(kind, gamma))


def _regime_shapes(rng, n):
    # loads from 25 (span 2n) down to 0.25 (span 200n) with mean p ~50; widths
    # reach about 20 release positions so that ranges stay non-empty
    for factor in (2, 50, 60, 200):
        span = factor * n
        for kind in ("U1", "U2"):
            yield _regime_instance(rng, n, span, kind, max(100, 20 * factor))
    for kind in ("U1", "U2"):
        yield _regime_instance(rng, n, 60 * n, kind, 0)  # zero widths: every job stays put
        yield _regime_instance(rng, n, 2 * n, kind, 200, tie_step=100)  # heavy release ties
        yield _regime_instance(rng, n, 60 * n, kind, 3000, tie_step=600)


@pytest.mark.parametrize("chunk", (7, 64))
def test_fast_agrees_with_naive_across_load_regimes(monkeypatch, rmq_split, chunk):
    # small chunks make n ~ 1000 cross many chunk boundaries; the underloaded
    # shapes leave ranges the suffix-minimum shortcut cannot decide
    monkeypatch.setattr(regret, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for inst in _regime_shapes(rng, int(rng.integers(900, 1100))):
        calls = rmq_split["calls"]
        fast = all_optimal_makespans_fast(inst)
        assert rmq_split["calls"] - calls == -(-inst.n // chunk)
        assert np.array_equal(fast, all_optimal_makespans_naive(inst))
    assert rmq_split["hit"] > 0
    assert rmq_split["walked"] > 0
    assert _levels_built_iff_walked(rmq_split)


def test_fast_agrees_with_naive_one_past_a_chunk(rmq_split, cpus):
    cpus(2)
    n = regret._CHUNK + 1
    rng = np.random.default_rng(n)
    for inst in (
        _regime_instance(rng, n, 60 * n, "U1", 1200),
        _regime_instance(rng, n, 2 * n, "U2", 100),
    ):
        fast = all_optimal_makespans_fast(inst)
        assert np.array_equal(fast, all_optimal_makespans_naive(inst))
    assert rmq_split["calls"] == 4
    assert rmq_split["hit"] > 0
    assert rmq_split["walked"] > 0
    assert _levels_built_iff_walked(rmq_split)


def test_lib_narrow_shaped_solve_builds_no_levels(rmq_split):
    # releases over [0, 2n), widths 0-100, U2 with gamma n/10: the suffix
    # index answers every non-empty range, so the block levels are never read
    n = 4096
    rng = np.random.default_rng(1)
    r_lo = rng.integers(0, 2 * n, n)
    inst = Instance.from_arrays(rng.integers(1, 101, n), r_lo, r_lo + rng.integers(0, 101, n),
                                UncertaintyModel("U2", n // 10))
    solve_robust_regret(inst)
    assert rmq_split["hit"] > 0
    assert rmq_split["walked"] == 0
    assert [built for _, built in rmq_split["tables"].values()] == [False]
    assert np.array_equal(all_optimal_makespans_fast(inst), all_optimal_makespans_naive(inst))


@pytest.mark.parametrize("wide", [False, True])
def test_release_sort_carries_p_and_the_width(wide, monkeypatch, split_at):
    # lib-narrow shape: the release range (2n), the index, p (7 bits) and the width
    # r_hi - r_lo (7 bits) fit in 62 bits, so both columns come out of the packed sort;
    # lib-wide shape (U1, widths to 2**30 trimmed to gamma = 2**26): the width needs 27 bits
    # and is gathered, while p is still carried; columns ride the packed sort from the split
    # size, patched to 2**15, on
    n = 2**15 + 1
    split_at(2**15)
    rng = np.random.default_rng(n + wide)
    p = rng.integers(1, 101, n)
    r_lo = rng.integers(0, 2 * n, n)
    r_hi = r_lo + rng.integers(0, 2**30 if wide else 101, n)
    model = UncertaintyModel("U1", 2**26) if wide else UncertaintyModel("U2", n // 10)
    inst = Instance.from_arrays(p, r_lo, r_hi, model)
    upper = inst.trimmed_r_hi
    fields = [int(r_lo.max() - r_lo.min()), n - 1, int(p.max()), int((upper - r_lo).max())]
    assert (sum(v.bit_length() for v in fields) > 62) == wide
    spies = []
    release_order = regret._release_order

    def spying(r_lo, *carry):
        spies.extend(gather_spy(column) for column in carry)
        return release_order(r_lo, *spies)

    monkeypatch.setattr(regret, "_release_order", spying)
    order, rs, ps, rh, optima = regret._all_optima_fast_arrays(p, r_lo, upper)
    assert [spy.gathers for spy in spies] == [0, int(wide)]
    want = np.argsort(r_lo, kind="stable")
    for got, column in ((order, np.arange(n)), (rs, r_lo), (ps, p), (rh, upper)):
        assert np.array_equal(got, column[want])
    gathered = regret._profile_from_sorted(r_lo[want], p[want])
    assert np.array_equal(optima, regret._optima_sorted_numpy(
        r_lo[want], p[want], upper[want], *gathered))


# ---------------------------------------------------------------------------
# solver


def test_solver_two_job_hand_case():
    inst = two_job_instance()
    report = solve_robust_regret(inst)
    assert report.schedule.perm == (2, 1)
    assert report.regret == 0
    assert max_regret(Schedule((1, 2)), inst).regret == 3


def test_solver_degenerate_intervals_gives_release_order_and_zero_regret():
    inst = make_instance([(2, 3, 3), (2, 1, 1), (2, 2, 2)])
    report = solve_robust_regret(inst)
    assert report.schedule.perm == (2, 3, 1)
    assert report.regret == 0


def test_solver_matches_exhaustive_minimum():
    rng = random.Random(9)
    for _ in range(150):
        inst = random_instance(rng)
        assert solve_robust_regret(inst).regret == brute_min_max_regret(inst)


def test_solver_never_beaten_by_any_order():
    rng = random.Random(10)
    for _ in range(40):
        inst = random_instance(rng, max_n=5)
        trimmed = normalize_u1(inst)
        best = solve_robust_regret(inst).regret
        for perm in permutations(range(1, inst.n + 1)):
            assert max_regret(Schedule(perm), trimmed).regret >= best


def test_report_value_semantics():
    rng = random.Random(12)
    n = 3000
    inst = Instance.from_arrays([rng.randint(1, 9) for _ in range(n)],
                                [rng.randint(0, 40) for _ in range(n)],
                                [rng.randint(40, 80) for _ in range(n)],
                                UncertaintyModel("U2", 3))
    report = solve_robust_regret(inst)
    assert len(repr(report)) < 200
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report and hash(copy) == hash(report)
    assert copy.per_candidate == report.per_candidate
    raised = dataclasses.replace(report, regret=report.regret + 1)
    assert raised != report and raised.per_candidate == report.per_candidate
    values = np.array(report.per_candidate)
    values[1] -= 1
    other = dataclasses.replace(report, _per_candidate=values.tobytes())
    assert other != report and other.per_candidate[1] == report.per_candidate[1] - 1


def test_solver_report_is_consistent_with_max_regret():
    rng = random.Random(11)
    for _ in range(60):
        inst = normalize_u1(random_instance(rng))
        report = solve_robust_regret(inst)
        again = max_regret(report.schedule, inst)
        assert report == again
