"""Acceptance gate: one test per criterion, exact integer agreement throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with its wall time. Everything is seeded and deterministic;
only the scaling criterion asserts wall-clock budgets.
"""
import math
import random
import time

import numpy as np

from robust_makespan import (
    Instance,
    Job,
    Scenario,
    UncertaintyModel,
    all_optimal_makespans_fast,
    all_optimal_makespans_naive,
    core,
    evaluate,
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
from robust_makespan.oracle import (
    brute_max_regret,
    brute_min_makespan,
    brute_min_max_regret,
    brute_min_worst_cost,
)
from robust_makespan.rmq import IntervalMinTable

from conftest import random_interval_scenario, random_schedule


def _report(name):
    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"{verdict} {name} ({time.perf_counter() - self.t0:.1f}s)")
            return False

    return _Ctx()


def _instance(rng, n, kind, gamma=None, r_max=30, p_max=10):
    jobs = []
    for i in range(1, n + 1):
        r_lo = rng.randint(0, r_max)
        jobs.append(Job(i, rng.randint(1, p_max), r_lo, rng.randint(r_lo, r_max)))
    if gamma is None:
        gamma = rng.choice((1, 2, n)) if kind == "U2" else rng.randint(0, r_max)
    return Instance(tuple(jobs), UncertaintyModel(kind, gamma))


def test_criterion_1_release_order_optimality():
    # >= 1000 random instances, n <= 8, p in [1,10], releases in [0,30]:
    # the release-sorted makespan equals the full permutation enumeration.
    with _report("criterion 1: release-order optimality vs enumeration (1000 x n<=8)"):
        rng = random.Random(101)
        for _ in range(1000):
            inst = _instance(rng, rng.randint(1, 8), rng.choice(("U1", "U2")))
            scenario = random_interval_scenario(rng, inst)
            assert optimal_makespan(scenario, inst) == brute_min_makespan(scenario, inst)


def test_criterion_2_absolute_solver_optimality():
    # >= 500 instances, n <= 7, both budget models: solver cost equals the
    # exhaustive min over orders of the max over the extreme scenario grid.
    with _report("criterion 2: worst-case solver vs exhaustive enumeration (500 x n<=7)"):
        rng = random.Random(202)
        for trial in range(500):
            kind = "U1" if trial % 2 else "U2"
            inst = _instance(rng, rng.randint(1, 7), kind, r_max=20, p_max=8)
            _, cost = solve_robust_absolute(inst)
            assert cost == brute_min_worst_cost(inst)


def test_criterion_3_worst_case_scenario_construction():
    # For every tested (schedule, instance): the constructed scenario is
    # feasible, attains the all-upper-bounds makespan exactly, and keeps the
    # all-upper-bounds critical job critical.
    with _report("criterion 3: worst-case scenario construction (500 instances x 3 orders)"):
        rng = random.Random(303)
        for _ in range(500):
            inst = normalize_u1(_instance(rng, rng.randint(1, 7), rng.choice(("U1", "U2"))))
            _, upper = extreme_scenarios(inst)
            for _ in range(3):
                sched = random_schedule(rng, inst.n)
                cost = robust_absolute_cost(sched, inst)
                assert cost == evaluate(sched, upper, inst).makespan
                scenario = worst_case_scenario_absolute(sched, inst)
                assert is_feasible(scenario, inst)
                ev = evaluate(sched, scenario, inst)
                assert ev.makespan == cost
                crit = evaluate(sched, upper, inst).critical_position
                jid = sched.perm[crit - 1]
                suffix = sum(inst.jobs[j - 1].p for j in sched.perm[crit - 1 :])
                assert scenario.releases[jid - 1] + suffix == ev.makespan


def test_criterion_4_candidate_set_max_regret():
    # >= 500 instances (U2 with gamma in {1,2,n} and trimmed U1), 20 random
    # orders each: candidate-set regret equals the full-grid regret.
    with _report("criterion 4: candidate-set regret vs grid oracle (500 x 20 orders)"):
        rng = random.Random(404)
        for trial in range(500):
            n = rng.randint(2, 6)
            if trial % 2:
                inst = normalize_u1(_instance(rng, n, "U1", r_max=14, p_max=8))
            else:
                inst = _instance(rng, n, "U2", gamma=rng.choice((1, 2, n)), r_max=14, p_max=8)
            for _ in range(20):
                sched = random_schedule(rng, n)
                assert max_regret(sched, inst).regret == brute_max_regret(sched, inst)


def test_criterion_5_regret_solver_optimality():
    # Same population: the sort-key solver's regret equals the exhaustive
    # minimum over all orders of the grid worst-case regret.
    with _report("criterion 5: regret solver vs exhaustive enumeration (500 instances)"):
        rng = random.Random(505)
        for trial in range(500):
            n = rng.randint(2, 6)
            if trial % 2:
                inst = normalize_u1(_instance(rng, n, "U1", r_max=14, p_max=8))
            else:
                inst = _instance(rng, n, "U2", gamma=rng.choice((1, 2, n)), r_max=14, p_max=8)
            assert solve_robust_regret(inst).regret == brute_min_max_regret(inst)


def _big_instance(rng_seed, n, kind="U2"):
    rng = np.random.default_rng(rng_seed)
    p = rng.integers(1, 100, n)
    r_lo = rng.integers(0, 2 * n, n)
    r_hi = r_lo + rng.integers(0, 100, n)
    gamma = max(1, n // 10) if kind == "U2" else 60
    jobs = tuple(Job(i + 1, int(p[i]), int(r_lo[i]), int(r_hi[i])) for i in range(n))
    return Instance(jobs, UncertaintyModel(kind, gamma))


def test_criterion_6_fast_equals_naive_at_scale(cpus):
    # >= 100 instances spanning n in {1e2, 1e3, 1e4, 1e5}: the closed-form
    # path equals the per-candidate sort-and-evaluate path elementwise,
    # including tie pile-ups and stay-put candidates.
    cpus(min(2, core._cpus()))  # at most two threads per reference call
    with _report("criterion 6: fast vs naive per-candidate optima (100 instances up to 1e5)"):
        rng = random.Random(606)
        sizes = [100] * 70 + [1000] * 24 + [10**4] * 5 + [10**5] * 1
        for i, n in enumerate(sizes):
            if n <= 1000:
                # heavy ties: tiny release range relative to n
                jobs = []
                for jid in range(1, n + 1):
                    r_lo = rng.randint(0, max(4, n // 4))
                    jobs.append(Job(jid, rng.randint(1, 9), r_lo, r_lo + rng.randint(0, 12)))
                kind = "U1" if i % 3 == 0 else "U2"
                gamma = rng.randint(1, 20)
                inst = normalize_u1(Instance(tuple(jobs), UncertaintyModel(kind, gamma)))
            else:
                inst = _big_instance(9000 + i, n)
            fast = all_optimal_makespans_fast(inst)
            naive = all_optimal_makespans_naive(inst)
            assert np.array_equal(fast, naive)


def test_criterion_7_range_min_oracle():
    # Exhaustive (lo, hi) agreement with a direct scan for every length up to
    # 64 over small alphabets, randomized up to length 2048, and the walk
    # never touches more than 2*ceil(log2 n) + 2 blocks.
    with _report("criterion 7: range-minimum table vs naive scan + step bound"):
        rng = random.Random(707)
        for n in range(1, 65):
            vectors = [
                [rng.randint(0, 2) for _ in range(n)],
                [rng.randint(0, 4) for _ in range(n)],
                list(range(n)),
                list(range(n, 0, -1)),
                [7] * n,
            ]
            bound = (2 * math.ceil(math.log2(n)) + 2) if n > 1 else 2
            for values in vectors:
                table = IntervalMinTable(values)
                for lo in range(1, n + 1):
                    for hi in range(lo, n + 1):
                        assert table.range_min(lo, hi) == min(values[lo - 1 : hi])
                        assert len(table.consumed_blocks(lo, hi)) <= bound
        for _ in range(12):
            n = rng.randint(65, 2048)
            values = [rng.randint(0, 50) for _ in range(n)]
            table = IntervalMinTable(values)
            bound = 2 * math.ceil(math.log2(n)) + 2
            for _ in range(400):
                lo = rng.randint(1, n)
                hi = rng.randint(lo, n)
                assert table.range_min(lo, hi) == min(values[lo - 1 : hi])
                assert len(table.consumed_blocks(lo, hi)) <= bound


def _best_time(fn, reps=5):
    fn()  # warm compile caches and allocator before timing
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_8_scaling():
    # n = 1e6: each solver finishes in < 5 s, and the closed-form path grows
    # by less than 15x from n = 1e5 to n = 1e6. The growth is checked as the
    # best of three paired measurements; a same-engine 1e4 -> 1e5 growth
    # figure is printed as a diagnostic for the memory-hierarchy share.
    with _report("criterion 8: million-job solves < 5s, near-linear growth"):
        inst_u2 = _big_instance(801, 10**6, "U2")
        inst_u1 = _big_instance(802, 10**6, "U1")
        for inst in (inst_u2, inst_u1):
            t0 = time.perf_counter()
            solve_robust_absolute(inst)
            t_abs = time.perf_counter() - t0
            t0 = time.perf_counter()
            solve_robust_regret(inst)
            t_reg = time.perf_counter() - t0
            kind = inst.uncertainty.kind
            print(f"  {kind}: absolute {t_abs:.2f}s, regret {t_reg:.2f}s")
            assert t_abs < 5.0
            assert t_reg < 5.0

        small = _big_instance(803, 10**5, "U2")
        tiny = _big_instance(805, 10**4, "U2")
        t_tiny = _best_time(lambda: all_optimal_makespans_fast(tiny))

        growth = math.inf
        t_small = t_large = math.inf
        for _ in range(3):
            ts = _best_time(lambda: all_optimal_makespans_fast(small))
            tl = _best_time(lambda: all_optimal_makespans_fast(inst_u2))
            if tl / ts < growth:
                growth, t_small, t_large = tl / ts, ts, tl
        print(
            f"  fast path: 1e4 {t_tiny * 1e3:.1f}ms, 1e5 {t_small * 1e3:.0f}ms, "
            f"1e6 {t_large * 1e3:.0f}ms"
        )
        print(
            f"  growth 1e4->1e5 (cache-resident): x{t_small / t_tiny:.1f}; "
            f"growth 1e5->1e6: x{growth:.1f}"
        )
        assert growth < 15.0


def test_criterion_9_single_release_bump():
    # >= 1000 draws of (order, scenario, job, bump): makespan rises by at
    # most the bump, by exactly the bump when the job is critical, and the
    # optimal makespan also rises by at most the bump.
    with _report("criterion 9: single-release-bump shift bounds (1000 draws)"):
        rng = random.Random(909)
        for _ in range(1000):
            inst = _instance(rng, rng.randint(1, 8), rng.choice(("U1", "U2")))
            sched = random_schedule(rng, inst.n)
            scenario = random_interval_scenario(rng, inst)
            eps = rng.randint(0, 12)
            before = evaluate(sched, scenario, inst)
            # draw one arbitrary job, plus the critical job for the equality half
            crit_jid = sched.perm[before.critical_position - 1]
            for jid in {rng.randint(1, inst.n), crit_jid}:
                releases = list(scenario.releases)
                releases[jid - 1] += eps
                bumped = Scenario(tuple(releases))
                after = evaluate(sched, bumped, inst)
                assert after.makespan <= before.makespan + eps
                pos = sched.perm.index(jid) + 1
                suffix = sum(inst.jobs[j - 1].p for j in sched.perm[pos - 1 :])
                if scenario.releases[jid - 1] + suffix == before.makespan:
                    assert after.makespan == before.makespan + eps
                assert optimal_makespan(bumped, inst) <= optimal_makespan(scenario, inst) + eps
