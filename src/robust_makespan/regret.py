"""Regret criterion: opportunity loss against the per-scenario optimum.

For any schedule, the worst regret over the whole uncertainty set is already
attained on the n single-deviation scenarios (raise one job to its upper
bound, drop the rest to their lower bounds). Minimizing the worst regret
reduces to sorting jobs by (latest release date) minus (optimal makespan of
the job's single-deviation scenario).

Those n per-scenario optima are computed two ways: a reference path that
re-sorts and re-evaluates each scenario, and a fast path that reads every
optimum off a slack profile of the all-lower-bounds schedule plus a
range-minimum table, in O(n log n) total, in numpy passes at every n. The
fast path clips the slack at max(p) before building the table (exact, as a
job's pull never exceeds its p_j) and runs its range queries and arithmetic
over cache-sized position chunks. Both must agree exactly. The solve stays
in release-sorted positions (the optima, the key sort, and the nearly
sequential gathers into schedule order) and scatters only the final regrets
to job-id order; the report on that order is closed form (`_regret_report`).
"""
from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    Instance,
    Scenario,
    Schedule,
    _PACKED_MIN,
    _StoredOnce,
    _check_covers,
    _completions_arrays,
    _sorted_order,
    _stable_argsort,
    evaluate,
    optimal_makespan,
)
from .rmq import IntervalMinTable

# positions per chunk of the fast path's range queries and bump arithmetic:
# the chunk's int64 temporaries stay in L2
_CHUNK = 2**14

# from _PACKED_MIN jobs on, insertion ranks are counted while the release span is at most
# this many positions per job: at most half the search's time (table in CHANGES.md)
_SPAN_PER_JOB = 4


@dataclass(frozen=True)
class RegretReport(_StoredOnce):
    """Worst regret of one schedule over the single-deviation scenarios.

    per_candidate[j - 1] is the regret against the scenario that raises only
    job j; worst_job is the smallest job id attaining the maximum. The values
    are stored once, as int64 bytes, and the tuple is built on first use.
    """

    schedule: Schedule
    regret: int
    worst_job: int
    _per_candidate: bytes = field(repr=False)

    @cached_property
    def per_candidate(self) -> tuple[int, ...]:
        return tuple(np.frombuffer(self._per_candidate, dtype=np.int64).tolist())


def regret_of(schedule: Schedule, scenario: Scenario, instance: Instance) -> int:
    """Makespan of the schedule under the scenario minus the scenario's optimum."""
    return evaluate(schedule, scenario, instance).makespan - optimal_makespan(scenario, instance)


def _release_order(r_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, sorted releases) by (release, id)."""
    return _sorted_order(r_lo)


def _profile_from_sorted(rs: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, ...]:
    """(completions, slack, idle_after) of an order, from its aligned releases and
    processing times; the slack profile passes the release-sorted order."""
    comp = _completions_arrays(rs, ps)
    idle = comp - np.cumsum(ps)  # the machine's idle time up to each completion
    np.subtract(idle[-1], idle, out=idle)
    slack = comp - ps
    slack -= rs
    return comp, slack, idle


def _optima_sorted_numpy(
    rs: np.ndarray, ps: np.ndarray, rh: np.ndarray, comp: np.ndarray,
    slack: np.ndarray, idle_after: np.ndarray,
) -> np.ndarray:
    """Per-candidate optima in sorted labels, via vectorized numpy passes.

    The pull is min(p_j, range minimum), so slack above max(p) cannot change
    it: the table is built on slack clipped there, which turns long runs of
    large slack into ties that its suffix-minimum shortcut answers. The
    insertion ranks, searchsorted(rs, rh, side="right"), come first: counted
    over the release span (Knuth's distribution counting) while it is at most
    `_SPAN_PER_JOB` * n, else binary-searched. The queries and the arithmetic
    run over position chunks of `_CHUNK`, so their temporaries stay in cache.
    """
    n = rs.size
    span = int(rh.max()) - int(rs[0]) + 1
    if n < _PACKED_MIN or span > _SPAN_PER_JOB * n:
        ranks = np.searchsorted(rs, rh, side="right")
    else:
        ranks = np.bincount(rs - rs[0], minlength=span)
        np.cumsum(ranks, out=ranks)
        ranks = ranks[rh - rs[0]]  # frees the counts before the table is built
    table = IntervalMinTable(np.minimum(slack, int(ps.max())))
    base = int(comp[-1])
    out = np.empty(n, dtype=np.int64)
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        raised = rh[a:b]
        p_chunk = ps[a:b]
        # new 1-based position of each raised job: last slot whose lower bound it passes
        insert_at = ranks[a:b]
        # empty ranges (job stays put) fall back to p_j via the query sentinel
        pull = np.minimum(
            p_chunk, table.range_min_many(np.arange(a + 2, b + 2, dtype=np.int64), insert_at)
        )
        slot = insert_at - 1
        bump = raised - comp[slot] + pull
        np.maximum(bump, 0, out=bump)
        bump += p_chunk
        bump -= pull
        bump -= idle_after[slot]
        np.maximum(bump, 0, out=bump)
        bump += base
        out[a:b] = bump
    return out


def _all_optima_fast_arrays(p: np.ndarray, r_lo: np.ndarray, r_hi: np.ndarray
                            ) -> tuple[np.ndarray, ...]:
    """(order, rs, ps, rh, optima): the release order by (r_lo, id), the columns gathered
    into it, and the optimum of every single-deviation scenario, in the same labels.

    Raising job j to its upper bound slides it to a later position; everything
    it used to block can move earlier by at most the minimum slack in between
    (and never more than p_j), and the delay it causes at its new position is
    absorbed by whatever idle time remains afterwards. All of that is read off
    the all-lower-bounds profile with range-minimum queries.
    """
    order, rs = _release_order(r_lo)
    ps = p[order]
    rh = r_hi[order]
    return order, rs, ps, rh, _optima_sorted_numpy(rs, ps, rh, *_profile_from_sorted(rs, ps))


def all_optimal_makespans_fast(instance: Instance) -> np.ndarray:
    """Per-scenario optima for all n single-deviation scenarios in O(n log n).

    Returns an int64 array indexed by job id - 1, scattered out of release
    order. Raised jobs sit at their trimmed upper bounds
    (`Instance.trimmed_r_hi`). Must agree exactly with all_optimal_makespans_naive.
    """
    p, r_lo, _ = instance.columns
    order, *_, optima = _all_optima_fast_arrays(p, r_lo, instance.trimmed_r_hi)
    out = np.empty_like(optima)
    out[order] = optima
    return out


def _naive_chunk(
    rs: np.ndarray,
    ps: np.ndarray,
    pos: np.ndarray,
    r_hi: np.ndarray,
    start: int,
    stop: int,
) -> np.ndarray:
    """Reference optima for candidates [start, stop): re-sort and re-evaluate each.

    The candidate's release vector is the sorted base with one raised entry,
    so the re-sort is a binary insertion into the presorted order; the
    schedule is then evaluated in full. Ties are placed before equal keys
    (the fast path places them after), which must not change any optimum.
    """
    n = rs.size
    total = int(ps.sum())
    rs_buf = rs.copy()
    ps_buf = ps.copy()
    prefix_buf = np.empty(n, dtype=np.int64)
    diff_buf = np.empty(n, dtype=np.int64)
    out = np.empty(stop - start, dtype=np.int64)
    for c in range(start, stop):
        raised = r_hi[c]
        old = int(pos[c])
        anchor = int(np.searchsorted(rs, raised, side="left"))
        new = anchor - 1 if anchor > old else anchor
        if new >= old:
            rs_buf[old:new] = rs[old + 1 : new + 1]
            ps_buf[old:new] = ps[old + 1 : new + 1]
        else:
            rs_buf[new + 1 : old + 1] = rs[new:old]
            ps_buf[new + 1 : old + 1] = ps[new:old]
        rs_buf[new] = raised
        ps_buf[new] = ps[old]
        np.cumsum(ps_buf, out=prefix_buf)
        np.subtract(prefix_buf, ps_buf, out=diff_buf)
        np.subtract(rs_buf, diff_buf, out=diff_buf)
        out[c - start] = total + int(diff_buf.max())
        lo, hi = min(old, new), max(old, new) + 1
        rs_buf[lo:hi] = rs[lo:hi]
        ps_buf[lo:hi] = ps[lo:hi]
    return out


def all_optimal_makespans_naive(instance: Instance, workers: int | None = None) -> np.ndarray:
    """Reference per-scenario optima: sort and evaluate each scenario on its own.

    Returns an int64 array indexed by job id - 1. Raised jobs sit at their
    trimmed upper bounds (`Instance.trimmed_r_hi`). With `workers` set, the
    independent candidates are split into contiguous chunks evaluated in
    separate processes and merged in order; results are identical to the
    serial run.
    """
    n = instance.n
    p, r_lo, _ = instance.columns
    r_hi = instance.trimmed_r_hi
    order, rs = _release_order(r_lo)
    ps = p[order]
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n, dtype=np.int64)
    if not workers or workers <= 1 or n < 4096:
        return _naive_chunk(rs, ps, pos, r_hi, 0, n)
    bounds = np.linspace(0, n, workers + 1, dtype=int)
    tasks = [
        (rs, ps, pos, r_hi, int(bounds[i]), int(bounds[i + 1]))
        for i in range(workers)
        if bounds[i] < bounds[i + 1]
    ]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(len(tasks)) as pool:
        chunks = pool.starmap(_naive_chunk, tasks)
    return np.concatenate(chunks)


def _regret_report(schedule: Schedule, p: np.ndarray, r_lo: np.ndarray, r_hi: np.ndarray,
                   optima: np.ndarray) -> RegretReport:
    """Regret against every single-deviation scenario, in closed form.

    The columns (r_hi trimmed, optima the candidates') are in schedule order. With P the
    prefix sums of p, the makespan is C_n = max_k (r_k + P_n - P_{k-1}); raising job i changes
    only its own term, to r_hi_i + P_n - P_{i-1}. No value exceeds sum(p) + max(r_hi) <= MAX_TIME.
    """
    rest = np.cumsum(p)  # P_i, then P_n - P_{i-1}: the processing from job i on
    np.subtract(rest[-1], rest, out=rest)
    rest += p
    makespan = int((r_lo + rest).max())
    worst = np.add(r_hi, rest, out=rest)  # the candidates' makespans, in place
    np.maximum(worst, makespan, out=worst)
    worst -= optima
    per_candidate = np.empty_like(worst)
    per_candidate[schedule.indices] = worst
    worst_job = int(per_candidate.argmax()) + 1
    return RegretReport(
        schedule=schedule,
        regret=int(per_candidate[worst_job - 1]),
        worst_job=worst_job,
        _per_candidate=per_candidate.tobytes(),
    )


def max_regret(schedule: Schedule, instance: Instance) -> RegretReport:
    """Worst regret of a schedule over all single-deviation scenarios.

    Raised jobs sit at their trimmed upper bounds; by the candidate-set
    argument this equals the worst regret over the whole uncertainty set.
    """
    idx = schedule.indices
    _check_covers(instance, idx.size, "perm")
    p, r_lo, _ = instance.columns
    return _regret_report(schedule, p[idx], r_lo[idx], instance.trimmed_r_hi[idx],
                          all_optimal_makespans_fast(instance)[idx])


def solve_robust_regret(instance: Instance) -> RegretReport:
    """Minimize the worst regret: sort by latest release minus candidate optimum.

    Reads the trimmed U1 bounds. Sort keys may be negative; ties break by
    ascending job id. The returned report's regret is minimal over all
    schedules.
    """
    p, r_lo, _ = instance.columns
    order, rs, ps, rh, optima = _all_optima_fast_arrays(p, r_lo, instance.trimmed_r_hi)
    q = _stable_argsort(rh - optima, order)  # release-sorted positions in schedule order
    schedule = Schedule._from_order(order[q])
    del order
    # nearly sequential gathers; each sorted column is freed once it is gathered
    ps = ps[q]
    rs = rs[q]
    rh = rh[q]
    optima = optima[q]
    del q
    return _regret_report(schedule, ps, rs, rh, optima)
