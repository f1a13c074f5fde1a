"""Regret criterion: opportunity loss against the per-scenario optimum.

For any schedule, the worst regret over the whole uncertainty set is already
attained on the n single-deviation scenarios (raise one job to its upper
bound, drop the rest to their lower bounds). Minimizing the worst regret
reduces to sorting jobs by (latest release date) minus (optimal makespan of
the job's single-deviation scenario).

Those n per-scenario optima are computed two ways: a reference path that
re-sorts and re-evaluates each scenario, and a fast path, O(n log n) in numpy
passes at every n, that prices every makespan in one closed form: max_k (r_k +
the work from k on). Each optimum is then the all-lower-bounds makespan, that
plus a range minimum over the terms' gaps below it, or the raised job's own
term (`_optima_sorted_numpy`). Both must agree exactly. The solve stays in
release-sorted positions (the optima, the key sort, and the nearly sequential
gathers into schedule order) and scatters only the final regrets to job-id
order; the report on that order uses the same form (`_regret_report`).
"""
from __future__ import annotations

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
    _profile_from_sorted,
    _sorted_order,
    _split,
    _stable_argsort,
    evaluate,
    optimal_makespan,
)
from .rmq import IntervalMinTable

# positions per chunk of the fast path's range queries and arithmetic:
# the chunk's int64 temporaries stay in L2
_CHUNK = 2**14

# from _PACKED_MIN jobs on, insertion ranks are counted while the release span is at most
# this many positions per job: at most half the search's time (table in CHANGES.md)
_SPAN_PER_JOB = 4

# the reference's candidates run in halves on two threads from this many on: each candidate
# is a Python loop step that holds the GIL between numpy calls over all n jobs, so the
# halves win only once those calls are long (crossover table in CHANGES.md)
_NAIVE_SPLIT_MIN = 2**14


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


def _release_order(r_lo: np.ndarray, *carry: np.ndarray) -> tuple[np.ndarray, ...]:
    """(order, sorted releases, *carried columns in that order) by (release, id)."""
    return _sorted_order(r_lo, carry=carry)


def _optima_sorted_numpy(rs: np.ndarray, ps: np.ndarray, rh: np.ndarray, rest: np.ndarray,
                         term: np.ndarray, base: int) -> np.ndarray:
    """Per-candidate optima in sorted labels, via vectorized numpy passes.

    Raising job j from 1-based position a to just after position s (its insertion rank)
    adds p_j to the terms of (a, s], replaces its own term by rh_j + p_j + rest[s] and
    leaves the others at most the base makespan, below which no optimum falls; so
    M_j = base + max(0, p_j - min(gap over (a, s]), rh_j + p_j + rest[s] - base), where
    gap = base - term. A gap above max(p) cannot lift: the table holds the gaps clipped there
    (in the terms' array), which turns long runs of large gaps into ties that its
    suffix-minimum shortcut answers. The ranks, searchsorted(rs, rh, side="right"), are
    counted over the values each half's rh can take (Knuth's distribution counting) while the
    release span is at most `_SPAN_PER_JOB` * n, else binary-searched. The queries and the
    arithmetic run over position chunks of `_CHUNK`, so their temporaries stay in cache.
    """
    n = rs.size
    if n < _PACKED_MIN or int(rh.max()) - int(rs[0]) + 1 > _SPAN_PER_JOB * n:
        ranks = np.searchsorted(rs, rh, side="right")
    else:
        ranks = np.empty_like(rh)

        def count(a: int, b: int) -> None:  # over the values rh[a:b] can take, rs[a] on
            low, high = int(rs[a]), int(rh[a:b].max())
            start, stop = rs.searchsorted(low), rs.searchsorted(high, "right")
            counts = np.bincount(rs[start:stop] - low, minlength=high - low + 1)
            counts[0] += start
            np.add.accumulate(counts, out=counts)
            counts.take(rh[a:b] - low, out=ranks[a:b], mode="clip")  # unbuffered; in range

        _split(count, n)
    gap = np.subtract(base, term, out=term)  # how far each term falls below the makespan
    table = IntervalMinTable._adopt(np.minimum(gap, int(ps.max()), out=gap))
    out = np.empty(n, dtype=np.int64)
    for a in range(0, n, _CHUNK):
        b = min(a + _CHUNK, n)
        p_chunk = ps[a:b]
        hi = ranks[a:b]  # new 1-based position of each raised job: the last release it passes
        # empty ranges (job stays put) read the query sentinel, so their lift is negative
        lift = p_chunk - table.range_min_many(np.arange(a + 2, b + 2, dtype=np.int64), hi)
        lift += base
        own = rest[hi]
        own += rh[a:b]
        own += p_chunk
        np.maximum(own, lift, out=own)
        np.maximum(own, base, out=out[a:b])
    return out


def _all_optima_fast_arrays(p: np.ndarray, r_lo: np.ndarray, r_hi: np.ndarray
                            ) -> tuple[np.ndarray, ...]:
    """(order, rs, ps, rh, optima): the release order by (r_lo, id), the columns in it (p and
    the width r_hi - r_lo carried through the release sort while they fit, rh = rs + width),
    and the optimum of every single-deviation scenario, in the same labels.

    Every optimum is read off the all-lower-bounds profile (`_profile_from_sorted`)
    with one range-minimum query per raised job (`_optima_sorted_numpy`).
    """
    order, rs, ps, rh = _release_order(r_lo, p, r_hi - r_lo)
    rh += rs
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


def all_optimal_makespans_naive(instance: Instance) -> np.ndarray:
    """Reference per-scenario optima: sort and evaluate each scenario on its own.

    Returns an int64 array indexed by job id - 1. Raised jobs sit at their
    trimmed upper bounds (`Instance.trimmed_r_hi`). A candidate's release vector
    is the sorted base with one raised entry, so its re-sort is a binary
    insertion into the presorted order; the schedule is then evaluated in full.
    Ties are placed before equal keys (the fast path places them after), which
    must not change any optimum. From `_NAIVE_SPLIT_MIN` candidates on, with two
    CPUs allowed, they run in two halves (`_split`), merged in order, so the
    result is the serial run's. There is no setting.
    """
    n = instance.n
    p, r_lo, _ = instance.columns
    r_hi = instance.trimmed_r_hi
    order, rs, ps = _release_order(r_lo, p)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n, dtype=np.int64)
    total = int(ps.sum())

    def chunk(start: int, stop: int) -> np.ndarray:  # the optima of candidates [start, stop)
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

    return np.concatenate(_split(chunk, n, _NAIVE_SPLIT_MIN))


def _regret_report(schedule: Schedule, p: np.ndarray, r_lo: np.ndarray, r_hi: np.ndarray,
                   optima: np.ndarray) -> RegretReport:
    """Regret against every single-deviation scenario, in closed form.

    The columns (r_hi trimmed, optima the candidates') are in schedule order. The makespan is
    max_k (r_k + rest[k]), with rest from `_profile_from_sorted`; raising job i changes only its
    own term, to r_hi_i + rest[i]. No value exceeds sum(p) + max(r_hi) <= MAX_TIME.
    """
    rest, worst, makespan = _profile_from_sorted(r_lo, p)
    per_candidate = np.empty_like(worst)
    idx = schedule.indices

    def price(a: int, b: int) -> None:  # the candidates' regrets, over the terms, by job id
        seg = np.add(r_hi[a:b], rest[a:b], out=worst[a:b])
        np.maximum(seg, makespan, out=seg)
        seg -= optima[a:b]
        per_candidate[idx[a:b]] = seg

    _split(price, idx.size)
    del rest, worst  # freed before the regrets' bytes are copied
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
