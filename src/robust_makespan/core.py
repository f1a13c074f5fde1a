"""Value types and deterministic makespan machinery for single-machine schedules.

An `Instance` stores its jobs as three read-only int64 columns (p, r_lo,
r_hi) indexed by job id - 1; build it from `Job` records or straight from
the columns with `Instance.from_arrays`. Both constructors check every
field in bulk: integers only (bools and floats are refused), positive
processing times, 0 <= r_lo <= r_hi, and a worst-case completion time,
sum(p) + max(r_hi) in Python integers, that fits the signed 64-bit range;
a model that is not an `UncertaintyModel` is refused too. So sort keys,
completion times and oracle comparisons are exact. The per-job `jobs`
tuple is derived only when something asks for it.

A `Scenario` holds non-negative integer releases and a `Schedule` a
permutation of job ids; each takes a sequence of integers or a
one-dimensional integer array, checked as `Instance.from_arrays` checks a
column. Each stores only int64 bytes and builds its tuple (`releases`,
`perm`) on first use; pickles leave the tuples out.
Every evaluator runs one numpy path for any n: `_releases` checks that a
scenario fits the instance and that max(releases) + sum(p) fits in int64,
so `_profile_from_sorted`, which prices every makespan as one max-reduction
over its terms, can never wrap. From `_SPLIT_MIN` elements on, when two CPUs
are allowed (`_cpus`, the one CPU query of the package), that pass and the
packed sorts' extrema, packing, sort (after a median partition) and unpacking
run in two halves on two threads (`_split`, the package's one parallel runtime;
the naive regret reference's candidates and the CLI reader's `:` search and
conversion split through it at their own sizes), as one pass would; no setting.
"""
from __future__ import annotations

import os
import threading
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_TIME = 2**63 - 1

@dataclass(frozen=True, slots=True)
class Job:
    """One job: a positive processing time and a release-date interval."""

    id: int
    p: int
    r_lo: int
    r_hi: int

    def __post_init__(self) -> None:
        try:
            if self.p <= 0:
                raise ValueError(f"job {self.id}: processing time must be positive, got {self.p}")
            if not 0 <= self.r_lo <= self.r_hi:
                raise ValueError(
                    f"job {self.id}: release interval [{self.r_lo}, {self.r_hi}] is invalid"
                )
        except TypeError:  # a field that does not compare with integers
            name = next(name for name in ("p", "r_lo", "r_hi")
                        if not _is_integer(getattr(self, name)))
            raise ValueError(
                f"job {self.id}: field {name!r} must be an integer, got {getattr(self, name)!r}"
            ) from None


@dataclass(frozen=True)
class UncertaintyModel:
    """Deviation budget: U1 caps the summed deviation, U2 the deviating job count."""

    kind: str  # "U1" or "U2"
    gamma: int

    def __post_init__(self) -> None:
        if self.kind not in ("U1", "U2"):
            raise ValueError(f"unknown uncertainty kind {self.kind!r}")
        if not _is_integer(self.gamma):
            raise ValueError(f"gamma must be an integer, got {self.gamma!r}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.kind == "U2" and self.gamma < 1:
            raise ValueError("U2 budgets count jobs and must be at least 1")


def _is_integer(value) -> bool:
    """Whether `value` is an integer: a Python or numpy int, and not a bool."""
    return (isinstance(value, int) and not isinstance(value, bool)) or isinstance(
        value, np.integer
    )


def _int64_column(values, describe) -> np.ndarray:
    """Exact int64 array of a list or tuple of integers; ValueError naming the first bad
    entry via describe(k) otherwise.

    One C pass: array('q') reads every entry through __index__, so floats and
    other non-integers fail, and so do values outside the 64-bit range.
    Bools convert silently, but only to 0 or 1, so only those entries are
    type-checked. Entries are scanned one by one only after the pass fails.
    """
    try:
        arr = np.frombuffer(array("q", values), dtype=np.int64)
    except (TypeError, OverflowError):
        k = next(k for k, v in enumerate(values)
                 if not _is_integer(v) or not -MAX_TIME - 1 <= v <= MAX_TIME)
    else:
        k = next((k for k in (arr <= 1).nonzero()[0].tolist() if isinstance(values[k], bool)),
                 None)
        if k is None:
            return arr
    if _is_integer(values[k]):
        raise ValueError(f"{describe(k)} exceeds the 64-bit range, got {values[k]}")
    raise ValueError(f"{describe(k)} must be an integer, got {values[k]!r}")


def _array_column(values, name: str) -> np.ndarray:
    """A one-dimensional integer array or sequence of integers as an int64 array.

    An integer array is checked by its dtype in one pass (an int64 one comes
    back as itself: callers that keep it copy it); anything else goes
    through `_int64_column`, whose errors name the entry as name[k].
    """
    if isinstance(values, np.ndarray) and values.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {values.shape}")
    if not isinstance(values, np.ndarray) or values.dtype == object:
        try:
            values = tuple(values)
        except TypeError:  # a lone number, say
            raise ValueError(f"{name} must be a sequence of integers, got {values!r}") from None
        return _int64_column(values, lambda k: f"{name}[{k}]")
    if values.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
    if values.dtype.kind == "u" and values.size and int(values.max()) > MAX_TIME:
        raise ValueError(f"a value of {name} exceeds the 64-bit range")
    return values.astype(np.int64, copy=False)


class Instance:
    """Jobs with ids 1..n, stored as int64 columns, plus the uncertainty model.

    `columns` is (p, r_lo, r_hi), read-only int64 arrays indexed by job
    id - 1. `Instance(jobs, uncertainty)` takes `Job` records listed in id
    order; `Instance.from_arrays(p, r_lo, r_hi, uncertainty)` takes the
    aligned columns. Instances are immutable, and equal when their columns
    and models are.
    """

    __slots__ = ("columns", "uncertainty", "__dict__")

    def __init__(self, jobs, uncertainty: UncertaintyModel) -> None:
        try:
            jobs = tuple(jobs)
        except TypeError:
            raise ValueError(f"jobs must be a sequence of Job records, got {jobs!r}") from None
        if not jobs:
            raise ValueError("instance needs at least one job")
        try:
            ids = [job.id for job in jobs]
            fields = {
                "p": [job.p for job in jobs],
                "r_lo": [job.r_lo for job in jobs],
                "r_hi": [job.r_hi for job in jobs],
            }
        except AttributeError:
            k = next(k for k, job in enumerate(jobs)
                     if not all(hasattr(job, name) for name in ("id", "p", "r_lo", "r_hi")))
            raise ValueError(f"jobs[{k}] must be a Job record, got {jobs[k]!r}") from None
        columns = [
            _int64_column(values, lambda k, name=name: f"job {jobs[k].id}: field {name!r}")
            for name, values in fields.items()
        ]
        try:
            id_array = _int64_column(ids, lambda k: f"job {ids[k]!r}: field 'id'")
        except ValueError:
            if not all(map(_is_integer, ids)):
                raise
            id_array = None  # an integer id past 64 bits
        if id_array is None or not np.array_equal(id_array, np.arange(1, len(ids) + 1)):
            i = next(i for i, jid in enumerate(ids, start=1) if jid != i)
            raise ValueError(
                f"jobs must be listed in id order 1..n; position {i} holds id {ids[i - 1]}"
            )
        self._set_columns(*columns, uncertainty)
        self.__dict__["jobs"] = jobs

    @classmethod
    def from_arrays(cls, p, r_lo, r_hi, uncertainty: UncertaintyModel) -> Instance:
        """An instance from aligned one-dimensional integer columns; job j + 1 is row j.

        Accepts integer arrays or sequences of integers and copies them.
        """
        columns = [
            _array_column(values, name).copy()
            for values, name in ((p, "p"), (r_lo, "r_lo"), (r_hi, "r_hi"))
        ]
        sizes = {c.size for c in columns}
        if len(sizes) != 1:
            raise ValueError(f"columns differ in length: {[c.size for c in columns]}")
        if not columns[0].size:
            raise ValueError("instance needs at least one job")
        instance = cls.__new__(cls)
        instance._set_columns(*columns, uncertainty)
        return instance

    def _set_columns(self, p: np.ndarray, r_lo: np.ndarray, r_hi: np.ndarray,
                     uncertainty: UncertaintyModel) -> None:
        """Check the model and owned int64 columns in bulk, freeze them and store them."""
        if not isinstance(uncertainty, UncertaintyModel):
            raise ValueError(f"uncertainty must be an UncertaintyModel, got {uncertainty!r}")
        if p.min() <= 0:
            j = int(np.flatnonzero(p <= 0)[0])
            raise ValueError(f"job {j + 1}: processing time must be positive, got {p[j]}")
        if r_lo.min() < 0 or (r_lo > r_hi).any():
            j = int(np.flatnonzero((r_lo < 0) | (r_lo > r_hi))[0])
            raise ValueError(f"job {j + 1}: release interval [{r_lo[j]}, {r_hi[j]}] is invalid")
        # sum(p) in Python integers: an int64 sum could wrap; the cheap bound
        # n * max(p) settles every instance that is far from the limit
        latest = int(r_hi.max())
        if int(p.max()) * p.size + latest > MAX_TIME and sum(p.tolist()) + latest > MAX_TIME:
            raise ValueError("time data too large: worst-case completion exceeds 64-bit range")
        for column in (p, r_lo, r_hi):
            column.setflags(write=False)
        object.__setattr__(self, "columns", (p, r_lo, r_hi))
        object.__setattr__(self, "uncertainty", uncertainty)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: Instance is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: Instance is immutable")

    @property
    def n(self) -> int:
        return self.columns[0].size

    @cached_property
    def jobs(self) -> tuple[Job, ...]:
        """The jobs as `Job` records in id order, built on first use."""
        p, r_lo, r_hi = (c.tolist() for c in self.columns)
        return tuple(Job(i, *row) for i, row in enumerate(zip(p, r_lo, r_hi), start=1))

    @cached_property
    def trimmed_r_hi(self) -> np.ndarray:
        """Upper release bounds after U1 trimming, min(r_hi, r_lo + gamma); r_hi under U2.

        No single job can deviate by more than the whole U1 budget, so every
        worst-case quantity is computed from these bounds.
        """
        _, r_lo, r_hi = self.columns
        if self.uncertainty.kind != "U1":
            return r_hi
        # exact: the budget is clamped before numpy sees it
        upper = r_lo + np.minimum(r_hi - r_lo, min(self.uncertainty.gamma, MAX_TIME))
        upper.setflags(write=False)
        return upper

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.uncertainty == other.uncertainty and all(
            np.array_equal(a, b) for a, b in zip(self.columns, other.columns)
        )

    @cached_property
    def _hash(self) -> int:
        return hash((self.uncertainty, *(c.tobytes() for c in self.columns)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Instance.from_arrays, (*self.columns, self.uncertainty)

    def __repr__(self) -> str:
        if self.n > 16:
            return f"<Instance n={self.n} uncertainty={self.uncertainty!r}>"
        p, r_lo, r_hi = (c.tolist() for c in self.columns)
        return f"Instance.from_arrays({p}, {r_lo}, {r_hi}, {self.uncertainty!r})"


class _StoredOnce:
    """Pickles the stored fields only, not the tuples its cached properties built."""

    def __getstate__(self) -> dict:
        cls = type(self)
        return {name: value for name, value in self.__dict__.items()
                if not isinstance(getattr(cls, name, None), cached_property)}


@dataclass(frozen=True)
class Scenario(_StoredOnce):
    """One concrete release-date vector, indexed by job id.

    Releases are integers of at least 0 (bools and floats are refused),
    stored once as int64 bytes, as a `Schedule` stores its order; `array` is
    a read-only view of them and `releases` their tuple of Python ints. A
    scenario may violate the deviation budget (the solvers reason about the
    hypothetical all-upper-bounds vector, which is often infeasible); budget
    feasibility is a separate predicate in the uncertainty module.
    """

    _releases: bytes = field(init=False, repr=False)

    def __init__(self, releases) -> None:
        arr = _array_column(releases, "releases")
        if arr.size and arr.min() < 0:
            k = int(np.flatnonzero(arr < 0)[0])
            raise ValueError(f"release of job {k + 1} must be at least 0, got {arr[k]}")
        object.__setattr__(self, "_releases", arr.tobytes())

    @property
    def array(self) -> np.ndarray:
        return np.frombuffer(self._releases, dtype=np.int64)

    @cached_property
    def releases(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    def __repr__(self) -> str:
        n = self.array.size
        if n > 16:
            return f"<Scenario n={n}>"
        return f"Scenario(releases={self.releases})"


@dataclass(frozen=True)
class Schedule(_StoredOnce):
    """A processing order: perm[i] is the id of the job processed (i+1)-th.

    The one stored form is the zero-based order, as int64 bytes; equality,
    hashing and pickling go through it. `indices` is a read-only int64 view
    of it, the job indices in processing order, and `perm`, the ids as
    Python ints, is built on first use.
    """

    _order: bytes = field(init=False, repr=False)

    def __init__(self, perm) -> None:
        idx = _array_column(perm, "perm")
        if not np.array_equal(np.sort(idx), np.arange(1, idx.size + 1)):
            raise ValueError("perm must be a permutation of job ids 1..n")
        object.__setattr__(self, "_order", (idx - 1).tobytes())

    @classmethod
    def _from_order(cls, order: np.ndarray) -> Schedule:
        """The schedule of a zero-based int64 order that is known to be a permutation.

        For solvers: skips the checks of the public constructor.
        """
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "_order", order.tobytes())
        return schedule

    @property
    def indices(self) -> np.ndarray:
        return np.frombuffer(self._order, dtype=np.int64)

    @cached_property
    def perm(self) -> tuple[int, ...]:
        return tuple((self.indices + 1).tolist())

    def __repr__(self) -> str:
        n = self.indices.size
        if n > 16:
            return f"<Schedule n={n}>"
        return f"Schedule(perm={self.perm})"


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Completion times by position, the makespan, and one critical position.

    The critical position is the largest one whose job completes exactly at
    its release plus processing time. From there on the machine never
    idles, so that job's release plus the processing times from it to the
    end equal the makespan. Position 1 always qualifies.
    """

    completions: tuple[int, ...]
    makespan: int
    critical_position: int


# from this many keys on, one packed ndarray.sort() beats the timsort behind
# np.argsort(kind="stable") on int64 keys; below it the packed path's fixed
# cost of about 10 us loses; with a tie column it races np.lexsort, which
# loses from fewer keys on; a carried column beats its random gather by the
# order from _CARRY_MIN keys on; a pass in halves on two threads beats one pass
# from _SPLIT_MIN elements on (crossover tables in CHANGES.md)
_PACKED_MIN = 1024
_PACKED_TIE_MIN = 448
_CARRY_MIN = 2**15
_SPLIT_MIN = 2**18


def _cpus() -> int:
    """The CPUs this process may run on; the host's count where there is no affinity call."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


def _split(fn, n: int, at: int | None = None) -> list:
    """[fn(0, n)], or [fn(0, n // 2), fn(n // 2, n)] from `at` (default `_SPLIT_MIN`) on
    when two CPUs are allowed and a thread starts, the first on it, joined before this returns
    (its exception is raised here). fn writes disjoint slices; it may hold the GIL between
    numpy calls, but must not call a package function that perfbench/tracer.py wraps, since
    the tracer keeps one span stack."""
    if n < (_SPLIT_MIN if at is None else at) or _cpus() < 2:
        return [fn(0, n)]
    out, errors = [None, None], []

    def first() -> None:
        try:
            out[0] = fn(0, n // 2)
        except BaseException as exc:  # raised below, in the caller's thread
            errors.append(exc)

    worker = threading.Thread(target=first)
    try:
        worker.start()
    except RuntimeError:  # no thread to be had, as under a pids limit: the whole pass here
        return [fn(0, n)]
    try:
        out[1] = fn(n // 2, n)
    finally:
        worker.join()
    if errors:
        raise errors[0]
    return out


def _sorted_order(values: np.ndarray, tie: np.ndarray | None = None, carry: tuple = ()
                  ) -> tuple[np.ndarray, ...]:
    """(order, values[order], *(column[order] for column in carry)) of a sort of an int64
    array; ties go by ascending tie[k], a permutation of 0..n-1 that defaults to k, which
    makes the sort stable. Carried columns must be non-negative.

    From `_PACKED_MIN` keys on (`_PACKED_TIE_MIN` with a tie) this is one ndarray.sort() of
    values - min with low fields packed under it, one loop over (column, bits) fields: the
    tie (if any) and the index k, of bits = (n - 1).bit_length() each, then, from
    `_CARRY_MIN` keys on, each carried column in its max's bit length. Fields are packed in
    that order while the total, with the key range's bit length, stays within 62 bits: so k
    alone; tie and k; or tie alone, mapped back through tie's inverse; and the carried columns
    that fit. Every key is distinct, so the unstable sort gives the order; masks and shifts
    give back the carried columns and the sorted values, and the rest are gathered; extrema,
    packing, sorting and unpacking run in halves (`_split`), the sort once an in-place
    partition around the median has put the n // 2 least keys first. Otherwise it is
    np.argsort(kind="stable"), a timsort, or np.lexsort((tie, values)).
    """
    n = values.size
    if n >= (_PACKED_MIN if tie is None else _PACKED_TIE_MIN):
        bits = (n - 1).bit_length()
        carry_top = carry if n >= _CARRY_MIN else ()
        lows, highs, *tops = zip(*_split(lambda a, b: (
            np.minimum.reduce(values[a:b]), np.maximum.reduce(values[a:b]),
            *[np.maximum.reduce(c[a:b]) for c in carry_top]), n))
        low = int(min(lows))
        room = 62 - (int(max(highs)) - low).bit_length()
        fields = [(None, bits)] if tie is None else [(tie, bits), (None, bits)]
        fields += [(column, int(max(peak)).bit_length()) for column, peak in zip(carry_top, tops)]
        while fields and sum(width for _, width in fields) > room:
            fields.pop()
        if fields:
            top = int(tie is not None and len(fields) > 1)  # the field whose bits give the order
            packed = np.empty_like(values)

            def pack(a: int, b: int) -> None:
                seg = np.subtract(values[a:b], low, out=packed[a:b])
                for column, width in fields:
                    seg <<= width
                    seg |= np.arange(a, b, dtype=np.int64) if column is None else column[a:b]

            halves = len(_split(pack, n)) > 1
            if halves:  # the n // 2 least keys first: each half then sorts on its own
                packed.partition(n // 2)
            outs = [np.empty_like(packed) for _ in fields[top:]]  # order, then carried columns

            def unpack(a: int, b: int) -> None:
                seg = packed[a:b]
                seg.sort()
                for out, (_, width) in zip(outs[:0:-1], fields[:top:-1]):  # carried, last first
                    np.bitwise_and(seg, (1 << width) - 1, out=out[a:b])
                    seg >>= width
                np.bitwise_and(seg, (1 << bits) - 1, out=outs[0][a:b])
                seg >>= bits * (top + 1)
                seg += low

            _split(unpack, n, None if halves else n + 1)  # halves only after the partition
            order, *carried = outs
            if tie is not None and not top:  # the tie alone was packed
                inverse = np.empty(n, dtype=np.int64)
                inverse[tie] = np.arange(n, dtype=np.int64)
                order = inverse[order]
            return order, packed, *carried, *(column[order] for column in carry[len(carried):])
    order = np.argsort(values, kind="stable") if tie is None else np.lexsort((tie, values))
    return order, values[order], *(column[order] for column in carry)


def _stable_argsort(values: np.ndarray, tie: np.ndarray | None = None) -> np.ndarray:
    """The order of `_sorted_order`: ties in ascending order of tie, by default of index."""
    return _sorted_order(values, tie)[0]


def _check_covers(instance: Instance, size: int, what: str) -> None:
    """ValueError unless a schedule or scenario of `size` entries covers the instance's jobs."""
    if size != instance.n:
        raise ValueError(f"dimension mismatch: instance has {instance.n} jobs, {what} has {size}")


def _releases(instance: Instance, scenario: Scenario, schedule: Schedule | None = None
              ) -> np.ndarray:
    """The scenario's int64 releases, after the checks every evaluator shares.

    The scenario (and the schedule, if given) must cover every job, and the
    latest possible completion, max(releases) + sum(p), must fit in int64;
    sum(p) is exact in int64 because the instance bound holds.
    """
    releases = scenario.array
    _check_covers(instance, releases.size, "scenario")
    if schedule is not None:
        _check_covers(instance, schedule.indices.size, "perm")
    if int(releases.max()) + int(instance.columns[0].sum()) > MAX_TIME:
        raise ValueError("time data too large: worst-case completion exceeds 64-bit range")
    return releases


def _profile_from_sorted(releases: np.ndarray, p: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, int]:
    """(rest, term, makespan) of a processing order from its aligned releases and processing
    times: rest[k] is the work from position k on (rest[n] = 0), term[k] = releases[k] +
    rest[k] and the makespan is max(term); C_k = max(term[:k + 1]) - rest[k + 1], as the
    machine is free from time 0 and releases are never negative. Job k starts at its release
    exactly when term[k] is a prefix maximum, so the critical position is the last argmax of
    term. Each half (`_split`) sums its own suffixes and adds the work after it.
    """
    n = p.size
    rest = np.empty(n + 1, dtype=np.int64)
    term = np.empty(n, dtype=np.int64)
    rest[n] = 0

    def profile(a: int, b: int) -> int:
        seg = rest[a:b]
        np.add.accumulate(p[a:b][::-1], out=seg[::-1])  # the work from each position to b
        if b < n:
            seg += int(np.add.reduce(p[b:]))
        half = np.add(releases[a:b], seg, out=term[a:b])
        return int(half[half.argmax()])

    return rest, term, max(_split(profile, n))


def evaluate(schedule: Schedule, scenario: Scenario, instance: Instance) -> ScheduleEvaluation:
    """Run the completion-time recursion for one order under one scenario."""
    releases = _releases(instance, scenario, schedule)
    idx = schedule.indices
    rest, term, makespan = _profile_from_sorted(releases[idx], instance.columns[0][idx])
    comp = np.maximum.accumulate(term) - rest[1:]
    return ScheduleEvaluation(tuple(comp.tolist()), makespan, term.size - int(term[::-1].argmax()))


def erd_schedule(scenario: Scenario, instance: Instance) -> Schedule:
    """Order jobs by non-decreasing release date, ties by ascending job id."""
    return Schedule._from_order(_stable_argsort(_releases(instance, scenario)))


def _erd_makespan_arrays(releases: np.ndarray, p: np.ndarray) -> int:
    """Makespan of the release-sorted order, straight from the arrays."""
    _, sorted_releases, ps = _sorted_order(releases, carry=(p,))
    return _profile_from_sorted(sorted_releases, ps)[2]


def optimal_makespan(scenario: Scenario, instance: Instance) -> int:
    """Minimum makespan over all orders: sort by release date and evaluate."""
    return _erd_makespan_arrays(_releases(instance, scenario), instance.columns[0])
