"""Shared builders for randomized instance/scenario/schedule fixtures, and numpy spies."""
from __future__ import annotations

import os
import random
import threading

import numpy as np
import pytest

from robust_makespan import Instance, Job, Scenario, Schedule, UncertaintyModel, core


def make_instance(jobs, kind="U2", gamma=1) -> Instance:
    """Build an instance from (p, r_lo, r_hi) triples, ids assigned in order."""
    return Instance(
        tuple(Job(i + 1, p, r_lo, r_hi) for i, (p, r_lo, r_hi) in enumerate(jobs)),
        UncertaintyModel(kind, gamma),
    )


def random_instance(
    rng: random.Random,
    n: int | None = None,
    kind: str | None = None,
    gamma: int | None = None,
    max_n: int = 6,
    r_max: int = 12,
    w_max: int = 8,
    p_max: int = 6,
) -> Instance:
    n = n if n is not None else rng.randint(1, max_n)
    kind = kind or rng.choice(("U1", "U2"))
    jobs = []
    for i in range(1, n + 1):
        r_lo = rng.randint(0, r_max)
        jobs.append(Job(i, rng.randint(1, p_max), r_lo, r_lo + rng.randint(0, w_max)))
    if gamma is None:
        gamma = rng.choice((1, 2, n)) if kind == "U2" else rng.randint(0, r_max + w_max)
    return Instance(tuple(jobs), UncertaintyModel(kind, gamma))


def random_interval_scenario(rng: random.Random, instance: Instance) -> Scenario:
    """A release vector inside the intervals (ignores the deviation budget)."""
    return Scenario(tuple(rng.randint(job.r_lo, job.r_hi) for job in instance.jobs))


def random_schedule(rng: random.Random, n: int) -> Schedule:
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    return Schedule(tuple(ids))


def count_numpy_calls(monkeypatch, name: str) -> list:
    """Route np.<name> through a spy; the returned list grows by one per call."""
    calls = []
    real = getattr(np, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, name, spy)
    return calls


def count_argsort_calls(monkeypatch) -> list:
    """Route np.argsort through a spy; the returned list grows by one per call."""
    return count_numpy_calls(monkeypatch, "argsort")


class GatherSpy(np.ndarray):
    """An int64 column that counts the gathers (integer-array indexing) taken from it."""

    def __getitem__(self, key):
        if isinstance(key, np.ndarray):
            self.gathers += 1
        return np.asarray(self)[key]


def gather_spy(column) -> GatherSpy:
    """`column` as an int64 `GatherSpy` that has counted no gathers yet."""
    spy = np.asarray(column, dtype=np.int64).view(GatherSpy)
    spy.gathers = 0
    return spy


def refuse_threads(monkeypatch) -> list:
    """Make every threading.Thread.start raise, as under a pids limit; the returned list grows
    by one per refused start."""
    refused = []

    def start(self):
        refused.append(self)
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    return refused


@pytest.fixture
def cpus(monkeypatch):
    """A setter for the number of CPUs the process may run on (`core._cpus`), 1 or 2, the
    counts on either side of `_split`'s choice: through os.sched_getaffinity, or, with
    affinity=False, with that call removed (as where the platform lacks it) and through
    os.cpu_count."""

    def allow(count: int, affinity: bool = True) -> None:
        assert count in (1, 2)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: count)

    return allow


@pytest.fixture
def split_at(monkeypatch, cpus):
    """A setter for `core._SPLIT_MIN` (at least 2, so that neither half is empty), with two
    CPUs allowed: from that many elements on, every split pass runs in halves on two threads."""
    cpus(2)
    return lambda n: monkeypatch.setattr(core, "_SPLIT_MIN", n)
