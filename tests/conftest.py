"""Shared builders for randomized instance/scenario/schedule fixtures, and an np.argsort spy."""
from __future__ import annotations

import random

import numpy as np

from robust_makespan import Instance, Job, Scenario, Schedule, UncertaintyModel


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


def count_argsort_calls(monkeypatch) -> list:
    """Route np.argsort through a spy; the returned list grows by one per call."""
    calls = []
    real = np.argsort

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return calls
