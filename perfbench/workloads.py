"""Workload inputs and operations, driven through the package's public entry points.

Every callable is looked up on its module at call time (`cli.main`, not a
name bound at import), so the tracer's wrappers see the calls.

Each workload's `run_op` returns the timed calls as (kind, seconds, jobs)
and `check` returns the problems found in that operation's outputs, from
code that never calls the package.

At full size the seed picks one of POOL inputs (seed mod POOL), so that the
optimal worst regret of every input the benchmark can run is pinned in
pinned.json, keyed by the digest of the input's columns (pin.py writes it).
An input without a pinned value fails every check.
"""
from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

import robust_makespan as rm
from robust_makespan import cli

from checks import Reference

POOL = 16  # distinct full-size inputs per workload
PINNED = Path(__file__).with_name("pinned.json")
GENERATE_GAMMA = 50  # cli-solve U1 budget; widths reach 100, so about half are trimmed


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _columns_digest(kind: str, gamma: int, p, r_lo, r_hi) -> bytes:
    cols = [np.ascontiguousarray(c, dtype=np.int64).tobytes() for c in (p, r_lo, r_hi)]
    return f"{kind}:{gamma}:".encode() + b"".join(cols)


def load_pins() -> dict:
    """Columns digest -> pinned optimal worst regret (a list of them for small-batch)."""
    if not PINNED.is_file():
        return {}
    return json.loads(PINNED.read_text(encoding="utf-8"))["regret_optimum"]


def _pinned(pins: dict | None, key: str):
    """The pinned optimum for `key`; None when pins are not used (tiny test inputs)."""
    if pins is None:
        return None
    if key not in pins:
        raise LookupError(f"no pinned regret optimum for input {key[:16]}")
    return pins[key]


def _build(kind: str, gamma: int, p, r_lo, r_hi):
    """An Instance from columns through the public constructors, `columns` filled."""
    jobs = tuple(
        rm.Job(i, a, b, c)
        for i, (a, b, c) in enumerate(zip(p.tolist(), r_lo.tolist(), r_hi.tolist()), start=1)
    )
    instance = rm.Instance(jobs, rm.UncertaintyModel(kind, gamma))
    instance.columns
    return instance


def _timed(calls: list, kind: str, jobs: int, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    calls.append((kind, time.perf_counter() - t0, jobs))
    return out


class Library:
    """`solve_robust_regret` then `solve_robust_absolute` on one prebuilt instance.

    narrow: U2, releases over [0, 2n), widths 0-100 (mean query range ~26,
    ~2% of candidates stay in place). wide: U1, widths up to n trimmed by
    gamma = n/50 (mean query range ~9.8k, almost no candidate stays put).
    """

    def __init__(self, seed: int, n: int, wide: bool, pins: dict | None = None):
        self.seed, self.n, self.wide, self.pins = seed, n, wide, pins
        self.instance = None
        self.reference = None

    def setup(self) -> float:
        """Generate the columns and build the instance; returns the build seconds."""
        n = self.n
        rng = np.random.default_rng(self.seed)
        p = rng.integers(1, 101, n)
        r_lo = rng.integers(0, 2 * n, n)
        if self.wide:
            kind, gamma, width = "U1", max(1, n // 50), rng.integers(0, n + 1, n)
        else:
            kind, gamma, width = "U2", max(1, n // 10), rng.integers(0, 101, n)
        self.columns = (kind, gamma, p, r_lo, r_lo + width)
        self.instance = None  # free the previous repetition's instance first
        t0 = time.perf_counter()
        self.instance = _build(*self.columns)
        return time.perf_counter() - t0

    def digest(self) -> str:
        return _digest(_columns_digest(*self.columns))

    pin_key = digest

    def working_set(self) -> dict:
        return {"int64_bytes_computed": 3 * 8 * self.n, "basis": "3 int64 columns x n jobs"}

    def run_op(self, k: int):
        calls: list = []
        report = _timed(calls, "regret", self.n, rm.solve_robust_regret, self.instance)
        schedule, cost = _timed(calls, "absolute", self.n, rm.solve_robust_absolute, self.instance)
        return calls, (report.schedule.perm, report.regret, report.per_candidate,
                       schedule.perm, cost)

    def check(self, k: int, outputs) -> list[str]:
        if self.reference is None:
            self.reference = Reference(*self.columns[2:], *self.columns[:2], seed=self.seed,
                                       regret_optimum=_pinned(self.pins, self.pin_key()))
        regret_perm, regret, per_candidate, abs_perm, cost = outputs
        return (self.reference.regret("regret", regret_perm, regret, per_candidate, optimal=True)
                + self.reference.absolute("absolute", abs_perm, cost, optimal=True))


class CliSolve:
    """`robust-makespan solve` file to file, regret then absolute, on one U1 instance."""

    def __init__(self, seed: int, n: int, workdir: Path, pins: dict | None = None):
        self.seed, self.n, self.workdir, self.pins = seed, n, workdir, pins
        self.path = workdir / "instance.json"
        self.reference = None
        self.solution_bytes: list[int] = []

    def outputs(self, k: int) -> dict[str, Path]:
        """Operation k's solution files. Each operation writes new files, as a fresh CLI
        run would: rewriting one file makes ext4 flush it on close, and the next
        truncation then waits for that disk write inside the timed region."""
        return {c: self.workdir / f"solution-{c}-{k}.json" for c in ("regret", "absolute")}

    def setup(self) -> float:
        n = self.n
        argv = ["generate", "--n", str(n), "--seed", str(self.seed), "--model", "U1",
                "--gamma", str(GENERATE_GAMMA), "--r-range", "0", str(2 * n),
                "--p-range", "1", "100", "--width-range", "0", "100",
                "--output", str(self.path)]
        if cli.main(argv) != 0:
            raise RuntimeError("generate failed")
        return 0.0

    def digest(self) -> str:
        return _digest(self.path.read_bytes())

    def read_columns(self) -> tuple:
        """(kind, gamma, p, r_lo, r_hi) of the instance file, jobs in id order."""
        doc = json.loads(self.path.read_text(encoding="utf-8"))
        jobs = sorted(doc["jobs"], key=lambda job: job["id"])
        cols = [np.array([job[f] for job in jobs], dtype=np.int64) for f in ("p", "r_lo", "r_hi")]
        return (doc["uncertainty"]["kind"], doc["uncertainty"]["gamma"], *cols)

    def pin_key(self) -> str:
        return _digest(_columns_digest(*self.read_columns()))

    def working_set(self) -> dict:
        return {"int64_bytes_computed": 3 * 8 * self.n, "basis": "3 int64 columns x n jobs"}

    def run_op(self, k: int):
        calls: list = []
        for criterion, path in self.outputs(k).items():
            argv = ["solve", "--criterion", criterion, "--input", str(self.path),
                    "--output", str(path)]
            code = _timed(calls, criterion, self.n, cli.main, argv)
            if code != 0:
                raise RuntimeError(f"solve --criterion {criterion} exited {code}")
        return calls, None

    def check(self, k: int, outputs) -> list[str]:
        files = self.outputs(k)
        self.solution_bytes.append(sum(p.stat().st_size for p in files.values()))
        sol = {c: json.loads(p.read_text(encoding="utf-8")) for c, p in files.items()}
        for p in files.values():
            p.unlink()
        if self.reference is None:
            kind, gamma, *cols = self.read_columns()
            self.reference = Reference(*cols, kind, gamma, seed=self.seed,
                                       regret_optimum=_pinned(self.pins, self.pin_key()))
        reg, ab = sol["regret"], sol["absolute"]
        return (self.reference.regret("regret", reg["permutation"], reg["objective"],
                                      reg["per_candidate"], optimal=True)
                + self.reference.absolute("absolute", ab["permutation"], ab["objective"],
                                          optimal=True))


class SmallBatch:
    """Many small instances: normalize, solve both criteria, cross-evaluate.

    Sizes are log-uniform over [lo, hi], one draw per equal-width stratum of
    log n so that the size mix (and with it the median solve time) varies
    little from seed to seed. Models alternate U1 (gamma 50, widths to 100,
    so trimming happens) and U2. It is the only workload on the scalar n < 2048
    branches, and on `max_regret`.
    """

    def __init__(self, seed: int, count: int, lo: int = 8, hi: int = 4096,
                 pins: dict | None = None):
        self.seed, self.count, self.lo, self.hi, self.pins = seed, count, lo, hi, pins
        self.instances = []
        self.references: list = [None] * count
        self.optima = None  # pinned optimal regrets, one per instance

    def setup(self) -> float:
        rng = np.random.default_rng(self.seed)
        strata = (np.arange(self.count) + rng.random(self.count)) / self.count
        sizes = np.floor(self.lo * (self.hi / self.lo) ** strata).astype(np.int64)
        sizes = np.clip(rng.permutation(sizes), self.lo, self.hi)
        self.columns = []
        for i, n in enumerate(sizes.tolist()):
            p = rng.integers(1, 101, n)
            r_lo = rng.integers(0, 2 * n, n)
            r_hi = r_lo + rng.integers(0, 101, n)
            kind, gamma = ("U1", GENERATE_GAMMA) if i % 2 == 0 else ("U2", max(1, n // 10))
            self.columns.append((kind, gamma, p, r_lo, r_hi))
        self.instances = []
        t0 = time.perf_counter()
        self.instances = [_build(*cols) for cols in self.columns]
        return time.perf_counter() - t0

    def digest(self) -> str:
        return _digest(*(_columns_digest(*cols) for cols in self.columns))

    pin_key = digest

    def working_set(self) -> dict:
        sizes = [inst.n for inst in self.instances]
        return {"int64_bytes_computed": 3 * 8 * max(sizes),
                "basis": "3 int64 columns x the largest instance's n",
                "all_instances_int64_bytes_computed": 3 * 8 * sum(sizes)}

    def run_op(self, k: int):
        instance = self.instances[k % self.count]
        n = instance.n
        calls: list = []
        trimmed = _timed(calls, "other", n, rm.normalize_u1, instance)
        report = _timed(calls, "regret", n, rm.solve_robust_regret, trimmed)
        schedule, cost = _timed(calls, "absolute", n, rm.solve_robust_absolute, trimmed)
        cross_cost = _timed(calls, "other", n, rm.robust_absolute_cost, report.schedule, trimmed)
        cross = _timed(calls, "other", n, rm.max_regret, schedule, trimmed)
        return calls, (report.schedule.perm, report.regret, report.per_candidate,
                       schedule.perm, cost, cross_cost, cross.regret, cross.per_candidate)

    def check(self, k: int, outputs) -> list[str]:
        i = k % self.count
        if self.references[i] is None:
            kind, gamma, p, r_lo, r_hi = self.columns[i]
            if self.optima is None and self.pins is not None:
                self.optima = _pinned(self.pins, self.pin_key())
            optima = self.optima
            self.references[i] = Reference(p, r_lo, r_hi, kind, gamma, seed=self.seed + i,
                                           regret_optimum=None if optima is None else optima[i])
        ref = self.references[i]
        (regret_perm, regret, per_candidate, abs_perm, cost,
         cross_cost, cross_regret, cross_per) = outputs
        problems = (ref.regret("regret", regret_perm, regret, per_candidate, optimal=True)
                    + ref.absolute("absolute", abs_perm, cost, optimal=True)
                    + ref.absolute("absolute-of-regret-order", regret_perm, cross_cost)
                    + ref.regret("regret-of-absolute-order", abs_perm, cross_regret, cross_per))
        # each solver's optimum can be no worse than the other solver's order
        if cost > cross_cost:
            problems.append(f"absolute optimum {cost} > cost of the regret order {cross_cost}")
        if regret > cross_regret:
            problems.append(f"regret optimum {regret} > regret of the absolute order {cross_regret}")
        return problems


def make(name: str, seed: int, workdir: Path, tiny: bool = False):
    """The named workload at full size on input `seed mod POOL`, checked against the
    pinned optima, or at a size small enough for a unit test, on input `seed`."""
    if tiny:
        pins = None
    else:
        seed, pins = seed % POOL, load_pins()
    if name == "cli-solve":
        return CliSolve(seed, 300 if tiny else 100_000, workdir, pins)
    if name == "lib-narrow":
        return Library(seed, 2000 if tiny else 1_000_000, wide=False, pins=pins)
    if name == "lib-wide":
        return Library(seed, 2000 if tiny else 1_000_000, wide=True, pins=pins)
    if name == "small-batch":
        return SmallBatch(seed, 6, hi=256, pins=pins) if tiny else SmallBatch(seed, 400, pins=pins)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cli-solve", "lib-narrow", "lib-wide", "small-batch")
