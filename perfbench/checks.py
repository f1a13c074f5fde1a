"""Independent checks of solver outputs, run outside the timed region.

Nothing here calls the package: every expected value is recomputed from the
benchmark's own copy of the instance columns with plain numpy, except the
optimal worst regret, which has no cheap independent recomputation. That one
is compared with the value the seed commit's solver found on the same input,
pinned in pinned.json (see pin.py).
"""
from __future__ import annotations

import numpy as np

# candidates whose regret is recomputed from scratch on every check
SAMPLE = 64


def makespan(releases: np.ndarray, p: np.ndarray) -> int:
    """Makespan of processing jobs in the given order: C_n = P_n + max_k (r_k - P_{k-1})."""
    prefix = np.cumsum(p)
    return int(prefix[-1] + np.max(releases - (prefix - p)))


class Reference:
    """The benchmark's own view of one instance, and the first objectives seen on it.

    `regret_optimum` is the pinned optimal worst regret, or None where no
    value is pinned (the small inputs of the benchmark's own tests).
    """

    def __init__(self, p, r_lo, r_hi, kind: str, gamma: int, seed: int,
                 regret_optimum: int | None = None):
        self.p = np.asarray(p, dtype=np.int64)
        self.r_lo = np.asarray(r_lo, dtype=np.int64)
        r_hi = np.asarray(r_hi, dtype=np.int64)
        # U1: no single job can deviate beyond the whole budget
        self.r_hi = np.minimum(r_hi, self.r_lo + gamma) if kind == "U1" else r_hi
        self.n = self.p.size
        self.regret_optimum = regret_optimum
        # all jobs at their upper bounds are best served in release order
        by_release = np.argsort(self.r_hi, kind="stable")
        self.absolute_optimum = makespan(self.r_hi[by_release], self.p[by_release])
        rng = np.random.default_rng(seed)
        self.sample = np.sort(rng.choice(self.n, size=min(SAMPLE, self.n), replace=False))
        order = np.argsort(self.r_lo, kind="stable")
        sorted_at = np.empty(self.n, dtype=np.int64)
        sorted_at[order] = np.arange(self.n)
        rs, ps = self.r_lo[order], self.p[order]
        self.sample_optima = [self._scenario_optimum(rs, ps, int(sorted_at[j]), j)
                              for j in self.sample]
        self.first: dict[str, int] = {}
        # key -> the first output that passed every check, as arrays
        self.verified: dict[str, tuple] = {}

    def _scenario_optimum(self, rs: np.ndarray, ps: np.ndarray, k: int, j: int) -> int:
        """Optimal makespan when only job j sits at its upper bound: sort, then evaluate.

        `rs`, `ps` are the lower bounds in sorted order, job j at index k. Taking
        job j out and putting it back at its raised release gives the sorted
        order of that scenario (ties do not change an earliest-release makespan).
        """
        rs = np.delete(rs, k)
        ps = np.delete(ps, k)
        at = int(np.searchsorted(rs, self.r_hi[j], side="right"))
        return makespan(np.insert(rs, at, self.r_hi[j]), np.insert(ps, at, self.p[j]))

    def _order(self, perm) -> tuple[np.ndarray | None, list[str]]:
        idx = np.asarray(perm, dtype=np.int64) - 1
        if idx.shape != (self.n,) or idx.min() < 0 or idx.max() >= self.n:
            return None, [f"order is not a permutation of 1..{self.n}"]
        if (np.bincount(idx, minlength=self.n) != 1).any():
            return None, [f"order is not a permutation of 1..{self.n}"]
        return idx, []

    def _same_as_first(self, key: str, objective: int) -> list[str]:
        first = self.first.setdefault(key, objective)
        return [] if first == objective else [f"{key}: objective {objective} != first run {first}"]

    def _seen(self, key: str, output: tuple) -> bool:
        """Whether `output` is identical to an output of `key` that passed every check.

        Every check is a function of the output alone, so an identical output
        passes them all; this keeps repeated operations cheap to check.
        """
        seen = self.verified.get(key)
        return seen is not None and all(np.array_equal(a, b) for a, b in zip(output, seen))

    def _verified(self, key: str, output: tuple, problems: list[str]) -> list[str]:
        problems += self._same_as_first(key, int(output[0]))
        if not problems:
            self.verified.setdefault(key, output)
        return problems

    def absolute(self, key: str, perm, objective, optimal: bool = False) -> list[str]:
        """Problems with a worst-case makespan claimed for an order (the optimal one)."""
        output = (np.asarray(objective), np.asarray(perm))
        if self._seen(key, output):
            return []
        idx, problems = self._order(perm)
        if idx is None:
            return problems
        want = makespan(self.r_hi[idx], self.p[idx])
        if objective != want:
            problems.append(f"{key}: objective {objective} != all-upper-bounds makespan {want}")
        if optimal and objective != self.absolute_optimum:
            problems.append(f"{key}: objective {objective} != optimum {self.absolute_optimum}")
        return self._verified(key, output, problems)

    def regret(self, key: str, perm, objective, per_candidate, optimal: bool = False) -> list[str]:
        """Problems with a worst regret and per-candidate regrets claimed for an order
        (the optimal one)."""
        output = (np.asarray(objective), np.asarray(perm), np.asarray(per_candidate))
        if self._seen(key, output):
            return []
        idx, problems = self._order(perm)
        if idx is None:
            return problems
        per = np.asarray(per_candidate, dtype=np.int64)
        if per.shape != (self.n,):
            return problems + [f"{key}: per_candidate has shape {per.shape}, want ({self.n},)"]
        if objective != int(per.max()):
            problems.append(f"{key}: objective {objective} != max(per_candidate) {int(per.max())}")
        if optimal and self.regret_optimum is not None and objective != self.regret_optimum:
            problems.append(f"{key}: objective {objective} != pinned optimum {self.regret_optimum}")
        # makespan of the order when only job j is raised, evaluated in full
        rel = self.r_lo[idx]
        prefix = np.cumsum(self.p[idx])
        start_offset = prefix - self.p[idx]
        where = np.empty(self.n, dtype=np.int64)
        where[idx] = np.arange(self.n)
        for j, optimum in zip(self.sample, self.sample_optima):
            raised = rel.copy()
            raised[where[j]] = self.r_hi[j]
            want = int(prefix[-1] + np.max(raised - start_offset)) - optimum
            if per[j] != want:
                problems.append(f"{key}: per_candidate[job {j + 1}] {per[j]} != {want}")
                break
        return self._verified(key, output, problems)
