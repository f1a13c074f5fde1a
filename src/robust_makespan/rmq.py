"""Static range-minimum queries over an aligned power-of-two block table.

The table stores, for each level k, the minimum of every full block of
length 2**k that starts at a multiple of 2**k; fewer than 2n entries in
total. A query decomposes its range into maximal aligned blocks by walking
left to right: block lengths grow while alignment and fit allow, then
shrink to cover the tail. Each query touches O(log n) blocks.

This is deliberately the compact, logarithmic-query variant rather than the
overlapping-interval table with O(1) queries. Beside the levels the table
keeps a suffix-minimum index: `suffix[i] = min(values[i:])` and `first[i]`,
the first position k >= i holding that minimum. A range [lo, hi] that
contains `first[lo - 1]` has the suffix minimum as its minimum, so
`range_min_many` answers those ranges with one gather and walks the blocks
only for the rest, level by level for all of them at once in numpy; the
block levels are built on the first range the index cannot answer. The
per-query walk (`range_min`, `consumed_blocks`) is its reference.
"""
from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .core import _array_column, _is_integer, _split

_EMPTY_SENTINEL = np.iinfo(np.int64).max
_INT32_MAX = np.iinfo(np.int32).max


class IntervalMinTable:
    """Immutable block-minima table over an int64 value vector.

    Takes integers only, as `Instance.from_arrays` takes a column: floats,
    bools and values outside int64 raise ValueError. The suffix index is
    built here; the block levels on the first range it cannot answer.
    """

    def __init__(self, values: Sequence[int] | np.ndarray):
        self._build(_array_column(values, "values").copy())

    @classmethod
    def _adopt(cls, values: np.ndarray) -> IntervalMinTable:
        """For solvers: the table over an int64 array they hand over, unchecked and uncopied."""
        table = object.__new__(cls)
        table._build(values)
        return table

    def _build(self, arr: np.ndarray) -> None:
        self.n = int(arr.size)
        self._values = arr
        # suffix minima and the first position attaining each: first[i] is
        # the nearest k >= i with values[k] == suffix[k]; no position in
        # between holds its own suffix minimum, so suffix[i] == suffix[k]
        n = self.n
        self.suffix = suffix = np.empty_like(arr)
        self.first = first = np.empty_like(arr, dtype=np.int32 if n < _INT32_MAX else np.int64)

        def index(a: int, b: int) -> None:  # a half's scans, seeded with the rest's minimum
            k = b + int(arr[b:].argmin()) if b < n else n  # the first position holding it
            seg = np.minimum(arr[a:b], arr[k]) if b < n else arr[a:b]
            np.minimum.accumulate(seg[::-1], out=suffix[a:b][::-1])
            starts = np.where(arr[a:b] == suffix[a:b], np.arange(a, b, dtype=first.dtype), k)
            np.minimum.accumulate(starts[::-1], out=first[a:b][::-1])

        _split(index, n)

    @cached_property
    def levels(self) -> list[np.ndarray]:
        """levels[k][i] = min of the i-th full block of length 2**k; built on first read."""
        levels = [self._values]
        cur = levels[0]
        while cur.size >= 2:
            full = (cur.size // 2) * 2
            cur = np.minimum(cur[0:full:2], cur[1:full:2])
            levels.append(cur)
        return levels

    def consumed_blocks(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Blocks (start, level) the two-phase walk visits for [lo, hi] (1-based, inclusive).

        Exposed for instrumentation: callers can check the O(log n) block
        count and the grow-then-shrink shape of the block lengths.
        """
        if not (_is_integer(lo) and _is_integer(hi)):
            raise ValueError(f"range bounds must be integers, got [{lo!r}, {hi!r}]")
        if not 1 <= lo <= hi <= self.n:
            raise ValueError(f"range [{lo}, {hi}] out of bounds for n={self.n}")
        j = int(lo) - 1
        u = int(hi)
        k = 0
        blocks: list[tuple[int, int]] = []
        # growing phase: widen the block while it stays aligned and fits
        while True:
            while j & ((2 << k) - 1) == 0 and j + (2 << k) <= u:
                k += 1
            if j + (1 << k) > u:
                break
            blocks.append((j, k))
            j += 1 << k
            if j == u:
                return blocks
        # shrinking phase: halve until each block fits the remainder
        while j < u:
            if j + (1 << k) > u:
                k -= 1
            else:
                blocks.append((j, k))
                j += 1 << k
        return blocks

    def range_min(self, lo: int, hi: int) -> int:
        """Minimum of values[lo..hi], 1-based inclusive; the range must be non-empty."""
        levels = self.levels
        return int(min(levels[k][j >> k] for j, k in self.consumed_blocks(lo, hi)))

    def range_min_many(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Minima for many 1-based inclusive ranges in one vectorized pass.

        A non-empty range with `first[lo - 1] < hi` holds the minimum of
        values[lo - 1:], so its answer is `suffix[lo - 1]`. Every other
        non-empty range consumes the per-query walk's aligned blocks, level by
        level across those queries (both ends move inward), from levels built
        for the first of them. Empty ranges (lo > hi) yield the int64 maximum.
        `lo` and `hi` are one-dimensional and hold integers within int64.
        """
        lo = _array_column(lo, "lo")
        hi = _array_column(hi, "hi")
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same shape")
        out = np.full(lo.shape, _EMPTY_SENTINEL, dtype=np.int64)
        nonempty = lo <= hi
        if not nonempty.any():
            return out
        if (nonempty & ((lo < 1) | (hi > self.n))).any():
            raise ValueError(f"query ranges out of bounds for n={self.n}")
        # empty ranges may start anywhere; clip them into the index, the
        # mask discards what they read
        start = lo - 1
        np.maximum(start, 0, out=start)
        np.minimum(start, self.n - 1, out=start)
        hit = nonempty & (self.first[start] < hi)
        np.copyto(out, self.suffix[start], where=hit)
        idx = np.nonzero(nonempty & ~hit)[0]
        if not idx.size:
            return out
        # the remaining minima accumulate in a compact working set (one
        # scatter into `out` at the end); finished queries are flushed out
        # in batches
        cur_lo = lo[idx] - 1
        cur_hi = hi[idx]  # fancy indexing copies; safe to mutate
        # every non-empty range consumes at least one block, so this working
        # sentinel never leaks into `out`
        res = np.full(idx.size, _EMPTY_SENTINEL, dtype=np.int64)
        for level in self.levels:
            alive = cur_lo < cur_hi
            take = np.nonzero(alive & ((cur_lo & 1) == 1))[0]
            if take.size:
                res[take] = np.minimum(res[take], level[cur_lo[take]])
                cur_lo[take] += 1
            take = np.nonzero((cur_lo < cur_hi) & ((cur_hi & 1) == 1))[0]
            if take.size:
                cur_hi[take] -= 1
                res[take] = np.minimum(res[take], level[cur_hi[take]])
            np.less(cur_lo, cur_hi, out=alive)
            survivors = int(np.count_nonzero(alive))
            if survivors == 0:
                break
            if survivors < idx.size - (idx.size >> 2):
                done = np.nonzero(~alive)[0]
                out[idx[done]] = res[done]
                keep = np.nonzero(alive)[0]
                idx = idx[keep]
                cur_lo = cur_lo[keep]
                cur_hi = cur_hi[keep]
                res = res[keep]
            cur_lo >>= 1
            cur_hi >>= 1
        out[idx] = res
        return out
