"""Block-minima table: construction, queries, and walk instrumentation."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_makespan.rmq import IntervalMinTable

_SENTINEL = np.iinfo(np.int64).max
_I64 = np.iinfo(np.int64)


def test_build_levels_by_hand():
    t = IntervalMinTable([5, 2, 7, 1])
    assert [lv.tolist() for lv in t.levels] == [[5, 2, 7, 1], [2, 1], [1]]


def test_build_single_element():
    t = IntervalMinTable([9])
    assert [lv.tolist() for lv in t.levels] == [[9]]


def test_build_constant_vector():
    t = IntervalMinTable([4] * 11)
    for level in t.levels:
        assert (level == 4).all()


def test_build_level_recurrence_and_size_bound():
    rng = random.Random(0)
    for n in (1, 2, 3, 7, 8, 9, 64, 100, 257):
        values = [rng.randint(0, 50) for _ in range(n)]
        t = IntervalMinTable(values)
        total = 0
        for k, level in enumerate(t.levels):
            assert level.size == n >> k
            total += level.size
            if k:
                below = t.levels[k - 1]
                for i in range(level.size):
                    assert level[i] == min(below[2 * i], below[2 * i + 1])
        assert total < 2 * n + 1


def test_range_min_hand_cases():
    t = IntervalMinTable([5, 2, 7, 1])
    assert t.range_min(1, 4) == 1
    assert t.range_min(2, 3) == 2
    for i, v in enumerate([5, 2, 7, 1], start=1):
        assert t.range_min(i, i) == v


def test_range_min_rejects_bad_ranges():
    t = IntervalMinTable([5, 2, 7, 1])
    for lo, hi in ((0, 2), (3, 2), (1, 5), (2, 0)):
        with pytest.raises(ValueError):
            t.range_min(lo, hi)


def test_range_min_exhaustive_small_lengths():
    rng = random.Random(1)
    for n in range(1, 41):
        for values in (
            [rng.randint(0, 2) for _ in range(n)],
            list(range(n)),
            list(range(n, 0, -1)),
        ):
            t = IntervalMinTable(values)
            for lo in range(1, n + 1):
                for hi in range(lo, n + 1):
                    assert t.range_min(lo, hi) == min(values[lo - 1 : hi])


def test_walk_step_bound_and_phase_shape():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 1500)
        values = [rng.randint(0, 9) for _ in range(n)]
        t = IntervalMinTable(values)
        bound = 2 * math.ceil(math.log2(n)) + 2
        for _ in range(50):
            lo = rng.randint(1, n)
            hi = rng.randint(lo, n)
            blocks = t.consumed_blocks(lo, hi)
            assert len(blocks) <= bound
            # blocks tile [lo-1, hi) exactly, in order
            cursor = lo - 1
            for j, k in blocks:
                assert j == cursor and j % (1 << k) == 0
                cursor += 1 << k
            assert cursor == hi
            # lengths grow, then shrink
            lengths = [1 << k for _, k in blocks]
            peak = lengths.index(max(lengths))
            assert all(a <= b for a, b in zip(lengths[:peak], lengths[1 : peak + 1]))
            assert all(a >= b for a, b in zip(lengths[peak:], lengths[peak + 1 :]))


def test_bulk_queries_match_scalar_walk():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 600)
        values = [rng.randint(0, 30) for _ in range(n)]
        t = IntervalMinTable(values)
        lo = np.array([rng.randint(1, n) for _ in range(80)])
        hi = np.array([rng.randint(0, n) for _ in range(80)])
        out = t.range_min_many(lo, hi)
        for i in range(80):
            if lo[i] <= hi[i]:
                assert out[i] == t.range_min(int(lo[i]), int(hi[i]))
            else:
                assert out[i] == np.iinfo(np.int64).max


def test_bulk_rejects_out_of_bounds():
    t = IntervalMinTable([1, 2, 3])
    with pytest.raises(ValueError):
        t.range_min_many(np.array([0]), np.array([2]))
    with pytest.raises(ValueError):
        t.range_min_many(np.array([1]), np.array([4]))
    # fully-empty query sets are fine regardless of values
    assert t.range_min_many(np.array([3]), np.array([1]))[0] == np.iinfo(np.int64).max


def test_bulk_rejects_lo_and_hi_of_different_shapes():
    with pytest.raises(ValueError, match=r"^lo and hi must have the same shape$"):
        IntervalMinTable([4, 2]).range_min_many([1, 1], [2])


def test_empty_table_answers_only_empty_ranges():
    t = IntervalMinTable([])
    assert t.n == 0
    assert t.range_min_many(np.array([1, 5]), np.array([0, 2])).tolist() == [_SENTINEL] * 2
    for lo, hi in ((1, 1), (0, 0), (-3, 2), (1, 4)):
        with pytest.raises(ValueError, match="out of bounds"):
            t.range_min_many(np.array([lo, 3]), np.array([hi, 1]))


def test_bulk_bounds_at_the_int64_edges():
    t = IntervalMinTable([4, 9, 2])
    # empty ranges may start anywhere, however far past the end
    lo = np.array([2**62, 2**62, _I64.max, 2])
    hi = np.array([3, -5, 1, 3])
    assert t.range_min_many(lo, hi).tolist() == [_SENTINEL] * 3 + [2]
    for lo, hi in ((_I64.min, 2), (_I64.min, _I64.max), (1, _I64.max), (2, _I64.max)):
        with pytest.raises(ValueError, match="out of bounds"):
            t.range_min_many(np.array([2, lo]), np.array([3, hi]))


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=300),
    data=st.data(),
)
def test_range_min_matches_naive_scan(values, data):
    t = IntervalMinTable(values)
    lo = data.draw(st.integers(1, len(values)))
    hi = data.draw(st.integers(lo, len(values)))
    assert t.range_min(lo, hi) == min(values[lo - 1 : hi])


# ---------------------------------------------------------------------------
# suffix-minimum shortcut of range_min_many


def _all_ranges(n):
    lo, hi = zip(*((lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)))
    return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)


def _shortcut_hits(t, lo, hi):
    # the ranges the shortcut answers: non-empty and holding first[lo - 1]
    return t.first[lo - 1] < hi


def _check_every_range(values):
    """range_min_many equals the scalar walk and a naive scan on every range;
    returns the table and the shortcut hits over those ranges."""
    t = IntervalMinTable(values)
    lo, hi = _all_ranges(len(values))
    out = t.range_min_many(lo, hi)
    for i in range(lo.size):
        expected = min(values[lo[i] - 1 : hi[i]])
        assert out[i] == expected == t.range_min(int(lo[i]), int(hi[i]))
    return t, _shortcut_hits(t, lo, hi), lo, hi


def test_suffix_index_by_hand():
    t = IntervalMinTable([5, 2, 7, 1, 3, 1])
    assert t.suffix.tolist() == [1, 1, 1, 1, 1, 1]
    assert t.first.tolist() == [3, 3, 3, 3, 5, 5]
    t = IntervalMinTable([4, 9, 2, 8])
    assert t.suffix.tolist() == [2, 2, 2, 8]
    assert t.first.tolist() == [2, 2, 2, 3]


def test_shortcut_answers_every_range_of_an_ascending_vector():
    _, hits, _, _ = _check_every_range(list(range(-5, 25)))
    assert hits.all()


def test_shortcut_answers_only_ranges_to_the_end_of_a_descending_vector():
    n = 30
    _, hits, _, hi = _check_every_range(list(range(n, 0, -1)))
    assert np.array_equal(hits, hi == n)


def test_shortcut_on_constant_vector():
    _, hits, _, _ = _check_every_range([7] * 33)
    assert hits.all()


def test_shortcut_with_ties_at_the_minimum():
    values = [3, 0, 5, 0, 4, 0, 9, 2, 0, 6, 1]
    t, hits, lo, hi = _check_every_range(values)
    # first[i] is the first zero at or after i; past the last zero only the
    # ranges that reach the minimum of their own suffix hit
    assert t.first.tolist() == [1, 1, 3, 3, 5, 5, 8, 8, 8, 10, 10]
    assert hits.any() and not hits.all()


def test_shortcut_with_int64_extremes():
    values = [_I64.max, _I64.min, 0, _I64.max, -1, _I64.max, _I64.min, _I64.max]
    t, hits, _, _ = _check_every_range(values)
    assert t.suffix.dtype == np.int64
    assert hits.any() and not hits.all()


def test_shortcut_single_element_and_unit_ranges():
    t = IntervalMinTable([42])
    assert t.range_min_many(np.array([1]), np.array([1])).tolist() == [42]
    values = [6, 1, 8, 1, 0, 4]
    t = IntervalMinTable(values)
    units = np.arange(1, len(values) + 1)
    assert t.range_min_many(units, units).tolist() == values


def test_shortcut_leaves_empty_ranges_at_the_sentinel():
    t = IntervalMinTable([6, 1, 8, 1, 0, 4])
    # starts anywhere, including past either end of the index
    lo = np.array([2, 7, 1, 0, 7, 6, 3])
    hi = np.array([1, 6, 0, -1, 3, 5, 3])
    assert t.range_min_many(lo, hi).tolist() == [_SENTINEL] * 6 + [8]
    t = IntervalMinTable([9])
    assert t.range_min_many(np.array([2, 1]), np.array([1, 0])).tolist() == [_SENTINEL] * 2


def test_shortcut_answers_without_the_block_levels():
    # an ascending vector needs no walk at all: with its levels gone every
    # non-empty range must still come out right
    values = list(range(100, 160))
    t = IntervalMinTable(values)
    t.levels = []
    lo, hi = _all_ranges(len(values))
    lo = np.concatenate([lo, [5, 61]])
    hi = np.concatenate([hi, [4, 60]])
    out = t.range_min_many(lo, hi)
    assert out[:-2].tolist() == [values[a - 1] for a in lo[:-2]]
    assert out[-2:].tolist() == [_SENTINEL] * 2


def test_shortcut_alone_builds_no_levels():
    values = list(range(100, 160))
    t = IntervalMinTable(values)
    lo, hi = _all_ranges(len(values))
    t.range_min_many(lo, hi)
    t.range_min_many(np.array([5, 61]), np.array([4, 60]))
    assert "levels" not in t.__dict__


def test_one_walking_range_builds_the_eager_levels():
    rng = random.Random(4)
    for n in (2, 3, 8, 100, 257):
        values = [rng.randint(-50, 50) for _ in range(n - 1)] + [-51]
        t = IntervalMinTable(values)
        # every range that ends before the last entry misses its suffix minimum
        assert t.range_min_many(np.array([n]), np.array([n])).tolist() == [-51]
        assert "levels" not in t.__dict__
        assert t.range_min_many(np.array([1]), np.array([n - 1])).tolist() == [min(values[:-1])]
        assert "levels" in t.__dict__
        eager = [
            [min(values[i << k : (i + 1) << k]) for i in range(n >> k)]
            for k in range(n.bit_length())
        ]
        assert [level.tolist() for level in t.levels] == eager
