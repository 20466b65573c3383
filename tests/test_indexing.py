import math

import numpy as np
import pytest

from bernsum.indexing import (
    _check_dimension,
    _level_order,
    _level_slice,
    _next_in_level,
    _popcounts,
    level_element,
)
from bernsum.pmf import JointPmf, SparseJointPmf, cross_moment, sum_map

from oracles import level_slices


def test_reverse_lex_order_d3():
    # Coordinate j of the vector at index i is bit j - 1 of i.
    seq = ["".join(str(int(cross_moment(SparseJointPmf(3, [(i, 1)]), [j]))) for j in (1, 2, 3))
           for i in range(8)]
    assert seq == ["000", "100", "010", "110", "001", "101", "011", "111"]


def test_index_out_of_range():
    for k, j in ((4, 1), (1, 0), (1, 4)):
        with pytest.raises(ValueError, match="out of range"):
            level_element(3, k, j)


def test_level_indices_examples():
    assert _level_slice(3, 0).tolist() == [0]
    assert _level_slice(3, 1).tolist() == [1, 2, 4]
    assert [level_element(3, 2, j) for j in (1, 2, 3)] == [3, 5, 6]
    assert len(_level_slice(4, 2)) == 6
    assert level_element(4, 2, 1) == 0b0011


def test_level_indices_partition():
    for d in (1, 3, 5, 8):
        seen = []
        for k in range(d + 1):
            lvl = _level_slice(d, k).tolist()
            assert len(lvl) == math.comb(d, k)
            assert lvl[0] == level_element(d, k, 1) == (1 << k) - 1
            assert lvl == sorted(lvl)
            seen.extend(lvl)
        assert sorted(seen) == list(range(1 << d))


def test_level_element_matches_materialized():
    for d in (2, 4, 6):
        for k in range(d + 1):
            for j, idx in enumerate(_level_slice(d, k).tolist(), start=1):
                assert level_element(d, k, j) == idx


def test_level_element_large_dimension():
    # Unranking must not materialize the slice.
    idx = level_element(40, 20, 1)
    assert idx == (1 << 20) - 1
    last = level_element(40, 20, math.comb(40, 20))
    assert last == ((1 << 20) - 1) << 20


def test_index_helpers():
    assert _popcounts(3).tolist() == [i.bit_count() for i in range(8)]
    for d in (0, 21, True):
        with pytest.raises(ValueError):
            _check_dimension(d)


def test_dimension_meets_the_integer_rule():
    # A numpy integer is taken and handed back as an int; bools and floats
    # (2.0 too) are refused, as every other integer argument refuses them.
    for d in (np.int64(3), np.uint8(3), 3):
        assert _check_dimension(d) == 3 and type(_check_dimension(d)) is int
    assert level_element(np.int64(3), 1, 1) == 1
    for bad in (True, np.bool_(True), 2.0, 2.5, "3", None):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            _check_dimension(bad, dense=False)
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            level_element(bad, 1, 1)


@pytest.mark.parametrize("bad", [-1, -6, 2.5, 2.0, "3", None])
def test_level_helpers_refuse_invalid_indices(bad):
    with pytest.raises(ValueError, match="nonnegative integer"):
        level_element(3, bad, 1)
    with pytest.raises(ValueError, match="nonnegative integer"):
        level_element(3, 1, bad)


def test_level_helpers_take_numpy_integers():
    assert level_element(3, np.int64(2), np.int64(3)) == 6


BOOL_OR_FLOAT_CALLS = {
    "level_element(3, 1, 1.5)": lambda: level_element(3, 1, 1.5),
    "level_element(3, 1.0, 1)": lambda: level_element(3, 1.0, 1),
    "level_element(3, True, 1)": lambda: level_element(3, True, 1),
}


@pytest.mark.parametrize("call", sorted(BOOL_OR_FLOAT_CALLS))
def test_index_helpers_refuse_bools_and_floats(call):
    with pytest.raises(ValueError, match="nonnegative integer"):
        BOOL_OR_FLOAT_CALLS[call]()


def test_cached_level_slices_match_brute_force():
    for d in range(1, 13):
        want = level_slices(d)
        for k in range(d + 1):
            assert _level_slice(d, k).tolist() == want[k]


def test_successor_walks_each_level_in_unranking_order():
    for d in range(1, 13):
        for k, want in enumerate(level_slices(d)):
            walk = [(1 << k) - 1]
            while len(walk) < len(want):
                walk.append(_next_in_level(walk[-1]))
            assert walk == want


def test_cached_index_arrays_are_read_only():
    f = JointPmf(3, [0.125] * 8)
    before = sum_map(f).values
    with pytest.raises(ValueError, match="read-only"):
        _popcounts(3)[7] = 0
    with pytest.raises(ValueError, match="read-only"):
        _level_slice(3, 1)[0] = 7
    with pytest.raises(ValueError, match="read-only"):
        _level_order(3)[0][:] = 0
    assert sum_map(f).values == before == (0.125, 0.375, 0.375, 0.125)
    assert _level_slice(3, 1).tolist() == [1, 2, 4]
