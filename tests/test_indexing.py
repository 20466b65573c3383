import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsum.indexing import (
    _check_dimension,
    _level_order,
    _level_slice,
    _next_in_level,
    _popcounts,
    index_to_vector,
    level_element,
    level_rank,
    level_weight,
    vector_to_index,
)
from bernsum.pmf import JointPmf, sum_map

from oracles import level_slices


def test_reverse_lex_order_d3():
    seq = ["".join(str(b) for b in index_to_vector(i, 3)) for i in range(8)]
    assert seq == ["000", "100", "010", "110", "001", "101", "011", "111"]


def test_single_indices():
    assert index_to_vector(0, 3) == (0, 0, 0)
    assert index_to_vector(1, 3) == (1, 0, 0)
    assert index_to_vector(6, 3) == (0, 1, 1)


def test_index_out_of_range():
    with pytest.raises(ValueError):
        index_to_vector(8, 3)
    with pytest.raises(ValueError):
        index_to_vector(-1, 3)


def test_round_trip_exhaustive():
    for d in range(1, 13):
        for i in range(1 << d):
            assert vector_to_index(index_to_vector(i, d)) == i


def test_level_indices_examples():
    assert _level_slice(3, 0).tolist() == [0]
    assert _level_slice(3, 1).tolist() == [1, 2, 4]
    assert [level_element(3, 2, j) for j in (1, 2, 3)] == [3, 5, 6]
    assert len(_level_slice(4, 2)) == 6
    assert index_to_vector(level_element(4, 2, 1), 4) == (1, 1, 0, 0)


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
    with pytest.raises(ValueError):
        level_element(3, 4, 1)


def test_level_element_matches_materialized():
    for d in (2, 4, 6):
        for k in range(d + 1):
            for j, idx in enumerate(_level_slice(d, k).tolist(), start=1):
                assert level_element(d, k, j) == idx
                assert level_rank(idx) == j
    with pytest.raises(ValueError):
        level_element(3, 1, 4)


def test_level_element_large_dimension():
    # Unranking must not materialize the slice.
    idx = level_element(40, 20, 1)
    assert idx == (1 << 20) - 1
    assert level_weight(idx) == 20
    last = level_element(40, 20, math.comb(40, 20))
    assert index_to_vector(last, 40) == tuple([0] * 20 + [1] * 20)


def test_index_helpers():
    assert vector_to_index((1, 1, 0)) == 3
    assert _popcounts(3).tolist() == [level_weight(i) for i in range(8)]
    for d in (0, 21, True):
        with pytest.raises(ValueError):
            _check_dimension(d)


def test_dimension_meets_the_integer_rule():
    # A numpy integer is taken and handed back as an int; bools and floats
    # (2.0 too) are refused, as every other integer argument refuses them.
    for d in (np.int64(3), np.uint8(3), 3):
        assert _check_dimension(d) == 3 and type(_check_dimension(d)) is int
    assert level_element(np.int64(3), 1, 1) == 1
    assert index_to_vector(6, np.int64(3)) == (0, 1, 1)
    for bad in (True, np.bool_(True), 2.0, 2.5, "3", None):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            _check_dimension(bad, dense=False)
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            level_element(bad, 1, 1)


@pytest.mark.parametrize("bad", [-1, -6, 2.5, 2.0, "3", None])
def test_level_helpers_refuse_invalid_indices(bad):
    with pytest.raises(ValueError, match="nonnegative integer"):
        level_rank(bad)
    with pytest.raises(ValueError, match="nonnegative integer"):
        level_weight(bad)


def test_level_helpers_take_numpy_integers():
    assert (level_weight(np.int64(6)), level_rank(np.int64(6))) == (2, 3)
    assert (level_weight(0), level_rank(0)) == (0, 1)
    assert index_to_vector(np.int64(6), 3) == (0, 1, 1)
    assert level_element(3, np.int64(2), np.int64(3)) == 6
    assert vector_to_index(np.array([1, 0, 1])) == 5


BOOL_OR_FLOAT_CALLS = {
    "level_element(3, 1, 1.5)": lambda: level_element(3, 1, 1.5),
    "level_element(3, 1.0, 1)": lambda: level_element(3, 1.0, 1),
    "level_element(3, True, 1)": lambda: level_element(3, True, 1),
    "index_to_vector(2.5, 3)": lambda: index_to_vector(2.5, 3),
    "index_to_vector(True, 3)": lambda: index_to_vector(True, 3),
    "vector_to_index([True, 1.0])": lambda: vector_to_index([True, 1.0]),
    "vector_to_index([1, 1.0])": lambda: vector_to_index([1, 1.0]),
    "level_rank(True)": lambda: level_rank(True),
    "level_weight(False)": lambda: level_weight(False),
}


@pytest.mark.parametrize("call", sorted(BOOL_OR_FLOAT_CALLS))
def test_index_helpers_refuse_bools_and_floats(call):
    with pytest.raises(ValueError, match="nonnegative integer"):
        BOOL_OR_FLOAT_CALLS[call]()


def test_vector_entries_must_be_bits():
    with pytest.raises(ValueError, match="^binary vector entries must be 0 or 1, got 2$"):
        vector_to_index([0, 2])


@given(st.integers(min_value=1, max_value=16), st.data())
@settings(max_examples=200)
def test_round_trip_random(d, data):
    i = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    vec = index_to_vector(i, d)
    assert len(vec) == d
    assert vector_to_index(vec) == i
    assert level_weight(i) == sum(vec)


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
