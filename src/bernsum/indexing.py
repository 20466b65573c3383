"""Reverse-lexicographic indexing of binary vectors.

The 2^d vectors of {0,1}^d are ordered so that coordinate 1 varies fastest:
for d=3 the sequence is 000, 100, 010, 110, 001, 101, 011, 111.  Under this
order the vector at index i has j-th coordinate equal to bit j-1 of i, so
index arithmetic is plain bit twiddling.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

# Dense carriers (one entry per binary vector) are capped here; sparse
# representations and unranking work for any d.
DENSE_D_MAX = 20


def _check_dimension(d: int, *, dense: bool = True) -> None:
    if type(d) is not int or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    if dense and d > DENSE_D_MAX:
        raise ValueError(f"dense operations are limited to d <= {DENSE_D_MAX}, got {d}")


def _as_int(v, what: str) -> int:
    """v, an int or numpy integer, as an int; bools, floats (2.0 too) and the rest are refused."""
    if type(v) is int or isinstance(v, np.integer):
        return int(v)
    raise ValueError(f"{what} must be an integer, got {v!r}")


def _check_index(i: int) -> int:
    if (type(i) is int or isinstance(i, np.integer)) and i >= 0:
        return int(i)
    raise ValueError(f"index must be a nonnegative integer, got {i!r}")


def index_to_vector(i: int, d: int) -> tuple[int, ...]:
    """Binary vector at position i of the reverse-lexicographic order."""
    _check_dimension(d, dense=False)
    i = _check_index(i)
    if i >= 1 << d:
        raise ValueError(f"index {i} out of range for d={d}")
    return tuple((i >> j) & 1 for j in range(d))


def vector_to_index(x) -> int:
    """Inverse of index_to_vector."""
    i = 0
    for j, bit in enumerate(x):
        if _check_index(bit) > 1:
            raise ValueError(f"binary vector entries must be 0 or 1, got {bit!r}")
        i |= int(bit) << j
    return i


def level_weight(i: int) -> int:
    """Number of ones in the vector at index i."""
    return _check_index(i).bit_count()


def level_element(d: int, k: int, j: int) -> int:
    """Index of the j-th element (1-based) of the level-k slice.

    Unranks without materializing the slice: ascending indices with popcount k
    correspond to k-subsets of bit positions in colexicographic order, so the
    combinadic digits of j-1 are exactly the bit positions.
    """
    _check_dimension(d, dense=False)
    k, j = _check_index(k), _check_index(j)
    if k > d:
        raise ValueError(f"level k={k} out of range for d={d}")
    size = math.comb(d, k)
    if not 1 <= j <= size:
        raise ValueError(f"position {j} out of range for level of size {size}")
    r = j - 1
    index = 0
    for slot in range(k, 0, -1):
        # Largest c with C(c, slot) <= r; that bit belongs to the subset.
        c = slot - 1
        while math.comb(c + 1, slot) <= r:
            c += 1
        r -= math.comb(c, slot)
        index |= 1 << c
    return index


def _next_in_level(x: int) -> int:
    """The next-larger index with the same popcount as x > 0, so that stepping
    from 2^k - 1 walks the level-k slice in the order level_element unranks
    (Gosper's successor; Knuth, TAOCP 7.2.1.3)."""
    c = x & -x
    r = x + c
    return (((r ^ x) >> 2) // c) | r


def level_rank(i: int) -> int:
    """1-based position of index i within its own level slice."""
    i = _check_index(i)
    r = 0
    slot = 0
    for c in range(i.bit_length()):
        if (i >> c) & 1:
            slot += 1
            r += math.comb(c, slot)
    return r + 1


@lru_cache(maxsize=None)
def _popcounts(d: int) -> np.ndarray:
    """Level weight of every index; cached, so handed out read-only."""
    pc = np.zeros(1, dtype=np.int64)
    for _ in range(d):
        pc = np.concatenate([pc, pc + 1])
    pc.flags.writeable = False
    return pc


@lru_cache(maxsize=None)
def _level_order(d: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Indices sorted stably by level, so ascending within each, and the level
    offsets: level k, the fiber's k-th simplex block, is order[offsets[k]:offsets[k + 1]]."""
    order = np.argsort(_popcounts(d), kind="stable").astype(np.int32)
    order.flags.writeable = False
    offsets = tuple(accumulate((math.comb(d, k) for k in range(d + 1)), initial=0))
    return order, offsets


def _level_slice(d: int, k: int) -> np.ndarray:
    """Read-only view of the C(d, k) level-k indices, ascending from 2^k - 1."""
    order, offsets = _level_order(d)
    return order[offsets[k]:offsets[k + 1]]
