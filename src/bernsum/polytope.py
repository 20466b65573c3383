"""The convex polytope of joint Bernoulli pmfs with a prescribed sum law.

For a sum pmf p the fiber of the sum map is a product of scaled simplices,
one block per supported level k, with C(d,k) coordinates each.  Its vertices
put the whole level mass p_k on a single weight-k binary vector, so a vertex
is described by one slice position per supported level.  Everything here is
exact when p is exact: vertices inherit p's entries verbatim.  The vertices
stream from one odometer (_runs) in runs of the fast level, the lowest
supported level with more than one element: within a run only that level
moves, so a consumer sets up the other levels once per run.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .indexing import _as_int, _check_dimension, _level_slice, _next_in_level, _popcounts, level_element
from .pmf import (PROB_TOL, JointPmf, Number, SparseJointPmf, SumPmf, _is_exact, _not_bool, _total, entropy,
                  sum_map)

FLAT_WEIGHTS_MAX = 10_000


@dataclass(frozen=True)
class PolytopeDescriptor:
    """Block structure and vertex count of the fiber over p."""

    p: SumPmf
    block_dims: tuple[int, ...]
    support: tuple[int, ...]
    intrinsic_dim: int
    vertex_count: int


def describe(p: SumPmf) -> PolytopeDescriptor:
    d = p.d
    block_dims = tuple(math.comb(d, k) - 1 for k in range(d + 1))
    support = p.support
    vertex_count = math.prod(math.comb(d, k) for k in support)
    return PolytopeDescriptor(
        p=p,
        block_dims=block_dims,
        support=support,
        intrinsic_dim=sum(block_dims[k] for k in support),
        vertex_count=vertex_count,
    )


def extremal_by_index(p: SumPmf, sigma: Sequence[int]) -> SparseJointPmf:
    """Vertex pmf with mass p_k on the sigma_k-th weight-k vector: sigma holds
    d + 1 ints, one 1-based slice position per level, 1 off-support."""
    sigma = [_as_int(s, "sigma entry") for s in sigma]
    d = p.d
    if len(sigma) != d + 1:
        raise ValueError(f"sigma needs d+1 = {d + 1} entries, got {len(sigma)}")
    support = set(p.support)
    for k, s in enumerate(sigma):
        hi = math.comb(d, k)
        if k in support:
            if not 1 <= s <= hi:
                raise ValueError(f"sigma_{k}={s} out of range 1..{hi}")
        elif s != 1:
            raise ValueError(f"sigma_{k} must stay 1 on unsupported levels, got {s}")
    atoms = [(level_element(d, k, sigma[k]), p.values[k]) for k in p.support]
    return SparseJointPmf._with_validated_masses(d, atoms)


def _runs(p: SumPmf, offset: int = 0) -> Iterator[tuple[int, list[int], list[int], Iterator]]:
    """The one odometer over the vertices of the fiber over p, in colex sigma
    order (the first level cycles fastest), from stream position `offset`,
    in runs of the fast level f: the lowest supported level with C(d, f) > 1,
    else the lowest supported level (p on levels {0, d} only has one vertex).

    sigma_k runs over 1..C(d, k) on a supported level and stays 1 elsewhere.
    A run is (f, sigma, elems, run): every level's label and the index of its
    sigma_k-th weight-k vector at the run's first vertex, then the lazy
    (sigma_f, index) pairs of its vertices, to the end of level f, all other
    levels fixed.  sigma and elems are the odometer's own lists: read them
    before the next run.  Only the start is decoded from offset in mixed
    radix (an offset at or past the end yields nothing) and unranked by
    level_element.  Between runs one level above f moves to its next element
    (_next_in_level) and the levels from f up to it reset to their first,
    2^k - 1, so a vertex costs amortized O(1).
    """
    offset = _as_int(offset, "offset")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    d = p.d
    support = p.support
    sizes = [math.comb(d, k) if k in support else 1 for k in range(d + 1)]
    f = next((k for k in support if sizes[k] > 1), support[0])
    sigma = []
    for size in sizes:
        offset, r = divmod(offset, size)
        sigma.append(r + 1)
    if offset:
        return
    elems = [level_element(d, k, s) for k, s in enumerate(sigma)]
    while True:
        yield f, sigma, elems, zip(range(sigma[f], sizes[f] + 1), _level_walk(elems[f]))
        for k in range(f + 1, d + 1):
            if sigma[k] < sizes[k]:
                sigma[k] += 1
                elems[k] = _next_in_level(elems[k])
                break
            sigma[k] = 1
            elems[k] = (1 << k) - 1
        else:
            return
        sigma[f], elems[f] = 1, (1 << f) - 1


def _level_walk(x: int) -> Iterator[int]:
    """x and the indices after it in x's level, each made when it is read, so
    a run zipped behind its sigma range never steps past the last one."""
    while True:
        yield x
        x = _next_in_level(x)


def extremal_enumerate(p: SumPmf, offset: int = 0) -> Iterator[SparseJointPmf]:
    """Lazily yield every vertex exactly once, in colex sigma order, starting
    at stream position offset: level k's mass p_k sits on the odometer's
    current weight-k index."""
    d = p.d
    for f, _, elems, run in _runs(p, offset):
        others = [(elems[k], p.values[k]) for k in p.support if k != f]
        mass = p.values[f]
        for _, e in run:
            yield SparseJointPmf._with_validated_masses(d, [*others, (e, mass)])


def extremal_indices(p: SumPmf, offset: int = 0) -> Iterator[tuple[int, ...]]:
    """The sigma labels, tuples of d + 1 ints, in the same order
    extremal_enumerate yields vertices."""
    for f, sigma, _, run in _runs(p, offset):
        below, above = sigma[:f], sigma[f + 1:]
        for s, _ in run:
            yield (*below, s, *above)


def membership(f: JointPmf | SparseJointPmf, p: SumPmf, tol: float = PROB_TOL) -> bool:
    """Whether f lies in the fiber over p, i.e. d_S(sum(f), p) <= tol."""
    if f.d != p.d:
        raise ValueError(f"dimension mismatch: f has d={f.d}, p has d={p.d}")
    q = sum_map(f)
    gap = max(abs(a - b) for a, b in zip(q.values, p.values))
    return gap <= tol


def decompose(f: JointPmf | SparseJointPmf, p: SumPmf, tol: float = 1e-9) -> list[tuple[Number, ...]]:
    """Per-level barycentric weights w_k(j) = f(x_k^j) / p_k.

    Returns one weight tuple per level (empty off-support).  The induced
    product weights over vertices reconstruct f; see flat_weights.
    """
    if not membership(f, p, tol):
        raise ValueError("decompose requires membership(f, p) within tol")
    f = f.to_dense() if isinstance(f, SparseJointPmf) else f
    d = p.d
    support = set(p.support)
    blocks: list[tuple[Number, ...]] = []
    for k in range(d + 1):
        if k not in support:
            blocks.append(())
        elif f.exact:
            pk = p.values[k]
            blocks.append(tuple(f.values[i] / pk for i in _level_slice(d, k).tolist()))
        else:
            # A float over a Fraction or int divides by its float value, as here.
            blocks.append(tuple((f.values[_level_slice(d, k)] / float(p.values[k])).tolist()))
    return blocks


def flat_weights(p: SumPmf, blocks: Sequence[tuple[Number, ...]]) -> list[Number]:
    """Product-form vertex weights lambda_sigma, in enumeration order: the
    product of each supported level's block weight, multiplied from 1 in
    level order, over the blocks in colex order (the first level fastest).

    Exposed only for small vertex counts; the block form is the lossless
    compact representation.
    """
    d, support = p.d, p.support
    count = math.prod(math.comb(d, k) for k in support)
    if count > FLAT_WEIGHTS_MAX:
        raise ValueError(f"flat weights limited to {FLAT_WEIGHTS_MAX} vertices, this polytope has {count}")
    if len(blocks) != d + 1:
        raise ValueError(f"flat weights need d+1 = {d + 1} blocks, got {len(blocks)}")
    for k in support:
        if len(blocks[k]) != math.comb(d, k):
            raise ValueError(f"block {k} needs C({d}, {k}) = {math.comb(d, k)} weights, got {len(blocks[k])}")
    # product() cycles its last factor fastest, so the levels go in reversed.
    return [math.prod(reversed(c)) for c in itertools.product(*(blocks[k] for k in reversed(support)))]


def exchangeable_pmf(p: SumPmf) -> JointPmf:
    """The level-wise uniform element of the fiber (its entropy maximizer)."""
    d = p.d
    _check_dimension(d)
    if p.exact:
        shares = [Fraction(v, math.comb(d, k)) if v else 0 for k, v in enumerate(p.values)]
        return JointPmf(d, [shares[k] for k in _popcounts(d).tolist()])
    shares = np.array([float(v) / math.comb(d, k) for k, v in enumerate(p.values)])
    return JointPmf._from_fresh(d, shares[_popcounts(d)])


def moment_bounds(p: SumPmf, order: int) -> tuple[Number, Number]:
    """Sharp range of E[X_{j1}...X_{jk}] over the fiber, any k coordinates."""
    d = p.d
    order = _as_int(order, "moment order")
    if not 1 <= order <= d:
        raise ValueError(f"moment order must be in 1..{d}, got {order}")
    return p.values[d], _total(p.values[order:])


def entropy_bounds(p: SumPmf) -> tuple[float, float]:
    """(min, max) Shannon entropy over the fiber, in nats.

    The minimum is attained at every vertex and equals the entropy of p; the
    maximum at the exchangeable pmf, adding sum_k p_k log C(d,k).
    """
    d = p.d
    h = entropy(p)
    bonus = math.fsum(float(p.values[k]) * math.log(math.comb(d, k)) for k in p.support)
    return h, h + bonus


def convex_min_pmf(d: int, mu: Number) -> SumPmf:
    """Two-point sum pmf on the integer neighbors of mu with mean exactly mu.

    An integral mean degenerates to a point mass (the two-point construction
    collapses by continuity).
    """
    d = _check_dimension(d, dense=False)
    if not 0 <= _not_bool(mu, "mean") <= d:
        raise ValueError(f"mean must lie in [0, {d}], got {mu}")
    mu = Fraction(mu) if _is_exact(mu) else float(mu)
    lo = math.floor(mu)
    w_hi = mu - lo
    values: list[Number] = [0] * (d + 1)
    if w_hi:
        values[lo], values[lo + 1] = 1 - w_hi, w_hi
    else:
        values[lo] = 1
    return SumPmf(values)
