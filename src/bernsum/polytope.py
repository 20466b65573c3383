"""The convex polytope of joint Bernoulli pmfs with a prescribed sum law.

For a sum pmf p the fiber of the sum map is a product of scaled simplices,
one block per supported level k, with C(d,k) coordinates each.  Its vertices
put the whole level mass p_k on a single weight-k binary vector, so a vertex
is described by one slice position per supported level.  Everything here is
exact when p is exact: vertices inherit p's entries verbatim.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .indexing import _as_int, _check_dimension, _level_slice, _next_in_level, _popcounts, level_element
from .pmf import PROB_TOL, JointPmf, Number, SparseJointPmf, SumPmf, _is_exact, _total, entropy, sum_map

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


@dataclass(frozen=True)
class ExtremalIndex:
    """Vertex label: one 1-based slice position per level, frozen to 1 off-support."""

    sigma: tuple[int, ...]

    def __init__(self, sigma: Iterable[int]):
        object.__setattr__(self, "sigma", tuple(_as_int(s, "sigma entry") for s in sigma))

    def validate(self, p: SumPmf) -> None:
        d = p.d
        if len(self.sigma) != d + 1:
            raise ValueError(f"sigma needs d+1 = {d + 1} entries, got {len(self.sigma)}")
        support = set(p.support)
        for k, s in enumerate(self.sigma):
            hi = math.comb(d, k)
            if k in support:
                if not 1 <= s <= hi:
                    raise ValueError(f"sigma_{k}={s} out of range 1..{hi}")
            elif s != 1:
                raise ValueError(f"sigma_{k} must stay 1 on unsupported levels, got {s}")


def extremal_by_index(p: SumPmf, sigma: ExtremalIndex | Sequence[int]) -> SparseJointPmf:
    """Vertex pmf with mass p_k on the sigma_k-th weight-k vector."""
    if not isinstance(sigma, ExtremalIndex):
        sigma = ExtremalIndex(sigma)
    sigma.validate(p)
    d = p.d
    atoms = [(level_element(d, k, sigma.sigma[k]), p.values[k]) for k in p.support]
    return SparseJointPmf(d, atoms)


def _sigma_stream(p: SumPmf, offset: int = 0) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """The one odometer over the vertices of the fiber over p, in colex sigma
    order (the first level cycles fastest), from stream position `offset`.

    sigma_k runs over 1..C(d, k) on a supported level and stays 1 elsewhere.
    Each step yields (sigma, elems, low): the labels, the index of each
    level's sigma_k-th weight-k vector, and the lowest level that did not move
    since the previous step (d + 1 at the first, when every level is new).
    Only the start is decoded from offset in mixed radix (an offset at or
    past the end yields nothing) and unranked by level_element.  A step moves
    one level to its next element (_next_in_level) and resets the levels
    below it to their first, 2^k - 1, so a vertex costs amortized O(1).
    """
    offset = _as_int(offset, "offset")
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    d = p.d
    support = set(p.support)
    sizes = [math.comb(d, k) if k in support else 1 for k in range(d + 1)]
    sigma = []
    for size in sizes:
        offset, r = divmod(offset, size)
        sigma.append(r + 1)
    if offset:
        return
    elems = [level_element(d, k, s) for k, s in enumerate(sigma)]
    low = d + 1
    while True:
        yield tuple(sigma), tuple(elems), low
        for k in range(d + 1):
            if sigma[k] < sizes[k]:
                sigma[k] += 1
                elems[k] = _next_in_level(elems[k])
                low = k + 1
                break
            sigma[k] = 1
            elems[k] = (1 << k) - 1
        else:
            return


def extremal_enumerate(p: SumPmf, offset: int = 0) -> Iterator[SparseJointPmf]:
    """Lazily yield every vertex exactly once, in colex sigma order, starting
    at stream position offset: level k's mass p_k sits on the odometer's
    current weight-k index."""
    masses = [(k, p.values[k]) for k in p.support]
    for _, elems, _ in _sigma_stream(p, offset):
        yield SparseJointPmf._with_validated_masses(p.d, [(elems[k], m) for k, m in masses])


def extremal_indices(p: SumPmf, offset: int = 0) -> Iterator[ExtremalIndex]:
    """The sigma labels in the same order extremal_enumerate yields vertices."""
    return (ExtremalIndex(sigma) for sigma, _, _ in _sigma_stream(p, offset))


def membership(f: JointPmf | SparseJointPmf, p: SumPmf, tol: float = PROB_TOL) -> bool:
    """Whether f lies in the fiber over p, i.e. d_S(sum(f), p) <= tol."""
    if f.d != p.d:
        raise ValueError(f"dimension mismatch: f has d={f.d}, p has d={p.d}")
    q = sum_map(f)
    gap = max(abs(a - b) for a, b in zip(q.values, p.values))
    return gap <= tol


def decompose(f: JointPmf, p: SumPmf, tol: float = 1e-9) -> list[tuple[Number, ...]]:
    """Per-level barycentric weights w_k(j) = f(x_k^j) / p_k.

    Returns one weight tuple per level (empty off-support).  The induced
    product weights over vertices reconstruct f; see flat_weights.
    """
    if not membership(f, p, tol):
        raise ValueError("decompose requires membership(f, p) within tol")
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
    """Product-form vertex weights lambda_sigma, in enumeration order.

    Exposed only for small vertex counts; the block form is the lossless
    compact representation.
    """
    desc = describe(p)
    if desc.vertex_count > FLAT_WEIGHTS_MAX:
        raise ValueError(
            f"flat weights limited to {FLAT_WEIGHTS_MAX} vertices, "
            f"this polytope has {desc.vertex_count}"
        )
    support = p.support
    out = []
    for sigma in extremal_indices(p):
        lam: Number = 1
        for k in support:
            lam = lam * blocks[k][sigma.sigma[k] - 1]
        out.append(lam)
    return out


def exchangeable_pmf(p: SumPmf) -> JointPmf:
    """The level-wise uniform element of the fiber (its entropy maximizer)."""
    d = p.d
    _check_dimension(d)
    if p.exact:
        shares = [Fraction(v, math.comb(d, k)) if v else 0 for k, v in enumerate(p.values)]
        return JointPmf(d, [shares[k] for k in _popcounts(d).tolist()])
    shares = np.array([float(v) / math.comb(d, k) for k, v in enumerate(p.values)])
    return JointPmf(d, shares[_popcounts(d)])


def moment_bounds(p: SumPmf, order: int) -> tuple[Number, Number]:
    """Sharp range of E[X_{j1}...X_{jk}] over the fiber, any k coordinates."""
    d = p.d
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


@dataclass(frozen=True)
class LabelMap:
    """A surjective labeling of {0,1}^d by {0,...,d}, generalizing the sum map."""

    d: int
    labels: tuple[int, ...]

    def __init__(self, d: int, labels: Iterable[int]):
        _check_dimension(d)
        labs = tuple(_as_int(y, "label") for y in labels)
        if len(labs) != 1 << d:
            raise ValueError(f"label map for d={d} needs 2^d = {1 << d} entries")
        if any(not 0 <= y <= d for y in labs):
            raise ValueError("labels must lie in {0, ..., d}")
        if set(labs) != set(range(d + 1)):
            raise ValueError("label map must be surjective onto {0, ..., d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "labels", labs)

    @classmethod
    def popcount(cls, d: int) -> "LabelMap":
        return cls(d, _popcounts(d).tolist())

    @cached_property
    def preimages(self) -> tuple[tuple[int, ...], ...]:
        pre: list[list[int]] = [[] for _ in range(self.d + 1)]
        for i, y in enumerate(self.labels):
            pre[y].append(i)
        return tuple(tuple(v) for v in pre)


def generalized_extremals(h: LabelMap, p: SumPmf) -> Iterator[SparseJointPmf]:
    """Vertices of the fiber of an arbitrary surjective label map."""
    if h.d != p.d:
        raise ValueError(f"dimension mismatch: label map d={h.d}, p has d={p.d}")
    support = p.support
    pre = h.preimages
    # Colex, as extremal_enumerate: product() cycles its last factor fastest.
    for c in itertools.product(*(pre[y] for y in reversed(support))):
        atoms = [(i, p.values[y]) for i, y in zip(reversed(c), support)]
        yield SparseJointPmf._with_validated_masses(p.d, atoms)


def convex_min_pmf(d: int, mu: Number) -> SumPmf:
    """Two-point sum pmf on the integer neighbors of mu with mean exactly mu.

    An integral mean degenerates to a point mass (the two-point construction
    collapses by continuity).
    """
    _check_dimension(d, dense=False)
    if not 0 <= mu <= d:
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
