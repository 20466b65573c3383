"""Mean-constrained fibers: exact feasibility and vertex enumeration.

The fiber over p intersected with the class of fixed coordinate means theta
is the solution set of {sum-level rows, coordinate-mean rows, f >= 0}.  All
arithmetic here is exact rational: float inputs are converted to the exact
binary fraction they represent, so reference values in eighths survive the
round trip untouched.

Feasibility needs no LP.  The coordinate means reachable in the fiber form
the Minkowski sum of the scaled hypersimplices p_k * Delta(d, k), the base
polytope of the symmetric submodular F(s) = sum_k p_k min(s, k) (Edmonds
1970).  So theta is feasible exactly when theta, sorted decreasingly, is
majorized by the tail vector q_s = P(S >= s), s = 1..d.  The witness applies
the Hardy-Littlewood-Polya T-transforms that carry q to sorted theta
(Marshall, Olkin & Arnold, Lemma 2.B.1) to the level indicators, which gives
per-level marginals z_k in Delta(d, k); systematic sampling (Madow 1949)
realizes each z_k with at most d atoms.

Vertex enumeration runs a phase-1 simplex with Bland's rule (no cycling) and
walks the graph of feasible bases, where two bases are adjacent when they
differ by one column swap that preserves feasibility.  For bounded polytopes
that graph is connected, so a breadth-first walk from any feasible basis
reaches every basic feasible solution; distinct solution vectors are the
vertices.  Each edge costs one pivot on the parent's tableau, and _pivot is
the only routine that changes a tableau.  Column j may enter on row i when
x_i / a_ij is the minimum ratio over the rows with a_ij > 0, or when x_i = 0
and a_ij != 0 of either sign: such a degenerate swap changes the basis but
not the vertex.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .indexing import _check_dimension
from .pmf import JointPmf, Number, SumPmf

VERTEX_D_MAX = 5

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InfeasibleError(ValueError):
    """Raised when an operation needs a nonempty constrained fiber."""


class BasisLimitError(RuntimeError):
    """Raised when vertex enumeration exceeds an explicit basis budget."""


@dataclass(frozen=True)
class MeanVector:
    """Prescribed coordinate means theta in [0,1]^d, held exactly."""

    values: tuple[Fraction, ...]

    def __init__(self, values: Sequence[Number]):
        vals = tuple(Fraction(v) for v in values)
        if not vals:
            raise ValueError("mean vector needs at least one coordinate")
        for t in vals:
            if not 0 <= t <= 1:
                raise ValueError(f"coordinate means must lie in [0,1], got {t}")
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return len(self.values)

    def total(self) -> Fraction:
        return sum(self.values, _ZERO)


def _coerce_theta(theta) -> MeanVector:
    return theta if isinstance(theta, MeanVector) else MeanVector(theta)


def _exact_p(p: SumPmf) -> tuple[Fraction, ...]:
    vals = tuple(Fraction(v) for v in p.values)  # floats: their exact binary fractions
    if sum(vals) != 1:
        # Floats that merely approximate a pmf get renormalized exactly.
        total = sum(vals)
        vals = tuple(v / total for v in vals)
    return vals


@dataclass(frozen=True)
class NecessaryConditions:
    mean_ok: bool
    box_ok: bool

    def __bool__(self) -> bool:
        return self.mean_ok and self.box_ok


def necessary_conditions(p: SumPmf, theta, tol: float = 1e-12) -> NecessaryConditions:
    """Check sum(theta) = mean(p) and the sharp mean box p_d <= theta_i <= 1 - p_0.

    Both box ends come from the order-1 cross-moment bounds: every coordinate
    mean is at least the all-ones mass and at most one minus the all-zeros
    mass, so a violation certifies an empty constrained fiber.

    The two box ends are the s = 1 and s = d - 1 cases of the exact test in
    feasible_point (the largest theta_i is at most 1 - p_0; the d - 1
    largest sum to at most mean(p) - p_d), and mean_ok is its s = d equality;
    here they are checked with a tolerance.
    """
    theta = _coerce_theta(theta)
    if theta.d != p.d:
        raise ValueError(f"dimension mismatch: theta has d={theta.d}, p has d={p.d}")
    pvals = _exact_p(p)
    mu = sum((k * v for k, v in enumerate(pvals)), _ZERO)
    slack = Fraction(tol) if tol else _ZERO
    mean_ok = abs(theta.total() - mu) <= slack
    lo, hi = pvals[-1], 1 - pvals[0]
    box_ok = all(lo - slack <= t <= hi + slack for t in theta.values)
    return NecessaryConditions(mean_ok=mean_ok, box_ok=box_ok)


def _reduced_system(p: SumPmf, theta: MeanVector):
    """Structurally eliminate forced-zero atoms, then list the live rows.

    Returns (columns, rows, rhs) over the surviving atom indices, or None
    when a forced elimination already contradicts a nonzero right-hand side.
    """
    d = p.d
    pvals = _exact_p(p)
    support = {k for k in range(d + 1) if pvals[k] > 0}
    zero_bits = [i for i in range(d) if theta.values[i] == 0]
    one_bits = [i for i in range(d) if theta.values[i] == 1]

    def alive(idx: int) -> bool:
        if idx.bit_count() not in support:
            return False
        if any(idx >> i & 1 for i in zero_bits):
            return False
        if any(not (idx >> i & 1) for i in one_bits):
            return False
        return True

    columns = [idx for idx in range(1 << d) if alive(idx)]
    col_pos = {idx: j for j, idx in enumerate(columns)}

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    for k in sorted(support):
        row = [_ZERO] * len(columns)
        hit = False
        for idx in columns:
            if idx.bit_count() == k:
                row[col_pos[idx]] = _ONE
                hit = True
        if not hit:
            return None  # level mass p_k > 0 with every carrier forced to zero
        rows.append(row)
        rhs.append(pvals[k])
    for i in range(d):
        t = theta.values[i]
        if t == 0 or t == 1:
            continue  # absorbed by the structural elimination
        bit = 1 << i
        row = [_ZERO] * len(columns)
        hit = False
        for idx in columns:
            if idx & bit:
                row[col_pos[idx]] = _ONE
                hit = True
        if not hit:
            return None  # theta_i > 0 but no surviving atom has coordinate i set
        rows.append(row)
        rhs.append(t)
    return columns, rows, rhs


def _phase1(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Exact phase-1 simplex.  Returns (R, s, basis) with R of full row rank
    and basis feasible for R f = s, f >= 0; or None when infeasible.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    T = []
    for i in range(m):
        if rhs[i] < 0:
            T.append([-a for a in rows[i]] + [_ZERO] * m + [-rhs[i]])
        else:
            T.append(list(rows[i]) + [_ZERO] * m + [rhs[i]])
        T[i][n + i] = _ONE
    basis = [n + i for i in range(m)]
    # Reduced-cost row for min(sum of artificials), kept as the last row of T
    # so that _pivot updates it: z_j = c_j - sum_i T[i][j].
    z = [-sum(T[i][j] for i in range(m)) for j in range(n + m + 1)]
    for j in range(n, n + m):
        z[j] += 1
    T.append(z)

    while True:
        enter = next((j for j in range(n) if T[m][j] < 0), None)  # Bland: lowest index,
        if enter is None:                                         # artificials barred
            break
        leave_row = None
        best = None
        for i in range(m):
            t = T[i][enter]
            if t > 0:
                ratio = T[i][-1] / t
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave_row]):
                    best = ratio
                    leave_row = i
        if leave_row is None:
            raise RuntimeError("unbounded phase-1 ray in a bounded system")
        _pivot(T, leave_row, enter)
        basis[leave_row] = enter

    if -T[m][-1] != 0:  # optimum of sum of artificials
        return None

    # Drive out (or drop) leftover artificial rows; their value is zero here.
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        enter = next((j for j in range(n) if T[i][j] != 0), None)
        if enter is None:
            continue  # redundant original row
        _pivot(T, i, enter)
        basis[i] = enter
        keep.append(i)
    R = [[T[i][j] for j in range(n)] for i in keep]
    s = [T[i][-1] for i in keep]
    return R, s, [basis[i] for i in keep]


def _pivot(T, row, col):
    """Gauss-Jordan pivot on T[row][col].  Rows are rebound, never mutated,
    so a shallow copy of T leaves the original tableau intact."""
    pv = T[row][col]
    prow = T[row] = [v / pv for v in T[row]]
    for i, ti in enumerate(T):
        f = ti[col]
        if i != row and f != 0:
            T[i] = [a - f * b for a, b in zip(ti, prow)]


def _enumerate_bases(R, s, basis0, max_bases=None):
    """All basic feasible solutions reachable by feasible single swaps.

    [R | s] is in canonical form for basis0 (row i carries basis0[i]); each
    queued basis is reached by one pivot on a copy of its parent's tableau.
    """
    r = len(R)
    n = len(R[0])
    seen = {tuple(sorted(basis0))}
    queue = deque([(list(basis0), [R[i] + [s[i]] for i in range(r)], None)])
    solutions = {}
    visited = 0
    while queue:
        basis, T, swap = queue.popleft()
        visited += 1
        if max_bases is not None and visited > max_bases:
            raise BasisLimitError(
                f"vertex enumeration exceeded max_bases={max_bases} "
                f"({len(solutions)} vertices found so far); degenerate instances "
                f"can have combinatorially many feasible bases"
            )
        if swap is not None:
            row, col = swap
            T, basis = list(T), list(basis)
            _pivot(T, row, col)
            basis[row] = col
        xB = [T[i][-1] for i in range(r)]
        x = [_ZERO] * n
        for i, b in enumerate(basis):
            x[b] = xB[i]
        solutions[tuple(x)] = x
        in_basis = set(basis)
        rows = sorted(range(r), key=basis.__getitem__)
        for j in range(n):
            if j in in_basis:
                continue
            col = [T[i][j] for i in range(r)]
            # Min-ratio rule; a row with xB[i] == 0 swaps at step 0 whatever
            # the sign of its pivot entry, leaving x unchanged.
            step = min((xB[k] / col[k] for k in range(r) if col[k] > 0), default=None)
            for i in rows:
                if col[i] == 0:
                    continue
                if xB[i] != 0 and not (col[i] > 0 and xB[i] / col[i] == step):
                    continue
                nb = tuple(sorted(in_basis - {basis[i]} | {j}))
                if nb not in seen:
                    seen.add(nb)
                    queue.append((basis, T, (i, j)))
    return [solutions[key] for key in sorted(solutions)]


def _solve(p: SumPmf, theta: MeanVector):
    reduced = _reduced_system(p, theta)
    if reduced is None:
        return None
    columns, rows, rhs = reduced
    if not rows:
        return None
    got = _phase1(rows, rhs)
    if got is None:
        return None
    return columns, got


def _to_joint(d: int, columns, x) -> JointPmf:
    values: list[Number] = [_ZERO] * (1 << d)
    for idx, v in zip(columns, x):
        values[idx] = v
    return JointPmf(d, values)


def _majorized(x: Sequence[Fraction], q: Sequence[Fraction]) -> bool:
    """Whether x (decreasing) is majorized by q: dominated prefix sums, equal totals."""
    px, pq = list(accumulate(x)), list(accumulate(q))
    return px[-1] == pq[-1] and all(a <= b for a, b in zip(px, pq))


def _level_marginals(pvals: Sequence[Fraction], x: Sequence[Fraction], q: Sequence[Fraction]) -> dict:
    """Marginals z_k in Delta(d, k), one per supported level, with sum_k p_k z_k = x.

    Requires x (decreasing) majorized by q.  Starting from the level
    indicators e^(k) = (1,...,1,0,...,0), whose p-mixture is q, each step is
    the T-transform y <- y - delta (e_i - e_j) on the mixture; it is doubly
    stochastic, so applying it to every z_k keeps z_k in Delta(d, k).  Each
    step fixes a coordinate of y to x, so there are at most d - 1 steps.
    """
    d = len(x)
    y = list(q)
    z = {k: [_ONE] * k + [_ZERO] * (d - k) for k, v in enumerate(pvals) if v > 0}
    while True:
        i = next((r for r in reversed(range(d)) if y[r] > x[r]), None)
        if i is None:
            return z
        j = next(r for r in range(i + 1, d) if y[r] < x[r])
        delta = min(y[i] - x[i], x[j] - y[j])
        t = delta / (y[i] - y[j])
        y[i] -= delta
        y[j] += delta
        for zk in z.values():
            shift = t * (zk[i] - zk[j])
            zk[i] -= shift
            zk[j] += shift


def _systematic_atoms(z: Sequence[Fraction], bits: Sequence[int]):
    """Madow's systematic design with inclusion probabilities z (integer sum).

    A uniform start u in [0, 1) selects unit i when the grid u + Z meets
    [C_{i-1}, C_i), C the cumulative sums of z.  The selection only changes
    where u crosses a fractional part of some C_i, so it yields at most d
    (index, probability) pairs; bits[i] is the index bit of unit i.
    """
    cum = list(accumulate(z, initial=_ZERO))
    cuts = sorted({c - math.floor(c) for c in cum} | {_ONE})
    for a, b in zip(cuts, cuts[1:]):
        hits = [math.ceil(c - a) for c in cum]
        idx = sum(bit for bit, lo, hi in zip(bits, hits, hits[1:]) if hi > lo)
        yield idx, b - a


def feasible_point(p: SumPmf, theta) -> Optional[JointPmf]:
    """An exact element of the mean-constrained fiber, or None if empty.

    The verdict is the exact majorization test of the module docstring; the
    witness carries at most d atoms per supported level of p.  It is a dense
    carrier, so d is limited to the dense guard (d <= 20).
    """
    theta = _coerce_theta(theta)
    d = p.d
    if theta.d != d:
        raise ValueError(f"dimension mismatch: theta has d={theta.d}, p has d={p.d}")
    _check_dimension(d)
    pvals = _exact_p(p)
    order = sorted(range(d), key=lambda i: theta.values[i], reverse=True)
    x = [theta.values[i] for i in order]
    q = list(accumulate(reversed(pvals[1:])))[::-1]  # q_s = P(S >= s), s = 1..d
    if not _majorized(x, q):
        return None
    bits = [1 << i for i in order]
    values: list[Number] = [_ZERO] * (1 << d)
    for k, zk in _level_marginals(pvals, x, q).items():
        for idx, w in _systematic_atoms(zk, bits):
            values[idx] += pvals[k] * w
    return JointPmf(d, values)


def constrained_vertices(p: SumPmf, theta, max_bases: int | None = None) -> list[JointPmf]:
    """Every vertex of the mean-constrained fiber, exact and deduplicated.

    The enumeration is exhaustive over feasible bases, so its cost is the
    combinatorics of the instance, not just d: a generic d=5 fiber has
    thousands of vertices (minutes of exact arithmetic), and degenerate ones
    (symmetric p with exchangeable theta) can be far larger.  Pass max_bases
    to fail fast with BasisLimitError instead of running to completion.
    """
    theta = _coerce_theta(theta)
    d = p.d
    if theta.d != d:
        raise ValueError(f"dimension mismatch: theta has d={theta.d}, p has d={p.d}")
    if d > VERTEX_D_MAX:
        raise ValueError(f"constrained_vertices is limited to d <= {VERTEX_D_MAX}")
    got = _solve(p, theta)
    if got is None:
        return []
    columns, (R, s, basis) = got
    return [_to_joint(d, columns, x) for x in _enumerate_bases(R, s, basis, max_bases)]


def constrained_moment_bounds(p: SumPmf, theta, subset, max_bases: int | None = None) -> tuple[Number, Number]:
    """Sharp cross-moment range over the mean-constrained fiber.

    Moments are linear in f, so scanning the vertices is exact.  Raises
    InfeasibleError when the fiber is empty (there is nothing to bound).
    """
    from .pmf import cross_moment

    vertices = constrained_vertices(p, theta, max_bases)
    if not vertices:
        raise InfeasibleError("the mean-constrained fiber is empty")
    moments = [cross_moment(v, subset) for v in vertices]
    return min(moments), max(moments)
