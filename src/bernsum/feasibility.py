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

The LP runs on integers.  The rows are 0/1 and the right-hand side is
scaled by the lcm of its denominators, so the starting tableau is integral
with denominator D = 1.  Every later tableau holds integer numerators over
one common D > 0, the absolute determinant of the current basis, and a
pivot is Bareiss's fraction-free update (Bareiss 1968), whose divisions are
exact.  Signs and ratio tests read the numerators directly, ratios compare
by cross-multiplication, and a Fraction is built only for each new vertex.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .indexing import _check_dimension
from .pmf import JointPmf, Number, SumPmf, _subset_mask, as_number, cross_moment

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
        vals = tuple(as_number(v) for v in values)
        if not vals:
            raise ValueError("mean vector needs at least one coordinate")
        for t in vals:
            # Written as `not ... <=` so that NaN is refused too, before Fraction sees it.
            if not 0 <= t <= 1:
                raise ValueError(f"coordinate means must lie in [0,1], got {t}")
        object.__setattr__(self, "values", tuple(map(Fraction, vals)))

    @property
    def d(self) -> int:
        return len(self.values)


def _coerce_theta(theta, d: int) -> MeanVector:
    theta = theta if isinstance(theta, MeanVector) else MeanVector(theta)
    if theta.d != d:
        raise ValueError(f"dimension mismatch: theta has d={theta.d}, p has d={d}")
    return theta


def _exact_p(p: SumPmf) -> tuple[Fraction, ...]:
    vals = tuple(Fraction(v) for v in p.values)  # floats: their exact binary fractions
    if sum(vals) != 1:
        # Floats that merely approximate a pmf get renormalized exactly.
        total = sum(vals)
        vals = tuple(v / total for v in vals)
    return vals


def _reduced_system(p: SumPmf, theta: MeanVector):
    """Columns and rows of the constrained system after structural elimination.

    A column is an atom not forced to zero: its level is supported, it has no
    bit where theta_i = 0 and every bit where theta_i = 1.  The rows are the
    0/1 level equations in ascending k, then the mean equations for
    0 < theta_i < 1; the right-hand sides are positive Fractions.  A row left
    with no live atom keeps its right-hand side, so _phase1 proves the system
    infeasible.
    """
    pvals = _exact_p(p)
    zeros = sum(1 << i for i, t in enumerate(theta.values) if t == 0)
    ones = sum(1 << i for i, t in enumerate(theta.values) if t == 1)
    columns = [idx for idx in range(1 << p.d)
               if pvals[idx.bit_count()] > 0 and not idx & zeros and idx & ones == ones]
    levels = [([int(idx.bit_count() == k) for idx in columns], v)
              for k, v in enumerate(pvals) if v > 0]
    means = [([idx >> i & 1 for idx in columns], t)
             for i, t in enumerate(theta.values) if 0 < t < 1]
    rows, rhs = zip(*levels, *means)
    return columns, list(rows), list(rhs)


def _phase1(rows: list[list[int]], rhs: list[Fraction]):
    """Exact phase-1 simplex on the integer tableau [rows | I | scale * rhs],
    for 0/1 rows and a nonnegative right-hand side.

    Returns (T, D, basis, scale), where T holds the structural columns and
    the right-hand side of a full-row-rank system in canonical form for the
    feasible basis, over the common denominator D, and the basic values are
    T[i][-1] / (D * scale); or None when infeasible.
    """
    m = len(rows)
    n = len(rows[0])
    scale = math.lcm(*(b.denominator for b in rhs))
    T = [list(rows[i]) + [int(i == k) for k in range(m)] + [int(rhs[i] * scale)]
         for i in range(m)]
    basis = [n + i for i in range(m)]
    # Reduced-cost row for min(sum of artificials), kept as the last row of T
    # so that _pivot updates it: z_j = c_j - sum_i T[i][j], zero on the
    # artificials.
    T.append([-sum(T[i][j] for i in range(m)) if not n <= j < n + m else 0
              for j in range(n + m + 1)])
    D = 1

    while True:
        enter = next((j for j in range(n) if T[m][j] < 0), None)  # Bland: lowest index,
        if enter is None:                                         # artificials barred
            break
        leave_row = None
        for i in range(m):
            t = T[i][enter]
            if t > 0:
                # Least ratio T[i][-1] / t by cross-multiplication, ties to
                # the lowest basic index.
                if leave_row is None:
                    leave_row = i
                    continue
                a, b = T[i][-1] * T[leave_row][enter], T[leave_row][-1] * t
                if a < b or (a == b and basis[i] < basis[leave_row]):
                    leave_row = i
        if leave_row is None:
            raise RuntimeError("unbounded phase-1 ray in a bounded system")
        D = _pivot(T, D, leave_row, enter)
        basis[leave_row] = enter

    if T[m][-1] != 0:  # optimum of sum of artificials
        return None

    # Drive out (or drop) leftover artificial rows; their value is zero here.
    # A dropped row's basic artificial has a unit column, so the rows kept
    # stay over the determinant D of the basis they keep.
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        enter = next((j for j in range(n) if T[i][j] != 0), None)
        if enter is None:
            continue  # redundant original row
        D = _pivot(T, D, i, enter)
        basis[i] = enter
        keep.append(i)
    return [T[i][:n] + T[i][-1:] for i in keep], D, [basis[i] for i in keep], scale


def _pivot(T, D, row, col):
    """Fraction-free pivot on T[row][col]; returns the new common denominator.

    T holds integers over one denominator D > 0 that is the absolute
    determinant of the current basis in the integer system, so T is D times
    the rational tableau and, by Cramer's rule, integral.  Pivoting makes the
    new determinant pv = T[row][col] (up to sign) and row i becomes
    (T[i] * pv - T[i][col] * T[row]) / D (Bareiss 1968): Sylvester's identity
    makes every such division exact, so floor division loses nothing.  When
    pv < 0 every row is negated so that D stays positive and the signs of the
    entries stay those of the rational tableau.  Rows are rebound, never
    mutated, so a shallow copy of T leaves the original tableau intact.
    """
    pv = T[row][col]
    prow = T[row]
    for i, ti in enumerate(T):
        f = ti[col]
        if i != row:
            T[i] = [(a * pv - f * b) // D for a, b in zip(ti, prow)]
    if pv < 0:
        for i, ti in enumerate(T):
            T[i] = [-a for a in ti]
        pv = -pv
    return pv


def _enumerate_bases(T0, D0, basis0, scale, max_bases=None):
    """All basic feasible solutions reachable by feasible single swaps.

    T0 is an integer tableau [R | s] over the denominator D0, in canonical
    form for basis0 (row i carries basis0[i]); each queued basis is reached
    by one pivot on a copy of its parent's tableau.  Values are
    T[i][-1] / (D * scale).  Bases are kept as bitmasks of their columns and
    vertices by their supports: a basic feasible solution is the only
    feasible point with its support, so the support names the vertex.
    """
    r = len(T0)
    n = len(T0[0]) - 1
    seen = {sum(1 << b for b in basis0)}
    queue = deque([(list(basis0), T0, D0, None)])
    solutions = {}
    visited = 0
    while queue:
        basis, T, D, swap = queue.popleft()
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
            D = _pivot(T, D, row, col)
            basis[row] = col
        xB = [ti[-1] for ti in T]
        support = sum(1 << b for b, v in zip(basis, xB) if v)
        if support not in solutions:
            x = [_ZERO] * n
            for b, v in zip(basis, xB):
                x[b] = Fraction(v, D * scale)
            solutions[support] = x
        mask = sum(1 << b for b in basis)
        rows = sorted(range(r), key=basis.__getitem__)
        for j in range(n):
            if mask >> j & 1:
                continue
            # Min-ratio rule with D > 0 and positive pivot entries, compared
            # by cross-multiplication; a row with xB[i] == 0 swaps at step 0
            # whatever the sign of its pivot entry, leaving x unchanged.
            best = None
            for k in range(r):
                t = T[k][j]
                if t > 0 and (best is None or xB[k] * T[best][j] < xB[best] * t):
                    best = k
            for i in rows:
                t = T[i][j]
                if t == 0:
                    continue
                if xB[i] and not (t > 0 and xB[i] * T[best][j] == xB[best] * t):
                    continue
                nb = mask ^ 1 << basis[i] | 1 << j
                if nb not in seen:
                    seen.add(nb)
                    queue.append((basis, T, D, (i, j)))
    return sorted(solutions.values())


def _solve(p: SumPmf, theta: MeanVector):
    columns, rows, rhs = _reduced_system(p, theta)
    got = _phase1(rows, rhs)
    return None if got is None else (columns, got)


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

    The verdict is the exact majorization test of the module docstring, whose
    s = 1, d - 1 and d cases are the mean box p_d <= theta_i <= 1 - p_0 and
    sum(theta) = mean(p).  The witness carries at most d atoms per supported level of p.  It is a dense
    carrier, so d is limited to the dense guard (d <= 20).
    """
    d = p.d
    theta = _coerce_theta(theta, d)
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
    combinatorics of the instance, not just d: a generic d=5 fiber has tens
    of thousands of vertices (50,844 in 8.7 s on one Xeon core), and
    degenerate ones (symmetric p with exchangeable theta) can have far more
    bases.  Pass max_bases >= 1 to fail fast with BasisLimitError instead
    of running to completion.
    """
    if max_bases is not None and max_bases < 1:
        raise ValueError("max_bases must be >= 1")
    d = p.d
    theta = _coerce_theta(theta, d)
    if d > VERTEX_D_MAX:
        raise ValueError(f"constrained_vertices is limited to d <= {VERTEX_D_MAX}")
    got = _solve(p, theta)
    if got is None:
        return []
    columns, (T, D, basis, scale) = got
    return [_to_joint(d, columns, x) for x in _enumerate_bases(T, D, basis, scale, max_bases)]


def constrained_moment_bounds(p: SumPmf, theta, subset, max_bases: int | None = None) -> tuple[Number, Number]:
    """Sharp cross-moment range over the mean-constrained fiber.

    Moments are linear in f, so scanning the vertices is exact.  The subset
    is checked before the walk.  Raises InfeasibleError when the fiber is
    empty (there is nothing to bound).
    """
    subset = tuple(subset)
    _subset_mask(p.d, subset)
    vertices = constrained_vertices(p, theta, max_bases)
    if not vertices:
        raise InfeasibleError("the mean-constrained fiber is empty")
    moments = [cross_moment(v, subset) for v in vertices]
    return min(moments), max(moments)
