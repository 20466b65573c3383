"""Mean-constrained fibers: exact feasibility, vertex enumeration and moment bounds.

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
realizes each z_k with at most d atoms.  Those atoms, at most d per
supported level and never 2^d, are the witness; feasible_point spreads them
into a dense pmf.

The LP has one row per supported level and one per mean with
0 < theta_i < 1, and _Master alone builds them.  Vertex enumeration runs
phase 1 with Bland's rule (no cycling) on the explicit tableau of the live
atoms, then walks the graph of feasible bases, where two bases are adjacent
when they differ by one column swap that preserves feasibility.  For
bounded polytopes that graph is connected, so a breadth-first walk from any
feasible basis reaches every basic feasible solution; distinct solution
vectors are the vertices.  Each edge costs one pivot on the parent's
tableau, and _pivot is the only routine that changes a tableau.  Column j may enter on row i when x_i / a_ij is the
minimum ratio over the rows with a_ij > 0, or when x_i = 0 and a_ij != 0 of
either sign: such a degenerate swap changes the basis but not the vertex.

The LP runs on integers.  The rows are 0/1 and the right-hand side is
scaled by the lcm of its denominators, so the starting tableau is integral
with denominator D = 1.  Every later tableau holds integer numerators over
one common D > 0, the absolute determinant of the current basis, and a
pivot is Bareiss's fraction-free update (Bareiss 1968), whose divisions are
exact.  Signs and ratio tests read the numerators directly, ratios compare
by cross-multiplication, and a Fraction is built only for each new vertex.

A cross moment E[prod_{i in S} X_i] is linear on the fiber, so each of its
bounds is one LP optimum, found by column generation (Dantzig & Wolfe 1960;
Gilmore & Gomory 1961) without the vertex list.  The master holds only the
basis, starting from the artificial one, and each entering atom is priced
over all of {0,1}^d at once.  The reduced cost of atom x at level k is
[S <= x] - y_k - sum_{i in x} mu_i, so its least value per level is one of
|S| + 1 candidates read off mu sorted once.  Each solve minimizes
(sum of artificials, moment) lexicographically, so the pricing that drives
the artificials out is the moment's own, and an artificial left basic at 0
by a redundant row is never dropped and never rises above 0.  The ratio
test is lexicographic on (x_B, D * B^-1); the identity start is
lexicographically positive and the test keeps it so, which rules out
cycling where Bland's rule would need the lowest index among columns not
generated yet.  The upper bound's solve starts from the lower optimum.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .indexing import _check_dimension
from .pmf import JointPmf, Number, SumPmf, _subset_mask, as_number

VERTEX_D_MAX = 5

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InfeasibleError(ValueError):
    """Raised when an operation needs a nonempty constrained fiber."""


class BasisLimitError(RuntimeError):
    """Raised when vertex enumeration or the moment-bound LPs exceed an
    explicit basis or pivot budget."""


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
    """The vertex walk's start: Bland's phase 1 on the tableau the walk reads.

    The rows, right-hand side and scale are _Master's; the columns are the
    live atoms in increasing order: a supported level, no bit where
    theta_i = 0 and every bit where theta_i = 1.  [R | scale * rhs] gets one
    more row, the artificials' reduced costs; an artificial never re-enters,
    so its column is not kept.  The lowest column of negative reduced cost
    enters and the least ratio leaves, ties to the lowest basic index; row
    i's artificial ranks n + i, above every column.  An artificial left
    basic at 0 is pivoted out on the lowest column with a nonzero entry in
    its row; with none, its row is redundant and dropped, and the rows kept
    stay over the D of their basis.  Returns (columns, (T, D, basis, scale)),
    T the tableau [B^-1 R | x_B] over D for _enumerate_bases; None when the
    artificials' sum stays above 0.
    """
    master = _Master(_exact_p(p), theta, 0, None)
    zeros = sum(1 << i for i, t in enumerate(theta.values) if t == 0)
    columns = [idx for idx in range(1 << p.d) if idx.bit_count() in master.level_row
               and not idx & zeros and idx & master.ones == master.ones]
    n, m = len(columns), master.m
    T = [[0] * n + t[-1:] for t in master.T[:m]]
    for j, idx in enumerate(columns):
        for r in master.rows(idx):
            T[r][j] = 1
    T.append([-sum(a) for a in zip(*T)])
    basis = [n + i for i in range(m)]
    D = 1
    while (enter := next((j for j in range(n) if T[m][j] < 0), None)) is not None:
        row = None
        for i in range(m):
            t = T[i][enter]
            if t > 0 and (row is None or (T[i][-1] * T[row][enter], basis[i]) < (T[row][-1] * t, basis[row])):
                row = i
        D = _pivot(T, D, row, enter)
        basis[row] = enter
    if T[m][-1]:
        return None
    keep = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if T[i][j]), None)
            if enter is None:
                continue
            D = _pivot(T, D, i, enter)
            basis[i] = enter
        keep.append(i)
    return columns, ([T[i] for i in keep], D, [basis[i] for i in keep], master.scale)


def _to_joint(d: int, columns, x) -> JointPmf:
    """A basic feasible solution as a pmf: it is >= 0, and as _exact_p sums
    to exactly 1, so do its level rows; nothing is left to validate."""
    values: list[Number] = [_ZERO] * (1 << d)
    for idx, v in zip(columns, x):
        values[idx] = v
    return JointPmf._with_validated_masses(d, values)


def _majorization(pvals: Sequence[Fraction], theta: MeanVector):
    """The coordinates in decreasing order of mean, those means x and the
    tails q_s = P(S >= s), s = 1..d; or None when theta is infeasible, that
    is when x is not majorized by q (dominated prefix sums, equal totals)."""
    order = sorted(range(theta.d), key=lambda i: theta.values[i], reverse=True)
    x = [theta.values[i] for i in order]
    q = list(accumulate(reversed(pvals[1:])))[::-1]
    px, pq = list(accumulate(x)), list(accumulate(q))
    if px[-1] == pq[-1] and all(a <= b for a, b in zip(px, pq)):
        return order, x, q
    return None


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
    (index, probability) pairs; bits[i] is the index bit of unit i.  It
    runs on integers: C and u scaled by the lcm L of z's denominators.
    """
    L = math.lcm(*(v.denominator for v in z))
    cum = list(accumulate((v.numerator * (L // v.denominator) for v in z), initial=0))
    cuts = sorted({c % L for c in cum} | {L})
    for a, b in zip(cuts, cuts[1:]):
        hits = [-((a - c) // L) for c in cum]  # ceil((c - a) / L)
        idx = sum(bit for bit, lo, hi in zip(bits, hits, hits[1:]) if hi > lo)
        yield idx, Fraction(b - a, L)


def feasible_point(p: SumPmf, theta) -> Optional[JointPmf]:
    """An exact element of the mean-constrained fiber, or None if empty.

    The verdict is the exact majorization test of the module docstring, whose
    s = 1, d - 1 and d cases are the mean box p_d <= theta_i <= 1 - p_0 and
    sum(theta) = mean(p).  The witness carries at most d atoms per supported
    level of p.  It is a dense carrier, so d is limited to the dense guard
    (d <= 20).
    """
    d = p.d
    theta = _coerce_theta(theta, d)
    _check_dimension(d)
    pvals = _exact_p(p)
    if (verdict := _majorization(pvals, theta)) is None:
        return None
    order, x, q = verdict
    bits = [1 << i for i in order]
    values: list[Number] = [0] * (1 << d)  # an atom never hit stays int 0
    for k, zk in _level_marginals(pvals, x, q).items():
        for idx, w in _systematic_atoms(zk, bits):
            values[idx] += pvals[k] * w
    # Each level's Madow weights telescope to exactly 1, so the masses are
    # positive and sum to sum(p) = 1.
    return JointPmf._with_validated_masses(d, values)


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


def _lex_ratio_less(a: list[int], ua: int, b: list[int], ub: int) -> bool:
    """Whether tableau row a / ua is lexicographically below b / ub (ua, ub >
    0), read as (x_B, D * B^-1): the right-hand side last in the row, first
    in the order."""
    for c in range(-1, len(a) - 1):
        left, right = a[c] * ub, b[c] * ua
        if left != right:
            return left < right
    return False


class _Master:
    """The restricted master LP of constrained_moment_bounds, and the only
    place the LP's rows are built: one per supported level, then one per
    mean with 0 < theta_i < 1.  An atom's column has a 1 in its level's row
    and in the row of each free coordinate it holds; a coordinate with
    theta_i = 0 or 1 is clear or set in every atom.

    The tableau holds no structural column.  Row i of the m constraint rows
    is [D * B^-1 | D * scale * x_B], the block starting as the identity of
    the artificials; then come the artificials' row and the moment row,
    each [-D * duals | -D * scale * objective].  The artificials' cost of an
    atom is minus the number of its rows; summed over the fiber that is
    sum(artificials) less the constant sum(rhs), so its reduced costs are
    those of sum(artificials) and the artificials need no cost.  The moment
    row is carried for the cost [S <= x] and negated for the upper bound.
    A new column is B^-1 times the atom's 0/1 column, read off the block.
    """

    def __init__(self, pvals: Sequence[Fraction], theta: MeanVector, mask: int, max_bases: int | None):
        rhs: list[Fraction] = []
        self.level_row: dict[int, int] = {}
        self.mean_row: dict[int, int] = {}
        for k, v in enumerate(pvals):
            if v > 0:
                self.level_row[k] = len(rhs)
                rhs.append(v)
        for i, t in enumerate(theta.values):
            if 0 < t < 1:
                self.mean_row[i] = len(rhs)
                rhs.append(t)
        self.ones = sum(1 << i for i, t in enumerate(theta.values) if t == 1)
        self.mask = mask
        self.m = m = len(rhs)
        self.scale = math.lcm(*(b.denominator for b in rhs))
        self.T = [[int(i == r) for r in range(m)] + [int(b * self.scale)] for i, b in enumerate(rhs)]
        self.T += [[0] * (m + 1), [0] * (m + 1)]
        self.D = 1
        self.pivots, self.max_bases = 0, max_bases

    def rows(self, idx: int) -> list[int]:
        return [self.level_row[idx.bit_count()], *(r for i, r in self.mean_row.items() if idx >> i & 1)]

    def column(self, idx: int, sigma: int) -> list[int]:
        """The entering column of atom idx in every tableau row; the moment
        cost is sigma * [S <= idx]."""
        rows = self.rows(idx)
        u = [sum(map(t.__getitem__, rows)) for t in self.T]
        u[-2] -= self.D * len(rows)
        if idx & self.mask == self.mask:
            u[-1] += sigma * self.D
        return u

    def enter(self, idx: int, sigma: int) -> None:
        """Pivot atom idx in, leaving by the lexicographic ratio test."""
        if self.max_bases is not None and self.pivots >= self.max_bases:
            raise BasisLimitError(
                f"the moment bounds exceeded max_bases={self.max_bases} simplex pivots "
                f"(the two column-generation solves together)"
            )
        u = self.column(idx, sigma)
        row = None
        for i in range(self.m):
            if u[i] > 0 and (row is None or _lex_ratio_less(self.T[i], u[i], self.T[row], u[row])):
                row = i
        # After the pivot the entering column is D times a unit vector, so it is dropped.
        T = [t + [a] for t, a in zip(self.T, u)]
        self.D = _pivot(T, self.D, row, self.m + 1)
        self.T = [t[:-1] for t in T]
        self.pivots += 1

    def price(self, sigma: int) -> int | None:
        """The atom whose reduced cost (the artificials', then the moment's) is
        lexicographically least, or None when none is below 0.

        Both parts are sums over the atom's rows plus, for the moment,
        sigma * D when S <= x; they fold into one integer M * w + z with M
        above twice any |z|.  Per level, with k' free coordinates to choose,
        the least cost either holds S (its free part, then the cheapest
        others) or, for some j in S, leaves j out and takes the k' cheapest
        others: one sort of the free coordinates serves every level.
        """
        D, w, z = self.D, self.T[-2], self.T[-1]
        M = 2 * (D + sum(map(abs, z[:-1]))) + 1
        weight = [M * (a - D) + b for a, b in zip(w[:-1], z)]
        free = sorted(self.mean_row, key=lambda i: weight[self.mean_row[i]])
        g = [weight[self.mean_row[i]] for i in free]
        prefix = list(accumulate(g, initial=0))
        prefix_bits = list(accumulate((1 << i for i in free), int.__or__, initial=0))
        # s_pos is empty when S lies in the theta_i = 1 coordinates: every atom holds S.
        s_pos = [j for j, i in enumerate(free) if self.mask >> i & 1]
        rest = [j for j, i in enumerate(free) if not self.mask >> i & 1]
        rest_prefix = list(accumulate((g[j] for j in rest), initial=0))
        rest_bits = list(accumulate((1 << free[j] for j in rest), int.__or__, initial=0))
        s_cost = sigma * D + sum(g[j] for j in s_pos)
        s_bits = sum(1 << free[j] for j in s_pos)
        n_ones = self.ones.bit_count()
        best, atom = 0, None
        for k, r in self.level_row.items():
            kk, h = k - n_ones, weight[r]
            cands = []
            if kk >= len(s_pos):
                t = kk - len(s_pos)
                cands.append((h + s_cost + rest_prefix[t], s_bits | rest_bits[t]))
            if kk < len(free):
                for j in s_pos:
                    if j < kk:
                        cands.append((h + prefix[kk + 1] - g[j], prefix_bits[kk + 1] & ~(1 << free[j])))
                    else:
                        cands.append((h + prefix[kk], prefix_bits[kk]))
            for c, bits in cands:
                if c < best:
                    best, atom = c, bits | self.ones
        return atom

    def solve(self, sigma: int) -> Fraction:
        """min of sigma * moment over the fiber, by column generation."""
        while (idx := self.price(sigma)) is not None:
            self.enter(idx, sigma)
        return Fraction(-self.T[-1][-1], self.D * self.scale)


def constrained_moment_bounds(p: SumPmf, theta, subset, max_bases: int | None = None) -> tuple[Number, Number]:
    """Sharp cross-moment range over the mean-constrained fiber.

    The moment is linear on the fiber, a polytope, so each bound is one LP
    optimum: column generation from the artificial basis, with no vertex
    list and no 2^d columns, for any d.  The subset is checked first.
    Raises InfeasibleError when the fiber is empty (there is nothing to
    bound).  A bound of 0 is cross_moment's float 0.0, any other an exact
    Fraction.  Pass max_bases >= 1 to cap the simplex pivots of both solves
    together; past it BasisLimitError is raised.
    """
    subset = tuple(subset)
    mask = _subset_mask(p.d, subset)
    if max_bases is not None and max_bases < 1:
        raise ValueError("max_bases must be >= 1")
    theta = _coerce_theta(theta, p.d)
    pvals = _exact_p(p)
    if _majorization(pvals, theta) is None:
        raise InfeasibleError("the mean-constrained fiber is empty")
    if any(mask >> i & 1 for i, t in enumerate(theta.values) if t == 0):
        return 0.0, 0.0  # no member puts mass on S
    master = _Master(pvals, theta, mask, max_bases)
    lo = master.solve(1)
    # The upper bound starts from the lower optimum, on one pivot budget.
    master.T[-1] = [-a for a in master.T[-1]]
    hi = -master.solve(-1)
    return (lo or 0.0), (hi or 0.0)
