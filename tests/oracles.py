"""Brute-force reference implementations used only by the tests.

Everything here recomputes results from definitions: exhaustive basis
enumeration for vertex sets, a breadth-first feasible-basis walk on a
Fraction tableau, Bareiss's pivot in one formula over every row, tensor
Gauss-Legendre quadrature for integrals, naive sums for moments and
entropy, the vertex order as a product of level slices, flat weights by
walking its labels, the box estimator's row-by-row chunk test, the binomial
curve's fiber measure step by step, and mass parsing and summing on
Fraction objects.  Nothing imports from the package under test,
so agreement is evidence rather than tautology; results are plain dicts,
lists and Fractions.
"""
from __future__ import annotations

import itertools
import math
import numbers
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np

_ZERO = Fraction(0)


def popcount(i: int) -> int:
    return bin(i).count("1")


# ---------------------------------------------------------------------------
# exhaustive vertex enumeration for {f >= 0, level sums = p} (and label maps)
# ---------------------------------------------------------------------------

def _gauss_solve(A, b):
    """Exact solve of a square system; None when singular."""
    n = len(A)
    M = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def brute_vertices_labeled(labels, p_values):
    """Vertices of {f >= 0, sum over label-class y = p_y} by basis enumeration.

    labels: tuple assigning each atom index a class in {0..d}; p_values:
    exact masses per class.  Returns a set of frozensets of (index, mass).
    """
    n_classes = len(p_values)
    n_vars = len(labels)
    rows = [[Fraction(1 if labels[i] == y else 0) for i in range(n_vars)] for y in range(n_classes)]
    rhs = [Fraction(v) for v in p_values]
    found = set()
    for cols in combinations(range(n_vars), n_classes):
        sub = [[rows[r][c] for c in cols] for r in range(n_classes)]
        x = _gauss_solve(sub, rhs)
        if x is None or any(v < 0 for v in x):
            continue
        found.add(frozenset((c, v) for c, v in zip(cols, x) if v > 0))
    return found


def brute_vertices(d: int, p_values):
    """Vertices of the fiber over p, from the raw level-sum system."""
    labels = tuple(popcount(i) for i in range(1 << d))
    return brute_vertices_labeled(labels, p_values)


def brute_constrained_vertices(d: int, p_values, theta):
    """Exhaustive basic-solution scan of the mean-constrained system."""
    n_vars = 1 << d
    rows = []
    rhs = []
    for k in range(d + 1):
        rows.append([Fraction(1 if popcount(i) == k else 0) for i in range(n_vars)])
        rhs.append(Fraction(p_values[k]))
    for i in range(d):
        bit = 1 << i
        rows.append([Fraction(1 if idx & bit else 0) for idx in range(n_vars)])
        rhs.append(Fraction(theta[i]))

    rank, reduced_rows, reduced_rhs = _row_reduce(rows, rhs)
    if rank is None:
        return set()
    found = set()
    for cols in combinations(range(n_vars), rank):
        sub = [[reduced_rows[r][c] for c in cols] for r in range(rank)]
        x = _gauss_solve(sub, reduced_rhs)
        if x is None or any(v < 0 for v in x):
            continue
        full = [_ZERO] * n_vars
        for c, v in zip(cols, x):
            full[c] = v
        if all(
            sum(row[j] * full[j] for j in range(n_vars)) == b
            for row, b in zip(rows, rhs)
        ):
            found.add(frozenset((c, v) for c, v in enumerate(full) if v > 0))
    return found


def _row_reduce(rows, rhs):
    """Exact row reduction; returns (rank, independent rows, their rhs)."""
    m = len(rows)
    n = len(rows[0])
    M = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if M[i][col] != 0), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        pv = M[r][col]
        M[r] = [v / pv for v in M[r]]
        for i in range(m):
            if i != r and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * c for a, c in zip(M[i], M[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if M[i][n] != 0:
            return None, None, None  # inconsistent
    return r, [M[i][:n] for i in range(r)], [M[i][n] for i in range(r)]


def satisfies_homogeneous_system(f_values, p_values, theta) -> bool:
    """The normalized (homogeneous) form of the constrained system.

    Level rows: sum over the level of (1-p_k) f minus p_k times the rest;
    mean rows: (1-theta_i) over coordinate-i-on atoms minus theta_i over the
    others.  All as exact rationals, plus the normalization sum(f) = 1.
    """
    f = [Fraction(v) for v in f_values]
    if sum(f) != 1 or any(v < 0 for v in f):
        return False
    d = len(p_values) - 1
    n = len(f)
    for k in range(d + 1):
        pk = Fraction(p_values[k])
        lhs = sum((1 - pk) * f[i] if popcount(i) == k else -pk * f[i] for i in range(n))
        if lhs != 0:
            return False
    for i in range(d):
        t = Fraction(theta[i])
        bit = 1 << i
        lhs = sum((1 - t) * f[idx] if idx & bit else -t * f[idx] for idx in range(n))
        if lhs != 0:
            return False
    return True


@dataclass(frozen=True)
class ConstraintSystem:
    """Equality system A f = b over the 2^d atom masses, with f >= 0.

    Rows 0..d are the level-sum constraints, rows d+1..2d the coordinate-mean
    constraints; the feasible set is exactly the mean-constrained fiber.
    """

    d: int
    matrix: tuple
    rhs: tuple

    @property
    def n_vars(self) -> int:
        return 1 << self.d

    def residual(self, f) -> tuple:
        x = [Fraction(v) for v in f.values]
        return tuple(
            sum((a * xi for a, xi in zip(row, x)), _ZERO) - b
            for row, b in zip(self.matrix, self.rhs)
        )


def constraint_system(p, theta) -> ConstraintSystem:
    """The dense system over all 2^d atoms; floats enter as their exact binary
    fractions, and a float p that misses 1 is renormalized exactly."""
    d = p.d
    thetas = [Fraction(t) for t in theta]
    if len(thetas) != d:
        raise ValueError(f"dimension mismatch: theta has d={len(thetas)}, p has d={d}")
    pvals = [Fraction(v) for v in p.values]
    total = sum(pvals)
    pvals = [v / total for v in pvals]
    n = 1 << d
    rows = [tuple(Fraction(popcount(i) == k) for i in range(n)) for k in range(d + 1)]
    rows += [tuple(Fraction(i >> j & 1) for i in range(n)) for j in range(d)]
    return ConstraintSystem(d=d, matrix=tuple(rows), rhs=tuple(pvals + thetas))


# ---------------------------------------------------------------------------
# the feasible-basis walk on a Fraction tableau
# ---------------------------------------------------------------------------

class ReferenceBasisLimit(RuntimeError):
    """The reference walk visited more bases than its budget."""


def _fraction_pivot(T, row, col):
    """Gauss-Jordan pivot on T[row][col]; rows are rebound, never mutated."""
    pv = T[row][col]
    prow = T[row] = [v / pv for v in T[row]]
    for i, ti in enumerate(T):
        f = ti[col]
        if i != row and f != 0:
            T[i] = [a - f * b for a, b in zip(ti, prow)]


def bareiss_pivot(T, D, row, u):
    """Bareiss's fraction-free pivot in one formula over every row: the
    new tableau, a fresh list of fresh rows, and the new denominator.  The
    pivot row is negated first when u[row] < 0."""
    pv, sign = abs(u[row]), (1 if u[row] > 0 else -1)
    prow = [sign * a for a in T[row]]
    return [prow if i == row else [(a * pv - f * b) // D for a, b in zip(t, prow)]
            for i, (t, f) in enumerate(zip(T, u))], pv


def _fraction_phase1(rows, rhs):
    """Bland's-rule phase 1 on [rows | I | rhs]; (R, s, basis) or None."""
    m, n = len(rows), len(rows[0])
    T = [list(rows[i]) + [Fraction(int(i == k)) for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    z = [-sum(T[i][j] for i in range(m)) for j in range(n + m + 1)]
    for j in range(n, n + m):
        z[j] += 1
    T.append(z)
    while True:
        enter = next((j for j in range(n) if T[m][j] < 0), None)
        if enter is None:
            break
        leave_row, best = None, None
        for i in range(m):
            t = T[i][enter]
            if t > 0:
                ratio = T[i][-1] / t
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave_row]):
                    best, leave_row = ratio, i
        _fraction_pivot(T, leave_row, enter)
        basis[leave_row] = enter
    if T[m][-1] != 0:
        return None
    keep = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if T[i][j] != 0), None)
            if enter is None:
                continue
            _fraction_pivot(T, i, enter)
            basis[i] = enter
        keep.append(i)
    return [T[i][:n] for i in keep], [T[i][-1] for i in keep], [basis[i] for i in keep]


def reference_phase1(d: int, p_values, theta):
    """Bland's-rule phase 1 of the mean-constrained system on a Fraction
    tableau: (columns, R, s, basis), the live atoms and the canonical form
    [R | s] for the basis of column positions; None when the slice is empty.

    The system keeps the atoms of supported levels whose bits agree with
    theta_i in {0, 1}, one row per supported level and one per fractional
    theta_i.
    """
    pvals = [Fraction(v) for v in p_values]
    thetas = [Fraction(t) for t in theta]
    zeros = sum(1 << i for i, t in enumerate(thetas) if t == 0)
    ones = sum(1 << i for i, t in enumerate(thetas) if t == 1)
    columns = [idx for idx in range(1 << d)
               if pvals[popcount(idx)] > 0 and not idx & zeros and idx & ones == ones]
    rows = [[Fraction(popcount(idx) == k) for idx in columns] for k, v in enumerate(pvals) if v > 0]
    rows += [[Fraction(idx >> i & 1) for idx in columns] for i, t in enumerate(thetas) if 0 < t < 1]
    rhs = [v for v in pvals if v > 0] + [t for t in thetas if 0 < t < 1]
    got = _fraction_phase1(rows, rhs)
    return None if got is None else (columns, *got)


def reference_constrained_walk(d: int, p_values, theta, max_bases=None):
    """Breadth-first walk over the feasible bases of the mean-constrained
    system from reference_phase1's basis, one Fraction pivot per edge from
    the parent's tableau.

    Returns the distinct vertices as dense tuples over the 2^d atoms, sorted
    by their column vectors; [] when the slice is empty.  Raises
    ReferenceBasisLimit when more than max_bases bases are visited.
    """
    got = reference_phase1(d, p_values, theta)
    if got is None:
        return []
    columns, R, s, basis0 = got
    r, n = len(R), len(columns)
    seen = {tuple(sorted(basis0))}
    queue = deque([(list(basis0), [R[i] + [s[i]] for i in range(r)], None)])
    solutions = {}
    visited = 0
    while queue:
        basis, T, swap = queue.popleft()
        visited += 1
        if max_bases is not None and visited > max_bases:
            raise ReferenceBasisLimit(
                f"vertex enumeration exceeded max_bases={max_bases} "
                f"({len(solutions)} vertices found so far); degenerate instances "
                f"can have combinatorially many feasible bases"
            )
        if swap is not None:
            T, basis = list(T), list(basis)
            _fraction_pivot(T, *swap)
            basis[swap[0]] = swap[1]
        xB = [T[i][-1] for i in range(r)]
        x = [_ZERO] * n
        for i, b in enumerate(basis):
            x[b] = xB[i]
        solutions[tuple(x)] = x
        in_basis = set(basis)
        rows_by_basis = sorted(range(r), key=basis.__getitem__)
        for j in range(n):
            if j in in_basis:
                continue
            col = [T[i][j] for i in range(r)]
            step = min((xB[k] / col[k] for k in range(r) if col[k] > 0), default=None)
            for i in rows_by_basis:
                if col[i] == 0:
                    continue
                if xB[i] != 0 and not (col[i] > 0 and xB[i] / col[i] == step):
                    continue
                nb = tuple(sorted(in_basis - {basis[i]} | {j}))
                if nb not in seen:
                    seen.add(nb)
                    queue.append((basis, T, (i, j)))
    vertices = []
    for key in sorted(solutions):
        dense = [_ZERO] * (1 << d)
        for idx, v in zip(columns, key):
            dense[idx] = v
        vertices.append(tuple(dense))
    return vertices


# ---------------------------------------------------------------------------
# naive moment / entropy / pushforward sums
# ---------------------------------------------------------------------------

def level_slices(d: int) -> list[list[int]]:
    """Indices of weight k, for k = 0..d, by scanning all 2^d indices."""
    return [[i for i in range(1 << d) if popcount(i) == k] for k in range(d + 1)]


def colex_vertices(values):
    """Every vertex of the fiber over the sum law `values` (p_0..p_d), in
    colex sigma order: the product over each supported level's sorted
    weight-k indices, the first level cycling fastest.  Yields (sigma,
    atoms): 1-based positions, 1 off-support, and the (index, p_k) pairs
    sorted by index."""
    d = len(values) - 1
    slices = level_slices(d)
    support = [k for k, v in enumerate(values) if v > 0]
    # product() cycles its last factor fastest, so the levels go in reversed.
    for picks in itertools.product(*(slices[k] for k in reversed(support))):
        chosen = dict(zip(reversed(support), picks))
        sigma = tuple(slices[k].index(chosen[k]) + 1 if k in chosen else 1 for k in range(d + 1))
        yield sigma, tuple(sorted((i, values[k]) for k, i in chosen.items()))


def label_walk_flat_weights(values, blocks):
    """Product-form vertex weights by walking the sigma labels: for each
    label of colex_vertices, 1 times the sigma_k-th weight of each supported
    level's block, the levels ascending."""
    support = [k for k, v in enumerate(values) if v > 0]
    out = []
    for sigma, _ in colex_vertices(values):
        lam = 1
        for k in support:
            lam = lam * blocks[k][sigma[k] - 1]
        out.append(lam)
    return out


def naive_sum_map(d: int, values):
    out = [0.0] * (d + 1)
    for i, v in enumerate(values):
        out[popcount(i)] += float(v)
    return out


def exact_levels_and_means(d: int, atoms) -> tuple[list, list]:
    """Exact level masses and coordinate means of (index, mass) atoms."""
    levels = [_ZERO] * (d + 1)
    means = [_ZERO] * d
    for i, m in atoms:
        levels[popcount(i)] += m
        for j in range(d):
            if i >> j & 1:
                means[j] += m
    return levels, means


def naive_cross_moment(d: int, values, subset) -> float:
    total = 0.0
    for i, v in enumerate(values):
        vec = [(i >> j) & 1 for j in range(d)]
        if all(vec[j - 1] == 1 for j in subset):
            total += float(v)
    return total


def naive_entropy(values) -> float:
    total = 0.0
    for v in values:
        fv = float(v)
        if fv > 0:
            total -= fv * math.log(fv)
    return total


# ---------------------------------------------------------------------------
# the Dirichlet(C(d, k)) log pdf in high precision
# ---------------------------------------------------------------------------

def reference_log_dirichlet_pdf(p) -> float:
    """log of the Dirichlet(C(d,k)) pdf at p = (p_0, ..., p_d), from its
    definition lgamma(2^d) - sum_k lgamma(C(d,k)) + sum_k (C(d,k) - 1) log p_k
    in mpmath at 40 + d digits, each mass taken as the exact rational it
    denotes (a float, int, Fraction or "num/den" string).  0 log 0 = 0, so
    levels 0 and d (C(d,k) = 1) add nothing whatever their mass; a vanishing
    mass of any other level gives -inf.  Rounded to a float once, at the end."""
    d = len(p) - 1
    with mpmath.workdps(40 + d):
        total = mpmath.loggamma(mpmath.mpf(2) ** d)
        for k, v in enumerate(p):
            a = math.comb(d, k)
            if a == 1:
                continue
            v = Fraction(v)
            if v == 0:
                return -math.inf
            total += (a - 1) * (mpmath.log(v.numerator) - mpmath.log(v.denominator)) - mpmath.loggamma(a)
        return float(total)


# ---------------------------------------------------------------------------
# the fiber measure along the binomial curve, in closed form
# ---------------------------------------------------------------------------

def binomial_curve_log_measure(theta: float, d: int) -> float:
    """log l_amb(b(theta)) = A(d) + B(d) log(theta (1 - theta)) for 0 < theta < 1,
    with n_k = C(d,k) - 1,
    A(d) = sum_{0<k<d} [n_k log C(d,k) + 1/2 log(n_k + 1) - log n_k!] and
    B(d) = sum_{0<k<d} k n_k (an exact integer).  No mass of b(theta) is
    formed, so none can underflow."""
    parts = []
    for k in range(1, d):
        c = math.comb(d, k)
        parts += [(c - 1) * math.log(c), 0.5 * math.log(c), -math.lgamma(c)]
    b = sum(k * (math.comb(d, k) - 1) for k in range(1, d))
    return math.fsum(parts) + b * (math.log(theta) + math.log1p(-theta))


def reference_curve_log_measure(theta, d: int) -> float | None:
    """log l_amb(b(theta)) as polytope_measure(binomial_pmf(theta, d)) forms
    it, written out step by step; None for a zero measure.  theta is a float
    or an exact int/Fraction.  The masses C(d,k) t^k (1 - t)^(d - k) over
    their total (fsum, or the exact sum).  A level's log is its float mass's,
    -inf for a zero, except below the normal floats: a float theta in (0, 1)
    then takes log C(d,k) + k log t + (d - k) log1p(-t) - log total at each
    level whose mass or factor is below them (only if some level's is), and
    an exact mass its numerator's log minus its denominator's.  The level
    constants are rounded as simplex_hausdorff rounds them, and the terms
    n_k log p_k + 0.5 log C(d,k) - lgamma(C(d,k)) are added in level order
    from 0.0.  Raises the package's ValueErrors where a C(d,k) or the sum
    is past the float range."""
    tiny = 2.0 ** -1022
    exact = isinstance(theta, (int, Fraction))
    t = Fraction(theta) if exact else float(theta)
    combs = [math.comb(d, k) for k in range(d + 1)]
    try:
        values = [c * t**k * (1 - t) ** (d - k) for k, c in enumerate(combs)]
    except OverflowError:
        raise ValueError(
            f"a float theta needs every C(d, k) to be a finite float; at d = {d} one overflows"
        ) from None
    total = sum(values) if exact else math.fsum(values)
    masses = [v / total for v in values]
    logs = [math.log(float(v)) if float(v) > 0 else -math.inf for v in masses]
    if exact:
        for k, v in enumerate(masses):
            if 0 < v < tiny:
                logs[k] = math.log(v.numerator) - math.log(v.denominator)
    elif 0 < t < 1 and min([t**d, (1 - t) ** d] + masses) < tiny:
        for k, v in enumerate(masses):
            if min(v, t**k, (1 - t) ** (d - k)) < tiny:
                logs[k] = (math.log(combs[k]) + k * math.log(t) + (d - k) * math.log1p(-t)
                           - math.log(total))
    out, full = 0.0, True
    for k in range(1, d):
        a = combs[k]
        try:
            n, half_log, log_fact = float(a - 1), 0.5 * math.log(a), math.lgamma(a)
        except OverflowError:
            n, half_log, log_fact = 0.0, 0.0, math.inf
        if logs[k] > -math.inf:
            out += n * logs[k] + half_log - log_fact
        else:
            full = False
    if not out > -math.inf:
        raise ValueError(f"a log fiber measure must be a finite float; at d = {d} it overflows")
    return out if full else None


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature over the corner simplex and window regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Node count and target region for the quadrature oracle.

    region is "simplex", or ("sup"|"tv", center tuple, eps) for the
    d-dimensional window regions.
    """

    dimension: int
    nodes: int = 16
    region: object = "simplex"

    def __post_init__(self):
        if not 1 <= self.dimension <= 3:
            raise ValueError("quadrature oracle supports dimensions 1..3")


def quad_integral(g, spec: QuadratureSpec):
    """Dispatch g over the region in spec; returns (value, error_estimate)."""
    if spec.region == "simplex":
        return quad_simplex(g, spec.dimension, spec.nodes)
    kind, center, eps = spec.region
    if spec.dimension != 2:
        raise ValueError("window-region quadrature is implemented for d = 2")
    fn = {"sup": quad_region_sup_2d, "tv": quad_region_tv_2d}[kind]
    coarse = fn(g, center, eps, nodes=spec.nodes)
    fine = fn(g, center, eps, nodes=2 * spec.nodes)
    return fine, abs(fine - coarse)


def _gl_nodes(n: int, a: float, b: float):
    t, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * t, half * w


def quad_simplex(g, d: int, nodes: int = 24):
    """Integral of g over {x >= 0, sum x <= 1} in R^d with an error estimate.

    Tensor Gauss-Legendre through the collapsing map x_i = u_i prod(1-u_j);
    the error estimate compares against a refined rule.
    """
    if d not in (1, 2, 3):
        raise ValueError("quadrature oracle supports d in {1,2,3}")

    def run(n):
        u, w = _gl_nodes(n, 0.0, 1.0)
        if d == 1:
            return float(sum(w[i] * g((u[i],)) for i in range(n)))
        if d == 2:
            total = 0.0
            for i in range(n):
                x0 = u[i]
                scale = 1.0 - x0
                for j in range(n):
                    total += w[i] * w[j] * scale * g((x0, u[j] * scale))
            return total
        total = 0.0
        for i in range(n):
            x0 = u[i]
            s0 = 1.0 - x0
            for j in range(n):
                x1 = u[j] * s0
                s1 = s0 * (1.0 - u[j])
                jac = s0 * s1
                for k in range(n):
                    total += w[i] * w[j] * w[k] * jac * g((x0, x1, u[k] * s1))
        return total

    coarse = run(nodes)
    fine = run(2 * nodes)
    return fine, abs(fine - coarse)


def _interval_quad(g, a: float, b: float, nodes: int = 16) -> float:
    if b <= a:
        return 0.0
    x, w = _gl_nodes(nodes, a, b)
    return float(np.sum(w * np.array([g(v) for v in x])))


def _segmented_quad(g, breakpoints, nodes: int = 16, panels: int = 8) -> float:
    pts = sorted(set(breakpoints))
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        if b - a <= 0:
            continue
        step = (b - a) / panels
        for c in range(panels):
            total += _interval_quad(g, a + c * step, a + (c + 1) * step, nodes)
    return total


def sup_window(p, eps, j):
    return max(p[j] - eps, 0.0), min(p[j] + eps, 1.0)


def quad_region_sup_2d(g, p, eps, box=None, nodes: int = 16):
    """Integral of g(x, y, 1-x-y) over the sup-ball around p=(p0,p1,p2),
    optionally intersected with a parameter-space box ((x0,x1),(y0,y1))."""
    lo0, hi0 = sup_window(p, eps, 0)
    lo1, hi1 = sup_window(p, eps, 1)
    lo2, hi2 = sup_window(p, eps, 2)
    if box is not None:
        (bx0, bx1), (by0, by1) = box
        lo0, hi0 = max(lo0, bx0), min(hi0, bx1)
        lo1, hi1 = max(lo1, by0), min(hi1, by1)

    def inner(x):
        ya = max(lo1, 1.0 - hi2 - x)
        yb = min(hi1, 1.0 - lo2 - x)
        if yb <= ya:
            return 0.0
        return _interval_quad(lambda y: g(x, y, 1.0 - x - y), ya, yb, nodes)

    cands = [lo0, hi0, 1.0 - hi2 - lo1, 1.0 - hi2 - hi1, 1.0 - lo2 - lo1, 1.0 - lo2 - hi1]
    breaks = [min(max(c, lo0), hi0) for c in cands]
    return _segmented_quad(inner, breaks, nodes)


def quad_region_tv_2d(g, p, eps, nodes: int = 16):
    """Integral of g(x, y, 1-x-y) over the TV-ball of radius eps around p."""
    p0, p1, p2 = float(p[0]), float(p[1]), float(p[2])

    def inner(x):
        gap = abs(x - p0)
        if gap > eps:
            return 0.0
        c = 1.0 - x - p2
        a, b = min(p1, c), max(p1, c)
        ext = eps - gap
        ya = max(a - ext, 0.0)
        yb = min(b + ext, 1.0 - x)
        if yb <= ya:
            return 0.0
        return _interval_quad(lambda y: g(x, y, 1.0 - x - y), ya, yb, nodes)

    x_lo, x_hi = max(p0 - eps, 0.0), min(p0 + eps, 1.0)
    c0 = 1.0 - p2  # where the inner center c crosses p1: x = p0
    breaks = [x_lo, x_hi, min(max(p0, x_lo), x_hi), min(max(c0 - p1, x_lo), x_hi)]
    return _segmented_quad(inner, breaks, nodes, panels=32)


def quad_region_sup_3d_volume(p, eps, box=None, panels: int = 160, nodes: int = 4) -> float:
    """Lebesgue volume of the parameterized sup-ball region for d=3,
    optionally intersected with a box over the three free coordinates."""
    wins = [sup_window(p, eps, j) for j in range(4)]
    (lo0, hi0), (lo1, hi1), (lo2, hi2), (lo3, hi3) = wins
    if box is not None:
        (b0, b1, b2) = box
        lo0, hi0 = max(lo0, b0[0]), min(hi0, b0[1])
        lo1, hi1 = max(lo1, b1[0]), min(hi1, b1[1])
        lo2, hi2 = max(lo2, b2[0]), min(hi2, b2[1])
    if hi0 <= lo0 or hi1 <= lo1 or hi2 <= lo2:
        return 0.0

    x, wx = _composite_gl(lo0, hi0, panels, nodes)
    y, wy = _composite_gl(lo1, hi1, panels, nodes)
    X, Y = np.meshgrid(x, y, indexing="ij")
    W = np.outer(wx, wy)
    za = np.maximum(lo2, 1.0 - hi3 - X - Y)
    zb = np.minimum(hi2, 1.0 - lo3 - X - Y)
    length = np.clip(zb - za, 0.0, None)
    return float((W * length).sum())


def _composite_gl(a: float, b: float, panels: int, nodes: int):
    t, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    xs = (mids[:, None] + halves[:, None] * t[None, :]).ravel()
    ws = (halves[:, None] * w[None, :]).ravel()
    return xs, ws


# ---------------------------------------------------------------------------
# the box estimator's chunk test, row by row
# ---------------------------------------------------------------------------

def reference_log_density_rows(X, d: int):
    """log l(x) = sum_k n_k log x_k - log n_k!, n_k = C(d, k) - 1, at each row
    of X, the terms added level by level as the package's kernel adds them."""
    n = np.array([float(math.comb(d, k) - 1) for k in range(1, d)])
    log_facts = float(sum(math.lgamma(math.comb(d, k)) for k in range(1, d)))
    with np.errstate(divide="ignore"):
        logs = np.log(X[:, np.arange(1, d)])
    terms, lone = logs * n, len(X) == 1
    total = 0.0 if lone else np.zeros(len(X))
    for column in terms[0].tolist() if lone else terms.T:
        total += column
    return np.atleast_1d(total - log_facts)


def box_hits_reference(U, lo, hi, p_full, epsilon, metric, density=True):
    """The box estimator's chunk as it read when every draw was scaled and
    row-summed: the kept box points X = U * widths + lo (rows of U uniform on
    [0,1)^d) whose last coordinate 1 - sum(x) passes window d, then, for tv,
    the TV test; with their log fiber densities when density is set."""
    d = U.shape[1]
    widths = hi[:d] - lo[:d]
    X = U.copy()
    X *= widths
    X += lo[:d]
    last = 1.0 - X.sum(axis=1)
    acc = (last >= lo[d]) & (last <= hi[d])
    X = X[acc]
    if metric == "tv":
        P = np.column_stack([X, last[acc]])
        X = X[0.5 * np.abs(P - p_full).sum(axis=1) <= epsilon]
    return X, reference_log_density_rows(X, d) if density else None


# ---------------------------------------------------------------------------
# distribution helpers for statistical checks
# ---------------------------------------------------------------------------

def dirichlet_mean_cov(alpha):
    a = np.asarray(alpha, dtype=float)
    a0 = a.sum()
    mean = a / a0
    cov = -np.outer(a, a) / (a0 * a0 * (a0 + 1.0))
    np.fill_diagonal(cov, a * (a0 - a) / (a0 * a0 * (a0 + 1.0)))
    return mean, cov


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic survival function of the Kolmogorov statistic."""
    if lam <= 0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        total += 2.0 * (-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
    return min(max(total, 0.0), 1.0)


def ks_two_sample_pvalue(xs, ys) -> float:
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    grid = np.concatenate([xs, ys])
    cdf_x = np.searchsorted(xs, grid, side="right") / xs.size
    cdf_y = np.searchsorted(ys, grid, side="right") / ys.size
    d_stat = float(np.max(np.abs(cdf_x - cdf_y)))
    n_eff = xs.size * ys.size / (xs.size + ys.size)
    return kolmogorov_sf(math.sqrt(n_eff) * d_stat)


# ---------------------------------------------------------------------------
# mass parsing and the exact sum as the package did them on Fraction objects
# ---------------------------------------------------------------------------

PROB_TOL = 1e-12


def _is_exact(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def fraction_as_number(v):
    """A JSON-ish scalar as int, float or Fraction, every string through
    Fraction(str)."""
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"not a probability value: {v!r} has a zero denominator") from None
    if isinstance(v, (float, Fraction)):
        return v
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    raise ValueError(f"not a probability value: {v!r}")


def fraction_total(masses):
    """Exact sum, by Fraction additions, when every nonzero mass is exact;
    else the float sum of the nonzero masses.  Zeros decide only when every
    mass is zero."""
    masses = list(masses)
    deciding = [m for m in masses if m] or masses
    if all(_is_exact(m) for m in deciding):
        return sum(m for m in masses if _is_exact(m))
    return math.fsum(float(m) for m in deciding)


def fraction_validate_masses(values, what: str) -> tuple:
    """The masses parsed, each tested >= 0 by comparison, and their total
    tested against 1: exactly, or within PROB_TOL for a float total."""
    vals = tuple(fraction_as_number(v) for v in values)
    for v in vals:
        if v < 0:
            raise ValueError(f"{what} violates nonnegativity: entry {v}")
    total = fraction_total(vals)
    if (total != 1) if _is_exact(total) else not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"{what} violates normalization: sum {total!r} != 1")
    return vals
