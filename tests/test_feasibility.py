import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernsum.feasibility import (
    BasisLimitError,
    InfeasibleError,
    MeanVector,
    constrained_moment_bounds,
    constrained_vertices,
    feasible_point,
    _solve,
)
from bernsum.pmf import JointPmf, SparseJointPmf, SumPmf, cross_moment
from bernsum.polytope import exchangeable_pmf, extremal_enumerate, membership

from oracles import (
    ReferenceBasisLimit,
    brute_constrained_vertices,
    constraint_system,
    exact_levels_and_means,
    reference_constrained_walk,
    reference_phase1,
    satisfies_homogeneous_system,
)

B_HALF_3 = SumPmf([Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)])
THETA_REF = [Fraction(1, 4), Fraction(2, 4), Fraction(3, 4)]

# The three vertices of the reference constrained fiber, exact eighths.
REF_VERTICES = [
    {0: Fraction(1, 8), 3: Fraction(1, 8), 4: Fraction(3, 8), 6: Fraction(2, 8), 7: Fraction(1, 8)},
    {0: Fraction(1, 8), 2: Fraction(1, 8), 4: Fraction(2, 8), 5: Fraction(1, 8),
     6: Fraction(2, 8), 7: Fraction(1, 8)},
    {0: Fraction(1, 8), 1: Fraction(1, 8), 4: Fraction(2, 8), 6: Fraction(3, 8), 7: Fraction(1, 8)},
]

# Minimal-support counterexample: the mean condition holds, the box fails.
P_CORNER = SumPmf([Fraction(4, 5), 0, 0, Fraction(1, 5)])

REF_JOINTS = [SparseJointPmf(3, list(d.items())) for d in REF_VERTICES]


def atom_dict(f: JointPmf) -> dict:
    return {i: v for i, v in enumerate(f.values) if v > 0}


def exact_random_pmf(rng: np.random.Generator, d: int, full_support=False) -> SumPmf:
    lo = 1 if full_support else 0
    while True:
        weights = [int(w) for w in rng.integers(lo, 9, size=d + 1)]
        if sum(weights) > 0:
            return SumPmf([Fraction(w, sum(weights)) for w in weights])


def coordinate_means(f: JointPmf) -> list:
    return [cross_moment(f, [i]) for i in range(1, f.d + 1)]


class TestNecessaryConditions:
    """The mean equation sum(theta) = mean(p) and the mean box
    p_d <= theta_i <= 1 - p_0 are necessary; feasible_point's exact test
    holds them as its s = d, s = 1 and s = d - 1 cases."""

    def test_reference_theta_passes(self):
        assert sum(THETA_REF) == B_HALF_3.mean()
        assert feasible_point(B_HALF_3, THETA_REF) is not None

    def test_counterexample_fails_box_only(self):
        theta = [0, Fraction(3, 10), Fraction(3, 10)]
        assert sum(theta) == P_CORNER.mean()
        assert min(theta) < P_CORNER.values[-1]
        assert feasible_point(P_CORNER, theta) is None

    def test_exchangeable_theta_always_passes(self):
        rng = np.random.default_rng(79)
        for d in (1, 2, 4, 6):
            p = exact_random_pmf(rng, d)
            assert feasible_point(p, [p.mean() / d] * d) is not None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            feasible_point(B_HALF_3, [Fraction(1, 2)] * 4)

    def test_theta_range_guard(self):
        # theta meets SumPmf's scalar rule; inf and NaN fail the range check
        # before a Fraction is built.
        for theta, invariant in (
            ([0.5, 1.2, 0.5], "\\[0,1\\]"),
            ([math.inf, 0.5], "\\[0,1\\]"),
            ([math.nan, 0.5], "\\[0,1\\]"),
            ([True, False], "not a probability value"),
            (["1/0", 0.5], "zero denominator"),
        ):
            with pytest.raises(ValueError, match=invariant):
                MeanVector(theta)


class TestConstraintSystem:
    def test_shape_and_rows(self):
        cs = constraint_system(B_HALF_3, THETA_REF)
        assert len(cs.matrix) == 2 * 3 + 1
        assert cs.n_vars == 8
        # level-2 row selects 110, 101, 011
        assert [j for j, a in enumerate(cs.matrix[2]) if a == 1] == [3, 5, 6]
        # mean row for coordinate 1 selects odd indices
        assert [j for j, a in enumerate(cs.matrix[4]) if a == 1] == [1, 3, 5, 7]
        assert cs.rhs[4] == Fraction(1, 4)

    def test_equivalent_to_homogeneous_form_d3(self):
        """The inhomogeneous system and the normalized homogeneous one agree."""
        cs = constraint_system(B_HALF_3, THETA_REF)
        members = [v.to_dense() for v in REF_JOINTS]
        rng = np.random.default_rng(83)
        lam = rng.dirichlet(np.ones(3), size=8)
        for w in lam:
            mix = [
                sum(Fraction(num, 10**6) * m.values[i] for num, m in zip((w * 10**6).astype(int), members))
                for i in range(8)
            ]
            total = sum(mix)
            mix = [v / total for v in mix]
            assert satisfies_homogeneous_system(mix, B_HALF_3.values, THETA_REF) == all(
                r == 0 for r in cs.residual(JointPmf(3, mix))
            )
        bad = JointPmf(3, [Fraction(1, 8)] * 8)  # uniform: right sums, wrong means
        assert not satisfies_homogeneous_system(bad.values, B_HALF_3.values, THETA_REF)
        assert any(r != 0 for r in cs.residual(bad))
        good = REF_JOINTS[0].to_dense()
        assert satisfies_homogeneous_system(good.values, B_HALF_3.values, THETA_REF)
        assert all(r == 0 for r in cs.residual(good))


class TestFeasiblePoint:
    def test_reference_case_feasible(self):
        w = feasible_point(B_HALF_3, THETA_REF)
        assert w is not None
        assert membership(w, B_HALF_3, 0)
        assert coordinate_means(w) == THETA_REF

    def test_counterexample_infeasible(self):
        assert feasible_point(P_CORNER, [0, Fraction(3, 10), Fraction(3, 10)]) is None

    def test_box_violation_implies_infeasible(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            p = exact_random_pmf(rng, 3, full_support=True)
            mu = p.mean()
            # Push one coordinate below p_d, repair the sum on the others.
            bad = p.values[3] / 2
            rest = (mu - bad) / 2
            if rest > 1:
                continue
            theta = [bad, rest, rest]
            assert theta[0] < p.values[-1]
            assert feasible_point(p, theta) is None

    def test_exchangeable_theta_feasible_up_to_d8(self):
        rng = np.random.default_rng(97)
        for d in range(1, 9):
            p = exact_random_pmf(rng, d)
            mu = p.mean()
            theta = [mu / d] * d
            w = feasible_point(p, theta)
            assert w is not None
            assert membership(w, p, 0)
            assert coordinate_means(w) == theta
            # the exchangeable pmf itself satisfies the system exactly
            cs = constraint_system(p, theta)
            assert all(r == 0 for r in cs.residual(exchangeable_pmf(p)))

    def test_exchangeable_theta_feasible_beyond_d12(self):
        rng = np.random.default_rng(97)
        for d in range(13, 17):
            p = exact_random_pmf(rng, d)
            theta = [p.mean() / d] * d
            w = feasible_point(p, theta)
            assert w is not None and w.exact
            assert exact_levels_and_means(d, w.atoms()) == (list(p.values), theta)

    def test_dimension_guard(self):
        # The witness is a dense carrier, so the dense guard applies.
        p = SumPmf([Fraction(1, 22)] * 22)
        with pytest.raises(ValueError, match="d <= 20"):
            feasible_point(p, [Fraction(1, 2)] * 21)


@st.composite
def joint_instances(draw):
    """A random exact joint pmf's (p, theta), and p pulled toward the law on
    {0, d} with the same mean.  That law's tail vector is exchangeable, so
    the pull shrinks the mean polytope and often leaves theta outside it."""
    d = draw(st.integers(min_value=1, max_value=6))
    atoms = draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(atoms), max_size=len(atoms)))
    pull = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    total = sum(weights)
    f = {idx: Fraction(w, total) for idx, w in zip(atoms, weights)}
    p = [sum((m for idx, m in f.items() if idx.bit_count() == k), Fraction(0)) for k in range(d + 1)]
    theta = [sum((m for idx, m in f.items() if idx >> j & 1), Fraction(0)) for j in range(d)]
    mu = sum(k * v for k, v in enumerate(p))
    spread = [Fraction(0)] * (d + 1)
    spread[0], spread[d] = 1 - mu / d, mu / d
    pulled = [(1 - pull) * a + pull * b for a, b in zip(p, spread)]
    return theta, p, pulled


@given(joint_instances())
@settings(max_examples=100, deadline=None)
def test_verdict_matches_exact_lp_and_witness_is_exact(instance):
    theta, *laws = instance
    d = len(theta)
    verdicts = []
    for pvals in laws:
        p = SumPmf(pvals)
        w = feasible_point(p, theta)
        verdicts.append(w is not None)
        assert verdicts[-1] == (_solve(p, MeanVector(theta)) is not None)
        if w is None:
            continue
        assert w.exact
        assert exact_levels_and_means(d, w.atoms()) == (pvals, theta)
        assert sum(1 for _ in w.atoms()) <= d * len(p.support) + 1
    assert verdicts[0]  # theta came from a member of the first fiber


class TestConstrainedVertices:
    def test_reference_vertices_exact(self):
        vertices = constrained_vertices(B_HALF_3, THETA_REF)
        assert len(vertices) == 3
        got = [atom_dict(v) for v in vertices]
        for want in REF_VERTICES:
            assert want in got
        for v in vertices:
            assert v.exact
            assert membership(v, B_HALF_3, 0)
            assert coordinate_means(v) == THETA_REF

    def test_symmetric_theta_against_exhaustive_oracle(self):
        theta = [Fraction(1, 2)] * 3
        got = {frozenset(atom_dict(v).items()) for v in constrained_vertices(B_HALF_3, theta)}
        want = brute_constrained_vertices(3, B_HALF_3.values, theta)
        assert got == want
        assert len(got) > 0

    def test_random_cases_against_oracle(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 5:
            p = exact_random_pmf(rng, 3, full_support=True)
            vertices = list(extremal_enumerate(p))
            weights = [Fraction(int(w), 64) for w in rng.multinomial(64, np.ones(9) / 9)]
            mix = [sum(w * v.to_dense().values[i] for w, v in zip(weights, vertices)) for i in range(8)]
            f = JointPmf(3, mix)
            theta = coordinate_means(f)
            got = {frozenset(atom_dict(v).items()) for v in constrained_vertices(p, theta)}
            want = brute_constrained_vertices(3, p.values, theta)
            assert got == want
            checked += 1

    def test_point_mass_single_vertex(self):
        p = SumPmf([0, 0, 0, 1])
        vs = constrained_vertices(p, [1, 1, 1])
        assert len(vs) == 1
        assert atom_dict(vs[0]) == {7: Fraction(1)}

    def test_infeasible_returns_empty(self):
        assert constrained_vertices(P_CORNER, [0, Fraction(3, 10), Fraction(3, 10)]) == []

    def test_dimension_guard(self):
        p = SumPmf([Fraction(1, 7)] * 7)
        with pytest.raises(ValueError, match="d <= 5"):
            constrained_vertices(p, [Fraction(1, 2)] * 6)

    def test_d4_against_exhaustive_oracle(self):
        # One generic d=4 instance: the basis walk must reproduce the full
        # C(16, rank) exhaustive scan.
        rng = np.random.default_rng(20250810)
        w = [int(x) for x in rng.integers(1, 9, size=5)]
        p = SumPmf([Fraction(x, sum(w)) for x in w])
        vertices = list(extremal_enumerate(p))
        weights = rng.multinomial(32, np.ones(len(vertices)) / len(vertices))
        mix = [
            sum(Fraction(int(wt), 32) * v.to_dense().values[i]
                for wt, v in zip(weights, vertices))
            for i in range(16)
        ]
        theta = coordinate_means(JointPmf(4, mix))
        got = {frozenset(atom_dict(v).items()) for v in constrained_vertices(p, theta)}
        want = brute_constrained_vertices(4, p.values, theta)
        assert len(got) == 144
        assert got == want

    def test_basis_budget_fails_fast_on_degenerate_d5(self):
        # The fully symmetric d=5 instance has combinatorially many feasible
        # bases; the budget turns an open-ended run into a clear error.  The
        # vertex count in it pins the breadth-first walk order.
        p = SumPmf([Fraction(math.comb(5, k), 32) for k in range(6)])
        with pytest.raises(BasisLimitError, match=r"max_bases=300 \(24 vertices found so far\)"):
            constrained_vertices(p, [Fraction(1, 2)] * 5, max_bases=300)

    @pytest.mark.parametrize("max_bases,found", [(50, 13), (1000, 68)])
    def test_basis_budget_pins_walk_order_symmetric_d5(self, max_bases, found):
        p = SumPmf([Fraction(math.comb(5, k), 32) for k in range(6)])
        with pytest.raises(BasisLimitError) as exc:
            constrained_vertices(p, [Fraction(1, 2)] * 5, max_bases=max_bases)
        assert str(exc.value) == (
            f"vertex enumeration exceeded max_bases={max_bases} ({found} vertices found "
            f"so far); degenerate instances can have combinatorially many feasible bases"
        )

    def test_basis_budget_pins_walk_order_generic_d5(self):
        # A generic d=5 slice: the means of a random joint pmf in 64ths.
        rng = np.random.default_rng(55)
        f = [Fraction(int(w), 64) for w in rng.multinomial(64, np.ones(32) / 32)]
        p = SumPmf([sum((m for i, m in enumerate(f) if i.bit_count() == k), Fraction(0))
                    for k in range(6)])
        theta = [sum((m for i, m in enumerate(f) if i >> j & 1), Fraction(0)) for j in range(5)]
        with pytest.raises(BasisLimitError, match=r"max_bases=3000 \(1861 vertices found so far\)"):
            constrained_vertices(p, theta, max_bases=3000)

    @pytest.mark.parametrize("max_bases", [0, -5])
    def test_basis_budget_below_one_refused(self, max_bases):
        with pytest.raises(ValueError, match=r"^max_bases must be >= 1$"):
            constrained_vertices(B_HALF_3, THETA_REF, max_bases=max_bases)
        with pytest.raises(ValueError, match=r"^max_bases must be >= 1$"):
            constrained_moment_bounds(B_HALF_3, THETA_REF, [1], max_bases=max_bases)

    def test_basis_budget_loose_enough_is_invisible(self):
        vs = constrained_vertices(B_HALF_3, THETA_REF, max_bases=1000)
        assert len(vs) == 3

    def test_d4_exchangeable_theta(self):
        p = SumPmf([Fraction(math.comb(4, k), 16) for k in range(5)])
        theta = [Fraction(1, 2)] * 4
        vs = constrained_vertices(p, theta)
        # Degenerate: many bases share a vertex, and the walk takes zero-step
        # swaps on negative pivot entries.  90 is the exhaustive oracle's count.
        assert len(vs) == 90
        assert len({v.values for v in vs}) == 90
        for v in vs:
            assert membership(v, p, 0)
            assert exact_levels_and_means(4, v.atoms()) == (list(p.values), theta)

    def test_theta_on_box_corner_forces_unique_point(self):
        # theta_i equal to p_d pins every coordinate: the only member puts
        # the level masses on the all-zeros and all-ones atoms.
        theta = [Fraction(1, 5)] * 3
        vs = constrained_vertices(P_CORNER, theta)
        assert len(vs) == 1
        assert atom_dict(vs[0]) == {0: Fraction(4, 5), 7: Fraction(1, 5)}
        assert {frozenset(atom_dict(v).items()) for v in vs} == brute_constrained_vertices(
            3, P_CORNER.values, theta
        )

    def test_degenerate_theta_entries_zero_and_one(self):
        # theta_1 = 1 forces coordinate 1 on, theta_3 = 0 forces coordinate 3
        # off; only the atoms 100 and 110 survive.
        p = SumPmf([0, Fraction(1, 2), Fraction(1, 2), 0])
        theta = [Fraction(1), Fraction(1, 2), Fraction(0)]
        vs = constrained_vertices(p, theta)
        assert len(vs) == 1
        assert atom_dict(vs[0]) == {1: Fraction(1, 2), 3: Fraction(1, 2)}
        assert {frozenset(atom_dict(v).items()) for v in vs} == brute_constrained_vertices(
            3, p.values, theta
        )
        w = feasible_point(p, theta)
        assert w is not None and coordinate_means(w) == theta

    def test_degenerate_theta_infeasible_detected_structurally(self):
        # Each elimination leaves a row with no live atom and a positive
        # right-hand side; phase 1 alone must prove it infeasible.
        cases = [
            # theta = (0, 1, 0) forces the single atom 010, which carries the
            # wrong level weight for a pmf supported on levels {0, 3}.
            (P_CORNER, [0, 1, 0]),
            # Level 2's only atom 11 has the bit that theta_1 = 0 forbids.
            (SumPmf([0, 0, 1]), [0, 1]),
            # theta_1 = 1 leaves the atom 01 alone, and it lacks coordinate 2.
            (SumPmf([0, 1, 0]), [1, Fraction(1, 2)]),
            # theta_1 = 0 kills level 2; level 1 alone cannot give theta_2 = 3/4.
            (SumPmf([0, Fraction(1, 2), Fraction(1, 2)]), [0, Fraction(3, 4)]),
        ]
        for p, theta in cases:
            assert _solve(p, MeanVector(theta)) is None
            assert constrained_vertices(p, theta) == []
            with pytest.raises(InfeasibleError):
                constrained_moment_bounds(p, theta, [1])
            assert feasible_point(p, theta) is None

    def test_randomized_stress_against_oracle(self):
        rng = np.random.default_rng(131)
        feasible_seen = 0
        for trial in range(14):
            p = exact_random_pmf(rng, 3)
            if trial % 2:
                # exchangeable means shifted between two coordinates: exact
                # total, feasibility left for the solver and oracle to decide
                base = p.mean() / 3
                delta = min(base, 1 - base, Fraction(1, 4)) * Fraction(int(rng.integers(0, 5)), 4)
                theta = [base + delta, base - delta, base]
            else:
                # means realized by a random mixture of vertices: feasible
                vertices = list(extremal_enumerate(p))
                weights = rng.multinomial(16, np.ones(len(vertices)) / len(vertices))
                mix = [
                    sum(Fraction(int(w), 16) * v.to_dense().values[i]
                        for w, v in zip(weights, vertices))
                    for i in range(8)
                ]
                theta = coordinate_means(JointPmf(3, mix))
            got = {frozenset(atom_dict(v).items()) for v in constrained_vertices(p, theta)}
            want = brute_constrained_vertices(3, p.values, theta)
            assert got == want
            feasible_seen += bool(got)
        assert feasible_seen >= 7


@st.composite
def sparse_joints_in_64ths(draw, max_d=4):
    """(d, p, theta, budget): the laws of a random joint pmf in 64ths, d <= max_d.

    Some coordinates are forced off or on and some atoms dropped before the
    64ths are dealt, so theta_i in {0, 1} and empty levels occur."""
    d = max_d - draw(st.integers(min_value=0, max_value=max_d - 1))  # d = max_d most often
    drop_rate = draw(st.sampled_from([0, 0.25, 0.5]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    forced = rng.choice([-1, 0, 1], p=[0.8, 0.1, 0.1], size=d)
    off = sum(1 << i for i, c in enumerate(forced) if c == 0)
    on = sum(1 << i for i, c in enumerate(forced) if c == 1)
    candidates = [idx for idx in range(1 << d) if not idx & off and idx & on == on]
    kept = [idx for idx in candidates if rng.random() >= drop_rate] or candidates[:1]
    weights = rng.multinomial(64, np.ones(len(kept)) / len(kept))
    f = {idx: Fraction(int(w), 64) for idx, w in zip(kept, weights)}
    p = [sum((m for idx, m in f.items() if idx.bit_count() == k), Fraction(0)) for k in range(d + 1)]
    theta = [sum((m for idx, m in f.items() if idx >> j & 1), Fraction(0)) for j in range(d)]
    return d, p, theta, draw(st.integers(min_value=1, max_value=40))


def _walk_or_limit(walk, limit_error):
    try:
        return walk()
    except limit_error as exc:
        return str(exc)


@given(sparse_joints_in_64ths())
# Phase 1's two ends: the level-1 row is the sum of the mean rows, so one
# row is dropped; and an artificial left basic at 0 is pivoted out.
@example((2, [Fraction(3, 7), Fraction(4, 7), Fraction(0)], [Fraction(2, 7), Fraction(2, 7)], 40))
@example((2, [Fraction(1, 3)] * 3, [Fraction(2, 3), Fraction(1, 3)], 40))
@settings(max_examples=100, deadline=None)
def test_walk_matches_fraction_reference(instance):
    # The integer tableau must reproduce the Fraction walk: the same vertices
    # in the same order with the same types, and the same budget error.  A
    # floor division that is not exact shows up as a mismatch.
    d, p, theta, budget = instance
    # The start basis and its tableau, read off the master, are the Fraction
    # phase 1's: the integer tableau is D times [R | scale * s].
    columns, (T, D, basis, scale) = _solve(SumPmf(p), MeanVector(theta))
    ref_columns, R, s, ref_basis = reference_phase1(d, p, theta)
    assert (columns, basis) == (ref_columns, ref_basis)
    assert [[Fraction(a, D) for a in t[:-1]] + [Fraction(t[-1], D * scale)] for t in T] == \
        [row + [v] for row, v in zip(R, s)]
    got = constrained_vertices(SumPmf(p), theta)
    assert {v.d for v in got} <= {d}
    assert repr([v.values for v in got]) == repr(reference_constrained_walk(d, p, theta))
    got = _walk_or_limit(lambda: [v.values for v in constrained_vertices(SumPmf(p), theta, budget)],
                         BasisLimitError)
    want = _walk_or_limit(lambda: reference_constrained_walk(d, p, theta, budget), ReferenceBasisLimit)
    assert repr(got) == repr(want)


class TestConstrainedMomentBounds:
    @pytest.mark.parametrize(
        "subset,want",
        [
            ([1], (Fraction(1, 4), Fraction(1, 4))),
            ([2], (Fraction(1, 2), Fraction(1, 2))),
            ([3], (Fraction(3, 4), Fraction(3, 4))),
            ([1, 2], (Fraction(1, 8), Fraction(1, 4))),
            ([1, 3], (Fraction(1, 8), Fraction(1, 4))),
            ([2, 3], (Fraction(3, 8), Fraction(1, 2))),
            ([1, 2, 3], (Fraction(1, 8), Fraction(1, 8))),
        ],
    )
    def test_reference_moment_bounds(self, subset, want):
        assert constrained_moment_bounds(B_HALF_3, THETA_REF, subset) == want

    @pytest.mark.parametrize(
        "subset,message",
        [([0], "out of range"), ([], "nonempty"), ([1.5], "coordinate must be an integer")],
    )
    def test_subset_checked_before_the_walk(self, subset, message):
        # The walk would stop at its second basis, so only a check made
        # before the walk can name the subset.
        p = SumPmf([Fraction(math.comb(5, k), 32) for k in range(6)])
        with pytest.raises(ValueError, match=message):
            constrained_moment_bounds(p, [Fraction(1, 2)] * 5, subset, max_bases=1)

    def test_subset_checked_before_feasibility(self):
        with pytest.raises(ValueError, match=r"coordinates \[4\] out of range for d=3"):
            constrained_moment_bounds(P_CORNER, [0, Fraction(3, 10), Fraction(3, 10)], [4])

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            constrained_moment_bounds(P_CORNER, [0, Fraction(3, 10), Fraction(3, 10)], [1, 2])

    def test_linearity_random_mixtures_stay_inside(self):
        vertices = constrained_vertices(B_HALF_3, THETA_REF)
        rng = np.random.default_rng(103)
        subsets = [[1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]
        bounds = {tuple(s): constrained_moment_bounds(B_HALF_3, THETA_REF, s) for s in subsets}
        dense = [v.array for v in vertices]
        for _ in range(500):
            lam = rng.dirichlet(np.ones(len(vertices)))
            mix = JointPmf(3, tuple(sum(w * a for w, a in zip(lam, dense))))
            for s in subsets:
                lo, hi = bounds[tuple(s)]
                m = cross_moment(mix, s)
                assert float(lo) - 1e-12 <= m <= float(hi) + 1e-12


@given(sparse_joints_in_64ths(max_d=6))
@settings(max_examples=100, deadline=None)
def test_lp_outputs_equal_the_checked_constructor(instance):
    # Vertices and witnesses skip JointPmf's validation; building them again
    # through __init__ must succeed and keep the same tuple, types included.
    d, p, theta, _ = instance
    outputs = [feasible_point(SumPmf(p), theta)]
    if d <= 4:
        outputs += constrained_vertices(SumPmf(p), theta)
    for f in outputs:
        checked = JointPmf(d, f.values)
        assert f.exact and checked.exact
        assert repr(checked.values) == repr(f.values)
        assert [type(v) for v in checked.values] == [type(v) for v in f.values]


def vertex_scan_bounds(p: SumPmf, theta, subset):
    """The bounds as min and max of cross_moment over every vertex."""
    moments = [cross_moment(v, subset) for v in constrained_vertices(p, theta)]
    if not moments:
        raise InfeasibleError("the mean-constrained fiber is empty")
    return min(moments), max(moments)


@st.composite
def bound_instances(draw):
    """(p, theta, subset), d <= 4: a member's laws, or p pulled toward the
    law on {0, d} with the same mean, which often leaves theta infeasible.
    Forced coordinates make some subsets unreachable or always held."""
    d, p, theta, _ = draw(sparse_joints_in_64ths())
    pull = draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1)]))
    mu = sum(k * v for k, v in enumerate(p))
    spread = [Fraction(0)] * (d + 1)
    spread[0], spread[d] = 1 - mu / d, mu / d
    p = [(1 - pull) * a + pull * b for a, b in zip(p, spread)]
    subset = draw(st.lists(st.integers(1, d), min_size=1, max_size=d, unique=True))
    return SumPmf(p), theta, subset


@given(bound_instances())
@settings(max_examples=150, deadline=None)
# Phase 1 leaves an artificial basic at 0 on a row that is redundant over
# the witness atoms but not over all atoms; were phase 2 to let it rise,
# the lower bound would read 13/64.
@example((SumPmf([Fraction(17, 64), 0, Fraction(35, 64), Fraction(3, 16)]),
          [Fraction(15, 32), Fraction(47, 64), Fraction(29, 64)], [1, 2]))
def test_bounds_equal_the_vertex_scan(instance):
    got = _walk_or_limit(lambda: constrained_moment_bounds(*instance), InfeasibleError)
    want = _walk_or_limit(lambda: vertex_scan_bounds(*instance), InfeasibleError)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("d", range(6, 11))
def test_bounds_match_scipy_linprog(d):
    # A float cross-check on the full 2^d-column LP, which the package
    # never builds; scipy is a test dependency only.
    from scipy.optimize import linprog

    rng = np.random.default_rng(700 + d)
    kept = rng.choice(1 << d, size=4 * d, replace=False)
    weights = rng.multinomial(1 << 10, np.ones(len(kept)) / len(kept))
    f = {int(i): Fraction(int(w), 1 << 10) for i, w in zip(kept, weights)}
    p = [sum((m for i, m in f.items() if i.bit_count() == k), Fraction(0)) for k in range(d + 1)]
    theta = [sum((m for i, m in f.items() if i >> j & 1), Fraction(0)) for j in range(d)]
    cols = range(1 << d)
    A = [[int(i.bit_count() == k) for i in cols] for k in range(d + 1)]
    A += [[i >> j & 1 for i in cols] for j in range(d)]
    b = [float(v) for v in p + theta]
    for subset in ([1, 2], sorted(int(j) + 1 for j in rng.choice(d, size=3, replace=False))):
        mask = sum(1 << (j - 1) for j in subset)
        c = np.array([float(i & mask == mask) for i in cols])
        lo, hi = constrained_moment_bounds(SumPmf(p), theta, subset)
        for sign, bound in ((1, lo), (-1, hi)):
            res = linprog(sign * c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
            assert res.status == 0
            assert abs(sign * res.fun - float(bound)) <= 1e-9


def test_symmetric_d5_slice_bounds_pinned():
    # Taken from one full vertex walk over the slice's 3,650 vertices.
    p = SumPmf([Fraction(math.comb(5, k), 32) for k in range(6)])
    got = constrained_moment_bounds(p, [Fraction(1, 2)] * 5, [1, 2])
    assert repr(got) == repr((Fraction(1, 32), Fraction(1, 2)))


def test_bounds_past_the_dense_guard():
    # d = 24 at b(1/2), theta a zero-sum perturbation of 1/2: the all-ones
    # atom is the only one at level d, and E[X1 X2] <= min(theta_1, theta_2).
    d = 24
    p = SumPmf([Fraction(math.comb(d, k), 1 << d) for k in range(d + 1)])
    theta = [Fraction(1, 2) + Fraction((-1) ** i, 64) for i in range(d)]
    assert constrained_moment_bounds(p, theta, [1, 2]) == (Fraction(1, 1 << d), Fraction(31, 64))
