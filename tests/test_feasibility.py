import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsum.feasibility import (
    BasisLimitError,
    InfeasibleError,
    MeanVector,
    constrained_moment_bounds,
    constrained_vertices,
    feasible_point,
    necessary_conditions,
    _solve,
)
from bernsum.pmf import JointPmf, SparseJointPmf, SumPmf, cross_moment
from bernsum.polytope import exchangeable_pmf, extremal_enumerate, membership

from oracles import (
    brute_constrained_vertices,
    constraint_system,
    exact_levels_and_means,
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
    def test_reference_theta_passes(self):
        nc = necessary_conditions(B_HALF_3, THETA_REF)
        assert nc.mean_ok and nc.box_ok and bool(nc)

    def test_counterexample_fails_box_only(self):
        nc = necessary_conditions(P_CORNER, [0, Fraction(3, 10), Fraction(3, 10)])
        assert nc.mean_ok
        assert not nc.box_ok
        assert not bool(nc)

    def test_exchangeable_theta_always_passes(self):
        rng = np.random.default_rng(79)
        for d in (1, 2, 4, 6):
            p = exact_random_pmf(rng, d)
            mu = p.mean()
            nc = necessary_conditions(p, [mu / d] * d)
            assert nc.mean_ok and nc.box_ok

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            necessary_conditions(B_HALF_3, [Fraction(1, 2)] * 4)

    def test_theta_range_guard(self):
        with pytest.raises(ValueError, match="\\[0,1\\]"):
            MeanVector([0.5, 1.2, 0.5])


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
            assert not necessary_conditions(p, theta).box_ok
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
        # theta = (0, 1, 0) forces the single atom 010, which carries the
        # wrong level weight for a pmf supported on levels {0, 3}.
        assert feasible_point(P_CORNER, [0, 1, 0]) is None
        assert constrained_vertices(P_CORNER, [0, 1, 0]) == []

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
