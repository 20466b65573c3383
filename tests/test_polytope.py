import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bernsum.pmf import JointPmf, SparseJointPmf, SumPmf, cross_moment, entropy, sum_map
from bernsum.polytope import (
    ExtremalIndex,
    LabelMap,
    convex_min_pmf,
    decompose,
    describe,
    entropy_bounds,
    exchangeable_pmf,
    extremal_by_index,
    extremal_enumerate,
    extremal_indices,
    flat_weights,
    generalized_extremals,
    membership,
    moment_bounds,
)

from oracles import brute_vertices, brute_vertices_labeled

B_HALF_3 = SumPmf([Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)])


def exact_random_pmf(rng: np.random.Generator, d: int, full_support=False) -> SumPmf:
    lo = 1 if full_support else 0
    while True:
        weights = [int(w) for w in rng.integers(lo, 20, size=d + 1)]
        total = sum(weights)
        if total > 0:
            return SumPmf([Fraction(w, total) for w in weights])


def as_atom_set(sparse: SparseJointPmf) -> frozenset:
    return frozenset(sparse.atoms)


class TestDescribe:
    def test_full_support_d3(self):
        desc = describe(B_HALF_3)
        assert desc.vertex_count == 9
        assert desc.block_dims == (0, 2, 2, 0)
        assert desc.support == (0, 1, 2, 3)
        assert desc.intrinsic_dim == 4

    def test_point_mass(self):
        p = SumPmf([0, 0, 1, 0, 0])
        assert describe(p).vertex_count == math.comb(4, 2)
        assert describe(SumPmf([1, 0])).vertex_count == 1

    def test_full_support_d4_against_oracle(self):
        p = SumPmf([Fraction(1, 16), Fraction(4, 16), Fraction(6, 16), Fraction(4, 16), Fraction(1, 16)])
        desc = describe(p)
        assert desc.vertex_count == 96
        assert desc.intrinsic_dim == (1 << 4) - 4 - 1
        assert len(brute_vertices(4, p.values)) == 96

    def test_big_dimension_count_is_exact_integer(self):
        p = SumPmf([Fraction(1, 21)] * 21)  # d = 20, full support
        assert describe(p).vertex_count == math.prod(math.comb(20, k) for k in range(21))


class TestExtremalByIndex:
    def test_first_vertex_pattern(self):
        v = extremal_by_index(B_HALF_3, ExtremalIndex((1, 1, 1, 1)))
        assert as_atom_set(v) == frozenset(
            {(0, Fraction(1, 8)), (1, Fraction(3, 8)), (3, Fraction(3, 8)), (7, Fraction(1, 8))}
        )

    def test_partial_support_column(self):
        p = SumPmf([0, 0.8, 0.2, 0])
        v = extremal_by_index(p, ExtremalIndex((1, 1, 1, 1)))
        assert as_atom_set(v) == frozenset({(1, 0.8), (3, 0.2)})

    def test_sum_map_is_forced(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            p = exact_random_pmf(rng, d)
            sizes = [math.comb(d, k) for k in range(d + 1)]
            sigma = tuple(
                int(rng.integers(1, sizes[k] + 1)) if p.values[k] > 0 else 1 for k in range(d + 1)
            )
            v = extremal_by_index(p, ExtremalIndex(sigma))
            assert sum_map(v).values == p.values
            assert len(v.atoms) == len(p.support)

    def test_out_of_range_sigma(self):
        with pytest.raises(ValueError, match="out of range"):
            extremal_by_index(B_HALF_3, ExtremalIndex((1, 4, 1, 1)))
        with pytest.raises(ValueError, match="unsupported"):
            extremal_by_index(SumPmf([0, 0.8, 0.2, 0]), ExtremalIndex((2, 1, 1, 1)))


    def test_sigma_entries_must_be_integers(self):
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="sigma entry must be an integer"):
                extremal_by_index(B_HALF_3, [1, bad, 1, 1])
        assert ExtremalIndex(np.array([1, 2, 3, 1])).sigma == (1, 2, 3, 1)


class TestEnumerate:
    def test_colex_order_d3(self):
        sigmas = [ix.sigma for ix in extremal_indices(B_HALF_3)]
        expected = [(1, s1, s2, 1) for s2 in (1, 2, 3) for s1 in (1, 2, 3)]
        assert sigmas == expected

    def test_full_support_vertex_set_d3(self):
        got = {as_atom_set(v) for v in extremal_enumerate(B_HALF_3)}
        want = brute_vertices(3, B_HALF_3.values)
        assert got == want
        assert len(got) == 9

    def test_oracle_agreement_d4(self):
        rng = np.random.default_rng(17)
        p = exact_random_pmf(rng, 4, full_support=True)
        got = {as_atom_set(v) for v in extremal_enumerate(p)}
        assert got == brute_vertices(4, p.values)
        assert len(got) == 96

    @pytest.mark.parametrize("gaps", [False, True])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_stream_matches_validated_unranked_vertices(self, d, gaps):
        # Past the first vertex the stream neither unranks nor re-checks the
        # masses; each vertex must still be the one extremal_by_index unranks
        # for its sigma and builds through the validating constructor.
        weights = [0 if gaps and k % 3 == 1 else k + 1 for k in range(d + 1)]
        p = SumPmf([Fraction(w, sum(weights)) for w in weights])
        count = 0
        for v, sigma in zip(extremal_enumerate(p), extremal_indices(p), strict=True):
            assert v == extremal_by_index(p, sigma)
            count += 1
        assert count == describe(p).vertex_count

    def test_offset_resumes_the_stream(self):
        p = SumPmf([Fraction(1, 10), 0, Fraction(3, 10), Fraction(2, 5), 0, Fraction(1, 5)])
        vertices = list(extremal_enumerate(p))
        sigmas = list(extremal_indices(p))
        n = len(vertices)
        for offset in (0, 1, 9, 10, 37, n - 1, n, n + 5):
            assert list(extremal_enumerate(p, offset)) == vertices[offset:]
            assert list(extremal_indices(p, offset)) == sigmas[offset:]
        for stream in (extremal_enumerate, extremal_indices):
            with pytest.raises(ValueError, match="offset must be >= 0"):
                next(iter(stream(p, -1)))

    def test_offset_must_be_an_integer(self):
        for stream in (extremal_enumerate, extremal_indices):
            for bad in (1.5, True):
                with pytest.raises(ValueError, match="offset must be an integer"):
                    next(iter(stream(B_HALF_3, bad)))
        assert list(extremal_indices(B_HALF_3, np.int64(8))) == [ExtremalIndex((1, 3, 3, 1))]

    def test_point_mass_single_vertex(self):
        p = SumPmf([0, 0, 0, 1])
        vertices = list(extremal_enumerate(p))
        assert len(vertices) == 1
        assert vertices[0].atoms == ((7, 1),)

    def test_stream_length_matches_count(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 5, 6):
            p = exact_random_pmf(rng, d)
            desc = describe(p)
            if desc.vertex_count > 100_000:
                continue
            assert sum(1 for _ in extremal_enumerate(p)) == desc.vertex_count

    def test_exact_sum_map_and_atom_budget(self):
        rng = np.random.default_rng(29)
        p = exact_random_pmf(rng, 4)
        for v in extremal_enumerate(p):
            assert sum_map(v).values == p.values
            assert len(v.atoms) <= len(p.support)

    def test_sparse_stream_beyond_dense_guard(self):
        # Vertices have at most d+1 atoms, so streaming works far past the
        # dense 2^d carrier limit.
        d = 40
        p = SumPmf([Fraction(1, d + 1)] * (d + 1))
        stream = extremal_enumerate(p)
        for v, sigma in zip(itertools.islice(stream, 5), extremal_indices(p)):
            assert v.d == d
            assert len(v.atoms) == d + 1
            assert sum_map(v).values == p.values
            assert cross_moment(v, list(range(1, d + 1))) == Fraction(1, d + 1)
        with pytest.raises(ValueError, match="d <= 20"):
            next(iter(extremal_enumerate(p))).to_dense()


class TestMembership:
    def test_uniform_is_member(self):
        uniform = JointPmf(3, [0.125] * 8)
        assert membership(uniform, SumPmf([0.125, 0.375, 0.375, 0.125]), 1e-12)

    def test_point_mass_is_not(self):
        pm = SparseJointPmf(3, [(0, 1)]).to_dense()
        assert not membership(pm, B_HALF_3, 1e-12)

    def test_reference_vertex_exact(self):
        r2 = SparseJointPmf(
            3,
            [(0, Fraction(1, 8)), (2, Fraction(1, 8)), (4, Fraction(2, 8)),
             (5, Fraction(1, 8)), (6, Fraction(2, 8)), (7, Fraction(1, 8))],
        )
        assert membership(r2, B_HALF_3, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            membership(JointPmf(2, [0.25] * 4), B_HALF_3)


class TestDecompose:
    def test_vertex_gives_indicator(self):
        v = extremal_by_index(B_HALF_3, ExtremalIndex((1, 2, 3, 1))).to_dense()
        blocks = decompose(v, B_HALF_3)
        assert blocks[0] == (Fraction(1),)
        assert blocks[1] == (0, Fraction(1), 0)
        assert blocks[2] == (0, 0, Fraction(1))
        assert blocks[3] == (Fraction(1),)

    def test_exchangeable_gives_uniform_blocks(self):
        f = exchangeable_pmf(B_HALF_3)
        blocks = decompose(f, B_HALF_3)
        assert blocks[1] == (Fraction(1, 3),) * 3
        assert blocks[2] == (Fraction(1, 3),) * 3

    def test_uniform_cube_reconstruction(self):
        f = JointPmf(3, [0.125] * 8)
        p = SumPmf([0.125, 0.375, 0.375, 0.125])
        blocks = decompose(f, p)
        assert np.allclose(blocks[1], [1 / 3] * 3)
        assert np.allclose(blocks[2], [1 / 3] * 3)
        lams = flat_weights(p, blocks)
        rebuilt = np.zeros(8)
        for lam, vertex in zip(lams, extremal_enumerate(p)):
            for idx, mass in vertex.atoms:
                rebuilt[idx] += float(lam) * float(mass)
        assert np.max(np.abs(rebuilt - f.array)) < 1e-12

    def test_random_convex_combination_round_trip(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 5):
            p = exact_random_pmf(rng, d, full_support=True)
            vertices = list(extremal_enumerate(p))
            lam = rng.dirichlet(np.ones(len(vertices)))
            dense = np.zeros(1 << d)
            for weight, vertex in zip(lam, vertices):
                for idx, mass in vertex.atoms:
                    dense[idx] += weight * float(mass)
            f = JointPmf(d, tuple(dense))
            assert membership(f, p, 1e-9)
            blocks = decompose(f, p)
            for k in p.support:
                assert math.isclose(math.fsum(float(w) for w in blocks[k]), 1.0, abs_tol=1e-9)
            lams = flat_weights(p, blocks)
            rebuilt = np.zeros(1 << d)
            for weight, vertex in zip(lams, extremal_enumerate(p)):
                for idx, mass in vertex.atoms:
                    rebuilt[idx] += float(weight) * float(mass)
            assert np.max(np.abs(rebuilt - dense)) < 1e-12

    def test_membership_required(self):
        with pytest.raises(ValueError, match="membership"):
            decompose(JointPmf(3, [1.0] + [0.0] * 7), B_HALF_3)

    def test_flat_weights_guard(self):
        p = SumPmf([Fraction(1, 11)] * 11)  # d = 10: far beyond the flat limit
        with pytest.raises(ValueError, match="flat weights"):
            flat_weights(p, [()] * 11)


class TestExchangeable:
    def test_uniform_sum_law(self):
        d = 4
        p = SumPmf([Fraction(1, d + 1)] * (d + 1))
        f = exchangeable_pmf(p)
        for k in range(d + 1):
            for i in range(1 << d):
                if bin(i).count("1") == k:
                    assert f.values[i] == Fraction(1, (d + 1) * math.comb(d, k))

    def test_symmetric_binomial_gives_uniform_cube(self):
        f = exchangeable_pmf(B_HALF_3)
        assert all(v == Fraction(1, 8) for v in f.values)

    def test_point_mass_at_top(self):
        f = exchangeable_pmf(SumPmf([0, 0, 0, 1]))
        assert f.values[7] == 1
        assert sum_map(f).values == (0, 0, 0, 1)


class TestMomentBounds:
    def test_top_order_bounds_coincide(self):
        rng = np.random.default_rng(37)
        p = exact_random_pmf(rng, 4)
        assert moment_bounds(p, 4) == (p.values[4], p.values[4])

    def test_symmetric_binomial_values(self):
        assert moment_bounds(B_HALF_3, 1) == (Fraction(1, 8), Fraction(7, 8))
        assert moment_bounds(B_HALF_3, 2) == (Fraction(1, 8), Fraction(1, 2))

    def test_order_guard(self):
        with pytest.raises(ValueError, match="order"):
            moment_bounds(B_HALF_3, 0)
        with pytest.raises(ValueError, match="order"):
            moment_bounds(B_HALF_3, 4)

    def test_sharpness_by_vertex_scan(self):
        rng = np.random.default_rng(41)
        for d in (2, 3, 4):
            p = exact_random_pmf(rng, d, full_support=True)
            vertices = list(extremal_enumerate(p))
            for k in range(1, d + 1):
                lo, hi = moment_bounds(p, k)
                for subset in itertools.combinations(range(1, d + 1), k):
                    moments = [cross_moment(v, subset) for v in vertices]
                    assert abs(float(min(moments) - lo)) <= 1e-12
                    assert abs(float(max(moments) - hi)) <= 1e-12


class TestEntropyBounds:
    def test_point_mass(self):
        assert entropy_bounds(SumPmf([1, 0, 0, 0])) == (0.0, 0.0)
        assert entropy_bounds(SumPmf([0, 0, 0, 1])) == (0.0, 0.0)

    def test_symmetric_binomial_max_is_uniform_cube(self):
        lo, hi = entropy_bounds(B_HALF_3)
        assert math.isclose(hi, 3 * math.log(2), rel_tol=1e-14)
        assert math.isclose(lo, entropy(B_HALF_3), rel_tol=1e-14)

    def test_min_attained_at_every_vertex(self):
        for v in extremal_enumerate(B_HALF_3):
            assert abs(entropy(v) - entropy(B_HALF_3)) <= 1e-12

    def test_max_equals_exchangeable_entropy(self):
        rng = np.random.default_rng(43)
        for d in (2, 3, 5):
            p = exact_random_pmf(rng, d)
            _, hi = entropy_bounds(p)
            assert math.isclose(hi, entropy(exchangeable_pmf(p)), rel_tol=0, abs_tol=1e-12)

    def test_interior_points_sandwiched(self):
        rng = np.random.default_rng(47)
        p = exact_random_pmf(rng, 3, full_support=True)
        vertices = list(extremal_enumerate(p))
        lo, hi = entropy_bounds(p)
        for _ in range(100):
            lam = rng.dirichlet(np.ones(len(vertices)))
            dense = np.zeros(8)
            for weight, vertex in zip(lam, vertices):
                for idx, mass in vertex.atoms:
                    dense[idx] += weight * float(mass)
            h = entropy(JointPmf(3, tuple(dense)))
            assert lo - 1e-12 <= h <= hi + 1e-12


class TestGeneralizedExtremals:
    def test_popcount_map_reproduces_enumeration(self):
        rng = np.random.default_rng(53)
        for d in (2, 3, 4):
            p = exact_random_pmf(rng, d)
            h = LabelMap.popcount(d)
            got = [as_atom_set(v) for v in generalized_extremals(h, p)]
            want = [as_atom_set(v) for v in extremal_enumerate(p)]
            assert got == want

    def test_relabeling_d2(self):
        h = LabelMap(2, (0, 1, 2, 1))
        p = SumPmf([0.2, 0.5, 0.3])
        got = [as_atom_set(v) for v in generalized_extremals(h, p)]
        assert got == [
            frozenset({(0, 0.2), (1, 0.5), (2, 0.3)}),
            frozenset({(0, 0.2), (3, 0.5), (2, 0.3)}),
        ]
        labeled = brute_vertices_labeled((0, 1, 2, 1), (Fraction(1, 5), Fraction(1, 2), Fraction(3, 10)))
        assert len(labeled) == 2

    def test_labels_must_be_integers(self):
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="label must be an integer"):
                LabelMap(1, [0, bad])

    def test_non_surjective_rejected(self):
        with pytest.raises(ValueError, match="surjective"):
            LabelMap(2, (0, 1, 1, 1))

    def test_vertex_count_product_of_fibers(self):
        h = LabelMap(3, (0, 1, 1, 2, 1, 2, 3, 2))
        p = SumPmf([Fraction(1, 4)] * 4)
        count = sum(1 for _ in generalized_extremals(h, p))
        assert count == 1 * 3 * 3 * 1


class TestConvexMinPmf:
    def test_fractional_mean(self):
        p = convex_min_pmf(3, 1.2)
        assert p.values[1] == pytest.approx(0.8)
        assert p.values[2] == pytest.approx(0.2)
        assert p.values[0] == 0 and p.values[3] == 0

    def test_exact_mode(self):
        p = convex_min_pmf(3, Fraction(6, 5))
        assert p.values == (0, Fraction(4, 5), Fraction(1, 5), 0)
        assert p.mean() == Fraction(6, 5)

    def test_integral_mean_degenerates(self):
        assert convex_min_pmf(3, 2).values == (0, 0, 1, 0)
        assert convex_min_pmf(3, 2.0).values == (0, 0, 1, 0)
        assert convex_min_pmf(4, 0).values == (1, 0, 0, 0, 0)

    def test_upper_half(self):
        p = convex_min_pmf(5, 3.25)
        assert p.values[3] == pytest.approx(0.75)
        assert p.values[4] == pytest.approx(0.25)
        assert math.isclose(p.mean(), 3.25, abs_tol=1e-12)

    def test_mean_out_of_range(self):
        with pytest.raises(ValueError, match="mean"):
            convex_min_pmf(3, 3.5)
        with pytest.raises(ValueError, match="mean"):
            convex_min_pmf(3, -0.1)

    def test_vertices_of_its_fiber_match_reference_masses(self):
        p = convex_min_pmf(3, Fraction(6, 5))
        vertices = list(extremal_enumerate(p))
        assert len(vertices) == 9
        for v in vertices:
            masses = sorted(m for _, m in v.atoms)
            assert masses == [Fraction(1, 5), Fraction(4, 5)]
