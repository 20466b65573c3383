import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsum.pmf import JointPmf, SparseJointPmf, SumPmf, cross_moment, entropy, sum_map
from bernsum import polytope
from bernsum.polytope import (
    FLAT_WEIGHTS_MAX,
    convex_min_pmf,
    decompose,
    describe,
    entropy_bounds,
    exchangeable_pmf,
    extremal_by_index,
    extremal_enumerate,
    extremal_indices,
    flat_weights,
    membership,
    moment_bounds,
)

from oracles import brute_vertices, colex_vertices, label_walk_flat_weights, level_slices

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
        v = extremal_by_index(B_HALF_3, (1, 1, 1, 1))
        assert as_atom_set(v) == frozenset(
            {(0, Fraction(1, 8)), (1, Fraction(3, 8)), (3, Fraction(3, 8)), (7, Fraction(1, 8))}
        )

    def test_partial_support_column(self):
        p = SumPmf([0, 0.8, 0.2, 0])
        v = extremal_by_index(p, (1, 1, 1, 1))
        assert as_atom_set(v) == frozenset({(1, 0.8), (3, 0.2)})

    def test_sum_map_is_forced(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            p = exact_random_pmf(rng, d)
            sizes = [math.comb(d, k) for k in range(d + 1)]
            sigma = tuple(
                int(rng.integers(1, sizes[k] + 1)) if p.values[k] > 0 else 1 for k in range(d + 1)
            )
            v = extremal_by_index(p, sigma)
            assert sum_map(v).values == p.values
            assert len(v.atoms) == len(p.support)

    def test_sigma_length_is_named(self):
        with pytest.raises(ValueError, match=r"^sigma needs d\+1 = 4 entries, got 3$"):
            extremal_by_index(B_HALF_3, (1, 1, 1))

    def test_out_of_range_sigma(self):
        with pytest.raises(ValueError, match="out of range"):
            extremal_by_index(B_HALF_3, (1, 4, 1, 1))
        with pytest.raises(ValueError, match="unsupported"):
            extremal_by_index(SumPmf([0, 0.8, 0.2, 0]), (2, 1, 1, 1))


    def test_sigma_entries_must_be_integers(self):
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="sigma entry must be an integer"):
                extremal_by_index(B_HALF_3, [1, bad, 1, 1])
        assert extremal_by_index(B_HALF_3, np.array([1, 2, 3, 1])) == extremal_by_index(B_HALF_3, (1, 2, 3, 1))

    def test_labels_are_int_tuples_it_accepts(self):
        p10 = SumPmf([Fraction(k + 1, 66) for k in range(11)])
        for p, offset in ((B_HALF_3, 0), (B_HALF_3, 8), (p10, 0), (p10, 123_456)):
            labels = list(itertools.islice(extremal_indices(p, offset), 20))
            assert labels
            for label, vertex in zip(labels, extremal_enumerate(p, offset)):
                assert type(label) is tuple and len(label) == p.d + 1
                assert {type(s) for s in label} == {int}
                assert extremal_by_index(p, label) == vertex
                assert extremal_by_index(p, np.array(label)) == vertex


class TestEnumerate:
    def test_colex_order_d3(self):
        sigmas = [ix for ix in extremal_indices(B_HALF_3)]
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
        assert list(extremal_indices(B_HALF_3, np.int64(8))) == [(1, 3, 3, 1)]

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


def run_length(p: SumPmf) -> int:
    """C(d, f) for the lowest supported level f with more than one element,
    else 1: the vertices the first level to move passes before a carry."""
    return next((math.comb(p.d, k) for k in p.support if math.comb(p.d, k) > 1), 1)


def assert_window_in_colex_order(p: SumPmf, offset: int, limit: int) -> None:
    want = list(itertools.islice(colex_vertices(p.values), offset, offset + limit))
    assert [ix for ix in itertools.islice(extremal_indices(p, offset), limit)] == [s for s, _ in want]
    assert [v.atoms for v in itertools.islice(extremal_enumerate(p, offset), limit)] == [a for _, a in want]


@st.composite
def stream_windows(draw):
    """A sum law at d <= 7 with at most 20,000 vertices, exact or float, with
    empty levels, sometimes level 1 empty (so a higher level moves fastest)
    or only levels 0 and d supported (one vertex); and an offset/limit window
    from the start, mid-run, across the ends of runs, or at the end."""
    d = draw(st.integers(1, 7))
    weights = draw(st.lists(st.integers(0, 3), min_size=d + 1, max_size=d + 1))
    shape = draw(st.sampled_from(["any", "level_1_empty", "ends_only"]))
    if shape == "level_1_empty":
        weights[1] = 0
    elif shape == "ends_only":
        weights = [w if k in (0, d) else 0 for k, w in enumerate(weights)]
    if not any(weights):
        weights[draw(st.sampled_from([0, d]))] = 1
    while math.prod(math.comb(d, k) for k, w in enumerate(weights) if w) > 20_000:
        weights[max((k for k, w in enumerate(weights) if w), key=lambda k: math.comb(d, k))] = 0
    total = sum(weights)
    exact = draw(st.booleans())
    p = SumPmf([Fraction(w, total) if exact else w / total for w in weights])
    count, run = describe(p).vertex_count, run_length(p)
    offset = draw(st.integers(0, count + 1) | st.sampled_from([count - 1, count])
                  | st.builds(lambda j, back: max(j * run - back, 0), st.integers(0, count // run),
                              st.integers(0, 3)))
    return p, offset, draw(st.integers(0, 2 * run + 3))


class TestColexOrder:
    """extremal_indices and extremal_enumerate against colex_vertices, which
    lists every vertex by itertools.product over the level slices."""

    @settings(max_examples=200, deadline=None)
    @given(window=stream_windows())
    def test_windows_match_the_product_order(self, window):
        assert_window_in_colex_order(*window)

    @pytest.mark.parametrize("values", [
        [Fraction(1, 3), 0, 0, 0, 0, Fraction(2, 3)],  # one vertex, no level moves
        [0, 0, 1],  # a point mass at level d
        [1.0, 0.0, 0.0],  # a float point mass at level 0
        [Fraction(1, 10), 0, Fraction(3, 10), Fraction(2, 5), 0, Fraction(1, 5)],  # level 2 moves fastest
        [w / 10 for w in (1, 0, 2, 3, 0, 4)],  # level 2 moves fastest, float
        [Fraction(k + 1, 21) for k in range(6)],  # full support, runs of 5
    ])
    def test_runs_start_mid_run_and_cross_carries(self, values):
        p = SumPmf(values)
        count, run = describe(p).vertex_count, run_length(p)
        for offset in sorted({0, 1, run // 2, run - 1, run, 2 * run - 1, count - 1, count}):
            assert_window_in_colex_order(p, offset, 2 * run + 3)


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
        v = extremal_by_index(B_HALF_3, (1, 2, 3, 1)).to_dense()
        blocks = decompose(v, B_HALF_3)
        assert blocks[0] == (Fraction(1),)
        assert blocks[1] == (0, Fraction(1), 0)
        assert blocks[2] == (0, 0, Fraction(1))
        assert blocks[3] == (Fraction(1),)

    def test_sparse_vertex_gives_one_hot_blocks(self):
        # The stream's own carrier decomposes as its dense form does.
        for sigma in ((1, 2, 3, 1), (1, 1, 1, 1), (1, 3, 2, 1)):
            v = extremal_by_index(B_HALF_3, sigma)
            want = [tuple(Fraction(int(j == s - 1)) for j in range(math.comb(3, k))) for k, s in enumerate(sigma)]
            assert decompose(v, B_HALF_3) == want == decompose(v.to_dense(), B_HALF_3)

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


@st.composite
def fiber_members(draw):
    """A sum law at d <= 6 with at most FLAT_WEIGHTS_MAX vertices, exact or
    float, and a member of its fiber, exact or float: each supported level's
    mass spread over its slice by drawn integer weights, some of them 0."""
    d = draw(st.integers(1, 6))
    weights = draw(st.lists(st.integers(0, 3), min_size=d + 1, max_size=d + 1))
    if not any(weights):
        weights[draw(st.sampled_from([0, d]))] = 1
    while math.prod(math.comb(d, k) for k, w in enumerate(weights) if w) > FLAT_WEIGHTS_MAX:
        weights[max((k for k, w in enumerate(weights) if w), key=lambda k: math.comb(d, k))] = 0
    total = sum(weights)
    p_exact, f_exact = draw(st.booleans()), draw(st.booleans())
    p = SumPmf([Fraction(w, total) if p_exact else w / total for w in weights])
    values = [0] * (1 << d)
    for k in p.support:
        size = math.comb(d, k)
        spread = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any))
        for i, n in zip(level_slices(d)[k], spread):
            mass = Fraction(weights[k] * n, total * sum(spread))
            values[i] = mass if f_exact else float(mass)
    return p, JointPmf(d, values)


class TestFlatWeights:
    @settings(max_examples=150, deadline=None)
    @given(member=fiber_members())
    def test_matches_the_label_walk(self, member):
        p, f = member
        blocks = decompose(f, p)
        got, want = flat_weights(p, blocks), label_walk_flat_weights(p.values, blocks)
        assert [type(w) for w in got] == [type(w) for w in want]
        assert [repr(w) for w in got] == [repr(w) for w in want]

    def test_built_from_the_blocks_alone(self, monkeypatch):
        for name in ("extremal_indices", "describe"):
            monkeypatch.setattr(polytope, name, None)
        p = SumPmf([Fraction(k + 1, 21) for k in range(6)])
        lams = flat_weights(p, decompose(exchangeable_pmf(p), p))
        assert lams == [Fraction(1, 2500)] * 2500

    def test_refuses_malformed_blocks(self):
        p = SumPmf(["1/4", "1/2", "1/4"])
        with pytest.raises(ValueError, match=r"d\+1 = 3 blocks, got 2"):
            flat_weights(p, [(1,), (Fraction(1, 2),) * 2])
        for bad, k in (([(1,), (1, 2, 3), (1,)], 1), ([(1,), (1,), (1,)], 1), ([(1,), (1, 0), ()], 2)):
            with pytest.raises(ValueError, match=f"block {k} needs C\\(2, {k}\\)"):
                flat_weights(p, bad)
        # An unsupported level's block is never read.
        assert flat_weights(SumPmf([0.5, 0.5, 0.0]), [(1.0,), (0.5, 0.5), ()]) == [0.5, 0.5]

    def test_labels_are_not_rechecked(self, monkeypatch):
        whats = []
        real = polytope._as_int
        monkeypatch.setattr(polytope, "_as_int", lambda v, what: whats.append(what) or real(v, what))
        labels = list(extremal_indices(B_HALF_3, np.int64(2)))
        assert whats == ["offset"]
        assert labels == [s for s, _ in itertools.islice(colex_vertices(B_HALF_3.values), 2, None)]
        assert {type(s) for ix in labels for s in ix} == {int}


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

    def test_order_meets_the_integer_rule(self):
        assert moment_bounds(B_HALF_3, np.int64(2)) == moment_bounds(B_HALF_3, 2)
        for bad in (True, 1.0, 1.5):
            with pytest.raises(ValueError, match="moment order must be an integer"):
                moment_bounds(B_HALF_3, bad)

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

    @pytest.mark.parametrize("mu", [True, np.True_])
    def test_bool_mean_refused(self, mu):
        with pytest.raises(ValueError, match=f"^mean must be a number, got {mu!r}$"):
            convex_min_pmf(3, mu)

    def test_vertices_of_its_fiber_match_reference_masses(self):
        p = convex_min_pmf(3, Fraction(6, 5))
        vertices = list(extremal_enumerate(p))
        assert len(vertices) == 9
        for v in vertices:
            masses = sorted(m for _, m in v.atoms)
            assert masses == [Fraction(1, 5), Fraction(4, 5)]
