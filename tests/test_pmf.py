import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsum.feasibility import MeanVector
from bernsum.pmf import JointPmf, SparseJointPmf, SumPmf, cross_moment, entropy, sum_map
from bernsum.polytope import exchangeable_pmf

from oracles import naive_cross_moment, naive_entropy, naive_sum_map

B_HALF_3 = SumPmf([0.125, 0.375, 0.375, 0.125])
UNIFORM_3 = JointPmf(3, [0.125] * 8)

# A known mean-constrained vertex: atoms 000, 110, 001, 011, 111 in eighths.
REF_VERTEX = SparseJointPmf(
    3,
    [(0, Fraction(1, 8)), (3, Fraction(1, 8)), (4, Fraction(3, 8)),
     (6, Fraction(2, 8)), (7, Fraction(1, 8))],
)


def random_joint(rng: np.random.Generator, d: int) -> JointPmf:
    raw = rng.gamma(1.0, size=1 << d)
    return JointPmf(d, tuple(raw / raw.sum()))


class TestValidation:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="nonnegativity"):
            SumPmf([0.5, 0.6, -0.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            SumPmf([0.5, 0.4])
        with pytest.raises(ValueError, match="normalization"):
            JointPmf(1, [0.5, 0.500001])
        # Every comparison with NaN is false; the normalization test must
        # still refuse a NaN mass.
        for build in (
            lambda: SumPmf([math.nan, 1.0]),
            lambda: JointPmf(1, [math.nan, 1.0]),
            lambda: JointPmf(1, np.array([math.nan, 1.0])),
            lambda: SparseJointPmf(1, [(0, math.nan), (1, 1.0)]),
        ):
            with pytest.raises(ValueError, match="normalization"):
                build()

    def test_numpy_integers_are_ints(self):
        for values in (np.array([0, 1]), [np.int64(0), np.uint8(1)], np.array([1, 0, 0], dtype=np.int32)):
            p = SumPmf(values)
            assert p.exact and all(type(v) is int for v in p.values)
        assert SumPmf(np.array([0, 1])) == SumPmf([0, 1])
        theta = MeanVector(np.array([0, 1, 1]))
        assert theta.values == (Fraction(0), Fraction(1), Fraction(1))

    def test_bools_are_refused(self):
        for bad in (True, np.bool_(True), np.array([True, False])[0]):
            with pytest.raises(ValueError, match="not a probability value"):
                SumPmf([bad, 0])
            with pytest.raises(ValueError, match="not a probability value"):
                MeanVector([bad])

    def test_integer_arguments_are_not_truncated(self):
        for bad in (1.5, True):
            with pytest.raises(ValueError, match="atom index must be an integer"):
                SparseJointPmf(2, [(bad, 1.0)])
            with pytest.raises(ValueError, match="coordinate must be an integer"):
                cross_moment(SparseJointPmf(2, [(1, 1.0)]), [bad])
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                JointPmf.from_json_obj({"d": bad, "values": [0.5, 0.5]})
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                SparseJointPmf.from_json_obj({"d": bad, "atoms": [[0, 1]]})
        f = SparseJointPmf(2, [(np.int64(3), 1.0)])
        assert f.atoms == ((3, 1.0),) and type(f.atoms[0][0]) is int
        assert cross_moment(f, [np.int64(2)]) == 1.0

    def test_exact_sum_must_be_exact(self):
        with pytest.raises(ValueError):
            SumPmf([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**15)])
        SumPmf([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)])

    def test_float_tolerance(self):
        SumPmf([0.3, 0.7 + 5e-13])

    def test_joint_length_guard(self):
        with pytest.raises(ValueError, match="2\\^d"):
            JointPmf(2, [1.0, 0.0])
        with pytest.raises(ValueError, match="d <= 20"):
            JointPmf(21, [0.0] * (1 << 21))

    def test_sparse_guards(self):
        with pytest.raises(ValueError, match="positive"):
            SparseJointPmf(2, [(1, 0.0), (2, 1.0)])
        # A stream's later vertices skip the mass checks, never the index checks.
        for build in (SparseJointPmf, SparseJointPmf._with_validated_masses):
            with pytest.raises(ValueError, match="duplicate"):
                build(2, [(1, 0.5), (1, 0.5)])
            with pytest.raises(ValueError, match="duplicate atom index 1"):
                build(2, [(3, 0.25), (1, 0.5), (1, 0.25)])
            with pytest.raises(ValueError, match="out of range"):
                build(2, [(4, 1.0)])
            with pytest.raises(ValueError, match="atom index -1 out of range"):
                build(2, [(0, 0.5), (-1, 0.5)])

    def test_float_zero_leaves_the_mean_exact(self):
        mean = SumPmf([0.0, "1/2", "1/2"]).mean()
        assert isinstance(mean, Fraction) and mean == Fraction(3, 2)

    def test_float_zero_leaves_the_pmf_exact(self):
        # .exact reads the nonzero masses only, as _total does, so such a p
        # takes the exact path everywhere.
        p = SumPmf([0.0, "1/2", "1/2"])
        assert p.exact
        f = exchangeable_pmf(p)
        assert f.exact
        assert f.values == (0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        assert not SumPmf([0.0, "1/2", 0.5]).exact

    @settings(max_examples=300, deadline=None)
    @given(masses=st.data())
    def test_carriers_agree_on_mixed_masses(self, masses):
        # The same masses, float zeros among them, are accepted or refused
        # alike whether they are a sum law, a dense joint or a sparse joint.
        m = masses.draw(mixed_masses())
        outcomes = []
        for build in (
            lambda: SumPmf(m),
            lambda: JointPmf(2, m),
            lambda: SparseJointPmf(2, [(i, v) for i, v in enumerate(m) if v]),
        ):
            try:
                build()
                outcomes.append("accepted")
            except ValueError as exc:
                outcomes.append(str(exc).split(" violates ")[-1])
        assert len(set(outcomes)) == 1, (m, outcomes)

    def test_support_cached(self):
        p = SumPmf([0, 0.8, 0.2, 0])
        assert p.support == (1, 2)
        assert p.d == 3


@st.composite
def mixed_masses(draw):
    """Four nonnegative masses whose exact sum is 1, or 1 off by 1e-15, 1e-13
    or 1e-11; each mass, zero or not, is kept exact or turned to a float."""
    parts = draw(st.lists(st.integers(0, 6), min_size=4, max_size=4).filter(any))
    masses = [Fraction(a, sum(parts)) for a in parts]
    masses[parts.index(max(parts))] += draw(st.sampled_from(
        [0, Fraction(-1, 10**15), Fraction(1, 10**13), Fraction(1, 10**11)]))
    floats = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    return [float(v) if f else v for v, f in zip(masses, floats)]


class TestSumMap:
    def test_point_mass_at_top(self):
        f = SparseJointPmf(3, [(7, 1)])
        assert sum_map(f).values == (0, 0, 0, 1)

    def test_uniform_cube(self):
        assert sum_map(UNIFORM_3).values == (0.125, 0.375, 0.375, 0.125)

    def test_known_vertex_maps_to_symmetric_binomial(self):
        assert sum_map(REF_VERTEX).values == (Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8))

    def test_matches_oracle_on_random_pmfs(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 4, 6):
            for _ in range(25):
                f = random_joint(rng, d)
                got = sum_map(f)
                want = naive_sum_map(d, f.values)
                assert np.allclose(got.array, want, atol=1e-12)
                assert math.isclose(math.fsum(float(v) for v in got.values), 1.0, abs_tol=1e-12)


class TestCrossMoment:
    def test_point_mass(self):
        f = SparseJointPmf(3, [(7, 1)])
        assert cross_moment(f, [1, 2]) == 1

    def test_known_vertex_pair_moment(self):
        assert cross_moment(REF_VERTEX, [1, 2]) == Fraction(1, 4)

    def test_uniform_pair(self):
        assert cross_moment(UNIFORM_3, [1, 2]) == 0.25

    def test_exact_carrier_with_no_matching_atom_gives_float_zero(self):
        for f in (SparseJointPmf(2, [(0, 1)]), JointPmf(2, [1, 0, 0, 0])):
            got = cross_moment(f, [1])
            assert got == 0 and isinstance(got, float)

    def test_requires_valid_subset(self):
        with pytest.raises(ValueError, match="nonempty"):
            cross_moment(UNIFORM_3, [])
        with pytest.raises(ValueError, match="out of range"):
            cross_moment(UNIFORM_3, [4])

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 6):
            for _ in range(20):
                f = random_joint(rng, d)
                subset = sorted(rng.choice(range(1, d + 1), size=rng.integers(1, d + 1), replace=False))
                got = cross_moment(f, subset)
                want = naive_cross_moment(d, f.values, subset)
                assert math.isclose(got, want, abs_tol=1e-12)


class TestEntropy:
    def test_point_mass(self):
        assert entropy(SparseJointPmf(3, [(5, 1)])) == 0.0
        assert entropy(SumPmf([1, 0, 0])) == 0.0

    def test_uniform_cube(self):
        for d in (1, 3, 5):
            f = JointPmf(d, [1.0 / (1 << d)] * (1 << d))
            assert math.isclose(entropy(f), d * math.log(2), rel_tol=1e-14)

    def test_symmetric_binomial_d2(self):
        # -sum p ln p = 1.5 ln 2 for (1/4, 1/2, 1/4)
        h = entropy(SumPmf([0.25, 0.5, 0.25]))
        assert math.isclose(h, 1.0397207708399179, rel_tol=1e-14)
        assert math.isclose(h, naive_entropy([0.25, 0.5, 0.25]), rel_tol=1e-14)

    def test_range(self):
        rng = np.random.default_rng(13)
        for d in (1, 2, 5):
            for _ in range(20):
                f = random_joint(rng, d)
                h = entropy(f)
                assert 0.0 <= h <= math.log(1 << d) + 1e-12


class TestJson:
    def test_sum_pmf_round_trip(self):
        p = SumPmf([Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)])
        obj = p.to_json_obj()
        assert obj == ["1/8", "3/8", "3/8", "1/8"]
        assert SumPmf.from_json_obj(json.loads(json.dumps(obj))) == p

    def test_joint_round_trip(self):
        f = JointPmf(2, [0.25, 0.25, 0.25, 0.25])
        assert JointPmf.from_json_obj(json.loads(json.dumps(f.to_json_obj()))) == f

    def test_sparse_round_trip(self):
        obj = REF_VERTEX.to_json_obj()
        back = SparseJointPmf.from_json_obj(json.loads(json.dumps(obj)))
        assert back == REF_VERTEX
        assert back.exact

    def test_sparse_dense_round_trip(self):
        dense = REF_VERTEX.to_dense()
        assert dense.values[4] == Fraction(3, 8)
        assert dense.to_sparse() == REF_VERTEX


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=70),
)
@settings(max_examples=100, deadline=None)
def test_sum_map_is_pmf(d, raw):
    size = 1 << d
    weights = (raw * ((size // len(raw)) + 1))[:size]
    total = math.fsum(weights)
    f = JointPmf(d, tuple(w / total for w in weights))
    p = sum_map(f)
    assert all(v >= 0 for v in p.values)
    assert math.isclose(math.fsum(float(v) for v in p.values), 1.0, abs_tol=1e-12)


class TestFloatCarrier:
    def test_values_are_a_read_only_array(self):
        f = random_joint(np.random.default_rng(17), 4)
        assert isinstance(f.values, np.ndarray) and f.values.dtype == np.float64
        assert f.array is f.values
        assert not f.exact
        with pytest.raises(ValueError, match="read-only"):
            f.values[0] = 1.0

    def test_input_array_is_copied(self):
        raw = np.full(8, 0.125)
        f = JointPmf(3, raw)
        raw[0] = 0.5
        assert f.values[0] == 0.125
        assert raw.flags.writeable

    def test_equal_and_hash_like_a_copy(self):
        f = random_joint(np.random.default_rng(19), 5)
        g = JointPmf(5, f.values.tolist())
        assert f == g and hash(f) == hash(g)
        assert f != JointPmf(5, [1.0 / 32] * 32)
        nudged = f.values.copy()
        nudged[0] = np.nextafter(nudged[0], 1.0)
        assert f != JointPmf(5, nudged)
        assert f != JointPmf(4, [1.0 / 16] * 16)
        # Exact and float carriers with the same masses compare and hash equal.
        assert UNIFORM_3 == JointPmf(3, [Fraction(1, 8)] * 8)
        assert hash(UNIFORM_3) == hash(JointPmf(3, [Fraction(1, 8)] * 8))

    def test_json_round_trip(self):
        f = random_joint(np.random.default_rng(23), 6)
        text = json.dumps(f.to_json_obj())
        back = JointPmf.from_json_obj(json.loads(text))
        assert back == f
        assert back.values.tobytes() == f.values.tobytes()
        assert json.dumps(back.to_json_obj()) == text

    def test_mixed_int_float_input_is_float(self):
        f = JointPmf(2, [0, 0.25, 0, 0.75])
        assert not f.exact
        assert isinstance(f.values, np.ndarray)
        assert f.values.tolist() == [0.0, 0.25, 0.0, 0.75]
        g = JointPmf(1, [Fraction(1, 3), 2 / 3])
        assert not g.exact and g.values.tolist() == [1 / 3, 2 / 3]

    def test_exact_input_stays_exact(self):
        f = JointPmf(2, [Fraction(1, 4), 0, Fraction(1, 2), Fraction(1, 4)])
        assert f.exact
        assert f.values == (Fraction(1, 4), 0, Fraction(1, 2), Fraction(1, 4))
        assert JointPmf(1, [0, 1]).values == (0, 1)
        assert JointPmf.from_json_obj({"d": 1, "values": ["1/3", "2/3"]}).exact

    def test_validation_matches_the_exact_rule(self):
        with pytest.raises(ValueError, match="nonnegativity"):
            JointPmf(1, np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="normalization"):
            JointPmf(1, np.array([0.5, 0.5 + 2e-12]))
        JointPmf(1, np.array([0.5, 0.5 + 5e-13]))
        with pytest.raises(ValueError, match="not a probability value"):
            JointPmf(1, [True, 0.0])

    def test_reads_match_the_oracles(self):
        f = random_joint(np.random.default_rng(29), 7)
        assert sorted(m for _, m in f.atoms()) == sorted(f.positive_masses())
        assert f.to_sparse().to_dense() == f
        assert math.isclose(entropy(f), naive_entropy(f.values), rel_tol=1e-13)
        assert cross_moment(f, [2, 5]) == math.fsum(
            v for i, v in enumerate(f.values.tolist()) if i & 0b10010 == 0b10010
        )
