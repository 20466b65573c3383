import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsum.feasibility import MeanVector
from bernsum.indexing import _popcounts
from bernsum.pmf import (PROB_TOL, JointPmf, SparseJointPmf, SumPmf, _fsum, _total, _validate_masses, as_number,
                         cross_moment, entropy, sum_map)
from bernsum.polytope import decompose, exchangeable_pmf, membership
from bernsum.sampling import sample_Fd_uniform, sample_polytope_uniform

from oracles import (fraction_as_number, fraction_total, fraction_validate_masses, naive_cross_moment,
                     naive_entropy, naive_sum_map)

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

    def test_numpy_integer_dimension_is_kept_as_an_int(self):
        dense = JointPmf(np.int64(2), [0.25] * 4)
        sparse = SparseJointPmf(np.int64(2), [(3, 1.0)])
        assert type(dense.d) is int and type(sparse.d) is int
        assert json.loads(json.dumps(dense.to_json_obj()))["d"] == 2
        assert json.loads(json.dumps(sparse.to_json_obj()))["d"] == 2
        for bad in (2.0, True):
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                JointPmf(bad, [0.25] * 4)

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


# Strings as_number parses on integers or hands to Fraction(str), and some
# that both refuse: signs, spaces, `_` separators, decimals, exponents.
MASS_TEXTS = ["3", "4/2", "3/0", "3/-4", "-3/4", "+3/4", " 3/4", "3/4 ", "3 /4", "0/7", "007/010",
              "1_000/4096", "1/4_096", "0.25", ".5", "1e-3", "2.5E1", "-0", "1/2/3", "/2", "1/", "",
              "x", "\u0661/\u0662", "\u00bd", "3/0_0"]


def mass_texts():
    return st.one_of(
        st.sampled_from(MASS_TEXTS),
        st.builds("{}/{}".format, st.integers(0, 10**20), st.integers(0, 10**6)),
        st.from_regex(r"[ ]?[-+]?[0-9_]{0,4}(/[-+]?[0-9_]{0,4}|\.[0-9]{0,3}([eE][-+]?[0-9])?)?[ ]?",
                      fullmatch=True),
        st.text(max_size=6),
    )


def outcome(fn, *args):
    """What fn returns, as (type, repr) of each value, or the message of the
    ValueError it raises."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    return [(type(v), repr(v)) for v in (out if isinstance(out, tuple) else (out,))]


@st.composite
def mass_lists(draw):
    """Masses k/den that sum to 1, or 1 off by one k: each a "k/den" text, a
    Fraction, an int where den divides k, a float, or a sign-flipped or
    zero-denominator text."""
    den = draw(st.integers(1, 5000))
    parts = draw(st.lists(st.integers(0, den), min_size=1, max_size=8))
    parts.append(den - sum(parts) + draw(st.sampled_from([0, 0, 1, -1])))
    forms = st.sampled_from(["text", "fraction", "int", "float", "negated", "zero_den"])
    out = []
    for k in parts:
        form = draw(forms)
        if form == "int" and k % den == 0:
            out.append(k // den)
        elif form == "fraction":
            out.append(Fraction(k, den))
        elif form == "float":
            out.append(k / den)
        elif form == "negated":
            out.append(f"-{k}/{den}")
        elif form == "zero_den" and draw(st.integers(0, 9)) == 0:
            out.append(f"{k}/0")
        else:
            out.append(f"{k}/{den}")
    return out


class TestExactMasses:
    """as_number parses a plain "num/den" on integers and _total sums exact
    masses over their common denominator; both must match the Fraction(str)
    and Fraction-addition path in value, type and error message."""

    @settings(max_examples=400, deadline=None)
    @given(text=mass_texts())
    def test_as_number_matches_fraction_parsing(self, text):
        assert outcome(as_number, text) == outcome(fraction_as_number, text)

    @settings(max_examples=300, deadline=None)
    @given(values=mass_lists())
    def test_validation_matches_fraction_arithmetic(self, values):
        want = outcome(fraction_validate_masses, values, "SumPmf")
        assert outcome(_validate_masses, values, "SumPmf") == want

    @settings(max_examples=300, deadline=None)
    @given(masses=st.lists(st.one_of(st.integers(-5, 5), st.fractions(max_denominator=50),
                                     st.sampled_from([0.0, 0.5, -0.0]), st.floats(-1e300, 1e300),
                                     st.sampled_from([math.nan, math.inf, -math.inf])), max_size=8))
    def test_total_keeps_value_and_type(self, masses):
        # An all-int list still sums to an int, and a Fraction to a Fraction
        # even when it is integral; a nonzero float makes the sum a float.
        assert outcome(_total, masses) == outcome(fraction_total, masses)
        assert outcome(_total, (k * m for k, m in enumerate(masses))) == \
            outcome(fraction_total, [k * m for k, m in enumerate(masses)])

    def test_mean_keeps_its_type(self):
        assert type(SumPmf([0, 1]).mean()) is int
        mean = SumPmf([0, "2/2"]).mean()
        assert mean == 1 and type(mean) is Fraction


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
        # +0.0, not -0.0, on every float carrier.
        for pmf in (SumPmf([1.0, 0.0]), JointPmf(1, [1.0, 0.0]), SparseJointPmf(1, [(0, 1.0)])):
            assert math.copysign(1.0, entropy(pmf)) == 1.0

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

    @pytest.mark.parametrize("build, message", [
        (lambda: SumPmf([1]), "SumPmf needs at least d+1 = 2 entries"),
        (lambda: SumPmf.from_json_obj({"values": [0.5, 0.5]}), "SumPmf JSON form is an array of numbers"),
        (lambda: JointPmf.from_json_obj([0.5, 0.5]), 'JointPmf JSON form is {"d": ..., "values": [...]}'),
        (lambda: JointPmf.from_json_obj({"values": [0.5, 0.5]}), 'JointPmf JSON form is {"d": ..., "values": [...]}'),
        (lambda: SparseJointPmf.from_json_obj({"d": 1, "values": [0.5, 0.5]}),
         'SparseJointPmf JSON form is {"d": ..., "atoms": [[i, m], ...]}'),
        (lambda: SparseJointPmf.from_json_obj([[0, 1]]), 'SparseJointPmf JSON form is {"d": ..., "atoms": [[i, m], ...]}'),
    ])
    def test_malformed_forms_are_named(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_joint_is_never_equal_to_another_type(self):
        assert (UNIFORM_3 == "x") is False
        assert (UNIFORM_3 != "x") is True

    def test_sparse_round_trip(self):
        obj = REF_VERTEX.to_json_obj()
        back = SparseJointPmf.from_json_obj(json.loads(json.dumps(obj)))
        assert back == REF_VERTEX
        assert back.exact

    def test_sparse_dense_round_trip(self):
        dense = REF_VERTEX.to_dense()
        assert dense.values[4] == Fraction(3, 8)
        assert SparseJointPmf(dense.d, dense.atoms()) == REF_VERTEX


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

    @pytest.mark.parametrize("values", [[0.5, 0.5, 0.5, -0.5], [0.5, 0.25, 0.25, 0.25], [0.5, 0.5],
                                        [0.25, 0.25, 0.25, 0.25 + 2e-12]])
    def test_a_fresh_array_meets_the_public_checks(self, values):
        with pytest.raises(ValueError) as public:
            JointPmf(2, np.array(values))
        with pytest.raises(ValueError) as fresh:
            JointPmf._from_fresh(2, np.array(values))
        assert str(fresh.value) == str(public.value)

    def test_builders_hand_their_arrays_over(self):
        # exchangeable_pmf and the two uniform samplers build an array for the
        # carrier and keep no other reference: it is made read-only, not
        # copied, so a d = 20 build of the first two holds one 8 MB array at
        # its peak, not two (the block sampler also holds its largest block).
        p = SumPmf([math.comb(20, k) / 2**20 for k in range(21)])
        f = sample_polytope_uniform(SumPmf([0.25, 0.5, 0.25]), np.random.default_rng(5))
        assert not f.values.flags.writeable and f.values.flags.owndata
        _popcounts(20)
        for build in (lambda: exchangeable_pmf(p), lambda: sample_Fd_uniform(20, np.random.default_rng(5))):
            tracemalloc.start()
            try:
                f = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not f.values.flags.writeable and f.values.flags.owndata
            assert 8 << 20 <= peak < 10 << 20

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

    def test_float_zero_beside_exact_masses_stays_exact(self):
        # SumPmf.exact's rule: only the nonzero masses decide, and a float
        # zero is stored as int 0; an exact zero keeps its type.
        f = JointPmf(1, [0.0, Fraction(1)])
        assert f.exact
        assert repr(f.values) == repr((0, Fraction(1, 1)))
        assert sum_map(f).exact
        g = JointPmf(2, [-0.0, Fraction(0), Fraction(1, 2), "1/2"])
        assert [type(v) for v in g.values] == [int, Fraction, Fraction, Fraction]
        assert not JointPmf(1, [0.0, 1.0]).exact
        assert isinstance(JointPmf(1, [0.0, 1.0]).values, np.ndarray)

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
        assert SparseJointPmf(f.d, f.atoms()).to_dense() == f
        assert math.isclose(entropy(f), naive_entropy(f.values), rel_tol=1e-13)
        assert cross_moment(f, [2, 5]) == math.fsum(
            v for i, v in enumerate(f.values.tolist()) if i & 0b10010 == 0b10010
        )


def bits(values) -> list[tuple[type, str]]:
    """Each value's type and bits."""
    return [(type(v), float(v).hex()) for v in values]


@st.composite
def float_sparse_pmfs(draw):
    """A float SparseJointPmf at d <= 10 with up to 24 atoms, and a
    nonempty coordinate subset."""
    d = draw(st.integers(1, 10))
    idx = draw(st.lists(st.integers(0, (1 << d) - 1), min_size=1, max_size=24, unique=True))
    raw = draw(st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=len(idx), max_size=len(idx)))
    total = math.fsum(raw)
    subset = draw(st.sets(st.integers(1, d), min_size=1))
    return SparseJointPmf(d, [(i, w / total) for i, w in zip(idx, raw)]), subset


class TestFloatSparseReads:
    @settings(max_examples=200, deadline=None)
    @given(case=float_sparse_pmfs())
    def test_reads_match_the_dense_carrier(self, case):
        f, subset = case
        dense = f.to_dense()
        assert not f.exact and not dense.exact
        p = sum_map(f)
        assert bits(p.values) == bits(sum_map(dense).values)
        assert bits([cross_moment(f, subset)]) == bits([cross_moment(dense, subset)])
        uniform = SumPmf([1 / (f.d + 1)] * (f.d + 1))
        assert membership(f, p) is membership(dense, p) is True
        assert membership(f, uniform) is membership(dense, uniform)
        assert [bits(b) for b in decompose(f, p)] == [bits(b) for b in decompose(dense, p)]
        # np.log and math.log may differ by an ulp.
        assert math.isclose(entropy(f), entropy(dense), rel_tol=1e-15, abs_tol=0.0)


def same_fsum(a: np.ndarray) -> None:
    """_fsum(a) is math.fsum(a.tolist()) to the bit, the sign of zero included,
    or raises the exception type fsum raises."""
    try:
        want = math.fsum(a.tolist())
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            _fsum(a)
        return
    got = _fsum(a)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes() or (math.isnan(got) and math.isnan(want))


# Exponents from the subnormals to 1e308; a half-ulp tie after a base, on
# either side of it by a much smaller term, or exact; a list and its
# negation, which cancel to 0.
any_floats = st.floats(min_value=-1e308, max_value=1e308)
moderate_floats = st.floats(min_value=-2.0**900, max_value=2.0**900)


@st.composite
def ties(draw):
    base = draw(st.floats(min_value=2.0**-1000, max_value=2.0**900))
    half = math.ulp(base) / 2
    nudge = draw(st.sampled_from([0.0, 1.0, -1.0])) * half * 2.0**-40
    sign = draw(st.sampled_from([1.0, -1.0]))
    terms = [sign * base, sign * half] + ([sign * nudge] if nudge else [])
    return draw(st.permutations(terms)) + draw(st.lists(st.just(0.0), max_size=3))


@st.composite
def cancellations(draw):
    half = draw(st.lists(moderate_floats, max_size=40))
    return draw(st.permutations(half + [-x for x in half] + draw(st.lists(st.just(-0.0), max_size=3))))


class TestFsum:
    @settings(max_examples=500, deadline=None)
    @given(values=st.one_of(st.lists(any_floats, max_size=300), st.lists(moderate_floats, max_size=300),
                            ties(), cancellations(), st.lists(st.just(-0.0), max_size=5),
                            st.lists(st.floats(), max_size=20)))
    def test_matches_math_fsum(self, values):
        same_fsum(np.array(values, dtype=float))

    @pytest.mark.parametrize("values", [
        [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324], [-5e-324, 5e-324], [1.0, -1.0],
        [1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [1.0, 2.0**-53, 2.0**-100], [1.0, 2.0**-53, -2.0**-100],
        [math.inf], [-math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0], [math.inf, math.nan],
        [1e308, 1e308, -1e308], [1e308, 1e308], [-1e308, -1e308], [1.7e308, 1e292], [2.0**996, -2.0**996],
        [2.0**995, 2.0**995, -2.0**995],
    ])
    def test_edge_cases(self, values):
        same_fsum(np.array(values, dtype=float))

    @pytest.mark.parametrize("n", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 << 16])
    def test_across_blocks(self, n):
        rng = np.random.default_rng(n)
        wide = rng.standard_normal(n) * np.exp2(rng.integers(-1074, 990, n).astype(float))
        same_fsum(wide)
        same_fsum(rng.dirichlet(np.ones(n)))
        same_fsum(np.concatenate([wide, -wide[::-1]]))
        same_fsum(np.full(n, -0.0))


def tolerance_edges() -> dict[str, float]:
    """The extreme float totals that the check 1 - PROB_TOL <= total <= 1 + PROB_TOL accepts."""
    hi = 1.0 + PROB_TOL
    while hi - 1.0 > PROB_TOL:
        hi = math.nextafter(hi, 0.0)
    while math.nextafter(hi, 2.0) - 1.0 <= PROB_TOL:
        hi = math.nextafter(hi, 2.0)
    lo = 1.0 - PROB_TOL
    while 1.0 - lo > PROB_TOL:
        lo = math.nextafter(lo, 2.0)
    while 1.0 - math.nextafter(lo, 0.0) <= PROB_TOL:
        lo = math.nextafter(lo, 0.0)
    return {"hi": hi, "above_hi": math.nextafter(hi, 2.0), "below_hi": math.nextafter(hi, 0.0),
            "lo": lo, "below_lo": math.nextafter(lo, 0.0), "above_lo": math.nextafter(lo, 2.0),
            "one": 1.0, "far_above": 1.1, "far_below": 0.9}


def masses_summing_to(total: float, d: int, drift: float) -> np.ndarray:
    """2^d masses whose fsum is `total`: two masses x near total / 2, at 0
    and 1, each with 15 masses of drift * ulp(x) at 8 apart after it.  In
    numpy's pairwise sum of a block of 128 those are added to x in turn, so a
    drift of 0.25 rounds each one away and 0.75 rounds each up to a whole
    ulp: the block sum is off by 4 ulps of total, and no mass exceeds 1."""
    arr = np.zeros(1 << d)
    small = drift * math.ulp(total / 2)
    arr[:2] = total / 2 - 15 * small
    arr[8:128:8] = arr[9:128:8] = small
    assert math.fsum(arr.tolist()) == total
    return arr


class TestNormalizationBoundary:
    """JointPmf accepts and refuses a float array as `|fsum - 1| <= PROB_TOL` does."""

    @pytest.mark.parametrize("d", [7, 12])
    @pytest.mark.parametrize("drift", [0.0, 0.25, 0.75])
    @pytest.mark.parametrize("name", sorted(tolerance_edges()))
    def test_decided_on_the_exact_total(self, name, drift, d):
        total = tolerance_edges()[name]
        arr = masses_summing_to(total, d, drift) if drift else np.eye(1, 1 << d, 5)[0] * total
        if abs(total - 1.0) <= PROB_TOL:
            assert JointPmf(d, arr).values.tobytes() == arr.tobytes()
        else:
            with pytest.raises(ValueError) as info:
                JointPmf(d, arr)
            assert str(info.value) == f"JointPmf violates normalization: sum {total!r} != 1"

    def test_edges_are_one_ulp_apart(self):
        edges = tolerance_edges()
        assert edges["hi"] - 1.0 <= PROB_TOL < edges["above_hi"] - 1.0
        assert 1.0 - edges["lo"] <= PROB_TOL < 1.0 - edges["below_lo"]

    @pytest.mark.parametrize("values, message", [
        ([math.nan, 0.0], "sum nan != 1"),
        ([0.5, math.nan], "sum nan != 1"),
        ([math.inf, 0.0], "sum inf != 1"),
        ([0.0, 0.0], "sum 0.0 != 1"),
        ([2.0, 0.0], "sum 2.0 != 1"),
        ([1e308, 1e308], "intermediate overflow in fsum"),
        ([1e308, 1e308, 1e308, 1e308], "intermediate overflow in fsum"),
    ])
    def test_non_finite_and_huge_masses(self, values, message):
        d = len(values).bit_length() - 1
        error = OverflowError if "overflow" in message else ValueError
        with pytest.raises(error) as info:
            JointPmf(d, np.array(values))
        assert str(info.value).endswith(message)

    def test_huge_masses_in_large_blocks(self):
        arr = np.zeros(1 << 12)
        arr[::1024] = 1e308
        with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
            JointPmf(12, arr)
