import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernsum.binomial import (
    bin_vs_mode,
    binomial_pmf,
    curve_argmax,
    curve_log_measure,
    poisson_binomial_pmf,
)
from bernsum.cli import main
from bernsum.measure import _blocks, density_l, dist_sup, maximal_pmf, polytope_measure
from bernsum.pmf import SumPmf
from bernsum.polytope import describe

from oracles import binomial_curve_log_measure, reference_curve_log_measure


def _same_bits(got, want) -> bool:
    """A curve LogMeasure against the reference's float (None for zero), every bit counted."""
    return (None if got.is_zero else got.log_value.hex()) == (None if want is None else want.hex())


class TestBinomialPmf:
    def test_degenerate_endpoints(self):
        assert binomial_pmf(0.0, 3).values == (1.0, 0.0, 0.0, 0.0)
        assert binomial_pmf(1.0, 3).values == (0.0, 0.0, 0.0, 1.0)
        assert binomial_pmf(Fraction(0), 3).values == (1, 0, 0, 0)

    def test_symmetric_d3(self):
        assert binomial_pmf(0.5, 3).values == (0.125, 0.375, 0.375, 0.125)
        assert binomial_pmf(Fraction(1, 2), 3).values == (
            Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8),
        )

    def test_vertex_count_full_support(self):
        assert describe(binomial_pmf(Fraction(1, 2), 3)).vertex_count == 9

    def test_mean(self):
        for theta in (0.1, 0.37, 0.92):
            for d in (2, 5, 9):
                p = binomial_pmf(theta, d)
                assert math.isclose(p.mean(), d * theta, rel_tol=1e-12)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            binomial_pmf(1.5, 3)

    @pytest.mark.parametrize("theta", [True, np.True_, False])
    def test_bool_theta_refused(self, theta):
        # A bool is no probability, as for the masses of a pmf.
        with pytest.raises(ValueError, match=f"^theta must be a number, got {theta!r}$"):
            binomial_pmf(theta, 3)

    def test_dimension_meets_the_integer_rule(self):
        p = binomial_pmf(0.5, np.int64(3))
        assert p == binomial_pmf(0.5, 3)
        assert all(type(v) is float for v in p.values)
        for bad in (True, 2.0, -1, 0):
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                binomial_pmf(0.5, bad)
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                curve_log_measure(0.5, bad)


class TestPoissonBinomial:
    def test_iid_reduces_to_binomial(self):
        assert poisson_binomial_pmf([0.5, 0.5, 0.5]).values == binomial_pmf(0.5, 3).values

    @pytest.mark.parametrize("bad", [True, np.True_])
    def test_bool_probability_refused(self, bad):
        with pytest.raises(ValueError, match=f"^a trial probability must be a number, got {bad!r}$"):
            poisson_binomial_pmf([bad, 0.5])

    def test_iid_reduction_random(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            d = int(rng.integers(1, 12))
            theta = float(rng.uniform(0.02, 0.98))
            got = poisson_binomial_pmf([theta] * d)
            want = binomial_pmf(theta, d)
            assert np.max(np.abs(got.array - want.array)) < 1e-14

    def test_all_ones_is_point_mass(self):
        assert poisson_binomial_pmf([1, 1, 1, 1]).values[-1] == 1

    def test_reference_convolution(self):
        got = poisson_binomial_pmf([Fraction(1, 4), Fraction(2, 4), Fraction(3, 4)])
        assert got.values == (Fraction(3, 32), Fraction(13, 32), Fraction(13, 32), Fraction(3, 32))
        assert got.mean() == Fraction(3, 2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            d = int(rng.integers(2, 10))
            theta = rng.uniform(0.0, 1.0, size=d)
            a = poisson_binomial_pmf(list(theta)).array
            b = poisson_binomial_pmf(list(rng.permutation(theta))).array
            assert np.max(np.abs(a - b)) < 1e-14

    def test_input_guards(self):
        with pytest.raises(ValueError):
            poisson_binomial_pmf([])
        with pytest.raises(ValueError):
            poisson_binomial_pmf([0.5, 1.3])


class TestCurveMeasure:
    def test_matches_measure_module_at_half(self):
        m = curve_log_measure(0.5, 3)
        assert math.isclose(m.value, 0.01483154296875, rel_tol=1e-12)
        direct = polytope_measure(binomial_pmf(0.5, 3))["ambient"]
        assert m.log == direct.log

    def test_identity_on_grid(self):
        for d in (2, 4, 7):
            for j in range(101):
                theta = j / 100
                a = curve_log_measure(theta, d)
                b = polytope_measure(binomial_pmf(theta, d))["ambient"]
                if a.is_zero:
                    assert b.is_zero
                else:
                    assert math.isclose(a.log, b.log, rel_tol=0, abs_tol=1e-12)

    def test_endpoints_vanish(self):
        assert curve_log_measure(0.0, 2).is_zero
        assert curve_log_measure(1.0, 5).is_zero

    def test_symmetry(self):
        for d in (2, 3, 6):
            for theta in np.linspace(0.02, 0.49, 20):
                a = curve_log_measure(float(theta), d).log
                b = curve_log_measure(float(1 - theta), d).log
                assert math.isclose(a, b, rel_tol=0, abs_tol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 300),
           theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    # b(theta)'s float masses underflow to 0 (d = 200 at theta = 0.01) or to
    # subnormals (d = 3 near 1e-158, d = 30 near 1e-21 through theta^15).
    @example(d=200, theta=0.01)
    @example(d=200, theta=0.02)
    @example(d=3, theta=1e-158)
    @example(d=30, theta=5e-22)
    @example(d=12, theta=1 - 2**-53)
    def test_matches_closed_form(self, d, theta):
        got = curve_log_measure(theta, d)
        assert not got.is_zero
        closed = binomial_curve_log_measure(theta, d)
        assert math.isclose(got.log, closed, rel_tol=1e-12)
        # ambient = l(p) prod_k sqrt(n_k + 1): the density reads the same level logs.
        halves = math.fsum(0.5 * math.log(math.comb(d, k)) for k in range(1, d))
        assert math.isclose(density_l(binomial_pmf(theta, d)).log, closed - halves, rel_tol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(1, 300), theta=st.floats(0.0, 1.0))
    @example(d=200, theta=0.01)
    @example(d=200, theta=0.02)
    @example(d=3, theta=1e-158)
    @example(d=30, theta=5e-22)
    @example(d=12, theta=1 - 2**-53)
    @example(d=1, theta=0.5)
    def test_float_theta_is_the_reference_to_the_bit(self, d, theta):
        assert _same_bits(curve_log_measure(theta, d), reference_curve_log_measure(theta, d))

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 200), theta=st.fractions(0, 1, max_denominator=1000))
    @example(d=200, theta=Fraction(1, 100))
    @example(d=200, theta=Fraction(1))
    def test_exact_theta_is_the_reference_to_the_bit(self, d, theta):
        assert _same_bits(curve_log_measure(theta, d), reference_curve_log_measure(theta, d))

    @pytest.mark.parametrize("theta, d", [(1e-300, 1010), (0.5, 1015), (0.5, 1100), (0.0, 1100)])
    def test_refusals_are_the_reference(self, theta, d):
        with pytest.raises(ValueError) as want:
            reference_curve_log_measure(theta, d)
        with pytest.raises(ValueError) as got:
            curve_log_measure(theta, d)
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)

    def test_the_curve_builds_no_sum_pmf(self, monkeypatch, capsys):
        # Each point runs binomial_pmf's mass kernel and polytope_measure's
        # level sum with nothing between them: no SumPmf is built or checked.
        built = []
        init = SumPmf.__init__
        monkeypatch.setattr(SumPmf, "__init__", lambda self, values: built.append(1) or init(self, values))
        assert main(["binomial-scan", "--d", "20", "--points", "251"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 251
        assert abs(curve_argmax(8) - 0.5) <= 1e-8
        assert built == []
        binomial_pmf(0.5, 8)
        assert built == [1]

    def test_underflowed_levels_keep_the_float_masses(self):
        p = binomial_pmf(0.01, 200)
        assert p.values[-1] == 0.0
        values = [math.comb(200, k) * 0.01**k * (1 - 0.01) ** (200 - k) for k in range(201)]
        assert p.values == tuple(v / math.fsum(values) for v in values)

    def test_exact_theta_below_the_float_range(self):
        theta = Fraction(1, 100)
        got = curve_log_measure(theta, 200)
        assert binomial_pmf(theta, 200).values[199] < 1e-320
        assert math.isclose(got.log, binomial_curve_log_measure(0.01, 200), rel_tol=1e-12)

    def test_log_concavity_on_grid(self):
        # Second differences of the log measure stay nonpositive: the curve
        # log-measure is a nonnegative combination of log(theta), log(1-theta).
        for d in range(2, 9):
            thetas = np.linspace(0.01, 0.99, 99)
            logs = np.array([curve_log_measure(float(t), d).log for t in thetas])
            second = logs[:-2] - 2 * logs[1:-1] + logs[2:]
            assert np.all(second <= 1e-9)


class TestCurveArgmax:
    @pytest.mark.parametrize("d", list(range(2, 13)))
    def test_argmax_at_half(self, d):
        assert abs(curve_argmax(d) - 0.5) <= 1e-8

    def test_derivative_sign_change_d4(self):
        d, h = 4, 1e-6
        def f(t):
            return curve_log_measure(t, d).log
        assert (f(0.4 + h) - f(0.4 - h)) / (2 * h) > 0
        assert (f(0.6 + h) - f(0.6 - h)) / (2 * h) < 0

    def test_guard(self):
        with pytest.raises(ValueError):
            curve_argmax(1)

    @pytest.mark.parametrize("d", ["3", None, True])
    def test_dimension_meets_the_integer_rule(self, d):
        with pytest.raises(ValueError, match=rf"^dimension must be a positive integer, got {re.escape(repr(d))}$"):
            curve_argmax(d)

    def test_numpy_dimension_accepted_and_d1_keeps_its_message(self):
        assert curve_argmax(np.int64(8)) == curve_argmax(8)
        with pytest.raises(ValueError, match=r"^the curve measure is constant for d < 2; argmax undefined$"):
            curve_argmax(1)


class TestBinVsMode:
    def test_d3(self):
        r = bin_vs_mode(3)
        assert math.isclose(r["d_sup"], 0.125, rel_tol=1e-14)
        assert r["log_measure_gap"] >= 0

    def test_d2(self):
        r = bin_vs_mode(2)
        assert math.isclose(r["d_sup"], 0.5, rel_tol=1e-14)
        assert math.isclose(r["log_measure_gap"], math.log(2), rel_tol=1e-12)

    def test_matches_direct_distance(self):
        for d in (2, 5, 9):
            r = bin_vs_mode(d)
            direct = dist_sup(binomial_pmf(Fraction(1, 2), d), maximal_pmf(d))
            assert r["d_sup"] == direct

    def test_distance_strictly_decreasing_to_zero(self):
        values = [bin_vs_mode(d)["d_sup"] for d in range(3, 21)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_gap_matches_density_difference_small_d(self):
        from bernsum.measure import density_l

        for d in range(2, 13):
            gap = bin_vs_mode(d)["log_measure_gap"]
            direct = density_l(maximal_pmf(d)).log - density_l(binomial_pmf(Fraction(1, 2), d)).log
            assert math.isclose(gap, direct, rel_tol=0, abs_tol=1e-9)

    def test_gap_nonnegative_with_late_monotone_tail(self):
        # The gap is >= 0 throughout, peaks near d = 12, and decreases toward
        # its limit 2 afterwards.  (It does NOT decrease to 0 beyond d = 6:
        # the density steepens as fast as the two pmfs approach each other.)
        gaps = {d: bin_vs_mode(d)["log_measure_gap"] for d in range(2, 41)}
        assert all(g >= 0 for g in gaps.values())
        peak = max(gaps, key=gaps.get)
        assert peak == 12
        tail = [gaps[d] for d in range(12, 41)]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert all(gaps[d] > 2.0 for d in range(8, 41))
        assert math.isclose(bin_vs_mode(400)["log_measure_gap"], 2.0, abs_tol=0.01)

    def test_guard(self):
        with pytest.raises(ValueError):
            bin_vs_mode(1)

    def test_dimension_meets_the_integer_rule(self):
        r = bin_vs_mode(np.int64(5))
        assert r == bin_vs_mode(5) and type(r["d_sup"]) is float
        for bad in (5.0, True):
            with pytest.raises(ValueError, match="dimension must be an integer"):
                bin_vs_mode(bad)
        with pytest.raises(ValueError, match="bin_vs_mode needs d >= 2"):
            bin_vs_mode(0)


class TestFloatRangeGuards:
    """The first d at which a printed value stops being a finite float is
    refused with the invariant named, never a traceback or a wrong null."""

    def test_float_binomial_pmf(self):
        binomial_pmf(0.5, 1029)
        with pytest.raises(ValueError, match="C\\(d, k\\) to be a finite float"):
            binomial_pmf(0.5, 1100)
        assert binomial_pmf(Fraction(1, 2), 1100).values[550] > 0

    def test_float_theta_refused_before_the_per_d_table(self):
        # A float theta past d = 1029 is refused without building _blocks(d),
        # whose cost grows as about d^3; an exact theta has no such limit.
        assert math.isfinite(float(math.comb(1029, 514)))
        with pytest.raises(OverflowError):
            float(math.comb(1030, 515))
        assert binomial_pmf(0.5, 1029).values[514] > 0
        before = _blocks.cache_info().currsize
        for d in (1030, 6000):
            with pytest.raises(ValueError, match=rf"^a float theta needs every C\(d, k\) to be a finite "
                                                 rf"float; at d = {d} one overflows$"):
                binomial_pmf(0.5, d)
        assert _blocks.cache_info().currsize == before
        assert binomial_pmf(Fraction(1, 2), 1030).values[515] > 0

    def test_curve_measure_at_the_limit(self):
        assert math.isfinite(curve_log_measure(0.5, 1014).log)
        assert math.isfinite(density_l(binomial_pmf(0.5, 1014)).log)
        for d in (1015, 1020, 1029):
            with pytest.raises(ValueError, match="log fiber measure must be a finite float"):
                curve_log_measure(0.5, d)
            with pytest.raises(ValueError, match="log fiber density must be a finite float"):
                density_l(binomial_pmf(0.5, d))
        # Below the limit, the tails of the curve overflow first.
        with pytest.raises(ValueError, match="log fiber measure must be a finite float"):
            curve_log_measure(1e-300, 1010)

    def test_bin_vs_mode_at_the_limit(self):
        r = bin_vs_mode(1023)
        assert all(math.isfinite(v) and abs(v) >= 2.2250738585072014e-308 for v in r.values())
        with pytest.raises(ValueError, match="2\\^d and so the log gap"):
            bin_vs_mode(1024)

    @pytest.mark.parametrize("argv", [["binomial-scan", "--d", "1100"],
                                      ["binomial-scan", "--d", "1015", "--points", "3"],
                                      ["bin-vs-mode", "--dmax", "1100"],
                                      ["density", "--p", json.dumps([1 / 1021] * 1021)],
                                      ["measure", "--p", json.dumps([0.5] + [0] * 1099 + [0.5])]])
    def test_cli_exits_2(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "finite float" in err

    def test_gapped_density_past_the_limit_prints_a_zero_pdf(self, capsys):
        # An empty level 0 < k < d gives pdf 0.0 before any term of its log
        # is formed, so no float limit applies; measure still needs the
        # normalizing constant and is refused above.
        assert main(["density", "--p", json.dumps([0.5] + [0] * 1099 + [0.5])]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["log_density"] is None and rec["dirichlet_pdf"] == 0.0
