import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernsum.measure import (
    LogMeasure,
    _log_density_rows,
    density_l,
    dirichlet_pdf,
    dist_sup,
    dist_tv,
    maximal_pmf,
    normalizing_constant,
    polytope_measure,
    simplex_hausdorff,
)
from bernsum.binomial import binomial_pmf
from bernsum.cli import main
from bernsum.pmf import SumPmf, entropy

from oracles import quad_simplex, reference_log_dirichlet_pdf

B_HALF_3 = SumPmf([0.125, 0.375, 0.375, 0.125])


def pmf_at(coords) -> SumPmf:
    last = 1.0 - math.fsum(coords)
    return SumPmf([max(float(c), 0.0) for c in coords] + [max(last, 0.0)])


def random_interior_pmf(rng: np.random.Generator, d: int) -> SumPmf:
    vals = rng.dirichlet(np.ones(d + 1))
    return SumPmf(tuple(vals / vals.sum()))


LOG_MAX = math.log(sys.float_info.max)


def assert_pdf_within_gate(p: SumPmf) -> None:
    """dirichlet_pdf(p) has a log within max(1e-12, 1e-14 |oracle|) of the
    mpmath oracle's, and is refused only where that log passes log(max float);
    below the normal floats the pdf is exp of the oracle's log."""
    want = reference_log_dirichlet_pdf(p.values)
    if want > LOG_MAX:
        with pytest.raises(ValueError, match="the Dirichlet pdf must be a finite float"):
            dirichlet_pdf(p)
        return
    got = dirichlet_pdf(p)
    if want < math.log(sys.float_info.min):
        assert math.isclose(got, math.exp(want), rel_tol=1e-9, abs_tol=1e-320)
    else:
        assert abs(math.log(got) - want) <= max(1e-12, 1e-14 * abs(want)), (math.log(got), want)


def mode_mixture(d: int, t, q: SumPmf, exact: bool) -> SumPmf:
    """(1 - t) mode + t q, in Fractions or in floats."""
    cast = Fraction if exact else float
    t = cast(t)
    return SumPmf([(1 - t) * cast(m) + t * cast(v) for m, v in zip(maximal_pmf(d).values, q.values)])


@st.composite
def pdf_inputs(draw) -> SumPmf:
    """Exact and float p at d = 2..64: mode mixtures, binomials and integer weights."""
    d, exact = draw(st.integers(2, 64)), draw(st.booleans())
    theta = Fraction(draw(st.integers(1, 99)), 100)
    kind = draw(st.sampled_from(["mode_mixture", "binomial", "weights"]))
    if kind == "mode_mixture":
        t = Fraction(draw(st.integers(0, 1000)), 1000) / 10 ** draw(st.integers(0, 9))
        return mode_mixture(d, t, binomial_pmf(theta, d), exact)
    if kind == "binomial":
        return binomial_pmf(theta if exact else float(theta), d)
    w = draw(st.lists(st.integers(1, 1000), min_size=d + 1, max_size=d + 1))
    return SumPmf([Fraction(x, sum(w)) if exact else x / sum(w) for x in w])


class TestLogMeasure:
    def test_construction_and_value(self):
        m = LogMeasure(math.log(0.5))
        assert math.isclose(m.value, 0.5)
        # Zero is the log -inf alone.
        assert LogMeasure(-math.inf) == LogMeasure.zero() and LogMeasure(-math.inf).is_zero
        assert LogMeasure.zero().value == 0.0
        assert LogMeasure.one().log_value == 0.0 and LogMeasure.one().log == 0.0


class TestSimplexHausdorff:
    def test_zero_dimension_is_one(self):
        assert simplex_hausdorff(0, 0.3).value == 1.0
        assert simplex_hausdorff(0, 0.0).value == 1.0

    def test_segment_and_triangle(self):
        assert math.isclose(simplex_hausdorff(1, 1.0).value, math.sqrt(2), rel_tol=1e-14)
        assert math.isclose(simplex_hausdorff(2, 1.0).value, math.sqrt(3) / 2, rel_tol=1e-14)

    def test_degenerate_side(self):
        assert simplex_hausdorff(3, 0.0).is_zero

    def test_input_guards(self):
        with pytest.raises(ValueError):
            simplex_hausdorff(-1, 0.5)
        with pytest.raises(ValueError):
            simplex_hausdorff(2, -0.5)

    @pytest.mark.parametrize("side", [math.nan, np.float64(math.nan)])
    def test_nan_side_refused(self, side):
        with pytest.raises(ValueError, match="side parameter must be >= 0, got nan"):
            simplex_hausdorff(2, side)

    @pytest.mark.parametrize("side", [math.inf, np.float64(math.inf)])
    def test_infinite_side_refused(self, side):
        with pytest.raises(ValueError, match="side parameter must be finite, got inf"):
            simplex_hausdorff(2, side)

    @pytest.mark.parametrize("side", [True, False, np.True_])
    def test_bool_side_refused(self, side):
        with pytest.raises(ValueError, match=f"side parameter must be a number, got {side!r}"):
            simplex_hausdorff(2, side)

    def test_exact_side_below_the_normal_floats_agrees_with_polytope_measure(self):
        # The fiber over (1/2, t, 1/2 - t) is the one segment of side t.
        t = Fraction(1, 10**400)
        intrinsic = polytope_measure(SumPmf([Fraction(1, 2), t, Fraction(1, 2) - t]))["intrinsic"]
        assert simplex_hausdorff(1, t).log_value == intrinsic.log_value == -920.6874636073383

    def test_simplex_dimension_meets_the_integer_rule(self):
        assert simplex_hausdorff(np.int64(2), 0.5) == simplex_hausdorff(2, 0.5)
        for bad in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="simplex dimension must be an integer"):
                simplex_hausdorff(bad, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 60), num=st.integers(1, 10**6), den=st.integers(1, 10**6), shift=st.integers(990, 1060))
    @example(n=1, num=1, den=1, shift=1022)
    @example(n=60, num=1, den=1, shift=1023)
    def test_exact_side_log_is_the_level_rule(self, n, num, den, shift):
        # Sides from about 2^-1080 to 2^-970, so on both sides of 2^-1022.
        side = Fraction(num, den << shift)
        if side < 2.0**-1022:
            lv = math.log(side.numerator) - math.log(side.denominator)
        else:
            lv = math.log(float(side))
        want = n * lv + 0.5 * math.log(n + 1) - math.lgamma(n + 1)
        assert simplex_hausdorff(n, side).log_value.hex() == want.hex()


class TestPolytopeMeasure:
    def test_d2_segment(self):
        m = polytope_measure(SumPmf([0.25, 0.5, 0.25]))
        assert math.isclose(m["ambient"].value, math.sqrt(2) / 2, rel_tol=1e-14)
        assert math.isclose(m["intrinsic"].value, math.sqrt(2) / 2, rel_tol=1e-14)

    def test_point_mass_mid_level(self):
        m = polytope_measure(SumPmf([0, 1, 0, 0]))
        assert m["ambient"].is_zero
        assert math.isclose(m["intrinsic"].value, math.sqrt(3) / 2, rel_tol=1e-14)

    def test_symmetric_binomial_d3(self):
        m = polytope_measure(B_HALF_3)
        closed_form = (3 / 8) ** 4 * 3 / 4
        assert math.isclose(m["ambient"].log, math.log(closed_form), rel_tol=1e-12)
        assert math.isclose(m["ambient"].value, 0.01483154296875, rel_tol=1e-12)

    def test_ambient_factorizes_through_density(self):
        rng = np.random.default_rng(61)
        for d in range(2, 11):
            p = random_interior_pmf(rng, d)
            ambient = polytope_measure(p)["ambient"]
            halves = sum(0.5 * math.log(math.comb(d, k)) for k in range(d + 1))
            expected = density_l(p).log + halves
            assert math.isclose(ambient.log, expected, rel_tol=1e-10, abs_tol=1e-10)


def chained_measures(p: SumPmf) -> dict[str, LogMeasure]:
    """The fiber measures as a product of simplex_hausdorff block measures,
    one LogMeasure per supported level, multiplied in level order."""
    intrinsic = LogMeasure.one()
    for k in p.support:
        block = simplex_hausdorff(math.comb(p.d, k) - 1, p.values[k])
        intrinsic = LogMeasure(intrinsic.log_value + block.log_value)
    ambient = intrinsic if all(v > 0 for v in p.values[1:p.d]) else LogMeasure.zero()
    return {"ambient": ambient, "intrinsic": intrinsic}


@st.composite
def sum_pmfs(draw):
    """Exact or float sum pmfs, d <= 12, empty levels included."""
    d = draw(st.integers(1, 12))
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 10**6), min_size=d + 1, max_size=d + 1))
        total = sum(weights)
        return SumPmf([Fraction(w, total) for w in weights]) if total else SumPmf([1] + [0] * d)
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=d + 1, max_size=d + 1))
    total = math.fsum(weights)
    return SumPmf([w / total for w in weights]) if total else SumPmf([1.0] + [0.0] * d)


class TestChainedReference:
    @settings(max_examples=300, deadline=None)
    @given(p=sum_pmfs())
    # Positive exact masses whose float is 0: the first block's measure is
    # finite, and the second's block is a point (level d).
    @example(p=SumPmf([1 - Fraction(1, 10**400), Fraction(1, 10**400), 0]))
    @example(p=SumPmf([Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**400), Fraction(1, 10**400)]))
    def test_equals_the_chained_product(self, p):
        assert polytope_measure(p) == chained_measures(p)


class TestBelowTheFloatRange:
    """An exact positive mass whose float is 0: every measure stays finite."""

    TINY = Fraction(1, 10**400)
    P = [Fraction(1, 2), TINY, Fraction(1, 2) - TINY]
    LOG_TINY = -400 * math.log(10)

    def test_api(self):
        p = SumPmf(self.P)
        m = polytope_measure(p)
        assert m["ambient"] == m["intrinsic"]
        assert math.isclose(m["intrinsic"].log, self.LOG_TINY + 0.5 * math.log(2), rel_tol=1e-15)
        assert round(m["intrinsic"].log, 2) == -920.69
        # l(p) = p_1^1 / 1!, and the entropy term of the tiny mass underflows.
        assert math.isclose(density_l(p).log, self.LOG_TINY, rel_tol=1e-15)
        assert entropy(p) == entropy(SumPmf([Fraction(1, 2), 0, Fraction(1, 2)]))

    def test_cli(self, capsys):
        arg = json.dumps([f"{v.numerator}/{v.denominator}" for v in self.P])
        assert main(["measure", "--p", arg]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["log_ambient"] == rec["log_intrinsic"] == polytope_measure(SumPmf(self.P))["ambient"].log
        assert rec["log_density"] == density_l(SumPmf(self.P)).log
        assert main(["density", "--p", arg]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["log_density"] == density_l(SumPmf(self.P)).log
        assert rec["entropy_nats"] == math.log(2)

    def test_density_reads_the_measure_logs(self):
        # d = 3, tiny mass at level 2, n_1 = n_2 = 2: ambient = l(p) * 3.
        p = SumPmf([Fraction(1, 4), Fraction(3, 4) - 2 * self.TINY, 2 * self.TINY, 0])
        log_p2 = math.log(2) + self.LOG_TINY
        ambient = polytope_measure(p)["ambient"].log
        assert math.isclose(ambient, 2 * math.log(0.75) + 2 * log_p2 + math.log(3) - 2 * math.log(2),
                            rel_tol=1e-14)
        assert math.isclose(density_l(p).log, ambient - math.log(3), rel_tol=1e-14)


class TestDensity:
    def test_d2_collapses_to_middle_coordinate(self):
        p = SumPmf([0.3, 0.45, 0.25])
        assert math.isclose(density_l(p).value, 0.45, rel_tol=1e-14)

    def test_mode_value_d3(self):
        assert math.isclose(density_l(maximal_pmf(3)).value, 1 / 64, rel_tol=1e-14)

    def test_zero_on_missing_supported_block(self):
        assert density_l(SumPmf([0.5, 0, 0, 0.5])).is_zero


class TestKernel:
    @pytest.mark.parametrize("d", [2, 3, 5, 8, 10, 16])
    @pytest.mark.parametrize("exact", [False, True])
    def test_rows_match_density_l_bit_for_bit(self, d, exact):
        rng = np.random.default_rng(1000 * d + exact)
        if exact:
            counts = rng.integers(1, 1000, size=(40, d + 1))
            ps = [SumPmf([Fraction(int(c), int(row.sum())) for c in row]) for row in counts]
        else:
            ps = [random_interior_pmf(rng, d) for _ in range(40)]
        want = np.array([density_l(p).log for p in ps])
        X = np.stack([p.array for p in ps])
        assert _log_density_rows(X, d).tobytes() == want.tobytes()
        # The Monte Carlo form: the d free coordinates alone.
        assert _log_density_rows(X[:, :d], d).tobytes() == want.tobytes()

    @pytest.mark.parametrize("values", [
        [0.5, 0.0, 0.5],
        [0.25, 0.25, 0.0, 0.5],
        ["1/4", "1/4", 0, "1/4", "1/4"],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.2, 0.3, 0.0, 0.0, 0.5],
    ])
    def test_empty_interior_level(self, values):
        p = SumPmf(values)
        assert density_l(p).is_zero
        assert dirichlet_pdf(p) == 0.0
        m = polytope_measure(p)
        assert m["ambient"].is_zero
        assert not m["intrinsic"].is_zero and math.isfinite(m["intrinsic"].log)

    @pytest.mark.parametrize("values", [[0.0, 0.5, 0.5], [0.0, 0.25, "1/2", 0.25, 0.0], [0.3, 0.7]])
    def test_empty_end_levels_keep_the_measures(self, values):
        # Levels 0 and d are points: leaving them empty zeroes nothing.
        p = SumPmf(values)
        m = polytope_measure(p)
        assert m["ambient"] == m["intrinsic"] and not m["ambient"].is_zero
        assert dirichlet_pdf(p) > 0.0 and not density_l(p).is_zero


class TestNormalizingConstant:
    def test_d1_segment_length(self):
        assert math.isclose(normalizing_constant(1).value, math.sqrt(2), rel_tol=1e-14)

    def test_d2_exact_third(self):
        assert math.isclose(normalizing_constant(2).value, 1 / 3, rel_tol=1e-14)

    def test_d3_value(self):
        assert math.isclose(normalizing_constant(3).value, math.sqrt(8) / 5040, rel_tol=1e-14)

    @pytest.mark.parametrize("d,tol", [(1, 1e-12), (2, 1e-9), (3, 1e-6)])
    def test_quadrature_identity(self, d, tol):
        total, err = quad_simplex(lambda coords: density_l(pmf_at(coords)).value, d, nodes=16)
        assert err < tol
        assert math.isclose(math.sqrt(2**d) * total, normalizing_constant(d).value, abs_tol=tol)

    def test_guard(self):
        with pytest.raises(ValueError):
            normalizing_constant(0)

    def test_dimension_meets_the_integer_rule(self):
        assert normalizing_constant(np.int64(3)) == normalizing_constant(3)
        assert type(normalizing_constant(np.int64(3)).log_value) is float
        for bad in (True, 2.5, 2.0, -1):
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                normalizing_constant(bad)


class TestDirichletPdf:
    def test_d2_closed_form(self):
        assert math.isclose(dirichlet_pdf(SumPmf([0.25, 0.5, 0.25])), 3.0, rel_tol=1e-12)

    def test_d1_uniform(self):
        assert math.isclose(dirichlet_pdf(SumPmf([0.3, 0.7])), 1.0, rel_tol=1e-12)

    def test_boundary_zero(self):
        assert dirichlet_pdf(SumPmf([0.5, 0.0, 0.5])) == 0.0

    @pytest.mark.parametrize("d,tol", [(1, 1e-9), (2, 1e-9), (3, 1e-6)])
    def test_integrates_to_one(self, d, tol):
        total, err = quad_simplex(lambda coords: dirichlet_pdf(pmf_at(coords)), d, nodes=16)
        assert err < tol
        assert math.isclose(total, 1.0, abs_tol=10 * tol)

    def test_proportional_to_density(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            p = random_interior_pmf(rng, d)
            lhs = density_l(p).log + 0.5 * d * math.log(2) - normalizing_constant(d).log
            rhs = math.log(dirichlet_pdf(p))
            assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-10)

    @pytest.mark.parametrize("d", [40, 60])
    @pytest.mark.parametrize("centre", ["b_half", "mode"])
    def test_past_the_float_range_is_refused(self, d, centre):
        # From d = 40 the log pdf at these centres passes log(max float) =
        # 709.78, so the pdf overflows a float and is refused by name.
        p = binomial_pmf(0.5, d) if centre == "b_half" else maximal_pmf(d)
        message = f"the Dirichlet pdf must be a finite float; at d = {d} it overflows"
        with pytest.raises(ValueError, match=message):
            dirichlet_pdf(p)

    def test_d43_in_range_returns_its_value(self):
        # The log pdf is 0.035 here, inside the float range, while log l(p)
        # and log (2^d - 1)! are about 2.5e14: only a sum without their
        # cancellation resolves it.
        d, t = 43, 3.3731e-05
        mode, b = maximal_pmf(d), binomial_pmf(0.47, d)
        p = SumPmf([(1 - t) * float(m) + t * float(v) for m, v in zip(mode.values, b.values)])
        assert math.isclose(math.log(dirichlet_pdf(p)), 0.0347902802, abs_tol=1e-10)
        assert_pdf_within_gate(p)

    def test_in_range_keeps_its_bits(self):
        # At d = 38 the log pdf is about 650, while log l(p) and
        # log (2^d - 1)! are about 7e12 and cancel.
        for p in (binomial_pmf(0.5, 38), maximal_pmf(38), binomial_pmf(0.3, 25)):
            assert_pdf_within_gate(p)

    @pytest.mark.parametrize("exact", [False, True])
    def test_mode_mixture_d36_within_the_gate(self, exact):
        # Near the mode every u_k is small, so the series carries the log.
        assert_pdf_within_gate(mode_mixture(36, Fraction(1, 10**6), binomial_pmf(Fraction(47, 100), 36), exact))

    @settings(max_examples=150, deadline=None)
    @given(pdf_inputs())
    def test_within_the_gate_of_mpmath(self, p):
        assert_pdf_within_gate(p)

    @pytest.mark.parametrize("values", [[Fraction(1, 1101)] * 1101, [1 / 1101] * 1101])
    def test_overflowing_term_is_refused_by_name(self, values):
        # At d = 1100, N p_1 / C(d, 1) - 1 passes the float range.
        with pytest.raises(ValueError, match=r"^a term of the log Dirichlet pdf must be a finite "
                                             r"float; at d = 1100 it overflows$"):
            dirichlet_pdf(SumPmf(values))

    def test_certainly_below_the_float_range_is_zero(self):
        # d = 300 is far past the cancellation, but this sum is below -745 by
        # more than its rounding error.
        assert dirichlet_pdf(binomial_pmf(0.05, 300)) == 0.0
        gapped = SumPmf([0.5] + [0.0] * 59 + [0.5])
        assert density_l(gapped).is_zero and dirichlet_pdf(gapped) == 0.0

    def test_mean_is_symmetric_binomial(self):
        for d in (2, 3, 5):
            alphas = [math.comb(d, k) for k in range(d + 1)]
            mean = [a / sum(alphas) for a in alphas]
            binom = [math.comb(d, k) / 2**d for k in range(d + 1)]
            assert mean == binom


class TestMaximalPmf:
    def test_small_dimensions(self):
        assert maximal_pmf(2).values == (0, Fraction(1), 0)
        assert maximal_pmf(3).values == (0, Fraction(1, 2), Fraction(1, 2), 0)
        assert maximal_pmf(4).values == (
            0, Fraction(3, 11), Fraction(5, 11), Fraction(3, 11), 0,
        )

    def test_guard(self):
        with pytest.raises(ValueError):
            maximal_pmf(1)

    def test_dimension_meets_the_integer_rule(self):
        assert maximal_pmf(np.int64(4)) == maximal_pmf(4)
        for bad in (3.0, True):
            with pytest.raises(ValueError, match="dimension must be an integer"):
                maximal_pmf(bad)
        for d in (1, 0, -3):
            with pytest.raises(ValueError, match="the maximal pmf needs d >= 2"):
                maximal_pmf(d)

    def test_beats_random_search(self):
        rng = np.random.default_rng(71)
        for d in range(2, 9):
            n_k = np.array([math.comb(d, k) - 1 for k in range(d + 1)], dtype=float)
            cols = n_k > 0
            const = sum(math.lgamma(v + 1) for v in n_k[cols])
            best = density_l(maximal_pmf(d)).log
            samples = rng.dirichlet(np.ones(d + 1), size=10_000)
            with np.errstate(divide="ignore"):
                logs = (np.log(samples[:, cols]) * n_k[cols]).sum(axis=1) - const
            assert np.all(logs <= best + 1e-12)


class TestDistances:
    def test_identical(self):
        assert dist_tv(B_HALF_3, B_HALF_3) == 0.0
        assert dist_sup(B_HALF_3, B_HALF_3) == 0.0

    def test_disjoint_point_masses(self):
        a = SumPmf([1, 0, 0, 0])
        b = SumPmf([0, 0, 0, 1])
        assert dist_tv(a, b) == 1.0
        assert dist_sup(a, b) == 1.0

    def test_binomial_vs_mode_d3(self):
        pm = maximal_pmf(3)
        assert math.isclose(dist_tv(B_HALF_3, pm), 0.25, rel_tol=1e-14)
        assert math.isclose(dist_sup(B_HALF_3, pm), 0.125, rel_tol=1e-14)

    def test_exact_inputs_rounded_once(self):
        # b(1/2) against the mode p^M: b_k - p^M_k = ((d+1) C(d,k) - 2^d) / (2^d (2^d - d - 1)).
        for d in range(2, 201):
            den = (1 << d) * ((1 << d) - d - 1)
            gaps = [Fraction(abs((d + 1) * math.comb(d, k) - (1 << d)), den) for k in range(d + 1)]
            b, pm = binomial_pmf(Fraction(1, 2), d), maximal_pmf(d)
            assert dist_sup(b, pm) == float(max(gaps)), d
            assert dist_tv(b, pm) == float(sum(gaps) / 2), d
        # Float zeros beside exact masses keep the exact path.
        third = SumPmf(["1/3", "1/3", "1/3"])
        assert dist_tv(SumPmf([0.0, "1/2", "1/2"]), third) == float(Fraction(1, 3))
        assert dist_sup(SumPmf([0.0, "1/2", "1/2"]), third) == float(Fraction(1, 3))

    def test_sup_below_tv(self):
        rng = np.random.default_rng(73)
        for _ in range(10_000):
            d = int(rng.integers(1, 6))
            p = random_interior_pmf(rng, d)
            q = random_interior_pmf(rng, d)
            assert dist_sup(p, q) <= dist_tv(p, q) + 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dist_tv(B_HALF_3, SumPmf([0.5, 0.5]))
