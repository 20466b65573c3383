"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion alongside its runtime.
"""
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

from bernsum import sampling
from bernsum.binomial import bin_vs_mode, binomial_pmf, curve_log_measure
from bernsum.cli import main as cli_main
from bernsum.feasibility import constrained_moment_bounds, constrained_vertices
from bernsum.measure import (
    density_l,
    maximal_pmf,
    normalizing_constant,
    polytope_measure,
)
from bernsum.pmf import JointPmf, SumPmf, cross_moment, entropy, sum_map
from bernsum.polytope import (
    convex_min_pmf,
    decompose,
    describe,
    extremal_enumerate,
    flat_weights,
    membership,
)
from bernsum.sampling import (
    NeighborhoodSpec,
    RngStream,
    estimate_neighborhood_measure,
    sample_Fd_uniform,
)

from oracles import (
    brute_vertices,
    dirichlet_mean_cov,
    quad_region_sup_2d,
    quad_simplex,
)

B_HALF_3 = SumPmf([Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)])
THETA_REF = [Fraction(1, 4), Fraction(2, 4), Fraction(3, 4)]

REF_CONSTRAINED_VERTICES = [
    {0: Fraction(1, 8), 3: Fraction(1, 8), 4: Fraction(3, 8), 6: Fraction(2, 8), 7: Fraction(1, 8)},
    {0: Fraction(1, 8), 2: Fraction(1, 8), 4: Fraction(2, 8), 5: Fraction(1, 8),
     6: Fraction(2, 8), 7: Fraction(1, 8)},
    {0: Fraction(1, 8), 1: Fraction(1, 8), 4: Fraction(2, 8), 6: Fraction(3, 8), 7: Fraction(1, 8)},
]

REF_MOMENT_BOUNDS = {
    (1,): (Fraction(1, 4), Fraction(1, 4)),
    (2,): (Fraction(1, 2), Fraction(1, 2)),
    (3,): (Fraction(3, 4), Fraction(3, 4)),
    (1, 2): (Fraction(1, 8), Fraction(1, 4)),
    (1, 3): (Fraction(1, 8), Fraction(1, 4)),
    (2, 3): (Fraction(3, 8), Fraction(1, 2)),
    (1, 2, 3): (Fraction(1, 8), Fraction(1, 8)),
}


class _Clock:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label} exceeded {self.limit}s ({elapsed:.1f}s)"
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")
        return False


def full_support_vertex_patterns(p: SumPmf):
    """All nine vertex patterns of a full-support d=3 pmf: one weight-1 atom,
    one weight-2 atom, plus the forced corners."""
    out = set()
    for x1 in (1, 2, 4):
        for x2 in (3, 5, 6):
            out.add(frozenset({(0, p.values[0]), (x1, p.values[1]),
                               (x2, p.values[2]), (7, p.values[3])}))
    return out


def test_criterion_1_extremal_reference_patterns(capsys):
    with _Clock("1 (extremal pmfs, d=3 reference patterns)", 1.0):
        p = SumPmf([Fraction(15, 100), Fraction(35, 100), Fraction(30, 100), Fraction(20, 100)])
        got = {frozenset(v.atoms) for v in extremal_enumerate(p)}
        assert len(got) == 9
        assert got == full_support_vertex_patterns(p)

        # convex-order-minimal pmf at mean 1.2: masses 0.8 / 0.2, exact
        p_cx = convex_min_pmf(3, Fraction(6, 5))
        assert p_cx.values == (0, Fraction(4, 5), Fraction(1, 5), 0)
        vertices = list(extremal_enumerate(p_cx))
        assert len(vertices) == 9
        for v in vertices:
            masses = sorted(m for _, m in v.atoms)
            assert masses == [Fraction(1, 5), Fraction(4, 5)]
            weights = sorted(bin(i).count("1") for i, _ in v.atoms)
            assert weights == [1, 2]

        # the CLI command streams the same nine vertices
        code = cli_main(["extremals", "--p", '["1/8","3/8","3/8","1/8"]'])
        lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert code == 0 and len(lines) == 9
        cli_sets = {
            frozenset((i, Fraction(m)) for i, m in rec["pmf"]["atoms"]) for rec in lines
        }
        assert cli_sets == full_support_vertex_patterns(B_HALF_3)


def test_criterion_2_constrained_reference_values():
    with _Clock("2 (constrained vertices and moment bounds)", 1.0):
        vertices = constrained_vertices(B_HALF_3, THETA_REF)
        got = {frozenset({i: v for i, v in enumerate(x.values) if v > 0}.items()) for x in vertices}
        want = {frozenset(t.items()) for t in REF_CONSTRAINED_VERTICES}
        assert got == want
        for x in vertices:
            assert x.exact

        for subset, bounds in REF_MOMENT_BOUNDS.items():
            assert constrained_moment_bounds(B_HALF_3, THETA_REF, list(subset)) == bounds


def test_criterion_3_vertex_counts():
    with _Clock("3 (vertex counts vs exhaustive oracle)", 10.0):
        assert describe(B_HALF_3).vertex_count == 9
        assert len(brute_vertices(3, B_HALF_3.values)) == 9

        b4 = binomial_pmf(Fraction(1, 2), 4)
        assert describe(b4).vertex_count == 96
        oracle = brute_vertices(4, b4.values)
        assert len(oracle) == 96
        assert {frozenset(v.atoms) for v in extremal_enumerate(b4)} == oracle


def test_criterion_4_measure_identities():
    with _Clock("4 (measure identities)", 10.0):
        def l_at(d):
            def g(coords):
                last = 1.0 - math.fsum(coords)
                vals = [max(c, 0.0) for c in coords] + [max(last, 0.0)]
                return density_l(SumPmf(vals)).value
            return g

        assert math.isclose(normalizing_constant(2).value, 1 / 3, rel_tol=1e-15)
        total2, err2 = quad_simplex(l_at(2), 2, nodes=16)
        assert err2 < 1e-9
        assert abs(2.0 * total2 - 1 / 3) < 1e-9

        total3, err3 = quad_simplex(l_at(3), 3, nodes=16)
        assert err3 < 1e-6
        assert abs(math.sqrt(8) * total3 - normalizing_constant(3).value) < 1e-6

        ambient = polytope_measure(B_HALF_3)["ambient"]
        closed_form = 4 * math.log(3 / 8) + math.log(3 / 4)
        assert math.isclose(ambient.log, closed_form, rel_tol=1e-12)


def test_criterion_5_dirichlet_pushforward():
    with _Clock("5 (pushforward of the uniform law is Dirichlet)", 30.0):
        n = 100_000
        gen = RngStream(20240).generator()
        sums = np.empty((n, 4))
        for i in range(n):
            sums[i] = sum_map(sample_Fd_uniform(3, gen)).array
        mean, cov = dirichlet_mean_cov([1, 3, 3, 1])
        assert np.allclose(mean, [1 / 8, 3 / 8, 3 / 8, 1 / 8])

        se = sums.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(sums.mean(axis=0) - mean) <= 4 * se)

        centered = sums - sums.mean(axis=0)
        for i in range(4):
            for j in range(i, 4):
                prods = centered[:, i] * centered[:, j]
                se_ij = prods.std(ddof=1) / math.sqrt(n)
                assert abs(prods.mean() - cov[i, j]) <= 4 * max(se_ij, 1e-12)


def test_criterion_6_mode_and_curve():
    # log l_amb(b(theta)) = A(d) + B(d) log(theta (1 - theta)) with B(d) > 0,
    # so the curve peaks at theta = 1/2 and falls by B(d) log(4 theta (1 - theta)).
    grid = [0.01, 0.1, 0.25, 0.4, 0.5 - 1e-3, 0.5 + 1e-3, 0.6, 0.75, 0.9, 0.99]
    with _Clock("6 (maximal pmf, curve peak at 1/2 in closed form, convergence)", 30.0):
        assert maximal_pmf(3).values == (0, Fraction(1, 2), Fraction(1, 2), 0)
        for d in range(2, 13):
            b = sum(k * (math.comb(d, k) - 1) for k in range(1, d))
            assert b > 0
            peak = curve_log_measure(0.5, d).log_value
            tol = 1e-12 * max(1.0, abs(peak))
            for theta in grid:
                drop = curve_log_measure(theta, d).log_value - peak
                assert abs(drop - b * math.log1p(-(1 - 2 * theta) ** 2)) <= tol
                assert drop < 0
        sups = [bin_vs_mode(d)["d_sup"] for d in range(3, 21)]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 0.01


def test_criterion_7_neighborhood_estimator():
    with _Clock("7 (neighborhood measure vs quadrature)", 60.0):
        p = SumPmf([0.25, 0.5, 0.25])
        n = 100_000
        for eps in (0.05, 0.1):
            spec = NeighborhoodSpec(p, eps)
            rep = estimate_neighborhood_measure(spec, n, RngStream(777))
            oracle = 2.0 * quad_region_sup_2d(lambda x, y, z: y, p.values, eps, nodes=24)
            assert abs(rep.point_estimate.value - oracle) <= 4 * rep.std_error
            assert rep.std_error > 0

            tv = estimate_neighborhood_measure(
                NeighborhoodSpec(p, eps, "tv"), n, RngStream(777)
            )
            assert tv.point_estimate.value <= rep.point_estimate.value + 1e-15


def test_criterion_8_property_suites(monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 64)  # the thread counts named run on any host
    with _Clock("8 (entropy/moment/decompose properties, determinism)", 120.0):
        rng = np.random.default_rng(4242)

        def random_exact(d):
            while True:
                w = [int(x) for x in rng.integers(0, 12, size=d + 1)]
                if sum(w) > 0:
                    return SumPmf([Fraction(x, sum(w)) for x in w])

        # extremal entropy equality, 50 random pmfs across d <= 4
        for _ in range(50):
            d = int(rng.integers(2, 5))
            p = random_exact(d)
            h_p = entropy(p)
            for v in extremal_enumerate(p):
                assert abs(entropy(v) - h_p) <= 1e-12

        # moment-bound sharpness by vertex scan, d <= 4
        from bernsum.polytope import moment_bounds

        for d in (2, 3, 4):
            p = random_exact(d)
            vertices = list(extremal_enumerate(p))
            for k in range(1, d + 1):
                lo, hi = moment_bounds(p, k)
                for subset in itertools.combinations(range(1, d + 1), k):
                    moments = [cross_moment(v, subset) for v in vertices]
                    assert abs(float(min(moments) - lo)) <= 1e-12
                    assert abs(float(max(moments) - hi)) <= 1e-12

        # decompose / reconstruct round trip, d <= 5
        for d in (3, 5):
            p = random_exact(d)
            while len(p.support) < 2:
                p = random_exact(d)
            vertices = list(extremal_enumerate(p))
            lam = rng.dirichlet(np.ones(len(vertices)))
            dense = np.zeros(1 << d)
            for w, v in zip(lam, vertices):
                for idx, mass in v.atoms:
                    dense[idx] += w * float(mass)
            f = JointPmf(d, tuple(dense))
            assert membership(f, p, 1e-9)
            blocks = decompose(f, p)
            rebuilt = np.zeros(1 << d)
            for w, v in zip(flat_weights(p, blocks), extremal_enumerate(p)):
                for idx, mass in v.atoms:
                    rebuilt[idx] += float(w) * float(mass)
            assert np.max(np.abs(rebuilt - dense)) <= 1e-12

        # deterministic re-runs, any thread count
        spec = NeighborhoodSpec(SumPmf([0.25, 0.5, 0.25]), 0.1)
        reports = [
            estimate_neighborhood_measure(spec, 40_000, RngStream(555), threads=t)
            for t in (1, 3, 7, 1)
        ]
        assert all(r == reports[0] for r in reports)
