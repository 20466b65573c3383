"""Oracle sanity plus mutation smoke tests.

Each oracle has to flag a deliberately corrupted main result; an oracle that
cannot reject a wrong answer would make the cross-validation suites
meaningless.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from bernsum.measure import density_l, normalizing_constant
from bernsum.pmf import JointPmf, SumPmf, cross_moment, entropy, sum_map
from bernsum.polytope import extremal_enumerate
from bernsum.sampling import RngStream, sample_uniform_simplex

from oracles import (
    QuadratureSpec,
    brute_constrained_vertices,
    brute_vertices,
    ks_two_sample_pvalue,
    naive_cross_moment,
    naive_entropy,
    naive_sum_map,
    quad_integral,
    quad_region_sup_2d,
    quad_simplex,
    reference_log_dirichlet_pdf,
)

B_HALF_3 = SumPmf([Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)])


class TestQuadratureBasics:
    def test_area_of_corner_triangle(self):
        total, err = quad_simplex(lambda c: 1.0, 2, nodes=12)
        assert math.isclose(total, 0.5, abs_tol=1e-12)
        assert err < 1e-12

    def test_monomial_over_triangle(self):
        total, _ = quad_simplex(lambda c: c[1], 2, nodes=12)
        assert math.isclose(total, 1 / 6, abs_tol=1e-12)

    def test_density_integral_d3(self):
        def l_at(coords):
            last = 1.0 - math.fsum(coords)
            vals = [max(c, 0.0) for c in coords] + [max(last, 0.0)]
            return density_l(SumPmf(vals)).value

        total, err = quad_simplex(l_at, 3, nodes=16)
        want = normalizing_constant(3).value / math.sqrt(8)
        assert err < 1e-9
        assert math.isclose(total, want, abs_tol=1e-6)

    def test_volume_of_corner_tetrahedron(self):
        total, _ = quad_simplex(lambda c: 1.0, 3, nodes=10)
        assert math.isclose(total, 1 / 6, abs_tol=1e-12)

    def test_spec_dispatch_and_refinement(self):
        spec = QuadratureSpec(dimension=2, nodes=8, region=("sup", (0.25, 0.5, 0.25), 0.1))
        val, err = quad_integral(lambda x, y, z: y, spec)
        direct = quad_region_sup_2d(lambda x, y, z: y, (0.25, 0.5, 0.25), 0.1, nodes=16)
        assert val == direct
        coarse_val, coarse_err = quad_integral(
            lambda c: math.sin(3 * c[0]) * c[1], QuadratureSpec(dimension=2, nodes=3)
        )
        fine_val, fine_err = quad_integral(
            lambda c: math.sin(3 * c[0]) * c[1], QuadratureSpec(dimension=2, nodes=6)
        )
        assert fine_err < coarse_err
        assert abs(fine_val - coarse_val) <= coarse_err
        with pytest.raises(ValueError):
            QuadratureSpec(dimension=4)


class TestOracleExamples:
    def test_point_mass_values(self):
        assert naive_cross_moment(3, [0] * 7 + [1], [1, 2]) == 1.0
        assert naive_entropy([0, 0, 1, 0]) == 0.0

    def test_brute_vertices_point_mass(self):
        found = brute_vertices(3, (0, 0, Fraction(1), 0))
        assert len(found) == 3  # one vertex per weight-2 binary vector
        assert found == {frozenset({(i, Fraction(1))}) for i in (3, 5, 6)}

    def test_moment_bounds_recoverable_from_reference_vertices(self):
        ref = [
            {0: "1/8", 3: "1/8", 4: "3/8", 6: "2/8", 7: "1/8"},
            {0: "1/8", 2: "1/8", 4: "2/8", 5: "1/8", 6: "2/8", 7: "1/8"},
            {0: "1/8", 1: "1/8", 4: "2/8", 6: "3/8", 7: "1/8"},
        ]
        dense = []
        for atoms in ref:
            v = [0.0] * 8
            for i, m in atoms.items():
                v[i] = float(Fraction(m))
            dense.append(v)
        pair = [naive_cross_moment(3, v, [1, 2]) for v in dense]
        assert (min(pair), max(pair)) == (0.125, 0.25)
        triple = [naive_cross_moment(3, v, [1, 2, 3]) for v in dense]
        assert (min(triple), max(triple)) == (0.125, 0.125)
        last_pair = [naive_cross_moment(3, v, [2, 3]) for v in dense]
        assert (min(last_pair), max(last_pair)) == (0.375, 0.5)

    def test_log_dirichlet_pdf_closed_forms(self):
        # Dirichlet(1, 2, 1) at (1/4, 1/2, 1/4): 3! / 1! * 1/2 = 3.
        assert math.isclose(reference_log_dirichlet_pdf([0.25, 0.5, 0.25]), math.log(3), rel_tol=1e-15)
        # Dirichlet(1, 3, 3, 1) at b(1/2): 7! / (2! 2!) * (3/8)^4 = 102060/4096.
        assert math.isclose(reference_log_dirichlet_pdf(["1/8", "3/8", "3/8", "1/8"]),
                            math.log(Fraction(102060, 4096)), rel_tol=1e-15)

    def test_log_dirichlet_pdf_takes_zero_log_zero(self):
        # Levels 0 and d carry alpha = 1, so their mass may vanish; a middle one may not.
        assert math.isclose(reference_log_dirichlet_pdf([0, 0.5, 0.5]), math.log(3), rel_tol=1e-15)
        assert reference_log_dirichlet_pdf([0.5, 0, 0.5]) == -math.inf


class TestMutationSensitivity:
    def test_sum_map_oracle_rejects_swapped_levels(self):
        f = JointPmf(3, [0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1])
        good = list(sum_map(f).values)
        corrupted = good[:]
        corrupted[1], corrupted[2] = corrupted[2], corrupted[1]
        want = naive_sum_map(3, f.values)
        assert np.allclose(good, want, atol=1e-12)
        assert not np.allclose(corrupted, want, atol=1e-12)

    def test_cross_moment_oracle_rejects_wrong_mask(self):
        f = JointPmf(3, [0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.2, 0.1])
        good = cross_moment(f, [1, 3])
        # wrong implementation: reads coordinates 1-based as 0-based
        corrupted = sum(m for i, m in f.atoms() if i & 0b011 == 0b011)
        want = naive_cross_moment(3, f.values, [1, 3])
        assert math.isclose(good, want, abs_tol=1e-12)
        assert abs(corrupted - want) > 1e-3

    def test_entropy_oracle_rejects_bias(self):
        p = SumPmf([0.2, 0.3, 0.5])
        assert math.isclose(entropy(p), naive_entropy(p.values), abs_tol=1e-13)
        assert abs((entropy(p) + 0.01) - naive_entropy(p.values)) > 1e-3

    def test_brute_vertices_reject_shifted_atom(self):
        good = {frozenset(v.atoms) for v in extremal_enumerate(B_HALF_3)}
        want = brute_vertices(3, B_HALF_3.values)
        assert good == want
        corrupted = set()
        for v in extremal_enumerate(B_HALF_3):
            atoms = list(v.atoms)
            idx, mass = atoms[1]
            atoms[1] = ((idx + 1) % 8, mass)  # slide one atom off its slice
            corrupted.add(frozenset(atoms))
        assert corrupted != want

    def test_constrained_oracle_rejects_dropped_vertex(self):
        theta = [Fraction(1, 4), Fraction(2, 4), Fraction(3, 4)]
        want = brute_constrained_vertices(3, B_HALF_3.values, theta)
        assert len(want) == 3
        assert set(list(want)[:2]) != want

    def test_quadrature_rejects_wrong_normalization(self):
        def l_at(coords):
            last = 1.0 - math.fsum(coords)
            vals = [max(c, 0.0) for c in coords] + [max(last, 0.0)]
            return density_l(SumPmf(vals)).value

        total, _ = quad_simplex(l_at, 2, nodes=12)
        right = math.sqrt(2**2) * total
        wrong = math.sqrt(2 + 1) * total  # the H^d embedding factor instead
        assert math.isclose(right, normalizing_constant(2).value, abs_tol=1e-9)
        assert abs(wrong - normalizing_constant(2).value) > 1e-2

    def test_region_quadrature_rejects_inflated_radius(self):
        p = (0.25, 0.5, 0.25)
        tight = quad_region_sup_2d(lambda x, y, z: 1.0, p, 0.05)
        inflated = quad_region_sup_2d(lambda x, y, z: 1.0, p, 0.055)
        assert inflated > tight * 1.1

    def test_ks_oracle_rejects_biased_sampler(self):
        g = RngStream(131).generator()
        fair = np.array([sample_uniform_simplex(2, g).max() for _ in range(4000)])
        biased = np.array([sample_uniform_simplex(2, g).max() ** 1.25 for _ in range(4000)])
        reference = np.array([sample_uniform_simplex(2, g).max() for _ in range(4000)])
        assert ks_two_sample_pvalue(fair, reference) > 0.01
        assert ks_two_sample_pvalue(biased, reference) < 1e-6


def test_package_never_imports_the_oracles():
    """Brute-force references stay in the tests; the package must not use them."""
    import ast
    from pathlib import Path

    import bernsum

    banned = {"oracles", "tests"}
    sources = sorted(Path(bernsum.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in banned, f"{path.name} imports {name}"
