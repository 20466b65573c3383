import itertools
import math

import numpy as np
import pytest

from bernsum.measure import normalizing_constant
from bernsum.pmf import SumPmf, sum_map
from bernsum.polytope import exchangeable_pmf, membership
from bernsum.sampling import (
    EstimateReport,
    NeighborhoodSpec,
    RngStream,
    estimate_neighborhood_measure,
    estimate_tv_neighborhood_bound,
    hit_and_run,
    region_volume,
    sample_dirichlet,
    sample_Fd_uniform,
    sample_polytope_uniform,
    sample_uniform_simplex,
)

from oracles import (
    dirichlet_mean_cov,
    ks_two_sample_pvalue,
    quad_region_sup_2d,
    quad_region_sup_3d_volume,
    quad_region_tv_2d,
)

B_HALF_3 = SumPmf([0.125, 0.375, 0.375, 0.125])
P_D2 = SumPmf([0.25, 0.5, 0.25])


def batch_se(samples: np.ndarray, batches: int = 50) -> float:
    """Standard error from batch means; safe for mildly correlated chains."""
    n = len(samples) // batches * batches
    means = samples[:n].reshape(batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 1).generator().uniform(size=5)
        b = RngStream(42, 1).generator().uniform(size=5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 1).generator().uniform(size=5)
        b = RngStream(42, 2).generator().uniform(size=5)
        assert not np.array_equal(a, b)


class TestUniformSimplex:
    def test_zero_dimension(self):
        assert list(sample_uniform_simplex(0, RngStream(1))) == [1.0]

    def test_coordinates_sum_to_one(self):
        g = RngStream(3).generator()
        for _ in range(100):
            x = sample_uniform_simplex(4, g)
            assert np.all(x >= 0)
            assert math.isclose(x.sum(), 1.0, abs_tol=1e-12)

    def test_means_match_flat_dirichlet(self):
        g = RngStream(5).generator()
        draws = np.array([sample_uniform_simplex(2, g) for _ in range(100_000)])
        se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - 1 / 3) <= 4 * se)

    def test_sorted_coordinates_match_spacings_oracle(self):
        n = 10_000
        g = RngStream(7).generator()
        main = np.array([sample_uniform_simplex(3, g) for _ in range(n)])
        main_max = np.sort(main, axis=1)[:, -1]
        # independent construction: spacings of sorted uniforms
        u = np.sort(g.uniform(size=(n, 3)), axis=1)
        padded = np.hstack([np.zeros((n, 1)), u, np.ones((n, 1))])
        oracle_max = np.sort(np.diff(padded, axis=1), axis=1)[:, -1]
        assert ks_two_sample_pvalue(main_max, oracle_max) > 0.01


class TestDirichlet:
    def test_flat_alpha_matches_simplex_sampler(self):
        g = RngStream(11).generator()
        a = np.array([sample_dirichlet([1.0, 1.0, 1.0], g) for _ in range(100_000)])
        b = np.array([sample_uniform_simplex(2, g) for _ in range(100_000)])
        se = np.sqrt(a.var(axis=0) / len(a) + b.var(axis=0) / len(b))
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4 * se)

    def test_binomial_alpha_mean(self):
        g = RngStream(13).generator()
        draws = np.array([sample_dirichlet([1, 3, 3, 1], g) for _ in range(100_000)])
        mean, _ = dirichlet_mean_cov([1, 3, 3, 1])
        se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4 * se)
        assert np.allclose(mean, [1 / 8, 3 / 8, 3 / 8, 1 / 8])

    def test_two_two_moments(self):
        g = RngStream(17).generator()
        draws = np.array([sample_dirichlet([2.0, 2.0], g) for _ in range(100_000)])
        x = draws[:, 0]
        se_mean = x.std(ddof=1) / math.sqrt(len(x))
        assert abs(x.mean() - 0.5) <= 4 * se_mean
        centered = (x - x.mean()) ** 2
        se_var = centered.std(ddof=1) / math.sqrt(len(x))
        assert abs(x.var(ddof=1) - 1 / 20) <= 4 * se_var

    def test_small_shapes_are_valid(self):
        g = RngStream(19).generator()
        for _ in range(200):
            x = sample_dirichlet([0.4, 0.7, 0.2], g)
            assert np.all(x >= 0) and math.isclose(x.sum(), 1.0, abs_tol=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            sample_dirichlet([1.0, -0.5], RngStream(1))
        with pytest.raises(ValueError):
            sample_dirichlet([2.0], RngStream(1))


class TestPolytopeUniform:
    def test_membership_every_draw(self):
        g = RngStream(23).generator()
        for _ in range(500):
            f = sample_polytope_uniform(B_HALF_3, g)
            assert membership(f, B_HALF_3, 1e-12)

    def test_point_mass_deterministic(self):
        p = SumPmf([0, 0, 0, 1])
        f = sample_polytope_uniform(p, RngStream(29))
        assert f.values[7] == 1.0
        assert sum_map(f).values == (0, 0, 0, 1)

    def test_mean_is_exchangeable_pmf(self):
        g = RngStream(31).generator()
        draws = np.array([sample_polytope_uniform(B_HALF_3, g).array for _ in range(100_000)])
        center = exchangeable_pmf(B_HALF_3).array
        se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - center) <= 4 * np.maximum(se, 1e-12))

    def test_partial_support(self):
        p = SumPmf([0, 0.8, 0.2, 0])
        g = RngStream(37).generator()
        for _ in range(200):
            f = sample_polytope_uniform(p, g)
            assert membership(f, p, 1e-12)
            assert f.values[0] == 0.0 and f.values[7] == 0.0


class TestFdUniform:
    def test_d1_pair(self):
        f = sample_Fd_uniform(1, RngStream(41))
        assert math.isclose(f.values[0] + f.values[1], 1.0, abs_tol=1e-12)

    def test_pushforward_mean_and_cov(self):
        n = 100_000
        g = RngStream(43).generator()
        sums = np.array([sum_map(sample_Fd_uniform(3, g)).array for _ in range(n)])
        mean, cov = dirichlet_mean_cov([1, 3, 3, 1])
        se = sums.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(sums.mean(axis=0) - mean) <= 4 * se)
        centered = sums - sums.mean(axis=0)
        for i in range(4):
            for j in range(4):
                prods = centered[:, i] * centered[:, j]
                se_ij = prods.std(ddof=1) / math.sqrt(n)
                assert abs(prods.mean() - cov[i, j]) <= 4 * max(se_ij, 1e-12)


class TestHitAndRun:
    def test_requires_sup_metric_and_rng(self):
        spec = NeighborhoodSpec(P_D2, 0.1, "tv")
        with pytest.raises(ValueError):
            next(hit_and_run(spec, rng=RngStream(1)))
        with pytest.raises(ValueError):
            next(hit_and_run(NeighborhoodSpec(P_D2, 0.1), rng=None))

    def test_whole_simplex_moments(self):
        spec = NeighborhoodSpec(P_D2, 1.5)
        chain = hit_and_run(spec, burn_in=1000, thin=10, rng=RngStream(47))
        draws = np.array([p.array for p in itertools.islice(chain, 10_000)])
        # stationary law should be flat Dirichlet: mean 1/3, var 1/18
        for k in range(3):
            se = batch_se(draws[:, k])
            assert abs(draws[:, k].mean() - 1 / 3) <= 4 * se
        var = draws[:, 0].var(ddof=1)
        se_var = batch_se((draws[:, 0] - draws[:, 0].mean()) ** 2)
        assert abs(var - 1 / 18) <= 4 * se_var

    def test_every_draw_in_region(self):
        spec = NeighborhoodSpec(P_D2, 0.1)
        chain = hit_and_run(spec, burn_in=1000, thin=5, rng=RngStream(53))
        for p in itertools.islice(chain, 2000):
            assert max(abs(a - b) for a, b in zip(p.values, P_D2.values)) <= 0.1
            assert all(v >= 0 for v in p.values)

    def test_mean_matches_quadrature(self):
        spec = NeighborhoodSpec(P_D2, 0.1)
        chain = hit_and_run(spec, burn_in=1000, thin=10, rng=RngStream(59))
        draws = np.array([p.array for p in itertools.islice(chain, 20_000)])
        vol = quad_region_sup_2d(lambda x, y, z: 1.0, P_D2.values, 0.1)
        mean_y = quad_region_sup_2d(lambda x, y, z: y, P_D2.values, 0.1) / vol
        se = batch_se(draws[:, 1])
        assert abs(draws[:, 1].mean() - mean_y) <= 4 * se

    def test_subbox_frequencies_d2(self):
        eps = 0.1
        spec = NeighborhoodSpec(P_D2, eps)
        boxes = [
            ((0.15, 0.25), (0.40, 0.50)),
            ((0.25, 0.35), (0.50, 0.60)),
            ((0.15, 0.25), (0.50, 0.60)),
        ]
        vol = quad_region_sup_2d(lambda x, y, z: 1.0, P_D2.values, eps)
        chain = hit_and_run(spec, burn_in=1000, thin=10, rng=RngStream(61))
        draws = np.array([p.array for p in itertools.islice(chain, 20_000)])
        for box in boxes:
            frac = quad_region_sup_2d(lambda x, y, z: 1.0, P_D2.values, eps, box=box) / vol
            inside = (
                (draws[:, 0] >= box[0][0]) & (draws[:, 0] <= box[0][1])
                & (draws[:, 1] >= box[1][0]) & (draws[:, 1] <= box[1][1])
            ).astype(float)
            se = batch_se(inside)
            assert abs(inside.mean() - frac) <= 4 * se

    def test_subbox_frequencies_d3(self):
        eps = 0.1
        spec = NeighborhoodSpec(B_HALF_3, eps)
        p = B_HALF_3.values
        full = quad_region_sup_3d_volume(p, eps)
        boxes = [
            ((0.025, 0.125), (0.275, 0.475), (0.275, 0.475)),
            ((0.125, 0.225), (0.275, 0.375), (0.275, 0.475)),
            ((0.125, 0.225), (0.375, 0.475), (0.275, 0.375)),
        ]
        chain = hit_and_run(spec, burn_in=1000, thin=10, rng=RngStream(67))
        draws = np.array([q.array for q in itertools.islice(chain, 20_000)])
        for box in boxes:
            frac = quad_region_sup_3d_volume(p, eps, box=box) / full
            inside = np.ones(len(draws), dtype=bool)
            for j, (lo, hi) in enumerate(box):
                inside &= (draws[:, j] >= lo) & (draws[:, j] <= hi)
            freq = inside.astype(float)
            se = batch_se(freq)
            assert abs(freq.mean() - frac) <= 4 * max(se, 1e-4)

    def test_degenerate_chain_stays_put(self):
        p = SumPmf([0, 0, 0, 1])
        spec = NeighborhoodSpec(p, 1e-9)
        chain = hit_and_run(spec, burn_in=10, thin=1, rng=RngStream(71))
        for q in itertools.islice(chain, 20):
            assert max(abs(a - b) for a, b in zip(q.values, p.values)) <= 1e-9


class TestRegionVolume:
    def test_whole_simplex(self):
        for d, p in ((2, P_D2), (3, B_HALF_3)):
            spec = NeighborhoodSpec(p, 1.0)
            rep = region_volume(spec, 200_000, RngStream(73))
            want = math.sqrt(d + 1) / math.factorial(d)
            assert abs(rep.point_estimate.value - want) <= 4 * rep.std_error

    def test_small_ball_matches_quadrature(self):
        spec = NeighborhoodSpec(P_D2, 0.05)
        rep = region_volume(spec, 200_000, RngStream(79))
        want = math.sqrt(3) * quad_region_sup_2d(lambda x, y, z: 1.0, P_D2.values, 0.05)
        assert abs(rep.point_estimate.value - want) <= 4 * rep.std_error
        assert rep.acceptance_rate > 0

    def test_clipped_region_never_exceeds_box(self):
        p = SumPmf([0.9, 0.05, 0.05])
        spec = NeighborhoodSpec(p, 0.2)
        rep = region_volume(spec, 50_000, RngStream(83))
        lo, hi = spec.bounds()
        box = float(np.prod(hi[:2] - lo[:2]))
        assert rep.point_estimate.value <= math.sqrt(3) * box
        assert rep.acceptance_rate <= 1.0

    def test_metric_guard(self):
        with pytest.raises(ValueError):
            region_volume(NeighborhoodSpec(P_D2, 0.1, "tv"), 1000, RngStream(1))


class TestNeighborhoodMeasure:
    def test_whole_simplex_gives_normalizing_constant(self):
        for d, p in ((2, P_D2), (3, B_HALF_3)):
            spec = NeighborhoodSpec(p, 1.0)
            rep = estimate_neighborhood_measure(spec, 200_000, RngStream(89))
            want = normalizing_constant(d).value
            assert abs(rep.point_estimate.value - want) <= 4 * rep.std_error
            assert rep.std_error > 0

    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_matches_quadrature_d2(self, eps):
        spec = NeighborhoodSpec(P_D2, eps)
        rep = estimate_neighborhood_measure(spec, 100_000, RngStream(97))
        want = 2.0 * quad_region_sup_2d(lambda x, y, z: y, P_D2.values, eps)
        assert abs(rep.point_estimate.value - want) <= 4 * rep.std_error

    def test_monotone_in_epsilon(self):
        small = estimate_neighborhood_measure(NeighborhoodSpec(P_D2, 0.05), 100_000, RngStream(101))
        large = estimate_neighborhood_measure(NeighborhoodSpec(P_D2, 0.10), 100_000, RngStream(101))
        assert small.point_estimate.value <= large.point_estimate.value

    def test_bit_identical_across_threads_and_reruns(self):
        spec = NeighborhoodSpec(B_HALF_3, 0.1)
        reports = [
            estimate_neighborhood_measure(spec, 50_000, RngStream(103), threads=t)
            for t in (1, 4, 1)
        ]
        assert reports[0] == reports[1] == reports[2]

    def test_se_scales_like_sqrt_n(self):
        ratios = []
        for rep in range(10):
            a = estimate_neighborhood_measure(NeighborhoodSpec(P_D2, 0.1), 4000, RngStream(200 + rep))
            b = estimate_neighborhood_measure(NeighborhoodSpec(P_D2, 0.1), 8000, RngStream(300 + rep))
            ratios.append(a.std_error / b.std_error)
        mean_ratio = float(np.mean(ratios))
        assert math.sqrt(2) * 0.8 <= mean_ratio <= math.sqrt(2) * 1.2

    def test_std_error_below_log_1e300_is_positive(self):
        # A log estimate in (-745, -690.8) has a positive float value; its
        # standard error must not be cut to 0 at 1e-300.
        p = SumPmf([0.4, 0.03, 0.03, 0.04, 0.04, 0.03, 0.03, 0.4])
        rep = estimate_neighborhood_measure(NeighborhoodSpec(p, 0.01), 20_000, RngStream(1))
        assert -745 < rep.point_estimate.log < math.log(1e-300)
        assert rep.std_error > 0

    def test_guards(self):
        with pytest.raises(ValueError):
            estimate_neighborhood_measure(NeighborhoodSpec(P_D2, 0.1, "tv"), 2000, RngStream(1))
        with pytest.raises(ValueError):
            estimate_neighborhood_measure(NeighborhoodSpec(P_D2, 0.1), 999, RngStream(1))
        with pytest.raises(TypeError):
            estimate_neighborhood_measure(NeighborhoodSpec(P_D2, 0.1), 2000, RngStream(1).generator())

    @pytest.mark.parametrize("threads", [0, -3])
    @pytest.mark.parametrize("fn", [estimate_neighborhood_measure, region_volume])
    def test_threads_below_one_refused(self, fn, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            fn(NeighborhoodSpec(P_D2, 0.1), 2000, RngStream(1), threads=threads)

    @pytest.mark.parametrize("fn", [estimate_neighborhood_measure, region_volume])
    def test_window_below_float_spacing_is_named(self, fn):
        # epsilon > 0, but 0.5 ± 1e-20 rounds to 0.5: the box has a zero side.
        spec = NeighborhoodSpec(SumPmf([0.5, 0.5]), 1e-20)
        with pytest.raises(ValueError, match=r"window p_0 ± epsilon = 0\.5 ± 1e-20 rounds to zero width"):
            fn(spec, 2000, RngStream(1))

    def test_paper_region_flag_loosens_the_set(self):
        p = SumPmf([0.2, 0.2, 0.6])
        tight = estimate_neighborhood_measure(NeighborhoodSpec(p, 0.3), 50_000, RngStream(107))
        loose = estimate_neighborhood_measure(
            NeighborhoodSpec(p, 0.3, paper_region=True), 50_000, RngStream(107)
        )
        assert loose.acceptance_rate > tight.acceptance_rate
        assert loose.point_estimate.value > tight.point_estimate.value


class TestTvBound:
    def test_equals_sup_at_full_radius(self):
        spec_tv = NeighborhoodSpec(P_D2, 1.0, "tv")
        spec_sup = NeighborhoodSpec(P_D2, 1.0, "sup")
        a = estimate_tv_neighborhood_bound(spec_tv, 50_000, RngStream(109))
        b = estimate_neighborhood_measure(spec_sup, 50_000, RngStream(109))
        assert a.point_estimate.log == b.point_estimate.log

    def test_never_exceeds_sup_estimate(self):
        for eps in (0.05, 0.1, 0.3):
            a = estimate_tv_neighborhood_bound(NeighborhoodSpec(P_D2, eps, "tv"), 20_000, RngStream(113))
            b = estimate_neighborhood_measure(NeighborhoodSpec(P_D2, eps, "sup"), 20_000, RngStream(113))
            assert a.point_estimate.value <= b.point_estimate.value + 1e-15

    def test_matches_tv_quadrature_d2(self):
        eps = 0.08
        rep = estimate_tv_neighborhood_bound(NeighborhoodSpec(P_D2, eps, "tv"), 100_000, RngStream(127))
        want = 2.0 * quad_region_tv_2d(lambda x, y, z: y, P_D2.values, eps)
        assert abs(rep.point_estimate.value - want) <= 4 * rep.std_error

    def test_metric_guard(self):
        with pytest.raises(ValueError):
            estimate_tv_neighborhood_bound(NeighborhoodSpec(P_D2, 0.1, "sup"), 2000, RngStream(1))


class TestReportInvariants:
    def test_guards(self):
        from bernsum.measure import LogMeasure

        with pytest.raises(ValueError):
            EstimateReport(LogMeasure.one(), -1.0, 10, 0.5)
        with pytest.raises(ValueError):
            EstimateReport(LogMeasure.one(), 0.0, 10, 1.5)

    def test_spec_guards(self):
        with pytest.raises(ValueError):
            NeighborhoodSpec(P_D2, 0.0)
        with pytest.raises(ValueError):
            NeighborhoodSpec(P_D2, 0.1, "euclid")
