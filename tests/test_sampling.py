import itertools
import math
import os
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsum import sampling
from bernsum.binomial import binomial_pmf
from bernsum.measure import density_l, normalizing_constant
from bernsum.pmf import SumPmf, sum_map
from bernsum.polytope import exchangeable_pmf, membership
from bernsum.sampling import (
    CHUNK,
    EstimateReport,
    NeighborhoodSpec,
    RngStream,
    estimate_neighborhood_measure,
    hit_and_run,
    region_volume,
    sample_Fd_uniform,
    sample_polytope_uniform,
    sample_uniform_simplex,
    _box_hits,
    _margin,
)

from oracles import (
    box_hits_reference,
    dirichlet_mean_cov,
    ks_two_sample_pvalue,
    quad_region_sup_2d,
    quad_region_sup_3d_volume,
    quad_region_tv_2d,
)

B_HALF_3 = SumPmf([0.125, 0.375, 0.375, 0.125])
P_D2 = SumPmf([0.25, 0.5, 0.25])
P_TINY_LAST = SumPmf([1e-10, 1e-10, 1 - 2e-10])


class FixedDirections(np.random.Generator):
    """A PCG64 Generator whose standard_normal always returns one direction."""

    def __init__(self, direction):
        super().__init__(np.random.PCG64(1))
        self.direction = np.asarray(direction, dtype=float)

    def standard_normal(self, size=None):
        return self.direction.copy()


def in_sup_windows(spec: NeighborhoodSpec, q: SumPmf) -> bool:
    lo, hi = spec.box()
    return bool(np.all((lo <= q.array) & (q.array <= hi)))


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

    @pytest.mark.parametrize("args, message", [
        ((True,), "seed must be an integer, got True"),
        ((1.5,), "seed must be an integer, got 1.5"),
        ((-1,), "seed must be >= 0, got -1"),
        ((1, False), "stream_id must be an integer, got False"),
        ((1, 2.0), "stream_id must be an integer, got 2.0"),
        ((1, -2), "stream_id must be >= 0, got -2"),
    ])
    def test_seed_and_stream_meet_the_integer_rule(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RngStream(*args)

    def test_numpy_integer_seed_is_stored_as_int(self):
        rng = RngStream(np.int64(42), np.uint8(1))
        assert rng == RngStream(42, 1) and type(rng.seed) is int and type(rng.stream_id) is int
        assert np.array_equal(rng.chunk_generator(3).random(4), RngStream(42, 1).chunk_generator(3).random(4))


class TestUniformSimplex:
    def test_zero_dimension(self):
        assert list(sample_uniform_simplex(0, RngStream(1))) == [1.0]

    def test_dimension_meets_the_integer_rule(self):
        same = [sample_uniform_simplex(n, RngStream(5)) for n in (np.int64(3), 3)]
        assert np.array_equal(*same)
        for bad in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="simplex dimension must be an integer"):
                sample_uniform_simplex(bad, RngStream(1))
        assert sample_Fd_uniform(np.int64(2), RngStream(1)).d == 2
        for bad in (2.0, True):
            with pytest.raises(ValueError, match="dimension must be a positive integer"):
                sample_Fd_uniform(bad, RngStream(1))
        # Refused before 2^21 masses are drawn: the generator has not moved.
        g = RngStream(1).generator()
        state = g.bit_generator.state
        with pytest.raises(ValueError, match="dense operations are limited to d <= 20"):
            sample_Fd_uniform(21, g)
        assert g.bit_generator.state == state

    @pytest.mark.parametrize("n, rng, error, message", [
        (3, "x", TypeError, "rng must be an RngStream or numpy Generator, got <class 'str'>"),
        (-1, RngStream(1), ValueError, "simplex dimension must be >= 0, got -1"),
    ])
    def test_refusals_are_named(self, n, rng, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            sample_uniform_simplex(n, rng)

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

    def test_past_the_dense_limit_is_refused_before_any_draw(self):
        # Refused before any draw and before any array of 2^d masses is filled.
        g = RngStream(5).generator()
        state = g.bit_generator.state
        with pytest.raises(ValueError, match="dense operations are limited to d <= 20, got 21"):
            sample_polytope_uniform(binomial_pmf(0.5, 21), g)
        assert g.bit_generator.state == state

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

    def test_window_below_float_spacing_is_refused(self):
        # 0.25 ± 1e-18 rounds to 0.25: the estimators refuse this ball, and
        # the chain refuses it too rather than emit its start forever.
        spec = NeighborhoodSpec(P_D2, 1e-18)
        with pytest.raises(ValueError, match=r"window p_0 ± epsilon = 0\.25 ± 1e-18 rounds to zero width"):
            next(hit_and_run(spec, rng=RngStream(1)))

    def test_last_window_below_float_spacing_is_refused(self):
        # p_2 ± 1e-17 rounds to p_2: the window on 1 - sum(x) is a point.
        chain = hit_and_run(NeighborhoodSpec(P_TINY_LAST, 1e-17), burn_in=0, thin=1, rng=RngStream(1))
        with pytest.raises(ValueError, match=r"window p_2 ± epsilon = 0\.9999999998 ± 1e-17 rounds to zero width"):
            next(chain)

    @pytest.mark.parametrize("kwargs, message", [
        ({"burn_in": 1.5}, "burn_in must be an integer, got 1.5"),
        ({"burn_in": True}, "burn_in must be an integer, got True"),
        ({"thin": True}, "thin must be an integer, got True"),
        ({"thin": 2.0}, "thin must be an integer, got 2.0"),
        ({"thin": 0}, "burn_in must be >= 0 and thin >= 1"),
    ])
    def test_counts_meet_the_integer_rule(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            next(hit_and_run(NeighborhoodSpec(P_D2, 0.1), rng=RngStream(1), **kwargs))

    def test_negative_burn_in_refused_at_the_first_draw(self):
        # hit_and_run is a generator: its checks run at the first next().
        chain = hit_and_run(NeighborhoodSpec(P_D2, 0.1), -1, 10, RngStream(1))
        with pytest.raises(ValueError, match="^burn_in must be >= 0 and thin >= 1$"):
            next(chain)

    def test_zero_direction_keeps_the_start(self):
        spec = NeighborhoodSpec(P_D2, 0.1)
        with np.errstate(all="raise"):  # the zero vector is never normalized
            states = list(itertools.islice(hit_and_run(spec, 5, 1, FixedDirections([0.0, 0.0])), 10))
        start = np.clip(0.95 * P_D2.array[:-1] + 0.05 / 3, *(w[:-1] for w in spec.box()))
        assert all(q.values[:-1] == tuple(start.tolist()) for q in states)
        assert in_sup_windows(spec, states[0])

    def test_direction_with_zero_sum_skips_the_last_window(self):
        # u = (1, -1)/sqrt(2) leaves sum(x) alone, so row d gives no chord
        # bounds; rows 0 and 1 alone bound the jump.
        spec = NeighborhoodSpec(P_D2, 0.1)
        states = list(itertools.islice(hit_and_run(spec, 0, 1, FixedDirections([1.0, -1.0])), 200))
        assert len({q.values for q in states}) == 200
        assert all(in_sup_windows(spec, q) for q in states)
        assert all(abs(q.values[2] - states[0].values[2]) <= 1e-15 for q in states)

    @pytest.mark.parametrize("p", [[0, 0.5, 0.5], [0.5, 0, 0.5]])
    def test_chain_pinned_at_a_corner_keeps_going(self, p):
        # At epsilon = 1e-16 states land on the window ends, where the chord
        # can be the single point t = 0 with t_hi = -0.0: a span numpy's
        # uniform refuses as negative.
        spec = NeighborhoodSpec(SumPmf(p), 1e-16)
        for seed in range(12):
            states = list(itertools.islice(hit_and_run(spec, 0, 1, RngStream(seed)), 200))
            assert all(in_sup_windows(spec, q) for q in states)

    def test_states_hold_python_floats(self):
        chain = hit_and_run(NeighborhoodSpec(B_HALF_3, 0.1), burn_in=5, thin=1, rng=RngStream(3))
        assert all(type(v) is float for q in itertools.islice(chain, 5) for v in q.values)


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
        lo, hi = spec.box()
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

    def test_bit_identical_across_threads_and_reruns(self, monkeypatch):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 64)  # 4 workers on any host
        spec = NeighborhoodSpec(B_HALF_3, 0.1)
        reports = [
            estimate_neighborhood_measure(spec, 50_000, RngStream(103), threads=t)
            for t in (1, 4, 1)
        ]
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("fn", [estimate_neighborhood_measure, region_volume])
    @pytest.mark.parametrize("n, threads, pool_workers", [
        (3 * CHUNK, 1, None),        # one thread: the chunks run in the caller
        (CHUNK, 4, None),            # one chunk: no worker could help
        (2 * CHUNK + 1, 2, 2),
        (2 * CHUNK + 1, 8, 3),       # never more workers than chunks
    ])
    def test_pool_only_for_parallel_chunks(self, monkeypatch, fn, n, threads, pool_workers):
        built = []

        class RecordingPool(sampling.ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

        spec = NeighborhoodSpec(B_HALF_3, 0.1)
        want = fn(spec, n, RngStream(105), threads=1)
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 64)  # the CPU cap has its own test
        assert fn(spec, n, RngStream(105), threads=threads) == want
        assert built == ([] if pool_workers is None else [pool_workers])

    @pytest.mark.parametrize("fn", [estimate_neighborhood_measure, region_volume])
    def test_workers_capped_at_usable_cpus(self, monkeypatch, fn):
        # A pool starts a thread per submit up to max_workers, so a huge
        # threads must not reach it: 8 chunks on 3 usable CPUs get 3 workers.
        built, started = [], []

        class RecordingPool(sampling.ThreadPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

            def shutdown(self, *args, **kwargs):
                started.append(len(self._threads))
                super().shutdown(*args, **kwargs)

        spec = NeighborhoodSpec(B_HALF_3, 0.1)
        want = fn(spec, 8 * CHUNK, RngStream(111), threads=1)
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 3)
        assert fn(spec, 8 * CHUNK, RngStream(111), threads=10**5) == want
        assert built == [3] and 1 <= started[0] <= 3

    @pytest.mark.parametrize("count, want", [(4, 4), (None, 1)])
    def test_usable_cpus_without_an_affinity_call(self, monkeypatch, count, want):
        # Where the OS has no sched_getaffinity, os.cpu_count() counts, and None reads 1.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert sampling._usable_cpus() == want

    @pytest.mark.parametrize("threads", [2, 3])
    def test_pool_keeps_a_bounded_window_of_chunks(self, monkeypatch, threads):
        # Futures submitted and not yet read, counted at each submit: the pool
        # holds at most 2 * workers of them, not one per chunk.
        outstanding, counts = [0], []

        class RecordingPool(sampling.ThreadPoolExecutor):
            def submit(self, fn, *args):
                outstanding[0] += 1
                counts.append(outstanding[0])
                future = super().submit(fn, *args)
                read = future.result

                def result(*a):
                    outstanding[0] -= 1
                    return read(*a)

                future.result = result
                return future

        spec = NeighborhoodSpec(B_HALF_3, 0.1)
        want = estimate_neighborhood_measure(spec, 40 * CHUNK, RngStream(107), threads=1)
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 64)  # 3 workers on any host
        assert estimate_neighborhood_measure(spec, 40 * CHUNK, RngStream(107), threads=threads) == want
        assert len(counts) == 40 and outstanding == [0]
        assert max(counts) <= 2 * threads

    @staticmethod
    def _traced(spec, n, threads):
        tracemalloc.start()
        try:
            rep = estimate_neighborhood_measure(spec, n, RngStream(109), threads=threads)
            return rep, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [400_000, 1_000_000])
    @pytest.mark.parametrize("metric", ["sup", "tv"])
    def test_one_float_per_hit(self, metric, n, threads):
        # The log weights of the hits are the one array that grows with n:
        # they are shifted, exponentiated and squared in place.
        spec = NeighborhoodSpec(P_D2, 0.1, metric)
        estimate_neighborhood_measure(spec, 2 * CHUNK, RngStream(1), threads=2)  # caches built
        rep, peak = self._traced(spec, n, threads)
        hits = round(rep.acceptance_rate * n)
        assert hits > n // 2
        assert peak <= 1.25 * 8 * hits + (2 << 20)

    def test_peak_does_not_grow_with_the_chunk_count(self):
        # d = 8, acceptance 0.0015: 350 more chunks add about 70 KB of hits,
        # and no per-chunk bookkeeping.  How far the two workers' chunks
        # overlap moves a peak by up to 0.5 MB, so the 50-chunk peak is the
        # largest of eight calls: as many chunks as the one 400-chunk call.
        spec = NeighborhoodSpec(binomial_pmf(0.5, 8), 0.01, "tv")
        self._traced(spec, 2 * CHUNK, 2)
        few = max(self._traced(spec, 50 * CHUNK, 2)[1] for _ in range(8))
        many = self._traced(spec, 400 * CHUNK, 2)[1]
        assert many - few < 1 << 19

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
            estimate_neighborhood_measure(NeighborhoodSpec(P_D2, 0.1), 999, RngStream(1))
        with pytest.raises(TypeError):
            estimate_neighborhood_measure(NeighborhoodSpec(P_D2, 0.1), 2000, RngStream(1).generator())

    @pytest.mark.parametrize("fn", [estimate_neighborhood_measure, region_volume])
    def test_fewer_than_a_thousand_draws_refused(self, fn):
        # One draw used to give region_volume a zero measure with std_error 0.
        with pytest.raises(ValueError, match=r"^need at least 10\^3 draws for a meaningful estimate$"):
            fn(NeighborhoodSpec(P_D2, 0.1), 999, RngStream(3))
        assert fn(NeighborhoodSpec(P_D2, 0.1), 1000, RngStream(3)).n_samples == 1000

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

    @pytest.mark.parametrize("fn", [estimate_neighborhood_measure, region_volume])
    def test_last_window_below_float_spacing_is_named(self, fn):
        # The free windows have width, but p_2 ± 1e-17 rounds to p_2: no
        # float test on 1 - sum(x) can resolve that window.
        spec = NeighborhoodSpec(P_TINY_LAST, 1e-17)
        with pytest.raises(ValueError, match=r"window p_2 ± epsilon = 0\.9999999998 ± 1e-17 rounds to zero width"):
            fn(spec, 2000, RngStream(1))

    @pytest.mark.parametrize("fn", [estimate_neighborhood_measure, region_volume])
    @pytest.mark.parametrize("n, threads, message", [
        (True, 1, "n must be an integer, got True"),
        (2000.5, 1, "n must be an integer, got 2000.5"),
        (2000, True, "threads must be an integer, got True"),
        (2000, 2.0, "threads must be an integer, got 2.0"),
    ])
    def test_counts_meet_the_integer_rule(self, fn, n, threads, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(NeighborhoodSpec(P_D2, 0.1), n, RngStream(1), threads=threads)

    @pytest.mark.parametrize("eps, message", [
        (math.inf, "epsilon must be finite, got inf"),
        pytest.param(10**400, f"epsilon must be finite, got {10**400}", id="10**400"),
        pytest.param(Decimal("1e400"), r"epsilon must be finite, got 1E\+400", id="Decimal(1e400)"),
        pytest.param(10**5000, "epsilon must be finite, got int of more than 4300 digits", id="10**5000"),
        pytest.param(Fraction(10**5000, 3), "epsilon must be finite, got Fraction of more than 4300 digits",
                     id="Fraction(10**5000, 3)"),
        pytest.param(-10**5000, "epsilon must be positive, got negative int of more than 4300 digits",
                     id="-10**5000"),
        (math.nan, "epsilon must be positive, got nan"),
        (-0.1, "epsilon must be positive, got -0.1"),
    ])
    def test_spec_radius_is_positive_and_finite(self, eps, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NeighborhoodSpec(P_D2, eps)

    @pytest.mark.parametrize("fn, metric", [
        (estimate_neighborhood_measure, "sup"),
        (estimate_neighborhood_measure, "tv"),
        (region_volume, "sup"),  # region_volume takes the sup metric only
    ])
    def test_exact_radius_is_rounded_once(self, fn, metric):
        specs = [NeighborhoodSpec(P_D2, eps, metric) for eps in (Fraction(1, 10), Decimal("0.1"), 0.1)]
        assert all(type(s.epsilon) is float and s.epsilon == 0.1 for s in specs)
        reports = [fn(s, 4000, RngStream(7)) for s in specs]
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("eps", [True, np.True_])
    def test_bool_radius_refused(self, eps):
        with pytest.raises(ValueError, match=f"^epsilon must be a number, got {eps!r}$"):
            NeighborhoodSpec(P_D2, eps)

    def test_center_must_be_a_sum_pmf(self):
        with pytest.raises(ValueError, match="^center must be a SumPmf, got list$"):
            NeighborhoodSpec([0.25, 0.5, 0.25], 0.1)

    def test_paper_region_flag_loosens_the_set(self):
        p = SumPmf([0.2, 0.2, 0.6])
        tight = estimate_neighborhood_measure(NeighborhoodSpec(p, 0.3), 50_000, RngStream(107))
        loose = estimate_neighborhood_measure(
            NeighborhoodSpec(p, 0.3, paper_region=True), 50_000, RngStream(107)
        )
        assert loose.acceptance_rate > tight.acceptance_rate
        assert loose.point_estimate.value > tight.point_estimate.value


class TestBox:
    def test_one_window_per_coordinate(self):
        spec = NeighborhoodSpec(SumPmf([0.9, 0.05, 0.05]), 0.2)
        lo, hi = spec.box()
        assert lo.tolist() == [0.7, 0.0, 0.0]
        assert hi.tolist() == [1.0, 0.25, 0.25]

    def test_paper_region_widens_the_last_window(self):
        spec = NeighborhoodSpec(SumPmf([0.9, 0.05, 0.05]), 0.2, paper_region=True)
        lo, hi = spec.box()
        assert lo.tolist() == [0.7, 0.0, 0.0]
        assert hi.tolist() == [1.0, 0.25, 1.0]

    def test_paper_region_accepts_a_point_last_window(self):
        # Only the last window rounds to a point, and paper_region drops it.
        spec = NeighborhoodSpec(P_TINY_LAST, 1e-17, paper_region=True)
        lo, hi = spec.box()
        assert (lo[2], hi[2]) == (0.0, 1.0)
        assert region_volume(spec, 2000, RngStream(1)).acceptance_rate == 1.0
        assert estimate_neighborhood_measure(spec, 2000, RngStream(1)).n_samples == 2000
        assert len(list(itertools.islice(hit_and_run(spec, burn_in=0, thin=1, rng=RngStream(1)), 3))) == 3


class TestTvBound:
    def test_equals_sup_at_full_radius(self):
        spec_tv = NeighborhoodSpec(P_D2, 1.0, "tv")
        spec_sup = NeighborhoodSpec(P_D2, 1.0, "sup")
        a = estimate_neighborhood_measure(spec_tv, 50_000, RngStream(109))
        b = estimate_neighborhood_measure(spec_sup, 50_000, RngStream(109))
        assert a.point_estimate.log == b.point_estimate.log

    def test_never_exceeds_sup_estimate(self):
        for eps in (0.05, 0.1, 0.3):
            a = estimate_neighborhood_measure(NeighborhoodSpec(P_D2, eps, "tv"), 20_000, RngStream(113))
            b = estimate_neighborhood_measure(NeighborhoodSpec(P_D2, eps, "sup"), 20_000, RngStream(113))
            assert a.point_estimate.value <= b.point_estimate.value + 1e-15

    def test_matches_tv_quadrature_d2(self):
        eps = 0.08
        rep = estimate_neighborhood_measure(NeighborhoodSpec(P_D2, eps, "tv"), 100_000, RngStream(127))
        want = 2.0 * quad_region_tv_2d(lambda x, y, z: y, P_D2.values, eps)
        assert abs(rep.point_estimate.value - want) <= 4 * rep.std_error


class TestOneSampleMean:
    """Both estimators report scale * mean(w) over all n draws, zeros included,
    with the sample standard error of that mean."""

    @pytest.mark.parametrize("fn, metric, log_scale", [
        (estimate_neighborhood_measure, "sup", math.log(2.0)),
        (estimate_neighborhood_measure, "tv", math.log(2.0)),
        (region_volume, "sup", 0.5 * math.log(3.0)),
    ], ids=["sup", "tv", "region_volume"])
    def test_mean_and_std_error_of_the_weights(self, fn, metric, log_scale):
        n, seed, eps = 2000, 7, 0.2
        spec = NeighborhoodSpec(P_D2, eps, metric=metric)
        lo, hi = spec.box()
        X = lo[:2] + (hi[:2] - lo[:2]) * RngStream(seed).chunk_generator(0).random((n, 2))
        w = np.zeros(n)
        for i, x in enumerate(X):
            P = np.array([*x, 1.0 - x.sum()])
            inside = lo[2] <= P[2] <= hi[2] and (metric == "sup" or 0.5 * np.abs(P - P_D2.array).sum() <= eps)
            if inside:
                w[i] = density_l(SumPmf(P.tolist())).value if fn is estimate_neighborhood_measure else 1.0
        scale = math.exp(log_scale) * float(np.prod(hi[:2] - lo[:2]))
        rep = fn(spec, n, RngStream(seed))
        assert 0 < rep.acceptance_rate < 1
        assert math.isclose(rep.point_estimate.value, scale * w.mean(), rel_tol=1e-12)
        assert math.isclose(rep.std_error, scale * w.std(ddof=1) / math.sqrt(n), rel_tol=1e-9)


class TestReportInvariants:
    def test_guards(self):
        from bernsum.measure import LogMeasure

        with pytest.raises(ValueError):
            EstimateReport(LogMeasure.one(), -1.0, 10, 0.5)
        with pytest.raises(ValueError):
            EstimateReport(LogMeasure.one(), 0.0, 10, 1.5)

    @pytest.mark.parametrize("std_error", [math.nan, -1.0])
    def test_std_error_nan_or_negative_refused(self, std_error):
        from bernsum.measure import LogMeasure

        with pytest.raises(ValueError, match="^std_error must be nonnegative$"):
            EstimateReport(LogMeasure(0.0), std_error, 10, 0.5)

    def test_spec_guards(self):
        with pytest.raises(ValueError):
            NeighborhoodSpec(P_D2, 0.0)
        with pytest.raises(ValueError):
            NeighborhoodSpec(P_D2, 0.1, "euclid")


# ---------------------------------------------------------------------------
# The box estimator's chunk test: certified column sums against the oracle
# that scales and row-sums every draw.

def kept_rows(U, spec, idx):
    lo, hi = spec.box()
    d = spec.d
    X = U[idx] * (hi[:d] - lo[:d])
    X += lo[:d]
    return X


def assert_matches_oracle(U, spec):
    """_box_hits keeps the oracle's rows with the oracle's log weights, bit
    for bit, with and without the density."""
    lo, hi = spec.box()
    p, tv = spec.center.array, spec.metric == "tv"
    for density in (True, False):
        idx, logl = _box_hits(U, lo, hi, p, spec.epsilon, tv, density)
        X_ref, logl_ref = box_hits_reference(U, lo, hi, p, spec.epsilon, spec.metric, density)
        X = kept_rows(U, spec, idx)
        assert X.shape == X_ref.shape and X.tobytes() == X_ref.tobytes()
        if density:
            assert logl.tobytes() == logl_ref.tobytes()
        else:
            assert logl is None


def swept_rows(spec, g, value, bases=6, span=200):
    """Rows of U around the point where numpy's 1 - sum(x) equals value:
    random rows scaled so that it does up to rounding, then their last entry
    stepped one float at a time through [-span, span]."""
    lo, hi = spec.box()
    d = spec.d
    w, target = hi[:d] - lo[:d], 1.0 - float(lo[:d].sum()) - value  # sum(U * w) that lands on value
    out = []
    for _ in range(20 * bases):
        u = g.random(d)
        u[:-1] *= (target - 0.5 * w[-1]) / (u[:-1] @ w[:-1])
        u[-1] = (target - u[:-1] @ w[:-1]) / w[-1]
        if np.all((u >= 0) & (u < 1)):
            U = np.repeat(u[None, :], 2 * span + 1, axis=0)
            U[:, -1] += np.arange(-span, span + 1) * np.spacing(u[-1])
            out.append(U[(U[:, -1] >= 0) & (U[:, -1] < 1)])
            if len(out) == bases:
                break
    return np.concatenate(out) if out else np.empty((0, d))


def window_rows(spec, g, count):
    """Uniform rows of U scaled so that 1 - sum(x) lands on a uniform point
    of window d, kept where they stay in [0, 1)."""
    lo, hi = spec.box()
    d = spec.d
    w = hi[:d] - lo[:d]
    U = g.random((count, d))
    U *= ((1.0 - float(lo[:d].sum()) - lo[d] - (hi[d] - lo[d]) * g.random(count)) / (U @ w))[:, None]
    return U[np.all((U >= 0) & (U < 1), axis=1)]


def box_columns(U, spec):
    """x = U * widths + lo with one row per coordinate: the oracle's floats,
    without its slow broadcast over short rows."""
    lo, hi = spec.box()
    d = spec.d
    C = np.ascontiguousarray(U.T)
    C *= (hi[:d] - lo[:d])[:, None]
    C += lo[:d, None]
    return C


def numpy_last_and_tv(U, spec, tv=True):
    """1 - sum(x) and the TV distance as the oracle's row reductions give them."""
    X = np.ascontiguousarray(box_columns(U, spec).T)
    last = 1.0 - X.sum(axis=1)
    if not tv:
        return last
    return last, 0.5 * np.abs(np.column_stack([X, last]) - spec.center.array).sum(axis=1)


def approx_last_and_tv(U, spec):
    """The approximations _box_hits decides from, formed as it forms them."""
    lo, hi = spec.box()
    d, p = spec.d, spec.center.array
    last = (1.0 - float(lo[:d].sum())) - U @ (hi[:d] - lo[:d])
    dist = np.abs(box_columns(U, spec) - p[:d, None]).sum(axis=0)
    dist += np.abs(last - p[d])
    return last, 0.5 * dist


@st.composite
def box_cases(draw):
    """A ball (d = 2..20, sup or tv, either last window, eps from 1e-6 to 1.5,
    a centre with empty levels or a mass near 1) and rows of U: uniform ones,
    and ones swept through both ends of the last window."""
    d = draw(st.integers(2, 20))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = g.random(d + 1)
    kind = draw(st.sampled_from(["interior", "zeros", "near_one"]))
    if kind == "zeros":
        w[g.random(d + 1) < 0.5] = 0.0
        w[g.integers(d + 1)] = 1.0
    elif kind == "near_one":
        w *= 10.0 ** -draw(st.integers(3, 15))
        w[g.integers(d + 1)] = 1.0
    eps = 10.0 ** draw(st.floats(-6, math.log10(1.5)))
    spec = NeighborhoodSpec(SumPmf((w / w.sum()).tolist()), eps, draw(st.sampled_from(["sup", "tv"])),
                            paper_region=draw(st.booleans()))
    lo, hi = spec.box()
    U = np.concatenate([g.random((draw(st.integers(1, 600)), d)),
                        swept_rows(spec, g, lo[d], bases=2, span=50),
                        swept_rows(spec, g, hi[d], bases=2, span=50)])
    return spec, U[g.permutation(len(U))]


class TestBoxHits:
    @settings(max_examples=150, deadline=None)
    @given(case=box_cases())
    def test_matches_the_row_by_row_oracle(self, case):
        spec, U = case
        assert_matches_oracle(U, spec)

    def test_whole_chunks_match_the_oracle(self):
        # Full chunks as the estimators draw them, at the benchmark's dimensions.
        for d, eps, metric in [(2, 0.1, "sup"), (5, 0.2, "tv"), (8, 0.05, "sup"), (16, 0.1, "tv")]:
            p = binomial_pmf(0.4, d)
            U = RngStream(d).chunk_generator(0).random((CHUNK, d))
            assert_matches_oracle(U, NeighborhoodSpec(SumPmf([float(v) for v in p.values]), eps, metric))

    # Dyadic windows: window d lies in [0.5, 1), where 1 - sum(x) takes every
    # float, so it lands on each end and on the float beyond it.
    DYADIC = [
        ([0.125, 0.125, 0.75], 0.125),
        ([0.0625, 0.0625, 0.125, 0.75], 0.125),
        ([0.0625, 0.0625, 0.0625, 0.0625, 0.0625, 0.6875], 0.125),
        ([0.03125] * 8 + [0.75], 0.0625),
    ]

    @pytest.mark.parametrize("values, eps", DYADIC)
    @pytest.mark.parametrize("metric", ["sup", "tv"])
    def test_rows_on_the_window_ends(self, values, eps, metric):
        spec = NeighborhoodSpec(SumPmf(values), eps, metric)
        lo, hi = spec.box()
        d = spec.d
        g = np.random.default_rng(17 + d)
        U = np.concatenate([swept_rows(spec, g, lo[d]), swept_rows(spec, g, hi[d])])
        last, _ = numpy_last_and_tv(U, spec)
        for end in (lo[d], np.nextafter(lo[d], -1.0), hi[d], np.nextafter(hi[d], 2.0)):
            assert np.any(last == end)
        assert_matches_oracle(U, spec)

    @pytest.mark.parametrize("values, eps", [
        ([0.25, 0.25, 0.25, 0.25], 0.125),
        ([0.125, 0.125, 0.125, 0.125, 0.25, 0.25], 0.125),
        ([0.0625] * 8 + [0.25, 0.25], 0.0625),
    ])
    def test_rows_at_tv_epsilon(self, values, eps):
        # x moves eps/2 up on coordinates 0 and d-1 and down on 1 and d: TV is
        # eps, and sweeping the last entry of u moves it one step at a time.
        spec = NeighborhoodSpec(SumPmf(values), eps, "tv")
        lo, hi = spec.box()
        d, p = spec.d, spec.center.array
        x = p[:d] + 0.5 * eps * np.isin(np.arange(d), [0, d - 1]) - 0.5 * eps * (np.arange(d) == 1)
        u0 = (x - lo[:d]) / (hi[:d] - lo[:d])
        g = np.random.default_rng(d)
        rows = []
        for _ in range(8):
            u = u0 + g.integers(-40, 41, size=d) * np.spacing(u0)
            U = np.repeat(u[None, :], 401, axis=0)
            U[:, -1] += np.arange(-200, 201) * np.spacing(u[-1])
            rows.append(U)
        U = np.concatenate(rows)
        last, tv = numpy_last_and_tv(U, spec)
        assert np.all((last >= lo[d]) & (last <= hi[d]))
        assert np.any(tv == eps) and np.any(tv == np.nextafter(eps, 1.0))
        assert_matches_oracle(U, spec)

    def test_margin_has_slack(self):
        # The approximations lie within a quarter of the margin of numpy's
        # values, at every d the rows can reach: 10^5 rows per d over three
        # balls (a flat centre, eps >= 1 so every window is [0, 1], and the
        # paper's looser last window), a third of them aimed into window d,
        # where the TV test runs.
        for d in range(2, 65):
            g = np.random.default_rng(1000 + d)
            p = SumPmf((g.dirichlet(np.ones(d + 1))).tolist())
            for spec in (NeighborhoodSpec(SumPmf([1 / (d + 1)] * (d + 1)), 0.05, "tv"),
                         NeighborhoodSpec(p, 1.5, "tv"),
                         NeighborhoodSpec(p, 0.1, "tv", paper_region=True)):
                lo, hi = spec.box()
                m = _margin(hi, d)
                U = g.random((22_000, d))
                approx_last = (1.0 - float(lo[:d].sum())) - U @ (hi[:d] - lo[:d])
                assert np.max(np.abs(approx_last - numpy_last_and_tv(U, spec, tv=False))) <= m / 4
                U = window_rows(spec, g, 11_000)
                last, tv = numpy_last_and_tv(U, spec)
                approx_last, approx_tv = approx_last_and_tv(U, spec)
                assert np.max(np.abs(approx_last - last)) <= m / 4
                inside = (last >= lo[d]) & (last <= hi[d])
                assert inside.sum() >= 2_000
                assert np.max(np.abs(approx_tv - tv)[inside]) <= m / 4
