"""Seeded random generation over the sum simplex and the fibers.

All draws flow from (seed, stream_id) pairs through counter-based child
sequences, so estimates are bit-identical across reruns and across worker
counts: work is split into fixed-size chunks, chunk i always uses the child
sequence [seed, stream_id, i], and chunk results merge in index order.

The neighborhood region around a sum pmf p at sup-radius eps is an axis box
over the d free coordinates intersected with a window on the last coordinate
1 - sum(x).  By default that window is enforced, so sampled points satisfy
the sup constraint on every coordinate; `paper_region=True` switches to the
looser compatibility set that keeps only sum(x) <= 1.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .indexing import _level_slice
from .measure import LN2, LogMeasure, _log_density_rows
from .pmf import JointPmf, SumPmf

CHUNK = 1 << 14


@dataclass(frozen=True)
class RngStream:
    """Reproducible random source: same (seed, stream_id) -> same draws."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id])))

    def chunk_generator(self, chunk: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id, chunk]))
        )


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


@dataclass(frozen=True)
class NeighborhoodSpec:
    """A metric ball around a sum pmf: center, radius, and which distance."""

    center: SumPmf
    epsilon: float
    metric: str = "sup"
    paper_region: bool = False

    def __post_init__(self):
        if self.metric not in ("sup", "tv"):
            raise ValueError(f"metric must be 'sup' or 'tv', got {self.metric!r}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def d(self) -> int:
        return self.center.d

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate sup-window [max(p_j - eps, 0), min(p_j + eps, 1)]."""
        p = self.center.array
        lo = np.maximum(p - self.epsilon, 0.0)
        hi = np.minimum(p + self.epsilon, 1.0)
        return lo, hi

    def box(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """(lo, hi) over the d free coordinates and the window [lo_d, hi_d] on
        the last one, 1 - sum(x); paper_region widens that window to [0, 1]."""
        lo, hi = self.bounds()
        d = self.d
        if self.paper_region:
            return lo[:d], hi[:d], 0.0, 1.0
        return lo[:d], hi[:d], float(lo[d]), float(hi[d])


@dataclass(frozen=True)
class EstimateReport:
    """A Monte Carlo estimate with its first-order standard error, in the
    units of point_estimate.value."""

    point_estimate: LogMeasure
    std_error: float
    n_samples: int
    acceptance_rate: float

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if not 0 <= self.acceptance_rate <= 1:
            raise ValueError("acceptance_rate must lie in [0,1]")


def sample_uniform_simplex(n: int, rng) -> np.ndarray:
    """Uniform draw from the standard n-simplex (n+1 coordinates summing to 1)."""
    if n < 0:
        raise ValueError(f"simplex dimension must be >= 0, got {n}")
    g = _as_generator(rng)
    if n == 0:
        return np.ones(1)
    while True:
        e = g.standard_exponential(n + 1)
        total = e.sum()
        if total > 0:
            return e / total


def sample_dirichlet(alpha: Sequence[float], rng) -> np.ndarray:
    """Dirichlet draw via normalized gammas, valid for every alpha > 0."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("alpha must be a vector with at least two entries")
    if np.any(a <= 0):
        raise ValueError("Dirichlet parameters must be positive")
    g = _as_generator(rng)
    while True:
        gam = g.standard_gamma(a)
        total = gam.sum()
        if total > 0:
            return gam / total


def sample_polytope_uniform(p: SumPmf, rng) -> JointPmf:
    """Uniform draw from the fiber over p, blockwise by its product structure."""
    d = p.d
    g = _as_generator(rng)
    values = np.zeros(1 << d)
    for k in p.support:
        block = sample_uniform_simplex(math.comb(d, k) - 1, g)
        values[_level_slice(d, k)] = float(p.values[k]) * block
    return JointPmf(d, values)


def sample_Fd_uniform(d: int, rng) -> JointPmf:
    """Uniform draw from the full simplex of joint Bernoulli pmfs."""
    return JointPmf(d, sample_uniform_simplex((1 << d) - 1, _as_generator(rng)))


def _interior_start(spec: NeighborhoodSpec) -> np.ndarray:
    d = spec.d
    p = spec.center.array
    alpha = 0.5 * min(spec.epsilon, 1.0)
    blended = (1.0 - alpha) * p + alpha / (d + 1)
    return blended[:-1].copy()


def hit_and_run(
    spec: NeighborhoodSpec,
    burn_in: int = 1000,
    thin: int = 10,
    rng: RngStream | np.random.Generator | None = None,
) -> Iterator[SumPmf]:
    """Markov chain with uniform stationary law on the sup-ball around p.

    Walks the d free coordinates (the last one is 1 - sum); each step picks a
    random direction, intersects it with the region, and jumps uniformly on
    the chord.  Yields after burn_in, then every thin-th state.  Every point
    emitted satisfies the region inequalities as floats.
    """
    if spec.metric != "sup":
        raise ValueError("hit_and_run samples the sup-metric region only")
    if burn_in < 0 or thin < 1:
        raise ValueError("burn_in must be >= 0 and thin >= 1")
    if rng is None:
        raise ValueError("hit_and_run needs an explicit rng")
    g = _as_generator(rng)
    d = spec.d
    lo, hi, lo_d, hi_d = spec.box()
    x = np.clip(_interior_start(spec), lo, hi)

    def step(v: np.ndarray) -> np.ndarray:
        u = g.standard_normal(d)
        norm = np.linalg.norm(u)
        if norm == 0.0:
            return v
        u /= norm
        t_lo, t_hi = -np.inf, np.inf
        for j in range(d):
            if abs(u[j]) < 1e-14:
                continue
            a = (lo[j] - v[j]) / u[j]
            b = (hi[j] - v[j]) / u[j]
            if a > b:
                a, b = b, a
            t_lo, t_hi = max(t_lo, a), min(t_hi, b)
        usum = u.sum()
        if abs(usum) > 1e-14:
            s = v.sum()
            a = ((1.0 - hi_d) - s) / usum
            b = ((1.0 - lo_d) - s) / usum
            if a > b:
                a, b = b, a
            t_lo, t_hi = max(t_lo, a), min(t_hi, b)
        if not (np.isfinite(t_lo) and np.isfinite(t_hi)) or t_hi < t_lo:
            return v
        t = g.uniform(t_lo, t_hi)
        cand = np.clip(v + t * u, lo, hi)
        return cand if lo_d <= 1.0 - cand.sum() <= hi_d else v

    for _ in range(burn_in):
        x = step(x)
    while True:
        for _ in range(thin):
            x = step(x)
        yield SumPmf(tuple(x) + (1.0 - x.sum(),))


def _region_mc(
    spec: NeighborhoodSpec, n: int, rng: RngStream, threads: int = 1, density: bool = True
) -> tuple[float, int, np.ndarray | None]:
    """One rejection pass from the bounding box into the spec's own ball.

    Returns (log_box, m, logl): the log volume of the box, the number of the
    n draws that land in the ball and, when density is set, the log fiber
    density at each of them in chunk order (None otherwise).  A tv draw must
    pass the sup window first, then the TV test.
    """
    if not isinstance(rng, RngStream):
        raise TypeError("estimators need an RngStream so chunks stay reproducible")
    if n < 1:
        raise ValueError("need at least one draw")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    d = spec.d
    lo, hi, lo_d, hi_d = spec.box()
    widths = hi - lo
    if np.any(widths <= 0):
        j = int(np.argmin(widths))
        raise ValueError(f"the window p_{j} ± epsilon = {float(spec.center.array[j])!r} ± {spec.epsilon!r} "
                         f"rounds to zero width: epsilon is below the float spacing of p_{j}")
    log_box = float(np.log(widths).sum())
    p_full = spec.center.array

    def run_chunk(args):
        chunk_idx, count = args
        # One bulk fill scaled in place: the same bits as g.uniform(lo, hi),
        # whose broadcast over array bounds runs per element, is slower, and
        # does not overlap across threads.
        X = rng.chunk_generator(chunk_idx).random((count, d))
        X *= widths
        X += lo
        last = 1.0 - X.sum(axis=1)
        acc = (last >= lo_d) & (last <= hi_d)
        X = X[acc]
        if spec.metric == "tv":
            P = np.column_stack([X, last[acc]])
            X = X[0.5 * np.abs(P - p_full).sum(axis=1) <= spec.epsilon]
        # The kernel is row-independent, so it runs on the rows kept alone.
        return len(X), _log_density_rows(X, d) if density else None

    jobs = [(i, min(CHUNK, n - start)) for i, start in enumerate(range(0, n, CHUNK))]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run_chunk, jobs))
    else:
        parts = [run_chunk(j) for j in jobs]
    m = sum(part[0] for part in parts)
    return log_box, m, np.concatenate([part[1] for part in parts]) if density else None


def region_volume(spec: NeighborhoodSpec, n: int, rng: RngStream, threads: int = 1) -> EstimateReport:
    """Surface volume of the sup-ball: sqrt(d+1) times the parameterized
    Lebesgue volume, estimated by rejection from the bounding box."""
    if spec.metric != "sup":
        raise ValueError("region_volume is defined for the sup metric")
    log_box, m, _ = _region_mc(spec, n, rng, threads, density=False)
    d = spec.d
    acc = m / n
    scale = math.sqrt(d + 1) * float(np.exp(log_box))
    se = scale * math.sqrt(max(acc * (1.0 - acc), 0.0) / n)
    est = LogMeasure(0.5 * math.log(d + 1) + log_box + math.log(acc)) if m else LogMeasure.zero()
    return EstimateReport(est, se, n, acc)


def _estimate(spec: NeighborhoodSpec, n: int, rng: RngStream, threads: int) -> EstimateReport:
    """Induced measure of the spec's ball: sqrt(2^d) x box volume x the mean
    fiber density over the n box draws (zero outside the ball)."""
    if n < 1000:
        raise ValueError("need at least 10^3 draws for a meaningful estimate")
    d = spec.d
    log_box, m, logl = _region_mc(spec, n, rng, threads)
    acc = m / n
    if m == 0:
        return EstimateReport(LogMeasure.zero(), 0.0, n, 0.0)
    shift = float(logl.max())
    if shift == float("-inf"):  # every accepted point sat on a zero-density face
        return EstimateReport(LogMeasure.zero(), 0.0, n, acc)
    # Shifted weights serve both the log-sum-exp and the delta method.
    w = np.exp(logl - shift)
    log_est = 0.5 * d * LN2 + log_box - math.log(n) + (shift + math.log(float(w.sum())))
    # Delta method on (volume stage) x (mean-density stage).
    se_v_rel = math.sqrt(max((1.0 - acc), 0.0) / (acc * n))
    mean_w = float(w.mean())
    sd_w = float(w.std(ddof=1)) if m > 1 else 0.0
    se_l_rel = sd_w / (mean_w * math.sqrt(m)) if mean_w > 0 else 0.0
    est_lin = math.exp(log_est)  # underflows to 0.0 only below about -745
    se = est_lin * math.hypot(se_v_rel, se_l_rel)
    return EstimateReport(LogMeasure(log_est), se, n, acc)


def estimate_neighborhood_measure(
    spec: NeighborhoodSpec, n: int, rng: RngStream, threads: int = 1
) -> EstimateReport:
    """Induced measure of the sup-ball around the center.

    Averages the fiber density over uniform draws from the region and scales
    by the region volume in the sqrt(2^d)-normalized parameterization, so at
    eps >= 1 the estimate converges to the full normalizing constant.
    """
    if spec.metric != "sup":
        raise ValueError("this estimator handles the sup metric; see the tv bound")
    return _estimate(spec, n, rng, threads)


def estimate_tv_neighborhood_bound(
    spec: NeighborhoodSpec, n: int, rng: RngStream, threads: int = 1
) -> EstimateReport:
    """Induced measure of the TV-ball, by rejection inside the sup-ball.

    The TV-ball sits inside the sup-ball of the same radius, so on identical
    seeds this estimate never exceeds the sup estimate.
    """
    if spec.metric != "tv":
        raise ValueError("this estimator handles the tv metric")
    return _estimate(spec, n, rng, threads)
