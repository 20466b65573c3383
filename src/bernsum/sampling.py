"""Seeded random generation over the sum simplex and the fibers.

All draws flow from (seed, stream_id) pairs through counter-based child
sequences, so estimates are bit-identical across reruns and across worker
counts: work is split into fixed-size chunks, chunk i always uses the child
sequence [seed, stream_id, i], and chunk results merge in index order.

The neighborhood region around a sum pmf p at sup-radius eps is read from
NeighborhoodSpec.box(), one checked window per coordinate k = 0..d: an axis
box over the d free coordinates intersected with the window on the last
coordinate 1 - sum(x).  By default that window is enforced, so sampled points
satisfy the sup constraint on every coordinate; `paper_region=True` widens
it to [0, 1], the looser compatibility set that keeps only sum(x) <= 1.  The
box estimators decide a draw from a dot product for 1 - sum(x) and column sums
for its TV distance; a draw within their rounding bound of a window end is
decided by numpy's row sums instead, so every decision is the row-wise one.
"""
from __future__ import annotations

import array
import math
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .indexing import _as_int, _check_dimension, _level_slice
from .measure import LN2, LogMeasure, _log_density_rows
from .pmf import JointPmf, SumPmf, _not_bool

CHUNK = 1 << 14


@dataclass(frozen=True)
class RngStream:
    """Reproducible random source: same (seed, stream_id) -> same draws.
    Both are integers >= 0, as _as_int takes them."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = _as_int(getattr(self, name), name)
            if v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")
            object.__setattr__(self, name, v)

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


def _shown(v) -> str:
    """str(v) for a message; a number whose digits pass Python's int-to-str
    limit (10**5000, say) is named by its sign and type instead."""
    try:
        return str(v)
    except ValueError:
        sign = "negative " if v < 0 else ""
        return f"{sign}{type(v).__name__} of more than {sys.get_int_max_str_digits()} digits"


@dataclass(frozen=True)
class NeighborhoodSpec:
    """A metric ball around a sum pmf: center, radius, and which distance."""

    center: SumPmf
    epsilon: float
    metric: str = "sup"
    paper_region: bool = False

    def __post_init__(self):
        if not isinstance(self.center, SumPmf):
            raise ValueError(f"center must be a SumPmf, got {type(self.center).__name__}")
        if self.metric not in ("sup", "tv"):
            raise ValueError(f"metric must be 'sup' or 'tv', got {self.metric!r}")
        if not _not_bool(self.epsilon, "epsilon") > 0:
            raise ValueError(f"epsilon must be positive, got {_shown(self.epsilon)}")
        try:
            eps = float(self.epsilon)  # an exact epsilon is rounded once, here
        except OverflowError:
            eps = math.inf
        if not math.isfinite(eps):
            raise ValueError(f"epsilon must be finite, got {_shown(self.epsilon)}")
        object.__setattr__(self, "epsilon", eps)

    @property
    def d(self) -> int:
        return self.center.d

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), the sup windows [max(p_j - eps, 0), min(p_j + eps, 1)] for
        j = 0..d, entry d on the last coordinate 1 - sum(x); paper_region
        widens that one to [0, 1].  Refused when a window rounds to zero width."""
        p = self.center.array
        lo = np.maximum(p - self.epsilon, 0.0)
        hi = np.minimum(p + self.epsilon, 1.0)
        if self.paper_region:
            lo[-1], hi[-1] = 0.0, 1.0
        j = int(np.argmin(hi - lo))
        if hi[j] <= lo[j]:
            raise ValueError(f"the window p_{j} ± epsilon = {float(p[j])!r} ± {self.epsilon!r} "
                             f"rounds to zero width: epsilon is below the float spacing of p_{j}")
        return lo, hi


@dataclass(frozen=True)
class EstimateReport:
    """A Monte Carlo estimate with the sample standard error of its mean
    weight, in the units of point_estimate.value."""

    point_estimate: LogMeasure
    std_error: float
    n_samples: int
    acceptance_rate: float

    def __post_init__(self):
        if not self.std_error >= 0:
            raise ValueError("std_error must be nonnegative")
        if not 0 <= self.acceptance_rate <= 1:
            raise ValueError("acceptance_rate must lie in [0,1]")


def sample_uniform_simplex(n: int, rng) -> np.ndarray:
    """Uniform draw from the standard n-simplex (n+1 coordinates summing to 1)."""
    n = _as_int(n, "simplex dimension")
    if n < 0:
        raise ValueError(f"simplex dimension must be >= 0, got {n}")
    g = _as_generator(rng)
    if n == 0:
        return np.ones(1)
    while True:
        e = g.standard_exponential(n + 1)
        total = e.sum()
        if total > 0:
            return np.divide(e, total, out=e)  # in place: a d = 20 draw is 8 MB


def sample_polytope_uniform(p: SumPmf, rng) -> JointPmf:
    """Uniform draw from the fiber over p, blockwise by its product structure."""
    d = _check_dimension(p.d)
    g = _as_generator(rng)
    values = np.zeros(1 << d)
    for k in p.support:
        block = sample_uniform_simplex(math.comb(d, k) - 1, g)
        values[_level_slice(d, k)] = float(p.values[k]) * block
    return JointPmf._from_fresh(d, values)


def sample_Fd_uniform(d: int, rng) -> JointPmf:
    """Uniform draw from the full simplex of joint Bernoulli pmfs."""
    d = _check_dimension(d)
    return JointPmf._from_fresh(d, sample_uniform_simplex((1 << d) - 1, _as_generator(rng)))


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
    burn_in, thin = _as_int(burn_in, "burn_in"), _as_int(thin, "thin")
    if burn_in < 0 or thin < 1:
        raise ValueError("burn_in must be >= 0 and thin >= 1")
    if rng is None:
        raise ValueError("hit_and_run needs an explicit rng")
    g = _as_generator(rng)
    d = spec.d
    lo, hi = spec.box()
    (*lows, lo_d), (*highs, hi_d) = lo.tolist(), hi.tolist()
    lo, hi = lo[:d], hi[:d]
    # Row j < d bounds x_j; row d bounds sum(x) by the window on 1 - sum(x).
    lows, highs = [*lows, 1.0 - hi_d], [*highs, 1.0 - lo_d]
    # Start inside: the centre blended towards the uniform pmf, clipped.
    alpha = 0.5 * min(spec.epsilon, 1.0)
    x = np.clip((1.0 - alpha) * spec.center.array[:-1] + alpha / (d + 1), lo, hi)

    def step(v: np.ndarray) -> np.ndarray:
        u = g.standard_normal(d)
        norm = np.linalg.norm(u)
        if norm == 0.0:
            return v
        u /= norm
        t_lo, t_hi = -math.inf, math.inf
        for w, s, low, high in zip([*u.tolist(), float(u.sum())], [*v.tolist(), float(v.sum())], lows, highs):
            if abs(w) < 1e-14:
                continue
            a, b = (low - s) / w, (high - s) / w
            t_lo, t_hi = max(t_lo, min(a, b)), min(t_hi, max(a, b))
        if not (math.isfinite(t_lo) and math.isfinite(t_hi)) or t_hi < t_lo:
            return v
        t = g.uniform(t_lo, t_hi + 0.0)  # -0.0 + 0.0 is 0.0: numpy refuses a span of -0.0
        cand = np.clip(v + t * u, lo, hi)
        return cand if lo_d <= 1.0 - cand.sum() <= hi_d else v

    for _ in range(burn_in):
        x = step(x)
    while True:
        for _ in range(thin):
            x = step(x)
        yield SumPmf([*x.tolist(), 1.0 - float(x.sum())])


def _band(approx: np.ndarray, a: float, b: float, m: float, exact) -> np.ndarray:
    """Indices of the rows whose value lies in [a, b], from approx (within m/2 of
    the value) where it is farther than m from both ends, else from exact(indices)."""
    near = np.flatnonzero((approx >= a - m) & (approx <= b + m))
    v = approx[near]
    sure = (v >= a + m) & (v <= b - m)
    band = np.flatnonzero(~sure)
    if len(band):
        sure[band] = exact(near[band])
    return near[sure]


def _margin(hi: np.ndarray, d: int) -> float:
    """(d + 3)(2 + H) 2^-50, H = sum_{j<d} hi_j >= sum(x): four times a bound on
    the gap between _box_hits's approximations and numpy's values.  With
    u = 2^-53, gamma_n = n u / (1 - n u) (Higham, ch. 3), numpy's x_j carry two
    roundings, its row sum gamma_{d-1} and the dot product gamma_d in any order,
    FMA or not, and each subtraction from 1 one u: 1 - sum(x) is off by at most
    2 gamma_{d+3} (1 + H).  The TV terms differ only in the last one, by that
    plus 2u, and each sum of them (<= H + 2) errs by gamma_d (H + 2); halved,
    the TV gap is below 2 gamma_{d+3} (2 + H) <= (d + 3)(2 + H) 2^-51."""
    return (d + 3) * (2.0 + float(hi[:d].sum())) * 2.0**-50


def _box_hits(U: np.ndarray, lo: np.ndarray, hi: np.ndarray, p: np.ndarray, epsilon: float,
              tv: bool, density: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Indices of the rows of U, uniform on [0,1)^d, whose box point x = U *
    widths + lo passes window d on 1 - sum(x), then for tv the TV test on
    [x, 1 - sum(x)], and their log densities when density is set.  Each test
    reads 1 - sum(lo) - U @ widths for 1 - sum(x), the TV distance column by
    column, and only rows within _margin of an end run numpy's row sums, so
    the decisions and bits are those of testing every row that way."""
    d = U.shape[1]
    widths, lo_free, m = hi[:d] - lo[:d], lo[:d], _margin(hi, d)
    last = (1.0 - float(lo_free.sum())) - U @ widths

    def exact(idx, ball=False):  # the row-by-row test of the rows idx: window d, or the TV ball
        X = U[idx] * widths
        X += lo_free
        s = 1.0 - X.sum(axis=1)
        if ball:
            return 0.5 * np.abs(np.column_stack([X, s]) - p).sum(axis=1) <= epsilon
        return (s >= lo[d]) & (s <= hi[d])

    idx = _band(last, lo[d], hi[d], m, exact)
    if not (tv or density):
        return idx, None
    C = U.ravel().take(idx * d + np.arange(d)[:, None])  # coordinate j of the kept x in row j:
    C *= widths[:, None]  # x's two roundings, so x's bits
    C += lo_free[:, None]
    if tv:
        dist = 0.5 * (np.abs(C - p[:d, None]).sum(axis=0) + np.abs(last[idx] - p[d]))
        keep = _band(dist, -math.inf, epsilon, m, lambda j: exact(idx[j], ball=True))
        idx, C = idx[keep], C[:, keep]
    return idx, _log_density_rows(C.T, d) if density else None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(run, jobs, workers: int) -> Iterator:
    """run(job) for each job, yielded in job order.  A pool runs them only when
    two or more can run at once (workers > 1), and holds at most 2 * workers
    submitted and not yet yielded."""
    if workers == 1:
        yield from map(run, jobs)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        window = deque()
        for job in jobs:
            if len(window) == 2 * workers:
                yield window.popleft().result()
            window.append(pool.submit(run, job))
        while window:
            yield window.popleft().result()


def _region_mc(spec: NeighborhoodSpec, n: int, rng: RngStream, log_scale: float,
               threads: int = 1, density: bool = True) -> EstimateReport:
    """One rejection pass from the bounding box into the spec's own ball.

    Draw x weighs l(x), the fiber density (1 when density is unset), in the
    ball and 0 outside; a tv draw must pass the sup window, then the TV test.
    _box_hits decides each chunk's draws from certified column sums.
    The estimate is exp(log_scale) * box volume * mean weight, its std_error
    the sample standard error (ddof 1) of that mean, zeros included: both from
    s1 = sum(w), s2 = sum(w^2) over the hits, shifted by the largest log weight.
    Chunk results are read in chunk order as they finish, each one's log
    weights appended to one buffer that is then shifted, exponentiated and
    squared in place: an estimate holds 8 bytes per hit, plus the chunks in
    flight.  At most min(threads, chunks, usable CPUs) workers run them, since
    a pool starts a thread per submit up to its max_workers.
    """
    if not isinstance(rng, RngStream):
        raise TypeError("estimators need an RngStream so chunks stay reproducible")
    n, threads = _as_int(n, "n"), _as_int(threads, "threads")
    if n < 1000:
        raise ValueError("need at least 10^3 draws for a meaningful estimate")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    d = spec.d
    lo, hi = spec.box()
    log_box = float(np.log(hi[:d] - lo[:d]).sum())

    def run_chunk(i):
        U = rng.chunk_generator(i).random((min(CHUNK, n - i * CHUNK), d))
        idx, logl = _box_hits(U, lo, hi, spec.center.array, spec.epsilon, spec.metric == "tv", density)
        return len(idx), logl

    chunks = -(-n // CHUNK)
    m, buf = 0, array.array("d")
    for hits, part in _in_order(run_chunk, range(chunks), min(threads, chunks, _usable_cpus())):
        m += hits
        if density:
            buf.frombytes(memoryview(part).cast("B"))
    logl = np.frombuffer(buf) if density and m else None
    shift = 0.0 if logl is None else float(logl.max())
    if not m or shift == -math.inf:  # no draw in the ball, or every one on a zero-density face
        return EstimateReport(LogMeasure.zero(), 0.0, n, m / n)
    if logl is None:  # unit weights: s1 = s2 = m, with no per-hit array
        s1 = s2 = float(m)
    else:
        w = np.exp(np.subtract(logl, shift, out=logl), out=logl)
        s1, s2 = float(w.sum()), float(np.square(w, out=w).sum())
    log_est = log_scale + log_box - math.log(n) + (shift + math.log(s1))
    rel_var = max(n * s2 / (s1 * s1) - 1.0, 0.0) / (n - 1)
    return EstimateReport(LogMeasure(log_est), math.exp(log_est) * math.sqrt(rel_var), n, m / n)


def region_volume(spec: NeighborhoodSpec, n: int, rng: RngStream, threads: int = 1) -> EstimateReport:
    """Surface volume of the sup-ball: sqrt(d+1) times the parameterized
    Lebesgue volume, estimated by rejection from the bounding box."""
    if spec.metric != "sup":
        raise ValueError("region_volume is defined for the sup metric")
    return _region_mc(spec, n, rng, 0.5 * math.log(spec.d + 1), threads, density=False)


def estimate_neighborhood_measure(
    spec: NeighborhoodSpec, n: int, rng: RngStream, threads: int = 1
) -> EstimateReport:
    """Induced measure of the spec's ball, sup or tv, around the center.

    Averages the fiber density over uniform draws from the bounding box,
    zero outside the ball, and scales by the box volume in the
    sqrt(2^d)-normalized parameterization, so at eps >= 1 the sup estimate
    converges to the full normalizing constant.  std_error is the sample
    standard error of that mean.  The TV-ball sits inside the sup-ball of the
    same radius, so a tv draw must pass the sup window and then the TV test:
    on identical seeds a tv estimate never exceeds the sup estimate.
    """
    return _region_mc(spec, n, rng, 0.5 * spec.d * LN2, threads)
