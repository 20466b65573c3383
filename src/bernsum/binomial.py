"""The binomial slice: sum laws of iid and independent non-iid Bernoulli trials.

The fiber measure restricted to the binomial curve theta -> b(theta) is
log-concave with its maximum at theta = 1/2, and b(1/2) approaches the
measure-maximizing sum pmf as the dimension grows.  The numeric argmax
routine exists to validate the measure implementation, not to discover the
optimum.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .measure import LogMeasure, dist_sup, maximal_pmf, polytope_measure
from .pmf import Number, SumPmf, _is_exact, _total


def binomial_pmf(theta: Number, d: int) -> SumPmf:
    """Sum law of d iid Bernoulli(theta) trials."""
    if not 0 <= theta <= 1:
        raise ValueError(f"theta must lie in [0,1], got {theta}")
    t = Fraction(theta) if _is_exact(theta) else float(theta)
    values = [math.comb(d, k) * t**k * (1 - t) ** (d - k) for k in range(d + 1)]
    total = _total(values)
    return SumPmf([v / total for v in values])


def poisson_binomial_pmf(theta: Sequence[Number]) -> SumPmf:
    """Sum law of independent Bernoulli(theta_i) trials, by O(d^2) convolution."""
    thetas = list(theta)
    if not thetas:
        raise ValueError("poisson_binomial_pmf needs at least one trial probability")
    if any(not 0 <= t <= 1 for t in thetas):
        raise ValueError("trial probabilities must lie in [0,1]")
    coerce = Fraction if all(_is_exact(t) for t in thetas) else float
    pmf: list[Number] = [1]
    for t in map(coerce, thetas):
        nxt = [x * (1 - t) for x in pmf] + [0]
        for k, x in enumerate(pmf):
            nxt[k + 1] += x * t
        pmf = nxt
    total = _total(pmf)
    return SumPmf([v / total for v in pmf])


def curve_log_measure(theta: float, d: int) -> LogMeasure:
    """Ambient fiber measure along the binomial curve; zero at the endpoints."""
    return polytope_measure(binomial_pmf(theta, d))["ambient"]


def curve_argmax(d: int, grid: int = 1001, tol: float = 1e-10) -> float:
    """Numeric argmax of the curve measure: grid scan plus golden section."""
    if d < 2:
        raise ValueError("the curve measure is constant for d < 2; argmax undefined")
    if grid < 3:
        raise ValueError("grid needs at least 3 points")

    def score(t: float) -> float:
        m = curve_log_measure(t, d)
        return float("-inf") if m.is_zero else m.log

    ts = [j / (grid - 1) for j in range(grid)]
    best = max(range(grid), key=lambda j: score(ts[j]))
    lo = ts[max(best - 1, 0)]
    hi = ts[min(best + 1, grid - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = score(c), score(e)
    while b - a > tol:
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = score(e)
    return 0.5 * (a + b)


def bin_vs_mode(d: int) -> dict[str, float]:
    """How far b(1/2) sits from the measure-maximizing pmf at dimension d.

    The log gap log l(p^M) - log l(b(1/2)) is evaluated termwise so the huge
    factorial parts cancel exactly; differencing the two log densities loses
    the gap to rounding once d is large.  The gap stays nonnegative and
    tends to 2 from above after its maximum near d = 12.
    """
    if d < 2:
        raise ValueError("bin_vs_mode needs d >= 2")
    b = binomial_pmf(Fraction(1, 2), d)
    pm = maximal_pmf(d)
    # per level: n_k * (ln p^M_k - ln b_k) = (C-1) * [ln(1 - 1/C) - ln(1 - (d+1)/2^d)]
    shrink = math.log1p(-(d + 1) / 2.0**d)
    gap = math.fsum(
        (math.comb(d, k) - 1) * (math.log1p(-1.0 / math.comb(d, k)) - shrink)
        for k in range(1, d)
    )
    return {"d_sup": dist_sup(b, pm), "log_measure_gap": gap}
