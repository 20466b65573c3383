"""The binomial slice: sum laws of iid and independent non-iid Bernoulli trials.

Along the binomial curve theta -> b(theta) the ambient fiber measure has the
closed form

    log l_amb(b(theta)) = A(d) + B(d) log(theta (1 - theta)),
    A(d) = sum_{0<k<d} [n_k log C(d,k) + 1/2 log(n_k + 1) - log n_k!],
    B(d) = sum_{0<k<d} k n_k,

with n_k = C(d,k) - 1: the level terms k log theta + (d - k) log(1 - theta)
pair up because n_k = n_{d-k}.  As B(d) > 0 and log(theta (1 - theta)) is
concave and symmetric about 1/2, the curve measure is log-concave with its
maximum at theta = 1/2, and b(1/2) approaches the measure-maximizing sum pmf
as the dimension grows.  curve_log_measure forms each point from
binomial_pmf's mass kernel and polytope_measure's level sum, with no SumPmf
between them: every point is polytope_measure's value to the bit.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .indexing import _as_int, _check_dimension
from .measure import _TINY, LogMeasure, _blocks, _fiber_log
from .pmf import Number, SumPmf, _is_exact, _not_bool, _total

_BIN_VS_MODE_DMAX = 1023  # the log gap takes 2.0**d, a finite float up to d = 1023
_FLOAT_COMB_DMAX = 1029  # every C(d, k) is a finite float up to d = 1029


def _binomial_masses(theta: Number, d: int) -> tuple[list[Number], dict[int, float] | None]:
    """The masses of b(theta) at dimension d, and the log of each level whose
    float mass cannot give it (None when no level needs one), as binomial_pmf
    documents them."""
    d = _check_dimension(d, dense=False)
    if not 0 <= _not_bool(theta, "theta") <= 1:
        raise ValueError(f"theta must lie in [0,1], got {theta}")
    t = Fraction(theta) if _is_exact(theta) else float(theta)
    # Refused before the per-d table is built, whose cost grows as about d^3.
    if isinstance(t, float) and d > _FLOAT_COMB_DMAX:
        raise ValueError(
            f"a float theta needs every C(d, k) to be a finite float; at d = {d} one overflows")
    u, combs = 1 - t, [1, *[row[3] for row in _blocks(d)[0]], 1]  # C(d, k), from the per-d table
    values = [c * t**k * u ** (d - k) for k, c in enumerate(combs)]
    total = _total(values)
    masses = [v / total for v in values]
    if not (isinstance(t, float) and 0 < t < 1 and min(t**d, u**d, *masses) < _TINY):
        return masses, None
    log_t, log_u, log_total = math.log(t), math.log1p(-t), math.log(total)
    return masses, {
        k: math.log(combs[k]) + k * log_t + (d - k) * log_u - log_total
        for k, v in enumerate(masses) if min(v, t**k, u ** (d - k)) < _TINY
    }


def binomial_pmf(theta: Number, d: int) -> SumPmf:
    """Sum law of d iid Bernoulli(theta) trials.

    For 0 < theta < 1 every mass is positive, but a float mass, or a factor
    theta^k or (1 - theta)^(d - k) of it, can fall below the normal floats and
    lose its bits or become 0.  Such a level keeps that float mass; its log,
    which polytope_measure and density_l read, is taken in log space instead:
    log C(d,k) + k log theta + (d - k) log1p(-theta) - log total.  An exact
    mass below the normal floats needs no such help.
    """
    masses, log_masses = _binomial_masses(theta, d)
    p = SumPmf(masses)
    object.__setattr__(p, "_log_masses", log_masses)
    return p


def poisson_binomial_pmf(theta: Sequence[Number]) -> SumPmf:
    """Sum law of independent Bernoulli(theta_i) trials, by O(d^2) convolution."""
    thetas = [_not_bool(t, "a trial probability") for t in theta]
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


def curve_log_measure(theta: Number, d: int) -> LogMeasure:
    """Ambient fiber measure at b(theta), polytope_measure(binomial_pmf(theta, d))["ambient"]
    to the bit, for a float or exact theta; zero at the endpoints.  The masses
    go from binomial_pmf's kernel to polytope_measure's level sum directly,
    with no SumPmf built or validated between them."""
    total, full = _fiber_log(*_binomial_masses(theta, d))
    return LogMeasure(total) if full else LogMeasure.zero()


def bin_vs_mode(d: int) -> dict[str, float]:
    """How far b(1/2) sits from the measure-maximizing pmf at dimension d.

    With b_k = C(d,k) / 2^d and p^M_k = (C(d,k) - 1) / (2^d - d - 1), each gap
    over the common denominator 2^d (2^d - d - 1) has numerator
    |2^d - (d + 1) C(d,k)|, so d_sup is one integer max, rounded once.

    The log gap log l(p^M) - log l(b(1/2)) is evaluated termwise so the huge
    factorial parts cancel exactly; differencing the two log densities loses
    the gap to rounding once d is large.  The gap stays nonnegative and
    tends to 2 from above after its maximum near d = 12.
    """
    d = _as_int(d, "dimension")
    if d < 2:
        raise ValueError("bin_vs_mode needs d >= 2")
    if d > _BIN_VS_MODE_DMAX:
        raise ValueError(f"bin_vs_mode needs d <= {_BIN_VS_MODE_DMAX}, where 2^d and so the log gap "
                         f"are finite floats; got d = {d}")
    two_d = 1 << d
    row = [1]  # C(d, k) for k <= d/2; levels k and d - k have equal terms
    for k in range(d // 2):
        row.append(row[-1] * (d - k) // (k + 1))
    top = max(abs(two_d - (d + 1) * c) for c in row)
    # per level: n_k * (ln p^M_k - ln b_k) = (C-1) * [ln(1 - 1/C) - ln(1 - (d+1)/2^d)]
    shrink = math.log1p(-(d + 1) / 2.0**d)
    terms = [(c - 1) * (math.log1p(-1.0 / c) - shrink) for c in row[1:]]
    # Level d - k repeats level k's term.  fsum rounds the exact sum once,
    # so the order the terms are listed in changes no bit.
    gap = math.fsum(terms + terms[:(d - 1) // 2])
    return {"d_sup": top / (two_d * (two_d - d - 1)), "log_measure_gap": gap}
