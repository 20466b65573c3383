"""Hausdorff measures of the fibers and the induced law on the sum simplex.

Everything is carried in log space, zero as the log -inf: the ambient
fiber dimension is 2^d - d - 1 and the factorials involved overflow any
fixed-width float long before d reaches the dense guard.

Conventions pinned here and relied on by the samplers and the quadrature
oracle: the total mass of the induced measure is sqrt(2^d) / (2^d - 1)!, and
integrals of the density over parameterized regions carry the same sqrt(2^d)
change-of-variables factor.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .indexing import _as_int, _check_dimension
from .pmf import SumPmf, _not_bool, _read_only, _total

LN2 = math.log(2.0)
_TINY = sys.float_info.min
_LOG_MAX = math.log(sys.float_info.max)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


@dataclass(frozen=True)
class LogMeasure:
    """A nonnegative real stored as its natural log; zero is the log -inf."""

    log_value: float

    @classmethod
    def zero(cls) -> "LogMeasure":
        return cls(-math.inf)

    @classmethod
    def one(cls) -> "LogMeasure":
        return cls(0.0)

    @property
    def is_zero(self) -> bool:
        return self.log_value == -math.inf

    @property
    def log(self) -> float:  # alias of log_value, kept while perfbench/worker.py reads it
        return self.log_value

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


def simplex_hausdorff(n: int, side_param: float) -> LogMeasure:
    """Surface measure p^n sqrt(n+1) / n! of the n-simplex scaled by p.

    A zero-dimensional simplex is a point and has measure 1 whatever p is.
    """
    n = _as_int(n, "simplex dimension")
    if n < 0:
        raise ValueError(f"simplex dimension must be >= 0, got {n}")
    if not _not_bool(side_param, "side parameter") >= 0:
        raise ValueError(f"side parameter must be >= 0, got {side_param}")
    if side_param == math.inf:
        raise ValueError(f"side parameter must be finite, got {side_param}")
    if n == 0:
        return LogMeasure.one()
    if side_param == 0:
        return LogMeasure.zero()
    tiny = _level_logs([side_param], None)  # an exact side below 2^-1022, as polytope_measure takes it
    log_side = tiny[0] if tiny else math.log(float(side_param))
    lv = n * log_side + 0.5 * math.log(n + 1) - math.lgamma(n + 1)
    return LogMeasure(lv)


def _stirling_remainder(a: int) -> float:
    """r(a) = lgamma(a) - [(a - 1/2) log a - a + log sqrt(2 pi)], from Stirling's series at a >= 20."""
    return (math.lgamma(a) - ((a - 0.5) * math.log(a) - a + _HALF_LOG_2PI) if a < 20 else
            (x := 1 / a) * (1 / 12 - x * x * (1 / 360 - x * x * (1 / 1260 - x * x * (1 / 1680 - x * x / 1188)))))


@functools.cache
def _blocks(d: int) -> tuple[tuple[tuple[float, float, float, int, float], ...], np.ndarray, float]:
    """Per level 0 < k < d: n_k = C(d, k) - 1, 0.5 log(n_k + 1) and log n_k!,
    each rounded as simplex_hausdorff rounds it, a = n_k + 1 and r(a).  Levels
    0 and d are points.  Where log n_k! is past the float range it is inf, so
    only a supported level that needs it overflows the sum.  Then the n_k array
    and the sum of the log n_k! in level order: the only per-d table."""
    rows = []
    for k in range(1, d):
        a = math.comb(d, k)
        try:
            rows.append((float(a - 1), 0.5 * math.log(a), math.lgamma(a), a, _stirling_remainder(a)))
        except OverflowError:
            rows.append((0.0, 0.0, math.inf, a, 0.0))
    return tuple(rows), _read_only(np.array([row[0] for row in rows])), float(sum(row[2] for row in rows))


def _overflow(what: str, d: int) -> ValueError:
    return ValueError(f"{what} must be a finite float; at d = {d} it overflows")


def _level_logs(values, log_masses: dict[int, float] | None) -> dict[int, float]:
    """log p_k at each level whose float mass cannot give it: a builder's
    log_masses, and an exact mass below the normal floats, where
    log(float(p_k)) loses bits or fails, from its numerator and denominator.
    Every other level's log is its float's, -inf for an empty level."""
    tiny = {k: math.log(v.numerator) - math.log(v.denominator) for k, v in enumerate(values)
            if type(v) is not float and isinstance(v, Fraction)  # a float skips the slow ABC check
            and v.denominator.bit_length() > 1022 and 0 < v < _TINY}  # _TINY = 2^-1022
    return {**(log_masses or {}), **tiny}


def _fiber_log(values, log_masses: dict[int, float] | None) -> tuple[float, bool]:
    """The log of the product of simplex_hausdorff(n_k, p_k) over the
    supported levels 0 < k < d, and whether every such level is supported.
    Each level's log is _level_logs' or its float's; the terms are added in
    level order, from 0.0, so the sum is that product's log to the bit."""
    d = len(values) - 1
    logs = [math.log(f) if (f := float(v)) > 0 else -math.inf for v in values]
    for k, lv in _level_logs(values, log_masses).items():
        logs[k] = lv
    total, full = 0.0, True
    for (n, half_log, log_fact, _, _), lv in zip(_blocks(d)[0], logs[1:d]):
        if lv > -math.inf:
            total += n * lv + half_log - log_fact
        else:
            full = False
    if not total > -math.inf:
        raise _overflow("a log fiber measure", d)
    return total, full


def polytope_measure(p: SumPmf) -> dict[str, LogMeasure]:
    """Ambient and intrinsic Hausdorff measures of the fiber over p: intrinsic
    is _fiber_log's product over the support; ambient, as levels 0 and d are
    points, is intrinsic when every level 0 < k < d is supported, else zero."""
    total, full = _fiber_log(p.values, p._log_masses)
    intrinsic = LogMeasure(total)
    return {"ambient": intrinsic if full else LogMeasure.zero(), "intrinsic": intrinsic}


def _log_density_rows(X: np.ndarray, d: int, level_logs: dict[int, float] | None = None) -> np.ndarray:
    """log l(p) = sum_k n_k log p_k - log n_k! at each row of X (column k holds
    p_k; the d free coordinates will do), -inf where a level 0 < k < d is
    empty.  The terms are added level by level (contiguous for a column-major
    X), so no row's value depends on the rows beside it (numpy would sum a lone
    row pairwise).  level_logs maps a level to the log that replaces its
    column's, as _level_logs gives it."""
    _, n, log_facts = _blocks(d)
    with np.errstate(divide="ignore"):
        logs = np.log(X[:, 1:d])
    for k, lv in (level_logs or {}).items():
        if 0 < k < d:
            logs[:, k - 1] = lv
    logs *= n
    lone = len(X) == 1  # a lone row adds Python floats: one numpy call per level costs more
    total = 0.0 if lone else np.zeros(len(X))
    for column in logs[0].tolist() if lone else logs.T:
        total += column
    return np.atleast_1d(total - log_facts)


def density_l(p: SumPmf) -> LogMeasure:
    """Fiber-measure density prod_k p_k^{n_k} / n_k! with 0^0 = 1: zero when
    a level 0 < k < d is empty."""
    d, logs = p.d, _level_logs(p.values, p._log_masses)
    if any(not p.values[k] and k not in logs for k in range(1, d)):
        return LogMeasure.zero()
    lv = float(_log_density_rows(p.array[None, :], d, logs)[0])
    if not lv > -math.inf:
        raise _overflow("a log fiber density", d)
    return LogMeasure(lv)


def normalizing_constant(d: int) -> LogMeasure:
    """Total mass sqrt(2^d) / (2^d - 1)! of the induced measure."""
    d = _check_dimension(d, dense=False)
    try:
        return LogMeasure(0.5 * d * LN2 - math.lgamma(1 << d))
    except OverflowError:
        raise _overflow("log (2^d - 1)!", d) from None


def dirichlet_pdf(p: SumPmf) -> float:
    """Density of the normalized induced law at p: Dirichlet with alpha_k = C(d,k).

    It is l(p) (2^d - 1)!, as Gamma(alpha_k) = n_k! and the alpha_k sum to
    2^d: with respect to Lebesgue measure on the d free coordinates, and 0
    wherever a vanishing p_k carries alpha_k > 1.  Stirling's form of each
    lgamma (a = C(d, k), N = 2^d, u = N p_k / a - 1, c = log sqrt(2 pi)) makes
    its log the fsum of a (log(1 + u) - u) <= 0 and 0.5 log a - r(a) - log p_k
    over 0 < k < d, the exact N sum_k p_k - N and (3/2) log N - (d - 2) c + r(N),
    so no terms of size N log N cancel.  Refused where the pdf or a term of its
    log overflows a float.
    """
    d, logs = p.d, _level_logs(p.values, p._log_masses)
    if any(not p.values[k] and k not in logs for k in range(1, d)):
        return 0.0
    try:
        big_n, top, bottom = 1 << d, 0, 1  # N sum_k p_k = top / bottom
        terms = [1.5 * d * LN2 - (d - 2) * _HALF_LOG_2PI + _stirling_remainder(big_n)]
        for k, (_, half_log, _, a, r) in enumerate(_blocks(d)[0], 1):
            num, den = p.values[k].as_integer_ratio()  # so u and N p_k / a round once
            log_p = logs[k] if k in logs else math.log(num / den)
            top_k, bottom_k = big_n * num, a * den  # N p_k / a
            u = (top_k - bottom_k) / bottom_k
            if -0.25 < u < 0.25:  # log(1 + u) - u = -u^2 (1/2 - u/3 + ...), by Horner's rule to |u|^j < 2^-54:
                kl, e = 0.0, -math.frexp(u)[1] or 54  # |u| < 2^-e; u = 0 takes one term
                for j in range(2 + 54 // e, 1, -1):
                    kl = 1 / j - u * kl
                kl *= -u * u
            else:  # log(N p_k / a) - u; from log p_k where N p_k / a underflows
                ratio = top_k / bottom_k
                kl = (math.log(ratio) if ratio >= _TINY else log_p + math.log(big_n / a)) - u
            terms += (a * kl, half_log - r, -log_p)
            top, bottom = top * den + top_k * bottom, bottom * den
        lv = math.fsum(terms + [(top - big_n * bottom) / bottom])
    except OverflowError:
        raise _overflow("a term of the log Dirichlet pdf", d) from None
    if lv > _LOG_MAX:
        raise _overflow("the Dirichlet pdf", d)
    return math.exp(lv)


def maximal_pmf(d: int) -> SumPmf:
    """The sum pmf whose fiber has the largest measure: the Dirichlet mode.

    Entries (C(d,k) - 1) / (2^d - d - 1), exact rationals.  Undefined for
    d < 2, where every fiber is a point set of measure 1.
    """
    d = _as_int(d, "dimension")
    if d < 2:
        raise ValueError("the maximal pmf needs d >= 2; below that all fibers have equal measure")
    denom = (1 << d) - d - 1
    return SumPmf(tuple(Fraction(math.comb(d, k) - 1, denom) for k in range(d + 1)))


def _gaps(p: SumPmf, q: SumPmf) -> list:
    """|p_k - q_k| for each k.  When both pmfs are exact so are the gaps (a
    float zero enters as 0), and a distance is rounded once, at the end."""
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    if p.exact and q.exact:
        return [abs((a or 0) - (b or 0)) for a, b in zip(p.values, q.values)]
    return [abs(float(a) - float(b)) for a, b in zip(p.values, q.values)]


def dist_tv(p: SumPmf, q: SumPmf) -> float:
    """Total variation distance, half the l1 gap of the sum pmfs."""
    return float(_total(_gaps(p, q)) / 2)


def dist_sup(p: SumPmf, q: SumPmf) -> float:
    """Largest coordinate gap between two sum pmfs."""
    return float(max(_gaps(p, q)))
