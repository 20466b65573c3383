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

from .pmf import SumPmf, _read_only, _total

LN2 = math.log(2.0)
_TINY = sys.float_info.min


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

    def __mul__(self, other: "LogMeasure") -> "LogMeasure":
        return LogMeasure(self.log_value + other.log_value)


def simplex_hausdorff(n: int, side_param: float) -> LogMeasure:
    """Surface measure p^n sqrt(n+1) / n! of the n-simplex scaled by p.

    A zero-dimensional simplex is a point and has measure 1 whatever p is.
    """
    if n < 0:
        raise ValueError(f"simplex dimension must be >= 0, got {n}")
    if side_param < 0:
        raise ValueError(f"side parameter must be >= 0, got {side_param}")
    if n == 0:
        return LogMeasure.one()
    if side_param == 0:
        return LogMeasure.zero()
    lv = n * math.log(float(side_param)) + 0.5 * math.log(n + 1) - math.lgamma(n + 1)
    return LogMeasure(lv)


@functools.cache
def _blocks(d: int) -> tuple[tuple[float, float, float], ...]:
    """Per level 0 < k < d: n_k = C(d, k) - 1, 0.5 log(n_k + 1) and log n_k!,
    each rounded as simplex_hausdorff rounds it.  Levels 0 and d are points.
    Where log n_k! is past the float range it is inf, so only a supported
    level that needs it overflows the sum.  This is the only per-d table:
    the density kernel reads it through _kernel_table."""
    rows = []
    for k in range(1, d):
        n = math.comb(d, k) - 1
        try:
            rows.append((float(n), 0.5 * math.log(n + 1), math.lgamma(n + 1)))
        except OverflowError:
            rows.append((0.0, 0.0, math.inf))
    return tuple(rows)


def _overflow(what: str, d: int) -> ValueError:
    return ValueError(f"{what} must be a finite float; at d = {d} it overflows")


def _level_logs(p: SumPmf) -> dict[int, float]:
    """log p_k at each level whose float mass cannot give it: a builder's
    _log_masses, and an exact mass below the normal floats, where
    log(float(p_k)) loses bits or fails, from its numerator and denominator.
    Every other level's log is its float's, -inf for an empty level."""
    logs = dict(p._log_masses or {})
    for k, v in enumerate(p.values):
        if float(v) <= _TINY and isinstance(v, Fraction) and 0 < v < _TINY:
            logs[k] = math.log(v.numerator) - math.log(v.denominator)
    return logs


def polytope_measure(p: SumPmf) -> dict[str, LogMeasure]:
    """Ambient and intrinsic Hausdorff measures of the fiber over p.

    Intrinsic multiplies the block measures simplex_hausdorff(n_k, p_k) over
    the support; the log terms are added in level order, from 0.0, so the
    sum is that product's log to the bit.  Each level's log is _level_logs'
    or its float's.  Ambient multiplies over every level, so, as levels 0
    and d are points, it is intrinsic when every level 0 < k < d is
    supported and zero otherwise.
    """
    d = p.d
    logs = [math.log(f) if (f := float(v)) > 0 else -math.inf for v in p.values]
    for k, lv in _level_logs(p).items():
        logs[k] = lv
    total, full = 0.0, True
    for (n, half_log, log_fact), lv in zip(_blocks(d), logs[1:d]):
        if lv > -math.inf:
            total += n * lv + half_log - log_fact
        else:
            full = False
    if not total > -math.inf:
        raise _overflow("a log fiber measure", d)
    intrinsic = LogMeasure(total)
    return {"ambient": intrinsic if full else LogMeasure.zero(), "intrinsic": intrinsic}


@functools.cache
def _kernel_table(d: int) -> tuple[np.ndarray, np.ndarray, float]:
    """_blocks(d) as _log_density_rows reads it: the columns of the levels
    0 < k < d, their n_k, and the sum of their log n_k! in level order."""
    rows = _blocks(d)
    n = np.array([row[0] for row in rows], dtype=float)
    return _read_only(np.arange(1, d)), _read_only(n), float(sum(row[2] for row in rows))


def _log_density_rows(X: np.ndarray, d: int, level_logs: dict[int, float] | None = None) -> np.ndarray:
    """log l(p) = sum_k n_k log p_k - log n_k! at each row of X (column k holds
    p_k; the d free coordinates will do), -inf where a level 0 < k < d is
    empty.  The terms are added level by level, as numpy reduces the
    column-major X[:, cols] of two or more rows, so no row's value depends on
    the rows beside it (numpy would sum a lone row pairwise).  level_logs
    maps a level to the log that replaces its column's, as _level_logs gives
    it."""
    cols, n, const = _kernel_table(d)
    with np.errstate(divide="ignore"):
        logs = np.log(X[:, cols])
    for k, lv in (level_logs or {}).items():
        if 0 < k < d:
            logs[:, k - 1] = lv
    terms = logs * n
    total = np.zeros(len(X))
    for column in terms.T:
        total += column
    return total - const


def density_l(p: SumPmf) -> LogMeasure:
    """Fiber-measure density prod_k p_k^{n_k} / n_k! with 0^0 = 1: zero when
    a level 0 < k < d is empty."""
    d, logs = p.d, _level_logs(p)
    if any(not p.values[k] and k not in logs for k in range(1, d)):
        return LogMeasure.zero()
    lv = float(_log_density_rows(p.array[None, :], d, logs)[0])
    if not lv > -math.inf:
        raise _overflow("a log fiber density", d)
    return LogMeasure(lv)


def _log_total_factorial(d: int) -> float:
    """log (2^d - 1)! = lgamma(2^d), the Dirichlet normalizer's factorial."""
    try:
        return math.lgamma(1 << d)
    except OverflowError:
        raise _overflow("log (2^d - 1)!", d) from None


def normalizing_constant(d: int) -> LogMeasure:
    """Total mass sqrt(2^d) / (2^d - 1)! of the induced measure."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return LogMeasure(0.5 * d * LN2 - _log_total_factorial(d))


def dirichlet_pdf(p: SumPmf) -> float:
    """Density of the normalized induced law at p: Dirichlet with alpha_k = C(d,k).

    It is l(p) (2^d - 1)!, as Gamma(alpha_k) = n_k! and the alpha_k sum to
    2^d: with respect to Lebesgue measure on the d free coordinates, and 0
    wherever a vanishing p_k carries alpha_k > 1.
    """
    return _dirichlet_pdf(density_l(p), p.d)


def _dirichlet_pdf(density: LogMeasure, d: int) -> float:
    """dirichlet_pdf from the fiber density l(p) already evaluated."""
    return (density * LogMeasure(_log_total_factorial(d))).value


def maximal_pmf(d: int) -> SumPmf:
    """The sum pmf whose fiber has the largest measure: the Dirichlet mode.

    Entries (C(d,k) - 1) / (2^d - d - 1), exact rationals.  Undefined for
    d < 2, where every fiber is a point set of measure 1.
    """
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
