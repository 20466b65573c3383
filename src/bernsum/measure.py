"""Hausdorff measures of the fibers and the induced law on the sum simplex.

Everything is carried in log space with an explicit zero flag: the ambient
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
    """A nonnegative real stored as its natural log, with exact zero."""

    log_value: float
    is_zero: bool = False

    @classmethod
    def from_value(cls, v: float) -> "LogMeasure":
        if v < 0:
            raise ValueError(f"measures are nonnegative, got {v}")
        if v == 0:
            return cls.zero()
        return cls(math.log(v))

    @classmethod
    def zero(cls) -> "LogMeasure":
        return cls(float("-inf"), True)

    @classmethod
    def one(cls) -> "LogMeasure":
        return cls(0.0)

    @property
    def log(self) -> float:
        return float("-inf") if self.is_zero else self.log_value

    @property
    def value(self) -> float:
        return 0.0 if self.is_zero else math.exp(self.log_value)

    def __mul__(self, other: "LogMeasure") -> "LogMeasure":
        if self.is_zero or other.is_zero:
            return LogMeasure.zero()
        return LogMeasure(self.log_value + other.log_value)

    def __truediv__(self, other: "LogMeasure") -> "LogMeasure":
        if other.is_zero:
            raise ZeroDivisionError("division by a zero measure")
        if self.is_zero:
            return LogMeasure.zero()
        return LogMeasure(self.log_value - other.log_value)


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
    level that needs it overflows the sum."""
    rows = []
    for k in range(1, d):
        n = math.comb(d, k) - 1
        try:
            rows.append((float(n), 0.5 * math.log(n + 1), math.lgamma(n + 1)))
        except OverflowError:
            rows.append((0.0, 0.0, math.inf))
    return tuple(rows)


def _level_log(v) -> float:
    """log p_k, -inf for an empty level.  An exact mass below the normal
    floats, where log(float(p_k)) loses bits or fails, takes it from its
    numerator and denominator."""
    f = float(v)
    if f > _TINY or not (isinstance(v, Fraction) and 0 < v < _TINY):
        return math.log(f) if f > 0 else -math.inf
    return math.log(v.numerator) - math.log(v.denominator)


def _underflowed_logs(p: SumPmf) -> dict[int, float]:
    """_level_log at each exact level below the normal floats: the logs that
    density_l puts in place of its float ones."""
    return {k: _level_log(v) for k, (v, f) in enumerate(zip(p.values, p.array.tolist()))
            if f <= _TINY and isinstance(v, Fraction) and 0 < v < _TINY}


def polytope_measure(p: SumPmf) -> dict[str, LogMeasure]:
    """Ambient and intrinsic Hausdorff measures of the fiber over p.

    Intrinsic multiplies the block measures simplex_hausdorff(n_k, p_k) over
    the support; the log terms are added in level order, from 0.0, so the
    sum is that product's log to the bit.  Each level's log is _level_log's,
    unless a builder set _log_masses.  Ambient multiplies over every level,
    so, as levels 0 and d are points, it is intrinsic when every level
    0 < k < d is supported and zero otherwise.
    """
    d = p.d
    logs = p._log_masses or [math.log(f) if (f := float(v)) > _TINY else _level_log(v) for v in p.values]
    total, full = 0.0, True
    for (n, half_log, log_fact), lv in zip(_blocks(d), logs[1:d]):
        if lv > -math.inf:
            total += n * lv + half_log - log_fact
        else:
            full = False
    if not total > -math.inf:
        raise ValueError(f"a log fiber measure must be a finite float; at d = {d} it overflows")
    intrinsic = LogMeasure(total)
    return {"ambient": intrinsic if full else LogMeasure.zero(), "intrinsic": intrinsic}


@functools.cache
def _fiber_table(d: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The levels 0 < k < d, the ones whose block dimension n_k = C(d, k) - 1
    is positive; their n_k; and the sum of their log n_k!."""
    n = np.array([math.comb(d, k) - 1 for k in range(1, d)], dtype=float)
    return _read_only(np.arange(1, d)), _read_only(n), float(sum(math.lgamma(v + 1.0) for v in n))


def _log_density_rows(X: np.ndarray, d: int, tiny: dict[int, float] | None = None) -> np.ndarray:
    """log l(p) = sum_k n_k log p_k - log n_k! at each row of X (column k holds
    p_k; the d free coordinates will do), -inf where a level 0 < k < d is
    empty.  The terms are added level by level, as numpy reduces the
    column-major X[:, cols] of two or more rows, so no row's value depends on
    the rows beside it (numpy would sum a lone row pairwise).  tiny maps a
    level to the log that replaces its column's, as _underflowed_logs gives it."""
    cols, n, const = _fiber_table(d)
    with np.errstate(divide="ignore"):
        logs = np.log(X[:, cols])
    for k, lv in (tiny or {}).items():
        if 0 < k < d:
            logs[:, k - 1] = lv
    terms = logs * n
    total = np.zeros(len(X))
    for column in terms.T:
        total += column
    return total - const


def density_l(p: SumPmf) -> LogMeasure:
    """Fiber-measure density prod_k p_k^{n_k} / n_k! with 0^0 = 1."""
    lv = float(_log_density_rows(p.array[None, :], p.d, _underflowed_logs(p))[0])
    return LogMeasure.zero() if lv == -math.inf else LogMeasure(lv)


def normalizing_constant(d: int) -> LogMeasure:
    """Total mass sqrt(2^d) / (2^d - 1)! of the induced measure."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return LogMeasure(0.5 * d * LN2 - math.lgamma(1 << d))


def dirichlet_pdf(p: SumPmf) -> float:
    """Density of the normalized induced law at p: Dirichlet with alpha_k = C(d,k).

    It is l(p) (2^d - 1)!, as Gamma(alpha_k) = n_k! and the alpha_k sum to
    2^d: with respect to Lebesgue measure on the d free coordinates, and 0
    wherever a vanishing p_k carries alpha_k > 1.
    """
    return (density_l(p) * LogMeasure(math.lgamma(1 << p.d))).value


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
