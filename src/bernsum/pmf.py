"""Probability mass functions on {0,...,d} and on {0,1}^d.

Three carriers: SumPmf (a point of the d-simplex of sum laws), JointPmf
(dense over the 2^d binary vectors, reverse-lex indexed), and SparseJointPmf
(support-indexed, the natural carrier for extremal pmfs which have at most
d+1 atoms).  Values may be floats or exact Fractions.  Nonzero masses that
are all exact must sum to exactly 1, float zeros beside them or not, so a sum
pmf and each of its vertices meet one rule; else the sum is 1 within PROB_TOL.
Float totals, cross moments and entropies are correctly rounded sums, the
value math.fsum returns; on dense carriers they are computed exactly in
numpy.  sum_map's level masses are numpy's bincount sums.

JSON forms: SumPmf is a bare array, JointPmf is {"d": ..., "values": [...]},
SparseJointPmf is {"d": ..., "atoms": [[index, mass], ...]}.  Exact values
serialize as "num/den" strings.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import ClassVar, Iterable, Iterator, Union

import numpy as np

from .indexing import _as_int, _check_dimension, _popcounts

PROB_TOL = 1e-12

Number = Union[int, float, Fraction]


def _is_exact(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _not_bool(v, what: str):
    """v itself; a bool (numpy's too) is refused, as as_number refuses it."""
    if isinstance(v, (bool, np.bool_)):
        raise ValueError(f"{what} must be a number, got {v!r}")
    return v


def as_number(v) -> Number:
    """Coerce a JSON-ish scalar ("num/den" strings allowed) to int/float/Fraction.

    Every integer type (numpy's included) becomes an int; bools are refused."""
    if isinstance(v, str):
        num, slash, den = v.partition("/")
        try:
            # Plain ASCII "num/den" skips Fraction's string grammar; it gives the same value.
            if slash and v.isascii() and num.isdigit() and den.isdigit():
                return Fraction(int(num), int(den))
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"not a probability value: {v!r} has a zero denominator") from None
    if isinstance(v, (float, Fraction)):
        return v
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    raise ValueError(f"not a probability value: {v!r}")


def _total(masses: Iterable[Number]) -> Number:
    """Exact sum when every nonzero mass is an int or Fraction, else the
    correctly rounded float sum; zeros decide only when every mass is zero."""
    if not isinstance(masses, (list, tuple)):
        masses = list(masses)
    if not all(map(_is_exact, masses)):
        # A zero adds nothing to fsum's correctly rounded sum, so float input
        # is summed whole, after a scan that stops at its first nonzero float.
        if not all(map(_is_exact, filter(None, masses))) or not any(masses):
            return math.fsum(masses)
        masses = [m for m in masses if _is_exact(m)]
    if not any(isinstance(m, Fraction) for m in masses):
        return sum(masses)
    # The numerators over the common denominator summed as integers, reduced once.
    den = math.lcm(*[m.denominator for m in masses])
    return Fraction(sum([m.numerator * (den // m.denominator) for m in masses]), den)


def _check_normalized(total: Number, what: str) -> None:
    # Written as `not ... <=` so that a NaN total fails too.
    if (total != 1) if _is_exact(total) else not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"{what} violates normalization: sum {total!r} != 1")


def _validate_masses(values: Iterable[Number], what: str) -> tuple[Number, ...]:
    vals = tuple(as_number(v) for v in values)
    for v in vals:
        if (v.numerator if isinstance(v, Fraction) else v) < 0:
            raise ValueError(f"{what} violates nonnegativity: entry {v}")
    _check_normalized(_total(vals), what)
    return vals


_FSUM_BLOCK = 1 << 16
_BINS = 2099  # _fsum's bin b holds the integer mantissas m of entries m * 2^(b - 1127)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _fsum(a: np.ndarray) -> float:
    """math.fsum(a.tolist()), the correctly rounded sum, computed exactly in numpy.

    np.frexp writes each entry as m * 2^(e - 53), m a signed 53-bit integer;
    the halves m >> 26 and m & (2^26 - 1) go into per-exponent float64 bins,
    whose totals are integers below 2^27 * a.size < 2^53, so exact.  One
    int/int true division, which Python rounds correctly, rounds their sum.
    Non-finite entries, 2^26 or more of them, magnitudes from 2^996 (where
    fsum's partials may overflow) and an exact zero (whose sign is fsum's)
    go to math.fsum, fed in blocks so that no list of 2^d floats is built.
    """
    if 0 < a.size < 1 << 26 and -2.0**996 < a.min() and a.max() < 2.0**996:
        bins = np.zeros((2, _BINS))
        for i in range(0, a.size, _FSUM_BLOCK):
            frac, e = np.frexp(a[i:i + _FSUM_BLOCK])
            m = (frac * 2.0**53).astype(np.int64)
            e += 1074
            bins[0] += np.bincount(e, m >> 26, _BINS)
            bins[1] += np.bincount(e, m & (1 << 26) - 1, _BINS)
        nz = np.flatnonzero(bins.any(axis=0))
        total = sum(((int(h) << 26) + int(l)) << b for b, h, l in zip(nz.tolist(), *bins[:, nz].tolist()))
        if total:
            return total / (1 << 1127)
    blocks = (a[i:i + _FSUM_BLOCK].tolist() for i in range(0, a.size, _FSUM_BLOCK))
    return math.fsum(chain.from_iterable(blocks))


def _dense_masses(values, copy: bool = True) -> tuple[Number, ...] | np.ndarray:
    """JointPmf storage: the validated tuple, float zeros as int 0, when every
    nonzero entry is an int or Fraction, else a read-only float64 copy; a 1-D
    float64 array is validated in bulk, made read-only in place if not copy.

    The bulk check sums blocks of 1024 masses in numpy and adds the block
    sums with math.fsum, to F.  Any recursive sum of n terms is within
    gamma_{n-1} = (n-1)u / (1 - (n-1)u), u = 2^-53, times their absolute sum
    of its exact value (Higham, ch. 3).  With fsum's roundings of F and of
    the exact total S to T, |T - F| <= (2u + gamma_1023 (1 + u)) S < 2^-42
    when |F - 1| <= PROB_TOL, as S < 1.01 then; so |F - 1| <= PROB_TOL - 2^-42
    accepts as T would (F - 1 and T - 1 are exact there).  Any
    other F, or a mass above 1, where a block sum might overflow, is decided
    on T = _fsum, so a refusal names fsum's total.  One numpy sum of 2^20
    masses would need gamma_{2^20 - 1} ~ 1.2e-10, too loose for PROB_TOL.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
        arr = values.copy() if copy else values
        if arr.size and arr.min() < 0:
            raise ValueError(f"JointPmf violates nonnegativity: entry {arr.min()}")
        if arr.size and arr.max() <= 1.0:
            cut = arr.size & -1024
            sums = arr[:cut].reshape(-1, 1024).sum(axis=1).tolist() + [arr[cut:].sum()]
            if abs(math.fsum(sums) - 1.0) <= PROB_TOL - 2.0**-42:
                return _read_only(arr)
        _check_normalized(_fsum(arr), "JointPmf")
        return _read_only(arr)
    vals = _validate_masses(values, "JointPmf")
    if all(_is_exact(v) for v in vals):
        return vals
    if all(_is_exact(v) for v in vals if v):  # SumPmf.exact's rule
        return tuple(v if _is_exact(v) else 0 for v in vals)
    return _read_only(np.array(vals, dtype=float))


def _num_to_json(v: Number):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


@dataclass(frozen=True)
class SumPmf:
    """Pmf p = (p_0, ..., p_d) of a sum of d Bernoulli coordinates."""

    values: tuple[Number, ...]
    # log p_k at the levels whose floats cannot give it, set by a builder
    # that knows those masses (binomial_pmf); polytope_measure and density_l
    # read it in place of log(float(p_k)).
    _log_masses: ClassVar[dict[int, float] | None] = None

    def __init__(self, values: Iterable[Number]):
        vals = _validate_masses(values, "SumPmf")
        if len(vals) < 2:
            raise ValueError("SumPmf needs at least d+1 = 2 entries")
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return len(self.values) - 1

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, v in enumerate(self.values) if v > 0)

    @property
    def exact(self) -> bool:
        """Every nonzero mass is an int or Fraction: _total's rule, so float zeros do not count."""
        return all(_is_exact(v) for v in self.values if v)

    def mean(self) -> Number:
        return _total(k * v for k, v in enumerate(self.values))

    @cached_property
    def array(self) -> np.ndarray:
        return _read_only(np.array(self.values, dtype=float))

    def to_json_obj(self):
        return [_num_to_json(v) for v in self.values]

    @classmethod
    def from_json_obj(cls, obj) -> "SumPmf":
        if not isinstance(obj, list):
            raise ValueError("SumPmf JSON form is an array of numbers")
        return cls(obj)


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Dense pmf over {0,1}^d in reverse-lex index order (guarded to d <= 20).

    Input whose nonzero masses are all ints and Fractions keeps a tuple (a
    float zero as int 0); any other is held as a read-only float64 ndarray,
    and then `values` is `array`.
    """

    d: int
    values: tuple[Number, ...] | np.ndarray

    def __init__(self, d: int, values: Iterable[Number]):
        self._set(_check_dimension(d), _dense_masses(values))

    @classmethod
    def _from_fresh(cls, d: int, values: np.ndarray) -> "JointPmf":
        """JointPmf(d, values) for a builder's own float64 array, which no one
        else holds: checked alike, made read-only in place, not copied."""
        self = object.__new__(cls)
        self._set(_check_dimension(d), _dense_masses(values, copy=False))
        return self

    def _set(self, d: int, vals: tuple[Number, ...] | np.ndarray) -> None:
        if len(vals) != 1 << d:
            raise ValueError(f"JointPmf for d={d} needs 2^d = {1 << d} entries, got {len(vals)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _with_validated_masses(cls, d: int, values: list[Number]) -> "JointPmf":
        """An exact pmf whose 2^d ints and Fractions the caller has proved
        nonnegative and summing to exactly 1 (an LP basic solution, a
        witness); stored as the tuple _dense_masses would keep."""
        self = object.__new__(cls)
        self._set(_check_dimension(d), tuple(values))
        return self

    def __eq__(self, other):
        if not isinstance(other, JointPmf):
            return NotImplemented
        if self.exact or other.exact:
            return self.d == other.d and tuple(self.values) == tuple(other.values)
        return self.d == other.d and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.d, tuple(self.values)))

    @property
    def exact(self) -> bool:
        return isinstance(self.values, tuple)

    @cached_property
    def array(self) -> np.ndarray:
        return _read_only(np.array(self.values, dtype=float)) if self.exact else self.values

    def atoms(self) -> Iterator[tuple[int, Number]]:
        if self.exact:
            return ((i, v) for i, v in enumerate(self.values) if v > 0)
        idx = np.flatnonzero(self.values > 0)
        return zip(idx.tolist(), self.values[idx].tolist())

    def to_json_obj(self):
        values = [_num_to_json(v) for v in self.values] if self.exact else self.values.tolist()
        return {"d": self.d, "values": values}

    @classmethod
    def from_json_obj(cls, obj) -> "JointPmf":
        if not isinstance(obj, dict) or "d" not in obj or "values" not in obj:
            raise ValueError('JointPmf JSON form is {"d": ..., "values": [...]}')
        return cls(obj["d"], obj["values"])


def _sorted_atoms(d: int, atoms: list[tuple[int, Number]]) -> tuple[tuple[int, Number], ...]:
    """The atoms sorted by index, refused unless the indices are distinct and in 0..2^d - 1."""
    pairs = tuple(sorted(atoms))
    if len({i for i, _ in pairs}) < len(pairs):
        dup = next(i for (i, _), (j, _) in zip(pairs, pairs[1:]) if i == j)
        raise ValueError(f"duplicate atom index {dup}")
    # Sorted, so the first and the last index bound the rest.
    for i, _ in pairs[:1] + pairs[-1:]:
        if not 0 <= i < 1 << d:
            raise ValueError(f"atom index {i} out of range for d={d}")
    return pairs


@dataclass(frozen=True)
class SparseJointPmf:
    """Support-indexed pmf over {0,1}^d; works for any d."""

    d: int
    atoms: tuple[tuple[int, Number], ...]

    def __init__(self, d: int, atoms: Iterable[tuple[int, Number]]):
        d = _check_dimension(d, dense=False)
        pairs = _sorted_atoms(d, [(_as_int(idx, "atom index"), as_number(mass)) for idx, mass in atoms])
        for _, mass in pairs:
            if mass <= 0:
                raise ValueError(f"atom masses must be positive, got {mass}")
        _check_normalized(_total(m for _, m in pairs), "SparseJointPmf")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "atoms", pairs)

    @classmethod
    def _with_validated_masses(cls, d: int, atoms: list[tuple[int, Number]]) -> "SparseJointPmf":
        """A vertex whose masses are the positive masses of a validated
        SumPmf, one per supported level.  _total decides exactness on the
        nonzero masses only, so SumPmf's normalization check is this
        carrier's: only the indices, which change, are checked here."""
        self = object.__new__(cls)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "atoms", _sorted_atoms(d, atoms))
        return self

    @property
    def exact(self) -> bool:
        return all(_is_exact(m) for _, m in self.atoms)

    def to_dense(self) -> JointPmf:
        _check_dimension(self.d)
        values = [0] * (1 << self.d) if self.exact else np.zeros(1 << self.d)
        for idx, mass in self.atoms:
            values[idx] = mass
        return JointPmf(self.d, values)

    def to_json_obj(self):
        return {"d": self.d, "atoms": [[i, _num_to_json(m)] for i, m in self.atoms]}

    @classmethod
    def from_json_obj(cls, obj) -> "SparseJointPmf":
        if not isinstance(obj, dict) or "d" not in obj or "atoms" not in obj:
            raise ValueError('SparseJointPmf JSON form is {"d": ..., "atoms": [[i, m], ...]}')
        return cls(obj["d"], [(i, m) for i, m in obj["atoms"]])


AnyJoint = Union[JointPmf, SparseJointPmf]
AnyPmf = Union[SumPmf, JointPmf, SparseJointPmf]


def _atoms(f: AnyJoint) -> Iterable[tuple[int, Number]]:
    """A joint carrier's (index, mass) pairs of positive mass."""
    return f.atoms() if isinstance(f, JointPmf) else f.atoms


def sum_map(f: AnyJoint) -> SumPmf:
    """Push a joint Bernoulli pmf through the coordinate-sum map."""
    d = f.d
    if isinstance(f, JointPmf) and not f.exact:
        return SumPmf(np.bincount(_popcounts(d), weights=f.values, minlength=d + 1).tolist())
    levels: list[Number] = [0] * (d + 1)
    for idx, mass in _atoms(f):
        levels[idx.bit_count()] += mass  # carriers hold validated int indices
    if not f.exact:
        levels = [float(v) for v in levels]
    return SumPmf(levels)


def _subset_mask(d: int, subset: Iterable[int]) -> int:
    """The index mask of a nonempty coordinate subset of {1, ..., d}."""
    coords = sorted(set(_as_int(j, "coordinate") for j in subset))
    if not coords:
        raise ValueError("cross_moment needs a nonempty coordinate subset")
    if coords[0] < 1 or coords[-1] > d:
        raise ValueError(f"coordinates {coords} out of range for d={d}")
    return sum(1 << (j - 1) for j in coords)


def cross_moment(f: AnyJoint, subset: Iterable[int]) -> Number:
    """E[X_{j1} ... X_{jk}] for coordinates subset of {1, ..., d}."""
    mask = _subset_mask(f.d, subset)
    if isinstance(f, JointPmf) and not f.exact:
        return _fsum(f.values[(np.arange(1 << f.d) & mask) == mask])
    picked = [mass for idx, mass in _atoms(f) if idx & mask == mask]
    return _total(picked) if picked else 0.0


def entropy(pmf: AnyPmf) -> float:
    """Shannon entropy in nats; zero atoms are skipped (0 log 0 = 0), and so
    is an exact mass whose float is 0, as its term underflows.  A point
    mass gives +0.0, as 0.0 - s does where -s would give -0.0."""
    if isinstance(pmf, JointPmf) and not pmf.exact:
        m = pmf.values[pmf.values > 0]
        return 0.0 - _fsum(m * np.log(m))
    masses = pmf.values if isinstance(pmf, SumPmf) else (m for _, m in _atoms(pmf))
    return 0.0 - math.fsum(f * math.log(f) for f in map(float, masses) if f)
