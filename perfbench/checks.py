"""Output checks and references that do not use the package under test.

Each check returns None when the output is right, or (status, detail) with
status one of:
  wrong   -- the output contradicts an exact identity or lies outside its
             stated error from an independent reference;
  se_zero -- a Monte Carlo estimate reported with std_error 0, which no
             random estimate can honestly claim;
  error   -- an exception, a non-zero exit code or a refusal.
Every status counts as a failed job; only `wrong` makes a run incorrect.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

LN2 = math.log(2.0)
DENSE_TOL = 1e-12   # sum-law tolerance for float carriers
FLOAT_RTOL = 1e-9   # closed-form float outputs against the reference
SE_WIDTH = 4.0      # combined standard errors allowed for an estimate


def popcount(i: int) -> int:
    return bin(i).count("1")


@lru_cache(maxsize=None)
def popcounts(d: int) -> np.ndarray:
    idx = np.arange(1 << d, dtype=np.int64)
    pc = np.zeros(1 << d, dtype=np.int64)
    for j in range(d):
        pc += (idx >> j) & 1
    pc.flags.writeable = False
    return pc


@lru_cache(maxsize=None)
def level_lists(d: int) -> tuple[tuple[int, ...], ...]:
    """Indices of each level in increasing order, by a plain popcount loop."""
    out: list[list[int]] = [[] for _ in range(d + 1)]
    for i in range(1 << d):
        out[popcount(i)].append(i)
    return tuple(tuple(v) for v in out)


def close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _wrong(detail: str):
    return ("wrong", detail)


# ------------------------------------------------------------ exact identities

def joint_equations(values, p, theta) -> str | None:
    """Why `values` (exact masses over {0,1}^d) is not in the fiber, or None."""
    d = len(theta)
    if len(values) != 1 << d:
        return f"{len(values)} masses for d={d}"
    levels = [Fraction(0)] * (d + 1)
    means = [Fraction(0)] * d
    for i, m in enumerate(values):
        if not isinstance(m, (int, Fraction)):
            return f"inexact mass {m!r} at {i}"
        if m < 0:
            return f"negative mass {m} at {i}"
        if not m:
            continue
        levels[popcount(i)] += m
        for j in range(d):
            if i >> j & 1:
                means[j] += m
    if levels != list(p):
        return "level sums differ from p"
    if means != list(theta):
        return "coordinate means differ from theta"
    return None


def check_feasible_point(job, witness, feasible_ref: bool):
    p = [Fraction(v) for v in job["p"]]
    theta = [Fraction(v) for v in job["theta"]]
    if (witness is not None) != feasible_ref:
        return _wrong(f"verdict {'feasible' if witness is not None else 'infeasible'}, "
                      f"closed form says {'feasible' if feasible_ref else 'infeasible'}")
    if witness is None:
        return None
    why = joint_equations(witness, p, theta)
    return _wrong(f"witness: {why}") if why else None


def check_vertices(job, vertices):
    p = [Fraction(v) for v in job["p"]]
    theta = [Fraction(v) for v in job["theta"]]
    if not vertices:
        return _wrong("no vertex on a fiber built from a member")
    if len(set(vertices)) != len(vertices):
        return _wrong("duplicate vertices")
    for v in vertices:
        why = joint_equations(v, p, theta)
        if why:
            return _wrong(f"vertex: {why}")
    return None


def check_moment_bounds(job, bounds):
    lower, upper = (Fraction(b) for b in bounds)
    theta = [Fraction(v) for v in job["theta"]]
    subset = job["subset"]
    moment = Fraction(job["moment"])
    frechet = max(Fraction(0), sum(theta[j - 1] for j in subset) - (len(subset) - 1))
    if not lower <= moment <= upper:
        return _wrong(f"member moment {moment} outside [{lower}, {upper}]")
    if lower < frechet or upper > min(theta[j - 1] for j in subset):
        return _wrong(f"[{lower}, {upper}] outside the Frechet range")
    return None


def mean_feasible(p, theta) -> bool:
    """Closed-form test: theta is a mean vector of the fiber over p.

    The reachable means form the Minkowski sum of the scaled hypersimplices
    p_k * Delta(d, k), the base polytope of F(s) = sum_k p_k min(s, k); so
    theta is feasible iff sum(theta) = F(d) and each top-s sum is <= F(s).
    """
    d = len(theta)
    if any(not 0 <= t <= 1 for t in theta):
        return False
    top = sorted(theta, reverse=True)
    acc = Fraction(0)
    for s in range(1, d + 1):
        acc += top[s - 1]
        cap = sum((pk * min(s, k) for k, pk in enumerate(p)), Fraction(0))
        if acc > cap or (s == d and acc != cap):
            return False
    return True


# ------------------------------------------------------------ CLI closed forms

def _records(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def log_ambient(p: list[float]) -> float | None:
    d = len(p) - 1
    total = 0.0
    for k, pk in enumerate(p):
        n = math.comb(d, k) - 1
        if n == 0:
            continue
        if pk == 0:
            return None
        total += n * math.log(pk) + 0.5 * math.log(n + 1) - math.lgamma(n + 1)
    return total


def log_density(p: list[float]) -> float | None:
    d = len(p) - 1
    total = 0.0
    for k, pk in enumerate(p):
        n = math.comb(d, k) - 1
        if n == 0:
            continue
        if pk == 0:
            return None
        total += n * math.log(pk) - math.lgamma(n + 1)
    return total


def dirichlet_pdf(p: list[float]) -> float:
    d = len(p) - 1
    lv = math.lgamma(1 << d)
    for k, pk in enumerate(p):
        a = math.comb(d, k)
        lv -= math.lgamma(a)
        if a > 1:
            if pk == 0:
                return 0.0
            lv += (a - 1) * math.log(pk)
    return math.exp(lv)


def shannon(masses) -> float:
    return -math.fsum(m * math.log(m) for m in masses if m > 0)


def log_normalizing_constant(d: int) -> float:
    return 0.5 * d * LN2 - math.lgamma(1 << d)


def check_cli(job, rc: int, text: str):
    if rc != 0:
        return ("error", f"exit code {rc}")
    cmd = job["command"]
    if cmd == "extremals":
        return _check_extremals(job, text)
    if cmd == "mode":
        d = job["d"]
        got = json.loads(text)["p"]
        want = [(math.comb(d, k) - 1) / ((1 << d) - d - 1) for k in range(d + 1)]
        return None if all(close(a, b, 1e-15) for a, b in zip(got, want)) and len(got) == d + 1 \
            else _wrong("mode pmf")
    if cmd == "bin-vs-mode":
        return _check_bin_vs_mode(job, json.loads(text))
    if cmd == "binomial-scan":
        return _check_binomial_scan(job, json.loads(text))
    if cmd == "sample":
        return _check_sample(job, text)
    exact = [Fraction(v) for v in job["p"]]
    p = [float(v) for v in exact]
    rec = json.loads(text)
    if cmd == "bounds":
        order, d = job["order"], job["d"]
        ok = Fraction(rec["lower"]) == exact[d] and Fraction(rec["upper"]) == sum(exact[order:])
        return None if ok else _wrong(f"bounds {rec}")
    h = shannon(p)
    if cmd == "entropy-bounds":
        d = job["d"]
        hi = h + math.fsum(pk * math.log(math.comb(d, k)) for k, pk in enumerate(p) if pk > 0)
        scale = 1 / LN2 if job["bits"] else 1.0
        ok = close(rec["min"], h * scale) and close(rec["max"], hi * scale)
        return None if ok else _wrong(f"entropy bounds {rec}")
    want = {"log_density": log_density(p), "dirichlet_pdf": dirichlet_pdf(p)}
    if cmd == "measure":
        want.update(log_ambient=log_ambient(p), log_intrinsic=log_ambient(p),
                    log_normalizing_constant=log_normalizing_constant(len(p) - 1))
    else:
        want["entropy_nats"] = h
    bad = [k for k, v in want.items() if not close(rec[k], v)]
    return _wrong(f"{cmd} fields {bad}") if bad else None


def _check_extremals(job, text):
    d, limit = job["d"], job["limit"]
    p = [Fraction(v) for v in job["p"]]
    levels = level_lists(d)
    recs = _records(text)
    if len(recs) != limit:
        return _wrong(f"{len(recs)} vertices for limit {limit}")
    seen = set()
    for rec in recs:
        sigma = tuple(rec["sigma"])
        if len(sigma) != d + 1 or sigma in seen:
            return _wrong(f"bad or repeated sigma {sigma}")
        seen.add(sigma)
        want = sorted((levels[k][sigma[k] - 1], p[k]) for k in range(d + 1) if p[k])
        got = sorted((int(i), Fraction(m)) for i, m in rec["pmf"]["atoms"])
        if got != want:
            return _wrong(f"vertex for sigma {sigma} has atoms {got}")
    return None


def _check_bin_vs_mode(job, rows):
    if [r["d"] for r in rows] != list(range(2, job["dmax"] + 1)):
        return _wrong("bin-vs-mode rows")
    for r in rows:
        d = r["d"]
        den = (1 << d) - d - 1
        gap = 0.0
        sup = Fraction(0)
        for k in range(d + 1):
            c = math.comb(d, k)
            sup = max(sup, abs(Fraction(c, 1 << d) - Fraction(c - 1, den)))
            if 0 < k < d:
                # log(pM_k / b_k) from the exact ratio minus one.
                gap += (c - 1) * math.log1p(float(Fraction(c * (d + 1) - (1 << d), c * den)))
        if not (close(r["d_sup"], float(sup), 1e-12) and close(r["log_measure_gap"], gap)):
            return _wrong(f"bin-vs-mode at d={d}: {r}")
    return None


def _check_binomial_scan(job, rows):
    d, points = job["d"], job["points"]
    if len(rows) != points:
        return _wrong("binomial-scan rows")
    for j, r in enumerate(rows):
        t = j / (points - 1)
        if r["theta"] != t:
            return _wrong(f"theta {r['theta']} at row {j}")
        if t in (0.0, 1.0):
            want = None
        else:
            logs = [math.log(math.comb(d, k)) + k * math.log(t) + (d - k) * math.log1p(-t)
                    for k in range(d + 1)]
            shift = max(logs)
            norm = shift + math.log(math.fsum(math.exp(v - shift) for v in logs))
            want = log_ambient([math.exp(v - norm) for v in logs])
        if not close(r["log_measure"], want, 1e-8):
            return _wrong(f"binomial-scan at theta={t}: {r['log_measure']} vs {want}")
    return None


# ------------------------------------------------------------ dense carriers

@lru_cache(maxsize=None)
def _level_order(d: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(popcounts(d), kind="stable")
    bounds = np.cumsum([math.comb(d, k) for k in range(d + 1)])[:-1]
    return order, bounds


def level_sums(values: np.ndarray, d: int) -> list[float]:
    """Exactly rounded per-level sums (fsum over each level)."""
    order, bounds = _level_order(d)
    return [math.fsum(seg.tolist()) for seg in np.split(values[order], bounds)]


def check_sum_law(values: np.ndarray, p, d: int, sums=None) -> str | None:
    if values.shape != (1 << d,):
        return f"{values.shape[0]} entries for d={d}"
    if values.min() < 0:
        return "negative mass"
    sums = level_sums(values, d) if sums is None else sums
    gap = max(abs(a - b) for a, b in zip(sums, p))
    return None if gap <= DENSE_TOL else f"sum law off by {gap:.3g}"


def check_build(job, values: np.ndarray, sums):
    d = job["d"]
    if job["kind"] == "sample_Fd_uniform":
        if values.shape != (1 << d,) or values.min() < 0:
            return _wrong("Fd draw shape or sign")
        total = math.fsum(sums)
        return None if abs(total - 1) <= DENSE_TOL else _wrong(f"Fd draw sums to {total!r}")
    why = check_sum_law(values, job["p"], d, sums)
    if why:
        return _wrong(why)
    if job["kind"] == "exchangeable_pmf":
        share = np.array([job["p"][k] / math.comb(d, k) for k in range(d + 1)])[popcounts(d)]
        if np.abs(values - share).max() > DENSE_TOL * share.max():
            return _wrong("exchangeable pmf is not level-wise uniform")
    return None


def check_read(job, build, values: np.ndarray, sums, result):
    d, op = build["d"], job["op"]
    if op == "sum_map":
        want = sums
        gap = max(abs(a - float(b)) for a, b in zip(want, result))
        return None if len(result) == d + 1 and gap <= DENSE_TOL else _wrong(f"sum_map off by {gap:.3g}")
    if op == "membership":
        return None if result is True else _wrong("member of its own fiber reported outside")
    if op == "decompose":
        levels = level_lists(d)
        p = build["p"]
        for k in range(d + 1):
            want = values[list(levels[k])] / p[k] if p[k] > 0 else np.empty(0)
            got = np.asarray(result[k], dtype=float)
            if got.shape != want.shape or (got.size and np.abs(got - want).max() > 1e-9):
                return _wrong(f"decompose block {k}")
        return None
    if op == "cross_moment":
        mask = sum(1 << (j - 1) for j in job["subset"])
        idx = np.flatnonzero((np.arange(1 << d) & mask) == mask)
        want = math.fsum(values[idx].tolist())
        return None if abs(float(result) - want) <= DENSE_TOL else _wrong("cross moment")
    if op == "entropy":
        nz = values[values > 0]
        want = -float(np.sum(nz * np.log(nz)))
        return None if close(result, want) else _wrong(f"entropy {result} vs {want}")
    raise ValueError(f"unknown read {op!r}")


def _check_sample(job, text):
    recs = _records(text)
    head, draws = recs[0], recs[1:]
    if head.get("n") != job["n"] or head.get("d") != job["d"] or len(draws) != job["n"]:
        return _wrong(f"sample header {head} with {len(draws)} draws")
    for rec in draws:
        why = check_sum_law(np.asarray(rec["values"], dtype=float), job["p"], job["d"])
        if why:
            return _wrong(f"sample draw: {why}")
    return None


# ------------------------------------------------------------ Monte Carlo

def in_ball(X: np.ndarray, p, eps: float, metric: str) -> np.ndarray:
    diff = np.abs(X - np.asarray(p, dtype=float))
    if metric == "sup":
        return diff.max(axis=1) <= eps
    return 0.5 * diff.sum(axis=1) <= eps


# A ball around a seeded Dirichlet centre can sit far in the tail, with a
# reference mass near 1e-6.  Such a job gets more draws of its own until its
# reference has REF_MIN_HITS hits, or REF_MAX_DRAWS draws in all.
REF_MIN_HITS = 30
REF_MAX_DRAWS = 16_000_000


def dirichlet_references(jobs, seed: int, draws_for) -> dict[int, tuple[int, int]]:
    """Hit counts of Dirichlet(C(d,k)) draws in each job's ball: {id: (hits, N)}.

    One stream of draws per dimension is shared by that dimension's jobs and
    consumed in chunks, so memory stays small.  A job left with fewer than
    REF_MIN_HITS hits is topped up from a stream of its own.
    """
    by_d: dict[int, list] = {}
    for job in jobs:
        by_d.setdefault(job["d"], []).append(job)
    out = {}
    for d, group in sorted(by_d.items()):
        alpha = np.array([math.comb(d, k) for k in range(d + 1)], dtype=float)
        rng = np.random.default_rng([seed, 99, d])
        total = draws_for(d)
        hits = {job["id"]: 0 for job in group}
        done = 0
        while done < total:
            X = rng.dirichlet(alpha, size=min(20_000, total - done))
            done += X.shape[0]
            for job in group:
                hits[job["id"]] += int(in_ball(X, job["p"], job["eps"], job["metric"]).sum())
        for job in group:
            h, n = hits[job["id"]], total
            own = np.random.default_rng([seed, 99, d, job["id"]])
            while h < REF_MIN_HITS and n < REF_MAX_DRAWS:
                X = own.dirichlet(alpha, size=min(100_000, REF_MAX_DRAWS - n))
                n += X.shape[0]
                h += int(in_ball(X, job["p"], job["eps"], job["metric"]).sum())
            out[job["id"]] = (h, n)
    return out


def check_neighborhood(job, rc: int, text: str, ref: tuple[int, int]):
    if rc != 0:
        return ("error", f"exit code {rc}")
    rec = json.loads(text)
    if not rec["std_error"] > 0:
        return ("se_zero", f"std_error 0 with log_estimate {rec['log_estimate']}")
    hits, total = ref
    if hits < 10:
        return ("error", f"reference unresolved ({hits} hits in {total})")
    d = job["d"]
    q = hits / total
    ref_log = log_normalizing_constant(d) + math.log(q)
    se_ref = math.sqrt((1 - q) / hits)
    rse = rec["std_error"] / rec["estimate"]
    gap = abs(rec["log_estimate"] - ref_log)
    if gap > SE_WIDTH * math.hypot(rse, se_ref):
        return _wrong(f"log estimate {rec['log_estimate']:.6g} vs reference {ref_log:.6g} "
                      f"(rse {rse:.3g}, reference se {se_ref:.3g})")
    return None


def region_volume_reference(job) -> float:
    """Exact log surface volume of the sup-region, by inclusion-exclusion.

    vol{x in box, sum(x) <= t} = sum_S (-1)^|S| (t - L - w(S))_+^d / d!
    over subsets S of the d free coordinates, evaluated in exact rationals
    from the float window ends.
    """
    p, eps = job["p"], job["eps"]
    d = len(p) - 1
    lo = [max(v - eps, 0.0) for v in p]
    hi = [min(v + eps, 1.0) for v in p]
    lower = sum((Fraction(v) for v in lo[:d]), Fraction(0))
    widths = [Fraction(h) - Fraction(low) for low, h in zip(lo[:d], hi[:d])]

    def below(t: Fraction) -> Fraction:
        acc = Fraction(0)
        for mask in range(1 << d):
            shift = t - lower - sum((widths[j] for j in range(d) if mask >> j & 1), Fraction(0))
            if shift > 0:
                acc += (-1) ** popcount(mask) * shift ** d
        return acc / math.factorial(d)

    vol = below(1 - Fraction(lo[d])) - below(1 - Fraction(hi[d]))
    return 0.5 * math.log(d + 1) + math.log(vol)


def check_region_volume(job, report, ref_log: float):
    log_value, se, value = report
    if not se > 0:
        return ("se_zero", "region volume with std_error 0")
    rse = se / value
    if abs(log_value - ref_log) > SE_WIDTH * rse:
        return _wrong(f"region volume log {log_value:.6g} vs exact {ref_log:.6g} (rse {rse:.3g})")
    return None


def check_chain(job, points: np.ndarray):
    p, eps = np.asarray(job["p"]), job["eps"]
    if points.shape != (job["m"], job["d"] + 1):
        return _wrong(f"chain shape {points.shape}")
    if np.abs(points.sum(axis=1) - 1).max() > DENSE_TOL:
        return _wrong("chain state off the simplex")
    if np.abs(points - p).max() > eps + DENSE_TOL:
        return _wrong("chain state outside the sup ball")
    return None
