"""Seeded job lists for the three workloads.

Only the inputs depend on the seed (Dirichlet centres, rational instances,
sampler seeds).  Which calls run, at which d, n and limit, is fixed by
position, so every seed costs about the same and run-to-run spread measures
the program rather than the draw of instances.  Nothing here imports the
package under test.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import checks

WORKLOADS = ("mc", "exact", "dense")
# Calibration kernel per workload: mc is numpy-bound and runs on every
# usable CPU (the CLI's default --threads), the others run mostly in the
# interpreter (Fraction arithmetic, per-entry loops over 2^d masses).
KERNEL = {"mc": "numpy_threads", "exact": "python", "dense": "python"}


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _floats(a) -> list[float]:
    return [float(v) for v in a]


def binomial_half(d: int) -> list[Fraction]:
    return [Fraction(math.comb(d, k), 1 << d) for k in range(d + 1)]


def maximal(d: int) -> list[Fraction]:
    denom = (1 << d) - d - 1
    return [Fraction(math.comb(d, k) - 1, denom) for k in range(d + 1)]


def dirichlet_alpha(d: int) -> np.ndarray:
    return np.array([math.comb(d, k) for k in range(d + 1)], dtype=float)


def _normalised(a: np.ndarray) -> list[float]:
    a = np.asarray(a, dtype=float)
    return _floats(a / math.fsum(a.tolist()))


# ---------------------------------------------------------------- mc

MC_DIMS = (2, 3, 5, 8, 10, 16)
MC_EPS = (0.05, 0.1, 0.2)
MC_NS = (100_000, 150_000, 200_000, 300_000, 500_000, 1_000_000)
MC_CHAIN_DIMS = (3, 5, 8)
MC_PAIR_DIMS = (2, 5, 16)


def mc_jobs(seed: int, nproc: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    pos = 0
    for metric in ("sup", "tv"):
        for d in MC_DIMS:
            for eps in MC_EPS:
                centres = {
                    "b_half": _floats(binomial_half(d)),
                    "maximal": _floats(maximal(d)),
                    "dirichlet": _normalised(rng.dirichlet(dirichlet_alpha(d))),
                }
                for kind, p in centres.items():
                    n = MC_NS[pos % len(MC_NS)]
                    pos += 1
                    jobs.append(_nbhd(metric, d, eps, kind, p, n, int(rng.integers(2**62))))
    for d in MC_CHAIN_DIMS:
        for eps in MC_EPS:
            p = _normalised(rng.dirichlet(dirichlet_alpha(d)))
            jobs.append({"kind": "region_volume", "d": d, "eps": eps, "p": p,
                         "n": 200_000, "seed": int(rng.integers(2**62))})
            jobs.append({"kind": "hit_and_run", "d": d, "eps": eps, "p": _floats(binomial_half(d)),
                         "burn_in": 1000, "thin": 10, "m": 100, "seed": int(rng.integers(2**62))})
    # Same seeded spec at one thread and at every usable CPU: the outputs
    # must match bit for bit, and the time ratio is the thread speed-up.
    for pair, d in enumerate(MC_PAIR_DIMS):
        p = _normalised(rng.dirichlet(dirichlet_alpha(d)))
        s = int(rng.integers(2**62))
        for threads in (1, nproc):
            job = _nbhd("sup", d, 0.1, "dirichlet", p, 400_000, s, threads)
            job["pair"] = pair
            jobs.append(job)
    return _shuffled(jobs, rng)


def _nbhd(metric, d, eps, centre, p, n, seed, threads=None) -> dict:
    argv = ["neighborhood", "--p", repr_list(p), "--eps", repr(eps), "--metric", metric,
            "-n", str(n), "--seed", str(seed)]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return {"kind": "cli_neighborhood", "argv": argv, "d": d, "eps": eps, "metric": metric,
            "centre": centre, "p": p, "n": n, "threads": threads}


def repr_list(p) -> str:
    return "[" + ",".join(repr(float(v)) for v in p) + "]"


# ---------------------------------------------------------------- exact

DENOM = 64


def random_joint(rng, d: int) -> list[Fraction]:
    """A joint pmf on {0,1}^d with masses in multiples of 1/64."""
    units = rng.multinomial(DENOM, np.full(1 << d, 1.0 / (1 << d)))
    return [Fraction(int(u), DENOM) for u in units]


def sum_law_and_means(f: list[Fraction], d: int):
    p = [Fraction(0)] * (d + 1)
    theta = [Fraction(0)] * d
    for i, m in enumerate(f):
        if not m:
            continue
        p[bin(i).count("1")] += m
        for j in range(d):
            if i >> j & 1:
                theta[j] += m
    return p, theta


def _infeasible_variant(p, theta):
    """Pull p toward the two-point law with the same mean until theta no
    longer fits; fall back to breaking the mean equation."""
    d = len(theta)
    mu = sum((k * v for k, v in enumerate(p)), Fraction(0))
    lo = math.floor(mu)
    c = [Fraction(0)] * (d + 1)
    if mu == lo:
        c[lo] = Fraction(1)
    else:
        c[lo], c[lo + 1] = 1 - (mu - lo), mu - lo
    for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        q = [(1 - t) * a + t * b for a, b in zip(p, c)]
        if not checks.mean_feasible(q, theta):
            return q, theta
    bumped = list(theta)
    j = min(range(d), key=lambda i: bumped[i])
    bumped[j] += Fraction(1, DENOM)
    return p, bumped


def _strs(xs) -> list[str]:
    return [_frac(Fraction(x)) for x in xs]


def _rational_sum_law(rng, d: int, denom: int = 1 << 12) -> list[Fraction]:
    """A full-support exact sum pmf with denominator `denom`."""
    units = 1 + rng.multinomial(denom - (d + 1), np.full(d + 1, 1.0 / (d + 1)))
    return [Fraction(int(u), denom) for u in units]


def exact_jobs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    # feasible_point: exchangeable theta at b(1/2), then seeded instances,
    # feasible and infeasible.
    for d in range(3, 9):
        jobs.append(_feasible(binomial_half(d), [Fraction(1, 2)] * d, "exchangeable"))
    for d, count in ((3, 3), (4, 3), (5, 3), (6, 8), (7, 1)):
        for _ in range(count):
            p, theta = sum_law_and_means(random_joint(rng, d), d)
            jobs.append(_feasible(p, theta, "seeded"))
            q, bad = _infeasible_variant(p, theta)
            jobs.append(_feasible(q, bad, "seeded"))
    # Constrained vertices and moment bounds on generic instances.
    for d, count in ((3, 4), (4, 3)):
        for _ in range(count):
            p, theta = sum_law_and_means(random_joint(rng, d), d)
            jobs.append({"kind": "constrained_vertices", "d": d, "p": _strs(p), "theta": _strs(theta)})
    for d, count in ((3, 5), (4, 1)):
        for _ in range(count):
            f = random_joint(rng, d)
            p, theta = sum_law_and_means(f, d)
            size = int(rng.integers(2, d + 1))
            subset = sorted(int(j) + 1 for j in rng.choice(d, size=size, replace=False))
            mask = sum(1 << (j - 1) for j in subset)
            moment = sum((m for i, m in enumerate(f) if i & mask == mask), Fraction(0))
            jobs.append({"kind": "constrained_moment_bounds", "d": d, "p": _strs(p),
                         "theta": _strs(theta), "subset": subset, "moment": _frac(moment)})
    # Exact extremal streaming; the limits are log-spaced so latencies
    # spread smoothly from a few ms to about a hundred.
    n_ext = 60
    for i in range(n_ext):
        d = 8 + i % 5
        limit = round(20 * 50 ** (i / (n_ext - 1)))
        p = _strs(_rational_sum_law(rng, d))
        jobs.append({"kind": "cli", "command": "extremals", "d": d, "p": p, "limit": limit,
                     "argv": ["extremals", "--p", _json_strs(p), "--limit", str(limit)]})
    # Closed-form queries with "num/den" input.
    for i in range(8):
        d = 2 + (i * 18) // 7
        p = _strs(_rational_sum_law(rng, d))
        order = int(rng.integers(1, d + 1))
        jobs.append(_cli("bounds", d, p, ["--order", str(order)], order=order))
        bits = i % 2 == 1
        jobs.append(_cli("entropy-bounds", d, p, ["--bits"] if bits else [], bits=bits))
        jobs.append(_cli("measure", d, p, []))
        jobs.append(_cli("density", d, p, []))
    for i in range(5):
        d = 2 + i * 4
        jobs.append({"kind": "cli", "command": "mode", "d": d, "argv": ["mode", "--d", str(d)]})
        dmax = 10 + i * 10
        jobs.append({"kind": "cli", "command": "bin-vs-mode", "dmax": dmax,
                     "argv": ["bin-vs-mode", "--dmax", str(dmax)]})
        points = 51 + 50 * i
        jobs.append({"kind": "cli", "command": "binomial-scan", "d": d + 2, "points": points,
                     "argv": ["binomial-scan", "--d", str(d + 2), "--points", str(points)]})
    return _shuffled(jobs, rng)


def _feasible(p, theta, origin: str) -> dict:
    return {"kind": "feasible_point", "d": len(theta), "p": _strs(p), "theta": _strs(theta),
            "origin": origin}


def _json_strs(xs) -> str:
    return "[" + ",".join(f'"{x}"' for x in xs) + "]"


def _cli(command, d, p, extra, **params) -> dict:
    return {"kind": "cli", "command": command, "d": d, "p": p,
            "argv": [command, "--p", _json_strs(p), *extra], **params}


# ---------------------------------------------------------------- dense

DENSE_GROUP_DIMS = (12, 13, 14, 15, 16, 17)
DENSE_FD_DIMS = (12, 13, 14, 15, 16)
READS = ("sum_map", "membership", "decompose", "cross_moment", "entropy")


def dense_jobs(seed: int) -> list[dict]:
    """Groups of one carrier build followed by reads of that carrier.

    A group's jobs stay together so at most one large carrier is alive at a
    time; the groups themselves are shuffled.
    """
    rng = np.random.default_rng([seed, 3])
    groups = []

    def sum_law(d):
        return _normalised(rng.dirichlet(np.ones(d + 1)))

    def subset(d):
        size = int(rng.integers(1, 5))
        return sorted(int(j) + 1 for j in rng.choice(d, size=size, replace=False))

    def group(build: dict, reads) -> list[dict]:
        out = [build]
        for op in reads:
            r = {"kind": "read", "op": op}
            if op == "cross_moment":
                r["subset"] = subset(build["d"])
            out.append(r)
        return out

    for d in DENSE_GROUP_DIMS:
        groups.append(group({"kind": "exchangeable_pmf", "d": d, "p": sum_law(d)}, READS))
        groups.append(group({"kind": "sample_polytope_uniform", "d": d, "p": sum_law(d),
                             "seed": int(rng.integers(2**62))}, READS))
    # The largest carriers get fewer reads, to keep a pass near the others.
    groups.append(group({"kind": "exchangeable_pmf", "d": 18, "p": sum_law(18)},
                        ("sum_map", "decompose")))
    groups.append(group({"kind": "sample_polytope_uniform", "d": 18, "p": sum_law(18),
                         "seed": int(rng.integers(2**62))}, ("membership", "cross_moment", "entropy")))
    groups.append(group({"kind": "exchangeable_pmf", "d": 20, "p": sum_law(20)},
                        ("sum_map", "cross_moment")))
    for d in DENSE_FD_DIMS:
        groups.append(group({"kind": "sample_Fd_uniform", "d": d,
                             "seed": int(rng.integers(2**62))}, ("sum_map", "entropy")))
    for d, n in ((12, 6), (14, 3), (16, 1)):
        p = sum_law(d)
        groups.append([{"kind": "cli", "command": "sample", "d": d, "p": p, "n": n,
                        "argv": ["sample", "--p", repr_list(p), "-n", str(n),
                                 "--seed", str(int(rng.integers(2**62)))]}])
    order = rng.permutation(len(groups))
    jobs = []
    for g in order:
        gid = int(g)
        for job in groups[gid]:
            job["group"] = gid
            jobs.append(job)
    return _numbered(jobs)


def _shuffled(jobs, rng) -> list[dict]:
    return _numbered([jobs[int(i)] for i in rng.permutation(len(jobs))])


def _numbered(jobs) -> list[dict]:
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def make_jobs(workload: str, seed: int, nproc: int) -> list[dict]:
    if workload == "mc":
        return mc_jobs(seed, nproc)
    if workload == "exact":
        return exact_jobs(seed)
    if workload == "dense":
        return dense_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
