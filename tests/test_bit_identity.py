"""Pinned digests of seeded dense carriers, what is read from them, the
Monte Carlo estimators, the CLI's extremal stream and the exact LP's
vertex walk.

The carrier digests were taken from the tuple-backed carriers that preceded
the ndarray ones.  The estimator digests hash five fields of each report;
they were re-taken when the report dropped its two per-stage errors, on a
tree whose seven-field digests still matched those of the rejection pass
that kept both balls' statistics at once.  Any change that reorders a level
slice, alters a draw or moves a float in the last bit fails here, so
speed-ups and refactors must keep every seeded result bit-identical.
"""
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from bernsum.cli import main
from bernsum.feasibility import constrained_moment_bounds, constrained_vertices
from bernsum.pmf import SumPmf, cross_moment, sum_map
from bernsum.polytope import decompose, exchangeable_pmf
from bernsum.sampling import (
    NeighborhoodSpec,
    RngStream,
    estimate_neighborhood_measure,
    estimate_tv_neighborhood_bound,
    hit_and_run,
    region_volume,
    sample_Fd_uniform,
    sample_polytope_uniform,
)


def gapped_pmf(d: int) -> SumPmf:
    """Float sum law with weights k + 1 and level 2 left empty."""
    weights = [0 if k == 2 else k + 1 for k in range(d + 1)]
    total = sum(weights)
    return SumPmf([w / total for w in weights])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()


PINS = {
    "sample_polytope_uniform": "5c80a88494524c4ba2f7335f2cde2e6fb73b315f5aded529b727a372d8e74b70",
    "Fd_uniform": "87e81c1504168bce7dd401af79cfb684afd8e741c2f399718def3f7987a62c12",
    "exchangeable_pmf": "acfe3900693c9c502a56d9e95b375a30e9b69e4a747a7e74141e867587770c4a",
    "reads": "7f9265fd8d3bd185c937fb97f3012dc290df86b579455718683f8a2f63e7beba",
    "cli_sample": "c1c210175895a270358b0f1dd8bf0bf17af079103ff4e94d7fad1bb367e3d288",
}

# `bernsum extremals` stdout, pinned on the stream that unranked every level
# of every vertex and validated each one in full.
RATIONAL_8 = "[" + ", ".join(f'"{k + 1}/45"' for k in range(9)) + "]"
RATIONAL_12 = "[" + ", ".join(f'"{k + 1}/91"' for k in range(13)) + "]"
EXTREMALS = {
    # --limit 600 crosses carries into sigma_1, sigma_2 and sigma_3.
    "rational_d8": (["--p", RATIONAL_8, "--limit", "600"],
                    "01bc07cc0b83f433ba077d25b71936243627913e3f6f8c4122a40ebabebbd4c3"),
    "gapped_float_d6": (["--p", repr([w / 15 for w in (1, 0, 2, 3, 0, 4, 5)])],
                        "21db7e099ac63d414b2079cfb358e8ac35d1ae3698de27fb0e68d847c94540c6"),
    # The float mass 1.0 prints as the integer 1.
    "point_mass_d4": (["--p", "[0.0,0.0,1.0,0.0,0.0]"],
                      "73439351640fa3caf9699ca91d750ba9e22afaefd4790dacc23ae24b74967dc7"),
    "rational_d8_offset": (["--p", RATIONAL_8, "--offset", "37", "--limit", "20"],
                           "716c66b6483ef7f5d7c791366c39788b422c1882e98888bb62f63711cf43c235"),
    # Pinned on the stream that zipped the sigma odometer with the vertex
    # odometer.  Level 2 is empty; the window carries through sigma_1,
    # sigma_3 and sigma_4 into sigma_5 at 9 * 84 * 126 = 95256.
    "gapped_float_d9_offset": (["--p", repr([w / 52 for w in (1, 2, 0, 4, 5, 6, 7, 8, 9, 10)]),
                                "--offset", "95252", "--limit", "12"],
                               "193d76f0dd176eedd212cc5f12fe3e2357cf049bc9bf62fee48d6084476e1cdb"),
    # Carries into sigma_3 at 12 * 66 = 792.
    "rational_d12_offset": (["--p", RATIONAL_12, "--offset", "700", "--limit", "200"],
                            "f836e51a9c203e5f6cc47b87b9f5a975639fbd3bd9d15f7259cbd5a84d3a96af"),
}


def fiber_draws():
    p = gapped_pmf(10)
    g = RngStream(2024, 3).generator()
    return p, [sample_polytope_uniform(p, g) for _ in range(3)]


def test_fiber_draws_d10():
    _, draws = fiber_draws()
    assert digest(*(f.values for f in draws)) == PINS["sample_polytope_uniform"]


def test_fiber_reads_d10():
    p, draws = fiber_draws()
    parts = []
    for f in draws:
        parts.append(sum_map(f).values)
        parts.extend(b for b in decompose(f, p) if b)
        parts.append([cross_moment(f, [1, 4, 7]), cross_moment(f, range(1, 11))])
    assert digest(*parts) == PINS["reads"]


def test_Fd_draws_d10():
    g = RngStream(2025, 0).generator()
    draws = [sample_Fd_uniform(10, g) for _ in range(3)]
    assert digest(*(f.values for f in draws)) == PINS["Fd_uniform"]


def test_exchangeable_d12():
    assert digest(exchangeable_pmf(gapped_pmf(12)).values) == PINS["exchangeable_pmf"]


def test_cli_sample_d6(capsys):
    p = "[" + ", ".join(repr(v) for v in gapped_pmf(6).values) + "]"
    assert main(["sample", "--p", p, "-n", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINS["cli_sample"]


@pytest.mark.parametrize("name", sorted(EXTREMALS))
def test_cli_extremals(name, capsys):
    argv, pin = EXTREMALS[name]
    assert main(["extremals", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == pin


# Monte Carlo estimators: each pin covers the report tuples of several balls,
# and every thread count must reproduce it.
B_HALF = {d: SumPmf([math.comb(d, k) / 2**d for k in range(d + 1)]) for d in (3, 8)}
SKEWED_5 = SumPmf([0.05, 0.1, 0.15, 0.2, 0.3, 0.2])

MC_PINS = {
    "sup": "032601707263403c2db60cddb7cc1089ec1bc0f6e54baddb1b4415b34f6e7aa5",
    "tv": "8b6d75980c1f3672bae6254240d6100e311a3e5a6be1622a8e2a18b61d8eeda2",
    "tv_paper_region": "a836671ec3b8aa33768572433bb98508e3c0a625c2d2213e80d949f3be9fb423",
    "region_volume": "a89892499e4669d9baa2730a5f54917d53e59f49664a108f11c44056c8b4d85a",
    "hit_and_run": "07d5930e5c1468b7746d0bf7a45195d5b96b536a80bd8435f0d1d4f6866fcc09",
}

MC_CASES = {
    "sup": (estimate_neighborhood_measure, "sup", False,
            [(B_HALF[3], 0.2), (B_HALF[3], 1.5), (B_HALF[8], 0.05), (SKEWED_5, 0.1)]),
    "tv": (estimate_tv_neighborhood_bound, "tv", False,
           [(B_HALF[3], 0.2), (B_HALF[8], 0.05), (SKEWED_5, 0.5)]),
    "tv_paper_region": (estimate_tv_neighborhood_bound, "tv", True,
                        [(B_HALF[3], 0.2), (SKEWED_5, 0.5)]),
    "region_volume": (region_volume, "sup", False,
                      [(B_HALF[3], 0.2), (B_HALF[8], 0.05), (SKEWED_5, 1.5)]),
}


def report_row(r) -> list:
    pe = r.point_estimate
    return [pe.log_value, pe.is_zero, r.std_error, r.n_samples, r.acceptance_rate]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(MC_CASES))
def test_mc_estimators(name, threads):
    fn, metric, paper_region, balls = MC_CASES[name]
    rows = []
    for seed, (p, eps) in enumerate(balls, start=31):
        spec = NeighborhoodSpec(p, eps, metric=metric, paper_region=paper_region)
        rows.append(report_row(fn(spec, 40_000, RngStream(seed), threads=threads)))
    assert digest(*rows) == MC_PINS[name]


def test_hit_and_run_chain():
    spec = NeighborhoodSpec(SKEWED_5, 0.1)
    chain = hit_and_run(spec, burn_in=50, thin=3, rng=RngStream(77))
    states = [next(chain).values for _ in range(40)]
    assert digest(*states) == MC_PINS["hit_and_run"]


# The dimensions the benchmark's `mc` workload adds to the pins above: d = 2,
# 10 and 16, at 1, 2 and 3 threads.  40,000 draws make two full chunks and a
# partial third, so three threads each take one.  At d = 2 the TV ball is the
# sup ball; at d = 16 the eps = 0.2 sup ball takes a handful of the draws and
# the TV ball none.  Re-taken with the five-field rows, on a tree whose
# seven-field digests still matched those of the box sampler that drew through
# Generator.uniform with array bounds.
def binomial(d: int, theta: float) -> SumPmf:
    return SumPmf([math.comb(d, k) * theta**k * (1 - theta) ** (d - k) for k in range(d + 1)])


WIDE_PINS = {
    "sup": "d5577e3b385f47ca95f673289799a86c5f470e9c7bf8c082582a69f60af53b70",
    "tv": "f1862cc8ca77f002d8e873e184099c3a593d5470c1da3ec0be5a358160235742",
    "region_volume": "c63bea759c06e2511903cd3ebf9a20817e4db9893dc2a1a97ce27a6bcd42ec88",
}

WIDE_CASES = {
    "sup": (estimate_neighborhood_measure, "sup",
            [(binomial(2, 0.5), 0.1), (binomial(2, 0.3), 0.5), (binomial(10, 0.5), 0.05),
             (binomial(10, 0.3), 0.1), (binomial(16, 0.5), 0.05), (binomial(16, 0.3), 0.1),
             (binomial(16, 0.5), 0.2)]),
    "tv": (estimate_tv_neighborhood_bound, "tv",
           [(binomial(2, 0.5), 0.1), (binomial(2, 0.3), 0.5), (binomial(10, 0.5), 0.2),
            (binomial(10, 0.3), 0.5), (binomial(16, 0.5), 0.05)]),
    "region_volume": (region_volume, "sup",
                      [(binomial(2, 0.5), 0.1), (binomial(2, 0.3), 0.5), (binomial(2, 0.3), 1.5)]),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(WIDE_CASES))
def test_mc_estimators_wide_d(name, threads):
    fn, metric, balls = WIDE_CASES[name]
    rows = []
    for seed, (p, eps) in enumerate(balls, start=61):
        spec = NeighborhoodSpec(p, eps, metric=metric)
        rows.append(report_row(fn(spec, 40_000, RngStream(seed), threads=threads)))
    assert digest(*rows) == WIDE_PINS[name]


# The exact LP's vertex walk: the repr (types included) of every result of
# the benchmark's constrained jobs at seed 5, and the README's
# `bernsum constrained-vertices` example.  Taken on the Fraction tableau.
CONSTRAINED_JOBS = [
    # (p, theta, subset); subset None lists the vertices
    (["1/16", "27/64", "25/64", "1/8"], ["37/64", "35/64", "29/64"], [1, 2, 3]),
    (["3/64", "7/16", "5/16", "13/64"], ["39/64", "9/16", "1/2"], None),
    (["1/32", "17/64", "7/16", "1/4", "1/64"], ["1/2", "29/64", "1/2", "1/2"], None),
    (["1/32", "17/32", "19/64", "9/64"], ["1/2", "37/64", "15/32"], None),
    (["1/8", "11/32", "27/64", "7/64"], ["35/64", "1/2", "15/32"], [1, 2, 3]),
    (["7/64", "11/32", "27/64", "1/8"], ["39/64", "7/16", "33/64"], None),
    (["1/32", "9/32", "21/64", "5/16", "3/64"], ["1/2", "35/64", "1/2", "33/64"], None),
    (["5/64", "27/64", "3/8", "1/8"], ["33/64", "33/64", "33/64"], None),
    (["3/32", "31/64", "21/64", "3/32"], ["7/16", "33/64", "15/32"], [1, 2, 3]),
    (["1/16", "27/64", "13/32", "7/64"], ["33/64", "19/32", "29/64"], [1, 2, 3]),
    (["1/8", "13/32", "11/32", "1/8"], ["1/2", "7/16", "17/32"], [1, 2]),
    (["3/64", "7/32", "25/64", "17/64", "5/64"], ["41/64", "7/16", "15/32", "9/16"], None),
    (["3/64", "5/16", "19/64", "7/32", "1/8"], ["1/2", "27/64", "1/2", "41/64"], [2, 3, 4]),
]

CONSTRAINED_PINS = {
    "jobs": "3e9e3d9fecd7920ba22f371492874767cad9403fcb374a4661a0605f6957c81b",
    "cli_readme": "86df9a3a393f1dc8d94ee5c4c3af82640897f95adf30f6520b12bfd258dd2a1f",
}


def test_constrained_jobs_repr():
    h = hashlib.sha256()
    for p, theta, subset in CONSTRAINED_JOBS:
        p, theta = SumPmf([Fraction(v) for v in p]), [Fraction(v) for v in theta]
        if subset is None:
            got = constrained_vertices(p, theta)
        else:
            got = constrained_moment_bounds(p, theta, subset)
        h.update(repr(got).encode())
    assert h.hexdigest() == CONSTRAINED_PINS["jobs"]


def test_cli_constrained_vertices_readme(capsys):
    assert main(["constrained-vertices", "--p", '["1/8","3/8","3/8","1/8"]',
                 "--theta", '["1/4","2/4","3/4"]']) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRAINED_PINS["cli_readme"]


# The binomial slice and the measure command: stdout pinned on the code that
# built a validated exact SumPmf for every bin-vs-mode row and multiplied one
# LogMeasure per level in polytope_measure.
GAPPED_EXACT_4 = '["1/10","2/10","0","3/10","4/10"]'
MEASURE_CLI = {
    "bin_vs_mode_json": (["bin-vs-mode", "--dmax", "60"],
                         "ace7c137fb868eacad5e0ffec4f4d35582e1b1c45b30a1a5aeaa0978a27a4d14"),
    "bin_vs_mode_csv": (["bin-vs-mode", "--dmax", "60", "--format", "csv"],
                        "434a6739db0aab886cbd4a9ef040bb4481062afb06d8906c2c7701029b6e7bfb"),
    "binomial_scan_d20": (["binomial-scan", "--d", "20", "--points", "251"],
                          "74c4bd83166a0fee02b2ab4f58197ebb547eb54d9865ed2a72807bedb0865e31"),
    "measure_exact_d8": (["measure", "--p", RATIONAL_8],
                         "c4f0cf53c85cc4fbd06f87c2e5728d2c2374a7544d3b0dfe77f89f512ac08cc5"),
    # Level 2 empty: the ambient measure is zero and the intrinsic one is not.
    "measure_exact_gapped_d4": (["measure", "--p", GAPPED_EXACT_4],
                                "802e548549bd0aa73f9ecc06546547cb73e1a70b10adfeb93622420464dbd536"),
}


@pytest.mark.parametrize("name", sorted(MEASURE_CLI))
def test_cli_binomial_and_measure(name, capsys):
    argv, pin = MEASURE_CLI[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == pin
