"""Pinned digests of seeded dense carriers, what is read from them, the
Monte Carlo estimators, the CLI's extremal stream and the exact LP's
vertex walk.

The carrier digests were taken from the tuple-backed carriers that preceded
the ndarray ones.  The estimator digests hash five fields of each report.
They were last re-taken, with the neighborhood CLI digests, when one sample
standard error of the mean weight replaced the two-stage delta method and
region_volume's binomial error: against the tree before, every estimator
log value, is_zero, n_samples and acceptance_rate was bit-identical, and
region_volume's log values moved at most 36 ulps.  Any change that reorders a level
slice, alters a draw or moves a float in the last bit fails here, so
speed-ups and refactors must keep every seeded result bit-identical.
"""
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bernsum import sampling
from bernsum.cli import main
from bernsum.feasibility import constrained_moment_bounds, constrained_vertices
from bernsum.pmf import SumPmf, cross_moment, entropy, sum_map
from bernsum.polytope import decompose, exchangeable_pmf
from bernsum.sampling import (
    NeighborhoodSpec,
    RngStream,
    estimate_neighborhood_measure,
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
    # Pinned on the stream that stepped every level once per vertex.  Only
    # levels 0 and d hold mass, so no level moves and there is one vertex.
    "single_vertex_d5": (["--p", '["1/3","0","0","0","0","2/3"]'],
                         "8153c8231a846d0f97ff2c8dcf53f48401fdeee85ed531d6bbf0cb316ef8ed41"),
    # Starts at sigma_1 = 6, mid-way through the first run of level 1.
    "rational_d12_mid_run": (["--p", RATIONAL_12, "--offset", "5", "--limit", "40"],
                             "3311d9c4b534e9e6c5dfae3d8007c7a9f64846da306bd99f52937c3269571ec9"),
    # Level 20 of d = 40 has C(40, 20) ~ 1.4e11 elements: these return at
    # once only if no work grows with the size of the moving level.
    "level_20_of_40_offset": (["--p", json.dumps(["0"] * 20 + ["1"] + ["0"] * 20),
                               "--offset", "1000000000", "--limit", "3"],
                              "255be35daef3e41c11be22aac8138a16f84c620f345abf95acf22f00e2f19262"),
    "levels_0_20_40": (["--p", json.dumps(["1/4"] + ["0"] * 19 + ["1/2"] + ["0"] * 19 + ["1/4"]),
                        "--limit", "3"],
                       "4eb2db9046a3313c2bc20fc46dcad321a450ddce57427858f0b3c1ca7ccbf7c1"),
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
    "sup": "f1c64afe267666e3d01dbb9bb36701d043a91492ed83e6172ea7e19d6b3b2207",
    "tv": "fd84cf457a772beda58f42ac5e8954a9760f531ba26dbd9df2e82cda459d6320",
    "tv_paper_region": "cd9447b6f183993e14e2db5a0bb50563a3e4987399bb862d0a0ce779ef6d4339",
    "region_volume": "736e052aefb31e6ff93cba88586d020d4cd852b6849083bd36e24f1bc82fdc7b",
    "hit_and_run": "07d5930e5c1468b7746d0bf7a45195d5b96b536a80bd8435f0d1d4f6866fcc09",
}

MC_CASES = {
    "sup": (estimate_neighborhood_measure, "sup", False,
            [(B_HALF[3], 0.2), (B_HALF[3], 1.5), (B_HALF[8], 0.05), (SKEWED_5, 0.1)]),
    "tv": (estimate_neighborhood_measure, "tv", False,
           [(B_HALF[3], 0.2), (B_HALF[8], 0.05), (SKEWED_5, 0.5)]),
    "tv_paper_region": (estimate_neighborhood_measure, "tv", True,
                        [(B_HALF[3], 0.2), (SKEWED_5, 0.5)]),
    "region_volume": (region_volume, "sup", False,
                      [(B_HALF[3], 0.2), (B_HALF[8], 0.05), (SKEWED_5, 1.5)]),
}


def report_row(r) -> list:
    pe = r.point_estimate
    return [pe.log_value, pe.is_zero, r.std_error, r.n_samples, r.acceptance_rate]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(MC_CASES))
def test_mc_estimators(name, threads, monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 64)  # the thread count named runs on any host
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


# More chains, pinned on the walk that ran the window on 1 - sum(x) as a
# second block after the box rows: at d = 2 and d = 8, on the paper's looser
# region, and on an eps = 1.5 ball whose box is the unit cube, so only the
# sum(x) row keeps the walk inside the simplex.  Dropping that row fails all
# four.
CHAIN_CASES = {
    "b_half_d2": (SumPmf([0.25, 0.5, 0.25]), 0.1, False, 81),
    "b_half_d8": (B_HALF[8], 0.05, False, 82),
    "paper_region": (SKEWED_5, 0.1, True, 83),
    "whole_simplex": (B_HALF[3], 1.5, False, 84),
}

CHAIN_PINS = {
    "b_half_d2": "db0978816994959869f015cc38103ddce8799d2fa2689ce55bfdec1c6046c61d",
    "b_half_d8": "d1f41b68b18dab50824dc152331f2de4fbacea610d601b6178b277f8583b50a7",
    "paper_region": "3cc16576ecc67ff81b2b620bd0ba8a472e6c489f716da4f98bff3716cd2f52c4",
    "whole_simplex": "fcfd206e17f1a034b63a171cc25263148f2a4451073156ada631c417791f1f2c",
}


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_hit_and_run_chains(name):
    p, eps, paper_region, seed = CHAIN_CASES[name]
    spec = NeighborhoodSpec(p, eps, paper_region=paper_region)
    chain = hit_and_run(spec, burn_in=50, thin=3, rng=RngStream(seed))
    assert digest(*(next(chain).values for _ in range(40))) == CHAIN_PINS[name]


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
    "sup": "5ff3a409b3ac13c06510166adc002d9fafcd15a92d9d4327e6ddb9af2d1fb6de",
    "tv": "6798768a71094594ad39af2478eab043ba48a040185c6f9cd3a250509c46aad9",
    "region_volume": "3ae8e594b8ae4e3e65e0d938c81c75abcb6fdb3a6d993d33e1835fbf091b3432",
}

WIDE_CASES = {
    "sup": (estimate_neighborhood_measure, "sup",
            [(binomial(2, 0.5), 0.1), (binomial(2, 0.3), 0.5), (binomial(10, 0.5), 0.05),
             (binomial(10, 0.3), 0.1), (binomial(16, 0.5), 0.05), (binomial(16, 0.3), 0.1),
             (binomial(16, 0.5), 0.2)]),
    "tv": (estimate_neighborhood_measure, "tv",
           [(binomial(2, 0.5), 0.1), (binomial(2, 0.3), 0.5), (binomial(10, 0.5), 0.2),
            (binomial(10, 0.3), 0.5), (binomial(16, 0.5), 0.05)]),
    "region_volume": (region_volume, "sup",
                      [(binomial(2, 0.5), 0.1), (binomial(2, 0.3), 0.5), (binomial(2, 0.3), 1.5)]),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(WIDE_CASES))
def test_mc_estimators_wide_d(name, threads, monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 64)
    fn, metric, balls = WIDE_CASES[name]
    rows = []
    for seed, (p, eps) in enumerate(balls, start=61):
        spec = NeighborhoodSpec(p, eps, metric=metric)
        rows.append(report_row(fn(spec, 40_000, RngStream(seed), threads=threads)))
    assert digest(*rows) == WIDE_PINS[name]


# The sparse regime past the benchmark's dimensions: at d = 20 and 30 almost
# every draw misses the sum window, and the tv balls keep none of the rows
# that pass it, so nearly every decision is a rejection.  Pinned on the
# kernel that scaled and row-summed every draw.
def flat(d: int) -> SumPmf:
    return SumPmf([1 / (d + 1)] * (d + 1))


SPARSE_PINS = {
    "sup": "8a8c01224ae063c340d8319e43b7e349ffed21390dbcdddef1688b24f083dafa",
    "tv": "2475999ed1492e4fe440350208d2081433384bfe99176a2c7e372f998c75b553",
    "tv_paper_region_d10": "4ea74884b37f9ebc462bd4ca3f667bbea42276f46664fe5a982f3ddb7b7691f0",
    "region_volume": "b71fbaa941405065bce1f64195e3c3a66f292c02c7bf780e1b22bfb7f9a54a19",
}

SPARSE_CASES = {
    "sup": (estimate_neighborhood_measure, "sup", False,
            [(binomial(20, 0.5), 0.05), (flat(20), 0.1), (binomial(30, 0.5), 0.01), (flat(30), 0.05)]),
    "tv": (estimate_neighborhood_measure, "tv", False,
           [(flat(20), 0.05), (binomial(20, 0.5), 0.02), (flat(30), 0.03)]),
    "tv_paper_region_d10": (estimate_neighborhood_measure, "tv", True,
                            [(binomial(10, 0.5), 0.3), (binomial(10, 0.3), 0.1), (flat(10), 0.2)]),
    "region_volume": (region_volume, "sup", False,
                      [(binomial(20, 0.5), 0.05), (flat(20), 0.1), (binomial(30, 0.5), 0.01), (flat(30), 0.05)]),
}


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(SPARSE_CASES))
def test_mc_estimators_sparse(name, threads, monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 64)
    fn, metric, paper_region, balls = SPARSE_CASES[name]
    rows = []
    for seed, (p, eps) in enumerate(balls, start=91):
        spec = NeighborhoodSpec(p, eps, metric=metric, paper_region=paper_region)
        rows.append(report_row(fn(spec, 40_000, RngStream(seed), threads=threads)))
    assert digest(*rows) == SPARSE_PINS[name]


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
    # Re-taken when dirichlet_pdf summed its log without cancellation: its
    # pdf, 3.399996973396221e-44, is 2.1e-14 from mpmath's, against 7.9e-14.
    "measure_exact_d8": (["measure", "--p", RATIONAL_8],
                         "11b6483cc2e91ced908bebb6d36b653aa30871ffb54ae4ed06a3b355288dde3c"),
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


# Every subcommand the pins above leave out, and the CSV form of every flat
# one, pinned on the command bodies that each loaded --p and wrote their own
# records.
B_HALF_3 = "[0.125, 0.375, 0.375, 0.125]"
GAPPED_FLOAT_6 = repr(list(gapped_pmf(6).values))
README_P, README_THETA = '["1/8","3/8","3/8","1/8"]', '["1/4","2/4","3/4"]'
CLI_PINS = {
    "bounds_exact_d8": (["bounds", "--p", RATIONAL_8, "--order", "3"],
                        "27cbf64af765e157f6c5dd90caf60f9009487e4e4093cff0006ef02182901682"),
    "bounds_csv": (["bounds", "--p", B_HALF_3, "--order", "2", "--format", "csv"],
                   "d3447bda5f314361db9f9094490661d889a4c19cf35618fee816e606f4561a6f"),
    "entropy_bounds_nats": (["entropy-bounds", "--p", GAPPED_FLOAT_6],
                            "e039bf01ce803ef14fc0a4d937de5f07de3da3348190450bd2f7ff1c85a9fbe0"),
    "entropy_bounds_bits": (["entropy-bounds", "--p", GAPPED_FLOAT_6, "--bits"],
                            "8591feab98809d1937fdd7f69f49859ad5f856e1beeae7860197687e8bffa432"),
    "entropy_bounds_csv": (["entropy-bounds", "--p", RATIONAL_8, "--bits", "--format", "csv"],
                           "8f9d0cd8c1e907f26da3c1687e77c8ce23e14289f0f2190719b0d04dac1c8b53"),
    "feasible_readme": (["feasible", "--p", README_P, "--theta", README_THETA],
                        "7dd6e44ee8101ba60004d8deb7fca8b5d5a119e9dbf64a32fca085aa4bf28de5"),
    "feasible_float": (["feasible", "--p", "[0.25, 0.5, 0.25]", "--theta", '["1/4", "3/4"]'],
                       "42d523d06eb373b4356622aa1bbed3a51ed227ae3bfbc0a7689ab188f0937e92"),
    "infeasible": (["feasible", "--p", "[0.8,0,0,0.2]", "--theta", "[0,0.3,0.3]"],
                   "5951d9a506bdc75143496d5b75f7c3ded74c717557581ee6513751d727b0fc49"),
    "constrained_bounds_readme": (["constrained-bounds", "--p", README_P, "--theta", README_THETA,
                                   "--subset", "1,2"],
                                  "8f8ce71b82f6a964b41147bad5dcde59edf23f9ca3627215f215d7404ad15514"),
    "constrained_bounds_csv": (["constrained-bounds", "--p", B_HALF_3, "--theta", README_THETA,
                                "--subset", "1,2,3", "--format", "csv"],
                               "ffe1e173dcff1ccf3a2406c25fff0efe4ea5fce9eccba6debf8601f0715fe92c"),
    "measure_float_csv": (["measure", "--p", GAPPED_FLOAT_6, "--format", "csv"],
                          "654a73f6c6e342be3a1a2654405e49eb10b6b27399774d910abde4590c5706dc"),
    "measure_exact_csv": (["measure", "--p", GAPPED_EXACT_4, "--format", "csv"],
                          "b89358159156d699cdf68e04b527bba0c666012e0499b76126efcc217f37fcb6"),
    "mode_d6": (["mode", "--d", "6"],
                "32d73dc3bde22f35b6092a4201953e38a537dafa899a81ea11d0b0760d5ffe74"),
    "mode_d6_csv": (["mode", "--d", "6", "--format", "csv"],
                    "538f493174338781bdc05081cbe0a9d58da469d349ea11f007256531f261089a"),
    "density_float": (["density", "--p", GAPPED_FLOAT_6],
                      "764a67ab1e52ca2866608beef1b11bc5f55b78fe8c19dc74a78bb7a1483fef7a"),
    "density_exact_gapped": (["density", "--p", GAPPED_EXACT_4],
                             "ec033d76b7fe3ebf80e7c6cd850d203d6a7577c431b7daf2711af17034356271"),
    # Re-taken with measure_exact_d8 above, for the same pdf.
    "density_csv": (["density", "--p", RATIONAL_8, "--format", "csv"],
                    "1f8ea642941a22e65edb5a12ce3d7385e016a3898ed2e61ff1005eb17ca47796"),
    "binomial_scan_csv": (["binomial-scan", "--d", "20", "--points", "251", "--format", "csv"],
                          "a6abfb50554d020ef1394f86e861d99d94fcd142e9056d5dd6309090f6c6ae0e"),
}


@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_cli_commands(name, capsys):
    argv, pin = CLI_PINS[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == pin


# Seeded neighborhood runs of 20,000 draws, two chunks: every thread count
# prints the same bytes.
NEIGHBORHOOD_PINS = {
    "sup": (["--p", repr(list(SKEWED_5.values)), "--eps", "0.1", "--seed", "41"],
            "fc2e2cef2459520328a968fe473926fd92125f6dd3c71d018c4073aed355d68e"),
    "sup_csv": (["--p", B_HALF_3, "--eps", "0.2", "--seed", "42", "--format", "csv"],
                "c67cde6ebf39843c9254b710313c4db9026feb94ec20454ab881cc319c535e6f"),
    "tv": (["--p", B_HALF_3, "--eps", "0.2", "--metric", "tv", "--seed", "43"],
           "307348d958ef23373a05395b81ddbb88b4677202fb102d7d6a52d01f63151a27"),
    "tv_csv": (["--p", B_HALF_3, "--eps", "0.2", "--metric", "tv", "--seed", "43",
                "--format", "csv"],
               "ba17ba26ae5eeceb7a8107a14ed6bc81f85846b446ac63b0ffd451e22f916650"),
    "paper_sigma_s": (["--p", "[0.2, 0.2, 0.6]", "--eps", "0.3", "--seed", "44",
                       "--paper-sigma-s"],
                      "c8c13f3281ee75af154e791f3be608891db7f40bbee7ba7f5828a51325347cc4"),
    "paper_sigma_s_tv": (["--p", "[0.2, 0.2, 0.6]", "--eps", "0.3", "--metric", "tv",
                          "--seed", "45", "--paper-sigma-s"],
                         "5699b84f79ed1d2ad98c2306bc2e5595bd2451bc55bd0652fb69c4c7b3804f5c"),
}


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("name", sorted(NEIGHBORHOOD_PINS))
def test_cli_neighborhood(name, threads, capsys, monkeypatch):
    monkeypatch.setattr(sampling, "_usable_cpus", lambda: 64)
    argv, pin = NEIGHBORHOOD_PINS[name]
    assert main(["neighborhood", *argv, "-n", "20000", "--threads", threads]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == pin


# Every JSON record pinned above is strict JSON: no NaN or Infinity leaks.
STRICT_JSON_ARGVS = {
    **{name: argv for name, (argv, _) in {**MEASURE_CLI, **CLI_PINS}.items()},
    **{f"neighborhood_{name}": ["neighborhood", *argv, "-n", "20000", "--threads", "1"]
       for name, (argv, _) in NEIGHBORHOOD_PINS.items()},
}


def refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name", sorted(n for n, argv in STRICT_JSON_ARGVS.items() if "csv" not in argv))
def test_cli_records_are_strict_json(name, capsys):
    assert main(STRICT_JSON_ARGVS[name]) == 0
    json.loads(capsys.readouterr().out, parse_constant=refuse_constant)


# One refusal per subcommand: exit 2, nothing on stdout, and this stderr.
SYMMETRIC_5 = '["1/32","5/32","10/32","10/32","5/32","1/32"]'
CLI_REFUSALS = {
    "extremals": (["--p", B_HALF_3, "--offset", "-1"], "--offset must be >= 0"),
    "bounds": (["--p", B_HALF_3, "--order", "4"], "moment order must be in 1..3, got 4"),
    "entropy-bounds": (["--p", "[0.5, 0.6]"], "SumPmf violates normalization: sum 1.1 != 1"),
    "feasible": (["--p", B_HALF_3, "--theta", '{"a": 1}'], "theta must be a JSON array of means"),
    "constrained-vertices": (
        ["--p", SYMMETRIC_5, "--theta", json.dumps(["1/2"] * 5), "--max-bases", "1"],
        "vertex enumeration exceeded max_bases=1 (1 vertices found so far); degenerate "
        "instances can have combinatorially many feasible bases"),
    "constrained-bounds": (["--p", B_HALF_3, "--theta", README_THETA, "--subset", "4"],
                           "coordinates [4] out of range for d=3"),
    "measure": (["--p", "[1.2, -0.2]"], "SumPmf violates nonnegativity: entry -0.2"),
    "mode": (["--d", "1"],
             "the maximal pmf needs d >= 2; below that all fibers have equal measure"),
    "density": (["--p", "[NaN, 1.0]"], "SumPmf violates normalization: sum nan != 1"),
    "sample": (["--p", "[0.5, 0.6]", "--seed", "1"], "SumPmf violates normalization: sum 1.1 != 1"),
    "neighborhood": (["--p", "[0.25, 0.5, 0.25]", "--eps", "-0.1", "-n", "1000", "--seed", "1"],
                     "epsilon must be positive, got -0.1"),
    "binomial-scan": (["--d", "3", "--points", "1"], "need at least 2 scan points"),
    "bin-vs-mode": (["--dmax", "1024"], "bin_vs_mode needs d <= 1023, where 2^d and so the log "
                                        "gap are finite floats; got d = 1024"),
}


@pytest.mark.parametrize("command", sorted(CLI_REFUSALS))
def test_cli_refusals(command, capsys):
    argv, err = CLI_REFUSALS[command]
    assert main([command, *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_cli_refuses_an_infinite_epsilon(capsys):
    # json.dumps would write the record's epsilon as Infinity, which is not JSON.
    argv = ["neighborhood", "--p", "[0.25, 0.5, 0.25]", "--eps", "inf", "-n", "2000", "--seed", "1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: epsilon must be finite, got inf\n")


# Carriers at the top of the dense guard, pinned on the code that summed
# their floats with math.fsum over Python lists.  Each digest covers the
# carrier's values, its entropy, two cross moments, its sum map and its
# decomposition; the pins above, at d = 10 and 12, do not cover entropy.
DENSE_PINS = {
    ("exchangeable_pmf", 16):
        "fbc22f729814e7c3f72a93300a7a5decddb15a5d3edb67fa9e5e2aa1484ec7d7",
    ("exchangeable_pmf", 20):
        "3e995280bf853bdf1df0ddb7bf8d4df27362bd96cff7adaf175aa80c31212f37",
    ("sample_polytope_uniform", 16):
        "f392c9f24ae6e11fcb29608cf9e34de511cc625ed46f11b94e10c03a5e898a34",
    ("sample_polytope_uniform", 20):
        "740f8583d454548643bd23a2db059872fe3e7b3be2a0785ae2539a8275a9e757",
    ("Fd_uniform", 16):
        "2d36c1c557fae583fa4036e9fe80f172641015aef7973c604cc3026452397c5b",
    ("Fd_uniform", 20):
        "90d309f226dde8de32b02f427bcc0ff8b3f6419b6e1304cb3fd9346cc001fcf8",
}


def dense_carrier(kind: str, d: int):
    if kind == "Fd_uniform":
        f = sample_Fd_uniform(d, RngStream(2029, d).generator())
        return sum_map(f), f
    p = gapped_pmf(d)
    if kind == "exchangeable_pmf":
        return p, exchangeable_pmf(p)
    return p, sample_polytope_uniform(p, RngStream(2028, d).generator())


def dense_reads(p: SumPmf, f) -> list:
    parts = [f.values, [entropy(f), cross_moment(f, [1, 4, 7]), cross_moment(f, range(1, f.d + 1))],
             sum_map(f).values]
    parts.extend(b for b in decompose(f, p) if b)
    return parts


@pytest.mark.parametrize("kind, d", sorted(DENSE_PINS))
def test_dense_carriers_large_d(kind, d):
    assert digest(*dense_reads(*dense_carrier(kind, d))) == DENSE_PINS[kind, d]
