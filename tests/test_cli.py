import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsum import cli
from bernsum.cli import build_parser, main
from bernsum.pmf import JointPmf, SparseJointPmf, SumPmf
from bernsum.polytope import (
    describe,
    extremal_by_index,
    extremal_enumerate,
    extremal_indices,
    membership,
)

from oracles import exact_levels_and_means

B_HALF = "[0.125, 0.375, 0.375, 0.125]"
THETA = '["1/4", "2/4", "3/4"]'
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_lines(text: str):
    return [json.loads(line) for line in text.strip().splitlines() if line]


class TestMode:
    def test_d3(self, capsys):
        code, out, _ = run(capsys, "mode", "--d", "3")
        assert code == 0
        assert json.loads(out) == {"p": [0, 0.5, 0.5, 0]}

    def test_csv_matches_json(self, capsys):
        _, out_json, _ = run(capsys, "mode", "--d", "4")
        _, out_csv, _ = run(capsys, "mode", "--d", "4", "--format", "csv")
        values = json.loads(out_json)["p"]
        header, row = out_csv.strip().splitlines()
        assert header == "p0,p1,p2,p3,p4"
        assert [float(v) for v in row.split(",")] == [float(v) for v in values]


class TestExtremals:
    def test_limit_one_is_first_vertex(self, capsys):
        code, out, _ = run(capsys, "extremals", "--p", B_HALF, "--limit", "1")
        assert code == 0
        lines = json_lines(out)
        assert len(lines) == 1
        assert lines[0]["sigma"] == [1, 1, 1, 1]
        assert lines[0]["pmf"]["atoms"] == [[0, 0.125], [1, 0.375], [3, 0.375], [7, 0.125]]

    def test_streams_all_nine(self, capsys):
        _, out, _ = run(capsys, "extremals", "--p", B_HALF)
        assert len(json_lines(out)) == 9

    def test_offset_pagination(self, capsys):
        _, full, _ = run(capsys, "extremals", "--p", B_HALF)
        _, page, _ = run(capsys, "extremals", "--p", B_HALF, "--offset", "4", "--limit", "2")
        assert json_lines(page) == json_lines(full)[4:6]

    def test_rational_input_stays_exact(self, capsys):
        _, out, _ = run(capsys, "extremals", "--p", '["1/8","3/8","3/8","1/8"]', "--limit", "1")
        assert json_lines(out)[0]["pmf"]["atoms"][0] == [0, "1/8"]

    def test_offset_decodes_to_the_last_vertex(self, capsys):
        d = 12
        p = SumPmf([0 if k == 5 else Fraction(k + 1, 85) for k in range(d + 1)])
        count = describe(p).vertex_count
        argv = ["extremals", "--p", json.dumps(p.to_json_obj())]
        code, out, _ = run(capsys, *argv, "--offset", str(count - 1))
        assert code == 0
        (rec,) = json_lines(out)
        sizes = [math.comb(d, k) if p.values[k] else 1 for k in range(d + 1)]
        assert rec["sigma"] == sizes
        assert SparseJointPmf.from_json_obj(rec["pmf"]) == extremal_by_index(p, sizes)
        assert run(capsys, *argv, "--offset", str(count)) == (0, "", "")

    @pytest.mark.parametrize("flag", ["--offset", "--limit"])
    def test_negative_offset_or_limit_refused(self, capsys, flag):
        code, out, err = run(capsys, "extremals", "--p", B_HALF, flag, "-1")
        assert code == 2 and out == ""
        assert f"{flag} must be >= 0" in err

    def test_vertex_refusal_matches_the_api(self, capsys):
        # A float zero beside exact masses decides nothing, so p's exact
        # support, which sums to 1 - 1e-15, is refused when p is loaded: by
        # the API and by every command, whether or not it prints a vertex.
        text = '[0.0, "333333333333333/1000000000000000", "666666666666666/1000000000000000"]'
        with pytest.raises(ValueError) as api:
            SumPmf.from_json_obj(json.loads(text))
        want = "error: SumPmf violates normalization: sum Fraction(999999999999999, 1000000000000000) != 1\n"
        assert f"error: {api.value}\n" == want
        for command, *extra in (["extremals"], ["extremals", "--limit", "0"],
                                ["bounds", "--order", "1"], ["measure"]):
            assert run(capsys, command, "--p", text, *extra) == (2, "", want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_stream_matches_the_api(self, data):
        p, offset, limit = data.draw(extremal_requests())
        argv = ["extremals", "--p", json.dumps(p.to_json_obj()), "--offset", str(offset)]
        if limit is not None:
            argv += ["--limit", str(limit)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0
        assert err.getvalue() == ""
        pairs = zip(extremal_indices(p, offset), extremal_enumerate(p, offset), strict=True)
        want = []
        for sigma, vertex in itertools.islice(pairs, limit):
            atoms = [[i, mass_json(m)] for i, m in vertex.atoms]
            record = {"sigma": list(sigma.sigma), "pmf": {"d": p.d, "atoms": atoms}}
            want.append(json.dumps(record) + "\n")
        assert out.getvalue() == "".join(want)


def mass_json(m):
    """A vertex mass as `extremals` prints it: "num/den" when exact, an
    integer-valued float as the integer."""
    if isinstance(m, Fraction):
        return f"{m.numerator}/{m.denominator}"
    return int(m) if isinstance(m, float) and m.is_integer() else m


@st.composite
def extremal_requests(draw):
    """A sum law at d <= 7, exact or float, with some empty levels and
    sometimes all mass on one level, and an --offset/--limit window that may
    be empty or start past the end (--limit is left out only near the end)."""
    d = draw(st.integers(1, 7))
    if draw(st.integers(0, 4)) == 0:
        weights = [0] * (d + 1)
        weights[draw(st.integers(0, d))] = 1
    else:
        weights = draw(st.lists(st.integers(0, 4), min_size=d + 1, max_size=d + 1).filter(any))
    total = sum(weights)
    exact = draw(st.booleans())
    p = SumPmf([Fraction(w, total) if exact else w / total for w in weights])
    count = describe(p).vertex_count
    offset = draw(st.integers(0, count + 2) | st.sampled_from([count - 1, count]))
    limits = st.integers(0, 40)
    if count - offset <= 40:
        limits = limits | st.none()
    return p, offset, draw(limits)


class TestBounds:
    def test_top_order(self, capsys):
        code, out, _ = run(capsys, "bounds", "--p", B_HALF, "--order", "3")
        assert code == 0
        rec = json.loads(out)
        assert rec["lower"] == 0.125 and rec["upper"] == 0.125

    def test_entropy_bounds_nats_and_bits(self, capsys):
        _, out_n, _ = run(capsys, "entropy-bounds", "--p", B_HALF)
        _, out_b, _ = run(capsys, "entropy-bounds", "--p", B_HALF, "--bits")
        nats = json.loads(out_n)
        bits = json.loads(out_b)
        assert math.isclose(nats["max"], 3 * math.log(2), rel_tol=1e-12)
        assert math.isclose(bits["max"], 3.0, rel_tol=1e-12)
        assert nats["unit"] == "nats" and bits["unit"] == "bits"


class TestFeasible:
    def test_feasible_with_witness(self, capsys):
        code, out, _ = run(capsys, "feasible", "--p", B_HALF, "--theta", THETA)
        assert code == 0
        rec = json.loads(out)
        assert rec["feasible"] is True
        witness = JointPmf.from_json_obj(rec["witness"])
        assert membership(witness, SumPmf.from_json_obj(json.loads(B_HALF)), 1e-12)

    def test_feasible_beyond_d12_reproduces_p_and_theta(self, capsys):
        d = 14
        p = [Fraction(math.comb(d, k), 1 << d) for k in range(d + 1)]
        theta = [Fraction(1, 2) + Fraction((-1) ** j, 8) for j in range(d)]
        code, out, _ = run(capsys, "feasible", "--p", json.dumps([str(v) for v in p]),
                           "--theta", json.dumps([str(t) for t in theta]))
        assert code == 0
        rec = json.loads(out)
        assert rec["feasible"] is True
        witness = JointPmf.from_json_obj(rec["witness"])
        assert witness.d == d and witness.exact
        assert exact_levels_and_means(d, witness.atoms()) == (p, theta)

    def test_witness_prints_exact_zeros_as_0(self, capsys):
        code, out, _ = run(capsys, "feasible", "--p", "[0.25, 0.5, 0.25]",
                           "--theta", '["1/4", "3/4"]')
        assert code == 0
        assert json.loads(out)["witness"]["values"] == ["1/4", 0, "1/2", "1/4"]

    def test_infeasible(self, capsys):
        code, out, _ = run(capsys, "feasible", "--p", "[0.8, 0, 0, 0.2]",
                           "--theta", "[0, 0.3, 0.3]")
        assert code == 0
        assert json.loads(out) == {"feasible": False}

    def test_constrained_vertices_reproduce_reference(self, capsys):
        code, out, _ = run(capsys, "constrained-vertices", "--p",
                           '["1/8","3/8","3/8","1/8"]', "--theta", THETA)
        assert code == 0
        lines = json_lines(out)
        assert len(lines) == 3
        atom_sets = {
            frozenset((i, Fraction(v)) for i, v in enumerate(rec["values"]) if Fraction(v) > 0)
            for rec in lines
        }
        r1 = frozenset({(0, Fraction(1, 8)), (3, Fraction(1, 8)), (4, Fraction(3, 8)),
                        (6, Fraction(1, 4)), (7, Fraction(1, 8))})
        assert r1 in atom_sets

    @pytest.mark.parametrize("max_bases", ["0", "-5"])
    def test_max_bases_below_one_refused(self, capsys, max_bases):
        with pytest.raises(SystemExit) as exc:
            main(["constrained-vertices", "--p", '["1/8","3/8","3/8","1/8"]',
                  "--theta", THETA, "--max-bases", max_bases])
        assert exc.value.code == 2
        assert f"--max-bases: must be >= 1, got {max_bases}" in capsys.readouterr().err

    def test_constrained_bounds(self, capsys):
        code, out, _ = run(capsys, "constrained-bounds", "--p", B_HALF,
                           "--theta", THETA, "--subset", "1,2")
        assert code == 0
        rec = json.loads(out)
        assert Fraction(rec["lower"]) == Fraction(1, 8)
        assert Fraction(rec["upper"]) == Fraction(1, 4)

    def test_constrained_bounds_max_bases(self, capsys):
        # --max-bases caps the simplex pivots of both LP solves together.  The
        # symmetric d = 5 slice needs more than one and fewer than 50.
        p = json.dumps([f"{math.comb(5, k)}/32" for k in range(6)])
        argv = ["constrained-bounds", "--p", p, "--theta", json.dumps(["1/2"] * 5), "--subset", "1,2"]
        code, out, err = run(capsys, *argv, "--max-bases", "1")
        assert (code, out) == (2, "")
        assert err == ("error: the moment bounds exceeded max_bases=1 simplex pivots "
                       "(the two column-generation solves together)\n")
        code, out, _ = run(capsys, *argv, "--max-bases", "50")
        assert code == 0
        assert json.loads(out) == {"subset": "1|2", "lower": "1/32", "upper": "1/2"}

    def test_constrained_bounds_max_bases_below_one_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["constrained-bounds", "--p", B_HALF, "--theta", THETA,
                  "--subset", "1,2", "--max-bases", "0"])
        assert exc.value.code == 2
        assert "--max-bases: must be >= 1, got 0" in capsys.readouterr().err


class TestMeasureCommands:
    def test_measure_fields(self, capsys):
        code, out, _ = run(capsys, "measure", "--p", B_HALF)
        rec = json.loads(out)
        assert code == 0
        assert math.isclose(math.exp(rec["log_ambient"]), 0.01483154296875, rel_tol=1e-10)
        assert rec["log_intrinsic"] == rec["log_ambient"]
        assert rec["dirichlet_pdf"] > 0

    def test_zero_measure_is_null(self, capsys):
        _, out, _ = run(capsys, "measure", "--p", "[0.5, 0, 0, 0.5]")
        rec = json.loads(out)
        assert rec["log_ambient"] is None
        assert rec["log_density"] is None

    def test_density(self, capsys):
        _, out, _ = run(capsys, "density", "--p", "[0.25, 0.5, 0.25]")
        rec = json.loads(out)
        assert math.isclose(math.exp(rec["log_density"]), 0.5, rel_tol=1e-12)
        assert math.isclose(rec["dirichlet_pdf"], 3.0, rel_tol=1e-12)


class TestSample:
    def test_stream_with_header(self, capsys):
        code, out, _ = run(capsys, "sample", "--p", B_HALF, "-n", "5", "--seed", "99")
        assert code == 0
        lines = json_lines(out)
        assert lines[0] == {"seed": 99, "n": 5, "d": 3}
        p = SumPmf.from_json_obj(json.loads(B_HALF))
        for rec in lines[1:]:
            f = JointPmf.from_json_obj(rec)
            assert membership(f, p, 1e-12)

    def test_zero_draws_print_the_header_alone(self, capsys):
        code, out, _ = run(capsys, "sample", "--p", B_HALF, "-n", "0", "--seed", "3")
        assert code == 0
        assert json_lines(out) == [{"seed": 3, "n": 0, "d": 3}]

    def test_negative_count_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--p", B_HALF, "-n", "-2", "--seed", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument -n: must be >= 0, got -2" in captured.err

    def test_reproducible(self, capsys):
        _, a, _ = run(capsys, "sample", "--p", B_HALF, "-n", "3", "--seed", "7")
        _, b, _ = run(capsys, "sample", "--p", B_HALF, "-n", "3", "--seed", "7")
        assert a == b

    def test_generated_seed_recorded(self, capsys):
        code, out, _ = run(capsys, "sample", "--p", B_HALF, "-n", "1")
        header = json_lines(out)[0]
        assert code == 0 and isinstance(header["seed"], int)
        assert 0 <= header["seed"] < 2**63


class TestNeighborhood:
    def test_deterministic_given_seed(self, capsys):
        argv = ["neighborhood", "--p", "[0.25,0.5,0.25]", "--eps", "0.1",
                "-n", "2000", "--seed", "5", "--threads", "2"]
        _, a, _ = run(capsys, *argv)
        _, b, _ = run(capsys, *argv)
        assert a == b
        rec = json.loads(a)
        assert rec["seed"] == 5 and rec["n"] == 2000
        assert rec["std_error"] > 0

    def test_tv_below_sup(self, capsys):
        base = ["--p", "[0.25,0.5,0.25]", "--eps", "0.1", "-n", "5000", "--seed", "11"]
        _, sup_out, _ = run(capsys, "neighborhood", *base, "--metric", "sup")
        _, tv_out, _ = run(capsys, "neighborhood", *base, "--metric", "tv")
        assert json.loads(tv_out)["estimate"] <= json.loads(sup_out)["estimate"]

    def test_seed_autogenerated_and_recorded(self, capsys):
        code, out, _ = run(capsys, "neighborhood", "--p", "[0.25,0.5,0.25]",
                           "--eps", "0.5", "-n", "1000")
        rec = json.loads(out)
        assert code == 0 and isinstance(rec["seed"], int)
        assert 0 <= rec["seed"] < 2**63

    def test_csv_and_json_carry_identical_numbers(self, capsys):
        base = ["neighborhood", "--p", "[0.25,0.5,0.25]", "--eps", "0.1",
                "-n", "2000", "--seed", "21"]
        _, out_json, _ = run(capsys, *base)
        _, out_csv, _ = run(capsys, *base, "--format", "csv")
        rec = json.loads(out_json)
        header, row = out_csv.strip().splitlines()
        csv_rec = dict(zip(header.split(","), row.split(",")))
        for key in ("estimate", "std_error", "acceptance_rate", "log_estimate"):
            assert float(csv_rec[key]) == rec[key]

    def test_threads_default_counts_usable_cpus(self, monkeypatch):
        # Under taskset or a cpuset the affinity mask, not the host, sets the default.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        args = build_parser().parse_args(["neighborhood", "--p", "[0.5,0.5]", "--eps", "0.1"])
        assert args.threads == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_refused(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            main(["neighborhood", "--p", "[0.5,0.5]", "--eps", "0.1", "-n", "2000",
                  "--seed", "1", "--threads", threads])
        assert exc.value.code == 2
        assert "--threads: must be >= 1" in capsys.readouterr().err

    def test_paper_sigma_flag(self, capsys):
        base = ["neighborhood", "--p", "[0.2,0.2,0.6]", "--eps", "0.3",
                "-n", "20000", "--seed", "31"]
        _, tight, _ = run(capsys, *base)
        _, loose, _ = run(capsys, *base, "--paper-sigma-s")
        assert json.loads(loose)["acceptance_rate"] > json.loads(tight)["acceptance_rate"]


class TestSharedParser:
    """main parses with one cached parser; no call may see an earlier one's arguments."""

    def test_offset_does_not_carry_over(self, capsys):
        argv = ["extremals", "--p", B_HALF]
        run(capsys, *argv, "--offset", "5")
        _, out, _ = run(capsys, *argv)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        fresh = subprocess.run([sys.executable, "-m", "bernsum.cli", *argv], env=env,
                               capture_output=True, text=True, check=True)
        assert out == fresh.stdout

    def test_threads_default_follows_the_mask_at_each_call(self, capsys, monkeypatch):
        seen, estimate = [], cli.estimate_neighborhood_measure

        def capture(spec, n, rng, threads):
            seen.append(threads)
            return estimate(spec, n, rng, threads=threads)

        monkeypatch.setattr(cli, "estimate_neighborhood_measure", capture)
        argv = ["neighborhood", "--p", "[0.5,0.5]", "--eps", "0.1", "-n", "2000", "--seed", "1"]
        for mask in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: mask, raising=False)
            assert run(capsys, *argv)[0] == 0
        assert seen == [1, 3]


class TestScanCommands:
    def test_binomial_scan_csv(self, capsys):
        code, out, _ = run(capsys, "binomial-scan", "--d", "3", "--points", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,log_measure"
        assert len(lines) == 6
        assert lines[1].startswith("0.0,")  # endpoint has empty (zero) measure

    def test_binomial_scan_json_matches_csv(self, capsys):
        _, out_json, _ = run(capsys, "binomial-scan", "--d", "4", "--points", "11")
        _, out_csv, _ = run(capsys, "binomial-scan", "--d", "4", "--points", "11", "--format", "csv")
        rows = json.loads(out_json)
        csv_lines = out_csv.strip().splitlines()[1:]
        assert len(rows) == len(csv_lines) == 11
        for rec, line in zip(rows, csv_lines):
            theta, log_measure = line.split(",")
            assert float(theta) == rec["theta"]
            if rec["log_measure"] is None:
                assert log_measure == ""
            else:
                assert float(log_measure) == rec["log_measure"]

    def test_binomial_scan_dimension_below_one_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["binomial-scan", "--d", "-1"])
        assert exc.value.code == 2
        assert "argument --d: must be >= 1, got -1" in capsys.readouterr().err

    def test_bin_vs_mode_table(self, capsys):
        code, out, _ = run(capsys, "bin-vs-mode", "--dmax", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,d_sup,log_measure_gap"
        assert len(lines) == 6
        sups = [float(line.split(",")[1]) for line in lines[1:]]
        assert sups == sorted(sups, reverse=True)
        # Below d = 2 there is no table: refused as bin_vs_mode refuses d < 2.
        for dmax in ("1", "-5"):
            with pytest.raises(SystemExit) as exc:
                main(["bin-vs-mode", "--dmax", dmax])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument --dmax: must be >= 2, got {dmax}" in captured.err


# The exact keys of each flat command's record, in order, in its JSON output
# (every row of a table) and its CSV header; mode's CSV spreads "p" over p0..pd.
FLAT_KEYS = {
    "bounds": (["--p", B_HALF, "--order", "2"], ["order", "lower", "upper"]),
    "entropy-bounds": (["--p", B_HALF], ["min", "max", "unit"]),
    "constrained-bounds": (["--p", B_HALF, "--theta", THETA, "--subset", "1,2"],
                           ["subset", "lower", "upper"]),
    "measure": (["--p", B_HALF], ["log_ambient", "log_intrinsic", "log_density", "dirichlet_pdf",
                                  "log_normalizing_constant"]),
    "mode": (["--d", "3"], ["p"]),
    "density": (["--p", B_HALF], ["log_density", "dirichlet_pdf", "entropy_nats"]),
    "neighborhood": (["--p", B_HALF, "--eps", "0.1", "-n", "2000", "--seed", "1", "--threads", "1"],
                     ["metric", "epsilon", "seed", "n", "log_estimate", "estimate", "std_error",
                      "acceptance_rate"]),
    "binomial-scan": (["--d", "3", "--points", "3"], ["theta", "log_measure"]),
    "bin-vs-mode": (["--dmax", "3"], ["d", "d_sup", "log_measure_gap"]),
}


@pytest.mark.parametrize("command", sorted(FLAT_KEYS))
def test_flat_record_keys_are_pinned(command, capsys):
    argv, keys = FLAT_KEYS[command]
    code, out, _ = run(capsys, command, *argv)
    assert code == 0
    record = json.loads(out)
    for row in record if isinstance(record, list) else [record]:
        assert list(row) == keys
    code, out, _ = run(capsys, command, *argv, "--format", "csv")
    assert code == 0
    csv_keys = ["p0", "p1", "p2", "p3"] if command == "mode" else keys
    assert out.splitlines()[0].split(",") == csv_keys


class TestErrors:
    def test_malformed_pmf_names_invariant(self, capsys):
        code, _, err = run(capsys, "bounds", "--p", "[0.5, 0.6]", "--order", "1")
        assert code == 2
        assert "normalization" in err

    def test_nan_pmf_names_invariant(self, capsys):
        # json.loads admits NaN; the carrier must refuse it.
        code, _, err = run(capsys, "density", "--p", "[NaN, 1.0]")
        assert code == 2
        assert "normalization" in err

    @pytest.mark.parametrize("p, theta, invariant", [
        ("[0.25, 0.5, 0.25]", "[Infinity, 0.5]", "must lie in [0,1]"),
        ("[0.25, 0.5, 0.25]", "[NaN, 0.5]", "must lie in [0,1]"),
        ("[0.25, 0.5, 0.25]", "[true, false]", "not a probability value"),
        ('["1/0", 1]', "[0.5]", "zero denominator"),
        ("[0.25, 0.5, 0.25]", '["1/0", 0.5]', "zero denominator"),
    ])
    def test_bad_scalar_names_invariant(self, capsys, p, theta, invariant):
        # p and theta meet one scalar rule: no traceback, no bool taken as 0/1.
        code, out, err = run(capsys, "feasible", "--p", p, "--theta", theta)
        assert (code, out) == (2, "")
        assert invariant in err

    def test_negative_pmf(self, capsys):
        code, _, err = run(capsys, "measure", "--p", "[1.2, -0.2]")
        assert code == 2
        assert "nonnegativity" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["extremals", "--p", B_HALF],
        ["feasible", "--p", B_HALF, "--theta", THETA],
        ["constrained-vertices", "--p", B_HALF, "--theta", THETA],
        ["sample", "--p", B_HALF, "--seed", "1"],
    ])
    def test_format_refused_where_output_is_nested(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_unreadable_input(self, capsys):
        code, _, err = run(capsys, "measure", "--p", "not-a-file.json")
        assert code == 2
        assert "not valid inline JSON" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "pmf.json"
        path.write_text(B_HALF)
        code, out, _ = run(capsys, "bounds", "--p", str(path), "--order", "1")
        assert code == 0
        assert json.loads(out)["upper"] == 0.875


class TestClosedPipe:
    """A JSON-lines stream whose reader goes away ends quietly, with the
    status a writer killed by SIGPIPE reports under pipefail."""

    @pytest.mark.parametrize("argv", [
        ["extremals", "--p", "[0.1,0.2,0.3,0.2,0.1,0.05,0.05]"],
        ["sample", "--p", "[0.1,0.2,0.3,0.2,0.1,0.05,0.05]", "-n", "100000", "--seed", "1"],
    ])
    def test_reader_closes_after_one_line(self, argv):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen([sys.executable, "-m", "bernsum.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with proc:
            assert json.loads(proc.stdout.readline())
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == b""
