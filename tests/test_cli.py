import json
import math
from fractions import Fraction

import pytest

from bernsum.cli import main
from bernsum.pmf import JointPmf, SumPmf
from bernsum.polytope import membership

from oracles import exact_levels_and_means

B_HALF = "[0.125, 0.375, 0.375, 0.125]"
THETA = '["1/4", "2/4", "3/4"]'


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

    def test_constrained_bounds(self, capsys):
        code, out, _ = run(capsys, "constrained-bounds", "--p", B_HALF,
                           "--theta", THETA, "--subset", "1,2")
        assert code == 0
        rec = json.loads(out)
        assert Fraction(rec["lower"]) == Fraction(1, 8)
        assert Fraction(rec["upper"]) == Fraction(1, 4)


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

    def test_reproducible(self, capsys):
        _, a, _ = run(capsys, "sample", "--p", B_HALF, "-n", "3", "--seed", "7")
        _, b, _ = run(capsys, "sample", "--p", B_HALF, "-n", "3", "--seed", "7")
        assert a == b

    def test_generated_seed_recorded(self, capsys):
        code, out, _ = run(capsys, "sample", "--p", B_HALF, "-n", "1")
        header = json_lines(out)[0]
        assert code == 0 and isinstance(header["seed"], int)


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

    def test_paper_sigma_flag(self, capsys):
        base = ["neighborhood", "--p", "[0.2,0.2,0.6]", "--eps", "0.3",
                "-n", "20000", "--seed", "31"]
        _, tight, _ = run(capsys, *base)
        _, loose, _ = run(capsys, *base, "--paper-sigma-s")
        assert json.loads(loose)["acceptance_rate"] > json.loads(tight)["acceptance_rate"]


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

    def test_bin_vs_mode_table(self, capsys):
        code, out, _ = run(capsys, "bin-vs-mode", "--dmax", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,d_sup,log_measure_gap"
        assert len(lines) == 6
        sups = [float(line.split(",")[1]) for line in lines[1:]]
        assert sups == sorted(sups, reverse=True)


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

    def test_negative_pmf(self, capsys):
        code, _, err = run(capsys, "measure", "--p", "[1.2, -0.2]")
        assert code == 2
        assert "nonnegativity" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

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
