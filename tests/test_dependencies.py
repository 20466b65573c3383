"""numpy is the package's only runtime dependency: importing bernsum and its
CLI in a fresh interpreter loads no scipy, no test tool and no test oracle,
nor mpmath or sympy, which the oracles may use.
The names `import bernsum` exposes are pinned, and so are the fields of each
public dataclass and the public methods and properties of each public class,
so adding or removing one is a visible change here."""
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
FORBIDDEN = {"scipy", "hypothesis", "_hypothesis_pytestplugin", "pytest", "_pytest", "oracles", "mpmath", "sympy"}
PUBLIC = [
    "BasisLimitError", "EstimateReport", "InfeasibleError", "JointPmf",
    "LogMeasure", "MeanVector", "NeighborhoodSpec", "PolytopeDescriptor",
    "RngStream", "SparseJointPmf", "SumPmf", "bin_vs_mode", "binomial_pmf",
    "constrained_moment_bounds", "constrained_vertices", "convex_min_pmf", "cross_moment",
    "curve_argmax", "curve_log_measure", "decompose", "density_l", "describe",
    "dirichlet_pdf", "dist_sup", "dist_tv", "entropy", "entropy_bounds",
    "estimate_neighborhood_measure", "exchangeable_pmf",
    "extremal_by_index", "extremal_enumerate", "extremal_indices", "feasible_point",
    "flat_weights", "hit_and_run", "level_element", "maximal_pmf", "membership",
    "moment_bounds", "normalizing_constant", "poisson_binomial_pmf", "polytope_measure",
    "region_volume", "sample_Fd_uniform", "sample_polytope_uniform",
    "sample_uniform_simplex", "simplex_hausdorff", "sum_map",
]
FIELDS = {
    "EstimateReport": ["point_estimate", "std_error", "n_samples", "acceptance_rate"],
    "JointPmf": ["d", "values"],
    "LogMeasure": ["log_value"],
    "MeanVector": ["values"],
    "NeighborhoodSpec": ["center", "epsilon", "metric", "paper_region"],
    "PolytopeDescriptor": ["p", "block_dims", "support", "intrinsic_dim", "vertex_count"],
    "RngStream": ["seed", "stream_id"],
    "SparseJointPmf": ["d", "atoms"],
    "SumPmf": ["values"],
}
# Each public class's own non-underscore attributes other than its fields.
ATTRIBUTES = {
    "BasisLimitError": [],
    "EstimateReport": [],
    "InfeasibleError": [],
    "JointPmf": ["array", "atoms", "exact", "from_json_obj", "to_json_obj"],
    "LogMeasure": ["is_zero", "log", "one", "value", "zero"],
    "MeanVector": ["d"],
    "NeighborhoodSpec": ["box", "d"],
    "PolytopeDescriptor": [],
    "RngStream": ["chunk_generator", "generator"],
    "SparseJointPmf": ["exact", "from_json_obj", "to_dense", "to_json_obj"],
    "SumPmf": ["array", "d", "exact", "from_json_obj", "mean", "support", "to_json_obj"],
}


def test_import_loads_no_test_or_scipy_module():
    # tests/ is on the path, so an import of the oracles would succeed and show.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    code = "import json, sys, bernsum, bernsum.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = json.loads(proc.stdout)
    assert "numpy" in loaded and "bernsum.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] in FORBIDDEN] == []
    # The CLI draws an unseeded run's seed from os.urandom: secrets would
    # pull in hmac and _hashlib at every start.
    assert [m for m in loaded if m in ("secrets", "hmac")] == []


def test_public_surface_is_pinned():
    import bernsum
    names = sorted(n for n, v in vars(bernsum).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC
    fields = {n: [f.name for f in dataclasses.fields(getattr(bernsum, n))]
              for n in PUBLIC if dataclasses.is_dataclass(getattr(bernsum, n))}
    assert fields == FIELDS
    classes = {n: getattr(bernsum, n) for n in PUBLIC if inspect.isclass(getattr(bernsum, n))}
    attributes = {n: sorted(a for a in vars(c) if not a.startswith("_") and a not in FIELDS.get(n, []))
                  for n, c in classes.items()}
    assert attributes == ATTRIBUTES


# Every subcommand, and whether it reads a sum pmf through --p.
COMMANDS = {
    "extremals": True, "bounds": True, "entropy-bounds": True, "feasible": True,
    "constrained-vertices": True, "constrained-bounds": True, "measure": True, "mode": False,
    "density": True, "sample": True, "neighborhood": True, "binomial-scan": False,
    "bin-vs-mode": False,
}


# The names perfbench/ calls, by module: deleting or renaming one would turn
# its jobs into `error`.  They may go only with the benchmark's own change,
# ROADMAP item 4.
PERFBENCH_CALLS = {
    "cli": ["main", "build_parser"],
    "feasibility": ["feasible_point", "constrained_vertices", "constrained_moment_bounds"],
    "pmf": ["SumPmf", "JointPmf", "SparseJointPmf", "sum_map", "entropy", "cross_moment"],
    "polytope": ["exchangeable_pmf", "membership", "decompose"],
    "sampling": ["NeighborhoodSpec", "RngStream", "region_volume", "hit_and_run",
                 "sample_polytope_uniform", "sample_Fd_uniform"],
}


def test_cli_entry_points_called_from_outside_src():
    # pyproject.toml's console script calls cli.main, and the benchmark's
    # set-up probe calls cli.build_parser: a rename would break both.
    from bernsum import cli
    assert callable(cli.main) and callable(cli.build_parser)
    scripts = (TESTS.parent / "pyproject.toml").read_text().split("[project.scripts]")[1]
    assert scripts.strip().splitlines()[0] == 'bernsum = "bernsum.cli:main"'
    for module, names in PERFBENCH_CALLS.items():
        mod = importlib.import_module(f"bernsum.{module}")
        assert [n for n in names if not callable(getattr(mod, n, None))] == [], module
    from bernsum.measure import LogMeasure
    assert LogMeasure(-1.5).log == -1.5


def test_every_help_exits_0(capsys):
    from bernsum.cli import main
    for argv in ([], *([c] for c in COMMANDS)):
        try:
            main([*argv, "--help"])
        except SystemExit as exc:
            assert exc.code == 0, argv
        out = capsys.readouterr().out
        if argv:
            assert ("--p P" in out) == COMMANDS[argv[0]], argv
        else:
            assert all(c in out for c in COMMANDS)
