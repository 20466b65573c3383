"""numpy is the package's only runtime dependency: importing bernsum and its
CLI in a fresh interpreter loads no scipy, no test tool and no test oracle.
The names `import bernsum` exposes are pinned, and so are the fields of each
public dataclass and the public methods and properties of each public class,
so adding or removing one is a visible change here."""
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
FORBIDDEN = {"scipy", "hypothesis", "_hypothesis_pytestplugin", "pytest", "_pytest", "oracles"}
PUBLIC = [
    "BasisLimitError", "EstimateReport", "ExtremalIndex", "InfeasibleError", "JointPmf",
    "LabelMap", "LogMeasure", "MeanVector", "NeighborhoodSpec", "PolytopeDescriptor",
    "RngStream", "SparseJointPmf", "SumPmf", "bin_vs_mode", "binomial_pmf",
    "constrained_moment_bounds", "constrained_vertices", "convex_min_pmf", "cross_moment",
    "curve_argmax", "curve_log_measure", "decompose", "density_l", "describe",
    "dirichlet_pdf", "dist_sup", "dist_tv", "entropy", "entropy_bounds",
    "estimate_neighborhood_measure", "estimate_tv_neighborhood_bound", "exchangeable_pmf",
    "extremal_by_index", "extremal_enumerate", "extremal_indices", "feasible_point",
    "flat_weights", "generalized_extremals", "hit_and_run", "index_to_vector",
    "level_element", "level_rank", "level_weight", "maximal_pmf", "membership",
    "moment_bounds", "normalizing_constant", "poisson_binomial_pmf", "polytope_measure",
    "region_volume", "sample_Fd_uniform", "sample_dirichlet", "sample_polytope_uniform",
    "sample_uniform_simplex", "simplex_hausdorff", "sum_map", "vector_to_index",
]
FIELDS = {
    "EstimateReport": ["point_estimate", "std_error", "n_samples", "acceptance_rate"],
    "ExtremalIndex": ["sigma"],
    "JointPmf": ["d", "values"],
    "LabelMap": ["d", "labels"],
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
    "ExtremalIndex": ["validate"],
    "InfeasibleError": [],
    "JointPmf": ["array", "atoms", "exact", "from_json_obj", "positive_masses", "to_json_obj",
                 "to_sparse"],
    "LabelMap": ["popcount", "preimages"],
    "LogMeasure": ["is_zero", "log", "one", "value", "zero"],
    "MeanVector": ["d"],
    "NeighborhoodSpec": ["bounds", "box", "d"],
    "PolytopeDescriptor": [],
    "RngStream": ["chunk_generator", "generator"],
    "SparseJointPmf": ["exact", "from_json_obj", "positive_masses", "to_dense", "to_json_obj"],
    "SumPmf": ["array", "d", "exact", "from_json_obj", "mean", "positive_masses", "support",
               "to_json_obj"],
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
