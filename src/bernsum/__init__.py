"""Geometry of multivariate Bernoulli distributions with a prescribed sum law."""

from .indexing import level_element
from .pmf import (
    JointPmf,
    SparseJointPmf,
    SumPmf,
    cross_moment,
    entropy,
    sum_map,
)
from .polytope import (
    PolytopeDescriptor,
    convex_min_pmf,
    decompose,
    describe,
    entropy_bounds,
    exchangeable_pmf,
    extremal_by_index,
    extremal_enumerate,
    extremal_indices,
    flat_weights,
    membership,
    moment_bounds,
)
from .feasibility import (
    BasisLimitError,
    InfeasibleError,
    MeanVector,
    constrained_moment_bounds,
    constrained_vertices,
    feasible_point,
)
from .measure import (
    LogMeasure,
    density_l,
    dirichlet_pdf,
    dist_sup,
    dist_tv,
    maximal_pmf,
    normalizing_constant,
    polytope_measure,
    simplex_hausdorff,
)
from .sampling import (
    EstimateReport,
    NeighborhoodSpec,
    RngStream,
    estimate_neighborhood_measure,
    hit_and_run,
    region_volume,
    sample_Fd_uniform,
    sample_polytope_uniform,
    sample_uniform_simplex,
)
from .binomial import (
    bin_vs_mode,
    binomial_pmf,
    curve_log_measure,
    poisson_binomial_pmf,
)

__version__ = "0.1.0"
