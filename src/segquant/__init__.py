"""Optimal quantization of the uniform unit segment under diagonal constraints.

The target measure is uniform on [0, 1] x {0}; quantizer points must lie on
the segments S_j = {(x, x + 1/j) : -1/j <= x <= 1}.  The package computes the
optimal n-point quantizers three independent ways (closed form, Lloyd-style
fixed point, exact grid search) and estimates the quantization dimension
(2) and coefficient (1/2) from the error sequence.
"""

from .asymptotics import (
    RegressionEstimate,
    coefficient_estimate,
    dimension_direct,
    dimension_regression,
    excess,
)
from .closed_form import (
    optimal_abscissas_exact,
    optimal_points,
    unconstrained_means,
    v_infinity,
    vn,
    vn_exact,
)
from .geometry import (
    ConstraintPoint,
    DegenerateBoundaryError,
    Point,
    embed,
    feasible_foot_range,
    forward_map,
    inverse_map,
    squared_distance,
    voronoi_breakpoint,
)
from .measure import (
    SupportInterval,
    optimal_interval_distortion,
)
from .oracle import (
    BruteForceLimitError,
    OracleConfig,
    brute_force,
    riemann_distortion,
)
from .quantizer import (
    InvalidQuantizerError,
    Quantizer,
    SolverConfig,
    SolverOutcome,
    distortion,
    lloyd_step,
    partition_of,
    solve_fixed_constraint,
)

__version__ = "0.1.0"

__all__ = [
    "BruteForceLimitError",
    "ConstraintPoint",
    "DegenerateBoundaryError",
    "InvalidQuantizerError",
    "OracleConfig",
    "Point",
    "Quantizer",
    "RegressionEstimate",
    "SolverConfig",
    "SolverOutcome",
    "SupportInterval",
    "brute_force",
    "coefficient_estimate",
    "dimension_direct",
    "dimension_regression",
    "distortion",
    "embed",
    "excess",
    "feasible_foot_range",
    "forward_map",
    "inverse_map",
    "lloyd_step",
    "optimal_abscissas_exact",
    "optimal_interval_distortion",
    "optimal_points",
    "partition_of",
    "riemann_distortion",
    "solve_fixed_constraint",
    "squared_distance",
    "unconstrained_means",
    "v_infinity",
    "vn",
    "vn_exact",
    "voronoi_breakpoint",
]
