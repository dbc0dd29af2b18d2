"""The package exports exactly the names its commands, demos and gate use."""

from __future__ import annotations

import segquant as sq


def test_public_names_are_pinned():
    assert sorted(sq.__all__) == [
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
    assert all(hasattr(sq, name) for name in sq.__all__)
