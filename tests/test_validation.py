"""Every public integer parameter refuses bool, float, str and None alike."""

from __future__ import annotations

import pytest

import segquant as sq

UNIT = sq.SupportInterval(0, 1)

# (callable, parameter): a call with the parameter set to v, and a value of v
# the call accepts, so that each refusal below is for the type alone
CASES = {
    "ConstraintPoint.j": (lambda v: sq.ConstraintPoint(v, 0.0), 1),
    "inverse_map.j": (lambda v: sq.inverse_map(v, 0.5), 1),
    "feasible_foot_range.j": (sq.feasible_foot_range, 1),
    "optimal_interval_distortion.t": (lambda v: sq.optimal_interval_distortion(UNIT, v), 1),
    "vn_exact.n": (sq.vn_exact, 1),
    "vn.n": (sq.vn, 1),
    "excess_exact.n": (sq.excess_exact, 1),
    "optimal_abscissas_exact.n": (sq.optimal_abscissas_exact, 1),
    "optimal_points.n": (sq.optimal_points, 1),
    "unconstrained_means.n": (sq.unconstrained_means, 1),
    "excess.n": (sq.excess, 1),
    "coefficient_estimate.n": (sq.coefficient_estimate, 1),
    "dimension_direct.n": (sq.dimension_direct, 2),
    "dimension_regression.n_min": (lambda v: sq.dimension_regression(v, 100), 2),
    "dimension_regression.n_max": (lambda v: sq.dimension_regression(2, v), 100),
    "dimension_regression.samples": (lambda v: sq.dimension_regression(2, 100, v), 9),
    "lloyd_step.t": (lambda v: sq.lloyd_step(sq.optimal_points(1), v), 1),
    "SolverConfig.max_iter": (lambda v: sq.SolverConfig(max_iter=v), 1),
    "solve_fixed_constraint.n": (lambda v: sq.solve_fixed_constraint(v, 1), 1),
    "solve_fixed_constraint.t": (lambda v: sq.solve_fixed_constraint(1, v), 1),
    "OracleConfig.max_index": (lambda v: sq.OracleConfig(max_index=v), 1),
    "OracleConfig.refine_rounds": (lambda v: sq.OracleConfig(refine_rounds=v), 0),
    "brute_force.n": (sq.brute_force, 1),
    "riemann_distortion.panels": (
        lambda v: sq.riemann_distortion(sq.optimal_points(1), panels=v),
        1,
    ),
}


# max_index=None is the documented default: search the whole family
NONE_ALLOWED = {"OracleConfig.max_index"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_integer_parameters_refuse_non_integers(case):
    call, good = CASES[case]
    call(good)
    bad_values = [bool(good), float(good), str(good)]
    if case not in NONE_ALLOWED:
        bad_values.append(None)
    for bad in bad_values:
        with pytest.raises(ValueError):
            call(bad)
