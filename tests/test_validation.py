"""Every public integer parameter refuses bool, float, str and None alike,
every float parameter refuses bool, str and None, and every list of n points
or of samples refuses a length above its cap."""

from __future__ import annotations

import pytest

import segquant as sq
from segquant import asymptotics, cli, closed_form, quantizer
from segquant.asymptotics import _MAX_SAMPLES
from segquant.quantizer import _MAX_POINTS

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
    "excess_exact.n": (closed_form.excess_exact, 1),
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


FLOAT_CASES = {
    "SolverConfig.tol": (lambda v: sq.SolverConfig(tol=v), 1e-3),
    "OracleConfig.grid_step": (lambda v: sq.OracleConfig(grid_step=v), 1e-2),
}


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_float_parameters_refuse_bools_and_non_numbers(case):
    call, good = FLOAT_CASES[case]
    call(good)
    # True would pass as 1.0: SolverConfig(tol=True) stopped a solve early;
    # 10**400 is finite but overflows a float
    for bad in (True, str(good), None, 10**400):
        with pytest.raises(ValueError):
            call(bad)


def test_point_lists_refuse_n_above_cap_before_allocating(monkeypatch, capsys):
    class Allocated(Exception):
        pass

    def allocate(*args):
        raise Allocated

    # the first per-point work of each path raises instead of running
    monkeypatch.setattr(closed_form, "Fraction", allocate)
    monkeypatch.setattr(quantizer, "_perturbed_equispaced_feet", allocate)
    calls = [
        sq.optimal_abscissas_exact,
        sq.optimal_points,
        sq.unconstrained_means,
        lambda n: sq.solve_fixed_constraint(n, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call(_MAX_POINTS + 1)
        # at the cap the check passes and the first allocation is reached
        with pytest.raises(Allocated):
            call(_MAX_POINTS)
    for method in ("closed-form", "lloyd", "brute-force"):
        argv = ["solve", "--n", str(_MAX_POINTS + 1), "--method", method]
        assert cli.main(argv) == 2, method
        assert "error:" in capsys.readouterr().err


def test_dimension_samples_refuse_above_cap_before_allocating(monkeypatch, capsys):
    class Allocated(Exception):
        pass

    def allocate(*args):
        raise Allocated

    # building the sample list raises instead of running
    monkeypatch.setattr(asymptotics, "_geometric_samples", allocate)
    with pytest.raises(ValueError):
        sq.dimension_regression(2, 100, _MAX_SAMPLES + 1)
    # at the cap the check passes and the sample list is reached
    with pytest.raises(Allocated):
        sq.dimension_regression(2, 100, _MAX_SAMPLES)
    assert cli.main(["dimension", "--samples", str(_MAX_SAMPLES + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: samples must be an integer in [2, 100000]" in captured.err
