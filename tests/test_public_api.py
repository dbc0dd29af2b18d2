"""The package exports exactly the names its commands, demos and gate use."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import segquant as sq


def test_public_names_are_pinned():
    assert sorted(sq.__all__) == [
        "ConstraintPoint",
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


def public(obj) -> list[str]:
    return sorted(m for m in dir(obj) if not m.startswith("_"))


def test_public_members_are_pinned():
    fields = {
        name: [f.name for f in dataclasses.fields(getattr(sq, name))]
        for name in sq.__all__
        if dataclasses.is_dataclass(getattr(sq, name))
    }
    assert fields == {
        "ConstraintPoint": ["j", "x"],
        "OracleConfig": ["max_index"],
        "Point": ["x", "y"],
        "Quantizer": ["points"],
        "RegressionEstimate": ["slope", "intercept", "dimension", "residual"],
        "SolverConfig": ["tol", "max_iter", "init", "init_feet"],
        "SolverOutcome": ["quantizer", "distortion", "iterations", "converged"],
        "SupportInterval": ["lo", "hi"],
    }
    # methods and properties, besides the points field
    assert public(sq.Quantizer) == ["feet", "n"]
    assert public(sq.InvalidQuantizerError("m")) == public(ValueError("m"))
    # the points fix lloyd_step's constraint, so no caller passes it
    assert list(inspect.signature(sq.lloyd_step).parameters) == ["q"]


def test_every_annotation_resolves():
    checked = 0
    for info in pkgutil.iter_modules(sq.__path__, "segquant."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                members = [m for m in vars(obj).values() if inspect.isfunction(m)]
                targets = [obj, *members]
            elif inspect.isfunction(obj):
                targets = [obj]
            else:
                continue
            for target in targets:
                typing.get_type_hints(target)
                checked += 1
    assert checked > 50
