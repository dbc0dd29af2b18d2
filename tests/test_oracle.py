"""Exhaustive grid search and Riemann integration as independent referees."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from segquant import (
    BruteForceLimitError,
    ConstraintPoint,
    OracleConfig,
    Quantizer,
    brute_force,
    distortion,
    feasible_foot_range,
    optimal_points,
    riemann_distortion,
    solve_fixed_constraint,
    vn,
)
from segquant.oracle import (
    _MAX_GRID_STATES,
    _RIEMANN_MAX_PANELS,
    _best_on_grids,
    _coarse_minimum,
    _grid_distortions,
)
from conftest import random_same_constraint_quantizer

# discretization tolerances: the final grid resolution with defaults is
# grid_step / 2**refine_rounds = 1.25e-3, and the distortion is locally
# quadratic around the optimum
ABSCISSA_TOL = 2.5e-3
DISTORTION_TOL = 1e-5


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_step=0.0)
    with pytest.raises(ValueError):
        OracleConfig(grid_step=float("inf"))
    with pytest.raises(ValueError):
        OracleConfig(max_index=0)
    with pytest.raises(ValueError):
        OracleConfig(refine_rounds=-1)


# ----------------------------------------------------------------- riemann


def test_riemann_single_panel():
    # one midpoint at x = 1/2 against the point embedded at (-1/4, 3/4)
    q = Quantizer((ConstraintPoint(1, -0.25),))
    assert riemann_distortion(q, panels=1) == 1.125


def test_riemann_validation():
    q = optimal_points(1)
    for bad in (0, -5, 2.5, True):
        with pytest.raises(ValueError):
            riemann_distortion(q, panels=bad)


def test_riemann_refuses_panels_above_cap_before_allocating(monkeypatch):
    class Allocated(Exception):
        pass

    def arange(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(np, "arange", arange)
    q = optimal_points(1)
    with pytest.raises(ValueError):
        riemann_distortion(q, panels=_RIEMANN_MAX_PANELS + 1)
    # at the cap the check passes and the first allocation is reached
    with pytest.raises(Allocated):
        riemann_distortion(q, panels=_RIEMANN_MAX_PANELS)


def test_riemann_matches_exact_distortion():
    for n in (1, 2, 5):
        q = optimal_points(n)
        exact = distortion(q)
        assert abs(riemann_distortion(q, panels=10**4) - exact) <= 1e-8
        assert abs(riemann_distortion(q) - exact) <= 1e-10


def test_riemann_error_shrinks_with_panels():
    q = optimal_points(3)
    exact = distortion(q)
    coarse = abs(riemann_distortion(q, panels=10**2) - exact)
    fine = abs(riemann_distortion(q, panels=10**4) - exact)
    assert fine < coarse


def test_riemann_on_mixed_constraint_quantizer():
    # independent of any partition logic, so mixed indices are fine
    q = Quantizer((ConstraintPoint(2, -0.2), ConstraintPoint(3, 0.2)))
    assert abs(riemann_distortion(q) - distortion(q)) <= 1e-10


# ------------------------------------------------------------- brute force


def test_brute_force_single_point_fine_grid():
    out = brute_force(1, OracleConfig(grid_step=1e-3, refine_rounds=0))
    p = out.quantizer.points[0]
    assert p.j == 1
    assert abs(p.x - (-0.25)) <= 2e-3
    assert abs(out.distortion - float(F(29, 24))) <= 1e-5
    assert out.iterations == 1
    assert out.converged


def test_brute_force_puts_all_points_on_the_top_constraint():
    for n in (1, 2, 3):
        out = brute_force(n)
        assert all(p.j == n for p in out.quantizer.points)
        exact = [float(F(2 * j - 3, 4 * n)) for j in range(1, n + 1)]
        worst = max(abs(p.x - e) for p, e in zip(out.quantizer.points, exact))
        assert worst <= ABSCISSA_TOL
        assert abs(out.distortion - vn(n)) <= DISTORTION_TOL
        assert out.iterations == 1 + 3


def test_brute_force_never_beats_the_closed_form():
    for n in (1, 2, 3):
        assert brute_force(n).distortion >= vn(n) - 1e-12


def test_brute_force_restricted_family():
    # confined to S_1, two points land at the S_1 optimum (value 113/96)
    out = brute_force(2, OracleConfig(max_index=1))
    assert all(p.j == 1 for p in out.quantizer.points)
    reference = solve_fixed_constraint(2, 1)
    assert abs(out.distortion - reference.distortion) <= DISTORTION_TOL
    assert out.distortion >= reference.distortion - 1e-12


def test_brute_force_full_family_equals_explicit_cap():
    default = brute_force(2)
    capped = brute_force(2, OracleConfig(max_index=2))
    assert default.quantizer == capped.quantizer
    assert default.distortion == capped.distortion


def test_brute_force_is_deterministic():
    a = brute_force(2)
    b = brute_force(2)
    assert a.quantizer == b.quantizer
    assert a.distortion == b.distortion


def test_brute_force_limits():
    with pytest.raises(BruteForceLimitError):
        brute_force(4)
    with pytest.raises(ValueError):
        brute_force(0)
    with pytest.raises(ValueError):
        brute_force(2, OracleConfig(max_index=3))


def test_brute_force_refuses_grid_states_above_cap_before_allocating(monkeypatch):
    class Allocated(Exception):
        pass

    def arange(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(np, "arange", arange)
    # 10,006 states at n = 2 (G x G tables of 764 MB), a 3.8 GB grid at n = 1,
    # and an infinite count from a subnormal step
    for n, step in ((2, 1e-4), (1, 1e-9), (1, 5e-324)):
        with pytest.raises(BruteForceLimitError):
            brute_force(n, OracleConfig(grid_step=step))
    # S_1's grid has ceil(0.5 / step + 2.5) states: one above the cap, then
    # exactly the cap, where the check passes and the first allocation is reached
    with pytest.raises(BruteForceLimitError):
        brute_force(1, OracleConfig(grid_step=0.5 / (_MAX_GRID_STATES - 2)))
    with pytest.raises(Allocated):
        brute_force(1, OracleConfig(grid_step=0.5 / (_MAX_GRID_STATES - 3)))


def _coarse_grids(max_index, step):
    # brute_force's coarse grids: each feasible range widened by one step
    grids = {}
    for j in range(1, max_index + 1):
        lo, hi = feasible_foot_range(j)
        grids[j] = np.arange(lo - step, hi + step + step / 2, step)
    return grids


def _enumerated_minimum(n, grids):
    # referee: every assignment of indices, every position tuple on its grids
    best = None
    for ts in itertools.product(grids, repeat=n):
        found = _best_on_grids(ts, [grids[t] for t in ts])
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], ts, found[1])
    return best


@pytest.mark.parametrize("grid_step", [1e-2, 0.05])
def test_dynamic_program_equals_the_enumeration(grid_step):
    for n in (1, 2, 3):
        for max_index in range(1, n + 1):
            grids = _coarse_grids(max_index, grid_step)
            # the same float value, indices and abscissas
            assert _coarse_minimum(n, grids) == _enumerated_minimum(n, grids), (
                f"n={n} max_index={max_index}"
            )


def test_dynamic_program_equals_the_enumeration_on_random_grids():
    # irregular grids reach tuples where each pair and triple test binds
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        max_index = int(rng.integers(1, n + 1))
        grids = {
            t: np.sort(rng.uniform(-1.0 / t, 0.8, size=int(rng.integers(1, 8))))
            for t in range(1, max_index + 1)
        }
        assert _coarse_minimum(n, grids) == _enumerated_minimum(n, grids), grids


def test_brute_force_never_holds_a_cube_of_states():
    # the enumeration peaked at 20.6 MiB for n = 3, the pair-state program
    # at about 1.3 MiB; G^3 float64 values at G = 159 states are 30.7 MiB
    tracemalloc.start()
    try:
        brute_force(3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


# ---------------------------------------------------- candidate evaluator


def test_grid_evaluator_matches_distortion_module():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        q = random_same_constraint_quantizer(rng)
        ts = [p.j for p in q.points]
        xs = [np.array([float(p.x)]) for p in q.points]
        got = float(_grid_distortions(ts, xs)[0])
        assert abs(got - distortion(q)) <= 1e-13


def test_grid_evaluator_matches_on_mixed_indices():
    rng = np.random.default_rng(4096)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 5))
        ts = [int(rng.integers(1, 6)) for _ in range(n)]
        raw = [float(rng.uniform(-1.0 / t, 1.0)) for t in ts]
        xs = [np.array([x]) for x in raw]
        got = float(_grid_distortions(ts, xs)[0])
        try:
            q = Quantizer(tuple(ConstraintPoint(t, x) for t, x in zip(ts, raw)))
            expected = distortion(q)
        except ValueError:
            assert got == math.inf
            checked += 1
            continue
        assert abs(got - expected) <= 1e-13
        checked += 1


def test_grid_evaluator_flags_unordered_feet():
    # feet 0.75 then 0.25: invalid ordering must map to +inf, not a value
    ts = [1, 1]
    xs = [np.array([-0.125]), np.array([-0.375])]
    assert math.isinf(_grid_distortions(ts, xs)[0])
