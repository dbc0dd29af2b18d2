"""Quantizer validity, Voronoi partitions, distortion, and the Lloyd solver."""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segquant import (
    ConstraintPoint,
    InvalidQuantizerError,
    Quantizer,
    SolverConfig,
    distortion,
    inverse_map,
    lloyd_step,
    optimal_abscissas_exact,
    partition_of,
    solve_fixed_constraint,
    vn,
)
from segquant import quantizer
from conftest import random_same_constraint_quantizer


def optimal_quantizer(n: int) -> Quantizer:
    return Quantizer(tuple(ConstraintPoint(n, x) for x in optimal_abscissas_exact(n)))


# ---------------------------------------------------------------- construction


def test_quantizer_basic_properties():
    q = optimal_quantizer(2)
    assert q.n == 2
    assert q.abscissas() == (F(-1, 8), F(1, 8))
    assert q.feet() == (F(1, 4), F(3, 4))


def test_quantizer_rejects_empty_and_nonpoints():
    with pytest.raises(InvalidQuantizerError):
        Quantizer(())
    with pytest.raises(TypeError):
        Quantizer((ConstraintPoint(1, 0.0), (2, 0.1)))


def test_quantizer_rejects_nonincreasing_feet():
    # feet 1/2, 1/2: equal feet on different constraints
    with pytest.raises(InvalidQuantizerError) as e:
        Quantizer((ConstraintPoint(1, F(-1, 4)), ConstraintPoint(2, F(0))))
    assert e.value.index == 0
    with pytest.raises(InvalidQuantizerError):
        Quantizer((ConstraintPoint(3, 0.5), ConstraintPoint(3, 0.2)))


# ------------------------------------------------------------------ partitions


def test_partition_of_examples():
    assert partition_of(optimal_quantizer(1)) == (0, 1)
    assert partition_of(optimal_quantizer(2)) == (0, F(1, 2), 1)
    assert partition_of(optimal_quantizer(4)) == (
        0,
        F(1, 4),
        F(1, 2),
        F(3, 4),
        1,
    )


def test_partition_of_rejects_empty_first_cell():
    # feet 1/2 < 3/4 but the cross-constraint breakpoint is -7/24, which
    # clamps to 0 and empties the first cell
    q = Quantizer((ConstraintPoint(1, F(-1, 4)), ConstraintPoint(2, F(1, 8))))
    with pytest.raises(InvalidQuantizerError) as e:
        partition_of(q)
    assert e.value.index == 0


@pytest.mark.parametrize("x", [0.2, F(1, 5)])
def test_partition_of_equal_abscissas_empty_the_right_cell(x):
    # feet 2x + 1/3 < 2x + 1, but at equal abscissas the point on S_3 sits
    # nearer the axis everywhere, so the S_1 point's cell is empty
    q = Quantizer((ConstraintPoint(3, x), ConstraintPoint(1, x)))
    for call in (partition_of, distortion):
        with pytest.raises(InvalidQuantizerError) as e:
            call(q)
        assert e.value.index == 1


def test_partition_of_equal_abscissas_inside_a_quantizer():
    # feet 1/4, 11/15, 7/5, 2; the middle pair shares abscissa 0.2
    points = (
        ConstraintPoint(4, 0.0),
        ConstraintPoint(3, 0.2),
        ConstraintPoint(1, 0.2),
        ConstraintPoint(1, 0.5),
    )
    with pytest.raises(InvalidQuantizerError) as e:
        partition_of(Quantizer(points))
    assert e.value.index == 2


def test_partition_of_random_quantizers_is_sane():
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = random_same_constraint_quantizer(rng)
        cuts = partition_of(q)
        assert cuts[0] == 0 and cuts[-1] == 1
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert len(cuts) == q.n + 1
        # each cut is the midpoint of the adjacent feet
        feet = q.feet()
        for i in range(q.n - 1):
            assert math.isclose(cuts[i + 1], (feet[i] + feet[i + 1]) / 2, abs_tol=1e-12)


# ------------------------------------------------------------------ distortion


def test_distortion_examples():
    assert distortion(Quantizer((ConstraintPoint(1, F(-1, 4)),))) == F(29, 24)
    assert distortion(Quantizer((ConstraintPoint(1, F(0)),))) == F(4, 3)
    assert distortion(optimal_quantizer(2)) == F(53, 96)
    assert distortion(optimal_quantizer(3)) == F(85, 216)


def test_distortion_matches_closed_form_along_n():
    # exact rational agreement with (4n^2 + 12n + 13) / (24 n^2)
    for n in range(1, 40):
        assert distortion(optimal_quantizer(n)) == F(4 * n * n + 12 * n + 13, 24 * n * n)


# ------------------------------------------------------------------ lloyd_step


def test_lloyd_step_fixed_point_exact():
    for n in (1, 2, 3, 5, 8):
        q = optimal_quantizer(n)
        assert lloyd_step(q, n).points == q.points


def test_lloyd_step_single_point():
    q = Quantizer((ConstraintPoint(1, F(3, 10)),))
    stepped = lloyd_step(q, 1)
    assert stepped.points[0].x == F(-1, 4)


def test_lloyd_step_two_points_exact():
    # feet (1/3, 2/3) -> cell midpoints (1/4, 3/4) -> feet (1/4, 3/4)
    q = Quantizer((inverse_map(1, F(1, 3)), inverse_map(1, F(2, 3))))
    stepped = lloyd_step(q, 1)
    assert stepped.points == (ConstraintPoint(1, F(-3, 8)), ConstraintPoint(1, F(-1, 8)))


@pytest.mark.parametrize("n", [1, 3])
def test_lloyd_step_keeps_the_number_type(n):
    feet = [F(2 * j - 1, 2 * n) + F(1, 10 * n) for j in range(1, n + 1)]
    for kind in (F, float):
        q = Quantizer(tuple(inverse_map(2, kind(f)) for f in feet))
        assert all(type(p.x) is kind for p in lloyd_step(q, 2).points)


def test_lloyd_step_wrong_constraint():
    q = optimal_quantizer(2)
    with pytest.raises(ValueError):
        lloyd_step(q, 3)


def test_lloyd_step_never_increases_distortion():
    rng = np.random.default_rng(23)
    for _ in range(30):
        q = random_same_constraint_quantizer(rng)
        t = q.points[0].j
        before = distortion(q)
        after = distortion(lloyd_step(q, t))
        assert after <= before + 1e-14


# ---------------------------------------------------------------------- solver


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(init="midpoints")
    with pytest.raises(ValueError):
        SolverConfig(init="explicit")


def test_solve_fixed_constraint_reaches_closed_form():
    for n in (1, 2, 3, 5, 8, 21):
        out = solve_fixed_constraint(n, n)
        assert out.converged
        exact_feet = [(2 * j - 1) / (2 * n) for j in range(1, n + 1)]
        worst = max(abs(f - e) for f, e in zip(out.quantizer.feet(), exact_feet))
        assert worst <= 1e-9
        assert abs(out.distortion - vn(n)) <= 1e-12


def test_solve_two_points_on_first_constraint():
    # best two points restricted to S_1: abscissas (-3/8, -1/8), value 113/96
    out = solve_fixed_constraint(2, 1)
    assert out.converged
    xs = out.quantizer.abscissas()
    assert abs(xs[0] - (-0.375)) <= 1e-9
    assert abs(xs[1] - (-0.125)) <= 1e-9
    assert abs(out.distortion - 113 / 96) <= 1e-12
    # S_2 holds strictly better two-point quantizers than S_1
    assert out.distortion > float(F(53, 96))


def test_solver_feet_do_not_depend_on_constraint_index():
    for n in (1, 3, 6):
        feet_by_t = [solve_fixed_constraint(n, t).quantizer.feet() for t in (1, 4, 9)]
        for feet in feet_by_t[1:]:
            worst = max(abs(a - b) for a, b in zip(feet, feet_by_t[0]))
            assert worst <= 1e-10


def test_solver_single_sweep_equals_lloyd_step():
    rng = np.random.default_rng(101)
    for _ in range(50):
        q = random_same_constraint_quantizer(rng)
        t = q.points[0].j
        cfg = SolverConfig(tol=1e-30, max_iter=1, init="explicit", init_feet=q.feet())
        out = solve_fixed_constraint(q.n, t, cfg)
        stepped = lloyd_step(q, t)
        worst = max(
            abs(a - float(b))
            for a, b in zip(out.quantizer.feet(), stepped.feet())
        )
        assert worst <= 1e-14


def test_solver_descends_and_reports_non_convergence():
    out = solve_fixed_constraint(16, 16, SolverConfig(tol=1e-30, max_iter=3))
    assert not out.converged
    assert out.iterations == 3
    resumed = solve_fixed_constraint(
        16,
        16,
        SolverConfig(tol=1e-30, max_iter=3, init="explicit", init_feet=out.quantizer.feet()),
    )
    assert resumed.distortion <= out.distortion


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_fixed_constraint(0, 1)
    with pytest.raises(ValueError):
        solve_fixed_constraint(2, 0)
    with pytest.raises(ValueError):
        solve_fixed_constraint(
            2, 1, SolverConfig(init="explicit", init_feet=(0.25, 0.5, 0.75))
        )
    with pytest.raises(ValueError):
        # feet on S_1 sweep [-1, 3]; 3.5 has no preimage
        solve_fixed_constraint(2, 1, SolverConfig(init="explicit", init_feet=(0.25, 3.5)))
    with pytest.raises(InvalidQuantizerError):
        solve_fixed_constraint(2, 1, SolverConfig(init="explicit", init_feet=(0.75, 0.25)))


def test_solver_rejects_a_start_with_an_empty_cell():
    # ordered feet on S_1 with cuts -0.7 and 0.0: both clamp onto 0
    feet = (-0.9, -0.5, 0.5)
    with pytest.raises(InvalidQuantizerError) as expected:
        partition_of(Quantizer(tuple(inverse_map(1, f) for f in feet)))
    for max_iter in (1, 10_000):
        cfg = SolverConfig(max_iter=max_iter, init="explicit", init_feet=feet)
        with pytest.raises(InvalidQuantizerError) as e:
            solve_fixed_constraint(3, 1, cfg)
        assert str(e.value) == str(expected.value)
        assert e.value.index == expected.value.index == 0


def test_solver_config_refuses_unused_init_feet_and_stays_hashable():
    # without init="explicit" the feet would be silently ignored
    with pytest.raises(ValueError):
        SolverConfig(init_feet=(0.1, 0.2, 0.3))
    listed = SolverConfig(init="explicit", init_feet=[0.1, 0.2, 0.3])
    tupled = SolverConfig(init="explicit", init_feet=(0.1, 0.2, 0.3))
    assert listed.init_feet == (0.1, 0.2, 0.3)
    assert listed == tupled and hash(listed) == hash(tupled)


def test_solver_iteration_count_scales_with_tolerance():
    loose = solve_fixed_constraint(8, 8, SolverConfig(tol=1e-4))
    tight = solve_fixed_constraint(8, 8, SolverConfig(tol=1e-12))
    assert loose.converged and tight.converged
    assert loose.iterations < tight.iterations


# the benchmark's lloyd-sweep configuration
GATE = SolverConfig(tol=1e-13, max_iter=200_000)


def foot_deviation(n: int, feet) -> float:
    return max(abs(f - (2 * j - 1) / (2 * n)) for j, f in enumerate(feet, 1))


@st.composite
def spread_feet(draw, max_n: int = 64) -> tuple[float, ...]:
    """Strictly increasing feet in (0, 1), cut from n + 1 drawn gaps."""
    n = draw(st.integers(1, max_n))
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n + 1, max_size=n + 1))
    total = sum(gaps)
    return tuple(acc / total for acc in itertools.accumulate(gaps[:-1]))


@st.composite
def squeezed_feet(draw, max_n: int = 64) -> tuple[float, ...]:
    """Optimal sites squeezed toward 0 by a factor in [0.6, 0.7], each
    jittered by at most a tenth of their spacing: the benchmark's starts."""
    n = draw(st.integers(20, max_n))
    s = draw(st.floats(0.6, 0.7))
    jitter = draw(st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n))
    return tuple(s * ((2 * j - 1) / (2 * n) + u / n) for j, u in enumerate(jitter, 1))


@settings(max_examples=150, deadline=None)
@given(feet=st.one_of(spread_feet(), squeezed_feet()), t=st.integers(1, 64))
@example(feet=(0.5,), t=1)
# feet outside [0, 1]: the first extrapolation crosses two feet, and the
# solver goes on from that iteration's sweep instead
@example(feet=(-0.285, 0.35, 0.437), t=3)
def test_solver_converges_from_any_valid_start(feet, t):
    n = len(feet)
    cfg = dataclasses.replace(GATE, init="explicit", init_feet=feet)
    out = solve_fixed_constraint(n, t, cfg)
    assert out.converged
    assert all(p.j == t for p in out.quantizer.points)
    assert len(partition_of(out.quantizer)) == n + 1
    assert foot_deviation(n, out.quantizer.feet()) <= 1e-9


def test_solver_defaults_converge_and_iterations_stay_linear():
    out = solve_fixed_constraint(64, 64)
    assert out.converged
    assert foot_deviation(64, out.quantizer.feet()) <= 1e-9
    # plain Lloyd sweeping needs about 600,000 sweeps here
    total = sum(solve_fixed_constraint(n, n, GATE).iterations for n in range(1, 65))
    assert total <= 30_000


# n on both sides of the largest n the solver runs the list loop at
LOOP_N = quantizer._LIST_LOOP_MAX_N + 32


@settings(max_examples=150, deadline=None)
@given(
    feet=st.one_of(spread_feet(LOOP_N), squeezed_feet(LOOP_N)),
    t=st.integers(1, 64),
    tol=st.sampled_from([1e-4, 1e-12, 1e-13]),
    max_iter=st.sampled_from([1, 2, 3, 7, 10_000]),
)
@example(feet=(-0.285, 0.35, 0.437), t=3, tol=1e-12, max_iter=10_000)
def test_list_and_numpy_loops_agree_bit_for_bit(feet, t, tol, max_iter):
    x0 = [float(inverse_map(t, f).x) for f in feet]
    lists = quantizer._solve_loop_lists(x0, 1.0 / t, tol, max_iter)
    arrays = quantizer._solve_loop(x0, 1.0 / t, tol, max_iter)
    # feet, iterations and movement
    assert lists == arrays


def test_solver_takes_the_numpy_loop_once_numpy_is_loaded(monkeypatch):
    # the list loop is for commands that need not import numpy; a process
    # that has loaded it runs the loop that is faster in-process
    import numpy  # noqa: F401

    def refuse(*args):
        raise AssertionError("list loop ran with numpy loaded")

    monkeypatch.setattr(quantizer, "_solve_loop_lists", refuse)
    assert solve_fixed_constraint(8, 8).converged
