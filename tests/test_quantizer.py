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
    SupportInterval,
    distortion,
    embed,
    forward_map,
    inverse_map,
    lloyd_step,
    optimal_abscissas_exact,
    optimal_points,
    partition_of,
    riemann_distortion,
    solve_fixed_constraint,
    voronoi_breakpoint,
    vn,
)
from segquant import measure, quantizer
from segquant.measure import UniformSegmentMeasure
from segquant.oracle import _midpoints_below
from conftest import count_plane_calls, random_same_constraint_quantizer


def optimal_quantizer(n: int) -> Quantizer:
    return Quantizer(tuple(ConstraintPoint(n, x) for x in optimal_abscissas_exact(n)))


# ---------------------------------------------------------------- construction


def test_quantizer_basic_properties():
    q = optimal_quantizer(2)
    assert q.n == 2
    assert tuple(p.x for p in q.points) == (F(-1, 8), F(1, 8))
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
    assert str(e.value).endswith(" at position 0")
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
    assert str(e.value) == "cell 0 of the induced partition is empty"


@pytest.mark.parametrize("x", [0.2, F(1, 5)])
def test_partition_of_equal_abscissas_empty_the_right_cell(x):
    # feet 2x + 1/3 < 2x + 1, but at equal abscissas the point on S_3 sits
    # nearer the axis everywhere, so the S_1 point's cell is empty
    q = Quantizer((ConstraintPoint(3, x), ConstraintPoint(1, x)))
    for call in (partition_of, distortion):
        with pytest.raises(InvalidQuantizerError) as e:
            call(q)
        assert str(e.value) == "cell 1 of the induced partition is empty"


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
    assert str(e.value) == "cell 2 of the induced partition is empty"


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


@st.composite
def mixed_quantizers(draw) -> Quantizer:
    """1 to 24 points with feet in [0, 1] and float or Fraction abscissas, on
    S_t alone or on S_t and S_{t+1}; "twins" draws put some abscissas on both
    constraints, so equal abscissas occur."""
    exact = draw(st.booleans())
    mode = draw(st.sampled_from(["same", "mixed", "twins"]))
    t = draw(st.integers(1, 64))
    foot = st.fractions(0, 1, max_denominator=1000) if exact else st.floats(0.0, 1.0)
    points: dict[float, ConstraintPoint] = {}
    for f in draw(st.lists(foot, min_size=1, max_size=12)):
        j = t if mode == "same" else t + draw(st.integers(0, 1))
        p = inverse_map(j, f)
        points[forward_map(p)] = p
        if mode == "twins" and draw(st.booleans()):
            twin = ConstraintPoint(2 * t + 1 - j, p.x)
            points[forward_map(twin)] = twin
    return Quantizer(tuple(points[f] for f in sorted(points)))


@settings(deadline=None)
@given(q=mixed_quantizers())
def test_partition_of_cuts_at_the_clamped_voronoi_breakpoints(q):
    zero = q.points[0].x - q.points[0].x
    one = zero + 1
    cuts = [zero]
    for left, right in zip(q.points, q.points[1:]):
        try:
            cuts.append(min(max(voronoi_breakpoint(left, right), zero), one))
        except ValueError as e:
            assert "have no axis crossing" in str(e)
            cuts.append(one)
    cuts.append(one)
    empty = [i for i in range(q.n) if not cuts[i] < cuts[i + 1]]
    if empty:
        with pytest.raises(InvalidQuantizerError) as e:
            partition_of(q)
        assert str(e.value) == f"cell {empty[0]} of the induced partition is empty"
    else:
        # bit for bit: repr tells -0.0 from 0.0 and a Fraction from a float
        assert list(map(repr, partition_of(q))) == list(map(repr, cuts))


def test_partition_of_embeds_each_point_once(monkeypatch):
    calls = count_plane_calls(monkeypatch, quantizer)
    for n in (1, 2, 64):
        q = optimal_points(n)
        calls.clear()
        partition_of(q)
        assert calls == list(q.points)


# ------------------------------------------------------------------ distortion


def test_distortion_examples():
    assert distortion(Quantizer((ConstraintPoint(1, F(-1, 4)),))) == F(29, 24)
    assert distortion(Quantizer((ConstraintPoint(1, F(0)),))) == F(4, 3)
    assert distortion(optimal_quantizer(2)) == F(53, 96)
    assert distortion(optimal_quantizer(3)) == F(85, 216)


def referee_distortion(q: Quantizer) -> float:
    """distortion as it stood before it integrated from the cut list: one
    SupportInterval and one interval_distortion call per cell."""
    cuts = partition_of(q)
    return sum(
        UniformSegmentMeasure().interval_distortion(SupportInterval(lo, hi), p)
        for lo, hi, p in zip(cuts, cuts[1:], q.points)
    )


@settings(deadline=None)
@given(q=mixed_quantizers())
@example(q=Quantizer((ConstraintPoint(3, F(-1, 6)),)))
@example(q=Quantizer((ConstraintPoint(2, -0.25), ConstraintPoint(1, -0.25))))
def test_distortion_equals_the_per_cell_referee(q):
    try:
        expected = referee_distortion(q)
    except InvalidQuantizerError as e:
        with pytest.raises(InvalidQuantizerError) as got:
            distortion(q)
        # the message names the empty cell's position
        assert str(got.value) == str(e)
    else:
        # bit for bit: repr tells -0.0 from 0.0 and a Fraction from a float
        assert repr(distortion(q)) == repr(expected)


def test_distortion_embeds_each_point_once(monkeypatch):
    # both modules, so that a second embedding inside the integral counts too
    calls = count_plane_calls(monkeypatch, quantizer, measure)
    for n in (1, 2, 64):
        q = optimal_points(n)
        calls.clear()
        distortion(q)
        assert calls == list(q.points)


def points_referee(q: Quantizer, panels: int) -> tuple[list, float, float]:
    """partition_of's cuts, distortion and riemann_distortion as they read
    on one validated Point per embedded point, before they took the plane
    coordinates as bare pairs.  Empty cells are not refused here; the caller
    looks for them."""
    planar = [embed(p) for p in q.points]
    zero = planar[0].x - planar[0].x
    one = zero + 1
    cuts = [zero]
    for a, b in zip(planar, planar[1:]):
        if a.x == b.x:
            c = one
        else:
            sa = a.x * a.x + a.y * a.y
            sb = b.x * b.x + b.y * b.y
            c = (sb - sa) / (2 * (b.x - a.x))
        cuts.append(min(max(c, zero), one))
    cuts.append(one)
    total = sum(
        (hi - lo)
        * (lo * lo + lo * hi + hi * hi - 3 * p.x * (lo + hi) + 3 * (p.x * p.x + p.y * p.y))
        / 3
        for lo, hi, p in zip(cuts, cuts[1:], planar)
    )
    hull = []
    for a, y in sorted((float(e.x), float(e.y)) for e in planar):
        if hull and a == hull[-1][1]:
            continue
        c = a * a + y * y
        while hull:
            s0, a0, _, c0 = hull[-1]
            start = (c - c0) / (2 * (a - a0))
            if start > s0:
                break
            hull.pop()
        else:
            start = -math.inf
        hull.append((start, a, y, c))
    edges = [*(_midpoints_below(h[0], panels) for h in hull), panels]
    d = 1
    ratios = []
    for _, a, y, _ in hull:
        na, da = a.as_integer_ratio()
        ny, dy = y.as_integer_ratio()
        ratios.append((na, da, ny, dy))
        d = max(d, da, dy)
    offsets = heights = cubes = 0
    for (na, da, ny, dy), lo, hi in zip(ratios, edges, edges[1:]):
        k = hi - lo
        u = (lo + hi) * d - 2 * panels * na * (d // da)
        v = ny * (d // dy)
        offsets += k * u * u
        heights += k * v * v
        cubes += k * k * k - k
    riemann = (3 * offsets + 12 * panels * panels * heights + cubes * d * d) / (
        12 * panels**3 * d * d
    )
    return cuts, total, riemann


@settings(deadline=None)
@given(
    q=mixed_quantizers(),
    panels=st.one_of(st.integers(1, 10**6), st.sampled_from([10**5, 2**52])),
)
@example(q=optimal_points(64), panels=10**5)
@example(q=optimal_quantizer(5), panels=10**5)
def test_plane_pairs_match_the_points_referee(q, panels):
    cuts, total, riemann = points_referee(q, panels)
    # bit for bit: repr tells -0.0 from 0.0 and a Fraction from a float
    assert repr(riemann_distortion(q, panels)) == repr(riemann)
    empty = [i for i in range(q.n) if not cuts[i] < cuts[i + 1]]
    if empty:
        for f in (partition_of, distortion):
            with pytest.raises(InvalidQuantizerError) as e:
                f(q)
            assert str(e.value) == f"cell {empty[0]} of the induced partition is empty"
        return
    assert list(map(repr, partition_of(q))) == list(map(repr, cuts))
    assert repr(distortion(q)) == repr(total)
    if type(q.points[0].x) is F:
        assert type(distortion(q)) is F
        assert {type(c) for c in partition_of(q)} == {F}


def test_distortion_matches_closed_form_along_n():
    # exact rational agreement with (4n^2 + 12n + 13) / (24 n^2)
    for n in range(1, 40):
        assert distortion(optimal_quantizer(n)) == F(4 * n * n + 12 * n + 13, 24 * n * n)


# ------------------------------------------------------------------ lloyd_step


def test_lloyd_step_fixed_point_exact():
    for n in (1, 2, 3, 5, 8):
        q = optimal_quantizer(n)
        assert lloyd_step(q).points == q.points


def test_lloyd_step_single_point():
    q = Quantizer((ConstraintPoint(1, F(3, 10)),))
    stepped = lloyd_step(q)
    assert stepped.points[0].x == F(-1, 4)


def test_lloyd_step_two_points_exact():
    # feet (1/3, 2/3) -> cell midpoints (1/4, 3/4) -> feet (1/4, 3/4)
    q = Quantizer((inverse_map(1, F(1, 3)), inverse_map(1, F(2, 3))))
    stepped = lloyd_step(q)
    assert stepped.points == (ConstraintPoint(1, F(-3, 8)), ConstraintPoint(1, F(-1, 8)))


@pytest.mark.parametrize("n", [1, 3])
def test_lloyd_step_keeps_the_number_type(n):
    feet = [F(2 * j - 1, 2 * n) + F(1, 10 * n) for j in range(1, n + 1)]
    for kind in (F, float):
        q = Quantizer(tuple(inverse_map(2, kind(f)) for f in feet))
        assert all(type(p.x) is kind for p in lloyd_step(q).points)


def test_lloyd_step_refuses_mixed_constraints():
    q = Quantizer((ConstraintPoint(2, 0.0), ConstraintPoint(4, 0.3)))
    with pytest.raises(ValueError, match=r"indices \[2, 4\]"):
        lloyd_step(q)


def test_lloyd_step_never_increases_distortion():
    rng = np.random.default_rng(23)
    for _ in range(30):
        q = random_same_constraint_quantizer(rng)
        before = distortion(q)
        after = distortion(lloyd_step(q))
        assert after <= before + 1e-14


# ---------------------------------------------------------------------- solver


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=float("nan"))
    with pytest.raises(ValueError, match="^tol must be a finite real number"):
        SolverConfig(tol=float("inf"))
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
    xs = [p.x for p in out.quantizer.points]
    assert abs(xs[0] - (-0.375)) <= 1e-9
    assert abs(xs[1] - (-0.125)) <= 1e-9
    assert abs(out.distortion - 113 / 96) <= 1e-12
    # S_2 holds strictly better two-point quantizers than S_1
    assert out.distortion > float(F(53, 96))


def test_solver_feet_do_not_depend_on_constraint_index():
    # the loop runs on feet alone; only mapping its result onto S_t and back
    # (foot -> abscissa -> foot) rounds differently per t
    for n in (*range(1, 65), 192, 256, 512):
        base = solve_fixed_constraint(n, 1)
        for t in (2, 7, n):
            out = solve_fixed_constraint(n, t)
            assert (out.iterations, out.converged) == (base.iterations, base.converged)
            feet = zip(out.quantizer.feet(), base.quantizer.feet())
            assert max(abs(a - b) for a, b in feet) <= 4.5e-16, (n, t)


def test_solver_single_sweep_equals_lloyd_step():
    rng = np.random.default_rng(101)
    for _ in range(50):
        q = random_same_constraint_quantizer(rng)
        t = q.points[0].j
        cfg = SolverConfig(tol=1e-30, max_iter=1, init="explicit", init_feet=q.feet())
        out = solve_fixed_constraint(q.n, t, cfg)
        stepped = lloyd_step(q)
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
    assert str(expected.value) == "cell 0 of the induced partition is empty"


def test_solver_config_refuses_unused_init_feet_and_stays_hashable():
    # without init="explicit" the feet would be silently ignored
    with pytest.raises(ValueError):
        SolverConfig(init_feet=(0.1, 0.2, 0.3))
    listed = SolverConfig(init="explicit", init_feet=[0.1, 0.2, 0.3])
    tupled = SolverConfig(init="explicit", init_feet=(0.1, 0.2, 0.3))
    arrayed = SolverConfig(init="explicit", init_feet=np.array([0.1, 0.2, 0.3]))
    assert listed.init_feet == arrayed.init_feet == (0.1, 0.2, 0.3)
    assert listed == tupled == arrayed and hash(listed) == hash(tupled) == hash(arrayed)
    for empty in ((), np.array([])):
        with pytest.raises(ValueError, match="requires init_feet"):
            SolverConfig(init="explicit", init_feet=empty)


@pytest.mark.parametrize("entry", [True, np.True_, "0.5", None, 0.5j])
def test_solver_config_refuses_non_real_init_feet(entry):
    with pytest.raises(ValueError, match=r"init_feet\[1\] must be a finite real number"):
        SolverConfig(init="explicit", init_feet=(0.25, entry, 0.75))


def test_solver_iteration_count_scales_with_tolerance():
    loose = solve_fixed_constraint(8, 8, SolverConfig(tol=1e-4))
    tight = solve_fixed_constraint(8, 8, SolverConfig(tol=1e-12))
    assert loose.converged and tight.converged
    assert loose.iterations < tight.iterations


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: at n = 64, 128 and 256 converged bounds the "
    "last sweep's movement, not the feet's error, which is about 1.5 tol; at "
    "n = 972 the feet are within tol but the movement stalls at a rounding "
    "floor of 1.2e-12 to 3.2e-12, and at n = 2048 the feet are still 1.9e-11 "
    "off, so both stop after max_iter=10,000 sweeps unconverged",
)
@pytest.mark.parametrize("n", [64, 128, 256, 972, 2048])
def test_converged_means_the_feet_are_within_tol(n):
    cfg = SolverConfig()
    out = solve_fixed_constraint(n, n, cfg)
    assert out.converged
    error = max(
        abs(F(f) - F(2 * j - 1, 2 * n)) for j, f in enumerate(out.quantizer.feet(), 1)
    )
    assert error <= cfg.tol


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
    tol=st.sampled_from([1e-4, 1e-12, 1e-13]),
    max_iter=st.sampled_from([1, 2, 3, 7, 10_000]),
)
@example(feet=(-0.285, 0.35, 0.437), tol=1e-12, max_iter=10_000)
def test_list_and_numpy_loops_agree_bit_for_bit(feet, tol, max_iter):
    lists = quantizer._solve_loop_lists(list(feet), tol, max_iter)
    arrays = quantizer._solve_loop(list(feet), tol, max_iter)
    # feet, iterations and movement
    assert lists == arrays


@pytest.mark.parametrize(
    "n, other",
    [
        (quantizer._LIST_LOOP_IN_PROCESS_MAX_N, "_solve_loop"),
        (quantizer._LIST_LOOP_IN_PROCESS_MAX_N + 1, "_solve_loop_lists"),
    ],
    ids=["at", "above"],
)
def test_solver_with_numpy_loaded_takes_the_list_loop_up_to_the_crossover(
    n, other, monkeypatch
):
    # with numpy loaded, each solve runs the loop that is faster in-process
    # at its n: the list loop up to the crossover, numpy arrays above it
    import numpy  # noqa: F401

    def refuse(*args):
        raise AssertionError(f"{other} ran at n = {n} with numpy loaded")

    monkeypatch.setattr(quantizer, other, refuse)
    assert solve_fixed_constraint(n, n).converged
