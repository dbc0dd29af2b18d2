"""Constraint family geometry: embeddings, foot bijections, breakpoints."""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from segquant import geometry
from segquant import (
    ConstraintPoint,
    Point,
    embed,
    feasible_foot_range,
    forward_map,
    inverse_map,
    squared_distance,
    voronoi_breakpoint,
)


def test_squared_distance_values():
    assert squared_distance(Point(0, 0), Point(0, 0)) == 0
    assert squared_distance(Point(0, 0), Point(3, 4)) == 25
    # (3/4)^2 + (3/4)^2 = 9/8, exact with rational coordinates
    assert squared_distance(Point(F(1, 2), F(0)), Point(F(-1, 4), F(3, 4))) == F(9, 8)


def test_squared_distance_symmetric():
    p, q = Point(0.3, -1.2), Point(-0.7, 2.5)
    assert squared_distance(p, q) == squared_distance(q, p)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point(0.0, math.inf)


def test_embed_values():
    assert embed(ConstraintPoint(1, F(-1, 4))) == Point(F(-1, 4), F(3, 4))
    assert embed(ConstraintPoint(2, F(0))) == Point(F(0), F(1, 2))
    assert embed(ConstraintPoint(4, F(1))) == Point(F(1), F(5, 4))


# indices on both sides of 2**53, where a float j stops being exact
INDICES = st.one_of(st.integers(1, 2**70), st.integers(2**53 - 4, 2**53 + 4))


@st.composite
def numbers(draw, lo: F, hi: int):
    """A float, np.float64, int or Fraction in [lo, hi], hi an int."""
    kind = draw(st.sampled_from([float, np.float64, int, F]))
    if kind is int:
        return draw(st.integers(math.ceil(lo), hi))
    if kind is F:
        d = draw(st.integers(1, 2**80))
        return F(draw(st.integers(math.ceil(lo * d), hi * d)), d)
    low = float(lo)
    if low < lo:
        low = math.nextafter(low, math.inf)
    return kind(draw(st.floats(low, float(hi))))


@st.composite
def constraint_points(draw) -> ConstraintPoint:
    """A point of S_j, j in 1..2**70, with a float, np.float64, int or
    Fraction abscissa in [-1/j, 1]."""
    j = draw(INDICES)
    return ConstraintPoint(j, draw(numbers(-F(1, j), 1)))


@given(cp=constraint_points())
@example(cp=ConstraintPoint(2**53 + 1, 0.0))
@example(cp=ConstraintPoint(2**70, np.float64(-(2.0**-70))))
def test_embed_adds_the_rational_offset(cp):
    # Python's own x + Fraction(1, j) rounds 1/j once, correctly, and keeps
    # exact types exact; a float abscissa takes 1 / j and must give the same
    # numbers, of the same types, in _plane, embed and forward_map
    x, r = cp.x, F(1, cp.j)
    want = Point(x, x + r)
    got = embed(cp)
    assert got == want
    assert type(got.y) is type(want.y)
    assert repr(got) == repr(want)
    assert repr(geometry._plane(cp)) == repr((x, x + r))
    assert repr(forward_map(cp)) == repr(2 * x + r)


@given(j=INDICES, foot=numbers(F(-1), 3))
@example(j=2**53 + 1, foot=0.5)
def test_inverse_map_equals_the_fraction_fallback(j, foot):
    x = (foot - F(1, j)) / 2
    if -F(1, j) <= x <= 1:
        assert repr(inverse_map(j, foot)) == repr(ConstraintPoint(j, x))
    else:
        with pytest.raises(ValueError):
            inverse_map(j, foot)


@pytest.mark.parametrize("j", [2**53 + 1, 10**17 + 3])
def test_plane_and_foot_read_the_same_offset_above_2_53(j):
    # 1.0 / j would round j to a float first (2**53 + 1 to 2**53), and so
    # round 1/j twice
    cp = ConstraintPoint(j, 0.0)
    assert geometry._plane(cp)[1] == forward_map(cp) == 1 / j


def test_float_path_builds_no_fraction(monkeypatch):
    # ConstraintPoint's domain check is exact, so the points come first
    js = (1, 7, 2**53 + 1, 10**17 + 3)
    cases = [(ConstraintPoint(j, 0.3), 0.3 + F(1, j), 0.6 + F(1, j)) for j in js]
    ranges = [feasible_foot_range(j) for j in js]

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(geometry, "Fraction", refuse)
    for (cp, y, foot), foot_range in zip(cases, ranges):
        assert geometry._plane(cp) == (0.3, y)
        assert forward_map(cp) == foot
        assert feasible_foot_range(cp.j) == foot_range


@given(j=INDICES)
@example(j=3)  # fl(-1/3) rounds up, inside S_3
@example(j=5)  # fl(-1/5) rounds down, outside S_5
@example(j=2**53 + 1)
def test_constraint_point_bound_is_exact_to_the_ulp(j):
    # fl(-1/j) and its two float neighbours, 1.0 and the float above it
    lo = float(-F(1, j))
    xs = (math.nextafter(lo, -math.inf), lo, math.nextafter(lo, math.inf))
    xs += (1.0, math.nextafter(1.0, math.inf))
    for x in xs:
        for value in (x, np.float64(x)):
            if -F(1, j) <= F(x) <= 1:
                assert ConstraintPoint(j, value).x is value
            else:
                with pytest.raises(ValueError, match="outside"):
                    ConstraintPoint(j, value)


def test_constraint_point_rejects_out_of_segment():
    with pytest.raises(ValueError):
        ConstraintPoint(2, -0.6)  # below -1/2
    with pytest.raises(ValueError):
        ConstraintPoint(2, 1.2)
    with pytest.raises(ValueError):
        ConstraintPoint(0, 0.0)
    with pytest.raises(ValueError):
        ConstraintPoint(-3, 0.0)
    # endpoints are allowed
    ConstraintPoint(2, -0.5)
    ConstraintPoint(2, 1.0)


def test_forward_map_values():
    assert forward_map(ConstraintPoint(1, F(-1, 4))) == F(1, 2)
    assert forward_map(ConstraintPoint(2, F(1, 8))) == F(3, 4)
    assert forward_map(ConstraintPoint(3, F(-1, 6))) == 0


def test_inverse_map_values():
    assert inverse_map(1, F(1, 2)) == ConstraintPoint(1, F(-1, 4))
    assert inverse_map(2, F(1, 2)) == ConstraintPoint(2, F(0))
    assert inverse_map(5, F(1, 5)) == ConstraintPoint(5, F(0))


def test_inverse_map_rejects_out_of_domain_foot():
    # foot 3.2 on S_1 would need abscissa 1.1 > 1
    with pytest.raises(ValueError):
        inverse_map(1, 3.2)
    with pytest.raises(ValueError):
        inverse_map(1, -1.5)


def test_round_trip_identities():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        j = int(rng.integers(1, 50))
        x = float(rng.uniform(-1.0 / j, 1.0))
        cp = ConstraintPoint(j, x)
        back = inverse_map(j, forward_map(cp))
        assert back.j == j
        assert math.isclose(back.x, x, rel_tol=1e-15, abs_tol=1e-15)
        f = float(rng.uniform(0.0, 1.0))
        again = forward_map(inverse_map(j, f))
        assert math.isclose(again, f, rel_tol=1e-15, abs_tol=1e-15)


def test_round_trip_exact_in_rational_mode():
    for j in (1, 2, 3, 7, 11):
        x = F(1, 3 * j)
        cp = ConstraintPoint(j, x)
        assert inverse_map(j, forward_map(cp)) == cp
        f = F(2, 5)
        assert forward_map(inverse_map(j, f)) == f


def test_forward_map_strictly_increasing_in_x():
    rng = np.random.default_rng(7)
    for _ in range(100):
        j = int(rng.integers(1, 20))
        a, b = sorted(rng.uniform(-1.0 / j, 1.0, 2))
        if a == b:
            continue
        assert forward_map(ConstraintPoint(j, a)) < forward_map(ConstraintPoint(j, b))


def test_feasible_foot_range_values():
    assert feasible_foot_range(1) == (-0.5, 0.0)
    assert feasible_foot_range(2) == (-0.25, 0.25)
    lo, hi = feasible_foot_range(10**6)
    assert abs(lo) < 1e-5 and abs(hi - 0.5) < 1e-5


@given(j=INDICES)
def test_feasible_foot_range_rounds_the_exact_bounds_once(j):
    half = F(1, 2 * j)
    assert feasible_foot_range(j) == (float(-half), float(F(1, 2) - half))


def test_feasible_foot_range_feet_sweep_unit_interval():
    for j in (1, 2, 3, 5, 17):
        lo, hi = feasible_foot_range(j)
        assert math.isclose(forward_map(ConstraintPoint(j, lo)), 0.0, abs_tol=1e-15)
        assert math.isclose(forward_map(ConstraintPoint(j, hi)), 1.0, rel_tol=1e-15)


def test_voronoi_breakpoint_same_constraint():
    p = ConstraintPoint(2, F(-1, 8))
    q = ConstraintPoint(2, F(1, 8))
    assert voronoi_breakpoint(p, q) == F(1, 2)


def test_voronoi_breakpoint_equal_ordinates():
    # embedded points (0, 1) and (1/2, 1): the bisector is the vertical u = 1/4
    assert voronoi_breakpoint(ConstraintPoint(1, F(0)), ConstraintPoint(2, F(1, 2))) == F(1, 4)


def test_voronoi_breakpoint_mixed_constraints():
    # embedded points (0, 1) and (1/4, 3/4); equidistant axis point is -3/4
    p = ConstraintPoint(1, F(0))
    q = ConstraintPoint(2, F(1, 4))
    assert voronoi_breakpoint(p, q) == F(-3, 4)


def test_voronoi_breakpoint_matches_bisection_root():
    # root of |e - embed(p)|^2 - |e - embed(q)|^2 along the axis, found
    # independently by bisection
    p, q = ConstraintPoint(1, 0.0), ConstraintPoint(2, 0.25)
    ep, eq = embed(p), embed(q)

    def gap(u: float) -> float:
        return squared_distance(Point(u, 0.0), ep) - squared_distance(Point(u, 0.0), eq)

    lo, hi = -10.0, 10.0
    assert gap(lo) * gap(hi) < 0
    for _ in range(80):
        mid = (lo + hi) / 2
        if gap(lo) * gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert math.isclose((lo + hi) / 2, voronoi_breakpoint(p, q), abs_tol=1e-12)


def test_voronoi_breakpoint_degenerate_equal_abscissas():
    # (j=1, x=0) and (j=2, x=0) embed to (0,1) and (0,1/2): same abscissa
    with pytest.raises(
        ValueError, match=r"^points with equal abscissas 0\.0 have no axis crossing$"
    ):
        voronoi_breakpoint(ConstraintPoint(1, 0.0), ConstraintPoint(2, 0.0))
    with pytest.raises(
        ValueError, match=r"^points with equal abscissas 0\.1 have no axis crossing$"
    ):
        voronoi_breakpoint(ConstraintPoint(1, 0.1), ConstraintPoint(2, 0.1))


def test_voronoi_breakpoint_equidistance():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 200:
        jp, jq = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        xp = float(rng.uniform(-1.0 / jp, 1.0))
        xq = float(rng.uniform(-1.0 / jq, 1.0))
        if abs(xp - xq) < 1e-6:
            continue
        p, q = ConstraintPoint(jp, xp), ConstraintPoint(jq, xq)
        u = voronoi_breakpoint(p, q)
        e = Point(float(u), 0.0)
        dp = squared_distance(e, Point(float(embed(p).x), float(embed(p).y)))
        dq = squared_distance(e, Point(float(embed(q).x), float(embed(q).y)))
        # near-parallel bisectors push u far out; scale tolerance accordingly
        assert abs(dp - dq) <= 1e-12 * max(1.0, dp, dq)
        checked += 1


def test_voronoi_breakpoint_reduction_identity():
    # general formula vs the same-constraint short form x_p + x_q + 1/t;
    # exact in rational arithmetic, so check with Fractions
    rng = np.random.default_rng(31337)
    checked = 0
    while checked < 200:
        t = int(rng.integers(1, 12))
        xp = F(int(rng.integers(-10**6 // t, 10**6)), 10**6)
        xq = F(int(rng.integers(-10**6 // t, 10**6)), 10**6)
        if xp == xq:
            continue
        p, q = ConstraintPoint(t, xp), ConstraintPoint(t, xq)
        assert voronoi_breakpoint(p, q) == xp + xq + F(1, t)
        checked += 1


def test_voronoi_breakpoint_reduction_identity_floats():
    rng = np.random.default_rng(31338)
    checked = 0
    while checked < 200:
        t = int(rng.integers(1, 12))
        xp, xq = rng.uniform(-1.0 / t, 1.0, 2)
        if abs(xp - xq) < 1e-3:
            continue
        p, q = ConstraintPoint(t, float(xp)), ConstraintPoint(t, float(xq))
        reduced = float(xp) + float(xq) + 1.0 / t
        assert math.isclose(voronoi_breakpoint(p, q), reduced, rel_tol=1e-11, abs_tol=1e-11)
        checked += 1
