"""Exact properties on Fraction inputs: every identity and inequality below
holds with no tolerance, because the arithmetic stays rational throughout."""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from segquant import (
    ConstraintPoint,
    Point,
    Quantizer,
    SupportInterval,
    distortion,
    embed,
    forward_map,
    inverse_map,
    lloyd_step,
    optimal_interval_distortion,
    squared_distance,
    voronoi_breakpoint,
)

indices = st.integers(1, 64)
unit = st.fractions(0, 1, max_denominator=10**6)


@st.composite
def constraint_points(draw) -> ConstraintPoint:
    """A point of S_j anywhere on the segment, x in [-1/j, 1]."""
    j = draw(indices)
    return ConstraintPoint(j, draw(st.fractions(F(-1, j), 1, max_denominator=10**6)))


@st.composite
def same_constraint_quantizers(draw) -> tuple[Quantizer, int]:
    """Up to 8 points on one S_t with strictly increasing feet in [0, 1]."""
    t = draw(st.integers(1, 16))
    n = draw(st.integers(1, 8))
    feet = sorted(draw(st.lists(unit, min_size=n, max_size=n, unique=True)))
    return Quantizer(tuple(ConstraintPoint(t, (f - F(1, t)) / 2) for f in feet)), t


@settings(deadline=None)
@given(cp=constraint_points())
def test_foot_bijection_round_trips_exactly(cp):
    assert inverse_map(cp.j, forward_map(cp)) == cp


@settings(deadline=None)
@given(p=constraint_points(), q=constraint_points())
def test_breakpoint_is_exactly_equidistant(p, q):
    assume(p.x != q.x)
    site = Point(voronoi_breakpoint(p, q), 0)
    assert squared_distance(site, embed(p)) == squared_distance(site, embed(q))


@settings(deadline=None)
@given(case=same_constraint_quantizers())
# one-point quantizers, whose only cell is the whole support [0, 1]
@example(case=(Quantizer((ConstraintPoint(2, F(0)),)), 2))
@example(case=(Quantizer((ConstraintPoint(9, F(7, 36)),)), 9))
def test_lloyd_sweep_never_increases_distortion(case):
    q, _ = case
    assert distortion(lloyd_step(q)) <= distortion(q)


@settings(deadline=None)
@given(ends=st.lists(unit, min_size=2, max_size=2, unique=True), t=indices)
def test_optimal_cell_distortion_strictly_decreases_in_t(ends, t):
    iv = SupportInterval(min(ends), max(ends))
    assert optimal_interval_distortion(iv, t) > optimal_interval_distortion(iv, t + 1)
