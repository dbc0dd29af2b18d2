"""Geometry of the diagonal constraint family over the unit support segment.

The target measure lives on the support segment J = [0, 1] x {0}.  Quantizer
points are restricted to the segments

    S_j = {(x, x + 1/j) : -1/j <= x <= 1},    j = 1, 2, ...

which are parallel to the diagonal y = x, one per positive index j.  The line
perpendicular to S_j through one of its points (x, x + 1/j) meets the x-axis
at (2x + 1/j, 0); we call that abscissa the point's *foot*.  Foot-taking is a
bijection between S_j and an interval of the axis (equivalently: a constraint
point is the nearest point of S_j to its own foot), and it is the coordinate
system in which the fixed-point solver operates.

Scalar functions here are duck-typed: passing fractions.Fraction coordinates
yields exact rational results, floats yield floats.  Every offset 1/j comes
from _reciprocal, by one rule: a Python float takes 1 / j (int true division,
correctly rounded for every j), any other number takes Fraction(1, j).  So a
result is what adding Fraction(1, j) gives, and no float builds the Fraction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


def _check_int(
    label: str, value: int, minimum: int = 1, maximum: Optional[int] = None
) -> None:
    """The package's one integer check: an int (not a bool) in [minimum, maximum]."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < minimum
        or (maximum is not None and value > maximum)
    ):
        bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{label} must be an integer {bounds}, got {value!r}")


def _check_real(label: str, value: float) -> None:
    """The package's one real-number check: a numbers.Real, not a Python or
    numpy bool, finite as a float (an int or Fraction too large for one fails)."""
    try:
        # a float skips the ABC isinstance test, which costs several times
        # the rest of the check; the object layer runs this per coordinate
        ok = (
            type(value) is float
            or (isinstance(value, numbers.Real) and not isinstance(value, bool))
        ) and math.isfinite(value)
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"{label} must be a finite real number, got {value!r}")


def _check_positive_real(label: str, value: float) -> None:
    """_check_real, and > 0."""
    _check_real(label, value)
    if not value > 0:
        raise ValueError(f"{label} must be a positive finite number, got {value!r}")


@dataclass(frozen=True)
class Point:
    """A point of the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _check_real("x", self.x)
        _check_real("y", self.y)


@dataclass(frozen=True)
class ConstraintPoint:
    """A point of S_j, stored as (j, x) so membership is structural.

    The plane coordinates are (x, x + 1/j); x must lie in [-1/j, 1].
    """

    j: int
    x: float

    def __post_init__(self) -> None:
        _check_int("constraint index", self.j)
        _check_real("abscissa", self.x)
        if not -Fraction(1, self.j) <= self.x <= 1:
            raise ValueError(
                f"abscissa {self.x!r} outside [-1/{self.j}, 1] for constraint {self.j}"
            )


def squared_distance(p: Point, q: Point) -> float:
    """Squared Euclidean distance between two plane points."""
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def _reciprocal(j: int, x: float) -> float:
    """1/j in the number type of x: the correctly rounded float 1 / j for a
    Python float x, which is the float that x + Fraction(1, j) adds, and
    Fraction(1, j) for anything else."""
    return 1 / j if type(x) is float else Fraction(1, j)


def _plane(cp: ConstraintPoint) -> tuple[float, float]:
    """Plane coordinates (x, x + 1/j) of a constraint point, as a pair.

    The integrals and cuts take these pairs, not a Point per call: cp is
    already validated, and x in [-1/j, 1] keeps y finite.
    """
    x = cp.x
    return x, x + _reciprocal(cp.j, x)


def embed(cp: ConstraintPoint) -> Point:
    """Plane coordinates (x, x + 1/j) of a constraint point."""
    return Point(*_plane(cp))


def forward_map(cp: ConstraintPoint) -> float:
    """Foot abscissa 2x + 1/j of a constraint point.

    Strictly increasing in x for fixed j, hence invertible.
    """
    x = cp.x
    return 2 * x + _reciprocal(cp.j, x)


def inverse_map(j: int, foot: float) -> ConstraintPoint:
    """The unique point of S_j whose foot is the given abscissa.

    Rejects feet whose preimage abscissa (foot - 1/j)/2 leaves [-1/j, 1].
    """
    _check_int("constraint index", j)
    _check_real("foot", foot)
    return ConstraintPoint(j, (foot - _reciprocal(j, foot)) / 2)


def feasible_foot_range(j: int) -> tuple[float, float]:
    """Abscissa bounds of the points of S_j whose feet lie inside [0, 1].

    The sub-segment of S_j with x in [-1/(2j), 1/2 - 1/(2j)] has feet sweeping
    exactly [0, 1]; this returns that abscissa range.  As j grows it tends to
    (0, 1/2).
    """
    _check_int("constraint index", j)
    return -1 / (2 * j), (j - 1) / (2 * j)


def voronoi_breakpoint(p: ConstraintPoint, q: ConstraintPoint) -> float:
    """Support abscissa equidistant from two embedded constraint points.

    Solves |(u,0) - embed(p)|^2 = |(u,0) - embed(q)|^2 for u.  Points of the
    support left of the breakpoint are nearer to embed(p), points right of it
    nearer to embed(q), provided p's abscissa is the smaller one.  When both
    points lie on the same constraint S_t this reduces to p.x + q.x + 1/t.
    Equal abscissas make the bisector parallel to (or disjoint from) the axis.
    """
    a, b = _plane(p), _plane(q)
    if a[0] == b[0]:
        raise ValueError(
            f"points with equal abscissas {a[0]!r} have no axis crossing"
        )
    return _bisector(a, b)


def _bisector(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Axis abscissa equidistant from two plane points (x, y) with distinct x."""
    (ax, ay), (bx, by) = a, b
    sa = ax * ax + ay * ay
    sb = bx * bx + by * by
    return (sb - sa) / (2 * (bx - ax))
