"""The uniform measure on the unit support segment and its distortion integrals.

Distortion of a cell [lo, hi] against a constraint point with plane
coordinates (a, b) is the exact quadratic integral

    int_lo^hi ((x - a)^2 + b^2) dx
        = (hi - lo)/3 * (lo^2 + lo*hi + hi^2 - 3a(lo + hi) + 3a^2 + 3b^2).

The measure is the uniform (Lebesgue) measure on [0, 1].  Every integral is
pure scalar arithmetic and is exact when given Fraction endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import ConstraintPoint, Point, _check_int, embed


class ZeroMassError(ValueError):
    """Conditional expectation requested on a set of measure zero."""


@dataclass(frozen=True)
class SupportInterval:
    """A subinterval [lo, hi] of the unit support segment."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"endpoints must be finite, got [{self.lo!r}, {self.hi!r}]")
        if not 0 <= self.lo <= self.hi <= 1:
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{self.lo!r}, {self.hi!r}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class UniformSegmentMeasure:
    """Uniform probability measure on [0, 1] x {0}."""

    def interval_mass(self, iv: SupportInterval) -> float:
        """Measure of a subinterval of the support."""
        return iv.length

    def conditional_mean(self, iv: SupportInterval) -> Point:
        """Barycenter of the measure restricted to iv, as a support point."""
        if iv.length == 0:
            raise ZeroMassError(f"interval [{iv.lo!r}, {iv.hi!r}] carries no mass")
        return Point((iv.lo + iv.hi) / 2, 0)

    def interval_distortion(self, iv: SupportInterval, cp: ConstraintPoint) -> float:
        """Integral of the squared distance to embed(cp) over iv."""
        p = embed(cp)
        lo, hi = iv.lo, iv.hi
        poly = lo * lo + lo * hi + hi * hi - 3 * p.x * (lo + hi) + 3 * (p.x * p.x + p.y * p.y)
        return (hi - lo) * poly / 3


UNIFORM = UniformSegmentMeasure()


def optimal_interval_distortion(iv: SupportInterval, t: int) -> float:
    """Least uniform distortion of the cell iv among points of S_t.

    Equals (hi-lo) (t^2 (5 lo^2 + 2 lo hi + 5 hi^2) + 12 t (lo+hi) + 12)
    / (24 t^2), which for a fixed positive-length iv inside [0, 1] is
    strictly decreasing in t: higher-index constraints sit closer to the
    support and always win.
    """
    _check_int("constraint index", t)
    lo, hi = iv.lo, iv.hi
    quad_part = 5 * lo * lo + 2 * lo * hi + 5 * hi * hi
    num = t * t * quad_part + 12 * t * (lo + hi) + 12
    return (hi - lo) * num / (24 * t * t)
