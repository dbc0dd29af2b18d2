"""Uniform measure integrals: exact cell distortions and their minimum on S_t."""

from __future__ import annotations

import math
from fractions import Fraction as F

import numpy as np
import pytest

from segquant import (
    ConstraintPoint,
    SupportInterval,
    embed,
    optimal_interval_distortion,
)
from segquant.measure import UNIFORM


def test_interval_validation():
    with pytest.raises(ValueError):
        SupportInterval(-0.1, 0.5)
    with pytest.raises(ValueError):
        SupportInterval(0.5, 1.5)
    with pytest.raises(ValueError):
        SupportInterval(0.7, 0.3)


def test_interval_distortion_values():
    iv = SupportInterval(F(0), F(1))
    assert UNIFORM.interval_distortion(iv, ConstraintPoint(1, F(-1, 4))) == F(29, 24)
    # point embedded at (0, 1): integral of x^2 + 1
    assert UNIFORM.interval_distortion(iv, ConstraintPoint(1, F(0))) == F(4, 3)
    empty = SupportInterval(F(2, 5), F(2, 5))
    assert UNIFORM.interval_distortion(empty, ConstraintPoint(3, F(1, 7))) == 0


def test_interval_distortion_matches_midpoint_riemann_sum():
    # midpoint rule error for this quadratic integrand is (b-a)^3 f''/ (24 m^2)
    # with f'' = 2; use C = 1/4 for slack
    rng = np.random.default_rng(5)
    for _ in range(20):
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
        if hi - lo < 1e-3:
            continue
        j = int(rng.integers(1, 6))
        cp = ConstraintPoint(j, float(rng.uniform(-1.0 / j, 1.0)))
        e = embed(cp)
        exact = UNIFORM.interval_distortion(SupportInterval(float(lo), float(hi)), cp)
        for m in (10**3, 10**4):
            xs = lo + (hi - lo) * (np.arange(m) + 0.5) / m
            approx = float(np.mean((xs - e.x) ** 2 + e.y * e.y) * (hi - lo))
            assert abs(exact - approx) <= 0.25 * (hi - lo) ** 3 / m**2


def test_optimal_interval_distortion_values():
    iv = SupportInterval(F(0), F(1))
    assert optimal_interval_distortion(iv, 1) == F(29, 24)
    assert optimal_interval_distortion(iv, 2) == F(7, 12)
    assert optimal_interval_distortion(SupportInterval(F(1, 3), F(1, 3)), 5) == 0


def test_optimal_abscissa_is_the_minimizer():
    rng = np.random.default_rng(11)
    for _ in range(100):
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
        if hi - lo < 1e-3:
            continue
        t = int(rng.integers(1, 11))
        iv = SupportInterval(float(lo), float(hi))
        # the cell distortion is a convex quadratic in the abscissa on S_t
        a = ((iv.lo + iv.hi) * t - 2) / (4 * t)
        best = optimal_interval_distortion(iv, t)
        at_min = UNIFORM.interval_distortion(iv, ConstraintPoint(t, a))
        assert math.isclose(at_min, best, rel_tol=1e-14, abs_tol=1e-14)
        for eps in (1e-4, -1e-4):
            shifted = UNIFORM.interval_distortion(iv, ConstraintPoint(t, a + eps))
            assert shifted > best


def test_optimal_interval_distortion_strictly_decreasing_in_t():
    rng = np.random.default_rng(13)
    count = 0
    while count < 100:
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
        if hi - lo < 1e-6:
            continue
        iv = SupportInterval(float(lo), float(hi))
        values = [optimal_interval_distortion(iv, t) for t in range(1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))
        count += 1
