"""Closed-form optimal quantizers: exact values and cross-module identities."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from segquant import (
    ConstraintPoint,
    distortion,
    forward_map,
    lloyd_step,
    optimal_abscissas_exact,
    optimal_points,
    unconstrained_means,
    v_infinity,
    vn,
    vn_exact,
)
from segquant import closed_form
from segquant.closed_form import excess_exact


def test_vn_exact_values():
    assert vn_exact(1) == F(29, 24)
    assert vn_exact(2) == F(53, 96)
    assert vn_exact(3) == F(85, 216)
    assert vn_exact(4) == F(125, 384)
    assert vn(2) == 53 / 96


def test_v_infinity():
    assert closed_form.V_INFINITY_EXACT == F(1, 6)
    assert v_infinity() == float(F(1, 6))
    # V_n approaches 1/6 from above and never reaches it
    assert abs(vn(10**6) - 1 / 6) < 1e-5
    for n in (1, 10, 10**3, 10**4):
        assert vn_exact(n) > F(1, 6)


def test_excess_exact_closed_form():
    for n in (1, 2, 3, 10, 97):
        assert excess_exact(n) == F(12 * n + 13, 24 * n * n)


def test_optimal_abscissas_values():
    assert optimal_abscissas_exact(1) == [F(-1, 4)]
    assert optimal_abscissas_exact(2) == [F(-1, 8), F(1, 8)]
    assert optimal_abscissas_exact(3) == [F(-1, 12), F(1, 12), F(1, 4)]


def test_optimal_points_structure():
    q = optimal_points(5)
    assert q.n == 5
    assert all(p.j == 5 for p in q.points)
    assert tuple(p.x for p in q.points) == (-0.05, 0.05, 0.15, 0.25, 0.35)


def test_abscissas_stay_strictly_interior():
    # strict bounds -1/(2n) < x < 1/2 - 1/(2n) in exact arithmetic
    for n in (1, 2, 3, 17, 256, 10**4):
        xs = optimal_abscissas_exact(n)
        assert all(F(-1, 2 * n) < x < F(1, 2) - F(1, 2 * n) for x in xs)
        assert xs[0] == F(-1, 4 * n) and xs[-1] == F(2 * n - 3, 4 * n)


def test_unconstrained_means_values():
    assert unconstrained_means(1) == [0.5]
    assert unconstrained_means(2) == [0.25, 0.75]
    assert unconstrained_means(4) == [0.125, 0.375, 0.625, 0.875]


def test_float_path_builds_no_fraction(monkeypatch):
    # the point lists divide ints, which rounds as float(Fraction(p, q)) does
    ns = (1, 3, 99_991, 100_000)
    means = {n: [float(F(2 * j - 1, 2 * n)) for j in range(1, n + 1)] for n in ns}
    abscissas = {
        n: [float(F(2 * j - 3, 4 * n)).hex() for j in range(1, n + 1)] for n in ns
    }

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(closed_form, "Fraction", refuse)
    for n in ns:
        assert unconstrained_means(n) == means[n]
        assert [p.x.hex() for p in optimal_points(n).points] == abscissas[n]
    for call in (unconstrained_means, optimal_points):
        for n in (0, True, 100_001):
            with pytest.raises(ValueError):
                call(n)


def test_feet_of_optimal_points_are_the_unconstrained_means():
    for n in (1, 2, 3, 8, 33):
        exact_feet = [
            forward_map(ConstraintPoint(n, x)) for x in optimal_abscissas_exact(n)
        ]
        assert exact_feet == [F(2 * j - 1, 2 * n) for j in range(1, n + 1)]
        means = unconstrained_means(n)
        feet = optimal_points(n).feet()
        assert max(abs(a - b) for a, b in zip(feet, means)) <= 1e-15


def test_vn_is_the_distortion_of_the_optimal_points():
    for n in (1, 2, 3, 7, 20, 64):
        assert abs(distortion(optimal_points(n)) - vn(n)) <= 1e-13


def test_optimal_points_are_a_lloyd_fixed_point():
    for n in (1, 2, 3, 9):
        q = optimal_points(n)
        stepped = lloyd_step(q)
        worst = max(
            abs(a.x - b.x) for a, b in zip(stepped.points, q.points)
        )
        assert worst <= 1e-15


def test_vn_strictly_decreasing():
    values = [vn_exact(n) for n in range(1, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_scaled_excess_approaches_the_coefficient():
    # n (V_n - V_inf) = 1/2 + 13 / (24 n)
    for n in (1, 10, 1000):
        assert n * excess_exact(n) == F(1, 2) + F(13, 24 * n)
    assert abs(1000 * excess_exact(1000) - 0.5) < 1e-3


def test_n_validation():
    for bad in (0, -3, 1.5, "2", True, None):
        with pytest.raises((ValueError, TypeError)):
            vn_exact(bad)
    with pytest.raises(ValueError):
        vn_exact(2**31)
    assert vn_exact(2**31 - 1) > F(1, 6)
