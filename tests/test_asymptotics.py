"""Dimension and coefficient estimators built on the exact error curve."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from segquant import (
    RegressionEstimate,
    coefficient_estimate,
    dimension_direct,
    dimension_regression,
    excess,
)


def test_excess_values():
    assert excess(1) == float(F(25, 24))
    assert excess(2) == float(F(37, 96))
    assert excess(10) == float(F(133, 2400))


def test_dimension_direct_frozen_values():
    # 2 log n / (-log excess(n)) at pinned sample sizes
    assert dimension_direct(2) == 1.4540070647120285
    assert dimension_direct(10**4) == 1.8600399242836598
    assert dimension_direct(10**6) == 1.9044506857250387


def test_dimension_direct_approaches_two_from_below():
    estimates = [dimension_direct(10**k) for k in range(1, 9)]
    assert all(a < b for a, b in zip(estimates, estimates[1:]))
    assert all(e < 2 for e in estimates)
    assert estimates[-1] > 1.9


def test_dimension_direct_domain():
    with pytest.raises(ValueError):
        dimension_direct(1)  # excess(1) > 1, estimate undefined
    for bad in (0, -2, 2.0, True, None):
        with pytest.raises((ValueError, TypeError)):
            dimension_direct(bad)


def test_coefficient_estimate_values():
    assert coefficient_estimate(100) == float(F(1213, 2400))
    for n in (1, 7, 10**3):
        assert coefficient_estimate(n) == float(F(1, 2) + F(13, 24 * n))


def test_coefficient_estimate_decreases_to_one_half():
    values = [coefficient_estimate(n) for n in (1, 2, 4, 8, 10**2, 10**4, 10**6)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert abs(values[-1] - 0.5) < 1e-6
    assert all(v > 0.5 for v in values)


def test_dimension_regression_default_window():
    est = dimension_regression(64, 16384, 9)
    assert isinstance(est, RegressionEstimate)
    assert est.slope == -1.0024349294501091
    assert est.intercept == -0.672536329664351
    assert est.dimension == 1.9951419700599522
    assert est.residual == 0.006301152695652235
    assert abs(est.dimension - 2.0) <= 0.01
    assert abs(est.slope + 1.0) <= 0.01


def test_dimension_regression_small_range_is_biased():
    # over 2..8 the 13/(24 n^2) term still distorts the slope
    est = dimension_regression(2, 8, 9)
    assert est.slope == -1.2176580131458385
    assert est.residual == 0.023446123284558307
    assert est.dimension < 1.9


def test_dimension_regression_improves_with_larger_n():
    near = dimension_regression(2, 64, 7)
    far = dimension_regression(2**10, 2**16, 7)
    assert abs(far.dimension - 2) < abs(near.dimension - 2)
    assert far.residual < near.residual


def test_dimension_regression_validation():
    with pytest.raises(ValueError):
        dimension_regression(1, 100)  # n_min must be >= 2
    with pytest.raises(ValueError):
        dimension_regression(100, 100)
    with pytest.raises(ValueError):
        dimension_regression(200, 100)
    with pytest.raises(ValueError):
        dimension_regression(2, 100, samples=1)
    with pytest.raises(ValueError):
        dimension_regression(2.0, 100)
    # heavy rounding collapses the grid onto few integers, but the two
    # distinct endpoints survive deduplication: the fit is the one over the
    # three samples 2, 3 and 4
    est = dimension_regression(2, 4, samples=9)
    assert est == dimension_regression(2, 4, samples=3)
    assert est.residual > 0


def test_dimension_regression_refuses_n_above_vn_exact_cap():
    # unchecked, 10**400 would overflow math.exp while sampling
    assert dimension_regression(2, 2**31 - 1).slope == -1.0119001450853096
    for big in (2**31, 10**400):
        with pytest.raises(ValueError, match=r"n_max must be an integer in \[2, 2147483647\]"):
            dimension_regression(2, big)
