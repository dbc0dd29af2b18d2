"""Estimating the quantization dimension and coefficient from the errors.

The excess e(n) = V_n - V_inf decays like 1 / (2n), so on a log-log plot the
error curve is asymptotically a line of slope -1 and the two standard
estimators both converge to dimension 2:

  * the direct ratio 2 log n / (-log e(n)), evaluated at a single n, and
  * 2 / |slope| for the least-squares slope of log e(n) against log n over a
    geometric grid of sample sizes.

Excess values come from the exact rational closed form, so no cancellation
occurs even at n ~ 1e8; logarithms are taken after the single conversion to
float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import closed_form
from .geometry import _check_int

# the geometric sample list holds `samples` ints before deduplication; the
# widest range, n = 2 .. 2**31 - 1, takes 0.4 s and an 8.8 MiB tracemalloc
# peak at 10**5 samples on 2 vCPUs, linear in samples
_MAX_SAMPLES = 100_000


def excess(n: int) -> float:
    """Error excess V_n - V_inf, exact rational converted to float."""
    return float(closed_form.excess_exact(n))


def coefficient_estimate(n: int) -> float:
    """Scaled excess n * (V_n - V_inf) = 1/2 + 13/(24 n).

    Strictly decreasing in n with limit the quantization coefficient 1/2.
    """
    return float(n * closed_form.excess_exact(n))


def dimension_direct(n: int) -> float:
    """Single-point dimension estimate 2 log n / (-log excess(n)).

    Needs n >= 2, where excess(n) <= excess(2) = 37/96 < 1 keeps the
    denominator positive; at n = 1 the excess is 25/24 > 1 and the estimate
    is undefined.  n is capped at vn_exact's 2**31 - 1.
    """
    _check_int("n", n, minimum=2, maximum=closed_form._MAX_N)
    return 2 * math.log(n) / -math.log(excess(n))


@dataclass(frozen=True)
class RegressionEstimate:
    """Log-log fit of the excess over [n_min, n_max] and the dimension 2 / |slope|."""

    slope: float
    intercept: float
    dimension: float
    residual: float


def _geometric_samples(n_min: int, n_max: int, samples: int) -> list[int]:
    log_lo, log_hi = math.log(n_min), math.log(n_max)
    # both ends round back to n_min < n_max, so at least two remain
    return sorted({
        round(math.exp(log_lo + (log_hi - log_lo) * i / (samples - 1)))
        for i in range(samples)
    })


def dimension_regression(
    n_min: int, n_max: int, samples: int = 9
) -> RegressionEstimate:
    """Dimension estimate from a log-log fit of excess over geometric samples.

    Takes `samples` geometrically spaced integers in [n_min, n_max]
    (deduplicated after rounding) and fits log excess against log n by least
    squares; residual is the max absolute deviation of the data from the
    fitted line in log space.  Plain scalar arithmetic keeps the result
    bit-reproducible.  n_max is capped at 2**31 - 1, as vn_exact's n is, and
    samples at 100,000 to bound memory.
    """
    _check_int("n_min", n_min, minimum=2, maximum=closed_form._MAX_N)
    _check_int("n_max", n_max, minimum=2, maximum=closed_form._MAX_N)
    if not n_min < n_max:
        raise ValueError(f"n_max must be greater than n_min {n_min}, got {n_max}")
    _check_int("samples", samples, minimum=2, maximum=_MAX_SAMPLES)
    ns = _geometric_samples(n_min, n_max, samples)
    xs = [math.log(n) for n in ns]
    ys = [math.log(excess(n)) for n in ns]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    # the excess strictly decreases, so sxy < 0 and the slope is nonzero
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = max(abs(y - (intercept + slope * x)) for x, y in zip(xs, ys))
    return RegressionEstimate(
        slope=slope,
        intercept=intercept,
        dimension=2 / abs(slope),
        residual=residual,
    )
