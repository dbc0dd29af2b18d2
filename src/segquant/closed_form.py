"""Closed forms for the optimal constrained quantizers and their errors.

For n points drawn from the constraint family S_1, ..., S_n, the optimal
quantizer puts every point on the highest-index constraint S_n at abscissas
(2j - 3) / (4n), j = 1..n; its feet are the unconstrained optimal sites
(2j - 1) / (2n) and the achieved error is

    V_n = (4 n^2 + 12 n + 13) / (24 n^2),

with limit V_inf = 1/6 (the squared distance from the support to the
accumulation set of the constraints).  The excess V_n - V_inf decays like
1 / (2n), giving quantization dimension 2 and quantization coefficient 1/2.

The float point lists divide ints: int true division rounds correctly, so
each abscissa or foot is the float that float(Fraction(p, q)) gives, with no
Fraction built (the rule of geometry._reciprocal).  The scalar errors vn and
v_infinity convert their exact rational once; the *_exact variants expose
the rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import ConstraintPoint, _check_int
from .quantizer import _MAX_POINTS, Quantizer

# vn_exact is O(1) in n; the point lists stop at quantizer._MAX_POINTS
_MAX_N = 2**31 - 1

V_INFINITY_EXACT = Fraction(1, 6)


def vn_exact(n: int) -> Fraction:
    """Optimal n-point error (4 n^2 + 12 n + 13) / (24 n^2) as a rational."""
    _check_int("n", n, maximum=_MAX_N)
    return Fraction(4 * n * n + 12 * n + 13, 24 * n * n)


def vn(n: int) -> float:
    """Optimal n-point error as a float."""
    return float(vn_exact(n))


def v_infinity() -> float:
    """Limit of the optimal errors: 1/6."""
    return float(V_INFINITY_EXACT)


def excess_exact(n: int) -> Fraction:
    """Exact error excess V_n - V_inf = (12 n + 13) / (24 n^2)."""
    return vn_exact(n) - V_INFINITY_EXACT


def optimal_abscissas_exact(n: int) -> list[Fraction]:
    """Abscissas (2j - 3) / (4n), j = 1..n, of the optimal points on S_n."""
    _check_int("n", n, maximum=_MAX_POINTS)
    return [Fraction(2 * j - 3, 4 * n) for j in range(1, n + 1)]


def optimal_points(n: int) -> Quantizer:
    """The optimal n-point quantizer, all points on S_n.

    Abscissas stay strictly inside the feasible range (-1/(2n), 1/2 - 1/(2n))
    whose feet sweep [0, 1].  Each is optimal_abscissas_exact(n)'s rational,
    rounded once by int true division.
    """
    _check_int("n", n, maximum=_MAX_POINTS)
    return Quantizer(
        tuple([ConstraintPoint(n, (2 * j - 3) / (4 * n)) for j in range(1, n + 1)])
    )


def unconstrained_means(n: int) -> list[float]:
    """Feet (2j - 1) / (2n) of the optimal points.

    These are the classic optimal sites for uniform quantization on [0, 1];
    in exact arithmetic they equal forward_map of optimal_points(n).
    """
    _check_int("n", n, maximum=_MAX_POINTS)
    return [(2 * j - 1) / (2 * n) for j in range(1, n + 1)]
