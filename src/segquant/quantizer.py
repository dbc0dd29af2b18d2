"""Quantizers on the constraint family, their partitions, and a Lloyd solver.

A quantizer is an ordered tuple of constraint points; its Voronoi partition
of the support [0, 1] is cut at the bisector abscissas of consecutive
embedded points.  For points all on one constraint S_t the two Lloyd half
steps take a simple form in foot coordinates: breakpoints are midpoints of
consecutive feet, and each new foot is the midpoint of its cell.  That is
the classic fixed-point iteration for uniform one-dimensional quantization,
a contraction with rate cos^2(pi / (2n)).  The solver accelerates it with a
Chebyshev semi-iteration: each of its iterations is one Lloyd sweep plus one
extrapolation, and it converges to the unique fixed point with equispaced
feet (2j - 1) / (2n) from any valid start in O(n) rather than O(n^2)
iterations per decade of accuracy.  While numpy is not yet imported, solves
of up to 192 points run the iteration on Python lists of floats, which spares
a command numpy's import; otherwise it runs on numpy arrays.  Both loops
evaluate the same float expressions in the same order, so their results are
bit-identical.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional

# numpy is imported only by the numpy solver loop (see _LIST_LOOP_MAX_N), so
# that `import segquant`, the closed forms and smaller solves never load it
from .geometry import (
    ConstraintPoint,
    _check_int,
    _check_positive_real,
    forward_map,
    inverse_map,
    voronoi_breakpoint,
)
from .measure import UNIFORM, SupportInterval

# every list of n points refuses n above this: time and memory grow linearly,
# and `segquant solve --n 100000` takes 3-6 s and a 190 MB peak RSS (2 vCPUs)
_MAX_POINTS = 100_000

# a solve runs the list loop while numpy is not yet imported and n is at most
# this, and the numpy loop otherwise.  With numpy loaded, the numpy loop is
# the faster from about n = 40 (2x at n = 64, 5x at 256).  Without, one
# solve's list loop against numpy's import plus its numpy loop, fresh
# processes on 2 vCPUs: 126 vs 189 ms at n = 192, 168 vs 195 ms at 224 and
# 224 vs 202 ms at 256, a crossover near 240 with a 160 ms numpy import and
# near 210 with a 120 ms one; 192 stays below both
_LIST_LOOP_MAX_N = 192


class InvalidQuantizerError(ValueError):
    """The quantizer induces no valid partition (some cell collapses).

    index, when set, is the 0-based position of the offending cell.
    """

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Quantizer:
    """Ordered tuple of constraint points with strictly increasing feet.

    Strict foot ordering also rules out duplicate embedded points (equal
    plane points have equal feet), so construction enforces both at once.
    """

    points: tuple[ConstraintPoint, ...]

    def __post_init__(self) -> None:
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        if not points:
            raise InvalidQuantizerError("a quantizer needs at least one point")
        for p in points:
            if not isinstance(p, ConstraintPoint):
                raise TypeError(f"expected ConstraintPoint, got {p!r}")
        feet = [forward_map(p) for p in points]
        for i in range(len(feet) - 1):
            if not feet[i] < feet[i + 1]:
                raise InvalidQuantizerError(
                    f"feet must be strictly increasing, got {feet[i]!r} before "
                    f"{feet[i + 1]!r} at position {i}",
                    index=i,
                )

    @property
    def n(self) -> int:
        return len(self.points)

    def feet(self) -> tuple[float, ...]:
        return tuple([forward_map(p) for p in self.points])

    def abscissas(self) -> tuple[float, ...]:
        return tuple([p.x for p in self.points])


def partition_of(q: Quantizer) -> tuple[float, ...]:
    """Voronoi partition of the support induced by the quantizer.

    Returns the tuple of breakpoints 0 = c_0 < c_1 < ... < c_n = 1; cell i,
    the one point i quantizes, is [c_i, c_{i+1}].  Interior breakpoints are
    clamped into [0, 1], and a pair with equal abscissas cuts at 1: its left
    point, having the smaller foot, is the nearer one everywhere.  If any
    cell then collapses the quantizer has an empty cell and is rejected.
    """
    # ends in the points' own number type, so Fraction stays exact at n = 1;
    # x - x, unlike 0 * x, is +0.0 for a negative float x
    zero = q.points[0].x - q.points[0].x
    one = zero + 1
    cuts = [zero]
    for left, right in zip(q.points, q.points[1:]):
        c = one if left.x == right.x else voronoi_breakpoint(left, right)
        cuts.append(min(max(c, zero), one))
    cuts.append(one)
    for i in range(len(cuts) - 1):
        if not cuts[i] < cuts[i + 1]:
            raise InvalidQuantizerError(
                f"cell {i} of the induced partition is empty", index=i
            )
    return tuple(cuts)


def distortion(q: Quantizer) -> float:
    """Mean squared distance from the uniform support to the quantizer.

    Sums the exact integral over each cell [c_i, c_{i+1}], taking
    consecutive pairs of the breakpoint tuple that partition_of returns.
    """
    cuts = partition_of(q)
    return sum(
        UNIFORM.interval_distortion(SupportInterval(lo, hi), p)
        for lo, hi, p in zip(cuts, cuts[1:], q.points)
    )


def lloyd_step(q: Quantizer, t: int) -> Quantizer:
    """One Lloyd iteration for a quantizer supported on S_t.

    Repartitions, rejecting an empty cell as partition_of does, then moves
    each point to the S_t point nearest its cell's barycenter: the one whose
    foot is the cell's midpoint.  Cells lie in [0, 1], so its abscissa stays
    in [-1/(2t), 1/2 - 1/(2t)].  Fraction in gives Fraction out.
    """
    _check_int("constraint index", t)
    for p in q.points:
        if p.j != t:
            raise ValueError(f"point {p!r} is not on constraint {t}")
    cuts = partition_of(q)
    return Quantizer(tuple(inverse_map(t, (lo + hi) / 2) for lo, hi in zip(cuts, cuts[1:])))


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and initialization for the fixed-point solver.

    An iteration is one Lloyd sweep plus one extrapolation; max_iter caps
    their number.  tol bounds the max foot movement of the last sweep, the
    one whose result the solver returns; init is either
    "equispaced-feet" (feet (2j - 1) / (2n), displaced by +0.1/n on odd
    1-based indices so convergence is observable) or "explicit" with
    init_feet supplying strictly increasing feet, stored as a tuple.
    """

    tol: float = 1e-12
    max_iter: int = 10_000
    init: str = "equispaced-feet"
    init_feet: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        _check_positive_real("tol", self.tol)
        _check_int("max_iter", self.max_iter)
        if self.init not in ("equispaced-feet", "explicit"):
            raise ValueError(f"unknown init mode {self.init!r}")
        if self.init == "explicit" and not self.init_feet:
            raise ValueError("init='explicit' requires init_feet")
        if self.init_feet is not None:
            if self.init != "explicit":
                raise ValueError(f"init_feet needs init='explicit', got init={self.init!r}")
            object.__setattr__(self, "init_feet", tuple(self.init_feet))


@dataclass(frozen=True)
class SolverOutcome:
    """Result of a solver run.

    iterations counts Lloyd sweeps, one per solver iteration; converged
    means the returned quantizer's sweep moved the feet by at most tol.
    """

    quantizer: Quantizer
    distortion: float
    iterations: int
    converged: bool


def _perturbed_equispaced_feet(n: int) -> list[float]:
    bump = 0.1 / n
    return [(2 * j - 1) / (2 * n) + (bump if j % 2 == 1 else 0.0) for j in range(1, n + 1)]


def _chebyshev_constants(n: int) -> tuple[float, float]:
    """gamma and sigma^2 / 4 of the Chebyshev semi-iteration for n feet."""
    rho = math.cos(math.pi / (2 * n)) ** 2
    return 2.0 / (2.0 - rho), 0.25 * (rho / (2.0 - rho)) ** 2


def _solve_loop(
    x0: list[float], inv_t: float, tol: float, max_iter: int
) -> tuple[list[float], int, float]:
    """Chebyshev-accelerated Lloyd sweeps in foot coordinates, on numpy arrays.

    Same-constraint breakpoints reduce to x_left + x_right + 1/t, and cell
    midpoints pull back to abscissa (c_left + c_right)/4 - 1/(2t), so the
    sweep g = Lloyd(x) below equals lloyd_step up to rounding.  It is affine,
    and its matrix has the exact spectrum {cos^2(k pi / (2n)) : k = 1..n},
    inside [0, rho] with rho = cos^2(pi / (2n)).  Each iteration runs one sweep
    g_k = Lloyd(x_k); it stops, returning g_k, once the sweep moves the feet
    by at most tol or max_iter iterations have run.  Otherwise it
    extrapolates with the Chebyshev semi-iteration of Golub & Varga (1961):

        x_{k+1} = x_{k-1} + w_{k+1} (gamma (g_k - x_k) + x_k - x_{k-1}),

    with gamma = 2 / (2 - rho) mapping the spectrum onto [-sigma, sigma],
    sigma = rho / (2 - rho), and w_1 = 1, w_2 = 1 / (1 - sigma^2 / 2),
    w_{k+1} = 1 / (1 - sigma^2 w_k / 4).  The error then shrinks by about
    sigma / (1 + sqrt(1 - sigma^2)) per iteration, close to 1 - pi / n
    against the 1 - pi^2 / (4 n^2) of plain sweeping.

    A sweep maps a valid state (strictly increasing feet, end breakpoints
    inside (0, 1)) to a valid state, so only the start can be invalid, and
    the caller checks it with partition_of.  An extrapolated state that is
    not valid is replaced by its sweep g_k, and the w sequence restarts.

    solve_fixed_constraint runs this loop once numpy is loaded or above
    _LIST_LOOP_MAX_N points, and its list twin _solve_loop_lists otherwise;
    the two return the same floats, iteration count and movement for the
    same arguments.
    """
    import numpy as np

    n = len(x0)
    gamma, quarter_sigma2 = _chebyshev_constants(n)
    x = prev = np.array(x0)
    cuts = np.zeros(n + 1)
    cuts[-1] = 1.0
    omega = 1.0
    step = 0  # extrapolations since the w sequence last (re)started
    iterations = 0
    movement = math.inf
    for iterations in range(1, max_iter + 1):
        cuts[1:n] = x[:-1] + x[1:] + inv_t
        g = 0.25 * (cuts[:-1] + cuts[1:]) - 0.5 * inv_t
        delta = g - x
        movement = 2.0 * max(float(delta.max()), -float(delta.min()))
        if movement <= tol or iterations == max_iter:
            break
        step += 1
        if step == 1:  # w_1 = 1
            nxt = x + gamma * delta
        else:
            omega = 1.0 / (1.0 - (2.0 if step == 2 else omega) * quarter_sigma2)
            nxt = prev + omega * (gamma * delta + x - prev)
        if n > 1 and not (
            (nxt[1:] - nxt[:-1]).min() > 0.0
            and nxt[0] + nxt[1] + inv_t > 0.0
            and nxt[-2] + nxt[-1] + inv_t < 1.0
        ):
            nxt = g
            step = 0
        prev, x = x, nxt
    return g.tolist(), iterations, movement


def _solve_loop_lists(
    x0: list[float], inv_t: float, tol: float, max_iter: int
) -> tuple[list[float], int, float]:
    """_solve_loop on Python lists, for solves that need not load numpy.

    Every float is computed by the same expression in the same order as in
    _solve_loop, so the results are bit-identical.  Feet a < b exactly when
    b - a > 0, so the pairwise test matches the numpy gap test.
    """
    n = len(x0)
    gamma, quarter_sigma2 = _chebyshev_constants(n)
    half_inv_t = 0.5 * inv_t
    x = prev = x0
    omega = 1.0
    step = 0  # extrapolations since the w sequence last (re)started
    iterations = 0
    movement = math.inf
    for iterations in range(1, max_iter + 1):
        cuts = [0.0, *[a + b + inv_t for a, b in zip(x, x[1:])], 1.0]
        g = [0.25 * (lo + hi) - half_inv_t for lo, hi in zip(cuts, cuts[1:])]
        delta = [a - b for a, b in zip(g, x)]
        movement = 2.0 * max(max(delta), -min(delta))
        if movement <= tol or iterations == max_iter:
            break
        step += 1
        if step == 1:  # w_1 = 1
            nxt = [a + gamma * d for a, d in zip(x, delta)]
        else:
            omega = 1.0 / (1.0 - (2.0 if step == 2 else omega) * quarter_sigma2)
            nxt = [p + omega * (gamma * d + a - p) for p, a, d in zip(prev, x, delta)]
        if n > 1 and not (
            all(map(operator.lt, nxt, nxt[1:]))
            and nxt[0] + nxt[1] + inv_t > 0.0
            and nxt[-2] + nxt[-1] + inv_t < 1.0
        ):
            nxt = g
            step = 0
        prev, x = x, nxt
    return g, iterations, movement


def solve_fixed_constraint(
    n: int, t: int, config: Optional[SolverConfig] = None
) -> SolverOutcome:
    """Fixed-point solver for the best n points on the single constraint S_t.

    Runs Chebyshev-accelerated Lloyd iterations (see _solve_loop) until the
    last sweep moves the feet by at most config.tol or max_iter iterations
    have run, and returns that sweep's result; converged reports which
    happened.  With max_iter=1 the result is lloyd_step of the start, up to
    rounding.  The fixed point has feet (2j - 1) / (2n) regardless of t.
    While numpy is not yet imported, up to _LIST_LOOP_MAX_N points, the loop
    runs on Python lists and does not import it; otherwise it runs on numpy
    arrays, with bit-identical results.
    """
    _check_int("n", n, maximum=_MAX_POINTS)
    cfg = config if config is not None else SolverConfig()
    if cfg.init == "equispaced-feet":
        feet = _perturbed_equispaced_feet(n)
    else:
        feet = [float(f) for f in cfg.init_feet]
        if len(feet) != n:
            raise ValueError(f"init_feet has {len(feet)} entries, expected {n}")
    # validates t, each foot's preimage on S_t and the start's partition
    start = [inverse_map(t, f) for f in feet]
    partition_of(Quantizer(tuple(start)))
    inv_t = 1.0 / t
    x0 = [float(p.x) for p in start]
    if n <= _LIST_LOOP_MAX_N and "numpy" not in sys.modules:
        loop = _solve_loop_lists
    else:
        loop = _solve_loop
    x, iterations, movement = loop(x0, inv_t, cfg.tol, cfg.max_iter)
    q = Quantizer(tuple([ConstraintPoint(t, v) for v in x]))
    return SolverOutcome(
        quantizer=q,
        distortion=distortion(q),
        iterations=iterations,
        converged=movement <= cfg.tol,
    )
