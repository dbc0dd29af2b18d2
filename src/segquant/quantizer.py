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
iterations per decade of accuracy.  The iteration runs on Python lists of
floats up to 28 points, where that loop is the faster even with numpy loaded,
and up to 192 points while numpy is not yet imported, which spares a command
numpy's import; otherwise it runs on numpy arrays.  Both loops evaluate the
same float expressions in the same order, so their results are bit-identical.
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
    _bisector,
    _check_int,
    _check_positive_real,
    _check_real,
    _plane,
    forward_map,
    inverse_map,
)
from .measure import cell_distortion

# every list of n points refuses n above this: time and memory grow linearly,
# and `segquant solve --n 100000` takes 1.7-1.8 s and a 193 MB peak RSS
# (2 shared vCPUs, Python 3.11), most of it in json.dumps and optimal_points
_MAX_POINTS = 100_000

# a solve runs the list loop at n up to _LIST_LOOP_IN_PROCESS_MAX_N, at n up
# to _LIST_LOOP_MAX_N while numpy is not yet imported, and the numpy loop
# otherwise.
#
# In-process, numpy loaded: the list loop's time over the numpy loop's, both
# run interleaved on bench lloyd-sweep starts (tol 1e-13), best of 15 x 5
# runs each, 2 shared vCPUs, Python 3.11: 0.46 at n = 8, 0.60 at 16,
# 0.76-0.90 at 24, 0.95-1.02 at 28, 0.98-1.03 at 30, 1.06-1.12 at 32,
# 1.24-1.32 at 40 and 1.85 at 64 (the numpy loop is 5x faster at 256)
_LIST_LOOP_IN_PROCESS_MAX_N = 28
# Fresh processes, numpy not imported: one solve's list loop against numpy's
# import plus its numpy loop, 2 vCPUs with one OpenBLAS thread (as the CLI
# starts it; the import then takes about 50 ms, not 125), min of 9: 123 vs
# 180 ms at n = 128, 130 vs 160 ms at 160, 160 vs 168 ms at 192 and 177 vs
# 175 ms at 256, a crossover near 250; 192 stays below it
_LIST_LOOP_MAX_N = 192


class InvalidQuantizerError(ValueError):
    """The quantizer induces no valid partition (some cell collapses); the
    message names the 0-based position of the offending pair or cell."""


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
                    f"{feet[i + 1]!r} at position {i}"
                )

    @property
    def n(self) -> int:
        return len(self.points)

    def feet(self) -> tuple[float, ...]:
        return tuple([forward_map(p) for p in self.points])


def _cuts(planar: list[tuple[float, float]]) -> list[float]:
    """partition_of's breakpoints, cut from the points' plane coordinates."""
    # ends in the points' own number type, so Fraction stays exact at n = 1;
    # x - x, unlike 0 * x, is +0.0 for a negative float x
    zero = planar[0][0] - planar[0][0]
    one = zero + 1
    cuts = [zero]
    # the cut of a pair is voronoi_breakpoint's
    for left, right in zip(planar, planar[1:]):
        c = one if left[0] == right[0] else _bisector(left, right)
        cuts.append(min(max(c, zero), one))
    cuts.append(one)
    for i in range(len(cuts) - 1):
        if not cuts[i] < cuts[i + 1]:
            raise InvalidQuantizerError(f"cell {i} of the induced partition is empty")
    return cuts


def partition_of(q: Quantizer) -> tuple[float, ...]:
    """Voronoi partition of the support induced by the quantizer.

    Returns the tuple of breakpoints 0 = c_0 < c_1 < ... < c_n = 1; cell i,
    the one point i quantizes, is [c_i, c_{i+1}].  Interior breakpoints are
    clamped into [0, 1], and a pair with equal abscissas cuts at 1: its left
    point, having the smaller foot, is the nearer one everywhere.  If any
    cell then collapses the quantizer has an empty cell and is rejected.
    """
    return tuple(_cuts([_plane(p) for p in q.points]))


def distortion(q: Quantizer) -> float:
    """Mean squared distance from the uniform support to the quantizer.

    Sums measure.cell_distortion, the exact integral, over each cell
    [c_i, c_{i+1}] of partition_of's breakpoints against the plane
    coordinates (a_i, y_i) of point i.
    """
    planar = [_plane(p) for p in q.points]
    cuts = _cuts(planar)
    return sum(
        cell_distortion(lo, hi, a, y) for lo, hi, (a, y) in zip(cuts, cuts[1:], planar)
    )


def lloyd_step(q: Quantizer) -> Quantizer:
    """One Lloyd iteration for a quantizer whose points all lie on one S_t.

    Reads t from the points, refusing points on more than one constraint.
    Repartitions, rejecting an empty cell as partition_of does, then moves
    each point to the S_t point nearest its cell's barycenter: the one whose
    foot is the cell's midpoint.  Cells lie in [0, 1], so its abscissa stays
    in [-1/(2t), 1/2 - 1/(2t)].  Fraction in gives Fraction out.
    """
    indices = sorted({p.j for p in q.points})
    if len(indices) != 1:
        raise ValueError(f"points lie on more than one constraint: indices {indices}")
    t = indices[0]
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
        if self.init_feet is not None:
            if self.init != "explicit":
                raise ValueError(f"init_feet needs init='explicit', got init={self.init!r}")
            object.__setattr__(self, "init_feet", tuple(self.init_feet))
            for i, f in enumerate(self.init_feet):
                _check_real(f"init_feet[{i}]", f)
        if self.init == "explicit" and not self.init_feet:
            raise ValueError("init='explicit' requires init_feet")


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
    feet: list[float], tol: float, max_iter: int
) -> tuple[list[float], int, float]:
    """Chebyshev-accelerated Lloyd sweeps in foot coordinates, on numpy arrays.

    Pair sums s = (0, f_1 + f_2, ..., f_{n-1} + f_n, 2) are twice the
    breakpoints, so the sweep g = Lloyd(f) below, g_i = (s_i + s_{i+1}) / 4,
    equals lloyd_step on any constraint up to rounding.  It is affine, and its
    matrix has the exact spectrum {cos^2(k pi / (2n)) : k = 1..n}, inside
    [0, rho] with rho = cos^2(pi / (2n)).  Each iteration runs one sweep
    g_k = Lloyd(f_k); it stops, returning g_k, once the sweep moves the feet
    by at most tol or max_iter iterations have run.  Otherwise it
    extrapolates with the Chebyshev semi-iteration of Golub & Varga (1961):

        f_{k+1} = f_{k-1} + w_{k+1} (gamma (g_k - f_k) + f_k - f_{k-1}),

    with gamma = 2 / (2 - rho) mapping the spectrum onto [-sigma, sigma],
    sigma = rho / (2 - rho), and w_1 = 1, w_2 = 1 / (1 - sigma^2 / 2),
    w_{k+1} = 1 / (1 - sigma^2 w_k / 4).  The error then shrinks by about
    sigma / (1 + sqrt(1 - sigma^2)) per iteration, close to 1 - pi / n
    against the 1 - pi^2 / (4 n^2) of plain sweeping.

    A sweep maps a valid state (strictly increasing feet, end breakpoints
    inside (0, 1)) to a valid state, so only the start can be invalid, and
    the caller checks it with partition_of.  An extrapolated state that is
    not valid is replaced by its sweep g_k, and the w sequence restarts.

    Its list twin _solve_loop_lists returns the same floats, iteration count
    and movement; solve_fixed_constraint picks which of the two runs.
    """
    import numpy as np

    n = len(feet)
    gamma, quarter_sigma2 = _chebyshev_constants(n)
    f = prev = np.array(feet)
    sums = np.zeros(n + 1)
    sums[-1] = 2.0
    omega = 1.0
    step = 0  # extrapolations since the w sequence last (re)started
    iterations = 0
    movement = math.inf
    for iterations in range(1, max_iter + 1):
        sums[1:n] = f[:-1] + f[1:]
        g = 0.25 * (sums[:-1] + sums[1:])
        delta = g - f
        movement = max(float(delta.max()), -float(delta.min()))
        if movement <= tol or iterations == max_iter:
            break
        step += 1
        if step == 1:  # w_1 = 1
            nxt = f + gamma * delta
        else:
            omega = 1.0 / (1.0 - (2.0 if step == 2 else omega) * quarter_sigma2)
            nxt = prev + omega * (gamma * delta + f - prev)
        if n > 1 and not (
            (nxt[1:] - nxt[:-1]).min() > 0.0
            and nxt[0] + nxt[1] > 0.0
            and nxt[-2] + nxt[-1] < 2.0
        ):
            nxt = g
            step = 0
        prev, f = f, nxt
    return g.tolist(), iterations, movement


def _solve_loop_lists(
    feet: list[float], tol: float, max_iter: int
) -> tuple[list[float], int, float]:
    """_solve_loop on Python lists, for solves that need not load numpy.

    Every float is computed by the same expression in the same order as in
    _solve_loop, so the results are bit-identical.  Feet a < b exactly when
    b - a > 0, so the pairwise test matches the numpy gap test.
    """
    n = len(feet)
    gamma, quarter_sigma2 = _chebyshev_constants(n)
    f = prev = feet
    omega = 1.0
    step = 0  # extrapolations since the w sequence last (re)started
    iterations = 0
    movement = math.inf
    for iterations in range(1, max_iter + 1):
        sums = [0.0, *[a + b for a, b in zip(f, f[1:])], 2.0]
        g = [0.25 * (lo + hi) for lo, hi in zip(sums, sums[1:])]
        delta = [a - b for a, b in zip(g, f)]
        movement = max(max(delta), -min(delta))
        if movement <= tol or iterations == max_iter:
            break
        step += 1
        if step == 1:  # w_1 = 1
            nxt = [a + gamma * d for a, d in zip(f, delta)]
        else:
            omega = 1.0 / (1.0 - (2.0 if step == 2 else omega) * quarter_sigma2)
            nxt = [p + omega * (gamma * d + a - p) for p, a, d in zip(prev, f, delta)]
        if n > 1 and not (
            all(map(operator.lt, nxt, nxt[1:]))
            and nxt[0] + nxt[1] > 0.0
            and nxt[-2] + nxt[-1] < 2.0
        ):
            nxt = g
            step = 0
        prev, f = f, nxt
    return g, iterations, movement


def solve_fixed_constraint(
    n: int, t: int, config: Optional[SolverConfig] = None
) -> SolverOutcome:
    """Fixed-point solver for the best n points on the single constraint S_t.

    Runs Chebyshev-accelerated Lloyd iterations (see _solve_loop) until the
    last sweep moves the feet by at most config.tol or max_iter iterations
    have run, and returns that sweep's result; converged reports which
    happened.  With max_iter=1 the result is lloyd_step of the start, up to
    rounding.  The loop sees only feet, mapped onto S_t once at the end, so a
    solve does not depend on t; the fixed point has feet (2j - 1) / (2n).
    The loop runs on Python lists up to _LIST_LOOP_IN_PROCESS_MAX_N points,
    and up to _LIST_LOOP_MAX_N while numpy is not yet imported, without
    importing it; otherwise on numpy arrays, with bit-identical results.
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
    partition_of(Quantizer(tuple([inverse_map(t, f) for f in feet])))
    if n <= _LIST_LOOP_IN_PROCESS_MAX_N or (
        n <= _LIST_LOOP_MAX_N and "numpy" not in sys.modules
    ):
        loop = _solve_loop_lists
    else:
        loop = _solve_loop
    feet, iterations, movement = loop(feet, cfg.tol, cfg.max_iter)
    q = Quantizer(tuple([inverse_map(t, f) for f in feet]))
    return SolverOutcome(
        quantizer=q,
        distortion=distortion(q),
        iterations=iterations,
        converged=movement <= cfg.tol,
    )
