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
iterations per decade of accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# numpy is imported inside the solver functions, so that the closed-form paths
# and `import segquant` do not pay its start-up cost
from .geometry import (
    ConstraintPoint,
    _check_int,
    forward_map,
    inverse_map,
    voronoi_breakpoint,
)
from .measure import UNIFORM, SupportInterval

# every list of n points refuses n above this: time and memory grow linearly,
# and `segquant solve --n 100000` takes 3-6 s and a 190 MB peak RSS (2 vCPUs)
_MAX_POINTS = 100_000


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
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a positive finite float, got {self.tol!r}")
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


def _solve_loop(
    x0: np.ndarray, inv_t: float, tol: float, max_iter: int
) -> tuple[np.ndarray, int, float]:
    """Chebyshev-accelerated Lloyd sweeps in foot coordinates.

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
    """
    import numpy as np

    n = x0.size
    rho = math.cos(math.pi / (2 * n)) ** 2
    gamma = 2.0 / (2.0 - rho)
    quarter_sigma2 = 0.25 * (rho / (2.0 - rho)) ** 2
    x = prev = x0
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
    """
    import numpy as np

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
    x0 = np.array([float(p.x) for p in start])
    x, iterations, movement = _solve_loop(x0, inv_t, cfg.tol, cfg.max_iter)
    q = Quantizer(tuple([ConstraintPoint(t, v) for v in x.tolist()]))
    return SolverOutcome(
        quantizer=q,
        distortion=distortion(q),
        iterations=iterations,
        converged=movement <= cfg.tol,
    )
