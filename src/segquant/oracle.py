"""Independent checks: exact grid search and midpoint Riemann integration.

brute_force puts each of the n points on any constraint index and on a grid
over that constraint's feasible abscissa range (widened by one grid step on
each side, within the segment's domain [-1/j, 1]) and finds the exact minimum
over all such placements by a dynamic program over consecutive pairs of grid
states (J. D. Bruce, "Optimum quantization", 1965; X. Wu, "Optimal
quantization by matrix searching", 1991).  Each refinement round runs the
same program on halved-step windows around the incumbent.  Cells are priced
by measure.cell_distortion, the exact quadratic integral that
quantizer.distortion sums too: calculus, not a result of the paper, and
riemann_distortion, which never calls it, stays its referee.
riemann_distortion integrates the pointwise min squared distance with a
midpoint rule.  It finds the nearest point at each midpoint from the lower
envelope of the n parabolas (u - a_k)^2 + y_k^2, one per embedded point
(a_k, y_k), built by one scan over the points sorted by abscissa, and sums
each envelope segment's run of midpoints in closed form, in O(n log n) time
whatever the panel count; it shares no partition logic with the quantizer
module.  Both exist to confirm the closed forms and the fixed-point solver, so
neither uses either: a defect shared with what it checks would go unseen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

# numpy is imported inside the search functions, so that `import segquant`
# does not pay its start-up cost
from . import quantizer as qz
from .geometry import (
    ConstraintPoint,
    _check_int,
    _check_positive_real,
    _plane,
    feasible_foot_range,
)
from .measure import cell_distortion

# the default grid at n = 6 takes about 0.15 s on 2 vCPUs and a 7.1 MiB
# tracemalloc peak
_FULL_SEARCH_MAX_N = 6
# riemann_distortion holds O(n) floats whatever panels is; up to 2**52 every
# midpoint numerator i + 0.5 is an exact float, so _midpoints_below ends
_RIEMANN_MAX_PANELS = 2**52
# the coarse dynamic program over G grid states holds about five G x G float64
# tables (8 MB each at G = 1000) plus one index table per point after the
# second, in O(n G^3) time: n = 3 at G = 996 takes about 1 s on 2 vCPUs and a
# 47 MiB tracemalloc peak; the default grid_step gives G = 53 n (318 at n = 6)
_MAX_GRID_STATES = 1000


@dataclass(frozen=True)
class OracleConfig:
    """Grid search settings.

    max_index=None searches S_1 .. S_n; smaller values restrict the family.
    refine_rounds local passes halve the grid step around the incumbent, so
    the final resolution is grid_step / 2**refine_rounds.
    """

    grid_step: float = 1e-2
    max_index: Optional[int] = None
    refine_rounds: int = 3

    def __post_init__(self) -> None:
        _check_positive_real("grid_step", self.grid_step)
        # np.arange of a Fraction step builds an object array
        object.__setattr__(self, "grid_step", float(self.grid_step))
        if self.max_index is not None:
            _check_int("max_index", self.max_index)
        _check_int("refine_rounds", self.refine_rounds, minimum=0)


def _cut(a0, y0, a1, y1):
    """Voronoi cut on the x-axis between the embedded points (a0, y0), (a1, y1)."""
    return (a1 * a1 + y1 * y1 - a0 * a0 - y0 * y0) / (2.0 * (a1 - a0))


def _grid_minimum(
    n: int, grids: dict[int, Sequence[float]]
) -> Optional[tuple[float, tuple[int, ...], tuple[float, ...]]]:
    """Cheapest valid n-tuple of states, by dynamic programming.

    A state is a constraint index t with an abscissa on grids[t]; states are
    ordered by (t, x).  Every validity test involves consecutive pairs
    (ordered feet, a finite cut inside (0, 1)) or triples (ordered cuts), so
    value[b, c] holds the least cost of the cells so far over valid prefixes
    ending in states b, c.  Cells are added left to right, so the minimum is
    the same float an enumeration of every tuple finds.
    Each step loops over the middle state: G^2 memory, O(n G^3) time for G
    states.  Returns (value, indices, abscissas), or None when nothing is valid.
    """
    import numpy as np

    ts = np.concatenate([np.full(len(grid), t) for t, grid in grids.items()])
    xs = np.concatenate(list(grids.values()))
    invs = 1.0 / ts
    ys = xs + invs
    if n == 1:
        values = cell_distortion(0.0, 1.0, xs, ys)
        k = int(np.argmin(values))
        return float(values[k]), (int(ts[k]),), (float(xs[k]),)
    feet = 2.0 * xs + invs
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = _cut(xs[:, None], ys[:, None], xs[None, :], ys[None, :])
        pair = feet[:, None] < feet[None, :]
        pair &= np.isfinite(cut) & (cut > 0.0) & (cut < 1.0)
        value = np.where(pair, cell_distortion(0.0, cut, xs[:, None], ys[:, None]), np.inf)
    back = []
    for _ in range(n - 2):
        step_value = np.full_like(value, np.inf)
        step_back = np.zeros(value.shape, dtype=np.intp)
        for b in range(len(xs)):
            (before,) = np.nonzero(pair[:, b])
            (after,) = np.nonzero(pair[b])
            if not (before.size and after.size):
                continue
            lo = cut[before, b][:, None]
            hi = cut[b, after][None, :]
            cand = value[before, b][:, None] + cell_distortion(lo, hi, xs[b], ys[b])
            cand = np.where(lo < hi, cand, np.inf)
            k = np.argmin(cand, axis=0)
            step_value[b, after] = cand[k, np.arange(after.size)]
            step_back[b, after] = before[k]
        value = step_value
        back.append(step_back)
    with np.errstate(invalid="ignore"):
        total = np.where(
            pair, value + cell_distortion(cut, 1.0, xs[None, :], ys[None, :]), np.inf
        )
    b, c = np.unravel_index(int(np.argmin(total)), total.shape)
    best = float(total[b, c])
    if not math.isfinite(best):
        return None
    states = [int(b), int(c)]
    for step_back in reversed(back):
        states.insert(0, int(step_back[states[0], states[1]]))
    return best, tuple([int(ts[g]) for g in states]), tuple([float(xs[g]) for g in states])


def _sorted_unique(values):
    """np.unique of a float array, without the numpy.ma import that
    np.unique's first call makes."""
    import numpy as np

    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def brute_force(n: int, config: Optional[OracleConfig] = None) -> qz.SolverOutcome:
    """Exact grid search for the best n-point quantizer on S_1 .. S_max_index.

    A state is a constraint index t and an abscissa x on that constraint's
    coarse grid; states are ordered by (t, x).  A dynamic program over
    consecutive pairs of states finds the cheapest valid n-tuple, exactly
    the minimum an enumeration of every tuple would find.  Each of the
    refine_rounds halves the step and runs the same program on windows of
    +-2 steps around the incumbent's points, pooled per constraint.
    Exact ties break by state order in every pass: the last two points are
    the first minimal pair, and each earlier point is the first minimal
    predecessor of the pair after it, so the outcome is deterministic.
    iterations counts grid passes (1 coarse + refine_rounds); converged is
    always True.  The incumbent's distortion is recomputed through the
    quantizer module.  n is capped at _FULL_SEARCH_MAX_N = 6.
    """
    import numpy as np

    _check_int("n", n)
    if n > _FULL_SEARCH_MAX_N:
        raise ValueError(
            f"n must be <= {_FULL_SEARCH_MAX_N} for exhaustive search, got {n}"
        )
    cfg = config if config is not None else OracleConfig()
    max_index = cfg.max_index if cfg.max_index is not None else n
    if max_index > n:
        raise ValueError(
            f"max_index {max_index} exceeds the feasible family size {n}"
        )
    step = cfg.grid_step
    bounds = {}
    for j in range(1, max_index + 1):
        lo, hi = feasible_foot_range(j)
        # the widening stays on S_j, whose domain [-1/j, 1] it leaves once
        # step > 1/(2j); -1.0 / j rounds below -1/j at j = 5
        floor = -1.0 / j
        if floor < -Fraction(1, j):
            floor = math.nextafter(floor, 0.0)
        bounds[j] = (max(lo - step, floor), min(hi + step, 1.0))
    # the grid lengths np.arange will give, ceil((stop - start) / step), counted
    # before anything is allocated; a subnormal step makes them infinite
    sizes = [(hi + step / 2 - lo) / step for lo, hi in bounds.values()]
    if sum(sizes) > _MAX_GRID_STATES or sum(map(math.ceil, sizes)) > _MAX_GRID_STATES:
        raise ValueError(
            f"grid_step must be coarse enough for at most {_MAX_GRID_STATES} "
            f"grid states on S_1 .. S_{max_index}, got {step!r}"
        )
    # np.arange may overshoot hi by up to step / 2; the last state stays on S_j
    coarse = {
        j: np.minimum(np.arange(lo, hi + step / 2, step), 1.0)
        for j, (lo, hi) in bounds.items()
    }

    best = _grid_minimum(n, coarse)
    if best is None:
        raise RuntimeError("no valid candidate on the coarse grid")

    _, ts, positions = best
    for _ in range(cfg.refine_rounds):
        step /= 2
        # +-2 half steps around each incumbent point, pooled per constraint;
        # the incumbent is among the states, so a round never gets worse
        windows = {t: [] for t in sorted(set(ts))}
        for t, x in zip(ts, positions):
            windows[t].append(np.clip(x + step * np.arange(-2.0, 3.0), *bounds[t]))
        grids = {t: _sorted_unique(np.concatenate(w)) for t, w in windows.items()}
        _, ts, positions = _grid_minimum(n, grids)

    q = qz.Quantizer(tuple([ConstraintPoint(t, x) for t, x in zip(ts, positions)]))
    return qz.SolverOutcome(
        quantizer=q,
        distortion=qz.distortion(q),
        iterations=1 + cfg.refine_rounds,
        converged=True,
    )


def _midpoints_below(s: float, panels: int) -> int:
    """How many of the float midpoints (i + 0.5) / panels lie below s.

    This is the index np.searchsorted(midpoints, s) returns.
    The estimate ceil(s panels - 0.5) is off by rounding; the fix-up compares
    the float midpoints themselves, whose numerators i + 0.5 are exact for
    panels <= 2**52.
    """
    if not s > 0.0:
        return 0
    if s >= 1.0:
        return panels
    i = math.ceil(s * panels - 0.5)
    while i > 0 and (i - 0.5) / panels >= s:
        i -= 1
    while i < panels and (i + 0.5) / panels < s:
        i += 1
    return i


def riemann_distortion(q: "qz.Quantizer", panels: int = 100_000) -> float:
    """Midpoint-rule integral of the min squared distance to the quantizer.

    Point k, embedded at (a_k, y_k), contributes |(u, 0) - (a_k, y_k)|^2 =
    u^2 + c_k - 2 a_k u with c_k = a_k^2 + y_k^2, so the nearest point at u is
    the lowest of the lines c_k - 2 a_k u.  Their lower envelope (the 1-D
    squared distance transform of Felzenszwalb and Huttenlocher, Theory of
    Computing 8, 2012) is one scan over the points sorted by abscissa.  Each
    envelope segment holds a run of k consecutive panel midpoints centred at
    c, whose midpoint sum is exactly k ((c - a)^2 + y^2) + k (k^2 - 1) /
    (12 panels^2); the runs are summed in integers and rounded once.  So a
    call takes O(n log n) time and O(n) memory whatever panels is, and loads
    no numpy.  The envelope uses the plane coordinates alone, from the
    geometry._plane pairs that embed is built on, and shares no code with the
    Voronoi partition of the quantizer module, so this stays an independent
    cross-check of distortion().  The runs end where the float
    midpoints pass the float envelope starts, so a midpoint within rounding
    of a crossing may count for the farther point, which can move the result
    in the last bit.  panels is capped at 2**52, the largest count whose
    midpoint numerators i + 0.5 are all exact floats.
    """
    _check_int("panels", panels, maximum=_RIEMANN_MAX_PANELS)
    # (start, a, y, c) of each envelope line by increasing a; a line is the
    # lowest from its start to the next line's
    hull: list[tuple[float, float, float, float]] = []
    for a, y in sorted((float(x), float(y)) for x, y in map(_plane, q.points)):
        if hull and a == hull[-1][1]:
            # nowhere nearest: above the point with this abscissa that the
            # sort put first (y = x + 1/j >= 0)
            continue
        c = a * a + y * y
        while hull:
            s0, a0, _, c0 = hull[-1]
            start = (c - c0) / (2 * (a - a0))
            if start > s0:
                break
            hull.pop()
        else:
            start = -math.inf
        hull.append((start, a, y, c))
    edges = [*(_midpoints_below(h[0], panels) for h in hull), panels]
    # over a common power-of-two denominator d of the coordinates every
    # segment's sum is an exact integer, so the result is rounded once
    d = 1
    ratios = []
    for _, a, y, _ in hull:
        na, da = a.as_integer_ratio()
        ny, dy = y.as_integer_ratio()
        ratios.append((na, da, ny, dy))
        d = max(d, da, dy)
    offsets = heights = cubes = 0
    for (na, da, ny, dy), lo, hi in zip(ratios, edges, edges[1:]):
        k = hi - lo
        # 2 panels d (c - a) and d y, for the run's centre c = (lo + hi) / (2 panels)
        u = (lo + hi) * d - 2 * panels * na * (d // da)
        v = ny * (d // dy)
        offsets += k * u * u
        heights += k * v * v
        cubes += k * k * k - k
    total = 3 * offsets + 12 * panels * panels * heights + cubes * d * d
    return total / (12 * panels**3 * d * d)
