"""Independent checks: exact grid search and midpoint Riemann integration.

brute_force knows nothing about the closed forms or the fixed-point solver.
It puts each of the n points on any constraint index and on a grid over that
constraint's feasible abscissa range (widened by one grid step on each side)
and finds the exact minimum over all such placements by a dynamic program
over consecutive pairs of grid states (J. D. Bruce, "Optimum quantization",
1965; X. Wu, "Optimal quantization by matrix searching", 1991).  Each
refinement round runs the same program on halved-step windows around the
incumbent.  riemann_distortion integrates the pointwise min squared distance
with a midpoint rule.  It finds the nearest point at each midpoint from the
lower envelope of the n parabolas (u - a_k)^2 + y_k^2, one per embedded
point (a_k, y_k), built by one scan over the points sorted by abscissa, in
O(n log n + panels) time; it shares no partition logic with the quantizer
module.  Both exist to confirm the rest of the package, so neither uses a
closed form or the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# numpy is imported inside the search functions, so that `import segquant`
# does not pay its start-up cost
from . import quantizer as qz
from .geometry import (
    ConstraintPoint,
    _check_int,
    _check_positive_real,
    embed,
    feasible_foot_range,
)

# the default grid at n = 6 takes about 0.15 s on 2 vCPUs and a 7.1 MiB
# tracemalloc peak
_FULL_SEARCH_MAX_N = 6
# riemann_distortion holds two float64 arrays of `panels` entries (midpoints
# and nearest values), 80 MB each at 10**7 panels: tracemalloc reads a 160 MB
# peak there, and 16 MB at 10**6, for one point and for 64 alike
_RIEMANN_MAX_PANELS = 10**7
# the coarse dynamic program over G grid states holds about five G x G float64
# tables (8 MB each at G = 1000) plus one index table per point after the
# second, in O(n G^3) time: n = 3 at G = 996 takes about 1 s on 2 vCPUs and a
# 47 MiB tracemalloc peak; the default grid_step gives G = 53 n (318 at n = 6)
_MAX_GRID_STATES = 1000


class BruteForceLimitError(ValueError):
    """Exhaustive search was requested beyond its combinatorial budget."""


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
        if self.max_index is not None:
            _check_int("max_index", self.max_index)
        _check_int("refine_rounds", self.refine_rounds, minimum=0)


def _check_full_search(n: int) -> None:
    if n > _FULL_SEARCH_MAX_N:
        raise BruteForceLimitError(
            f"exhaustive search supports n <= {_FULL_SEARCH_MAX_N}, got {n}"
        )


def _cut(a0, y0, a1, y1):
    """Voronoi cut on the x-axis between the embedded points (a0, y0), (a1, y1)."""
    return (a1 * a1 + y1 * y1 - a0 * a0 - y0 * y0) / (2.0 * (a1 - a0))


def _cell(lo, hi, a, y):
    """Exact integral of |(u, 0) - (a, y)|^2 over u in [lo, hi]."""
    poly = lo * lo + lo * hi + hi * hi - 3.0 * a * (lo + hi) + 3.0 * (a * a + y * y)
    return (hi - lo) * poly / 3.0


def _grid_minimum(
    n: int, grids: dict[int, np.ndarray]
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
        values = _cell(0.0, 1.0, xs, ys)
        k = int(np.argmin(values))
        return float(values[k]), (int(ts[k]),), (float(xs[k]),)
    feet = 2.0 * xs + invs
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = _cut(xs[:, None], ys[:, None], xs[None, :], ys[None, :])
        pair = feet[:, None] < feet[None, :]
        pair &= np.isfinite(cut) & (cut > 0.0) & (cut < 1.0)
        value = np.where(pair, _cell(0.0, cut, xs[:, None], ys[:, None]), np.inf)
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
            cand = value[before, b][:, None] + _cell(lo, hi, xs[b], ys[b])
            cand = np.where(lo < hi, cand, np.inf)
            k = np.argmin(cand, axis=0)
            step_value[b, after] = cand[k, np.arange(after.size)]
            step_back[b, after] = before[k]
        value = step_value
        back.append(step_back)
    with np.errstate(invalid="ignore"):
        total = np.where(pair, value + _cell(cut, 1.0, xs[None, :], ys[None, :]), np.inf)
    b, c = np.unravel_index(int(np.argmin(total)), total.shape)
    best = float(total[b, c])
    if not math.isfinite(best):
        return None
    states = [int(b), int(c)]
    for step_back in reversed(back):
        states.insert(0, int(step_back[states[0], states[1]]))
    return best, tuple([int(ts[g]) for g in states]), tuple([float(xs[g]) for g in states])


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
    _check_full_search(n)
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
        bounds[j] = (lo - step, hi + step)
    # the grid lengths np.arange will give, ceil((stop - start) / step), counted
    # before anything is allocated; a subnormal step makes them infinite
    sizes = [(hi + step / 2 - lo) / step for lo, hi in bounds.values()]
    if sum(sizes) > _MAX_GRID_STATES or sum(map(math.ceil, sizes)) > _MAX_GRID_STATES:
        raise BruteForceLimitError(
            f"grid_step {step!r} makes more than {_MAX_GRID_STATES} grid states "
            f"on S_1 .. S_{max_index}; use a coarser grid_step"
        )
    coarse = {j: np.arange(lo, hi + step / 2, step) for j, (lo, hi) in bounds.items()}

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
        grids = {t: np.unique(np.concatenate(w)) for t, w in windows.items()}
        _, ts, positions = _grid_minimum(n, grids)

    q = qz.Quantizer(tuple([ConstraintPoint(t, x) for t, x in zip(ts, positions)]))
    return qz.SolverOutcome(
        quantizer=q,
        distortion=qz.distortion(q),
        iterations=1 + cfg.refine_rounds,
        converged=True,
    )


def riemann_distortion(q: "qz.Quantizer", panels: int = 100_000) -> float:
    """Midpoint-rule integral of the min squared distance to the quantizer.

    Point k, embedded at (a_k, y_k), contributes |(u, 0) - (a_k, y_k)|^2 =
    u^2 + c_k - 2 a_k u with c_k = a_k^2 + y_k^2, so the nearest point at u is
    the lowest of the lines c_k - 2 a_k u.  Their lower envelope (the 1-D
    squared distance transform of Felzenszwalb and Huttenlocher, Theory of
    Computing 8, 2012) is one scan over the points sorted by abscissa; each
    panel midpoint then evaluates only the point whose envelope segment holds
    it, in O(n log n + panels).  The envelope uses the plane coordinates
    alone and shares no code with the Voronoi partition of the quantizer
    module, so this stays an independent cross-check of distortion().  A
    midpoint exactly equidistant from two points may take either one's value,
    which can differ from the other's in the last bit.  panels is capped at
    10**7 to bound memory.
    """
    import numpy as np

    _check_int("panels", panels, maximum=_RIEMANN_MAX_PANELS)
    mids = (np.arange(panels) + 0.5) / panels
    # (start, a, y, c) of each envelope line by increasing a; a line is the
    # lowest from its start to the next line's
    hull: list[tuple[float, float, float, float]] = []
    for a, y in sorted((float(e.x), float(e.y)) for e in map(embed, q.points)):
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
    edges = [*np.searchsorted(mids, [h[0] for h in hull]).tolist(), panels]
    # (mids - a) ** 2 + y * y, computed in place so that no third array of
    # `panels` entries is made, not even for one point
    nearest = np.empty(panels)
    for (_, a, y, _), lo, hi in zip(hull, edges, edges[1:]):
        seg = nearest[lo:hi]
        np.subtract(mids[lo:hi], a, out=seg)
        np.square(seg, out=seg)
        seg += y * y
    return float(nearest.mean())
