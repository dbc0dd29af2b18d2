"""Independent checks: exact grid search and direct Riemann integration.

brute_force knows nothing about the closed forms or the fixed-point solver.
It puts each of the n points on any constraint index and on a grid over that
constraint's feasible abscissa range (widened by one grid step on each side),
finds the exact minimum over all such placements by a dynamic program over
consecutive pairs of grid states (J. D. Bruce, "Optimum quantization", 1965;
X. Wu, "Optimal quantization by matrix searching", 1991), then locally
refines around the incumbent with halved steps.  riemann_distortion
integrates the pointwise min squared distance with a midpoint rule, sharing
no partition logic with the quantizer module.  Both exist to confirm the
rest of the package, so neither uses a closed form or the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

# numpy is imported inside the search functions, so that `import segquant`
# does not pay its start-up cost
from . import quantizer as qz
from .geometry import ConstraintPoint, _check_int, embed, feasible_foot_range

_FULL_SEARCH_MAX_N = 3
# riemann_distortion holds two float64 arrays of `panels` entries (midpoints
# and running minima) plus one temporary of that size: 80 MB each at 10**7
# panels, a 240 MB peak (tracemalloc reads 24 MB at 10**6)
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
        if not (math.isfinite(self.grid_step) and self.grid_step > 0):
            raise ValueError(f"grid_step must be positive, got {self.grid_step!r}")
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


def _grid_distortions(ts: Sequence[int], xs: list[np.ndarray]) -> np.ndarray:
    """Distortion of each candidate tuple; +inf where the candidate is invalid.

    Candidate i places point k at abscissa xs[k][i] on constraint S_{ts[k]}.
    Valid candidates have strictly increasing feet and strictly interior,
    strictly increasing Voronoi breakpoints (anything else leaves some point
    with an empty cell).  Per-cell values use the exact quadratic integral.
    """
    import numpy as np

    n = len(ts)
    invs = [1.0 / t for t in ts]
    ys = [x + inv for x, inv in zip(xs, invs)]
    with np.errstate(divide="ignore", invalid="ignore"):
        feet = [2.0 * x + inv for x, inv in zip(xs, invs)]
        valid = np.ones(xs[0].shape, dtype=bool)
        for i in range(n - 1):
            valid &= feet[i] < feet[i + 1]
        # Voronoi cuts between consecutive embedded points, then cells
        # [0, c_0], [c_0, c_1], ..., [c_{n-2}, 1].
        cuts: list[np.ndarray] = []
        for i in range(n - 1):
            c = _cut(xs[i], ys[i], xs[i + 1], ys[i + 1])
            valid &= np.isfinite(c) & (c > 0.0) & (c < 1.0)
            if cuts:
                valid &= cuts[-1] < c
            cuts.append(c)
        lows = [0.0] + cuts
        highs = cuts + [1.0]
        total = np.zeros(xs[0].shape)
        for i in range(n):
            total += _cell(lows[i], highs[i], xs[i], ys[i])
        total = np.where(valid, total, np.inf)
    return total


def _best_on_grids(
    ts: Sequence[int], grids: list[np.ndarray]
) -> Optional[tuple[float, tuple[float, ...]]]:
    """Cheapest valid candidate on the position grids, ties to lower abscissas."""
    import numpy as np

    mesh = np.meshgrid(*grids, indexing="ij")
    xs = [m.reshape(-1) for m in mesh]
    values = _grid_distortions(ts, xs)
    k = int(np.argmin(values))
    if not math.isfinite(values[k]):
        return None
    return float(values[k]), tuple([float(x[k]) for x in xs])


def _coarse_minimum(
    n: int, grids: dict[int, np.ndarray]
) -> Optional[tuple[float, tuple[int, ...], tuple[float, ...]]]:
    """Cheapest valid n-tuple of states, by dynamic programming.

    A state is a constraint index t with an abscissa on grids[t]; states are
    ordered by (t, x).  Every validity test involves consecutive pairs
    (ordered feet, a finite cut inside (0, 1)) or triples (ordered cuts), so
    value[b, c] holds the least cost of the cells so far over valid prefixes
    ending in states b, c.  Cells are added in order, as in _grid_distortions,
    so the minimum is the same float an enumeration of every tuple finds.
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
    the minimum an enumeration of every tuple would find.  Exact ties break
    by state order: the last two points are the first minimal pair, and
    each earlier point is the first minimal predecessor of the pair after
    it, so the outcome is deterministic.  iterations counts grid passes
    (1 coarse + refine_rounds); converged is always True.  The incumbent's
    distortion is recomputed through the quantizer module.
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

    best = _coarse_minimum(n, coarse)
    if best is None:
        raise RuntimeError("no valid candidate on the coarse grid")

    value, ts, positions = best
    for _ in range(cfg.refine_rounds):
        step /= 2
        grids = []
        for t, x in zip(ts, positions):
            lo_w, hi_w = bounds[t]
            local = x + step * np.arange(-2.0, 3.0)
            grids.append(np.unique(np.clip(local, lo_w, hi_w)))
        found = _best_on_grids(ts, grids)
        if found is not None and found[0] < value:
            value, positions = found

    q = qz.Quantizer(tuple([ConstraintPoint(t, x) for t, x in zip(ts, positions)]))
    return qz.SolverOutcome(
        quantizer=q,
        distortion=qz.distortion(q),
        iterations=1 + cfg.refine_rounds,
        converged=True,
    )


def riemann_distortion(q: "qz.Quantizer", panels: int = 100_000) -> float:
    """Midpoint-rule integral of the min squared distance to the quantizer.

    Evaluates min_k |(x, 0) - embed(p_k)|^2 at panel midpoints directly; no
    Voronoi partition is involved, making this an independent cross-check of
    distortion().  panels is capped at 10**7 to bound memory.
    """
    import numpy as np

    _check_int("panels", panels, maximum=_RIEMANN_MAX_PANELS)
    mids = (np.arange(panels) + 0.5) / panels
    nearest = np.full(panels, np.inf)
    for p in q.points:
        e = embed(p)
        ax, ay = float(e.x), float(e.y)
        np.minimum(nearest, (mids - ax) ** 2 + ay * ay, out=nearest)
    return float(nearest.mean())
