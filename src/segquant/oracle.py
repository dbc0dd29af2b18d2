"""Independent checks: exact partition search and midpoint Riemann integration.

brute_force searches cells, not points.  The least distortion over
quantizers equals the least, over partitions of [0, 1], of the summed cost
of each cell's best point (S. Graf and H. Luschgy, Foundations of
Quantization for Probability Distributions, LNM 1730, 2000).  A layered
dynamic program over cell edges on a grid finds that minimum exactly (J. D.
Bruce, "Optimum quantization", 1965; X. Wu, "Optimal quantization by matrix
searching", 1991), and refinement rounds rerun it on halved-step windows
around the incumbent's edges.  On each constraint a layer's cost matrix is
Monge, so the program takes its column minima by divide and conquer, on
plain Python lists: the search loads no numpy.  Cells are priced by
measure.cell_distortion's expression, the exact integral that
quantizer.distortion sums too, and riemann_distortion, which never calls it,
stays its referee.
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
from bisect import bisect_left
from dataclasses import dataclass
from typing import ClassVar, Optional

from . import quantizer as qz
from .geometry import ConstraintPoint, _check_int, _plane
from .measure import cell_distortion

# the grid at n = 6 takes about 6 ms on 2 vCPUs, Python 3.11
_FULL_SEARCH_MAX_N = 6
# riemann_distortion holds O(n) floats whatever panels is; up to 2**52 every
# midpoint numerator i + 0.5 is an exact float, so _midpoints_below ends
_RIEMANN_MAX_PANELS = 2**52


@dataclass(frozen=True)
class OracleConfig:
    """Grid search settings.

    max_index=None searches S_1 .. S_n; smaller values restrict the family.
    The grid is fixed: grid_step spaces the cell edges of the coarse pass,
    and refine_rounds local passes halve it around the incumbent, so the
    final resolution is grid_step / 2**refine_rounds = 1.25e-3.  Both are
    class constants, not fields.
    """

    grid_step: ClassVar[float] = 1e-2
    refine_rounds: ClassVar[int] = 3
    max_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_index is not None:
            _check_int("max_index", self.max_index)


def _vertex(lo, hi, t: int):
    """(x, cost) of the cheapest point on S_t for the cell [lo, hi]: the
    vertex x = (lo + hi)/4 - 1/(2t) of the cell integral, a quadratic in x
    (calculus, not a result of the paper).  Its foot is the cell's midpoint,
    and it lies inside S_t's domain [-1/t, 1]."""
    x = (lo + hi) / 4 - 1 / (2 * t)
    return x, cell_distortion(lo, hi, x, x + 1 / t)


def _cheapest_predecessors(value, lows, hi: float, shifts, firsts, lasts) -> list:
    """For each t = 1 .. len(shifts), the pair (cost, a) of the least
    value[a] + the vertex cost on S_t of the cell [lows[a], hi], over
    firsts[t - 1] <= a <= lasts[t - 1] with lows[a] < hi, at its first
    minimal a; (+inf, firsts[t - 1]) when there is none.  shifts[t - 1] is
    (1/(2t), 1/t).  lows is non-decreasing, so the valid a are a prefix.
    The cost is _vertex's, with cell_distortion's expression written out in
    the same order, so the floats are the same; its literals are floats,
    which saves an int conversion per operation."""
    hh = hi * hi
    found = []
    for (half, inv), a0, a1 in zip(shifts, firsts, lasts):
        best, arg = math.inf, a0
        for a in range(a0, bisect_left(lows, hi, a0, a1 + 1)):
            lo = lows[a]
            s = lo + hi
            x = s / 4.0 - half
            y = x + inv
            cost = value[a] + (hi - lo) * (
                lo * lo + lo * hi + hh - 3.0 * x * s + 3.0 * (x * x + y * y)
            ) / 3.0
            if cost < best:
                best, arg = cost, a
        found.append((best, arg))
    return found


def _column_minima(value, lows, highs, max_index: int) -> list:
    """(cost, a) for each edge b of highs: the least value[a] + the vertex
    cost of [lows[a], highs[b]] over S_1 .. S_max_index and every a, at the
    first minimal a over the t that reach it.

    On S_t the vertex cost f_t(lo, hi) has d2f_t / dlo dhi = -(hi - lo)/4 <= 0,
    so value[a] + f_t(lows[a], highs[b]), +inf where lows[a] >= highs[b], is
    a Monge matrix: its first minimal a never decreases with b.  Divide and
    conquer on the middle column, with one row range per t, then prices
    O((A + B) log B) pairs per t, not A B (X. Wu, J. Algorithms 12, 1991).
    The minimum over t is taken per column, outside the search: a minimum
    of Monge matrices need not be one.
    """
    shifts = [(1 / (2 * t), 1 / t) for t in range(1, max_index + 1)]
    out = [None] * len(highs)
    # columns b0 .. b1 take their minima on S_t among the rows
    # firsts[t - 1] .. lasts[t - 1]
    stack = [(0, len(highs) - 1, [0] * max_index, [len(lows) - 1] * max_index)]
    while stack:
        b0, b1, firsts, lasts = stack.pop()
        if firsts == lasts:
            # one candidate row per t: nothing left to search
            for b in range(b0, b1 + 1):
                found = _cheapest_predecessors(value, lows, highs[b], shifts, firsts, lasts)
                out[b] = min(found)
            continue
        m = (b0 + b1) // 2
        found = _cheapest_predecessors(value, lows, highs[m], shifts, firsts, lasts)
        out[m] = min(found)
        args = [a for _, a in found]
        if b0 < m:
            stack.append((b0, m - 1, firsts, args))
        if m < b1:
            stack.append((m + 1, b1, args, lasts))
    return out


def _partition_minimum(layers, max_index: int) -> Optional[tuple[float, list[float]]]:
    """Cheapest partition whose edge k lies on layers[k], by dynamic programming.

    Every layer must be non-decreasing; the column minima rely on it.  A cell
    [lo, hi] costs the least vertex cost over S_1 .. S_max_index, and +inf
    when lo >= hi.  value_k(b) = min over t and a of value_{k-1}(a) +
    cost_t(a, b) is the least cost of the first k cells ending at edge b;
    fl(v + .) is monotone, so this is the float a table of min_t cost_t gives.
    Cells are added left to right, so the minimum is the same float an
    enumeration of every edge tuple finds, and each edge is the first
    minimal predecessor of the edge after it: the least value wins, then
    the smallest a over the t that reach it.  Returns (value, edges), or
    None when every partition has an empty cell.
    """
    for k, layer in enumerate(layers):
        if any(b < a for a, b in zip(layer, layer[1:])):
            raise ValueError(f"layer {k} must be non-decreasing")
    value = [0.0]
    back = []
    for lows, highs in zip(layers, layers[1:]):
        best = _column_minima(value, lows, highs, max_index)
        value = [v for v, _ in best]
        back.append([a for _, a in best])
    if not math.isfinite(value[0]):
        return None
    b = 0
    edges = [float(layers[-1][0])]
    for layer, a in zip(reversed(layers[:-1]), reversed(back)):
        b = a[b]
        edges.append(float(layer[b]))
    return float(value[0]), edges[::-1]


def brute_force(n: int, config: Optional[OracleConfig] = None) -> qz.SolverOutcome:
    """Exact search over cell edges for the best n-point quantizer on
    S_1 .. S_max_index.

    It assumes one fact: a cell's cheapest point on S_t is the vertex of its
    integral.  The coarse pass puts every interior edge on the 100 edges
    k grid_step, k = 0 .. 99, which always hold n <= 6 nonempty cells.  Each
    of the refine_rounds halves the step and searches +-2 steps around each
    incumbent edge, clipped to [0, 1]; the incumbent stays among them, so a
    round never gets worse.  Each cell gets its vertex point on the first
    cheapest constraint.  iterations counts passes (1 coarse +
    refine_rounds); converged is always True.  The distortion is recomputed
    through the quantizer module, over the points' own Voronoi cells.  n is
    capped at _FULL_SEARCH_MAX_N = 6.
    """
    _check_int("n", n, maximum=_FULL_SEARCH_MAX_N)
    cfg = config if config is not None else OracleConfig()
    max_index = cfg.max_index if cfg.max_index is not None else n
    _check_int("max_index", max_index, maximum=n)
    step = cfg.grid_step
    # the edges 0 .. 0.99: the float 1e-2 is just above 1/100, so 100 steps pass 1
    grid = [step * k for k in range(100)]
    best = _partition_minimum([[0.0], *[grid] * (n - 1), [1.0]], max_index)

    for _ in range(cfg.refine_rounds):
        step /= 2
        window = [step * k for k in range(-2, 3)]
        inner = [[min(max(e + w, 0.0), 1.0) for w in window] for e in best[1][1:-1]]
        best = _partition_minimum([[0.0], *inner, [1.0]], max_index)

    edges = best[1]
    points = []
    for lo, hi in zip(edges, edges[1:]):
        priced = [(_vertex(lo, hi, t), t) for t in range(1, max_index + 1)]
        (x, _), t = min(priced, key=lambda v: v[0][1])
        points.append(ConstraintPoint(t, x))
    q = qz.Quantizer(tuple(points))
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
