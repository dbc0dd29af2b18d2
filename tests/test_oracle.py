"""Exhaustive partition search and Riemann integration as independent referees."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from segquant import (
    ConstraintPoint,
    OracleConfig,
    Quantizer,
    brute_force,
    distortion,
    embed,
    forward_map,
    optimal_points,
    oracle,
    riemann_distortion,
    solve_fixed_constraint,
    vn,
)
from segquant.measure import SupportInterval, cell_distortion, optimal_interval_distortion
from segquant.oracle import (
    _FULL_SEARCH_MAX_N,
    _RIEMANN_MAX_PANELS,
    _cheapest_predecessors,
    _midpoints_below,
    _partition_minimum,
)
from conftest import count_plane_calls

# discretization tolerances: the final resolution of the fixed grid is
# grid_step / 2**refine_rounds = 1.25e-3, and the distortion is locally
# quadratic around the optimum
ABSCISSA_TOL = 2.5e-3
DISTORTION_TOL = 1e-5
_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
GOLDEN = Path(__file__).parent / "golden"


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(max_index=0)


def test_oracle_config_sets_only_max_index():
    # the grid is fixed: its step and rounds are class constants, not fields
    assert [f.name for f in dataclasses.fields(OracleConfig)] == ["max_index"]
    assert OracleConfig().grid_step == 1e-2
    assert OracleConfig().refine_rounds == 3
    with pytest.raises(TypeError):
        OracleConfig(grid_step=0.02)
    with pytest.raises(TypeError):
        OracleConfig(refine_rounds=4)


# ----------------------------------------------------------------- riemann


def test_riemann_single_panel():
    # one midpoint at x = 1/2 against the point embedded at (-1/4, 3/4)
    q = Quantizer((ConstraintPoint(1, -0.25),))
    assert riemann_distortion(q, panels=1) == 1.125


def test_riemann_validation():
    q = optimal_points(1)
    for bad in (0, -5, 2.5, True):
        with pytest.raises(ValueError):
            riemann_distortion(q, panels=bad)


def test_riemann_refuses_panels_above_the_cap():
    q = optimal_points(1)
    with pytest.raises(ValueError):
        riemann_distortion(q, panels=_RIEMANN_MAX_PANELS + 1)
    # at the cap (2**52) the midpoint rule is exact to the last bit: within
    # 4 ulp of distortion evaluated exactly on the same abscissas.  The float
    # distortion is itself up to 5 ulp off that integral (n = 198)
    mixed = Quantizer((ConstraintPoint(2, -0.2), ConstraintPoint(3, 0.2)))
    for q in (*map(optimal_points, range(1, 257)), mixed):
        rational = Quantizer(tuple(ConstraintPoint(p.j, F(p.x)) for p in q.points))
        exact = float(distortion(rational))
        assert _within_4_ulp(riemann_distortion(q, _RIEMANN_MAX_PANELS), exact)


@given(panels=st.integers(1, 10**4), data=st.data())
def test_midpoints_below_is_the_searchsorted_index(panels, data):
    mids = (np.arange(panels) + 0.5) / panels
    i = data.draw(st.integers(0, panels - 1))
    for s in (
        data.draw(st.floats(-0.5, 1.5)),
        mids[i],
        math.nextafter(mids[i], -math.inf),
        math.nextafter(mids[i], math.inf),
        -math.inf,
    ):
        assert _midpoints_below(float(s), panels) == np.searchsorted(mids, s)


def _direct_riemann(q: Quantizer, panels: int = 100_000) -> float:
    """Referee: every point evaluated at every panel midpoint."""
    mids = (np.arange(panels) + 0.5) / panels
    nearest = np.full(panels, np.inf)
    for p in q.points:
        e = embed(p)
        ax, ay = float(e.x), float(e.y)
        np.minimum(nearest, (mids - ax) ** 2 + ay * ay, out=nearest)
    return float(nearest.mean())


def _exact_riemann(q: Quantizer, panels: int) -> float:
    """Referee: the midpoint sum in rationals, at the exact midpoints
    (2i + 1) / (2 panels) against the float plane coordinates, rounded once.

    Only the points within 1e-9 of the float minimum are compared exactly.
    """
    planar = [(float(e.x), float(e.y)) for e in map(embed, q.points)]
    total = F(0)
    for i in range(panels):
        u = (i + 0.5) / panels
        values = [(u - a) ** 2 + y * y for a, y in planar]
        cutoff = min(values) * (1 + 1e-9)
        m = F(2 * i + 1, 2 * panels)
        total += min(
            (m - F(a)) ** 2 + F(y) ** 2
            for (a, y), v in zip(planar, values)
            if v <= cutoff
        )
    return float(total / panels)


def _within_4_ulp(got: float, want: float) -> bool:
    # a midpoint within rounding of an envelope crossing may count for the
    # farther point, and the direct loop's float sum rounds at every panel
    return abs(got - want) <= 4 * math.ulp(want)


@st.composite
def float_quantizers(draw) -> Quantizer:
    """1 to 64 float points on one constraint or on several.

    Mixed draws give points that are nowhere nearest, and reuse earlier
    abscissas on other constraints, so that equal abscissas occur.
    """
    n = draw(st.integers(1, 64))
    same = draw(st.booleans())
    t = draw(st.integers(1, 64))
    points: dict[float, ConstraintPoint] = {}
    xs: list[float] = []
    for _ in range(n):
        j = t if same else draw(st.integers(1, 64))
        lo = -1 / j
        if lo < -F(1, j):
            lo = math.nextafter(lo, 0.0)
        if xs and not same and draw(st.booleans()):
            x = max(draw(st.sampled_from(xs)), lo)
        else:
            x = draw(st.floats(lo, 1.0))
        xs.append(x)
        p = ConstraintPoint(j, x)
        points[forward_map(p)] = p
    return Quantizer(tuple(points[f] for f in sorted(points)))


@settings(deadline=None)
@given(q=float_quantizers(), panels=st.integers(1, 10**4))
def test_riemann_matches_the_direct_loop(q, panels):
    assert _within_4_ulp(riemann_distortion(q, panels), _direct_riemann(q, panels))


@settings(deadline=None)
@given(q=float_quantizers(), panels=st.integers(1, 1000))
def test_riemann_matches_the_exact_rational_sum(q, panels):
    assert _within_4_ulp(riemann_distortion(q, panels), _exact_riemann(q, panels))


def test_riemann_equals_the_direct_loop_on_jittered_quantizers():
    # the benchmark's quantizers: 64 jittered points on one constraint
    rng = np.random.default_rng(41)
    for _ in range(100):
        t = int(rng.integers(1, 65))
        jitter = rng.uniform(-0.4, 0.4, size=64)
        xs = [((j + 0.5 + d) / 64 - 1 / t) / 2 for j, d in enumerate(jitter)]
        q = Quantizer(tuple(ConstraintPoint(t, float(x)) for x in xs))
        assert _within_4_ulp(riemann_distortion(q), _direct_riemann(q))


def test_riemann_drops_the_farther_of_two_equal_abscissas():
    near, far = ConstraintPoint(2, 0.25), ConstraintPoint(1, 0.25)
    q = Quantizer((near, far))
    for panels in (1, 10, 10**5):
        got = riemann_distortion(q, panels)
        assert got == riemann_distortion(Quantizer((near,)), panels)
        assert _within_4_ulp(got, _direct_riemann(q, panels))


def test_riemann_ignores_a_point_that_is_nowhere_nearest():
    # (1/4, 5/4) on S_1 is farther from the axis than the two S_8 points
    # are from any u in [0, 1]
    left, right = ConstraintPoint(8, 0.0), ConstraintPoint(8, 0.5)
    q = Quantizer((left, right, ConstraintPoint(1, 0.25)))
    for panels in (1, 10, 10**5):
        got = riemann_distortion(q, panels)
        assert got == riemann_distortion(Quantizer((left, right)), panels)
        assert got == _direct_riemann(q, panels)


def test_riemann_one_point():
    for j, x in ((1, -1.0), (5, 0.1), (2, 1.0)):
        q = Quantizer((ConstraintPoint(j, x),))
        for panels in (1, 7, 10**5):
            assert _within_4_ulp(riemann_distortion(q, panels), _direct_riemann(q, panels))


def test_riemann_on_fraction_abscissas():
    q = Quantizer((ConstraintPoint(3, F(-1, 12)), ConstraintPoint(3, F(1, 4))))
    assert _within_4_ulp(riemann_distortion(q), _direct_riemann(q))
    assert abs(riemann_distortion(q) - float(distortion(q))) <= 1e-10


def test_riemann_embeds_each_point_once(monkeypatch):
    calls = count_plane_calls(monkeypatch, oracle)
    for n in (1, 2, 64):
        q = optimal_points(n)
        calls.clear()
        riemann_distortion(q)
        assert calls == list(q.points)


def test_riemann_memory_does_not_grow_with_panels():
    # only the integer sums grow with panels, by a few bytes per point; an
    # array of 10**6 midpoints would be 7.6 MiB
    for n in (1, 64):
        q = optimal_points(n)
        peaks = []
        for panels in (1, 10**6, _RIEMANN_MAX_PANELS):
            tracemalloc.start()
            try:
                riemann_distortion(q, panels)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) - min(peaks) < 4096, peaks


def test_riemann_never_imports_numpy():
    code = textwrap.dedent(
        """
        import sys
        from segquant import ConstraintPoint, Quantizer, optimal_points, riemann_distortion
        riemann_distortion(optimal_points(64))
        riemann_distortion(optimal_points(3), 2**52)
        riemann_distortion(Quantizer((ConstraintPoint(2, -0.2), ConstraintPoint(3, 0.2))), 7)
        assert "numpy" not in sys.modules, "riemann_distortion imported numpy"
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_ENV
    )
    assert proc.returncode == 0, proc.stderr


def test_riemann_matches_exact_distortion():
    for n in (1, 2, 5):
        q = optimal_points(n)
        exact = distortion(q)
        assert abs(riemann_distortion(q, panels=10**4) - exact) <= 1e-8
        assert abs(riemann_distortion(q) - exact) <= 1e-10


def test_riemann_error_shrinks_with_panels():
    q = optimal_points(3)
    exact = distortion(q)
    coarse = abs(riemann_distortion(q, panels=10**2) - exact)
    fine = abs(riemann_distortion(q, panels=10**4) - exact)
    assert fine < coarse


def test_riemann_on_mixed_constraint_quantizer():
    # independent of any partition logic, so mixed indices are fine
    q = Quantizer((ConstraintPoint(2, -0.2), ConstraintPoint(3, 0.2)))
    assert abs(riemann_distortion(q) - distortion(q)) <= 1e-10


# ------------------------------------------------------------- brute force


def test_brute_force_puts_all_points_on_the_top_constraint():
    for n in range(1, _FULL_SEARCH_MAX_N + 1):
        out = brute_force(n)
        assert all(p.j == n for p in out.quantizer.points)
        exact = [float(F(2 * j - 3, 4 * n)) for j in range(1, n + 1)]
        worst = max(abs(p.x - e) for p, e in zip(out.quantizer.points, exact))
        assert worst <= ABSCISSA_TOL
        assert abs(out.distortion - vn(n)) <= DISTORTION_TOL
        assert out.iterations == 1 + 3


def test_brute_force_never_beats_the_closed_form():
    for n in range(1, _FULL_SEARCH_MAX_N + 1):
        assert brute_force(n).distortion >= vn(n) - 1e-12


def test_brute_force_restricted_family():
    # confined to S_1, two points land at the S_1 optimum (value 113/96)
    out = brute_force(2, OracleConfig(max_index=1))
    assert all(p.j == 1 for p in out.quantizer.points)
    reference = solve_fixed_constraint(2, 1)
    assert abs(out.distortion - reference.distortion) <= DISTORTION_TOL
    assert out.distortion >= reference.distortion - 1e-12


def test_brute_force_full_family_equals_explicit_cap():
    default = brute_force(2)
    capped = brute_force(2, OracleConfig(max_index=2))
    assert default.quantizer == capped.quantizer
    assert default.distortion == capped.distortion


def test_brute_force_is_deterministic():
    a = brute_force(2)
    b = brute_force(2)
    assert a.quantizer == b.quantizer
    assert a.distortion == b.distortion


def test_brute_force_limits():
    with pytest.raises(ValueError, match=r"^n must be an integer in \[1, 6\], got 7$"):
        brute_force(7)
    with pytest.raises(ValueError):
        brute_force(0)
    with pytest.raises(ValueError, match=r"^max_index must be an integer in \[1, 2\], got 3$"):
        brute_force(2, OracleConfig(max_index=3))


def _float_literal_cell(lo, hi, a, y):
    # the cell integral with float literals, as the search writes it out:
    # measure.cell_distortion's int literals must give the same bits
    poly = lo * lo + lo * hi + hi * hi - 3.0 * a * (lo + hi) + 3.0 * (a * a + y * y)
    return (hi - lo) * poly / 3.0


@settings(deadline=None)
@given(size=st.integers(1, 6), data=st.data())
def test_cell_distortion_is_the_float_literal_formula_bit_for_bit(size, data):
    # nan and inf included
    column = st.lists(st.floats(), min_size=size, max_size=size).map(np.array)
    lo, hi, a, y = (data.draw(column) for _ in range(4))
    # a numpy table of edge pairs with its vertex abscissas, and the float
    # edges of one cell
    table = np.broadcast_to(a[:, None], (size, size)), np.broadcast_to(y[None, :], (size, size))
    cases = [
        (lo[:, None], hi[None, :], *table),
        (float(lo[0]), float(hi[0]), float(a[0]), float(y[0])),
    ]
    with np.errstate(all="ignore"):
        for args in cases:
            got, want = cell_distortion(*args), _float_literal_cell(*args)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _cell_price(lo: float, hi: float, max_index: int) -> float:
    """Referee: the least cell integral over the vertex points
    x = (lo + hi)/4 - 1/(2t), t = 1 .. max_index; +inf for an empty cell."""
    if not lo < hi:
        return math.inf
    prices = []
    for t in range(1, max_index + 1):
        x = (lo + hi) / 4 - 1 / (2 * t)
        prices.append(cell_distortion(lo, hi, x, x + 1 / t))
    return min(prices)


def _enumerated_minimum(layers, max_index):
    """Referee: every increasing edge tuple, one edge from each layer, priced
    cell by cell from the left.  Exact ties go by the total, then the place
    of the last interior edge on its layer, then the sum of the cells before
    that edge, then the place of the edge before it, and so on leftwards."""
    first, last = float(layers[0][0]), float(layers[-1][0])
    prices = {}
    best = None

    def extend(picks, edges):
        nonlocal best
        if len(edges) == len(layers) - 1:
            edges = [*edges, last]
            sums = [0.0]
            for cell in zip(edges, edges[1:]):
                if cell not in prices:
                    prices[cell] = _cell_price(*cell, max_index)
                sums.append(sums[-1] + prices[cell])
            key = [sums[-1]]
            for k in range(len(picks), 0, -1):
                key += [picks[k - 1], sums[k]]
            if best is None or key < best[0]:
                best = (key, edges)
            return
        for i, e in enumerate(list(layers[len(edges)])):
            if e > edges[-1]:
                extend((*picks, i), [*edges, e])

    extend((), [first])
    if best is None or best[0][0] == math.inf:
        return None
    return best[0][0], best[1]


@pytest.mark.parametrize("grid_step", [1e-2, 0.05])
def test_dynamic_program_equals_the_enumeration(grid_step):
    # brute_force's coarse layers; n = 4 on the 101-edge grid would enumerate
    # 161,700 tuples per max_index
    grid = grid_step * np.arange(int(1 / grid_step) + 1)
    for n in (1, 2, 3) if grid_step < 0.05 else (1, 2, 3, 4):
        layers = [np.zeros(1), *[grid] * (n - 1), np.ones(1)]
        for max_index in range(1, n + 1):
            # the same float value and edges
            assert _partition_minimum(layers, max_index) == _enumerated_minimum(
                layers, max_index
            ), f"n={n} max_index={max_index}"


def test_dynamic_program_equals_the_enumeration_on_random_grids():
    # irregular layers, sorted as the search requires, with repeats, some
    # with no valid tuple
    rng = np.random.default_rng(7)
    valid = 0
    for _ in range(300):
        n = int(rng.integers(1, 5))
        max_index = int(rng.integers(1, n + 1))
        inner = [
            np.sort(np.round(rng.uniform(0.0, 1.0, size=int(rng.integers(1, 7))), 1))
            for _ in range(n - 1)
        ]
        layers = [np.zeros(1), *inner, np.ones(1)]
        best = _partition_minimum(layers, max_index)
        assert best == _enumerated_minimum(layers, max_index), layers
        valid += best is not None
    assert valid >= 100


def test_partition_minimum_refuses_an_unsorted_layer():
    # the column minima assume non-decreasing layers; on unsorted ones they
    # can miss the minimum
    with pytest.raises(ValueError, match=r"^layer 1 must be non-decreasing$"):
        _partition_minimum([[0.0], [0.5, 0.2], [1.0]], 2)
    with pytest.raises(ValueError, match=r"^layer 2 must be non-decreasing$"):
        _partition_minimum([[0.0], [0.2, 0.2], [0.9, 0.5, 0.7], [1.0]], 1)


def test_dynamic_program_equals_the_enumeration_on_refinement_windows():
    # brute_force's refinement layers: +-2 half steps around each edge of a
    # random increasing partition, clipped to [0, 1], so that windows meet
    # the ends and each other
    rng = np.random.default_rng(11)
    valid = 0
    for _ in range(300):
        n = int(rng.integers(1, 5))
        max_index = int(rng.integers(1, n + 1))
        half = float(rng.uniform(0.005, 0.1))
        edges = np.sort(rng.uniform(0.0, 1.0, size=n - 1))
        window = half * np.arange(-2.0, 3.0)
        inner = [np.clip(e + window, 0.0, 1.0) for e in edges]
        layers = [np.zeros(1), *inner, np.ones(1)]
        best = _partition_minimum(layers, max_index)
        assert best == _enumerated_minimum(layers, max_index), layers
        valid += best is not None
    assert valid >= 100


@settings(deadline=None)
@given(
    ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    max_index=st.integers(1, 64),
)
def test_cell_price_is_the_optimal_interval_distortion(ends, max_index):
    # the search's price of one cell is the least distortion of a point of
    # S_1 .. S_max_index, to 16 ulp, and the cheapest index is the largest;
    # 7 ulp was the worst of 45,000 drawn cells
    lo, hi = ends
    assume(hi - lo >= 1e-6)
    value, edges = _partition_minimum([np.array([lo]), np.array([hi])], max_index)
    assert edges == [lo, hi]
    want = optimal_interval_distortion(SupportInterval(lo, hi), max_index)
    assert abs(value - want) <= 16 * math.ulp(want)
    costs = [oracle._vertex(lo, hi, t)[1] for t in range(1, max_index + 1)]
    assert costs.index(min(costs)) + 1 == max_index


def test_brute_force_refines_on_the_incumbents_windows(monkeypatch):
    # every refinement round searches edges around the previous incumbent,
    # which stays among them, and the enumeration agrees with the result
    calls = []

    def spy(layers, max_index):
        found = _partition_minimum(layers, max_index)
        calls.append((layers, max_index, found))
        return found

    monkeypatch.setattr(oracle, "_partition_minimum", spy)
    for n in (1, 2, 3, 4):
        calls.clear()
        brute_force(n)
        assert len(calls) == 1 + 3
        for (_, _, before), (layers, max_index, after) in zip(calls, calls[1:]):
            assert all(e in layer for e, layer in zip(before[1], layers))
            assert after[0] <= before[0]
            assert after == _enumerated_minimum(layers, max_index)


def test_brute_force_prices_at_most_a_quarter_of_the_full_table(monkeypatch):
    # divide and conquer prices O(G log G) pairs per layer and constraint;
    # one full table of the G = 100 coarse edges holds G x G x n (cell, t)
    # pairs, and the whole search may price at most a quarter of that
    priced = []

    def spy(value, lows, hi, shifts, firsts, lasts):
        priced.append(
            sum(lows[a] < hi for a0, a1 in zip(firsts, lasts) for a in range(a0, a1 + 1))
        )
        return real(value, lows, hi, shifts, firsts, lasts)

    real = oracle._cheapest_predecessors
    monkeypatch.setattr(oracle, "_cheapest_predecessors", spy)
    for n in (3, 6):
        priced.clear()
        brute_force(n)
        assert 0 < sum(priced) <= 100 * 100 * n / 4, (n, sum(priced))


@settings(deadline=None)
@given(
    cell=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    value=st.floats(0.0, 8.0),
    max_index=st.integers(1, 64),
)
def test_search_price_is_the_vertex_cost_bit_for_bit(cell, value, max_index):
    # the inlined price of [lo, hi] on S_t, after the path's value, is
    # value + cell_distortion at _vertex's abscissa, to the bit, for every t;
    # an empty cell is never priced
    lo, hi = cell
    shifts = [(1 / (2 * t), 1 / t) for t in range(1, max_index + 1)]
    rows = [0] * max_index
    found = _cheapest_predecessors([value], [lo], hi, shifts, rows, rows)
    for t, (cost, a) in enumerate(found, 1):
        assert a == 0
        if lo < hi:
            assert cost.hex() == (value + oracle._vertex(lo, hi, t)[1]).hex()
        else:
            assert cost == math.inf


def test_brute_force_distortion_is_at_most_the_partition_value(monkeypatch):
    # the points' own Voronoi cells serve them at least as well as the
    # searched partition does, and nothing beats the closed form
    values = []

    def spy(layers, max_index):
        found = _partition_minimum(layers, max_index)
        values.append(found[0])
        return found

    monkeypatch.setattr(oracle, "_partition_minimum", spy)
    for n in range(1, _FULL_SEARCH_MAX_N + 1):
        out = brute_force(n)
        assert vn(n) - 1e-12 <= out.distortion <= values[-1] + 4 * math.ulp(values[-1])


def test_brute_force_restricted_families_pick_their_top_constraint():
    # confined to S_1 .. S_m, every point lands on S_m: a higher-index
    # constraint always wins.  The fixed grid holds n <= 6 nonempty cells, and
    # vertex points lie inside their constraint's domain [-1/j, 1].
    # On S_m the squared distance from (u, 0) to the point with foot phi is
    # ((u - phi)^2 + (u + 1/m)^2) / 2, so n points on S_m cost at least
    # 1/6 + 1/(2m) + 1/(2m^2), from the second term, plus 1/(24 n^2), the
    # first term at equispaced feet; at m = n this is V_n
    for n in range(1, _FULL_SEARCH_MAX_N + 1):
        for m in range(1, n + 1):
            value = 1 / 6 + 1 / (2 * m) + 1 / (2 * m * m) + 1 / (24 * n * n)
            out = brute_force(n, OracleConfig(max_index=m))
            assert all(p.j == m for p in out.quantizer.points), (n, m)
            assert all(-F(1, p.j) <= p.x <= 1 for p in out.quantizer.points)
            assert value - 1e-15 <= out.distortion <= value + 1e-6, (n, m)
            solved = solve_fixed_constraint(n, m).distortion
            assert abs(solved - value) <= 1e-12, (n, m)


def test_brute_force_results_are_the_golden_bits():
    # every restricted family at every n, to the bit: the distortion, and
    # each point's constraint index and abscissa
    lines = []
    for n in range(1, _FULL_SEARCH_MAX_N + 1):
        for m in range(1, n + 1):
            out = brute_force(n, OracleConfig(max_index=m))
            points = " ".join(f"{p.j}:{p.x.hex()}" for p in out.quantizer.points)
            lines.append(f"n={n} m={m} distortion={out.distortion.hex()} points={points}")
    assert "\n".join(lines) + "\n" == (GOLDEN / "brute_force_pairs.txt").read_text()


def test_brute_force_does_not_import_numpy():
    # the search runs on lists: a fresh import of numpy takes about 60 ms
    code = textwrap.dedent(
        """
        import sys
        from segquant import brute_force
        brute_force(6)
        assert "numpy" not in sys.modules, "brute_force imported numpy"
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_ENV
    )
    assert proc.returncode == 0, proc.stderr


def test_brute_force_never_holds_a_cube_of_states():
    # the point enumeration peaked at 20.6 MiB for n = 3 and the pair-state
    # program at about 1.3 MiB; the edge search holds a few 100-edge lists
    # per layer
    tracemalloc.start()
    try:
        brute_force(3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
