"""Exhaustive grid search and Riemann integration as independent referees."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction as F
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segquant import (
    ConstraintPoint,
    OracleConfig,
    Quantizer,
    brute_force,
    distortion,
    embed,
    feasible_foot_range,
    forward_map,
    optimal_points,
    oracle,
    riemann_distortion,
    solve_fixed_constraint,
    vn,
)
from segquant.measure import cell_distortion
from segquant.oracle import (
    _FULL_SEARCH_MAX_N,
    _MAX_GRID_STATES,
    _RIEMANN_MAX_PANELS,
    _cut,
    _grid_minimum,
    _midpoints_below,
)
from conftest import count_plane_calls, random_feet, random_same_constraint_quantizer

# discretization tolerances: the final grid resolution with defaults is
# grid_step / 2**refine_rounds = 1.25e-3, and the distortion is locally
# quadratic around the optimum
ABSCISSA_TOL = 2.5e-3
DISTORTION_TOL = 1e-5
_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_step=0.0)
    with pytest.raises(ValueError):
        OracleConfig(grid_step=float("inf"))
    with pytest.raises(ValueError):
        OracleConfig(max_index=0)
    with pytest.raises(ValueError):
        OracleConfig(refine_rounds=-1)


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


def test_brute_force_single_point_fine_grid():
    out = brute_force(1, OracleConfig(grid_step=1e-3, refine_rounds=0))
    p = out.quantizer.points[0]
    assert p.j == 1
    assert abs(p.x - (-0.25)) <= 2e-3
    assert abs(out.distortion - float(F(29, 24))) <= 1e-5
    assert out.iterations == 1
    assert out.converged


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
    with pytest.raises(
        ValueError, match=r"^n must be <= 6 for exhaustive search, got 7$"
    ):
        brute_force(7)
    with pytest.raises(ValueError):
        brute_force(0)
    with pytest.raises(ValueError):
        brute_force(2, OracleConfig(max_index=3))


GRID_STATES_REFUSAL = (
    rf"^grid_step must be coarse enough for at most {_MAX_GRID_STATES} grid states "
    r"on S_1 \.\. S_[12], got "
)


def test_brute_force_refuses_grid_states_above_cap_before_allocating(monkeypatch):
    class Allocated(Exception):
        pass

    def arange(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(np, "arange", arange)
    # 10,006 states at n = 2 (G x G tables of 764 MB), a 3.8 GB grid at n = 1,
    # and an infinite count from a subnormal step
    for n, step in ((2, 1e-4), (1, 1e-9), (1, 5e-324)):
        with pytest.raises(ValueError, match=GRID_STATES_REFUSAL):
            brute_force(n, OracleConfig(grid_step=step))
    # S_1's grid has ceil(0.5 / step + 2.5) states: one above the cap, then
    # exactly the cap, where the check passes and the first allocation is reached
    with pytest.raises(ValueError, match=GRID_STATES_REFUSAL):
        brute_force(1, OracleConfig(grid_step=0.5 / (_MAX_GRID_STATES - 2)))
    with pytest.raises(Allocated):
        brute_force(1, OracleConfig(grid_step=0.5 / (_MAX_GRID_STATES - 3)))


def _float_literal_cell(lo, hi, a, y):
    # the cell integral with float literals, as a referee: the grid search
    # needs measure.cell_distortion's int literals to give the same bits
    poly = lo * lo + lo * hi + hi * hi - 3.0 * a * (lo + hi) + 3.0 * (a * a + y * y)
    return (hi - lo) * poly / 3.0


@settings(deadline=None)
@given(size=st.integers(1, 6), data=st.data())
def test_cell_distortion_is_the_float_literal_formula_bit_for_bit(size, data):
    # nan and inf included: _grid_minimum prices every pair, valid or not
    column = st.lists(st.floats(), min_size=size, max_size=size).map(np.array)
    lo, hi, a, y = (data.draw(column) for _ in range(4))
    # the shapes _grid_minimum passes: the one cell at n = 1, the first cells,
    # a middle state's np.float64 coordinates, the last cells
    cases = [
        (0.0, 1.0, a, y),
        (0.0, hi[None, :], a[:, None], y[:, None]),
        (lo[:, None], hi[None, :], a[0], y[0]),
        (lo[:, None], 1.0, a[None, :], y[None, :]),
        (lo[0], hi[0], a[0], y[0]),
    ]
    with np.errstate(all="ignore"):
        for args in cases:
            got, want = cell_distortion(*args), _float_literal_cell(*args)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _coarse_grids(max_index, step):
    # brute_force's coarse grids: each feasible range widened by one step
    grids = {}
    for j in range(1, max_index + 1):
        lo, hi = feasible_foot_range(j)
        grids[j] = np.arange(lo - step, hi + step + step / 2, step)
    return grids


def _grid_distortions(ts: Sequence[int], xs: list[np.ndarray]) -> np.ndarray:
    """Distortion of each candidate tuple; +inf where the candidate is invalid.

    Candidate i places point k at abscissa xs[k][i] on constraint S_{ts[k]}.
    Valid candidates have strictly increasing feet and strictly interior,
    strictly increasing Voronoi breakpoints (anything else leaves some point
    with an empty cell).  Per-cell values use the exact quadratic integral.
    """
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
            total += cell_distortion(lows[i], highs[i], xs[i], ys[i])
        total = np.where(valid, total, np.inf)
    return total


def _best_on_grids(
    ts: Sequence[int], grids: list[np.ndarray]
) -> Optional[tuple[float, tuple[float, ...]]]:
    """Cheapest valid candidate on the position grids, ties to lower abscissas."""
    mesh = np.meshgrid(*grids, indexing="ij")
    xs = [m.reshape(-1) for m in mesh]
    values = _grid_distortions(ts, xs)
    k = int(np.argmin(values))
    if not math.isfinite(values[k]):
        return None
    return float(values[k]), tuple([float(x[k]) for x in xs])


def _enumerated_minimum(n, grids):
    # referee: every assignment of indices, every position tuple on its grids
    best = None
    for ts in itertools.product(grids, repeat=n):
        found = _best_on_grids(ts, [grids[t] for t in ts])
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], ts, found[1])
    return best


@pytest.mark.parametrize("grid_step", [1e-2, 0.05])
def test_dynamic_program_equals_the_enumeration(grid_step):
    for n in (1, 2, 3):
        for max_index in range(1, n + 1):
            grids = _coarse_grids(max_index, grid_step)
            # the same float value, indices and abscissas
            assert _grid_minimum(n, grids) == _enumerated_minimum(n, grids), (
                f"n={n} max_index={max_index}"
            )


def test_dynamic_program_equals_the_enumeration_on_random_grids():
    # irregular grids reach tuples where each pair and triple test binds
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        max_index = int(rng.integers(1, n + 1))
        grids = {
            t: np.sort(rng.uniform(-1.0 / t, 0.8, size=int(rng.integers(1, 8))))
            for t in range(1, max_index + 1)
        }
        assert _grid_minimum(n, grids) == _enumerated_minimum(n, grids), grids


def test_dynamic_program_equals_the_enumeration_on_refinement_windows():
    # brute_force's refinement state sets: +-2 half steps around a random
    # incumbent, clipped to the widened bounds and pooled per constraint, with
    # the windows on one constraint apart from each other
    rng = np.random.default_rng(11)
    valid = 0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        step = float(rng.uniform(0.01, 0.1))
        half = step / 2 ** int(rng.integers(1, 4))
        ts = [int(t) for t in rng.integers(1, n + 1, size=n)]
        xs = [(f - 1.0 / t) / 2.0 for f, t in zip(random_feet(rng, n), ts)]
        pairs = itertools.combinations(zip(ts, xs), 2)
        if any(s == t and abs(x - y) <= 4 * half for (s, x), (t, y) in pairs):
            continue
        windows = {t: [] for t in sorted(set(ts))}
        for t, x in zip(ts, xs):
            lo, hi = feasible_foot_range(t)
            local = x + half * np.arange(-2.0, 3.0)
            windows[t].append(np.clip(local, lo - step, hi + step))
        grids = {t: np.unique(np.concatenate(w)) for t, w in windows.items()}
        best = _grid_minimum(n, grids)
        assert best == _enumerated_minimum(n, grids), grids
        valid += best is not None
    assert valid >= 100


def test_brute_force_refines_on_the_incumbents_windows(monkeypatch):
    # every refinement round searches states around the previous incumbent,
    # which stays among them, and the enumeration agrees with the result
    calls = []

    def spy(n, grids):
        found = _grid_minimum(n, grids)
        calls.append((grids, found))
        return found

    monkeypatch.setattr(oracle, "_grid_minimum", spy)
    for n in (1, 2, 3):
        calls.clear()
        brute_force(n)
        assert len(calls) == 1 + 3
        for (_, before), (grids, after) in zip(calls, calls[1:]):
            _, ts, xs = before
            assert all(x in grids[t] for t, x in zip(ts, xs))
            assert after[0] <= before[0]
            assert after == _enumerated_minimum(n, grids)


def test_brute_force_searches_only_points_of_the_segments(monkeypatch):
    # a step above 1/(2j) widens S_j's feasible range past its domain
    # [-1/j, 1] (S_2 at step 10 from x = -10.25); -1.0 / 5 rounds below -1/5
    grids_seen = []

    def spy(n, grids):
        grids_seen.append(grids)
        return _grid_minimum(n, grids)

    monkeypatch.setattr(oracle, "_grid_minimum", spy)
    for n in range(1, _FULL_SEARCH_MAX_N + 1):
        for step in (0.15, 0.6, 1.2, 10.0, 1e308):
            try:
                brute_force(n, OracleConfig(grid_step=step))
            except RuntimeError as exc:
                assert str(exc) == "no valid candidate on the coarse grid"
    assert len(grids_seen) >= 30
    for grids in grids_seen:
        for t, grid in grids.items():
            assert all(-F(1, t) <= x <= 1 for x in grid.tolist()), (t, grid)


def test_brute_force_does_not_import_numpy_ma():
    # np.unique's first call imports numpy.ma, 9-13 ms in a fresh process
    code = textwrap.dedent(
        """
        import sys
        from segquant import brute_force
        brute_force(2)
        assert "numpy.ma" not in sys.modules, "brute_force imported numpy.ma"
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_ENV
    )
    assert proc.returncode == 0, proc.stderr


def test_sorted_unique_is_np_unique():
    rng = np.random.default_rng(5)
    for _ in range(500):
        values = np.round(rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 20))), 1)
        values[rng.integers(0, values.size)] = rng.choice([0.0, -0.0])
        assert oracle._sorted_unique(values).tobytes() == np.unique(values).tobytes()


def test_brute_force_never_holds_a_cube_of_states():
    # the enumeration peaked at 20.6 MiB for n = 3, the pair-state program
    # at about 1.3 MiB; G^3 float64 values at G = 159 states are 30.7 MiB
    tracemalloc.start()
    try:
        brute_force(3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


# ---------------------------------------------------- candidate evaluator


def test_grid_evaluator_matches_distortion_module():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        q = random_same_constraint_quantizer(rng)
        ts = [p.j for p in q.points]
        xs = [np.array([float(p.x)]) for p in q.points]
        got = float(_grid_distortions(ts, xs)[0])
        assert abs(got - distortion(q)) <= 1e-13


def test_grid_evaluator_matches_on_mixed_indices():
    rng = np.random.default_rng(4096)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 5))
        ts = [int(rng.integers(1, 6)) for _ in range(n)]
        raw = [float(rng.uniform(-1.0 / t, 1.0)) for t in ts]
        xs = [np.array([x]) for x in raw]
        got = float(_grid_distortions(ts, xs)[0])
        try:
            q = Quantizer(tuple(ConstraintPoint(t, x) for t, x in zip(ts, raw)))
            expected = distortion(q)
        except ValueError:
            assert got == math.inf
            checked += 1
            continue
        assert abs(got - expected) <= 1e-13
        checked += 1


def test_grid_evaluator_flags_unordered_feet():
    # feet 0.75 then 0.25: invalid ordering must map to +inf, not a value
    ts = [1, 1]
    xs = [np.array([-0.125]), np.array([-0.375])]
    assert math.isinf(_grid_distortions(ts, xs)[0])
