"""Acceptance gate: the seven headline guarantees, one pass/fail line each.

Each criterion prints `criterion k (<label>): PASS|FAIL (<elapsed> s)` on the
real terminal (bypassing capture), checks its stated tolerances, and enforces
its runtime budget.  Run the whole gate with

    pytest tests/test_acceptance.py -v
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from segquant import (
    ConstraintPoint,
    OracleConfig,
    Quantizer,
    SolverConfig,
    brute_force,
    coefficient_estimate,
    dimension_direct,
    dimension_regression,
    distortion,
    forward_map,
    inverse_map,
    lloyd_step,
    optimal_abscissas_exact,
    optimal_points,
    optimal_interval_distortion,
    riemann_distortion,
    solve_fixed_constraint,
    voronoi_breakpoint,
    vn,
    vn_exact,
    SupportInterval,
    embed,
    squared_distance,
    Point,
)
from conftest import random_same_constraint_quantizer

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"


@pytest.fixture
def criterion(capsys):
    def run(number: int, label: str, body, budget: float | None) -> None:
        start = time.perf_counter()
        try:
            body()
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                raise AssertionError(
                    f"runtime {elapsed:.2f} s exceeds the {budget:.0f} s budget"
                )
        except BaseException:
            elapsed = time.perf_counter() - start
            with capsys.disabled():
                print(f"criterion {number} ({label}): FAIL ({elapsed:.2f} s)")
            raise
        with capsys.disabled():
            print(f"criterion {number} ({label}): PASS ({elapsed:.2f} s)")

    return run


def test_criterion_1_closed_form_identity(criterion):
    def body():
        assert vn_exact(1) == F(29, 24)
        assert vn_exact(2) == F(53, 96)
        assert vn_exact(3) == F(85, 216)
        for n in (1, 2, 3):
            exact_q = Quantizer(
                tuple(ConstraintPoint(n, x) for x in optimal_abscissas_exact(n))
            )
            assert distortion(exact_q) == vn_exact(n)
        for n in range(1, 65):
            v = vn(n)
            assert abs(distortion(optimal_points(n)) - v) <= 1e-13 * v

    criterion(1, "closed-form identity, n = 1..64", body, budget=1.0)


def test_criterion_2_solver_equivalence(criterion):
    # the library defaults, as `segquant verify` runs them
    config = SolverConfig()

    def body():
        for n in range(1, 65):
            out = solve_fixed_constraint(n, n, config)
            assert out.converged, f"n={n} did not converge"
            means = [(2 * j - 1) / (2 * n) for j in range(1, n + 1)]
            foot_dev = max(abs(f - m) for f, m in zip(out.quantizer.feet(), means))
            assert foot_dev <= 1e-9, f"n={n} foot deviation {foot_dev:.3e}"
            dist_dev = abs(out.distortion - vn(n))
            assert dist_dev <= 1e-12, f"n={n} distortion deviation {dist_dev:.3e}"

    criterion(2, "fixed-point solver equivalence, n = 1..64", body, budget=5.0)


def test_criterion_3_oracle_confirmation(criterion):
    config = OracleConfig()
    tol = 2 * config.grid_step / 2**config.refine_rounds

    def body():
        for n in (1, 2, 3):
            out = brute_force(n, config)
            assert all(p.j == n for p in out.quantizer.points), (
                f"n={n} picked indices {[p.j for p in out.quantizer.points]}"
            )
            exact = [float(F(2 * j - 3, 4 * n)) for j in range(1, n + 1)]
            dev = max(abs(p.x - e) for p, e in zip(out.quantizer.points, exact))
            assert dev <= tol, f"n={n} abscissa deviation {dev:.3e}"
            assert abs(out.distortion - vn(n)) <= 1e-5

    criterion(3, "exhaustive search confirms the top constraint", body, budget=60.0)


def test_criterion_4_dimension(criterion):
    def body():
        est = dimension_regression(2**6, 2**14, 9)
        assert abs(est.slope - (-1.0)) <= 0.01, f"slope {est.slope!r}"
        assert abs(est.dimension - 2.0) <= 0.02, f"dimension {est.dimension!r}"
        direct = dimension_direct(10**4)
        assert 1.85 <= direct <= 1.87, f"direct estimate {direct!r}"

    criterion(4, "quantization dimension estimates", body, budget=1.0)


def test_criterion_5_coefficient(criterion):
    def body():
        assert abs(coefficient_estimate(10**5) - 0.5) <= 1e-5
        values = [coefficient_estimate(n) for n in range(1, 10**4 + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))

    criterion(5, "quantization coefficient 1/2", body, budget=1.0)


def test_criterion_6_property_suite(criterion):
    rng = np.random.default_rng(60606)

    def round_trips():
        for _ in range(200):
            j = int(rng.integers(1, 13))
            x = float(rng.uniform(-1.0 / j, 1.0))
            back = inverse_map(j, forward_map(ConstraintPoint(j, x)))
            assert abs(back.x - x) <= 1e-15

    def breakpoint_equidistance():
        checked = 0
        while checked < 200:
            if checked % 2 == 0:
                q = random_same_constraint_quantizer(rng)
                if q.n < 2:
                    continue
                k = int(rng.integers(0, q.n - 1))
                p0, p1 = q.points[k], q.points[k + 1]
            else:
                j0, j1 = int(rng.integers(1, 13)), int(rng.integers(1, 13))
                p0 = ConstraintPoint(j0, float(rng.uniform(-1.0 / j0, 1.0)))
                p1 = ConstraintPoint(j1, float(rng.uniform(-1.0 / j1, 1.0)))
                f0, f1 = forward_map(p0), forward_map(p1)
                if f0 >= f1:
                    continue
            u = voronoi_breakpoint(p0, p1)
            if not 0 < u < 1:
                continue
            site = Point(float(u), 0.0)
            d0 = squared_distance(site, embed(p0))
            d1 = squared_distance(site, embed(p1))
            assert abs(d0 - d1) <= 1e-12
            checked += 1

    def sweep_descent():
        for _ in range(30):
            q = random_same_constraint_quantizer(rng)
            assert distortion(lloyd_step(q)) <= distortion(q) + 1e-14

    def monotone_in_t():
        for _ in range(100):
            lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
            if hi - lo < 1e-9:
                continue
            iv = SupportInterval(float(lo), float(hi))
            vals = [optimal_interval_distortion(iv, t) for t in range(1, 11)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def riemann_agreement():
        for _ in range(20):
            q = random_same_constraint_quantizer(rng)
            assert abs(riemann_distortion(q, panels=10**5) - distortion(q)) <= 1e-7

    def body():
        round_trips()
        breakpoint_equidistance()
        sweep_descent()
        monotone_in_t()
        riemann_agreement()

    criterion(6, "property suite", body, budget=10.0)


def test_criterion_7_cli_golden_files(criterion):
    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "segquant", *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )

    def body():
        cases = [
            (("solve", "--n", "2"), "solve_n2.json"),
            (("curve", "--n-max", "16"), "curve_n16.csv"),
            (("dimension",), "dimension_default.txt"),
        ]
        for args, name in cases:
            proc = run_cli(*args)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == (GOLDEN / name).read_text(), (
                f"{' '.join(args)} drifted from {name}"
            )
            if name.endswith(".json"):
                json.loads(proc.stdout)
        verify = run_cli("verify", "--n-max", "16")
        assert verify.returncode == 0, verify.stdout

    criterion(7, "CLI golden files and verify", body, budget=None)
