"""Command line for solving, cross-verifying, and tabulating the quantizers.

Subcommands: solve (one n, any of the three methods, JSON record), verify
(closed form vs fixed point vs grid search, per-n deviations), curve
(error table over a range of n, CSV or JSON), dimension (log-log regression
estimate).  Output is deterministic: fixed field order and shortest
round-trip float formatting, so identical invocations are byte-identical.

Exit codes: 0 success, 1 verification failure, 2 usage error, a flag value
out of range (reported as "error: <name> must be ...") or unwritable --out,
3 non-convergence, a collapsed quantizer or mixed constraint indices.  Flags
parse as plain ints; the library's checks refuse bad values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import asymptotics, closed_form, geometry, oracle, quantizer
from .quantizer import (
    InvalidQuantizerError,
    SolverConfig,
    partition_of,
    solve_fixed_constraint,
)

_FOOT_TOL = 1e-9
_DISTORTION_TOL = 1e-12
# a linear curve builds one row per n, about 600 B each, before printing any
_CURVE_LINEAR_MAX_N = 100_000
# verify refuses --n-max above this: n = 972 is the smallest n whose default
# solve stalls at a rounding floor (converged=False after 10,000 sweeps, feet
# 6.95e-13 off), so its Lloyd line would FAIL on a correct answer
_VERIFY_MAX_N = 971


def _emit(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _solve_record(method: str, q, dist: float) -> dict:
    indices = {p.j for p in q.points}
    if len(indices) != 1:
        raise RuntimeError(f"result mixes constraint indices {sorted(indices)}")
    points = [
        {
            "j": p.j,
            "x": p.x,
            "plane": list(geometry._plane(p)),
            "foot": geometry.forward_map(p),
        }
        for p in q.points
    ]
    excess = dist - closed_form.v_infinity()
    return {
        "n": q.n,
        "method": method,
        "constraint_index": q.points[0].j,
        "points": points,
        "breakpoints": list(partition_of(q)),
        "distortion": dist,
        "excess": excess,
        "scaled_excess": q.n * excess,
    }


def _solve_csv(record: dict) -> str:
    # tidy flattening: one row per point, record scalars repeated, the point's
    # cell carrying the breakpoints
    lines = [
        "n,method,constraint_index,j,x,plane_x,plane_y,foot,"
        "cell_lo,cell_hi,distortion,excess,scaled_excess"
    ]
    cuts = record["breakpoints"]
    for i, p in enumerate(record["points"]):
        lines.append(
            f"{record['n']},{record['method']},{record['constraint_index']},"
            f"{p['j']},{p['x']!r},{p['plane'][0]!r},{p['plane'][1]!r},"
            f"{p['foot']!r},{cuts[i]!r},{cuts[i + 1]!r},"
            f"{record['distortion']!r},{record['excess']!r},"
            f"{record['scaled_excess']!r}"
        )
    return "\n".join(lines) + "\n"


def cmd_solve(args: argparse.Namespace) -> int:
    n = args.n
    if args.method == "closed-form":
        q, dist = closed_form.optimal_points(n), closed_form.vn(n)
    elif args.method == "lloyd":
        outcome = solve_fixed_constraint(n, n)
        if not outcome.converged:
            print(
                f"error: no convergence after {outcome.iterations} sweeps "
                f"(tol={SolverConfig.tol!r})",
                file=sys.stderr,
            )
            return 3
        q, dist = outcome.quantizer, outcome.distortion
    else:
        outcome = oracle.brute_force(n)
        q, dist = outcome.quantizer, outcome.distortion
    record = _solve_record(args.method, q, dist)
    if args.format == "csv":
        _emit(args.out, _solve_csv(record))
    else:
        _emit(args.out, json.dumps(record, indent=2) + "\n")
    return 0


def _curve_ns(n_max: int, spacing: str) -> list[int]:
    if spacing == "linear":
        if n_max > _CURVE_LINEAR_MAX_N:
            raise ValueError(
                f"n_max must be <= {_CURVE_LINEAR_MAX_N} with linear spacing, "
                f"got {n_max}; use --spacing geometric"
            )
        return list(range(1, n_max + 1))
    ns = []
    k = 1
    while k <= n_max:
        ns.append(k)
        k *= 2
    if ns[-1] != n_max:
        ns.append(n_max)
    return ns


def cmd_curve(args: argparse.Namespace) -> int:
    geometry._check_int("n_max", args.n_max, maximum=closed_form._MAX_N)
    rows = []
    for n in _curve_ns(args.n_max, args.spacing):
        dim = None if n < 2 else asymptotics.dimension_direct(n)
        rows.append(
            {
                "n": n,
                "v_n": closed_form.vn(n),
                "excess": asymptotics.excess(n),
                "scaled_excess": asymptotics.coefficient_estimate(n),
                "dim_direct": dim,
            }
        )
    if args.format == "json":
        _emit(args.out, json.dumps({"rows": rows}, indent=2) + "\n")
        return 0
    lines = ["n,v_n,excess,scaled_excess,dim_direct"]
    for r in rows:
        dim = "" if r["dim_direct"] is None else repr(r["dim_direct"])
        lines.append(
            f"{r['n']},{r['v_n']!r},{r['excess']!r},{r['scaled_excess']!r},{dim}"
        )
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_dimension(args: argparse.Namespace) -> int:
    est = asymptotics.dimension_regression(args.n_min, args.n_max, args.samples)
    text = (
        f"n_min = {args.n_min}\n"
        f"n_max = {args.n_max}\n"
        f"samples = {args.samples}\n"
        f"slope = {est.slope!r}\n"
        f"intercept = {est.intercept!r}\n"
        f"dimension = {est.dimension!r}\n"
        f"residual = {est.residual!r}\n"
    )
    _emit(args.out, text)
    return 0


def _foot_dev(q) -> float:
    means = closed_form.unconstrained_means(q.n)
    return max(abs(f - m) for f, m in zip(q.feet(), means))


def cmd_verify(args: argparse.Namespace) -> int:
    # refuse ranges the Lloyd lines or brute_force cannot pass, before any solve runs
    geometry._check_int("n_max", args.n_max, maximum=_VERIFY_MAX_N)
    geometry._check_int(
        "oracle_n_max", args.oracle_n_max, maximum=oracle._FULL_SEARCH_MAX_N
    )
    # the final grid resolution bounds the abscissa error by
    # 2 * grid_step / 2**refine_rounds, and a foot 2x + 1/j moves twice as far
    oracle_tol = 4 * oracle.OracleConfig.grid_step / 2**oracle.OracleConfig.refine_rounds
    # solves above quantizer._LIST_LOOP_IN_PROCESS_MAX_N points take the numpy
    # loop, the faster one in-process there, once numpy is loaded; importing
    # it before the first solve lets every such solve share one import
    if args.n_max > quantizer._LIST_LOOP_IN_PROCESS_MAX_N:
        import numpy  # noqa: F401
    all_ok = True
    lines = []
    for n in range(1, args.n_max + 1):
        outcome = solve_fixed_constraint(n, n)
        foot_dev = _foot_dev(outcome.quantizer)
        dist_dev = abs(outcome.distortion - closed_form.vn(n))
        ok = outcome.converged and foot_dev <= _FOOT_TOL and dist_dev <= _DISTORTION_TOL
        all_ok &= ok
        lines.append(
            f"n={n} foot_dev={foot_dev:.3e} dist_dev={dist_dev:.3e} "
            f"{'ok' if ok else 'FAIL'}"
        )
    for n in range(1, args.oracle_n_max + 1):
        q = oracle.brute_force(n).quantizer
        foot_dev = _foot_dev(q)
        ok = all(p.j == n for p in q.points) and foot_dev <= oracle_tol
        all_ok &= ok
        lines.append(
            f"oracle n={n} index={q.points[0].j} "
            f"foot_dev={foot_dev:.3e} {'ok' if ok else 'FAIL'}"
        )
    lines.append("verify: " + ("OK" if all_ok else "FAIL"))
    print("\n".join(lines))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segquant",
        description="Optimal quantization of the uniform unit segment with "
        "points constrained to the diagonal segments y = x + 1/j.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one n and print the JSON record")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("closed-form", "lloyd", "brute-force"),
        default="closed-form",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="cross-check the three methods")
    p.add_argument("--n-max", type=int, default=64)
    p.add_argument("--oracle-n-max", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curve", help="error table over a range of n")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--spacing", choices=("linear", "geometric"), default="geometric")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("dimension", help="log-log regression dimension estimate")
    p.add_argument("--n-min", type=int, default=64)
    p.add_argument("--n-max", type=int, default=16_384)
    p.add_argument("--samples", type=int, default=9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dimension)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidQuantizerError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    """Run main() in a CLI process: `python -m segquant` and `segquant`.

    numpy loads lazily, only for Lloyd solves above
    quantizer._LIST_LOOP_MAX_N points and for `verify --n-max` above
    quantizer._LIST_LOOP_IN_PROCESS_MAX_N.  Its OpenBLAS starts a pool of
    worker threads, about half of a fresh `import numpy`; no segquant code
    calls BLAS (only elementwise ufuncs), so the pool starts with one thread
    unless the user set OPENBLAS_NUM_THREADS.  Only
    this process entry point sets it: `import segquant` and main() leave
    os.environ alone.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())
