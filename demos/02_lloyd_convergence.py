"""
Fixed-point iteration: watching the Lloyd sweeps contract
=========================================================

One sweep repartitions the support at the bisector breakpoints and moves
each point under its cell's barycenter.  In foot coordinates this is the
textbook one-dimensional Lloyd map for the uniform density, a contraction
with rate cos^2(pi / (2n)), so the foot error shrinks geometrically and
slower for larger n.  The demo measures that rate by repeating lloyd_step
on the solver's first sweep (max_iter=1).

The solver itself extrapolates after every sweep (a Chebyshev
semi-iteration), which turns the rate into roughly 1 - pi / n per sweep;
the demo measures that rate too, from the sweeps needed per decade of tol.
"""

import math

from segquant import SolverConfig, lloyd_step, solve_fixed_constraint, vn


def foot_error(n: int, feet) -> float:
    return max(abs(f - (2 * j - 1) / (2 * n)) for j, f in enumerate(feet, 1))


def plain_lloyd_rate(n: int, sweeps: int) -> float:
    """Error ratio per plain sweep over the second half of `sweeps` sweeps,
    once the slowest mode dominates."""
    q = solve_fixed_constraint(n, n, SolverConfig(max_iter=1)).quantizer
    errors = [foot_error(n, q.feet())]
    for _ in range(sweeps - 1):
        q = lloyd_step(q)
        errors.append(foot_error(n, q.feet()))
    half = sweeps // 2
    return (errors[-1] / errors[half - 1]) ** (1 / (sweeps - half))


def sweeps_needed(n: int, tol: float) -> int:
    out = solve_fixed_constraint(n, n, SolverConfig(tol=tol))
    assert out.converged
    return out.iterations


def chebyshev_rate(n: int) -> float:
    rho = math.cos(math.pi / (2 * n)) ** 2
    sigma = rho / (2 - rho)
    return sigma / (1 + math.sqrt(1 - sigma * sigma))


def main() -> None:
    print("contraction per sweep, plain Lloyd and the accelerated solver:")
    print(
        f"{'n':>4} {'plain':>9} {'cos^2':>9} {'solver':>9} {'predicted':>10}"
        f" {'sweeps to 1e-12':>16}"
    )
    for n in (2, 4, 8, 16, 32):
        plain = plain_lloyd_rate(n, 8 * n)
        s6 = sweeps_needed(n, 1e-6)
        s12 = sweeps_needed(n, 1e-12)
        # movement shrinks by the rate each sweep, so the extra sweeps for
        # six more decades of tolerance measure it
        solver = 10 ** (-6 / (s12 - s6)) if s12 > s6 else float("nan")
        cos2 = math.cos(math.pi / (2 * n)) ** 2
        print(
            f"{n:>4} {plain:>9.5f} {cos2:>9.5f} {solver:>9.5f} {chebyshev_rate(n):>10.5f}"
            f" {s12:>16}"
        )
    print()

    print("achieved error vs the closed form (tol = 1e-12):")
    for n in (1, 5, 25, 64):
        out = solve_fixed_constraint(n, n)
        print(
            f"  n = {n:>3}: solver {out.distortion:.15f}  closed form {vn(n):.15f}"
            f"  gap {abs(out.distortion - vn(n)):.1e}  ({out.iterations} sweeps)"
        )
    print()

    # the constraint index only shifts the abscissas; the feet, partition,
    # and error of the solution on S_t are independent of t
    print("solving 4 points on different constraints S_t:")
    for t in (1, 2, 4, 16):
        out = solve_fixed_constraint(4, t)
        feet = ", ".join(f"{f:.6f}" for f in out.quantizer.feet())
        print(f"  t = {t:>2}: feet {feet}  distortion {out.distortion:.12f}")
    print("(higher t always wins on distortion; t = n is the feasible best)")


if __name__ == "__main__":
    main()
