"""
Believing the formulas: exact grid search and direct integration
================================================================

The grid search and the Riemann integrator use neither the closed forms nor
the solver; the demo calls those only for what it checks: V_n, the fixed
point on S_1 and the optimal points whose distortion the Riemann sums
confirm.  The grid search finds the exact minimum over every partition of
[0, 1] into n cells with edges on a grid, each cell served by its cheapest
point on any constraint (a dynamic program over cell edges), runs the same
program on halved-step windows around the incumbent's edges in each
refinement round, and still lands on the same answer: all points on the
top constraint S_n at abscissas (2j - 3) / (4n).  It accepts n up to 6; this
demo shows n = 1..3.  A midpoint Riemann sum of the pointwise min squared
distance independently confirms the distortion values.
"""

from segquant import (
    OracleConfig,
    brute_force,
    distortion,
    optimal_points,
    riemann_distortion,
    solve_fixed_constraint,
    vn,
)


def main() -> None:
    print("exact grid search (step 1e-2, 3 refinement rounds):")
    for n in (1, 2, 3):
        out = brute_force(n)
        indices = [p.j for p in out.quantizer.points]
        exact = [(2 * j - 3) / (4 * n) for j in range(1, n + 1)]
        dev = max(abs(p.x - e) for p, e in zip(out.quantizer.points, exact))
        print(
            f"  n = {n}: picked indices {indices}, abscissa error {dev:.2e}, "
            f"distortion {out.distortion:.8f} vs V_n {vn(n):.8f}"
        )
    print()

    print("restricting the family: two points forced onto S_1:")
    restricted = brute_force(2, OracleConfig(max_index=1))
    reference = solve_fixed_constraint(2, 1)
    print(f"  grid search: {restricted.distortion:.8f} at "
          f"{[round(p.x, 4) for p in restricted.quantizer.points]}")
    print(f"  fixed point: {reference.distortion:.8f} at "
          f"{[round(p.x, 4) for p in reference.quantizer.points]}")
    print(f"  unrestricted best (on S_2): {vn(2):.8f} -- strictly better")
    print()

    print("midpoint Riemann sums vs the exact partition integrals:")
    for n in (1, 2, 3, 5, 8):
        q = optimal_points(n)
        exact = distortion(q)
        for panels in (10**3, 10**5):
            approx = riemann_distortion(q, panels=panels)
            print(
                f"  n = {n}, {panels:>6} panels: {approx:.12f} "
                f"(error {abs(approx - exact):.1e})"
            )


if __name__ == "__main__":
    main()
