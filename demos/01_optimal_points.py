"""
Closed-form optimal quantizers on the diagonal constraint family
================================================================

For n points restricted to the segments y = x + 1/j, the best placement
puts every point on the steepest-available segment S_n at abscissas
(2j - 3) / (4n).  Their perpendicular feet on the support line are exactly
the classic unconstrained sites (2j - 1) / (2n), and the achieved error is
V_n = (4 n^2 + 12 n + 13) / (24 n^2), decaying to 1/6.
"""

from segquant import (
    distortion,
    optimal_points,
    partition_of,
    unconstrained_means,
    v_infinity,
    vn,
)


def describe(n: int) -> None:
    q = optimal_points(n)
    cuts = partition_of(q)
    print(f"n = {n}: all points on S_{n}, V_n = {vn(n):.12f}")
    means = unconstrained_means(n)
    for j, p in enumerate(q.points):
        foot = 2 * p.x + 1 / p.j
        print(
            f"  point {j + 1}: x = {p.x:+.6f}  plane = ({p.x:+.6f}, {p.x + 1 / p.j:+.6f})"
            f"  foot = {foot:.6f}  (unconstrained mean {means[j]:.6f})"
        )
    cells = ", ".join(f"[{cuts[i]:.4f}, {cuts[i + 1]:.4f}]" for i in range(n))
    print(f"  cells: {cells}")
    print(f"  distortion recomputed from the partition: {distortion(q):.12f}")
    print()


def main() -> None:
    print("limit error V_inf =", v_infinity())
    print()
    for n in (1, 2, 3, 4, 8):
        describe(n)
    # the error splits as 1/6 (distance to the limiting segment) plus an
    # excess that the next demos study asymptotically
    print("excess V_n - V_inf for growing n:")
    for n in (1, 10, 100, 1000):
        print(f"  n = {n:>5}: {vn(n) - v_infinity():.3e}")


if __name__ == "__main__":
    main()
