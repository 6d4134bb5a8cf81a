"""Mean-value statistics of primitive points over random lattices.

Averaged over Haar-random determinant-1 lattices, the number of primitive
points in a region of area V concentrates at V / zeta(2), and the second
moment about that centering grows roughly in proportion to V (up to a
logarithmic factor).
"""

import math

import starlat as sl


def main():
    areas = [5.0, 10.0, 20.0, 40.0]
    regions = [sl.disk_region(math.sqrt(a / math.pi)) for a in areas]
    N = 5000
    rep = sl.rogers_moment_report(regions, N=N, seed=99, keep_counts=False)

    z2 = math.pi**2 / 6
    print(f"{N} Haar lattices per row; centering constant 1/zeta(2) = "
          f"{1 / z2:.5f}")
    print(f"{'area':>6} {'mean':>8} {'V/zeta(2)':>10} {'m2':>8} "
          f"{'m2/V':>7} {'m2/(V log2 V)':>14}")
    for e in rep.entries:
        print(f"{e.area:6.1f} {e.mean:8.4f} {e.center:10.4f} "
              f"{e.second_moment:8.3f} {e.ratio_volume:7.3f} "
              f"{e.ratio_schmidt:14.3f}")
    print()
    print("the mean tracks V/zeta(2); the last column staying flat is the")
    print("log-corrected second-moment envelope at desk scale.")

    print()
    print("single-lattice counts for the integer lattice, disk of radius "
          "2.5:")
    Z2 = sl.make_lattice([[1, 0], [0, 1]])
    n = sl.count_primitive(Z2, sl.disk_region(2.5))
    print(f"  {n} primitive points (coprime coordinate pairs)")


if __name__ == "__main__":
    main()
