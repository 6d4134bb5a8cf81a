"""Shells, two-line equipartition, and primitive witness pairs.

For a set of infinite volume, annular shells can be chosen so each carries
more than 2^d * zeta(d) * n units of volume.  A two-orthogonal-line cut
splits each shell's mass into four equal parts that no single line meets
simultaneously; one primitive lattice point per part then yields a
linearly independent witness pair per shell, with tuples disjoint across
shells.
"""

import math

import starlat as sl


def main():
    n_max = 4
    body = sl.plane_body()
    shells = sl.build_shells(body, 2, n_max, mc_points=10**5, seed=42)
    z2 = math.pi**2 / 6
    print("shells for the full plane (threshold 4 * zeta(2) * n "
          f"= {4 * z2:.4f} * n):")
    for s in shells:
        exact = math.pi * (s.outer**2 - s.inner**2)
        print(f"  n={s.index}: radii ({s.inner:.4f}, {s.outer:.4f}], "
              f"volume {exact:.3f} > {4 * z2 * s.index:.3f}")

    config = sl.PipelineConfig()
    parts = sl.build_partitions(shells, config, seed=42)
    print()
    print("per-shell equipartitions (masses of the four parts):")
    for s, p in zip(shells, parts):
        print(f"  n={s.index}: center ({p.center[0]:+.3f}, "
              f"{p.center[1]:+.3f}), angle {p.angle:.4f}, "
              f"masses {[int(m) for m in p.masses]}")
        rep = sl.transversal_check(p, lines=10**4, seed=s.index)
        print(f"          10^4 probe lines meet at most {rep.max_met} "
              "open quadrants (4 would be a geometry bug)")

    print()
    for name, cols in [("integer lattice", [[1, 0], [0, 1]]),
                       ("golden lattice", None)]:
        L = sl.golden_lattice() if cols is None else sl.make_lattice(cols)
        rep = sl.extract_witnesses(L, shells, parts)
        print(f"witness pairs for the {name}:")
        for t in rep.tuples:
            a, b = t.points
            print(f"  shell {t.shell_index}: coeffs {a.coeffs} and "
                  f"{b.coeffs} from quadrants {t.quadrants}")
        for n, quads in rep.failures:
            print(f"  shell {n}: FAILED, empty quadrants {quads}")

    print()
    r1 = sl.part_miss_rate(1, samples=300, config=config, seed=7)
    r5 = sl.part_miss_rate(5, samples=300, config=config, seed=8)
    print("how often does a Haar-random lattice miss a quadrant?")
    for r in (r1, r5):
        print(f"  shell n={r.n:2d}: miss rate {r.rate:.3f} "
              f"(95% CI [{r.ci_low:.3f}, {r.ci_high:.3f}])")
    print("the rate decays roughly like 1/n: larger shells hold more "
          "primitive points.")


if __name__ == "__main__":
    main()
