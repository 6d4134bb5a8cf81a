import math

import numpy as np
import pytest
from scipy.special import zeta

import starlat as sl
from starlat import lattice, stats
from starlat.errors import (BudgetExceeded, DimensionMismatch,
                            InvariantViolation, UnboundedBody)

from conftest import (ball_candidates, grid_primitive_count,
                      listing_primitive_counts, loop_primitive_counts,
                      loop_theorem2, reference_greedy)


Z2 = sl.make_lattice([[1, 0], [0, 1]])


def test_count_primitive_disk_examples():
    # disk of radius 2.5 around the origin in Z^2
    assert sl.count_primitive(Z2, sl.disk_region(2.5)) == 16
    assert sl.count_primitive(Z2, sl.disk_region(0.5)) == 0
    assert sl.count_primitive(Z2, sl.disk_region(1.0)) == 4


def test_count_primitive_matches_gcd_oracle(rng):
    # brute-force gcd count over the integer grid
    for r in (3.0, 4.5):
        region = sl.disk_region(r)
        n = int(math.floor(r)) + 1
        count = 0
        for a in range(-n, n + 1):
            for b in range(-n, n + 1):
                if (a, b) != (0, 0) and a * a + b * b <= r * r \
                        and math.gcd(abs(a), abs(b)) == 1:
                    count += 1
        assert sl.count_primitive(Z2, region) == count


def test_count_primitive_box_and_annulus():
    assert sl.count_primitive(Z2, sl.box_region(2.0)) == 8
    full = sl.count_primitive(Z2, sl.disk_region(2.5))
    inner = sl.count_primitive(Z2, sl.disk_region(1.0))
    assert sl.count_primitive(Z2, sl.annulus_region(1.0, 2.5)) == full - inner


def test_count_primitive_regions_are_planar():
    # the cube [-1, 1]^3 holds 26 primitive points, but a region's bounding
    # radius and area are planar, so a 3D count is refused
    L3 = sl.make_lattice(np.eye(3))
    for region in (sl.box_region(2.0), sl.disk_region(1.5)):
        with pytest.raises(DimensionMismatch, match="regions are planar"):
            sl.count_primitive(L3, region)


def test_repeated_spec_option_is_an_error():
    for spec, key in (("disk:r=2:r=3", "r"), ("annulus:r0=1:r1=2:r0=0.5",
                                               "r0"),
                      ("sublevel:body=hyperbola:t=1:clip=3:t=2", "t")):
        with pytest.raises(ValueError, match=f"{spec!r} repeats the option "
                           f"{key}="):
            sl.parse_region(spec)
    with pytest.raises(ValueError, match="repeats the option p="):
        sl.parse_body("ball:p=2:p=3")


def test_region_parsing_round_trip():
    r = sl.parse_region("disk:r=2.5")
    assert r.kind == "disk" and r.area == pytest.approx(math.pi * 6.25)
    r = sl.parse_region("annulus:r0=1:r1=2")
    assert r.area == pytest.approx(3 * math.pi)
    r = sl.parse_region("box:a=3")
    assert r.area == 9.0 and r.bounding_radius == pytest.approx(
        1.5 * math.sqrt(2))
    spec = "sublevel:body=scale:c=2:ball:p=2:t=1:clip=3"
    assert sl.parse_region(spec).spec == spec
    with pytest.raises(ValueError):
        sl.parse_region("blob:r=1")
    for bad, key in (("disk", "r="), ("annulus:r0=1", "r1="),
                     ("sublevel:body=hyperbola:t=1", "clip=")):
        with pytest.raises(ValueError, match=f"{bad!r} is missing the "
                           f"option {key}"):
            sl.parse_region(bad)
    with pytest.raises(ValueError):
        sl.annulus_region(2.0, 1.0)


def test_sublevel_region_area_estimate():
    # {f <= t} for the Euclidean ball is the disk of radius t
    region = sl.parse_region("sublevel:body=ball:p=2:t=2:clip=5")
    assert region.area == pytest.approx(4 * math.pi, rel=0.01)
    assert region.area_stderr > 0
    pts = np.array([[1.0, 0.0], [3.0, 0.0]])
    assert region.contains(pts).tolist() == [True, False]


def test_rogers_means_near_centering():
    region = sl.disk_region(math.sqrt(10.0 / math.pi))   # area 10
    report = sl.rogers_moment_report([region], N=2000, seed=17)
    entry = report.entries[0]
    assert entry.center == pytest.approx(10.0 / float(zeta(2)), rel=1e-12)
    assert abs(entry.mean - entry.center) <= 3.0 * entry.mean_stderr + 0.05
    assert len(entry.counts) == 2000


def test_rogers_translated_region_insensitive_to_shape():
    # mean primitive count depends only on the area, not the region shape
    area = 12.0
    disk = sl.disk_region(math.sqrt(area / math.pi))
    box = sl.box_region(math.sqrt(area))
    report = sl.rogers_moment_report([disk, box], N=2000, seed=29)
    e1, e2 = report.entries
    assert abs(e1.mean - e2.mean) <= 3.0 * (e1.mean_stderr + e2.mean_stderr)


def test_rogers_schmidt_ratio_reported():
    region = sl.disk_region(2.0)
    report = sl.rogers_moment_report([region], N=1000, seed=5,
                                     keep_counts=False)
    entry = report.entries[0]
    assert entry.counts is None
    assert entry.ratio_volume == pytest.approx(
        entry.second_moment / entry.area, rel=1e-12)
    assert entry.ratio_schmidt == pytest.approx(
        entry.second_moment / (entry.area * math.log2(entry.area)), rel=1e-12)


def _stack(kind, n, seed):
    """Planar bases: Haar, Haar skewed by an integer unimodular matrix, or
    small integer bases, whose points lie on region boundaries."""
    bases = sl.sample_unimodular_2d_arrays(n, seed)[3]
    if kind == "skewed":
        return bases @ sl.random_unimodular(2, seed, 12).astype(float)
    if kind == "integer":
        B = np.random.default_rng(seed).integers(-3, 4, (n, 2, 2))
        det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        return B[det != 0].astype(float)
    return bases


REGION_SPECS = ("disk:r=5", "disk:r=1.7841241161527712", "box:a=3",
                "annulus:r0=1:r1=2.5", "sublevel:body=hyperbola:t=1:clip=3")


@pytest.mark.parametrize("kind", ["haar", "skewed", "integer"])
@pytest.mark.parametrize("spec", REGION_SPECS)
def test_batched_counts_match_per_lattice_loop(kind, spec):
    region = sl.parse_region(spec)
    bases = _stack(kind, 200, 31 + len(spec))
    counts = stats._primitive_counts(region, lattice._reduce_planar(bases))
    assert np.array_equal(counts, loop_primitive_counts(region, bases))
    for i in range(0, len(bases), 25):
        assert counts[i] == grid_primitive_count(
            bases[i], region.contains, region.bounding_radius)


def test_batched_counts_span_several_chunks():
    region = sl.disk_region(math.sqrt(40.0 / math.pi))
    bases = _stack("haar", 3000, 5)
    chunks = list(lattice._planar_points(lattice._reduce_planar(bases),
                                         region.bounding_radius))
    assert len(chunks) > 3
    idx = np.concatenate([c[0] for c in chunks])
    assert np.all(np.diff(idx) >= 0) and set(idx.tolist()) == set(range(3000))
    stack = lattice._reduce_planar(bases)
    assert np.array_equal(stats._primitive_counts(region, stack),
                          loop_primitive_counts(region, bases))


@pytest.mark.parametrize("bad,error", [
    (np.diag([1e-3, 1e-3]), BudgetExceeded),
    (np.array([[1.0, 2.0], [2.0, 4.0]]), sl.SingularBasis),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), sl.SingularBasis),
])
def test_one_bad_lattice_in_a_stack_raises(monkeypatch, bad, error):
    bases = _stack("haar", 300, 8)
    bases[117] = bad
    monkeypatch.setattr(lattice, "DEFAULT_POINT_CAP", 10**4)
    with pytest.raises(error):
        stats._primitive_counts(sl.disk_region(2.0),
                                lattice._reduce_planar(bases))


def test_level_cap_is_per_lattice_in_a_stack(monkeypatch):
    # the Haar stack holds far more than the cap's level nodes in total but
    # a few per lattice; a lattice with 201 points on a line (predicted: pi)
    # exceeds the cap inside the search
    region = sl.disk_region(1.0)
    bases = _stack("haar", 300, 9)
    want = loop_primitive_counts(region, bases)
    monkeypatch.setattr(lattice, "DEFAULT_POINT_CAP", 100)
    assert np.array_equal(
        stats._primitive_counts(region, lattice._reduce_planar(bases)), want)
    bases[150] = np.diag([0.01, 100.0])
    with pytest.raises(BudgetExceeded, match="201 candidates exceed cap 100"):
        stats._primitive_counts(region, lattice._reduce_planar(bases))


def test_squarefree_matches_trial_division():
    def mobius(n):
        mu, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                mu = -mu
            p += 1
        return -mu if n > 1 else mu

    k, mu = stats._squarefree(1024)
    want = [n for n in range(1, 1025) if mobius(n)]
    assert k.tolist() == want
    assert mu.tolist() == [mobius(n) for n in want]


@pytest.mark.parametrize("seed", range(10))
def test_interval_counts_certify_benchmark_stacks(seed):
    # the mean-value workload's stacks: 1000 Haar lattices, disks of area
    # 5..40; every lattice is certified and equals the listing path
    bases = _stack("haar", 1000, 1000 + seed)
    stack = lattice._reduce_planar(bases)
    for area in (5.0, 10.0, 20.0, 40.0):
        region = sl.disk_region(math.sqrt(area / math.pi))
        counts, flagged = stats._interval_counts(stack,
                                                 region.bounding_radius)
        assert not flagged.any()
        assert np.array_equal(counts, listing_primitive_counts(region, bases))


@pytest.mark.parametrize("kind", ["haar", "skewed", "integer"])
@pytest.mark.parametrize("r0,r1", [(0.0, 2.5), (0.0, 1.0), (1.0, 2.5),
                                   (2.0, 4.0), (0.5, 0.75)])
def test_annulus_counts_match_listing(kind, r0, r1):
    region = sl.annulus_region(r0, r1)
    bases = _stack(kind, 300, 77 + int(10 * r1))
    assert np.array_equal(
        stats._primitive_counts(region, lattice._reduce_planar(bases)),
        listing_primitive_counts(region, bases))


HEX = np.array([[1.0, 0.5], [0.0, 0.8660254037844386]])


@pytest.mark.parametrize("basis,r", [
    (HEX, math.sqrt(3.0)), (HEX, math.sqrt(13.0)), (np.eye(2), 5.0),
    (np.eye(2), 65.0), (np.eye(2), math.sqrt(50.0)), (np.eye(2), 25.0)])
def test_boundary_lattices_are_flagged_and_listed(basis, r):
    # lattice points lie on the circle (up to the rounding of the basis),
    # so the interval count is not certified and the listing path decides
    stack = lattice._reduce_planar(basis[None])
    assert stats._interval_counts(stack, r)[1].all()
    L = sl.make_lattice(basis)
    for region in (sl.disk_region(r), sl.annulus_region(r / 2, r),
                   sl.annulus_region(0.5, r)):
        want = loop_primitive_counts(region, basis[None]).tolist()
        assert stats._primitive_counts(region, stack).tolist() == want
        assert [sl.count_primitive(L, region)] == want


@pytest.mark.parametrize("seed", range(3))
def test_count_primitive_on_certified_lattices_never_lists(monkeypatch,
                                                           seed):
    bases = _stack("haar", 150, 500 + seed)
    stack = lattice._reduce_planar(bases)
    regions = [sl.disk_region(math.sqrt(a / math.pi)) for a in (5, 40)]
    regions.append(sl.annulus_region(1.0, 2.5))
    for r in (1.0, 2.5, *(g.bounding_radius for g in regions)):
        assert not stats._interval_counts(stack, r)[1].any()
    want = [loop_primitive_counts(region, bases) for region in regions]

    def listing(*args):
        raise AssertionError("a certified lattice was listed")

    monkeypatch.setattr(lattice, "_planar_points", listing)
    with pytest.raises(AssertionError, match="was listed"):
        sl.count_primitive(sl.make_lattice(bases[0]), sl.box_region(2.0))
    for region, counts in zip(regions, want):
        assert [sl.count_primitive(sl.make_lattice(B), region)
                for B in bases] == counts.tolist()


def test_boundary_point_on_the_top_row_is_flagged():
    # w0 = (1, 0), w1 = (1/2, h) rotated: the only points on the circle
    # through -w0 + 2 w1 are +-(-w0 + 2 w1), on the rows x1 = +-2 that the
    # radius deflated by eta no longer reaches
    rng = np.random.default_rng(1)
    for _ in range(50):
        h, t = rng.uniform(0.9, 1.6), rng.uniform(0, 2 * math.pi)
        B = np.array([[math.cos(t), -math.sin(t)],
                      [math.sin(t), math.cos(t)]]) @ [[1.0, 0.5], [0.0, h]]
        region = sl.disk_region(float(np.linalg.norm(B @ [-1.0, 2.0])))
        stack = lattice._reduce_planar(B[None])
        assert stats._interval_counts(stack, region.bounding_radius)[1].all()
        want = loop_primitive_counts(region, B[None]).tolist()
        assert stats._primitive_counts(region, stack).tolist() == want
        assert [sl.count_primitive(sl.make_lattice(B), region)] == want


def test_cap_counts_interval_candidates_off_the_boundary(monkeypatch):
    # 2 * 81 + 1 candidates on the row x1 = 0, none near the circle, so
    # only the cap check sends the lattice to the listing path that raises
    bases = _stack("haar", 300, 9)
    bases[150] = np.diag([0.0123, 100.0])
    assert not stats._interval_counts(lattice._reduce_planar(bases[150:151]),
                                      1.0)[1].any()
    monkeypatch.setattr(lattice, "DEFAULT_POINT_CAP", 100)
    with pytest.raises(BudgetExceeded, match="163 candidates exceed cap 100"):
        stats._primitive_counts(sl.disk_region(1.0),
                                lattice._reduce_planar(bases))


@pytest.mark.parametrize("y", [1e8, 5e11])
def test_skewed_haar_basis_takes_the_listing_path(y):
    # a Haar basis far up the cusp (y near the 1e12 admission limit):
    # ||B|| ||U|| / l is about y, beyond what the relative 1e-9 width
    # covers, and r/l > 2^16 terms k at y = 5e11, so it is flagged
    s, x, c, sn = 1 / math.sqrt(y), 0.3, math.cos(0.7), math.sin(0.7)
    skew = np.array([[s * c, s * (x * c - y * sn)],
                     [s * sn, s * (x * sn + y * c)]])
    bases = np.concatenate([_stack("haar", 50, 3), skew[None]])
    region = sl.disk_region(math.sqrt(2.0 / math.pi))
    flagged = stats._interval_counts(lattice._reduce_planar(bases),
                                     region.bounding_radius)[1]
    assert flagged.tolist() == [False] * 50 + [True]
    assert np.array_equal(
        stats._primitive_counts(region, lattice._reduce_planar(bases)),
        listing_primitive_counts(region, bases))


def test_rogers_report_reduces_the_stack_once(monkeypatch):
    calls = []
    reduce = lattice._gauss_reduce_2d
    monkeypatch.setattr(lattice, "_gauss_reduce_2d",
                        lambda B: calls.append(len(B)) or reduce(B))
    regions = [sl.disk_region(2.0), sl.annulus_region(1.0, 2.0),
               sl.box_region(3.0)]
    rep = sl.rogers_moment_report(regions, N=1000, seed=4)
    assert calls == [1000]
    bases = sl.sample_unimodular_2d_arrays(1000, 4)[3]
    for region, e in zip(regions, rep.entries):
        assert e.counts == tuple(listing_primitive_counts(region, bases))


def test_rogers_rejects_small_sample():
    with pytest.raises(ValueError):
        sl.rogers_moment_report([sl.disk_region(1.0)], N=10, seed=0)


@pytest.mark.parametrize("region", [sl.disk_region(1e-300),
                                    sl.annulus_region(0.0, 1e-300),
                                    sl.box_region(1e-300)])
def test_rogers_rejects_regions_of_zero_area(region):
    # the area underflows to 0, and the moment ratios divide by it
    assert region.area == 0.0
    assert sl.count_primitive(sl.make_lattice(np.eye(2)), region) == 0
    with pytest.raises(ValueError, match="has zero area"):
        sl.rogers_moment_report([region], N=1000, seed=0)


def test_theorem2_requires_unbounded_body():
    with pytest.raises(UnboundedBody):
        sl.theorem2_experiment(sl.pnorm_ball(2, 2), [1.0, 2.0], N=5, seed=0)


def test_theorem2_monotone_and_decaying():
    report = sl.theorem2_experiment(sl.hyperbolic(2), [5.0, 20.0, 80.0],
                                    N=60, seed=13)
    assert report.budgets == (5.0, 20.0, 80.0)
    for row in report.lambda2:
        for a, b in zip(row, row[1:]):
            assert b <= a + 1e-12
    med = report.median_curve
    assert med[0] >= med[-1]
    # fraction below any threshold grows with the budget
    for frac_row in report.fraction_below:
        for a, b in zip(frac_row, frac_row[1:]):
            assert b >= a
    # the 1.0-threshold fraction should be clearly positive at budget 80
    idx = report.thresholds.index(1.0)
    assert report.fraction_below[idx][-1] > 0.5


def _theorem2_ball(monkeypatch, budgets, N, seed):
    """theorem2_experiment with every lattice's candidates taken from the
    whole ball of the largest budget, the path the hyperbola cross replaces."""
    with monkeypatch.context() as m:
        m.setattr(stats, "_budget_candidates", ball_candidates)
        return sl.theorem2_experiment(sl.hyperbolic(2), budgets, N, seed)


@pytest.mark.parametrize("budgets,N", [((10.0, 100.0, 300.0), 40),
                                       ((10.0, 100.0, 1000.0), 4)])
def test_theorem2_hyperbola_cross_matches_ball(monkeypatch, budgets, N):
    # the ball reference at budget 1000 costs about a second per lattice,
    # so the 40-lattice sweep stops at 300
    fast = sl.theorem2_experiment(sl.hyperbolic(2), budgets, N, seed=1111)
    assert fast == _theorem2_ball(monkeypatch, budgets, N, 1111)


def test_theorem2_beyond_the_ball_cap(monkeypatch):
    budgets = (10.0, 1000.0, 1e5)
    with pytest.raises(BudgetExceeded):
        _theorem2_ball(monkeypatch, budgets, 2, 7)
    report = sl.theorem2_experiment(sl.hyperbolic(2), budgets, N=2, seed=7)
    for row in report.lambda2:
        assert all(0 < v < math.inf for v in row)
        assert all(b <= a for a, b in zip(row, row[1:]))


@pytest.mark.parametrize("budgets,N", [([5.0, 20.0], 0), ([5.0, 20.0], -1),
                                       ([0.0, 20.0], 3), ([-5.0], 3),
                                       ([math.inf], 3)])
def test_theorem2_rejects_bad_sizes(budgets, N):
    with pytest.raises(ValueError):
        sl.theorem2_experiment(sl.hyperbolic(2), budgets, N, seed=0)


def test_theorem2_monotonicity_violation_raises(monkeypatch):
    monkeypatch.setattr(stats, "_lambda2_at_budgets",
                        lambda coeffs, f, n2, budgets: [0.1, 0.5])
    with pytest.raises(InvariantViolation):
        sl.theorem2_experiment(sl.hyperbolic(2), [5.0, 20.0], N=1, seed=0)


def _greedy_lambda2(coeffs, fvals, norms2, budgets):
    """lambda-hat_2 per budget by the rank definition of the greedy pick."""
    out = []
    for b in budgets:
        sel = np.flatnonzero(norms2 <= b * b)
        kept = reference_greedy(coeffs[sel], fvals[sel], 2)
        out.append(float(fvals[sel[kept[1]]]) if len(kept) == 2
                   else math.inf)
    return out


BIG = 2**32  # a cross product of 2^64 wraps to 0 in int64

_TIE_CASES = {
    # f-minimizers on one line: any of them leaves the same rows
    "one_line": ([(0, 0), (1, 0), (-1, 0), (3, 0), (0, 1), (1, 1)],
                 [0.0, 1.0, 1.0, 1.0, 2.0, 3.0]),
    # f-minimizers on two lines: lambda-hat_2 is min f
    "two_lines": ([(0, 0), (2, 0), (0, 1), (1, 0), (1, 1)],
                  [0.0, 1.0, 1.0, 1.0, 3.0]),
    "repeats": ([(1, 2), (0, 0), (1, 2), (2, 4), (1, 2), (1, 3), (1, 3)],
                [1.0, 0.0, 1.0, 1.0, 1.0, 5.0, 5.0]),
    # the zero row has f = 0 and infinite f is never picked
    "zero_and_inf": ([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)],
                     [0.0, 1.0, math.inf, math.inf, 4.0]),
    "all_inf": ([(0, 0), (1, 0), (0, 1)], [0.0, math.inf, math.inf]),
    "big": ([(0, 0), (BIG, 0), (0, BIG), (BIG, 3 * BIG), (1, 3),
             (2**40, 2**40 + 1), (2**40 + 1, 2**40 + 2)],
            [0.0, 1.0, 2.0, 0.5, 0.5, 7.0, 6.0]),
}


@pytest.mark.parametrize("case", sorted(_TIE_CASES))
def test_tie_free_lambda2_is_the_greedy_value(case):
    coeffs, fvals = (np.array(a) for a in _TIE_CASES[case])
    coeffs = coeffs.astype(np.int64)
    for norms2 in (np.arange(len(coeffs), dtype=float),
                   np.arange(len(coeffs), dtype=float)[::-1].copy()):
        budgets = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 10.0]
        got = stats._lambda2_at_budgets(coeffs, fvals, norms2, budgets)
        assert got == _greedy_lambda2(coeffs, fvals, norms2, budgets)


def test_tie_free_lambda2_takes_python_ints_past_the_hadamard_bound():
    # (2^32, 0) and (0, 2^32) are independent, but their int64 cross
    # product wraps to 0
    coeffs = np.array([(0, 0), (BIG, 0), (0, BIG)], dtype=np.int64)
    fvals, norms2 = np.array([0.0, 1.0, 2.0]), np.zeros(3)
    assert stats._lambda2_at_budgets(coeffs, fvals, norms2, [1.0]) == [2.0]


def test_tie_free_lambda2_matches_greedy_on_random_ties(rng):
    for _ in range(300):
        n = int(rng.integers(1, 12))
        coeffs = rng.integers(-3, 4, (n, 2))
        coeffs[0] = 0  # candidate sets hold the origin
        fvals = rng.choice([0.5, 1.0, 1.0, 2.0, math.inf], n)
        norms2 = rng.choice([0.1, 1.0, 4.0, 9.0], n)
        budgets = sorted(rng.choice([0.2, 1.0, 2.0, 3.0, 5.0], 3))
        assert (stats._lambda2_at_budgets(coeffs, fvals, norms2, budgets)
                == _greedy_lambda2(coeffs, fvals, norms2, budgets))


@pytest.mark.parametrize("budgets,N,seed", [
    ((0.9, 1.2, 1.6, 10.0, 300.0), 40, 2024),  # r0 >= 1; N even
    ((1.0, 1000.0), 5, 17),
    ((10.0, 100.0, 1000.0), 40, 1),
])
def test_theorem2_equals_the_per_lattice_greedy_path(budgets, N, seed):
    body = sl.hyperbolic(2)
    assert (sl.theorem2_experiment(body, budgets, N, seed)
            == loop_theorem2(body, budgets, N, seed))


@pytest.mark.parametrize("budgets,seed", [
    ((10.0, 100.0, 1000.0), 14),
    ((10.0, 1000.0, 1e5), 15),
    ((0.2, 0.5, 0.8, 1.1), 16),  # below and about r0 (near 1 at det 1)
])
def test_theorem2_chain_equals_the_per_lattice_path(budgets, seed):
    # 2000 Haar lattices: the chain (and the cross for the few it flags)
    # gives the report of the r0-ball and hyperbolic cross per lattice
    body = sl.hyperbolic(2)
    assert (sl.theorem2_experiment(body, budgets, 2000, seed)
            == loop_theorem2(body, budgets, 2000, seed))
