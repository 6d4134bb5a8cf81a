import math

import numpy as np
import pytest
from scipy.special import zeta

import starlat as sl
from starlat import lattice, stats
from starlat.errors import BudgetExceeded, InvariantViolation, UnboundedBody

from conftest import (ball_candidates, grid_primitive_count,
                      loop_primitive_counts)


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
    counts = stats._primitive_counts(region, bases)
    assert np.array_equal(counts, loop_primitive_counts(region, bases))
    for i in range(0, len(bases), 25):
        assert counts[i] == grid_primitive_count(
            bases[i], region.contains, region.bounding_radius)


def test_batched_counts_span_several_chunks():
    region = sl.disk_region(math.sqrt(40.0 / math.pi))
    bases = _stack("haar", 3000, 5)
    chunks = list(sl.lattice._planar_points(bases, region.bounding_radius))
    assert len(chunks) > 3
    idx = np.concatenate([c[0] for c in chunks])
    assert np.all(np.diff(idx) >= 0) and set(idx.tolist()) == set(range(3000))
    assert np.array_equal(stats._primitive_counts(region, bases),
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
        stats._primitive_counts(sl.disk_region(2.0), bases)


def test_level_cap_is_per_lattice_in_a_stack(monkeypatch):
    # the Haar stack holds far more than the cap's level nodes in total but
    # a few per lattice; a lattice with 201 points on a line (predicted: pi)
    # exceeds the cap inside the search
    region = sl.disk_region(1.0)
    bases = _stack("haar", 300, 9)
    want = loop_primitive_counts(region, bases)
    monkeypatch.setattr(lattice, "DEFAULT_POINT_CAP", 100)
    assert np.array_equal(stats._primitive_counts(region, bases), want)
    bases[150] = np.diag([0.01, 100.0])
    with pytest.raises(BudgetExceeded, match="201 candidates exceed cap 100"):
        stats._primitive_counts(region, bases)


def test_rogers_rejects_small_sample():
    with pytest.raises(ValueError):
        sl.rogers_moment_report([sl.disk_region(1.0)], N=10, seed=0)


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
