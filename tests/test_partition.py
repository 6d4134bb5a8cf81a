import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import zeta

import starlat as sl
from starlat import partition
from starlat.errors import DegenerateMass, InvariantViolation, VolumeStall

from conftest import loop_miss_count, loop_witnesses


def test_equipartition_symmetric_grid():
    xs = np.linspace(-1, 1, 21)
    pts = np.array([(a, b) for a in xs for b in xs])
    part = sl.two_line_equipartition(pts, tol=2.0)
    total = len(pts)
    for m in part.masses:
        assert abs(m - total / 4.0) <= 2.0
    assert 0.0 <= part.angle < math.pi / 2


def test_equipartition_random_clouds(rng):
    for _ in range(10):
        pts = rng.normal(rng.uniform(-3, 3, 2), rng.uniform(0.5, 2.0),
                         (4000, 2))
        part = sl.two_line_equipartition(pts, tol=10.0)
        for m in part.masses:
            assert abs(m - 1000.0) <= 10.0


def test_equipartition_weighted(rng):
    pts = rng.normal(0, 1, (5000, 2))
    w = rng.uniform(0.1, 1.0, 5000)
    part = sl.two_line_equipartition(pts, tol=0.02 * w.sum(), weights=w)
    quarter = w.sum() / 4.0
    for m in part.masses:
        assert abs(m - quarter) <= 0.02 * w.sum()


def test_equipartition_masses_match_quadrant_assignment(rng):
    pts = rng.normal(1.0, 1.5, (3000, 2))
    part = sl.two_line_equipartition(pts, tol=8.0)
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for p in pts:
        counts[sl.quadrant_of(part, p)] += 1
    assert tuple(counts[q] for q in (1, 2, 3, 4)) == tuple(
        int(round(m)) for m in part.masses)


def test_equipartition_rejects_dominant_atom():
    pts = np.zeros((10, 2))
    pts[1:] = np.random.default_rng(0).normal(0, 1, (9, 2))
    w = np.ones(10)
    w[0] = 100.0
    with pytest.raises(DegenerateMass):
        sl.two_line_equipartition(pts, tol=1.0, weights=w)


def test_equipartition_rejects_tiny_input():
    with pytest.raises(ValueError):
        sl.two_line_equipartition(np.zeros((3, 2)), tol=1.0)


def test_quadrant_tie_rule_counts_zero_positive():
    part = sl.Partition2D(center=(0.0, 0.0), angle=0.0,
                          masses=(1.0, 1.0, 1.0, 1.0))
    assert sl.quadrant_of(part, (0.0, 0.0)) == 1
    assert sl.quadrant_of(part, (0.0, -1.0)) == 4
    assert sl.quadrant_of(part, (-1.0, 0.0)) == 2
    assert sl.quadrant_of(part, (-1.0, -1.0)) == 3


def test_transversal_line_meets_at_most_three_quadrants(rng):
    pts = rng.normal(0.5, 2.0, (4000, 2))
    part = sl.two_line_equipartition(pts, tol=10.0)
    rep = sl.transversal_check(part, lines=10**4, seed=99)
    assert rep.max_met <= 3
    assert sum(rep.histogram) == rep.lines
    assert rep.histogram[4] == 0
    # generic lines do meet three quadrants often, so the bound is tight
    assert rep.histogram[3] > 0


def test_transversal_rejects_zero_lines():
    part = sl.Partition2D(center=(0.0, 0.0), angle=0.1,
                          masses=(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        sl.transversal_check(part, lines=0, seed=1)


def test_build_shells_plane_volumes_and_nesting():
    shells = sl.build_shells(sl.plane_body(), 2, 4, mc_points=2 * 10**4,
                             seed=3)
    assert [s.index for s in shells] == [1, 2, 3, 4]
    thresh = 4.0 * float(zeta(2))
    prev = 0.0
    for s in shells:
        assert s.inner == prev and s.outer > s.inner
        exact = math.pi * (s.outer**2 - s.inner**2)
        assert exact > thresh * s.index
        # radii should be close to the minimal admissible ones
        assert exact < thresh * s.index * 1.2
        prev = s.outer
    # first outer radius for the full plane: pi rho^2 = 4 zeta(2)
    assert shells[0].outer == pytest.approx(
        math.sqrt(4.0 * float(zeta(2)) / math.pi), rel=0.05)


def test_build_shells_finite_body_stalls():
    disk = sl.sublevel_body(sl.pnorm_ball(2, 2), 1.2)   # area ~ 4.52 < 6.58
    with pytest.raises(VolumeStall):
        sl.build_shells(disk, 2, 1, mc_points=2 * 10**4, seed=1)


def test_volume_stall_names_estimate_noise_and_threshold():
    # {|x1 x2| <= 1} has infinite area, but its estimate at seed 5 stalls
    # within Monte Carlo noise just above the threshold
    body = sl.sublevel_body(sl.hyperbolic(2), 1.0)
    with pytest.raises(VolumeStall, match=(
            r"^annulus volume estimate 19\.84 \(standard error 5\.98\) "
            r"stalled within Monte Carlo noise without clearing threshold "
            r"19\.74 by two standard errors; either V\(B\) is finite or "
            r"mc_points is too small$")):
        sl.build_shells(body, 2, 3, mc_points=10**5, seed=5)


def test_build_shells_hyperbolic_sublevel():
    body = sl.sublevel_body(sl.hyperbolic(2), 4.0)
    shells = sl.build_shells(body, 2, 2, mc_points=5 * 10**4, seed=2)
    assert shells[0].outer < shells[1].outer
    assert shells[0].est_volume > 4.0 * float(zeta(2))


def test_sample_shell_points_inside():
    body = sl.sublevel_body(sl.hyperbolic(2), 4.0)
    shells = sl.build_shells(body, 2, 1, mc_points=3 * 10**4, seed=5)
    pts = sl.sample_shell_points(shells[0], 2000, seed=8)
    assert pts.shape == (2000, 2)
    r = np.linalg.norm(pts, axis=1)
    assert np.all((r >= shells[0].inner) & (r <= shells[0].outer))
    assert np.all(body(pts))


def test_extract_witnesses_z2_plane():
    L = sl.make_lattice([[1, 0], [0, 1]])
    shells = sl.build_shells(sl.plane_body(), 2, 3, mc_points=2 * 10**4,
                             seed=12)
    config = sl.PipelineConfig()
    parts = sl.build_partitions(shells, config, seed=12)
    rep = sl.extract_witnesses(L, shells, parts)
    seen = set()
    for t in rep.tuples:
        a, b = t.points
        assert sl.is_primitive(L, a) and sl.is_primitive(L, b)
        det = a.coeffs[0] * b.coeffs[1] - a.coeffs[1] * b.coeffs[0]
        assert det != 0
        assert t.quadrants[0] != t.quadrants[1]
        shell = shells[t.shell_index - 1]
        for p in (a, b):
            assert shell.inner < p.norm <= shell.outer * (1 + 1e-9)
            assert p.coeffs not in seen   # tuples are pairwise disjoint
            seen.add(p.coeffs)


def test_extract_witnesses_budget_truncation():
    L = sl.make_lattice([[1, 0], [0, 1]])
    shells = sl.build_shells(sl.plane_body(), 2, 2, mc_points=2 * 10**4,
                             seed=4)
    parts = sl.build_partitions(shells, sl.PipelineConfig(), seed=4)
    rep = sl.extract_witnesses(L, shells, parts, budget=shells[0].inner + 0.1)
    # a budget below the second shell forces a failure event there
    assert any(f[0] == 2 for f in rep.failures)


def test_extract_witnesses_collinear_representatives_raise(monkeypatch):
    # distinct primitive rows in four quadrants cannot be collinear; force
    # it to check that the pipeline stops instead of recording a failure
    # (a repeated primitive row, inside the first shell, stands in for it)
    rows = np.array([[1, 0], [-1, 0], [1, 0], [-1, 0]])
    monkeypatch.setattr(partition, "enumerate_ball_arrays",
                        lambda L, R, cap: (rows, rows * 1.0))
    monkeypatch.setattr(partition, "_quadrants_of_rows",
                        lambda part, coords: np.array([1, 2, 3, 4]))
    L = sl.make_lattice([[1, 0], [0, 1]])
    shells = sl.build_shells(sl.plane_body(), 2, 1, mc_points=2 * 10**4,
                             seed=4)
    parts = sl.build_partitions(shells, sl.PipelineConfig(), seed=4)
    with pytest.raises(InvariantViolation):
        sl.extract_witnesses(L, shells, parts)


@pytest.mark.parametrize("t,n,seed", [(None, 10, 0), (2.0, 5, 1),
                                      (1.0, 2, 2)])
def test_extract_witnesses_match_per_shell_loop(t, n, seed):
    body = sl.plane_body() if t is None \
        else sl.sublevel_body(sl.hyperbolic(2), t)
    config = sl.PipelineConfig(body=body, mc_points=2 * 10**4,
                               partition_points=3000)
    shells = sl.build_shells(body, 2, n, config.mc_points, seed)
    parts = sl.build_partitions(shells, config, seed)
    mid = 0.5 * (shells[n // 2].inner + shells[n // 2].outer)
    bases = [np.eye(2), *sl.sample_unimodular_2d_arrays(60, seed)[3]]
    tuples = failures = 0
    for B in bases:
        L = sl.make_lattice(B)
        for budget in (math.inf, mid):
            rep = sl.extract_witnesses(L, shells, parts, budget)
            assert rep == loop_witnesses(L, shells, parts, budget)
            tuples, failures = (tuples + len(rep.tuples),
                                failures + len(rep.failures))
    assert tuples and failures


def test_extract_witnesses_shell_rule():
    # the points of norm 1 lie beyond the first shell's outer radius but
    # inside the 1e-9 inflation of its enumeration radius: they belong to
    # the second shell only, and to no shell when the second starts at 1.2
    L = sl.make_lattice(np.eye(2))
    r = 1.0 - 1e-12
    shells = [sl.Shell(1, 0.0, r, sl.plane_body(), 1.0, 0.0),
              sl.Shell(2, r, 2.0, sl.plane_body(), 1.0, 0.0)]
    part = sl.Partition2D(center=(0.0, 0.0), angle=math.pi / 4,
                          masses=(1.0, 1.0, 1.0, 1.0))
    rep = sl.extract_witnesses(L, shells, [part, part])
    assert rep.failures == ((1, (1, 2, 3, 4)),)
    assert [t.shell_index for t in rep.tuples] == [2]
    gap = [shells[0], replace(shells[1], inner=1.2)]
    rep = sl.extract_witnesses(L, gap, [part, part])
    assert rep.failures[0] == (1, (1, 2, 3, 4))
    assert sl.extract_witnesses(L, [], []) == sl.WitnessReport((), ())
    for bad in (shells[::-1], [shells[0], replace(shells[1], inner=0.5)]):
        with pytest.raises(ValueError, match="ordered and disjoint"):
            sl.extract_witnesses(L, bad, [part, part])


def test_part_miss_rate_runs_and_bounds():
    rep = sl.part_miss_rate(1, samples=150, config=sl.PipelineConfig(),
                            seed=21)
    assert rep.samples == 150
    assert 0.0 <= rep.ci_low <= rep.rate <= rep.ci_high <= 1.0
    assert rep.misses == round(rep.rate * rep.samples)


@pytest.mark.parametrize("n,budget", [(1, math.inf), (3, math.inf),
                                      (3, 2.5)])
def test_part_miss_rate_matches_per_lattice_loop(n, budget):
    config = sl.PipelineConfig(mc_points=2 * 10**4, budget=budget)
    rep = sl.part_miss_rate(n, samples=400, config=config, seed=13)
    assert rep.misses == loop_miss_count(n, 400, config, 13)
    body = sl.sublevel_body(sl.hyperbolic(2), 2.0)
    config = sl.PipelineConfig(body=body, mc_points=2 * 10**4, budget=budget)
    rep = sl.part_miss_rate(n, samples=200, config=config, seed=14)
    assert rep.misses == loop_miss_count(n, 200, config, 14)


def test_part_miss_rate_rejects_few_samples():
    with pytest.raises(ValueError):
        sl.part_miss_rate(1, samples=10, config=sl.PipelineConfig(), seed=0)
