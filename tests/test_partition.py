import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import zeta

import starlat as sl
from starlat import partition
from starlat.errors import InvariantViolation, VolumeStall

from conftest import (loop_miss_count, loop_witnesses, mean_annulus_volume,
                      norm_annulus_samples, norm_first_classify_rows,
                      weighted_masses_at, weighted_median_cut)


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


def test_equipartition_masses_match_quadrant_assignment(rng):
    pts = rng.normal(1.0, 1.5, (3000, 2))
    part = sl.two_line_equipartition(pts, tol=8.0)
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for q in partition._quadrants_of_rows([part], pts, 0).tolist():
        counts[q] += 1
    assert tuple(counts[q] for q in (1, 2, 3, 4)) == tuple(
        int(round(m)) for m in part.masses)


def _samples_with_ties(rng, n):
    """n planar points with repeated coordinates and repeated points."""
    pts = np.round(rng.normal(0, 1, (n, 2)), 1)
    pts[n // 3: n // 2] = pts[0]
    return pts


@pytest.mark.parametrize("n", [8, 9, 10, 11, 64, 101, 3000])
def test_median_cut_and_masses_match_the_weighted_path(rng, n):
    # the unit-weight cut, center and quadrant counts equal the weighted
    # path's on unit weights, with ties, repeated points, odd and even n
    ones = np.ones(n)
    for pts in (rng.normal(0, 1, (n, 2)), _samples_with_ties(rng, n),
                np.zeros((n, 2)), np.repeat(rng.normal(0, 1, (2, 2)),
                                            [n // 2, n - n // 2], axis=0)):
        for vals in pts.T:
            assert partition._median_cut(vals) == weighted_median_cut(vals,
                                                                      ones)
        for theta in (0.0, 0.3, math.pi / 4, 1.2):
            assert partition._masses_at(pts, theta) == weighted_masses_at(
                pts, ones, theta)


@pytest.mark.parametrize("seed", range(4))
def test_equipartition_matches_the_weighted_path(monkeypatch, seed):
    # equal partitions, or NoConvergence on both paths
    rng = np.random.default_rng(seed)
    samples = [rng.normal(rng.uniform(-3, 3, 2), 1.5, (n, 2))
               for n in (8, 9, 200, 3001)]
    samples += [np.round(rng.normal(0, 1, (500, 2)), 1),
                _samples_with_ties(rng, 400)]

    def outcome(pts):
        try:
            return sl.two_line_equipartition(
                pts, tol=max(0.01 * len(pts) / 4, 1.0))
        except sl.NoConvergence:
            return "NoConvergence"

    got = [outcome(p) for p in samples]
    assert any(isinstance(g, sl.Partition2D) for g in got)
    monkeypatch.setattr(partition, "_masses_at", lambda pts, theta:
                        weighted_masses_at(pts, np.ones(len(pts)), theta))
    assert got == [outcome(p) for p in samples]


def test_equipartition_rejects_tiny_input():
    with pytest.raises(ValueError):
        sl.two_line_equipartition(np.zeros((3, 2)), tol=1.0)


def test_quadrant_tie_rule_counts_zero_positive():
    part = sl.Partition2D(center=(0.0, 0.0), angle=0.0,
                          masses=(1.0, 1.0, 1.0, 1.0))
    pts = np.array([(0.0, 0.0), (0.0, -1.0), (-1.0, 0.0), (-1.0, -1.0)])
    assert partition._quadrants_of_rows([part], pts, 0).tolist() == [1, 4, 2, 3]


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


def test_build_shells_doubling_ends_after_sixty_doublings(monkeypatch):
    # an estimate that grows by more than 1e-9 every four doublings (so it
    # never stalls) without clearing the threshold, with no Monte Carlo
    # noise, ends the doubling phase after 60 doublings of the radius step
    outer = []

    def estimate(body, d, r_in, r_out, mc_points, ss):
        outer.append(r_out)
        return -1.0 / len(outer), 0.0
    monkeypatch.setattr(partition, "_estimate_annulus_volume", estimate)
    with pytest.raises(VolumeStall, match="^doubling exhausted without "
                       "reaching the shell volume threshold$"):
        sl.build_shells(sl.plane_body(), 2, 1, mc_points=100, seed=0)
    assert outer == [2.0**k for k in range(61)]


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
            assert shell.inner < math.hypot(*p.coords) \
                <= shell.outer * (1 + 1e-9)
            assert p.coeffs not in seen   # tuples are pairwise disjoint
            seen.add(p.coeffs)


def test_extract_witnesses_collinear_representatives_raise(monkeypatch):
    # distinct primitive rows in four quadrants cannot be collinear; force
    # it to check that the pipeline stops instead of recording a failure
    # (a repeated primitive row, inside the first shell, stands in for it)
    rows = np.array([[1, 0], [-1, 0], [1, 0], [-1, 0]])
    monkeypatch.setattr(partition, "enumerate_ball_arrays",
                        lambda L, R: (rows, rows * 1.0))
    monkeypatch.setattr(partition, "_quadrants_of_rows",
                        lambda parts, coords, k: np.array([1, 2, 3, 4]))
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
    bases = [np.eye(2), *sl.sample_unimodular_2d_arrays(60, seed)[3]]
    tuples = failures = 0
    for B in bases:
        L = sl.make_lattice(B)
        rep = sl.extract_witnesses(L, shells, parts)
        assert rep == loop_witnesses(L, shells, parts)
        tuples, failures = (tuples + len(rep.tuples),
                            failures + len(rep.failures))
    assert tuples and failures


def test_extract_witnesses_shell_rule():
    # the points of norm 1 lie beyond the first shell's outer radius but
    # inside the 1e-9 inflation of its enumeration radius: they belong to
    # the second shell only, and to no shell when the second starts at 1.2
    L, plane = sl.make_lattice(np.eye(2)), sl.plane_body()
    r = 1.0 - 1e-12
    shells = [sl.Shell(1, 0.0, r, plane, 1.0, 0.0, 2),
              sl.Shell(2, r, 2.0, plane, 1.0, 0.0, 2)]
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


@pytest.mark.parametrize("n", [1, 3])
def test_part_miss_rate_matches_per_lattice_loop(n):
    config = sl.PipelineConfig(mc_points=2 * 10**4)
    rep = sl.part_miss_rate(n, samples=400, config=config, seed=13)
    assert rep.misses == loop_miss_count(n, 400, config, 13)
    body = sl.sublevel_body(sl.hyperbolic(2), 2.0)
    config = sl.PipelineConfig(body=body, mc_points=2 * 10**4)
    rep = sl.part_miss_rate(n, samples=200, config=config, seed=14)
    assert rep.misses == loop_miss_count(n, 200, config, 14)


def test_part_miss_rate_rejects_few_samples():
    with pytest.raises(ValueError):
        sl.part_miss_rate(1, samples=10, config=sl.PipelineConfig(), seed=0)


def test_plane_shells_need_no_draws(monkeypatch):
    # an all-true predicate the library does not recognize takes the Monte
    # Carlo path; the plane's shells must come out bit-equal without it
    all_true = lambda pts: np.ones(len(pts), dtype=bool)
    drawn = [sl.build_shells(all_true, 2, 6, 2 * 10**4, seed)
             for seed in range(2)]

    def no_draws(*args):
        raise AssertionError("a plane shell drew Monte Carlo points")

    monkeypatch.setattr(partition, "_annulus_samples", no_draws)
    plane = sl.plane_body()
    wrapped = functools.wraps(plane)(lambda pts: plane(pts))
    for seed, ref in enumerate(drawn):
        for body in (plane, wrapped):
            got = sl.build_shells(body, 2, 6, 2 * 10**4, seed)
            assert [(s.inner, s.outer, s.est_volume, s.stderr)
                    for s in got] == [(s.inner, s.outer, s.est_volume,
                                       s.stderr) for s in ref]
    with pytest.raises(AssertionError, match="drew"):
        sl.build_shells(all_true, 2, 1, 100, 0)


@pytest.mark.parametrize("name,n", [("plane", 6), ("hyperbola", 3),
                                    ("ball", 2), ("ball3", 2)])
def test_shells_and_partitions_match_the_norm_reference(monkeypatch, name,
                                                        n):
    body = {"plane": sl.plane_body(),
            "hyperbola": sl.sublevel_body(sl.hyperbolic(2), 2.0),
            "ball": sl.sublevel_body(sl.pnorm_ball(2, 2), 3.0),
            "ball3": sl.sublevel_body(sl.pnorm_ball(3, 2), 3.0)}[name]
    d = 3 if name == "ball3" else 2
    config = sl.PipelineConfig(body=body, mc_points=2 * 10**4,
                               partition_points=3000)

    def run(seed):
        shells = sl.build_shells(body, d, n, config.mc_points, seed)
        if d == 3:  # shells only: partitions and samples are planar
            return repr(shells)
        parts = sl.build_partitions(shells, config, seed)
        pts = sl.sample_shell_points(shells[-1], 2000, seed + 9)
        return repr((shells, parts)), pts.tobytes()

    got = [run(seed) for seed in (0, 1)]
    monkeypatch.setattr(partition, "_annulus_samples", norm_annulus_samples)
    assert got == [run(seed) for seed in (0, 1)]


def test_sample_shell_points_starves_after_the_batch_limit(monkeypatch):
    calls = []

    def nothing(pts):
        calls.append(len(pts))
        return np.zeros(len(pts), dtype=bool)

    monkeypatch.setattr(partition, "_MAX_BATCHES", 3)
    shell = sl.Shell(1, 0.0, 2.0, nothing, 1.0, 0.0, 2)
    with pytest.raises(sl.NoConvergence, match="rejection sampling starved"):
        sl.sample_shell_points(shell, 10, seed=0)
    assert calls == [1024] * 3


def test_extract_witnesses_refuses_two_bodies_and_a_short_partition_list():
    # the shells of one extraction share one body object, called once per
    # lattice on all rows; two bodies, or an equal body that is another
    # object, and a partition list one short raise ValueError
    seen = []

    def counted(pts):
        seen.append(len(pts))
        return hyp(pts)

    plane, hyp = sl.plane_body(), sl.sublevel_body(sl.hyperbolic(2), 2.0)
    config = sl.PipelineConfig(body=counted, mc_points=2 * 10**4,
                               partition_points=3000)
    shells = sl.build_shells(counted, 2, 4, config.mc_points, 3)
    parts = sl.build_partitions(shells, config, 3)
    tuples = failures = 0
    for B in [np.eye(2), *sl.sample_unimodular_2d_arrays(30, 3)[3]]:
        L = sl.make_lattice(B)
        for k in (4, 2):  # all shells, then the first two
            seen.clear()
            rep = sl.extract_witnesses(L, shells[:k], parts[:k])
            assert len(seen) == 1
            assert rep == loop_witnesses(L, shells[:k], parts[:k])
            tuples += len(rep.tuples)
            failures += len(rep.failures)
    assert tuples and failures
    planes = [replace(s, body=sl.plane_body()) for s in shells]
    assert planes[0].body == planes[1].body
    for bad in ([replace(s, body=(counted, hyp)[i % 2])
                 for i, s in enumerate(shells)],
                [*shells[:3], replace(shells[3], body=plane)], planes):
        with pytest.raises(ValueError, match="one body for all shells"):
            sl.extract_witnesses(L, bad, parts)
    for shl, prt in ((shells, parts[:-1]), (shells[:1], parts)):
        with pytest.raises(ValueError, match="one partition each"):
            sl.extract_witnesses(L, shl, prt)


def test_build_shells_records_the_dimension_and_samples_only_planar_ones():
    # 3D shells are a capability of build_shells; their samples, and so
    # their partitions, are planar only
    ball3 = sl.sublevel_body(sl.pnorm_ball(3, 2), 3.0)
    shells = sl.build_shells(ball3, 3, 2, 2 * 10**4, 0)
    assert [s.dim for s in shells] == [3, 3]
    with pytest.raises(sl.DimensionMismatch, match="planar, not 3D"):
        sl.sample_shell_points(shells[-1], 100, 0)
    with pytest.raises(sl.DimensionMismatch, match="planar, not 3D"):
        sl.build_partitions(shells, sl.PipelineConfig(body=ball3), 0)
    planar = sl.build_shells(sl.plane_body(), 2, 2, 2 * 10**4, 0)
    assert [s.dim for s in planar] == [2, 2]
    assert sl.sample_shell_points(planar[-1], 100, 0).shape == (100, 2)


def _classification_case(name):
    """(shells, partitions) of a cross-check case; every shell of a case
    shares one body object."""
    plane = sl.plane_body()
    hyp2 = sl.sublevel_body(sl.hyperbolic(2), 2.0)
    config = sl.PipelineConfig(mc_points=2 * 10**4, partition_points=3000)
    if name in ("plane", "emptied"):
        shells = sl.build_shells(plane, 2, 10, config.mc_points, 0)
    else:
        shells = sl.build_shells(hyp2, 2, 5, config.mc_points, 1)
    if name == "emptied":  # no point of the three inner shells is inside
        r2 = shells[2].outer ** 2
        body = lambda pts: (pts * pts).sum(axis=1) > r2
        shells = [replace(s, body=body) for s in shells]
    elif name == "hyperbola1":
        # build_shells stalls at t = 1 for four shells (VolumeStall), so
        # the t = 1 body takes the radii of the t = 2 shells
        hyp1 = sl.sublevel_body(sl.hyperbolic(2), 1.0)
        shells = [replace(s, body=hyp1) for s in shells[:4]]
    # partitions of the shells' own samples; "emptied" keeps the plane's
    parts = sl.build_partitions(
        [replace(s, body=plane) for s in shells] if name == "emptied"
        else shells, config, 0)
    return shells, parts


@pytest.mark.parametrize("name", ["plane", "hyperbola1", "hyperbola2",
                                  "emptied"])
def test_body_first_classification_matches_the_norm_first_reference(name):
    shells, parts = _classification_case(name)
    haar = sl.sample_unimodular_2d_arrays(20, 5)[3]
    # Haar bases come reduced (U = I); times a unimodular matrix they do not
    skewed = [B @ sl.random_unimodular(2, seed=j, steps=6)
              for j, B in enumerate(haar)]
    lattices = [sl.make_lattice(B) for B in (np.eye(2), *haar, *skewed)]
    assert sum(not np.array_equal(L.U, np.eye(2)) for L in lattices) >= 15
    tuples = failures = 0
    for L in lattices:
        coeffs, coords = sl.enumerate_ball_arrays(L, shells[-1].outer)
        got, want = (f(shells, parts, coeffs, coords) for f in (
            partition._classify_rows, norm_first_classify_rows))
        assert set(zip(*(a.tolist() for a in got))) \
            == set(zip(*(a.tolist() for a in want)))
        assert len(got[0]) == len(want[0])
        rep = sl.extract_witnesses(L, shells, parts)
        assert rep == loop_witnesses(L, shells, parts)
        tuples, failures = (tuples + len(rep.tuples),
                            failures + len(rep.failures))
    assert tuples
    if name == "emptied":
        assert failures >= 3 * len(lattices)


@pytest.mark.parametrize("t,n,seed", [(None, 6, 0), ("all", 4, 1),
                                      (1.0, 2, 2), (1.0, 3, 5),
                                      (2.0, 5, 1)])
def test_build_shells_hit_count_matches_the_mean_reference(monkeypatch, t,
                                                           n, seed):
    # the hit fraction as a count over mc_points is np.mean's float; a
    # stall names the same estimate and standard error
    body = {None: sl.plane_body(),
            "all": lambda pts: np.ones(len(pts), dtype=bool)}.get(t) \
        or sl.sublevel_body(sl.hyperbolic(2), t)

    def run():
        try:
            shells = sl.build_shells(body, 2, n, 2 * 10**4, seed)
        except VolumeStall as exc:
            return str(exc)
        return [(s.inner, s.outer, s.est_volume, s.stderr) for s in shells]

    got = run()
    monkeypatch.setattr(partition, "_estimate_annulus_volume",
                        mean_annulus_volume)
    assert got == run()
    assert isinstance(got, str) == ((t, n) == (1.0, 3))


def test_extract_witnesses_refuses_a_non_planar_lattice():
    shells = sl.build_shells(sl.plane_body(), 2, 2, 2 * 10**4, 0)
    parts = sl.build_partitions(shells, sl.PipelineConfig(), 0)
    for shl, prt in ((shells, parts), ([], [])):
        with pytest.raises(sl.DimensionMismatch,
                           match="planar, got dimension 3"):
            sl.extract_witnesses(sl.make_lattice(np.eye(3)), shl, prt)


def test_extract_witnesses_refuses_non_planar_shells():
    # 3D shells on a planar lattice would have their 3D body evaluated on
    # planar points; hand-made partitions stand in for the planar ones
    # that build_partitions refuses to make for them
    ball3 = sl.sublevel_body(sl.pnorm_ball(3, 2), 3.0)
    shells = sl.build_shells(ball3, 3, 2, 2 * 10**4, 0)
    part = sl.Partition2D(center=(0.0, 0.0), angle=math.pi / 4,
                          masses=(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(sl.DimensionMismatch,
                       match="planar, got dimension 3"):
        sl.extract_witnesses(sl.make_lattice(np.eye(2)), shells,
                             [part, part])


@pytest.mark.parametrize("count", [0, -5])
def test_sample_shell_points_refuses_fewer_than_one_point(count):
    shell = sl.Shell(1, 0.0, 2.0, sl.plane_body(), 1.0, 0.0, 2)
    with pytest.raises(ValueError, match="at least one sample point"):
        sl.sample_shell_points(shell, count, seed=0)


def test_a_point_on_a_shared_edge_belongs_to_the_inner_shell():
    # ||(1, 0)||^2 is exactly the shared edge 1.0: the point is in
    # (0, 1] and not in (1, 2]
    L, plane = sl.make_lattice(np.eye(2)), sl.plane_body()
    shells = [sl.Shell(1, 0.0, 1.0, plane, 1.0, 0.0, 2),
              sl.Shell(2, 1.0, 2.0, plane, 1.0, 0.0, 2)]
    part = sl.Partition2D(center=(0.0, 0.0), angle=math.pi / 4,
                          masses=(1.0, 1.0, 1.0, 1.0))
    rep = sl.extract_witnesses(L, shells, [part, part])
    assert [t.shell_index for t in rep.tuples] == [1, 2]
    assert [math.hypot(*p.coords) for p in rep.tuples[0].points] \
        == [1.0, 1.0]
    assert rep == loop_witnesses(L, shells, [part, part])
