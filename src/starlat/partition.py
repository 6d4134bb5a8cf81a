"""Shells, the two-line equipartition, and witness extraction.

This is the executable core of the witness pipeline in the plane: annular
shells of an infinite-volume Borel set are built so each holds volume
exceeding 2^d * zeta(d) * n, a two-orthogonal-line dissection splits each
shell's Monte Carlo sample into four equal parts that no affine line can
meet simultaneously, and per-quadrant primitive lattice points yield
linearly independent witness pairs, one tuple per shell.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bodies import Sublevel as sublevel_body, plane_body  # public here too
from .errors import (DimensionMismatch, InvariantViolation, NoConvergence,
                     VolumeStall)
from .haar import sample_unimodular_2d_arrays
from .lattice import (Lattice, LatticePoint, _fold, _planar_points,
                      _reduce_planar, _unit_ball_volume, _zeta,
                      enumerate_ball_arrays)

BodyPredicate = Callable[[np.ndarray], np.ndarray]  # (N, d) -> bool mask


@dataclass(frozen=True)
class Shell:
    index: int
    inner: float
    outer: float
    body: BodyPredicate
    est_volume: float
    stderr: float
    dim: int  # of the annuli, as build_shells was given it


@dataclass(frozen=True)
class Partition2D:
    center: tuple[float, float]
    angle: float                      # in [0, pi/2)
    masses: tuple[float, float, float, float]


@dataclass(frozen=True)
class WitnessTuple:
    shell_index: int
    points: tuple[LatticePoint, LatticePoint]
    quadrants: tuple[int, int]


@dataclass(frozen=True)
class WitnessReport:
    tuples: tuple[WitnessTuple, ...]
    failures: tuple[tuple[int, tuple[int, ...]], ...]  # (shell, empty quads)


@dataclass(frozen=True)
class TransversalReport:
    lines: int
    max_met: int                      # must be <= 3
    histogram: tuple[int, ...]        # counts of lines meeting 0..4 quadrants


@dataclass(frozen=True)
class RateReport:
    n: int
    samples: int
    misses: int
    rate: float
    ci_low: float
    ci_high: float


# ---------------------------------------------------------------------------
# two-line equipartition


# quadrant index by 2 * (u >= 0) + (v >= 0); exact zeros count positive
_QUADRANT_BY_SIGNS = np.array([3, 2, 4, 1], dtype=np.int64)
_PARTITION_TOL_FRAC = 0.01  # equipartition tolerance, a fraction of total/4
_MAX_BATCHES = 10**4  # rejection batches before sample_shell_points gives up
_SPAN = 10.0  # transversal_check's line anchors: center +- _SPAN per axis


def _median_cut(vals: np.ndarray) -> float:
    """Cut just above the ceil(n/2)-th smallest value v (found by selection):
    midway to the least larger value, or v itself when there is none."""
    i = (len(vals) + 1) // 2 - 1
    v = np.partition(vals, i)[i]
    above = vals[vals > v]
    return 0.5 * (v + above.min()) if len(above) else float(v)


def _turned(c, s, x, y):
    """Coordinates of (x, y) along the axes turned by cosine c and sine s."""
    return x * c + y * s, -x * s + y * c


def _masses_at(pts: np.ndarray, theta: float):
    c, s = math.cos(theta), math.sin(theta)
    uu, vv = _turned(c, s, pts[:, 0], pts[:, 1])
    cx, cy = _median_cut(uu), _median_cut(vv)
    q = _QUADRANT_BY_SIGNS[2 * ((uu - cx) >= 0.0) + ((vv - cy) >= 0.0)]
    center = tuple(map(float, _turned(c, -s, cx, cy)))  # turned back
    return center, tuple(map(float, np.bincount(q, minlength=5)[1:]))


def two_line_equipartition(points, tol: float) -> Partition2D:
    """Split a planar sample of n points into four parts of about n/4 points
    (masses within tol of n/4) by two orthogonal lines, each line halving
    the sample.

    Bisection runs on g(theta) = m1 - m2; since a quarter turn permutes the
    quadrants cyclically, g(theta + pi/2) = -g(theta) and a sign change is
    guaranteed on [0, pi/2].
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 8:
        raise ValueError("need at least 8 planar sample points")
    quarter = len(pts) / 4.0
    lo, hi, mid, g0 = 0.0, math.pi / 2.0, 0.0, None
    while hi - lo >= 1e-15:  # theta = 0, then about 51 halvings
        center, m = _masses_at(pts, mid)
        if max(abs(v - quarter) for v in m) <= tol:
            return Partition2D(center=center, angle=mid, masses=m)
        g = m[0] - m[1]
        g0 = g if g0 is None else g0
        lo, hi = (mid, hi) if (g > 0) == (g0 > 0) else (lo, mid)
        mid = 0.5 * (lo + hi)
    raise NoConvergence(
        "equipartition bisection stalled; likely atoms on the lines")


def _quadrants_of_rows(partitions, pts: np.ndarray, k) -> np.ndarray:
    """Quadrant of each row of pts in partitions[k], k an index or per row,
    by rotated-sign signature: 1 = (+,+), 2 = (-,+), 3 = (-,-), 4 = (+,-)."""
    cx, cy, c, s = np.array([(*p.center, math.cos(p.angle), math.sin(p.angle))
                             for p in partitions]).take(k, axis=0).T
    u, v = _turned(c, s, pts[:, 0] - cx, pts[:, 1] - cy)
    return _QUADRANT_BY_SIGNS[2 * (u >= 0.0) + (v >= 0.0)]


# ---------------------------------------------------------------------------
# transversal checker


def transversal_check(partition: Partition2D, lines: int,
                      seed: int) -> TransversalReport:
    """Sample random affine lines and count how many of the four open
    quadrants each one meets.  Two crossing lines cut any other line into
    at most three pieces, so a count of 4 is a hard geometry bug."""
    if lines < 1:
        raise ValueError("need at least one probe line")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ang = rng.uniform(0.0, math.pi, lines)
    P = np.array(partition.center) + rng.uniform(-_SPAN, _SPAN, (lines, 2))
    cs = math.cos(partition.angle), math.sin(partition.angle)
    a, c = _turned(*cs, P[:, 0] - partition.center[0],
                   P[:, 1] - partition.center[1])
    b, d = _turned(*cs, np.cos(ang), np.sin(ang))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(b != 0.0, -a / b, np.nan)
        t2 = np.where(d != 0.0, -c / d, np.nan)
    r1, r2 = np.fmin(t1, t2), np.fmax(t1, t2)  # a NaN takes the other
    S = np.stack([r1 - 1.0, 0.5 * (r1 + r2), r2 + 1.0])   # (3, lines)
    U, V = a + b * S, c + d * S
    valid = (U != 0.0) & (V != 0.0)
    bits = np.where(valid, 1 << (2 * (U > 0.0) + (V > 0.0)), 0)
    counts = np.bitwise_count(np.bitwise_or.reduce(bits))
    hist = np.bincount(counts, minlength=5)
    return TransversalReport(lines=lines, max_met=int(counts.max()),
                             histogram=tuple(int(h) for h in hist[:5]))


# ---------------------------------------------------------------------------
# shells


def _annulus_samples(rng: np.random.Generator, d: int, r_in: float,
                     r_out: float, count: int) -> np.ndarray:
    pts = rng.standard_normal((count, d))
    norm = np.sqrt(_fold(np.add, pts * pts))
    radii = (rng.random(count) * (r_out**d - r_in**d) + r_in**d) ** (1.0 / d)
    for col in pts.T:  # x / ||x|| first, then times the radius: same bits
        col /= norm
        col *= radii
    return pts


def _estimate_annulus_volume(body: BodyPredicate, d: int, r_in: float,
                             r_out: float, mc_points: int,
                             ss: np.random.SeedSequence):
    shell_vol = _unit_ball_volume(d) * (r_out**d - r_in**d)
    if inspect.unwrap(body) == plane_body():
        return shell_vol, 0.0  # what a draw gives: a mean of exactly 1
    rng = np.random.default_rng(ss)
    pts = _annulus_samples(rng, d, r_in, r_out, mc_points)
    p = np.count_nonzero(body(pts)) / mc_points  # np.mean's float, in [0, 1]
    return p * shell_vol, shell_vol * math.sqrt(p * (1.0 - p) / mc_points)


def build_shells(body: BodyPredicate, d: int, n_max: int,
                 mc_points: int, seed: int) -> list[Shell]:
    """Greedy annular shells with Monte Carlo volume certification.

    The n-th outer radius is the (bisected) smallest radius whose annulus
    volume estimate minus two standard errors exceeds 2^d * zeta(d) * n.
    """
    if mc_points < 1:
        raise ValueError("mc_points must be at least 1")
    if n_max < 1:
        raise ValueError(f"need at least one shell, got n_max={n_max}")
    zd = _zeta(d)
    shells, rho_prev = [], 0.0
    for n in range(1, n_max + 1):
        thresh = (2.0**d) * zd * n
        attempt = [0]

        def passes(ro):
            ss = np.random.SeedSequence(entropy=seed,
                                        spawn_key=(n, attempt[0]))
            attempt[0] += 1
            est, se = _estimate_annulus_volume(body, d, rho_prev, ro,
                                               mc_points, ss)
            return est - 2.0 * se > thresh, est, se

        # doubling phase with stall detection
        step, history = max(rho_prev, 1.0), []
        while True:  # len(history) counts the doublings
            ro = rho_prev + step
            ok, est, se = passes(ro)
            if ok:
                break
            history.append(est)
            if len(history) >= 5 and (history[-1] - history[-5]
                                      <= max(4.0 * se, 1e-9)):
                raise VolumeStall(
                    f"annulus volume estimate {est:.4g} (standard error "
                    f"{se:.3g}) stalled within Monte Carlo noise without "
                    f"clearing threshold {thresh:.4g} by two standard errors;"
                    f" either V(B) is finite or mc_points is too small")
            if len(history) > 60:
                raise VolumeStall("doubling exhausted without reaching "
                                  "the shell volume threshold")
            step *= 2.0
        # bisection phase; keep the last passing radius and estimate
        lo = rho_prev + (step / 2.0 if history else 0.0)
        hi, hi_est, hi_se = ro, est, se
        for _ in range(60):
            if hi - lo <= 1e-9 * max(hi, 1.0):
                break
            mid = 0.5 * (lo + hi)
            ok, est, se = passes(mid)
            if ok:
                hi, hi_est, hi_se = mid, est, se
            else:
                lo = mid
        shells.append(Shell(index=n, inner=rho_prev, outer=hi, body=body,
                            est_volume=hi_est, stderr=hi_se, dim=d))
        rho_prev = hi
    return shells


def sample_shell_points(shell: Shell, count: int, seed: int) -> np.ndarray:
    """Uniform sample of shell-intersect-body (planar) by rejection."""
    if shell.dim != 2:
        raise DimensionMismatch(f"shell samples are planar, not {shell.dim}D")
    if count < 1:
        raise ValueError(f"need at least one sample point, got {count}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for _ in range(_MAX_BATCHES):
        pts = _annulus_samples(rng, 2, shell.inner, shell.outer,
                               max(count, 1024))
        out.append(pts[shell.body(pts)])
        if sum(map(len, out)) >= count:
            return np.concatenate(out)[:count]
    raise NoConvergence("rejection sampling starved; body too thin "
                        "inside the shell")


# ---------------------------------------------------------------------------
# witness extraction


def _classify_rows(shells: list[Shell], partitions: list[Partition2D],
                   coeffs: np.ndarray, coords: np.ndarray):
    """Kept rows only, as (rows, k, q), tested in this order: the body all
    shells share (called once, on all rows), the shell k with inner_k <
    ||x|| <= outer_k, the gcd, then q, the quadrant in partitions[k]; other
    shells, or partitions not one per shell, raise ValueError."""
    edges = [r for s in shells for r in (s.inner, s.outer)]
    if not all(b - a >= 0.0 for a, b in zip(edges, edges[1:])):
        raise ValueError("shells must be ordered and disjoint")
    if len(partitions) != len(shells) or any(
            s.body is not shells[0].body for s in shells):
        raise ValueError("need one body for all shells, one partition each")
    rows = np.flatnonzero(shells[0].body(coords))
    (x, y), (c0, c1) = (v.take(rows, axis=0).T for v in (coords, coeffs))
    # a row is in shell k when 2k + 1 squared edges lie below its norm^2
    j = np.searchsorted(np.array([r * r for r in edges]), x * x + y * y)
    keep = (j & 1).astype(bool) & (np.gcd(c0, c1) == 1)
    rows, k = rows[keep], j[keep] >> 1
    return rows, k, _quadrants_of_rows(partitions, coords.take(rows, 0), k)


def extract_witnesses(L: Lattice, shells: list[Shell],
                      partitions: list[Partition2D]) -> WitnessReport:
    """Per shell: find one primitive lattice point per partition quadrant and
    select two linearly independent representatives.

    A point x belongs to the shell with inner < ||x|| <= outer, so tuples of
    distinct shells are disjoint (unordered shells, two bodies or partitions
    not one per shell raise ValueError, a lattice or shell that is not
    planar DimensionMismatch).  One ball, the outermost shell's, serves
    every shell: its rows are tested for the body (once, on all rows), then
    the shell, the gcd and the quadrant; the lex-least row of each (shell,
    quadrant) is its representative.  A shell with an unpopulated quadrant
    is a failure event: the lattice is in the exceptional set for that n."""
    if d := {L.dim, *(s.dim for s in shells)} - {2}:
        raise DimensionMismatch(f"witnesses are planar, got dimension {min(d)}")
    if not shells:
        return WitnessReport(tuples=(), failures=())
    coeffs, coords = enumerate_ball_arrays(L, shells[-1].outer)
    rows, k, q = _classify_rows(shells, partitions, coeffs, coords)
    order = np.lexsort((coeffs[rows, 1], coeffs[rows, 0], 4 * k + q))
    key = (4 * k + q)[order]
    head = key != np.append(0, key[:-1])  # lex-least row per key
    found = rows[order[head]]
    reps = dict(zip(key[head].tolist(), zip(
        *(v.take(found, axis=0).tolist() for v in (coeffs, coords)))))
    tuples, failures = [], []
    for j, shell in enumerate(shells):
        rep = [reps.get(i) for i in range(4 * j + 1, 4 * j + 5)]
        if None in rep:
            failures.append((shell.index, tuple(
                qi for qi, r in zip((1, 2, 3, 4), rep) if r is None)))
            continue
        # distinct primitive rows: at most one of quadrants 2-4 holds the
        # negative of quadrant 1's, the first of the others is independent
        (a, xa), *others = rep
        for qb, (b, xb) in zip((2, 3, 4), others):
            if a[0] * b[1] != a[1] * b[0]:
                break
        else:
            raise InvariantViolation(
                f"shell {shell.index}: quadrant representatives "
                f"{[c for c, _ in rep]} are collinear")
        points = (LatticePoint(coords=tuple(xa), coeffs=tuple(a)),
                  LatticePoint(coords=tuple(xb), coeffs=tuple(b)))
        tuples.append(WitnessTuple(shell_index=shell.index, points=points,
                                   quadrants=(1, qb)))
    return WitnessReport(tuples=tuple(tuples), failures=tuple(failures))


# ---------------------------------------------------------------------------
# empirical failure rates


@dataclass(frozen=True)
class PipelineConfig:
    body: BodyPredicate = field(default_factory=plane_body)
    mc_points: int = 10**5
    partition_points: int = 10**4


def build_partitions(shells: list[Shell], config: PipelineConfig,
                     seed: int) -> list[Partition2D]:
    parts = []
    for shell in shells:
        sub = int(np.random.SeedSequence(
            entropy=seed, spawn_key=(7, shell.index)).generate_state(1)[0])
        pts = sample_shell_points(shell, config.partition_points, sub)
        tol = _PARTITION_TOL_FRAC * len(pts) / 4.0
        parts.append(two_line_equipartition(pts, tol=max(tol, 1.0)))
    return parts


def part_miss_rate(n: int, samples: int, config: PipelineConfig,
                   seed: int) -> RateReport:
    """Fraction of Haar-random lattices for which shell n has at least one
    quadrant without a primitive point, with a 95% Wilson interval."""
    if samples < 100:
        raise ValueError("need at least 100 samples")
    shell = build_shells(config.body, 2, n, config.mc_points, seed)[-1]
    part = build_partitions([shell], config, seed)[0]
    _, _, _, bases = sample_unimodular_2d_arrays(samples, seed)
    # primitive points per (lattice, quadrant), the lattices enumerated
    # together in chunks
    occupancy = np.zeros(4 * samples, dtype=np.int64)
    for idx, coeffs, coords in _planar_points(
            _reduce_planar(bases), shell.outer):
        rows, _, q = _classify_rows([shell], [part], coeffs, coords)
        occupancy += np.bincount(4 * idx[rows] + q - 1,
                                 minlength=4 * samples)
    misses = int(np.count_nonzero((occupancy.reshape(samples, 4) == 0)
                                  .any(axis=1)))
    p = misses / samples
    z = 1.959963984540054
    denom = 1.0 + z * z / samples
    center = (p + z * z / (2 * samples)) / denom
    half = z * math.sqrt(p * (1 - p) / samples
                         + z * z / (4 * samples * samples)) / denom
    return RateReport(n=n, samples=samples, misses=misses, rate=p,
                      ci_low=max(center - half, 0.0),
                      ci_high=min(center + half, 1.0))
