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
from .errors import InvariantViolation, NoConvergence, VolumeStall
from .haar import sample_unimodular_2d_arrays
from .lattice import (Lattice, LatticePoint, _fold, _planar_points,
                      _reduce_planar, _unit_ball_volume, _zeta,
                      enumerate_ball_arrays, primitive_mask)

BodyPredicate = Callable[[np.ndarray], np.ndarray]  # (N, d) -> bool mask


@dataclass(frozen=True)
class Shell:
    index: int
    inner: float
    outer: float
    body: BodyPredicate
    est_volume: float
    stderr: float


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
    """Cut just above the ceil(n/2)-th smallest value v: midway to the next
    larger value, or v itself when there is none."""
    v = np.sort(vals, kind="stable")
    i = (len(v) + 1) // 2 - 1
    k = int(np.searchsorted(v, v[i], side="right"))
    if k < len(v):
        return 0.5 * (v[i] + v[k])
    return float(v[i])


def _turned(c, s, x, y):
    """Coordinates of (x, y) along the axes turned by cosine c and sine s."""
    return x * c + y * s, -x * s + y * c


def _masses_at(pts: np.ndarray, theta: float):
    c, s = math.cos(theta), math.sin(theta)
    uu, vv = _turned(c, s, pts[:, 0], pts[:, 1])
    cx = _median_cut(uu)
    cy = _median_cut(vv)
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
        if (g > 0) == (g0 > 0):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    raise NoConvergence(
        "equipartition bisection stalled; likely atoms on the lines")


def quadrant_of(partition: Partition2D, x) -> int:
    """Quadrant index in {1,2,3,4} by rotated-sign signature; exact zeros
    count positive.  1 = (+,+), 2 = (-,+), 3 = (-,-), 4 = (+,-)."""
    return int(_quadrants_of_rows([partition],
                                  np.asarray(x, dtype=float)[None])[0])


def _quadrants_of_rows(partitions, pts: np.ndarray, k=0) -> np.ndarray:
    """Quadrant of each row of pts in partitions[k], k an index or per row."""
    cx, cy, c, s = np.array([(*p.center, math.cos(p.angle), math.sin(p.angle))
                             for p in partitions]).T[:, k]
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
    U = a + b * S
    V = c + d * S
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
    dirs = rng.standard_normal((count, d))
    dirs /= np.sqrt(_fold(np.add, dirs * dirs))[:, None]
    u = rng.random(count)
    radii = (u * (r_out**d - r_in**d) + r_in**d) ** (1.0 / d)
    return dirs * radii[:, None]


def _estimate_annulus_volume(body: BodyPredicate, d: int, r_in: float,
                             r_out: float, mc_points: int,
                             ss: np.random.SeedSequence):
    shell_vol = _unit_ball_volume(d) * (r_out**d - r_in**d)
    if inspect.unwrap(body) == plane_body():
        return shell_vol, 0.0  # what a draw gives: a mean of exactly 1
    rng = np.random.default_rng(ss)
    pts = _annulus_samples(rng, d, r_in, r_out, mc_points)
    p = float(np.mean(body(pts)))
    est = p * shell_vol
    se = shell_vol * math.sqrt(max(p * (1.0 - p), 0.0) / mc_points)
    return est, se


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
    shells: list[Shell] = []
    rho_prev = 0.0
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
                            est_volume=hi_est, stderr=hi_se))
        rho_prev = hi
    return shells


def sample_shell_points(shell: Shell, count: int, seed: int) -> np.ndarray:
    """Uniform sample of shell-intersect-body by rejection from the annulus."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out, got = [], 0
    for _ in range(_MAX_BATCHES):
        pts = _annulus_samples(rng, 2, shell.inner, shell.outer,
                               max(count, 1024))
        out.append(pts[shell.body(pts)])
        got += len(out[-1])
        if got >= count:
            return np.concatenate(out)[:count]
    raise NoConvergence("rejection sampling starved; body too thin "
                        "inside the shell")


# ---------------------------------------------------------------------------
# witness extraction


def _classify_rows(shells: list[Shell], partitions: list[Partition2D],
                   coeffs: np.ndarray, coords: np.ndarray):
    """(k, q) of each enumerated row: k indexes the shell with inner_k <
    ||x|| <= outer_k, q is the row's quadrant in partitions[k] (one pass
    for all rows), and q = 0 when the row lies in no shell, outside that
    shell's body (each distinct body called once) or is not primitive.
    Shells out of order or overlapping raise ValueError."""
    edges = np.array([(s.inner, s.outer) for s in shells]).ravel()
    if not np.all(np.diff(edges) >= 0.0):
        raise ValueError("shells must be ordered and disjoint")
    inner2, outer2 = edges[0::2] ** 2, edges[1::2] ** 2
    nrm2 = _fold(np.add, coords * coords)
    k = np.searchsorted(inner2, nrm2) - 1
    rows = np.flatnonzero((k >= 0) & (nrm2 <= outer2[k]))
    rows = rows[primitive_mask(coeffs[rows])]
    inside = np.zeros(len(rows), dtype=bool)
    owner = [s.body for s, _ in zip(shells, partitions, strict=True)]
    for body in {id(b): b for b in owner}.values():
        mine = np.array([b is body for b in owner])[k[rows]]
        inside[mine] = body(coords[rows[mine]])
    rows = rows[inside]
    q = np.zeros(len(coords), dtype=np.int64)
    q[rows] = _quadrants_of_rows(partitions, coords[rows], k[rows])
    return k, q


def extract_witnesses(L: Lattice, shells: list[Shell],
                      partitions: list[Partition2D]) -> WitnessReport:
    """Per shell: find one primitive lattice point per partition quadrant and
    select two linearly independent representatives.

    A point x belongs to the shell with inner < ||x|| <= outer, so tuples of
    distinct shells are disjoint; shells out of order or overlapping raise
    ValueError.  One unsorted ball, the outermost shell's, serves every
    shell: the lex-least row of each (shell, quadrant) is its representative.
    A shell with an unpopulated quadrant is a failure event: the lattice is
    in the exceptional set for that n.
    """
    if not shells:
        return WitnessReport(tuples=(), failures=())
    coeffs, coords = enumerate_ball_arrays(L, shells[-1].outer, sort=False)
    k, q = _classify_rows(shells, partitions, coeffs, coords)
    rows = np.flatnonzero(q)
    key = 4 * k[rows] + q[rows] - 1
    order = np.lexsort((coeffs[rows, 1], coeffs[rows, 0], key))
    first = order[np.diff(key[order], prepend=-1) > 0]  # lex-least per key
    reps = np.full(4 * len(shells), -1)
    reps[key[first]] = rows[first]
    tuples: list[WitnessTuple] = []
    failures: list[tuple[int, tuple[int, ...]]] = []
    for shell, rep in zip(shells, reps.reshape(-1, 4).tolist()):
        empty = tuple(qi for qi, r in zip((1, 2, 3, 4), rep) if r < 0)
        if empty:
            failures.append((shell.index, empty))
            continue
        # the representatives are distinct primitive rows, so at most one
        # of quadrants 2-4 holds the negative of quadrant 1's, and the
        # first of the others is independent of it
        (a0, a1), *others = rep_coeffs = coeffs[rep].tolist()
        for qb, (b0, b1) in zip((2, 3, 4), others):
            if a0 * b1 != a1 * b0:
                break
        else:
            raise InvariantViolation(
                f"shell {shell.index}: quadrant representatives "
                f"{rep_coeffs} are collinear")
        points = tuple(LatticePoint.of(coeffs[r], coords[r])
                       for r in (rep[0], rep[qb - 1]))
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
        q = _classify_rows([shell], [part], coeffs, coords)[1]
        hit = q > 0
        occupancy += np.bincount(4 * idx[hit] + q[hit] - 1,
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
