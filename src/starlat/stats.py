"""Primitive-point counting over bounded regions and the Monte Carlo
mean-value / minima-decay experiments over Haar-random planar lattices;
mean-value counts enumerate a whole Haar stack, a chunk per numpy pass."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bodies import DistanceFunction, _spec_options, boundedness_floor, \
    parse_body
from .errors import InvariantViolation, UnboundedBody
from .lattice import (
    Lattice,
    _fold,
    _planar_points,
    _zeta,
    enumerate_ball_arrays,
    make_lattice,
    primitive_mask,
)
from .haar import sample_unimodular_2d_arrays
from .minima import _budget_candidates, _greedy_minima


@dataclass(frozen=True)
class Region:
    """Bounded Borel region with a total membership predicate and an exact
    or Monte Carlo area."""

    kind: str
    spec: str
    area: float
    area_stderr: float
    bounding_radius: float
    contains: Callable[[np.ndarray], np.ndarray]   # (N, d) -> bool mask


def _sized(spec: str, **sizes: float) -> str:
    """The spec, once every named size of it is positive and finite."""
    for name, v in sizes.items():
        if not 0.0 < v < math.inf:
            raise ValueError(f"region spec {spec!r} needs a positive finite "
                             f"{name}")
    return spec


def disk_region(r: float) -> Region:
    return Region(kind="disk", spec=_sized(f"disk:r={r:g}", r=r),
                  area=math.pi * r * r, area_stderr=0.0, bounding_radius=r,
                  contains=lambda p: _fold(np.add, p * p) <= r * r)


def annulus_region(r0: float, r1: float) -> Region:
    spec = _sized(f"annulus:r0={r0:g}:r1={r1:g}", r1=r1)
    if not 0 <= r0 < r1:
        raise ValueError(f"region spec {spec!r} needs 0 <= r0 < r1")
    return Region(kind="annulus", spec=spec,
                  area=math.pi * (r1 * r1 - r0 * r0), area_stderr=0.0,
                  bounding_radius=r1,
                  contains=lambda p, a=r0 * r0, b=r1 * r1:
                      ((n2 := _fold(np.add, p * p)) > a) & (n2 <= b))


def box_region(a: float) -> Region:
    h = a / 2.0
    return Region(kind="box", spec=_sized(f"box:a={a:g}", a=a), area=a * a,
                  area_stderr=0.0, bounding_radius=h * math.sqrt(2.0),
                  contains=lambda p: _fold(np.maximum, np.abs(p)) <= h)


def sublevel_region(f: DistanceFunction, t: float, clip: float,
                    mc_points: int = 10**6) -> Region:
    """{x : f(x) <= t} clipped to the disk of radius `clip` (finite area)."""
    spec = _sized(f"sublevel:body={f.label}:t={t:g}:clip={clip:g}", t=t,
                  clip=clip)
    rng = np.random.default_rng(np.random.SeedSequence(987654321))
    u = rng.random((mc_points, 2))
    radii = clip * np.sqrt(u[:, 0])
    ang = 2.0 * math.pi * u[:, 1]
    pts = np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1)
    p = float(np.mean(np.asarray(f.evaluator(pts)) <= t))
    disk_area = math.pi * clip * clip
    contains = lambda pts_: (np.asarray(f.evaluator(pts_)) <= t) \
        & (_fold(np.add, pts_ * pts_) <= clip * clip)
    return Region(kind="sublevel", spec=spec, area=p * disk_area,
                  area_stderr=disk_area
                  * math.sqrt(max(p * (1 - p), 0.0) / mc_points),
                  bounding_radius=clip, contains=contains)


def parse_region(spec: str, dim: int = 2) -> Region:
    """Parse "disk:r=2.5", "annulus:r0=1:r1=2", "box:a=2",
    "sublevel:body=hyperbola:t=1:clip=10"."""
    head = spec.partition(":")[0]
    if head == "disk":
        return disk_region(*map(float, _spec_options(spec, ("r",))))
    if head == "annulus":
        return annulus_region(*map(float, _spec_options(spec, ("r0", "r1"))))
    if head == "box":
        return box_region(*map(float, _spec_options(spec, ("a",))))
    if head == "sublevel":
        body, t, clip = _spec_options(spec, ("body", "t", "clip"))
        return sublevel_region(parse_body(body, dim), float(t), float(clip))
    raise ValueError(f"unknown region spec {spec!r}")


def count_primitive(L: Lattice, region: Region) -> int:
    """Exact number of primitive points of L in the region."""
    coeffs, coords = enumerate_ball_arrays(L, region.bounding_radius,
                                           sort=False)
    mask = np.asarray(region.contains(coords), dtype=bool)
    return int(np.count_nonzero(primitive_mask(coeffs[mask])))


# ---------------------------------------------------------------------------
# Rogers / Schmidt moment reports


@dataclass(frozen=True)
class RegionMoment:
    spec: str
    area: float
    mean: float
    mean_stderr: float
    center: float               # V(A) / zeta(2)
    second_moment: float        # mean of (count - center)^2
    ratio_volume: float         # m2 / V(A)
    ratio_schmidt: float        # m2 / (V(A) * log2 V(A))
    counts: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class MomentReport:
    dim: int
    samples: int
    seed: int
    entries: tuple[RegionMoment, ...]


def _primitive_counts(region: Region, bases: np.ndarray) -> np.ndarray:
    """:func:`count_primitive` for each lattice of a planar stack (N, 2, 2)."""
    counts = np.zeros(len(bases), dtype=np.int64)
    for idx, coeffs, coords in _planar_points(bases, region.bounding_radius):
        keep = np.asarray(region.contains(coords), dtype=bool) \
            & primitive_mask(coeffs)
        counts += np.bincount(idx[keep], minlength=len(bases))
    return counts


def rogers_moment_report(regions: list[Region], N: int,
                         seed: int, keep_counts: bool = True) -> MomentReport:
    """Sample N Haar lattices per region; report the mean primitive count and
    the second moment about the analytic centering V(A)/zeta(2), counting
    the N lattices as one stack."""
    if N < 10**3:
        raise ValueError("need at least 1000 samples")
    _, _, _, bases = sample_unimodular_2d_arrays(N, seed)
    z2 = _zeta(2)
    entries = []
    for region in regions:
        counts = _primitive_counts(region, bases)
        V = region.area
        center = V / z2
        dev = counts - center
        m2 = float(np.mean(dev * dev))
        mean = float(counts.mean())
        se = float(counts.std(ddof=1)) / math.sqrt(N)
        logv = math.log2(V) if V > 1 else 1.0
        entries.append(RegionMoment(
            spec=region.spec, area=V, mean=mean, mean_stderr=se,
            center=center, second_moment=m2, ratio_volume=m2 / V,
            ratio_schmidt=m2 / (V * logv),
            counts=tuple(counts.tolist())
            if keep_counts and N <= 10**6 else None))
    return MomentReport(dim=2, samples=N, seed=seed, entries=tuple(entries))


# ---------------------------------------------------------------------------
# minima-decay experiment for unbounded bodies


@dataclass(frozen=True)
class Theorem2Report:
    body: str
    budgets: tuple[float, ...]
    samples: int
    seed: int
    lambda2: tuple[tuple[float, ...], ...]     # per lattice, per budget
    median_curve: tuple[float, ...]
    thresholds: tuple[float, ...]
    fraction_below: tuple[tuple[float, ...], ...]  # per threshold, per budget


def _lambda2_at_budgets(coeffs: np.ndarray, fvals: np.ndarray,
                        norms2: np.ndarray,
                        budgets: list[float]) -> list[float]:
    out = []
    for b in budgets:
        sel = norms2 <= b * b
        sub_f = fvals[sel]
        chosen = _greedy_minima(coeffs[sel], sub_f, 2)
        out.append(float(sub_f[chosen[1]]) if len(chosen) == 2 else math.inf)
    return out


def theorem2_experiment(body: DistanceFunction, budgets, N: int, seed: int,
                        thresholds=(1.0, 0.5, 0.2)) -> Theorem2Report:
    """Budgeted lambda-hat_2 curves for an unbounded body over Haar lattices.

    Per-lattice curves are monotone non-increasing by construction (nested
    search balls); the report records the fraction of lattices whose
    lambda-hat_2 falls below each threshold at each budget.

    For the planar hyperbola body a curve costs a small ball plus
    O(log budget) rectangles of a hyperbolic cross, not the ball of the
    largest budget (``minima._budget_candidates``), so budgets above the
    ball's point cap work; the curves are the ball's.
    """
    budgets = sorted(float(b) for b in budgets)
    if not budgets:
        raise ValueError("need at least one budget")
    if not all(0.0 < b < math.inf for b in budgets):
        raise ValueError("budgets must be positive and finite")
    if N < 1:
        raise ValueError("need at least one lattice")
    if boundedness_floor(body).bounded:
        raise UnboundedBody("minima-decay experiment requires an unbounded "
                            "body")
    _, _, _, bases = sample_unimodular_2d_arrays(N, seed)
    rows = []
    for i in range(N):
        L = make_lattice(bases[i])
        coeffs, coords = _budget_candidates(body, L, budgets[-1])
        fvals = np.asarray(body.evaluator(coords), dtype=float)
        norms2 = _fold(np.add, coords * coords)
        lam2 = _lambda2_at_budgets(coeffs, fvals, norms2, budgets)
        if any(b > a + 1e-12 for a, b in zip(lam2, lam2[1:])):
            raise InvariantViolation(
                f"lambda-hat_2 increased with the budget: {lam2}")
        rows.append(tuple(lam2))
    arr = np.array(rows)
    med = tuple(float(v) for v in np.median(arr, axis=0))
    frac = tuple(
        tuple(float(np.mean(arr[:, j] < t)) for j in range(len(budgets)))
        for t in thresholds)
    return Theorem2Report(body=body.label, budgets=tuple(budgets), samples=N,
                          seed=seed, lambda2=tuple(rows), median_curve=med,
                          thresholds=tuple(thresholds), fraction_below=frac)
