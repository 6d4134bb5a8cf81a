"""Primitive-point counting over bounded planar regions, one counter for a
lattice (a stack of one) and a Haar stack reduced once: disks and annuli
without listing points (:func:`_interval_counts`), others by listing; and
the Monte Carlo mean-value / minima-decay experiments over Haar lattices."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bodies import DistanceFunction, _spec_options, boundedness_floor, \
    parse_body
from .errors import (BudgetExceeded, DimensionMismatch, InvariantViolation,
                     UnboundedBody)
from . import lattice
from .lattice import (_INFLATE, Lattice, _check_budget, _fold, _gram_schmidt,
                      _reduce_planar, _windows, _zeta, primitive_mask)
from .haar import sample_unimodular_2d_arrays, sample_unimodular_2d_batch
from .minima import _budget_candidates

_MC_POINTS = 10**6  # Monte Carlo points behind a sublevel region's area
_INTERVAL_CHUNK = 2**17  # ball nodes per chunk, for 5-8x fewer interval rows
_MOBIUS_MAX = 2**16   # lattices needing more terms k are listed
_THRESHOLDS = (1.0, 0.5, 0.2)  # of lambda-hat_2, for fraction_below


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
    inner_radius: float = 0.0   # an annulus's r0; a disk's is 0

    def __post_init__(self):
        if not self.area < math.inf:
            raise ValueError(f"region spec {self.spec!r} has no finite area")


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
                  bounding_radius=r1, inner_radius=r0,
                  contains=lambda p, a=r0 * r0, b=r1 * r1:
                      ((n2 := _fold(np.add, p * p)) > a) & (n2 <= b))


def box_region(a: float) -> Region:
    h = a / 2.0
    return Region(kind="box", spec=_sized(f"box:a={a:g}", a=a), area=a * a,
                  area_stderr=0.0, bounding_radius=h * math.sqrt(2.0),
                  contains=lambda p: _fold(np.maximum, np.abs(p)) <= h)


def sublevel_region(f: DistanceFunction, t: float, clip: float) -> Region:
    """{x : f(x) <= t} clipped to the disk of radius `clip` (finite area)."""
    spec = _sized(f"sublevel:body={f.label}:t={t:g}:clip={clip:g}", t=t,
                  clip=clip)
    disk_area = math.pi * clip * clip
    if not disk_area < math.inf:  # before f meets points beyond the floats
        raise ValueError(f"region spec {spec!r} has no finite area")
    rng = np.random.default_rng(np.random.SeedSequence(987654321))
    u = rng.random((_MC_POINTS, 2))
    radii = clip * np.sqrt(u[:, 0])
    ang = 2.0 * math.pi * u[:, 1]
    pts = np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1)
    p = float(np.mean(np.asarray(f.evaluator(pts)) <= t))
    contains = lambda pts_: (np.asarray(f.evaluator(pts_)) <= t) \
        & (_fold(np.add, pts_ * pts_) <= clip * clip)
    return Region(kind="sublevel", spec=spec, area=p * disk_area,
                  area_stderr=disk_area
                  * math.sqrt(max(p * (1 - p), 0.0) / _MC_POINTS),
                  bounding_radius=clip, contains=contains)


def parse_region(spec: str) -> Region:
    """Parse "disk:r=2.5", "annulus:r0=1:r1=2", "box:a=2",
    "sublevel:body=hyperbola:t=1:clip=10" (regions are planar)."""
    head = spec.partition(":")[0]
    if head == "disk":
        return disk_region(*map(float, _spec_options(spec, ("r",))))
    if head == "annulus":
        return annulus_region(*map(float, _spec_options(spec, ("r0", "r1"))))
    if head == "box":
        return box_region(*map(float, _spec_options(spec, ("a",))))
    if head == "sublevel":
        body, t, clip = _spec_options(spec, ("body", "t", "clip"))
        return sublevel_region(parse_body(body), float(t), float(clip))
    raise ValueError(f"unknown region spec {spec!r}")


def count_primitive(L: Lattice, region: Region) -> int:
    """Exact number of primitive points of a planar L in the region."""
    if L.dim != 2:
        raise DimensionMismatch(f"regions are planar, got dimension {L.dim}")
    stack = (L.basis[None], np.array([L.det]), L.W[None], L.U[None])
    return int(_primitive_counts(region, stack)[0])


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


@functools.cache
def _squarefree(K: int):
    """(k, mu(k)) for the squarefree k in 1..K, from sum over d | n of mu(d)
    = [n = 1]: each mu(i), once final, is taken off its multiples."""
    mu = np.zeros(K + 1, np.int64)
    mu[1] = 1
    for i in range(1, K // 2 + 1):
        mu[2 * i::i] -= mu[i]
    k = np.flatnonzero(mu)
    return k, mu[k]


def _runs(n: np.ndarray):
    """(owner, position) of every item of consecutive runs of lengths n."""
    owner = np.repeat(np.arange(len(n)), n)
    return owner, np.arange(len(owner)) - (np.cumsum(n) - n)[owner]


def _interval_counts(stack, r: float):
    """(P, flagged) for a stack ``_reduce_planar(bases)``: P the primitive
    points of norm <= r per lattice, flagged where P is not certified or the
    candidates exceed the point cap.  P = sum over squarefree k <= r (1 + 2
    eta) / l of mu(k) #(x != 0 : ||(kW) x|| <= r) (Hardy & Wright, ch. XVI),
    l the shortest vector; by Gram-Schmidt B0, B1, mu of W, row x1 holds the
    x0 in [-c - w, -c + w], c = mu x1, w^2 = (r^2 - k^2 B1 x1^2) / (k^2 B0).
    A lattice is certified if the counts with r and w scaled by 1 + eta and
    by 1 - eta agree for every k: no point has norm within a relative ~eta
    of r/k.  eta = max(1e-9, 2^-40 ||B|| ||U|| / l) (Frobenius norms) tops
    the relative rounding of W = B U, of the intervals and of the listing
    path's ``coeffs @ B.T``, a few hundred ulps of ||B|| ||U|| / l at most,
    so a certified P is the listing path's.  At eta = 1e-9 the k = 1 count,
    in _enum's arithmetic, is _enum's candidate count."""
    B, det, W, U = stack
    P, flagged = np.zeros(len(B), np.int64), np.zeros(len(B), bool)
    for lo, hi in _windows(W, det, r, _INTERVAL_CHUNK):
        (B0, B1), (mu,) = _gram_schmidt(W[lo:hi])
        eta = np.maximum(_INFLATE, 2.0**-40 / np.sqrt(B0) * np.sqrt(
            _fold(np.add, (B[lo:hi] ** 2).reshape(-1, 4))
            * _fold(np.add, (U[lo:hi] ** 2).reshape(-1, 4))))
        K = (r * (1 + 2 * eta) / np.sqrt(B0)).astype(np.int64)
        out = K > _MOBIUS_MAX
        K[out] = 0
        ks, mus = _squarefree(max(2, 1 << int(K.max()).bit_length()))
        owner, pos = _runs(np.searchsorted(ks, K, side="right"))
        k, e = ks[pos], 1.0 + np.array([[1.0], [-1.0]]) * eta[owner]
        R2 = (r * e) ** 2
        q0, q1 = k * k * B0[owner], k * k * B1[owner]
        top = (np.sqrt(R2 / q1) * e).astype(np.int64)
        row, x = _runs(top[0] + 1)
        cen = mu[owner[row], 0] * x
        w = np.sqrt(np.maximum(R2[:, row] - q1[row] * (x * x), 0.0)
                    / q0[row]) * e[:, row]
        cnt = (np.floor(w - cen) - np.ceil(-cen - w) + 1) \
            * (x <= top[:, row]) * np.where(x > 0, 2.0, 1.0)
        n_out, n_in = (np.bincount(row, c, minlength=len(k)) for c in cnt)
        over = (k == 1) & (n_out > lattice.DEFAULT_POINT_CAP)
        P[lo:hi] = np.bincount(owner, mus[pos] * (n_out - 1), hi - lo)
        flagged[lo:hi] = out | (np.bincount(owner, n_out - n_in + over,
                                            hi - lo) > 0)
    return P, flagged


def _primitive_counts(region: Region, stack) -> np.ndarray:
    """Primitive points in the region of each lattice of a planar stack
    ``_reduce_planar(bases)``: disks and annuli by _interval_counts, other
    regions and its flagged lattices by listing the bounding ball."""
    B, det, W, U = stack
    R = region.bounding_radius
    _check_budget(R, 2, det.min(initial=math.inf))
    if not -2.0**510 < B.min(initial=0) <= B.max(initial=0) < 2.0**510:
        raise BudgetExceeded("basis entries >= 2^510 leave the float range")
    counts, flagged = np.zeros(len(B), np.int64), np.ones(len(B), bool)
    if region.kind in ("disk", "annulus"):
        counts, flagged = _interval_counts(stack, R)
        if region.inner_radius > 0:  # an annulus: P(r1) - P(r0)
            p0, f0 = _interval_counts(stack, region.inner_radius)
            counts, flagged = counts - p0, flagged | f0
    if flagged.any():  # a slice keeps a whole stack a view
        sub = slice(None) if flagged.all() else np.flatnonzero(flagged)
        part, counts[sub] = tuple(a[sub] for a in stack), 0
        for idx, coeffs, coords in lattice._planar_points(part, R):
            keep = np.asarray(region.contains(coords), dtype=bool) \
                & primitive_mask(coeffs)
            counts[sub] += np.bincount(idx[keep], minlength=len(part[0]))
    return counts


def rogers_moment_report(regions: list[Region], N: int,
                         seed: int, keep_counts: bool = True) -> MomentReport:
    """Sample N Haar lattices per region; report the mean primitive count and
    the second moment about the analytic centering V(A)/zeta(2), counting
    the N lattices as one stack."""
    if N < 10**3:
        raise ValueError("need at least 1000 samples")
    stack = _reduce_planar(sample_unimodular_2d_arrays(N, seed)[3])
    z2 = _zeta(2)
    entries = []
    for region in regions:
        if not region.area > 0:
            raise ValueError(f"region spec {region.spec!r} has zero area")
        counts = _primitive_counts(region, stack)
        V = region.area
        center = V / z2
        m2 = float(np.mean((counts - center) ** 2))
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
    """lambda-hat_2 at each budget b, without ranking: with q any argmin of
    f over the live rows (f finite, coefficients nonzero, norm^2 <= b^2),
    min f over the live rows independent of q, inf if none.  That is the
    greedy value, min f over the live rows independent of the first pick p,
    an f-minimizer too: if all f-minimizers lie on one line through the
    origin, p and q span it and the row sets are the same; otherwise both
    sets hold an f-minimizer.  Independence is the exact cross product, in
    int64 under _greedy_minima's bound 4 max|c|^2 < 2^63, else Python ints."""
    live = (np.isfinite(fvals) & _fold(np.logical_or, coeffs != 0)
            & (norms2 <= np.square(budgets)[:, None]))
    f = np.where(live, fvals, math.inf)  # (budget, row)
    m = int(np.abs(coeffs).max())
    c = coeffs.astype(np.int64 if 4 * m * m < 2**63 else object)
    q = c[f.argmin(axis=1)]
    cross = c[:, 0] * q[:, 1:] - c[:, 1] * q[:, :1]
    return np.where(cross != 0, f, math.inf).min(axis=1).tolist()


def theorem2_experiment(body: DistanceFunction, budgets, N: int,
                        seed: int) -> Theorem2Report:
    """Budgeted lambda-hat_2 curves for an unbounded body over Haar lattices.

    Per-lattice curves are monotone non-increasing by construction (nested
    search balls); the report records the fraction of lattices whose
    lambda-hat_2 falls below each threshold at each budget.  The lattices
    are reduced as one stack; a curve is one pass over one candidate set
    (``minima._budget_candidates``: for the planar hyperbola body the
    O(log budget) points of its continued-fraction chain, so budgets above
    the ball's point cap work)."""
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
    rows = []
    for L in (h.lattice for h in sample_unimodular_2d_batch(N, seed)):
        coeffs, coords = _budget_candidates(body, L, budgets)
        fvals = np.asarray(body.evaluator(coords), dtype=float)
        norms2 = _fold(np.add, coords * coords)
        lam2 = _lambda2_at_budgets(coeffs, fvals, norms2, budgets)
        if any(b > a + 1e-12 for a, b in zip(lam2, lam2[1:])):
            raise InvariantViolation(
                f"lambda-hat_2 increased with the budget: {lam2}")
        rows.append(tuple(lam2))
    arr = np.sort(rows, axis=0)  # np.median's values, without its overhead
    med = arr[N // 2] if N % 2 else (arr[N // 2 - 1] + arr[N // 2]) / 2
    below = (arr < np.array(_THRESHOLDS)[:, None, None]).mean(axis=1)
    return Theorem2Report(body=body.label, budgets=tuple(budgets), samples=N,
                          seed=seed, lambda2=tuple(rows),
                          median_curve=tuple(med.tolist()),
                          thresholds=_THRESHOLDS,
                          fraction_below=tuple(map(tuple, below.tolist())))
