"""Primitive-point counting over planar regions, Sublevel sets in annuli: one
counter for a lattice (a stack of one) and a Haar stack reduced once, the
plane's regions without listing points (:func:`_interval_counts`), others by
listing; and the Monte Carlo mean-value / minima-decay experiments."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bodies import (DistanceFunction, Sublevel, _parse, box,
                     boundedness_floor, plane_body)
from .errors import (BudgetExceeded, DimensionMismatch, InvariantViolation,
                     UnboundedBody)
from . import lattice
from .lattice import (_INFLATE, Lattice, _check_budget, _fold, _gram_schmidt,
                      _reduce_planar, _windows, _zeta, primitive_mask)
from .haar import sample_unimodular_2d_arrays
from .minima import _budget_candidates

_MC_POINTS = 10**6  # Monte Carlo points behind a sublevel region's area
_INTERVAL_CHUNK = 2**17  # ball nodes per chunk of the row pass
_ROWS_MAX = 2**16  # rows x1 > 0 a lattice may have; one with more is listed
_THRESHOLDS = (1.0, 0.5, 0.2)  # of lambda-hat_2, for fraction_below
_REGION_HEADS = {"disk": ("r",), "annulus": ("r0", "r1"), "box": ("a",),
                 "sublevel": ("body", "t", "clip")}  # see bodies._parse


@dataclass(frozen=True)
class Region:
    """Bounded planar Borel set: the points of the Sublevel set `inside` in
    the annulus r0 < ||x|| <= r1 (r0 = inner_radius, r1 = bounding_radius),
    with an exact or Monte Carlo area."""

    spec: str
    inside: Sublevel
    inner_radius: float
    bounding_radius: float
    area: float
    area_stderr: float

    def contains(self, p: np.ndarray) -> np.ndarray:  # (N, 2) -> bool mask
        n2 = _fold(np.add, p * p)
        return self.inside(p) & (n2 > self.inner_radius * self.inner_radius) \
            & (n2 <= self.bounding_radius * self.bounding_radius)


def _sized(spec: str, area: float, **sizes: float) -> str:
    """The spec, once every named size of it is positive and finite and
    then its area (a sublevel region's clip disk's) is finite."""
    for name, v in sizes.items():
        if not 0.0 < v < math.inf:
            raise ValueError(f"region spec {spec!r} needs a positive finite "
                             f"{name}")
    if not area < math.inf:
        raise ValueError(f"region spec {spec!r} has no finite area")
    return spec


def disk_region(r: float) -> Region:
    area = math.pi * r * r
    return Region(_sized(f"disk:r={r:g}", area, r=r), plane_body(), 0.0, r,
                  area, 0.0)


def annulus_region(r0: float, r1: float) -> Region:
    ordered = 0 <= r0 < r1  # checked after r1, before the area
    area = math.pi * (r1 * r1 - r0 * r0) if ordered else 0.0
    spec = _sized(f"annulus:r0={r0:g}:r1={r1:g}", area, r1=r1)
    if not ordered:
        raise ValueError(f"region spec {spec!r} needs 0 <= r0 < r1")
    return Region(spec, plane_body(), r0, r1, area, 0.0)


def box_region(a: float) -> Region:
    """The square of side a, the ball:p=inf set at a/2, in the disk of
    radius a/2 / floor: a float disk test keeps its exact corners."""
    f = box(2)
    return Region(_sized(f"box:a={a:g}", a * a, a=a), Sublevel(f, a / 2.0),
                  0.0, a / 2.0 / f.floor, a * a, 0.0)


def sublevel_region(f: DistanceFunction, t: float, clip: float) -> Region:
    """{x : f(x) <= t} clipped to the disk of radius `clip` (finite area);
    f must be planar."""
    if f.dim != 2:
        raise DimensionMismatch(f"regions are planar, got a {f.dim}D body")
    disk_area = math.pi * clip * clip  # checked before f meets far points
    spec = _sized(f"sublevel:body={f.label}:t={t:g}:clip={clip:g}",
                  disk_area, t=t, clip=clip)
    rng = np.random.default_rng(np.random.SeedSequence(987654321))
    u = rng.random((_MC_POINTS, 2))
    radii = clip * np.sqrt(u[:, 0])
    ang = 2.0 * math.pi * u[:, 1]
    pts = np.stack([radii * np.cos(ang), radii * np.sin(ang)], axis=1)
    inside = Sublevel(f, t)
    p = float(np.mean(inside(pts)))
    return Region(spec, inside, 0.0, clip, p * disk_area,
                  disk_area * math.sqrt(max(p * (1 - p), 0.0) / _MC_POINTS))


def parse_region(spec: str) -> Region:
    """Parse "disk:r=2.5", "annulus:r0=1:r1=2", "box:a=2",
    "sublevel:body=hyperbola:t=1:clip=10" (regions are planar)."""
    head, *vals = _parse(spec, _REGION_HEADS, "region", 2)
    return {"disk": disk_region, "annulus": annulus_region, "box": box_region,
            "sublevel": sublevel_region}[head](*vals)


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
    counts: tuple[int, ...] | None


@dataclass(frozen=True)
class MomentReport:
    dim: int
    samples: int
    seed: int
    entries: tuple[RegionMoment, ...]


def _runs(n: np.ndarray):
    """(owner, 1-based position) of each item of runs of lengths n."""
    owner = np.repeat(np.arange(len(n)), n)
    return owner, np.arange(1, len(owner) + 1) - (np.cumsum(n) - n)[owner]


@functools.cache
def _divisors(T: int):
    """(start, d, mu(d)): the squarefree d | n, increasing, at start[n]:
    start[n + 1], n <= T; mu sieved by sum over d | n of mu(d) = [n = 1]."""
    mu = (np.arange(T + 1) == 1).astype(np.int64)
    for i in range(1, T // 2 + 1):
        mu[2 * i::i] -= mu[i]
    k = np.flatnonzero(mu)
    owner, pos = _runs(T // k)
    n = k[owner] * pos
    d = k[owner[np.argsort(n, kind="stable")]]
    return np.append(0, np.cumsum(np.bincount(n, minlength=T + 1))), d, mu[d]


def _interval_counts(stack, r: float):
    """(P, flagged) per lattice of a stack ``_reduce_planar(bases)``: P the
    primitive points of norm <= r, flagged if not certified or over the
    point cap.  Row x1 <= top = r / sqrt(B1) holds the x0 in [-c - w, w - c],
    c = mu x1, w^2 = (r^2 - B1 x1^2) / B0 (W's Gram-Schmidt; B0 = l^2, l the
    shortest vector), so P = 2 [l <= r] + 2 sum over x1 > 0, squarefree d |
    x1 of mu(d) (floor((w - c) / d) + floor((w + c) / d) + 1), the x0 prime
    to x1 by inclusion-exclusion.  Certified: at r, w scaled by 1 + eta and
    1 - eta (w twice, as in _enum), [l <= r] and each row's d = 1 count
    (sums: the outer bound the inner) agree, so no point lies between the
    ends, in a band over 2 eta r / l > eta (|c| + w) wide (|mu| <= 1/2, B1 >=
    3 B0 / 4) that rounding (w -+ c) / d, by 2^-53 (|c| + w) in x0, cannot
    cross: P, summed at 1 - eta, is exact.  eta = max(1e-9, 2^-40 ||B|| ||U||
    / l) (Frobenius norms) tops the relative rounding of W = B U, of the
    intervals and of the listing path's ``coeffs @ B.T``, so a certified P
    is the listing path's.  top > _ROWS_MAX rows x1 > 0 is flagged."""
    B, det, W, U = stack
    P, flagged = np.zeros(len(B), np.int64), np.zeros(len(B), bool)
    for lo, hi in _windows(W, det, r, _INTERVAL_CHUNK):
        (B0, B1), (mu,) = _gram_schmidt(W[lo:hi])
        b2, u2 = (_fold(np.add, M[lo:hi].reshape(-1, 4) ** 2) for M in (B, U))
        eta = np.maximum(_INFLATE, 2.0**-40 / np.sqrt(B0) * np.sqrt(b2 * u2))
        e = 1.0 + np.array([[1.0], [-1.0]]) * eta  # outer, inner
        w0, top = (np.sqrt((r * e) ** 2 / q) * e for q in (B0, B1))
        out = top[0] > _ROWS_MAX
        row, x = _runs(np.where(out, 0, top[0].astype(np.int64)))
        cen = mu[row, 0] * x
        w = np.sqrt(np.maximum((r * e[:, row]) ** 2 - B1[row] * (x * x), 0.0)
                    / B0[row]) * e[:, row]
        ends = np.array([w - cen, w + cen])  # upper, -lower (ceil = -floor(-))
        cnt = (np.floor(ends).sum(0) + 1) * (x <= top[:, row])
        n_out, n_in = (np.bincount(row, c, hi - lo) for c in cnt)
        keep, near = np.flatnonzero(cnt[1]), w0 >= 1  # near: [l <= r]
        start, d, mud = _divisors(1 << int(x.max(initial=0)).bit_length())
        own, pos = _runs(start[x[keep] + 1] - start[x[keep]] - 1)  # d > 1
        j, k = start[x[keep[own]]] + pos, keep[own]
        terms = mud[j] * (np.floor(ends[:, 1, k] / d[j]).sum(0) + 1)
        P[lo:hi] = 2 * (near[1] + n_in + np.bincount(row[k], terms, hi - lo))
        flagged[lo:hi] = out | (n_out != n_in) | (near[0] != near[1]) | (
            2 * np.floor(w0[0]) + 1 + 2 * n_out > lattice.DEFAULT_POINT_CAP)
    return P, flagged


def _primitive_counts(region: Region, stack) -> np.ndarray:
    """Primitive points in the region of each lattice of a planar stack
    ``_reduce_planar(bases)``: the plane's regions by _interval_counts, other
    regions and its flagged lattices by listing the bounding ball."""
    B, det, W, U = stack
    R = region.bounding_radius
    _check_budget(R, 2, det.min(initial=math.inf))
    if not -2.0**510 < B.min(initial=0) <= B.max(initial=0) < 2.0**510:
        raise BudgetExceeded("basis entries >= 2^510 leave the float range")
    counts, flagged = np.zeros(len(B), np.int64), np.ones(len(B), bool)
    if region.inside.f is None:  # the plane in an annulus
        counts, flagged = _interval_counts(stack, R)
        if region.inner_radius > 0:  # an annulus: P(r1) - P(r0)
            p0, f0 = _interval_counts(stack, region.inner_radius)
            counts, flagged = counts - p0, flagged | f0
    if flagged.any():  # a slice keeps a whole stack a view
        sub = slice(None) if flagged.all() else np.flatnonzero(flagged)
        part, counts[sub] = tuple(a[sub] for a in stack), 0
        for idx, coeffs, coords in lattice._planar_points(part, R):
            keep = region.contains(coords) & primitive_mask(coeffs)
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
    entries = []
    for region in regions:
        if not region.area > 0:
            raise ValueError(f"region spec {region.spec!r} has zero area")
        counts, V = _primitive_counts(region, stack), region.area
        center = V / _zeta(2)
        m2 = float(np.mean((counts - center) ** 2))
        logv = math.log2(V) if V > 1 else 1.0
        entries.append(RegionMoment(
            spec=region.spec, area=V, mean=float(counts.mean()),
            mean_stderr=float(counts.std(ddof=1)) / math.sqrt(N),
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
    sets hold an f-minimizer.  Independence is the exact cross product, at
    most 2 max|c|^2 in size: int64 if 4 max|c|^2 < 2^63, else Python ints."""
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
    for B, det, W, U in zip(*_reduce_planar(
            sample_unimodular_2d_arrays(N, seed)[3])):
        L = Lattice(2, B, float(det), W, U)
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
