"""Successive minima: exact solver for bounded bodies, budgeted upper
bounds for unbounded ones, and the semicontinuity probe harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .bodies import DistanceFunction, boundedness_floor, hyperbolic
from .errors import (DimensionMismatch, InvariantViolation, SingularBasis,
                     UnboundedBody)
from .lattice import (_INFLATE, Lattice, LatticePoint, _check_cross, _fold,
                      enumerate_ball_arrays, enumerate_hyperbolic_cross,
                      golden_lattice, perturb_basis)

_RESOLUTION = 512  # sphere sample behind a floorless body's floor estimate


@dataclass(frozen=True)
class MinimaResult:
    values: tuple[float, ...]  # lambda_1 <= ... <= lambda_d (may be inf)
    witnesses: tuple[Optional[LatticePoint], ...]
    exact: bool


def _greedy_minima(coeffs: np.ndarray, fvals: np.ndarray,
                   d: int) -> list[int]:
    """Indices of the greedy successive-minima witnesses among the rows.

    The nonzero rows with finite f are ranked once by (f, lex coefficients);
    rows with non-finite f are never picked.  Each step picks the first
    ranked row left, eliminates the later rows against it (fraction-free,
    with Bareiss's exact division) and drops those that became zero: the
    rows dependent on the picks, repeats of a pick among them, so the rows
    need not be sorted or distinct.
    Entries stay below 2 (d max|c|^2)^(d-1) by Hadamard's inequality: the
    rows are int64 while that is below 2^63 and Python ints (dtype=object)
    past it, so no input loses exactness.
    """
    m = int(np.abs(coeffs).max(initial=0))
    rank = np.flatnonzero(np.isfinite(fvals) & np.any(coeffs != 0, axis=1))
    rank = rank[np.lexsort((*coeffs[rank].T[::-1], fvals[rank]))]
    M = coeffs[rank].astype(np.int64 if 2 * (d * m * m) ** (d - 1) < 2**63
                            else object)
    chosen: list[int] = []
    prev = 1
    while len(M):
        chosen.append(int(rank[0]))
        if len(chosen) == d:
            break
        row = M[0]
        col = int(np.flatnonzero(row)[0])
        M = (row[col] * M[1:] - M[1:, col:col + 1] * row) // prev
        prev = row[col]
        live = np.any(M != 0, axis=1)
        M, rank = M[live], rank[1:][live]
    return chosen


def _result_from(chosen: Sequence[int], coeffs: np.ndarray,
                 coords: np.ndarray, fvals: np.ndarray, d: int,
                 exact: bool) -> MinimaResult:
    pad = d - len(chosen)  # a rank deficit leaves inf and no witness
    return MinimaResult(
        values=tuple(float(fvals[i]) for i in chosen) + (math.inf,) * pad,
        witnesses=tuple(LatticePoint.of(coeffs[i], coords[i])
                        for i in chosen) + (None,) * pad, exact=exact)


class _Flagged(Exception):
    """A lattice that the proof of _chain_rows does not cover."""


def _chain_rows(L: Lattice, radii) -> list[tuple[int, int]]:
    """Coefficients whose rows and negatives hold the greedy minima of f =
    |x1 x2|^(1/2), picked on coords = coeffs @ B.T, in each ball of radius r
    to r (1 + 1e-9) for r in radii; or _Flagged.  A point z dominates y if
    |z1| <= |y1| and |z2| <= |y2|.
    1. A basis (a, b) with 0 < a1 < b1, a2 b2 < 0, |a2| > |b2| leaves no
    point but 0 in |x1| < b1, |x2| < |a2| (m a + n b has |x1| >= b1 or |x2|
    >= |a2|).  The start (a the short column of L.W with a1 > 0, b the one of
    p, -p - a with b1 > a1, p = w1 + m a with a2 p2 in (-a2^2, 0)) and the
    steps t_{k+1} = t_{k-1} + q t_k, q = floor(|t_{k-1,2} / t_{k,2}|), and
    t_{k-2} = t_k - q t_{k-1}, q = floor(t_{k,1} / t_{k-1,1}), keep it, so t_k
    dominates every z with t_{k,1} <= |z1| < t_{k+1,1}: the walk, out to 2
    max(radii), meets every relative minimum (a point dominated by no other
    point but its negative).
    2. A dominator z of y has f(z) <= f(y) and ||z|| <= ||y||, with equal f >
    0 only for a reflection z = (+-y1, -+y2), and then y -+ z are axis
    vectors within 2 ||y||.  So the first pick p, least f in the ball, is
    some +-t_k.
    3. The second pick y has no dominator independent of p.  So y is some
    +-t_j, or p dominates y and t_{k-1}, t_{k+1} do not, and y = m t_k + n
    t_{k+1} is +-(A + i S), A = t_{k-1}, S = t_k, 0 < i < q.  There f^2 =
    (A1 + i S1)(|A2| - i |S2|) is concave and ||.||^2 convex in i: f is least
    at i = 1, q - 1 or next to a root of ||A + i S|| = r (q, q + 1 kept too).
    Floats: D B is integral for D = 2^e, so the walk is exact in ints; an
    exact quotient (an axis vector; a reflection tie makes two) is flagged.
    coords carry f^2, ||.||^2 within 2^-51 kappa ||x||^2, kappa = ||B||_F^2 /
    det, and each gap above is >= mu^2, mu the least f of a walk point in 2
    max(radii) (2 f(z) f(y -+ z), ||y -+ z||^2, S1 |S2|): mu^2 <= 2^-48 kappa
    r^2 is flagged, and a root keeps every i where ||A + i S||^2 may cross
    r^2 (1 +- 2^-48 kappa), and a neighbour (flagged if over 8 of them)."""
    r_max = max(radii) * (1.0 + _INFLATE)
    if not (2.0**-400 < L.det < 2.0**400 and 2.0**-200 < r_max < 2.0**200):
        raise _Flagged
    vals = L.basis.ravel().tolist()
    nums = [v.as_integer_ratio() for v in vals]
    D = max(d for _, d in nums)
    n00, n01, n10, n11 = (n * (D // d) for n, d in nums)
    top = 2 * D * r_max.as_integer_ratio()[0] // r_max.as_integer_ratio()[1]

    def pt(c0, c1):  # (c0, c1, D x1, D x2)
        if abs(c0) + abs(c1) >= 2**52:
            raise _Flagged
        return c0, c1, n00 * c0 + n01 * c1, n10 * c0 + n11 * c1

    segs = []  # (A, S, q): every t_k is an S, A + q S the next one

    def walk(P, Q, k):  # P + q Q, q = floor(|P_k / Q_k|), P_k Q_k < 0
        while abs(Q[5 - k]) <= top:
            q, rem = divmod(abs(P[k]), abs(Q[k]))
            if not rem:
                raise _Flagged
            segs.append((P, Q, q))
            P, Q = Q, pt(P[0] + q * Q[0], P[1] + q * Q[1])

    (u00, u01), (u10, u11) = L.U.tolist()
    a, w = pt(u00, u10), pt(u01, u11)
    a = a if a[2] > 0 else pt(-a[0], -a[1])
    if not a[2] or not a[3] or not w[3] % a[3]:
        raise _Flagged
    m = -(w[3] // a[3]) - 1
    p = pt(w[0] + m * a[0], w[1] + m * a[1])
    b = p if p[2] > a[2] else pt(-p[0] - a[0], -p[1] - a[1])
    if not b[2] > a[2]:
        raise _Flagged
    walk(a, b, 3)
    walk(b, pt(-a[0], -a[1]), 2)
    eps = 2.0**-48 * math.fsum(v * v for v in vals) / L.det
    if min((abs(S[2] * S[3]) for _, S, _ in segs
            if max(abs(S[2]), abs(S[3])) <= top), default=math.inf) \
            / D / D <= eps * r_max * r_max:
        raise _Flagged
    rows, det2 = [(0, 0)], L.det * L.det
    up = (1.0 + _INFLATE) ** 2 * (1.0 + eps)
    for A, S, q in segs:
        S1, S2 = S[2] / D, S[3] / D
        SS, ends = S1 * S1 + S2 * S2, {1, q - 1, q, q + 1}
        if SS > r_max * r_max * (1.0 + eps):
            continue  # S is no first pick
        mid = -(A[2] / D * S1 + A[3] / D * S2) / SS
        for r in radii if q > 2 else ():  # min ||A + i S||^2 is det^2 / SS
            out = r * r * SS * up - det2
            if SS <= r * r * up and out >= 0.0:
                h1 = math.sqrt(out) / SS
                h0 = math.sqrt(max(r * r * SS * (1.0 - eps) - det2, 0.0)) / SS
                if h1 - h0 > 8.0:
                    raise _Flagged
                for j, k in ((mid - h1, mid - h0), (mid + h0, mid + h1)):
                    if -2.0 < k and j < q + 2:  # else no i in 1..q + 1
                        ends.update(range(math.floor(j) - 1,
                                          math.floor(k) + 2))
        rows += [S[:2]] + [(A[0] + i * S[0], A[1] + i * S[1])
                           for i in ends if 0 < i <= q + 1]
    return rows


def _budget_candidates(f: DistanceFunction, L: Lattice, budgets):
    """Lattice points (coeffs, coords), repeats and the origin allowed,
    holding the greedy minima of f at each budget: the ball of radius R (1 +
    1e-9), R = max(budgets).  For the planar hyperbola body with s = max f^2
    over the reduced basis L.W positive, both signs of _chain_rows, and R
    above r0 = max |L.W| must be below 2^24 sqrt(s) (_check_cross).  A
    flagged lattice takes the r0-ball and enumerate_hyperbolic_cross(L, s,
    R), as a witness at a budget b >= r0 has f <= lambda-hat_2(b) <=
    sqrt(s), or the ball when r0 >= R."""
    if f.dim != L.dim:
        raise DimensionMismatch(f"{f.dim}D body, {L.dim}D lattice")
    R = max(budgets)
    if f.node == ("hyperbola",) and L.dim == 2:
        w = L.U.T @ L.basis.T
        r0 = math.sqrt(float(_fold(np.add, w * w).max())) * (1.0 + _INFLATE)
        s = float(np.max(f.evaluator(w))) ** 2
        if 0.0 < s < math.inf:
            if r0 < R:
                _check_cross(s, R)
            try:
                rows = _chain_rows(L, budgets)
            except _Flagged:
                if r0 >= R:
                    return enumerate_ball_arrays(L, R, sort=False)
                coeffs = np.concatenate([
                    enumerate_ball_arrays(L, r0, sort=False)[0],
                    enumerate_hyperbolic_cross(L, s, R)[0]])
            else:
                coeffs = np.fromiter(chain.from_iterable(rows), np.int64)
                coeffs = np.concatenate([coeffs, -coeffs]).reshape(-1, 2)
            coords = coeffs @ L.basis.T
            keep = _fold(np.add, coords * coords) <= (R * (1 + _INFLATE)) ** 2
            return coeffs[keep], coords[keep]
    return enumerate_ball_arrays(L, R, sort=False)


def successive_minima_exact(f: DistanceFunction, L: Lattice) -> MinimaResult:
    """Exact successive minima of a bounded star body, from balls of radius
    R until d independent points are found and 1.001 lambda_d <= floor R:
    then R covers the sublevel set at lambda_d, as f >= floor ||x|| (1.001
    absorbs f's rounding).  R starts at det^(1/d) / floor and doubles, or
    rises to 1.001 lambda_d / floor if that is more, but stops at the bound
    b = 1.001 (1 + _INFLATE) max f(w_i) / floor over the reduced basis
    columns w_i (lambda_d <= max f(w_i); _INFLATE covers the rounding of
    both), and starts at b if b <= 2 det^(1/d) / floor: near-round bodies
    take one ball, those far from round (p << 1, thin images) the doubling's.
    Without ``f.floor``, the floor sampled by :func:`boundedness_floor` lies
    above the true floor: then the result is uncertified, ``exact=False``."""
    if f.dim != L.dim:
        raise DimensionMismatch(f"{f.dim}D body, {L.dim}D lattice")
    cert = boundedness_floor(f, _RESOLUTION)
    if not cert.bounded:
        raise UnboundedBody(f"body {f.label!r} has no positive sphere floor")
    alpha, d = cert.floor, L.dim
    R = max(L.det ** (1.0 / d) / alpha, 2.0**-500)  # R * R is a normal float
    e = float(np.abs(L.W).max())  # f(w) = f(w / e) e does not overflow
    top = float(np.max(f.evaluator(L.W.T / e))) * e * 1.001 * (1 + _INFLATE)
    top, cap = top / alpha, 2.0 * R
    while True:
        if 2.0**-500 <= top <= cap:  # False for NaN
            R, top = top, math.inf
        coeffs, coords = enumerate_ball_arrays(L, R, sort=False)
        fvals = np.asarray(f.evaluator(coords), dtype=float)
        chosen = _greedy_minima(coeffs, fvals, d)
        lam_d = float(fvals[chosen[-1]]) if len(chosen) == d else 0.0
        if len(chosen) == d and lam_d * 1.001 <= alpha * R:
            return _result_from(chosen, coeffs, coords, fvals, d,
                                f.floor is not None)
        R = cap = max(2.0 * R, lam_d * 1.001 / alpha)


def minima_upper_bound(f: DistanceFunction, L: Lattice,
                       radius_budget: float) -> MinimaResult:
    """Greedy minima over the lattice points inside a fixed Euclidean ball.

    Values are upper bounds on the true minima and are monotone
    non-increasing in the budget; a rank deficit leaves the remaining
    values flagged infinite.  For the planar hyperbola body only the points
    that can be witnesses are listed (``_budget_candidates``, O(log budget)
    of them); the result equals the ball's."""
    if radius_budget <= 0:
        raise ValueError("radius_budget must be positive")
    d = L.dim
    coeffs, coords = _budget_candidates(f, L, (radius_budget,))
    fvals = np.asarray(f.evaluator(coords), dtype=float)
    return _result_from(_greedy_minima(coeffs, fvals, d), coeffs, coords,
                        fvals, d, exact=False)


# ---------------------------------------------------------------------------
# semicontinuity harness


@dataclass(frozen=True)
class ProbeEntry:
    n: int
    values: tuple[float, ...]
    exact: bool
    slack: float
    upper_ok: bool        # values <= reference + slack
    converged: bool       # |values - reference| <= slack (bounded case)
    error: Optional[str] = None


@dataclass(frozen=True)
class ProbeReport:
    reference: tuple[float, ...]
    reference_exact: bool
    entries: tuple[ProbeEntry, ...]

    def eventually_upper(self) -> bool:
        return all(e.upper_ok for e in self.entries if e.error is None)


def semicontinuity_probe(f_seq: Callable[[int], DistanceFunction],
                         L_seq: Callable[[int], Lattice],
                         f: DistanceFunction, L: Lattice, n_max: int, *,
                         slack: Callable[[int], float],
                         budget: float = 50.0) -> ProbeReport:
    """Evaluate lambda_i along converging schedules and flag the
    upper-semicontinuity and (bounded case) convergence inequalities; an
    entry converges only when it and the reference are exact minima."""

    def minima(fn: DistanceFunction, Ln: Lattice) -> MinimaResult:
        try:
            return successive_minima_exact(fn, Ln)
        except UnboundedBody:
            return minima_upper_bound(fn, Ln, budget)

    ref = minima(f, L)
    entries = []
    for n in range(1, n_max + 1):
        eps = float(slack(n))
        try:
            res = minima(f_seq(n), L_seq(n))
            pairs = list(zip(res.values, ref.values))
            upper = all(v <= r + eps for v, r in pairs)
            conv = ref.exact and res.exact and all(abs(v - r) <= eps
                                                   for v, r in pairs)
            entries.append(ProbeEntry(n=n, values=res.values, exact=res.exact,
                                      slack=eps, upper_ok=upper,
                                      converged=conv))
        except Exception as exc:  # recorded, not fatal
            entries.append(ProbeEntry(n=n, values=(), exact=False, slack=eps,
                                      upper_ok=False, converged=False,
                                      error=f"{type(exc).__name__}: {exc}"))
    return ProbeReport(reference=ref.values, reference_exact=ref.exact,
                       entries=tuple(entries))


# ---------------------------------------------------------------------------
# non-continuity search at the golden lattice


@dataclass(frozen=True)
class DemoReport:
    found: bool
    attempts: int
    epsilon: float
    radius_budget: float
    seed: int
    values: tuple[float, ...]          # lambda-hat of the reported lattice
    basis: tuple[tuple[float, ...], ...]
    witnesses: tuple[Optional[LatticePoint], ...]
    best_lambda2: float                # smallest lambda-hat_2 seen


def noncontinuity_demo(epsilon: float, radius_budget: float, seed: int,
                       attempts: int = 200) -> DemoReport:
    """Search perturbations of the golden lattice for a budgeted
    lambda-hat_2 below 1/2 under the hyperbola body.

    Failure is a valid outcome: the limit theorem only guarantees existence
    of such lattices arbitrarily close to the golden lattice, not within a
    fixed perturbation size and search budget.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    L = golden_lattice()
    f = hyperbolic(2)
    best, best_res, best_L, tried = math.inf, None, L, 0
    n_attempts = 1 if epsilon == 0 else attempts
    for k in range(n_attempts):
        sub = int(np.random.SeedSequence(
            entropy=seed, spawn_key=(k,)).generate_state(1)[0])
        try:
            Lk = perturb_basis(L, epsilon, sub)
        except SingularBasis:
            continue  # degenerate draw; move on to the next seed
        tried += 1
        res = minima_upper_bound(f, Lk, radius_budget)
        lam2 = res.values[1]
        if lam2 < best:
            best, best_res, best_L = lam2, res, Lk
        if lam2 < 0.5:
            wa, wb = res.witnesses
            if wa.coeffs[0] * wb.coeffs[1] == wa.coeffs[1] * wb.coeffs[0]:
                raise InvariantViolation(
                    f"witness pair {wa.coeffs}, {wb.coeffs} is dependent")
            break  # this lattice is also the best one seen
    return DemoReport(found=best < 0.5, attempts=tried, epsilon=epsilon,
                      radius_budget=radius_budget, seed=seed,
                      values=best_res.values if best_res else (),
                      basis=tuple(map(tuple, best_L.basis.tolist())),
                      witnesses=best_res.witnesses if best_res else (),
                      best_lambda2=best)
