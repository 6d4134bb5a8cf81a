"""Successive minima: exact solver for bounded bodies, budgeted upper
bounds for unbounded ones, and the semicontinuity probe harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bodies import (
    BoundednessCertificate,
    DistanceFunction,
    boundedness_floor,
    hyperbolic,
)
from .errors import InvariantViolation, UnboundedBody
from .lattice import (
    _INFLATE,
    Lattice,
    LatticePoint,
    _fold,
    _gauss_reduce_2d,
    enumerate_ball_arrays,
    enumerate_hyperbolic_cross,
    golden_lattice,
    perturb_basis,
)


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


def _budget_candidates(f: DistanceFunction, L: Lattice, R: float):
    """Lattice points (coeffs, coords) holding the greedy minima of f at
    every budget <= R: the ball of radius R, filtered to the radius
    R * (1 + 1e-9) that ball enumeration admits.  The origin and repeated
    rows may be among them, which :func:`_greedy_minima` allows.

    For the planar hyperbola body |x1*x2|^(1/2) fewer points suffice.  The
    Gauss-reduced basis lies in the ball of radius r0 and has max f = sqrt(s),
    so by monotonicity in the budget every witness at a budget b >= r0 has
    f <= lambda-hat_2(b) <= sqrt(s): the ball of radius r0 (inflated by a
    relative 1e-9) and the hyperbolic cross {|x1*x2| <= s, ||x|| <= R}
    hold every witness the ball does.  The ball of radius R is used when
    s is 0 (a basis vector on each axis, e.g. Z^2) or r0 >= R.
    """
    if f.label == "hyperbola" and f.params == (2,) and L.dim == 2:
        _, U = _gauss_reduce_2d(L.basis[None])
        w = U[0].T @ L.basis.T
        r0 = math.sqrt(float(_fold(np.add, w * w).max())) * (1.0 + _INFLATE)
        root_s = float(np.max(f.evaluator(w)))
        if r0 < R and 0.0 < root_s < math.inf:
            ball, _ = enumerate_ball_arrays(L, r0, sort=False)
            cross, _ = enumerate_hyperbolic_cross(L, root_s * root_s, R)
            coeffs = np.concatenate([ball, cross])
            coords = coeffs @ L.basis.T
            keep = (_fold(np.add, coords * coords)
                    <= (R * (1.0 + _INFLATE)) ** 2)
            return coeffs[keep], coords[keep]
    return enumerate_ball_arrays(L, R, sort=False)


def successive_minima_exact(f: DistanceFunction, L: Lattice, *,
                            resolution: int = 512,
                            cert: Optional[BoundednessCertificate] = None
                            ) -> MinimaResult:
    """Exact successive minima of a bounded star body.

    Iterative-deepening ball enumeration: the radius doubles until d
    independent points are found and the radius covers the f-sublevel set
    at the attained lambda_d, by f >= floor * ||x||.  The floor is
    ``cert.floor``, else the closed form ``f.floor`` of a catalog body, else
    the sampled estimate of :func:`boundedness_floor`, which lies above the
    true floor: then the result is not certified and has ``exact=False``.
    """
    exact = cert is not None or f.floor is not None
    if cert is None:
        cert = boundedness_floor(f, resolution)
    if not cert.bounded:
        raise UnboundedBody(f"body {f.label!r} has no positive sphere floor")
    alpha = cert.floor
    d = L.dim
    R = max(L.det ** (1.0 / d) / alpha, 1e-9)
    while True:
        coeffs, coords = enumerate_ball_arrays(L, R, sort=False)
        fvals = np.asarray(f.evaluator(coords), dtype=float)
        chosen = _greedy_minima(coeffs, fvals, d)
        if len(chosen) == d:
            lam_d = float(fvals[chosen[-1]])
            # 1.001 safety factor absorbs the evaluator's rounding
            if lam_d * 1.001 <= alpha * R:
                return _result_from(chosen, coeffs, coords, fvals, d, exact)
            R = max(2.0 * R, lam_d * 1.001 / alpha)
            continue
        R *= 2.0


def minima_upper_bound(f: DistanceFunction, L: Lattice,
                       radius_budget: float) -> MinimaResult:
    """Greedy minima over the lattice points inside a fixed Euclidean ball.

    Values are upper bounds on the true minima and are monotone
    non-increasing in the budget; a rank deficit leaves the remaining
    values flagged infinite.  For the planar hyperbola body only points
    that can be witnesses are looked at: a threshold certified by the
    Gauss-reduced basis and monotonicity in the budget bounds f on them,
    and :func:`enumerate_hyperbolic_cross` lists them in O(log budget)
    rectangles (see ``_budget_candidates``; the ball is used when the
    threshold is 0).  The result equals the ball's.
    """
    if radius_budget <= 0:
        raise ValueError("radius_budget must be positive")
    d = L.dim
    coeffs, coords = _budget_candidates(f, L, radius_budget)
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

    def eventually_upper(self, from_n: int = 1) -> bool:
        return all(e.upper_ok for e in self.entries
                   if e.error is None and e.n >= from_n)


def semicontinuity_probe(f_seq: Callable[[int], DistanceFunction],
                         L_seq: Callable[[int], Lattice],
                         f: DistanceFunction, L: Lattice, n_max: int, *,
                         slack: Callable[[int], float],
                         budget: float = 50.0,
                         resolution: int = 512) -> ProbeReport:
    """Evaluate lambda_i along converging schedules and flag the
    upper-semicontinuity and (bounded case) convergence inequalities; an
    entry converges only when it and the reference are exact minima."""

    def minima(fn: DistanceFunction, Ln: Lattice) -> MinimaResult:
        if boundedness_floor(fn, resolution).bounded:
            return successive_minima_exact(fn, Ln, resolution=resolution)
        return minima_upper_bound(fn, Ln, budget)

    ref = minima(f, L)
    entries = []
    for n in range(1, n_max + 1):
        eps = float(slack(n))
        try:
            res = minima(f_seq(n), L_seq(n))
            upper = all(v <= r + eps
                        for v, r in zip(res.values, ref.values))
            conv = (ref.exact and res.exact and
                    all(abs(v - r) <= eps
                        for v, r in zip(res.values, ref.values)))
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
    best = math.inf
    best_res = None
    best_L = L
    tried = 0
    n_attempts = 1 if epsilon == 0 else attempts
    for k in range(n_attempts):
        sub = int(np.random.SeedSequence(
            entropy=seed, spawn_key=(k,)).generate_state(1)[0])
        try:
            Lk = perturb_basis(L, epsilon, sub)
        except Exception:
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
