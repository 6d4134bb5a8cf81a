"""Successive minima: exact solver for bounded bodies, budgeted upper
bounds for unbounded ones, and the semicontinuity probe harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    DEFAULT_POINT_CAP,
    Lattice,
    LatticePoint,
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


def _int_rank(rows: list[tuple[int, ...]]) -> int:
    """Exact rank of a list of integer vectors (fraction-free elimination)."""
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0),
                   None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][col] != 0:
                a, b = pr[col], mat[i][col]
                mat[i] = [a * x - b * y for x, y in zip(mat[i], pr)]
        rank += 1
        col += 1
    return rank


def _lex_order(coeffs: np.ndarray, fvals: np.ndarray) -> np.ndarray:
    d = coeffs.shape[1]
    keys = tuple(coeffs[:, k] for k in range(d - 1, -1, -1)) + (fvals,)
    return np.lexsort(keys)


def _greedy_scan(coeffs: np.ndarray, fvals: np.ndarray, d: int) -> list[int]:
    """Scan points by (f, lex-coeffs); keep each point that raises the rank.

    Borderline independence is decided by exact integer elimination on the
    coefficient vectors, so the result carries no floating-point rank risk.
    """
    order = _lex_order(coeffs, fvals)
    chosen: list[int] = []
    chosen_coeffs: list[tuple[int, ...]] = []
    for idx in order:
        c = tuple(int(v) for v in coeffs[idx])
        if chosen_coeffs and _int_rank(chosen_coeffs + [c]) == len(chosen_coeffs):
            continue
        chosen.append(int(idx))
        chosen_coeffs.append(c)
        if len(chosen) == d:
            break
    return chosen


def _argmin_f_lex(coeffs: np.ndarray, fvals: np.ndarray,
                  mask: Optional[np.ndarray]) -> int:
    f = fvals if mask is None else np.where(mask, fvals, np.inf)
    fmin = f.min()
    if not np.isfinite(fmin):
        return -1
    tie = np.flatnonzero(f == fmin)
    if len(tie) == 1:
        return int(tie[0])
    sub = coeffs[tie]
    d = coeffs.shape[1]
    o = np.lexsort(tuple(sub[:, k] for k in range(d - 1, -1, -1)))
    return int(tie[o[0]])


def _greedy_2d_fast(coeffs: np.ndarray, fvals: np.ndarray) -> list[int]:
    """d=2 vectorized equivalent of the greedy scan (argmin + cross test)."""
    i1 = _argmin_f_lex(coeffs, fvals, None)
    if i1 < 0:
        return []
    c1 = coeffs[i1]
    cross = coeffs[:, 0] * int(c1[1]) - coeffs[:, 1] * int(c1[0])
    i2 = _argmin_f_lex(coeffs, fvals, cross != 0)
    return [i1] if i2 < 0 else [i1, i2]


def _result_from(chosen: Sequence[int], coeffs: np.ndarray,
                 coords: np.ndarray, fvals: np.ndarray, d: int,
                 exact: bool) -> MinimaResult:
    values: list[float] = []
    witnesses: list[Optional[LatticePoint]] = []
    for idx in chosen:
        values.append(float(fvals[idx]))
        witnesses.append(LatticePoint(
            coords=tuple(float(v) for v in coords[idx]),
            coeffs=tuple(int(v) for v in coeffs[idx])))
    while len(values) < d:
        values.append(math.inf)
        witnesses.append(None)
    return MinimaResult(values=tuple(values), witnesses=tuple(witnesses),
                        exact=exact)


def _nonzero_rows(coeffs: np.ndarray) -> np.ndarray:
    return np.any(coeffs != 0, axis=1)


def _budget_candidates(f: DistanceFunction, L: Lattice, R: float,
                       cap: int = DEFAULT_POINT_CAP):
    """Nonzero lattice points (coeffs, coords) holding the greedy minima of
    f at every budget <= R: the ball of radius R, filtered to the radius
    R * (1 + 1e-9) that ball enumeration admits.

    For the planar hyperbola body |x1*x2|^(1/2) fewer points suffice.  The
    Gauss-reduced basis lies in the ball of radius r0 and has max f = sqrt(s),
    so by monotonicity in the budget every witness at a budget b >= r0 has
    f <= lambda-hat_2(b) <= sqrt(s): the ball of radius r0 (inflated by a
    relative 1e-9) and the hyperbolic cross {|x1*x2| <= s, ||x|| <= R}
    hold every witness the ball does.  The ball of radius R is used when
    s is 0 (a basis vector on each axis, e.g. Z^2) or r0 >= R.
    """
    if f.label == "hyperbola" and f.params == (2,) and L.dim == 2:
        _, U = _gauss_reduce_2d(L.basis)
        w = U.T @ L.basis.T
        r0 = math.sqrt(float((w * w).sum(axis=1).max())) * (1.0 + _INFLATE)
        root_s = float(np.max(f.evaluator(w)))
        if r0 < R and 0.0 < root_s < math.inf:
            ball, _ = enumerate_ball_arrays(L, r0, cap, sort=False)
            cross, _ = enumerate_hyperbolic_cross(L, root_s * root_s, R,
                                                  cap - len(ball))
            coeffs = np.unique(np.concatenate([ball, cross]), axis=0)
            coords = coeffs @ L.basis.T
            keep = _nonzero_rows(coeffs) & ((coords * coords).sum(axis=1)
                                            <= (R * (1.0 + _INFLATE)) ** 2)
            return coeffs[keep], coords[keep]
    coeffs, coords = enumerate_ball_arrays(L, R, cap, sort=False)
    nz = _nonzero_rows(coeffs)
    return coeffs[nz], coords[nz]


def successive_minima_exact(f: DistanceFunction, L: Lattice, *,
                            resolution: int = 512,
                            cap: int = DEFAULT_POINT_CAP,
                            cert: Optional[BoundednessCertificate] = None
                            ) -> MinimaResult:
    """Exact successive minima of a bounded star body.

    Iterative-deepening ball enumeration: the radius doubles until d
    independent points are found and the radius provably covers the
    f-sublevel set at the attained lambda_d (f >= floor * ||x||).
    """
    if cert is None:
        cert = boundedness_floor(f, resolution)
    if not cert.bounded:
        raise UnboundedBody(f"body {f.label!r} has no positive sphere floor")
    alpha = cert.floor
    d = L.dim
    R = max(L.det ** (1.0 / d) / alpha, 1e-9)
    while True:
        coeffs, coords = enumerate_ball_arrays(L, R, cap)
        nz = _nonzero_rows(coeffs)
        coeffs_nz, coords_nz = coeffs[nz], coords[nz]
        if len(coeffs_nz):
            fvals = np.asarray(f.evaluator(coords_nz), dtype=float)
            chosen = _greedy_scan(coeffs_nz, fvals, d)
            if len(chosen) == d:
                lam_d = float(fvals[chosen[-1]])
                # 1.001 safety factor absorbs the floor-estimate slack
                if lam_d * 1.001 <= alpha * R:
                    return _result_from(chosen, coeffs_nz, coords_nz, fvals,
                                        d, exact=True)
                R = max(2.0 * R, lam_d * 1.001 / alpha)
                continue
        R *= 2.0


def minima_upper_bound(f: DistanceFunction, L: Lattice, radius_budget: float,
                       *, cap: int = DEFAULT_POINT_CAP) -> MinimaResult:
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
    coeffs, coords = _budget_candidates(f, L, radius_budget, cap)
    if not len(coeffs):
        return _result_from([], coeffs, coords, np.empty(0), d, exact=False)
    fvals = np.asarray(f.evaluator(coords), dtype=float)
    if d == 2 and len(coeffs) > 20000:
        chosen = _greedy_2d_fast(coeffs, fvals)
    else:
        chosen = _greedy_scan(coeffs, fvals, d)
    return _result_from(chosen, coeffs, coords, fvals, d, exact=False)


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
    upper-semicontinuity and (bounded case) convergence inequalities."""
    ref_cert = boundedness_floor(f, resolution)
    if ref_cert.bounded:
        ref = successive_minima_exact(f, L, resolution=resolution,
                                      cert=ref_cert)
    else:
        ref = minima_upper_bound(f, L, budget)
    entries = []
    for n in range(1, n_max + 1):
        eps = float(slack(n))
        try:
            fn = f_seq(n)
            Ln = L_seq(n)
            cert_n = boundedness_floor(fn, resolution)
            if cert_n.bounded:
                res = successive_minima_exact(fn, Ln, resolution=resolution,
                                              cert=cert_n)
            else:
                res = minima_upper_bound(fn, Ln, budget)
            upper = all(v <= r + eps
                        for v, r in zip(res.values, ref.values))
            conv = (ref_cert.bounded and res.exact and
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
            return DemoReport(found=True, attempts=tried, epsilon=epsilon,
                              radius_budget=radius_budget, seed=seed,
                              values=res.values,
                              basis=tuple(map(tuple, Lk.basis.tolist())),
                              witnesses=res.witnesses, best_lambda2=best)
    return DemoReport(found=False, attempts=tried, epsilon=epsilon,
                      radius_budget=radius_budget, seed=seed,
                      values=best_res.values if best_res else (),
                      basis=tuple(map(tuple, best_L.basis.tolist())),
                      witnesses=best_res.witnesses if best_res else (),
                      best_lambda2=best)
