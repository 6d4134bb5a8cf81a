"""Brute-force reference computations for the benchmark's correctness checks.

Written from the definitions and sharing no code with starlat: points come
from an exhaustive coefficient grid (after an independent Lagrange reduction
in the plane), minima from rank thresholds, witnesses from the selection rule
stated in the witness pipeline's documentation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

INFLATE = 1e-9   # the library's enumeration also admits this relative slack


def lagrange_reduce(B):
    """Lagrange-reduced basis W = B @ U of a planar lattice, U unimodular."""
    a, b = [np.array(B[:, j], dtype=float) for j in (0, 1)]
    ua, ub = np.array([1, 0]), np.array([0, 1])
    while True:
        if b @ b < a @ a:
            a, b, ua, ub = b, a, ub, ua
        mu = int(round(float(a @ b) / float(a @ a)))
        if mu == 0:
            return np.column_stack([a, b]), np.column_stack([ua, ub])
        b, ub = b - mu * a, ub - mu * ua


def ball_points(B, R: float):
    """All nonzero lattice points of norm <= R: (coeffs, coords), with the
    coefficients taken w.r.t. the given basis B."""
    B = np.asarray(B, dtype=float)
    d = B.shape[0]
    if d == 2:
        W, U = lagrange_reduce(B)
    else:
        W, U = B, np.eye(d, dtype=np.int64)
    Winv = np.linalg.inv(W)
    bounds = [int(math.floor(R * np.linalg.norm(Winv[i]) + 1e-9)) + 1
              for i in range(d)]
    axes = [np.arange(-b, b + 1, dtype=np.int64) for b in bounds]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                    axis=1)
    coeffs = grid @ U.T.astype(np.int64)
    coords = coeffs @ B.T
    r2 = (R * (1.0 + INFLATE)) ** 2
    keep = ((coords * coords).sum(axis=1) <= r2) & np.any(coeffs != 0, axis=1)
    return coeffs[keep], coords[keep]


def gcd_rows(coeffs) -> np.ndarray:
    return np.gcd.reduce(np.abs(coeffs), axis=1)


def primitive_count(B, inside, R: float) -> int:
    """Primitive lattice points x with inside(x), all of norm <= R."""
    coeffs, coords = ball_points(B, R)
    mask = np.asarray(inside(coords), dtype=bool) & (gcd_rows(coeffs) == 1)
    return int(mask.sum())


def independent(chosen, c) -> bool:
    """Whether integer vector c is independent of the rows in `chosen`."""
    rows = [list(map(int, r)) for r in chosen] + [list(map(int, c))]
    if len(rows) == 1:
        return any(rows[0])
    if len(rows) == 2:
        return any(rows[0][i] * rows[1][j] - rows[0][j] * rows[1][i]
                   for i, j in itertools.combinations(range(len(rows[0])), 2))
    (a, b, e) = rows
    return (a[0] * (b[1] * e[2] - b[2] * e[1])
            - a[1] * (b[0] * e[2] - b[2] * e[0])
            + a[2] * (b[0] * e[1] - b[1] * e[0])) != 0


def minima_values(coeffs, fvals, d: int) -> list[float]:
    """lambda_i = the least v such that {f <= v} spans rank i (exact integer
    independence tests); inf where the points do not reach rank i."""
    values, chosen = [], []
    for idx in np.argsort(fvals, kind="stable"):
        if independent(chosen, coeffs[idx]):
            chosen.append(coeffs[idx])
            values.append(float(fvals[idx]))
            if len(values) == d:
                break
    return values + [math.inf] * (d - len(values))


def lambda2_at_budgets(B, f, budgets) -> list[float]:
    coeffs, coords = ball_points(B, max(budgets))
    fvals = np.asarray(f(coords), dtype=float)
    n2 = (coords * coords).sum(axis=1)
    out = []
    for b in budgets:
        sel = n2 <= b * b
        out.append(minima_values(coeffs[sel], fvals[sel], 2)[1])
    return out


def quadrant(center, angle, coords) -> np.ndarray:
    ct, st = math.cos(angle), math.sin(angle)
    dx, dy = coords[:, 0] - center[0], coords[:, 1] - center[1]
    pu = dx * ct + dy * st >= 0.0
    pv = -dx * st + dy * ct >= 0.0
    return np.where(pu, np.where(pv, 1, 4), np.where(pv, 2, 3))


def shell_witnesses(B, inner, outer, inside, center, angle):
    """Selection rule of the witness pipeline for one shell: the lex-least
    primitive point of each quadrant, then the first independent pair in
    quadrant order.  Returns ("tuple", (qa, qb), (ca, cb)) or
    ("failure", empty quadrants)."""
    coeffs, coords = ball_points(B, outer)
    n2 = (coords * coords).sum(axis=1)
    keep = (n2 > inner * inner) & np.asarray(inside(coords), dtype=bool)
    keep &= gcd_rows(coeffs) == 1
    coeffs, coords = coeffs[keep], coords[keep]
    if not len(coeffs):
        return ("failure", (1, 2, 3, 4))
    q = quadrant(center, angle, coords)
    reps = {}
    for qi in (1, 2, 3, 4):
        rows = [tuple(map(int, c)) for c in coeffs[q == qi]]
        if rows:
            reps[qi] = min(rows)
    empty = tuple(qi for qi in (1, 2, 3, 4) if qi not in reps)
    if empty:
        return ("failure", empty)
    for qa, qb in itertools.combinations(sorted(reps), 2):
        if independent([reps[qa]], reps[qb]):
            return ("tuple", (qa, qb), (reps[qa], reps[qb]))
    return ("failure", ())
