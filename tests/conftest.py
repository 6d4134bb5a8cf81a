"""Shared brute-force oracles, kept deliberately independent of the library
internals they check."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest


def grid_enumerate(basis, R):
    """Exhaustive coefficient-grid oracle for ball enumeration.

    The grid bound comes from the rows of the inverse basis: for any point
    x = B c with ||x|| <= R, |c_i| = |(B^-1 x)_i| <= R * ||row_i(B^-1)||.
    """
    B = np.asarray(basis, dtype=float)
    d = B.shape[0]
    Binv = np.linalg.inv(B)
    bounds = [int(math.floor(R * np.linalg.norm(Binv[i]) + 1e-9)) + 1
              for i in range(d)]
    out = []
    for c in itertools.product(*[range(-b, b + 1) for b in bounds]):
        x = B @ np.array(c, dtype=float)
        if x @ x <= R * R * (1 + 1e-9):
            out.append(tuple(c))
    return sorted(out)


def rank_threshold_minima(basis, fvals_of, R):
    """Independent successive-minima oracle.

    Enumerates the coefficient grid for the ball of radius R, sorts the
    distinct f-values, and reports lambda_i as the smallest value v such
    that the point set {f <= v} has matrix rank >= i (numpy SVD rank, no
    greedy scan involved).
    """
    B = np.asarray(basis, dtype=float)
    d = B.shape[0]
    pts = [c for c in grid_enumerate(B, R) if any(c)]
    coords = np.array([B @ np.array(c, dtype=float) for c in pts])
    fv = np.array([fvals_of(x) for x in coords])
    order = np.argsort(fv)
    values = []
    for v in fv[order]:
        sub = coords[fv <= v * (1 + 1e-12)]
        r = np.linalg.matrix_rank(sub, tol=1e-9 * max(1.0, np.abs(sub).max()))
        while len(values) < r:
            values.append(float(v))
        if len(values) == d:
            break
    return values


def tuple_minima(basis, fvals_of, R):
    """Literal definition oracle: minimize max f over all linearly
    independent i-tuples drawn from the ball enumeration."""
    B = np.asarray(basis, dtype=float)
    d = B.shape[0]
    pts = [c for c in grid_enumerate(B, R) if any(c)]
    coords = {c: B @ np.array(c, dtype=float) for c in pts}
    fv = {c: fvals_of(coords[c]) for c in pts}
    values = []
    for i in range(1, d + 1):
        best = math.inf
        for combo in itertools.combinations(pts, i):
            M = np.array([coords[c] for c in combo])
            if np.linalg.matrix_rank(M, tol=1e-9) < i:
                continue
            best = min(best, max(fv[c] for c in combo))
        values.append(best)
    return values


def ball_candidates(f, L, R, cap=10**8):
    """The whole-ball candidate set that the hyperbola fast path replaces:
    nonzero points of the Euclidean ball of radius R."""
    from starlat.lattice import enumerate_ball_arrays
    coeffs, coords = enumerate_ball_arrays(L, R, cap, sort=False)
    nz = np.any(coeffs != 0, axis=1)
    return coeffs[nz], coords[nz]


def exact_rank(rows):
    """Rank of integer row vectors by Gaussian elimination over Fraction."""
    M = [[Fraction(int(v)) for v in r] for r in rows]
    rank = 0
    for col in range(len(M[0]) if M else 0):
        piv = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(rank + 1, len(M)):
            q = M[i][col] / M[rank][col]
            M[i] = [a - q * b for a, b in zip(M[i], M[rank])]
        rank += 1
    return rank


def reference_greedy(coeffs, fvals, d):
    """Greedy successive-minima selection by its definition: scan the rows
    in (f, coefficient tuple) order and keep a row whenever the rank of the
    kept integer rows rises, until d rows are kept."""
    rows = [tuple(int(v) for v in c) for c in coeffs]
    order = sorted(range(len(rows)), key=lambda i: (float(fvals[i]), rows[i]))
    kept = []
    for i in order:
        if exact_rank([rows[j] for j in kept] + [rows[i]]) > len(kept):
            kept.append(i)
            if len(kept) == d:
                break
    return kept


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


# one human-readable verdict line per acceptance criterion, echoed after the
# test summary so they are visible without -s
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
