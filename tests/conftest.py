"""Shared brute-force oracles, kept deliberately independent of the library
internals they check."""

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

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


@np.errstate(all="ignore")
def admitted_det(B):
    """The earlier admission of a basis stack (..., d, d), kept as the
    reference for make_lattice's verdicts: |det| of each basis, or
    SingularBasis unless all entries are finite and |det| / (longest
    column)^d > 1e-12 for each, the ratio judged on the basis scaled by a
    power of two where (longest column)^d is no normal float."""
    from starlat.errors import SingularBasis
    from starlat.lattice import _abs_det
    if not np.all(np.isfinite(B)):
        raise SingularBasis("basis entries must be finite")
    d = B.shape[-1]
    det = _abs_det(B)
    vol = np.linalg.norm(B, axis=-2).max(axis=-1) ** d
    ratio = np.asarray(det / vol)
    odd = ~((vol >= 2.0 ** -1022) & (vol < math.inf))  # normal floats
    if odd.any():
        _, e = np.frexp(np.abs(B[odd]).max(axis=(-2, -1)))
        Bs = np.ldexp(B[odd], -e[:, None, None])
        ratio[odd] = _abs_det(Bs) / np.linalg.norm(Bs, axis=-2).max(-1) ** d
    if not np.all(ratio > 1e-12):
        raise SingularBasis("basis columns are numerically dependent")
    if not np.all((det > 0) & (det < math.inf)):
        raise SingularBasis("det(B) is not representable in float64")
    return det


def ball_candidates(f, L, budgets):
    """The whole-ball candidate set that the hyperbola fast path replaces:
    nonzero points of the Euclidean ball of radius max(budgets)."""
    from starlat.lattice import enumerate_ball_arrays
    coeffs, coords = enumerate_ball_arrays(L, max(budgets))
    nz = np.any(coeffs != 0, axis=1)
    return coeffs[nz], coords[nz]


def grid_primitive_count(basis, contains, R):
    """Primitive points of a planar lattice inside a region of bounding
    radius R, by the coefficient-grid oracle and a gcd test."""
    pts = [c for c in grid_enumerate(basis, R) if math.gcd(*c) == 1]
    if not pts:
        return 0
    coords = np.array(pts, dtype=float) @ np.asarray(basis, dtype=float).T
    return int(np.count_nonzero(contains(coords)))


def listing_primitive_counts(region, bases):
    """Primitive counts of a planar stack by listing every point of the
    bounding ball (the chunked stack enumeration) and a gcd per point, the
    path that interval counting replaces for disks and annuli."""
    from starlat.lattice import _planar_points, _reduce_planar, primitive_mask
    counts = np.zeros(len(bases), dtype=np.int64)
    for idx, coeffs, coords in _planar_points(_reduce_planar(bases),
                                              region.bounding_radius):
        keep = region.contains(coords) & primitive_mask(coeffs)
        counts += np.bincount(idx[keep], minlength=len(bases))
    return counts


def predicate_region(head, *args):
    """A region by the membership predicate and bounding radius that the
    four region constructors built before a region became a Sublevel set in
    an annulus: a disk of radius r, an annulus r0 < ||x|| <= r1, the box
    max |x_i| <= a / 2 in the disk of radius a / 2 * sqrt(2), and a
    sublevel set {f <= t} in the disk of radius clip.  The origin is in
    all but the annulus."""
    norm2 = lambda p: (p * p).sum(axis=1)
    if head == "disk":
        (r,) = args
        return SimpleNamespace(bounding_radius=r,
                               contains=lambda p: norm2(p) <= r * r)
    if head == "annulus":
        r0, r1 = args
        return SimpleNamespace(bounding_radius=r1, contains=lambda p: (
            norm2(p) > r0 * r0) & (norm2(p) <= r1 * r1))
    if head == "box":
        h = args[0] / 2.0
        return SimpleNamespace(bounding_radius=h * math.sqrt(2.0),
                               contains=lambda p: np.abs(p).max(axis=1) <= h)
    f, t, clip = args
    return SimpleNamespace(bounding_radius=clip, contains=lambda p: (
        f.evaluator(p) <= t) & (norm2(p) <= clip * clip))


def loop_primitive_counts(region, bases):
    """Primitive counts of a stack of planar bases by listing one lattice at
    a time: the points of its bounding ball from enumerate_ball_arrays, the
    region's predicate and a gcd per point."""
    from starlat import enumerate_ball_arrays, make_lattice, primitive_mask
    counts = []
    for B in bases:
        coeffs, coords = enumerate_ball_arrays(
            make_lattice(B), region.bounding_radius)
        keep = np.asarray(region.contains(coords), dtype=bool)
        counts.append(np.count_nonzero(primitive_mask(coeffs[keep])))
    return np.array(counts, dtype=np.int64)


def loop_miss_count(n, samples, config, seed):
    """part_miss_rate's misses by the per-lattice loop it replaced: shell n's
    primitive points of one lattice at a time, a miss when they do not
    reach all four quadrants."""
    from starlat import (enumerate_ball_arrays, make_lattice, partition,
                         sample_unimodular_2d_arrays)
    shell = partition.build_shells(config.body, 2, n, config.mc_points,
                                   seed)[-1]
    part = partition.build_partitions([shell], config, seed)[0]
    misses = 0
    for B in sample_unimodular_2d_arrays(samples, seed)[3]:
        coeffs, coords = enumerate_ball_arrays(make_lattice(B), shell.outer)
        keep = (np.gcd(coeffs[:, 0], coeffs[:, 1]) == 1) \
            & ((coords * coords).sum(axis=1) > shell.inner ** 2) \
            & shell.body(coords)
        q = partition._quadrants_of_rows([part], coords[keep], 0)
        misses += len(np.unique(q)) < 4
    return misses


def norm_annulus_samples(rng, d, r_in, r_out, count):
    """partition._annulus_samples with its directions normalized by
    np.linalg.norm, as before the column fold."""
    dirs = rng.standard_normal((count, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    u = rng.random(count)
    radii = (u * (r_out**d - r_in**d) + r_in**d) ** (1.0 / d)
    return dirs * radii[:, None]


def mean_annulus_volume(body, d, r_in, r_out, mc_points, ss):
    """partition._estimate_annulus_volume with the hit fraction taken by
    np.mean of the body's mask, as before the hit count."""
    import inspect

    from starlat import partition
    from starlat.lattice import _unit_ball_volume
    shell_vol = _unit_ball_volume(d) * (r_out**d - r_in**d)
    if inspect.unwrap(body) == partition.plane_body():
        return shell_vol, 0.0
    rng = np.random.default_rng(ss)
    pts = partition._annulus_samples(rng, d, r_in, r_out, mc_points)
    p = float(np.mean(body(pts)))
    est = p * shell_vol
    se = shell_vol * math.sqrt(max(p * (1.0 - p), 0.0) / mc_points)
    return est, se


def norm_first_classify_rows(shells, partitions, coeffs, coords):
    """partition._classify_rows as it was before the body test came first:
    norms and the shell search on every row, then each distinct body on
    its own shells' rows, then primitive_mask, then the quadrants."""
    from starlat import partition
    from starlat.lattice import _fold, primitive_mask
    edges = np.array([(s.inner, s.outer) for s in shells]).ravel()
    if not np.all(np.diff(edges) >= 0.0):
        raise ValueError("shells must be ordered and disjoint")
    inner2, outer2 = edges[0::2] ** 2, edges[1::2] ** 2
    nrm2 = _fold(np.add, coords * coords)
    k = np.searchsorted(inner2, nrm2) - 1
    rows = np.flatnonzero((k >= 0) & (nrm2 <= outer2[k]))
    k = k[rows]
    inside = np.zeros(len(rows), dtype=bool)
    owner = [s.body for s, _ in zip(shells, partitions, strict=True)]
    for body in {id(b): b for b in owner}.values():
        mine = np.array([b is body for b in owner])[k]
        inside[mine] = body(coords[rows[mine]])
    rows, k = rows[inside], k[inside]
    prim = primitive_mask(coeffs[rows])
    rows, k = rows[prim], k[prim]
    return rows, k, partition._quadrants_of_rows(partitions, coords[rows], k)


def loop_witnesses(L, shells, partitions):
    """extract_witnesses by the per-shell loop it replaced: one ball per
    shell of radius outer, its primitive points above the
    inner radius and inside the body, the lex-least point per quadrant,
    then quadrant 1's point with the first of quadrants 2-4 independent
    of it."""
    from starlat import (LatticePoint, WitnessReport, WitnessTuple,
                         enumerate_ball_arrays, partition)
    tuples, failures = [], []
    for shell, part in zip(shells, partitions):
        coeffs, coords = enumerate_ball_arrays(L, shell.outer)
        keep = (np.gcd(coeffs[:, 0], coeffs[:, 1]) == 1) \
            & ((coords * coords).sum(axis=1) > shell.inner ** 2) \
            & shell.body(coords)
        coeffs, coords = coeffs[keep], coords[keep]
        q = partition._quadrants_of_rows([part], coords, 0)
        reps = {qi: min(np.flatnonzero(q == qi),
                        key=lambda r: tuple(coeffs[r].tolist()))
                for qi in (1, 2, 3, 4) if np.any(q == qi)}
        if len(reps) < 4:
            failures.append((shell.index, tuple(qi for qi in (1, 2, 3, 4)
                                                if qi not in reps)))
            continue
        a = reps[1]
        qb = next(qb for qb in (2, 3, 4)
                  if coeffs[a, 0] * coeffs[reps[qb], 1]
                  != coeffs[a, 1] * coeffs[reps[qb], 0])
        pts = tuple(LatticePoint(coords=tuple(map(float, coords[r])),
                                 coeffs=tuple(map(int, coeffs[r])))
                    for r in (a, reps[qb]))
        tuples.append(WitnessTuple(shell_index=shell.index, points=pts,
                                   quadrants=(1, qb)))
    return WitnessReport(tuples=tuple(tuples), failures=tuple(failures))


def weighted_median_cut(vals, weights):
    """The weighted cut that partition._median_cut replaced: the cut so the
    mass strictly below it is as close to half as the atoms allow, between
    atoms whenever possible."""
    o = np.argsort(vals, kind="stable")
    v = vals[o]
    cw = np.cumsum(weights[o])
    half = cw[-1] / 2.0
    i = int(np.searchsorted(cw, half))
    i = min(i, len(v) - 1)
    k = int(np.searchsorted(v, v[i], side="right"))
    if k < len(v):
        return 0.5 * (v[i] + v[k])
    return float(v[i])


def weighted_masses_at(pts, w, theta):
    """The weighted (center, quadrant masses) that partition._masses_at
    replaced: weighted cuts along the axes turned by theta, the weight of
    each quadrant summed by a mask per quadrant."""
    c, s = math.cos(theta), math.sin(theta)
    uu, vv = pts[:, 0] * c + pts[:, 1] * s, -pts[:, 0] * s + pts[:, 1] * c
    cx = weighted_median_cut(uu, w)
    cy = weighted_median_cut(vv, w)
    by_signs = np.array([3, 2, 4, 1])
    q = by_signs[2 * ((uu - cx) >= 0.0) + ((vv - cy) >= 0.0)]
    center = tuple(map(float, (cx * c - cy * s, cx * s + cy * c)))
    return center, tuple(float(w[q == i].sum()) for i in (1, 2, 3, 4))


def cross_by_rectangles(L, s, R):
    """The nonzero rows of lattice._cross_coeffs by its per-rectangle loop:
    the ball of radius sqrt(2) of each rectangle lattice diag(1/a, 1/h) B,
    one lattice at a time, united, without the origin."""
    from starlat import enumerate_ball_arrays, make_lattice
    t = math.sqrt(s * (1 + 1e-9))
    R_in = R * (1 + 1e-9)
    parts = []
    for j in range(1, max(1, math.ceil(math.log2(R_in / t))) + 1):
        short, long_ = min(2.0 ** (1 - j) * t, R_in), min(2.0 ** j * t, R_in)
        for a, h in ((short, long_), (long_, short)):
            rect = make_lattice(L.basis / np.array([[a], [h]]))
            parts.append(enumerate_ball_arrays(rect, math.sqrt(2.0))[0])
    coeffs = np.unique(np.concatenate(parts), axis=0)
    return coeffs[np.any(coeffs != 0, axis=1)]


def loop_theorem2(body, budgets, N, seed):
    """theorem2_experiment by the per-lattice path it replaced: make_lattice
    per Haar basis; for the hyperbola two enumerations, the ball of radius
    r0 of the reduced basis and the hyperbolic cross (else the ball of the
    largest budget); _greedy_minima once per budget; the report reduced per
    threshold and budget."""
    from starlat import (Theorem2Report, enumerate_ball_arrays, make_lattice,
                         sample_unimodular_2d_arrays)
    from starlat.lattice import _check_cross, _cross_coeffs, _fold
    from starlat.minima import _greedy_minima
    from starlat.stats import _THRESHOLDS
    budgets = sorted(float(b) for b in budgets)
    R, rows = budgets[-1], []
    for B in sample_unimodular_2d_arrays(N, seed)[3]:
        L = make_lattice(B)
        w = L.U.T @ L.basis.T
        r0 = math.sqrt(float(_fold(np.add, w * w).max())) * (1.0 + 1e-9)
        root_s = float(np.max(body.evaluator(w)))
        if body.label == "hyperbola" and r0 < R and 0 < root_s < math.inf:
            ball = enumerate_ball_arrays(L, r0)[0]
            cross = _cross_coeffs(L, *_check_cross(root_s * root_s, R))
            coeffs = np.concatenate([ball, cross])
            coords = coeffs @ L.basis.T
            keep = _fold(np.add, coords * coords) <= (R * (1 + 1e-9)) ** 2
            coeffs, coords = coeffs[keep], coords[keep]
        else:
            coeffs, coords = enumerate_ball_arrays(L, R)
        fvals = np.asarray(body.evaluator(coords), dtype=float)
        norms2 = _fold(np.add, coords * coords)
        lam2 = []
        for b in budgets:
            sel = norms2 <= b * b
            chosen = _greedy_minima(coeffs[sel], fvals[sel], 2)
            lam2.append(float(fvals[sel][chosen[1]]) if len(chosen) == 2
                        else math.inf)
        rows.append(tuple(lam2))
    arr = np.array(rows)
    return Theorem2Report(
        body=body.label, budgets=tuple(budgets), samples=N, seed=seed,
        lambda2=tuple(rows),
        median_curve=tuple(float(v) for v in np.median(arr, axis=0)),
        thresholds=_THRESHOLDS,
        fraction_below=tuple(tuple(float(np.mean(arr[:, j] < t))
                                   for j in range(len(budgets)))
                             for t in _THRESHOLDS))


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


def recompute_lll(B):
    """lattice._lll as it was before the swap update: the same LLL (delta
    0.99) on lists, with modified Gram-Schmidt redone after every swap."""
    n, k, w, u = None, 1, B.T.tolist(), np.eye(len(B), dtype=int).tolist()
    while k < len(w):
        if n is None:  # modified Gram-Schmidt
            v, n, mu = w[:], [], np.eye(len(w)).tolist()
            for i, vi in enumerate(v):
                n.append(sum(a * a for a in vi))
                for j in range(i + 1, len(v)):
                    mu[j][i] = m = sum(a * b for a, b in zip(vi, v[j])) / n[i]
                    v[j] = [b - m * a for a, b in zip(vi, v[j])]
        for j in range(k - 1, -1, -1):
            if q := round(mu[k][j]):
                w[k], u[k], mu[k] = ([b - q * a for a, b in zip(x[j], x[k])]
                                     for x in (w, u, mu))
        if n[k] < (0.99 - mu[k][k - 1] ** 2) * n[k - 1]:  # Lovasz
            w[k - 1], w[k], u[k - 1], u[k] = w[k], w[k - 1], u[k], u[k - 1]
            n, k = None, max(k - 1, 1)
        else:
            k += 1
    return np.array(w).T, np.array(u, dtype=np.int64).T


def unreduced(L):
    """L searched on its own basis: W = B, U = I."""
    from starlat.lattice import Lattice
    return Lattice(L.dim, L.basis, L.det, L.basis,
                   np.eye(L.dim, dtype=np.int64))


def doubling_minima(f, L):
    """The exact-minima search that successive_minima_exact refines, kept as
    a reference: from radius det^(1/d) / floor, the radius doubles (or rises
    to 1.001 lambda_d / floor) until d independent points certify lambda_d.
    (values, witness coefficients) of the rows picked by reference_greedy,
    and the radii searched."""
    from starlat.bodies import boundedness_floor
    from starlat.lattice import enumerate_ball_arrays
    alpha, d = boundedness_floor(f, 512).floor, L.dim
    R, radii = max(L.det ** (1.0 / d) / alpha, 2.0**-500), []
    while True:
        radii.append(R)
        coeffs, coords = enumerate_ball_arrays(L, R)
        fvals = np.asarray(f.evaluator(coords), dtype=float)
        kept = reference_greedy(coeffs, fvals, d)
        if len(kept) < d:
            R *= 2.0
            continue
        lam = float(fvals[kept[-1]])
        if lam * 1.001 <= alpha * R:
            return (tuple(float(fvals[i]) for i in kept),
                    [tuple(int(v) for v in coeffs[i]) for i in kept], radii)
        R = max(2.0 * R, lam * 1.001 / alpha)


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
