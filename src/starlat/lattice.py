"""Lattices in low dimension: construction, ball enumeration, primitivity.

A lattice keeps the user-supplied basis B, in which coefficients are given,
and W = B U, reduced once by make_lattice (Gauss in the plane, LLL above);
one Fincke-Pohst search, vectorized level by level on stacks of bases,
enumerates W, but lists a small ball of one basis as its dual-norm box
under the same exact test: W^-1 sizes it only, adding no BLAS dependence."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (BudgetExceeded, DimensionTooSmall, NotLatticePoint,
                     SingularBasis)

DEFAULT_POINT_CAP = 10**8  # one setting; every check reads it at call time

_CHUNK_NODES = 2**14  # level nodes per chunk of a planar stack
_BOX_NODES = 4096  # box rows of one basis listed without levels

# relative inflation applied to every enumeration interval so that floating
# point rounding can never drop a boundary point
_INFLATE = 1e-9
_SCALED_DET_TOL = 1e-12
_LLL_DELTA = 0.99


@dataclass(frozen=True, eq=False)
class Lattice:
    """Full-rank lattice: basis columns, |det|, reduced W = basis @ U.
    Compared and hashed by identity (its arrays have no truth value)."""

    dim: int
    basis: np.ndarray  # shape (d, d); columns are the basis vectors
    det: float
    W: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)  # int64

    def __post_init__(self):
        for a in (self.basis, self.W, self.U):
            a.setflags(write=False)


@dataclass(frozen=True)
class LatticePoint:
    """A lattice point together with its integer coordinates in the basis."""

    coords: tuple[float, ...]
    coeffs: tuple[int, ...]


def _abs_det(B: np.ndarray) -> np.ndarray:
    if B.shape[-1] == 2:
        # direct formula keeps cancellation error at machine scale even for
        # skewed unimodular bases
        return np.abs(B[..., 0, 0] * B[..., 1, 1] - B[..., 0, 1] * B[..., 1, 0])
    return np.abs(np.linalg.det(B))


@np.errstate(all="ignore")  # det may overflow; a zero basis gives 0 / 0
def make_lattice(columns) -> Lattice:
    """Admit basis columns, then reduce them once (Gauss in the plane, LLL
    above) on their copy scaled exactly by 2^-e to largest entry in [1/2, 1)
    (no power there leaves the normal floats).  Admitted: finite entries,
    |det| / (longest column)^d > 1e-12 on that copy, |det| finite and > 0."""
    B = np.array(columns, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise SingularBasis(f"basis must be square, got shape {B.shape}")
    d = B.shape[0]
    if d < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {d}")
    if not np.isfinite(B).all():
        raise SingularBasis("basis entries must be finite")
    e = math.frexp(np.abs(B).max())[1]  # exact scale: no Gram entry overflows
    Bs = np.ldexp(B, -e)
    if not _abs_det(Bs) / math.sqrt(np.add.reduce(Bs * Bs, axis=0).max()) \
            ** d > _SCALED_DET_TOL:
        raise SingularBasis("basis columns are numerically dependent")
    det = float(_abs_det(B))
    if not 0 < det < math.inf:
        raise SingularBasis("det(B) is not representable in float64")
    W, U = _lll(Bs) if d > 2 else (M[0] for M in _gauss_reduce_2d(Bs[None]))
    return Lattice(d, B, det, np.ldexp(W, e), U)


def parse_basis(spec: str) -> np.ndarray:
    """Parse a basis spec like "1,0;0.5,0.866" (semicolons separate columns)."""
    cols = [part.split(",") for part in spec.split(";")]
    if len({len(c) for c in cols}) != 1 or any(not tok.strip()
                                              for c in cols for tok in c):
        raise ValueError(f"malformed basis spec {spec!r}: columns need the "
                         "same number of nonempty entries")
    arr = np.array([[float(tok) for tok in c] for c in cols])
    return arr.T  # each parsed row is one column


def golden_lattice() -> Lattice:
    """Planar lattice with basis (1,1) and ((1+sqrt 5)/2, (1-sqrt 5)/2).

    Every nonzero point has |x1*x2| = |m^2 + mn - n^2|, a nonzero integer,
    which makes it the classical example of a lattice admissible for the
    hyperbola body.
    """
    s = math.sqrt(5.0)
    return make_lattice([[1.0, (1.0 + s) / 2.0], [1.0, (1.0 - s) / 2.0]])


def is_primitive(L: Lattice, p: LatticePoint) -> bool:
    """True iff p is nonzero and its integer coefficients are coprime."""
    c = np.asarray(p.coeffs, dtype=np.int64)
    x = L.basis @ c
    err = float(np.linalg.norm(x - np.asarray(p.coords)))
    if err > 1e-9 * (1.0 + float(np.linalg.norm(p.coords))):
        raise NotLatticePoint(
            f"coords {p.coords} do not match basis * {p.coeffs}")
    return reduce(math.gcd, (abs(int(v)) for v in p.coeffs)) == 1


def perturb_basis(L: Lattice, magnitude: float, seed: int) -> Lattice:
    """Independent uniform offsets of sup-norm <= magnitude on every entry."""
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
    if not magnitude < 2.0**1023:  # NaN, inf, or a range 2m beyond the floats
        raise ValueError(f"magnitude must be below 2^1023, got {magnitude:g}")
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(-magnitude, magnitude, size=(L.dim, L.dim))
    return make_lattice(L.basis + offsets)


def random_unimodular(d: int, seed: int, steps: int = 12) -> np.ndarray:
    """Integer matrix of determinant +-1 built from elementary column ops."""
    rng = np.random.default_rng(seed)
    U = np.eye(d, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.integers(0, d, size=2)
        if i == j:
            U[:, [0, i]] = U[:, [i, 0]]
            continue
        U[:, j] += int(rng.integers(-2, 3)) * U[:, i]
    return U


def _fold(ufunc, X: np.ndarray) -> np.ndarray:
    """ufunc folded left to right over the d columns of X's last axis: much
    faster than numpy's reduction on a short axis and bit-equal to it for
    d <= 7, except that numpy sums a row of -0.0 terms to +0.0."""
    return reduce(ufunc, (X[..., j] for j in range(X.shape[-1])))


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


# B_2j / (2j)! for j = 1..5
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)


def _zeta(d: int) -> float:
    """Riemann zeta at an integer d >= 1: inf at the pole d = 1, else the
    terms k < 16 plus the Euler-Maclaurin tail from 16 with five Bernoulli
    terms (the first term left out is 3.4e-17 of zeta(2), less above)."""
    if d == 1:
        return math.inf
    terms = [k ** -d for k in range(1, 16)]
    terms += [16 ** (1 - d) / (d - 1), 16 ** -d / 2]
    terms += [b * math.prod(range(d, d + 2 * j + 1)) * 16 ** (-d - 2 * j - 1)
              for j, b in enumerate(_EULER_MACLAURIN)]
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# enumeration


def _check_budget(R: float, d: int, det: float) -> None:
    """Reject R <= 0 (or NaN) and a predicted point count vol(R)/det above
    DEFAULT_POINT_CAP, det the smallest covolume, in logs (no overflow)."""
    if not R > 0:
        raise ValueError("R must be positive")
    log_n = math.log(_unit_ball_volume(d)) - math.log(det) + d * math.log(R)
    if log_n > math.log(DEFAULT_POINT_CAP):
        pred = math.exp(log_n) if log_n < 709 else math.inf
        raise BudgetExceeded(f"predicted point count {pred:.3g} exceeds cap "
                             f"{DEFAULT_POINT_CAP}")


def _gauss_reduce_2d(B: np.ndarray):
    """Lagrange/Gauss reduction of a stack (N, 2, 2): (W, U), W = B @ U: put
    the shorter column first and subtract round(mu) times it, mu = <w0, w1> /
    <w0, w0> (products rounded, no fused multiply-add), until every mu is 0.
    A stack of one takes these steps on Python floats, bit for bit."""
    if len(B) == 1:  # columns (x0, x1, u0, u1) of W and U, floats and ints
        w, v = ([*x, *u] for x, u in zip(B[0].T.tolist(), ((1, 0), (0, 1))))
        for _ in range(256):
            if v[0] * v[0] + v[1] * v[1] < w[0] * w[0] + w[1] * w[1]:
                w, v = v, w
            mu = (w[0] * v[0] + w[1] * v[1]) / (w[0] * w[0] + w[1] * w[1])
            if not (q := round(mu)):
                break
            v = [b - q * a for a, b in zip(w, v)]
        return (np.array([w[0], v[0], w[1], v[1]]).reshape(1, 2, 2),
                np.array([w[2], v[2], w[3], v[3]], np.int64).reshape(1, 2, 2))
    W = np.array(B, dtype=float)
    U = np.zeros(W.shape, dtype=np.int64)
    U[:, 0, 0] = U[:, 1, 1] = 1
    for _ in range(256):
        G = _fold(np.add, W.mT[:, :, None] * W.mT[:, None])  # Gram matrices
        swap = G[:, 1, 1] < G[:, 0, 0]
        W[swap], U[swap] = W[swap, :, ::-1], U[swap, :, ::-1]
        mu = np.rint(G[:, 0, 1] / np.minimum(G[:, 0, 0], G[:, 1, 1]))
        if not mu.any():
            break
        W[:, :, 1] -= mu[:, None] * W[:, :, 0]
        U[:, :, 1] -= mu.astype(np.int64)[:, None] * U[:, :, 0]
    return W, U


def _lll(B: np.ndarray):
    """LLL reduction (delta 0.99) of one basis (d, d), W = B @ U: (W, U).
    Modified Gram-Schmidt on lists gives mu and the norms n once; size
    reduction and a swap of w_{k-1}, w_k update them in O(d) (Lenstra,
    Lenstra & Lovasz 1982).  Admission bounds the update's drift: admitted
    bases end as reduced as with Gram-Schmidt redone after each swap, bases
    it refuses (unimodular with entries of 1e8 or more) may end less so."""
    k, w, u = 1, B.T.tolist(), np.eye(len(B), dtype=int).tolist()
    v, n, mu = w[:], [], np.eye(len(w)).tolist()
    for i, vi in enumerate(v):
        n.append(sum(a * a for a in vi))
        for j in range(i + 1, len(v)):
            mu[j][i] = m = sum(a * b for a, b in zip(vi, v[j])) / n[i]
            v[j] = [b - m * a for a, b in zip(vi, v[j])]
    while k < len(w):
        for j in range(k - 1, -1, -1):
            if q := round(mu[k][j]):
                w[k], u[k], mu[k] = ([b - q * a for a, b in zip(x[j], x[k])]
                                     for x in (w, u, mu))
        if n[k] < (_LLL_DELTA - mu[k][k - 1] ** 2) * n[k - 1]:  # Lovasz
            m, a = mu[k][k - 1], n[k - 1]
            n[k - 1] = b = n[k] + m * m * a
            mu[k][k - 1], n[k] = m * a / b, a * n[k] / b
            w[k - 1], w[k], u[k - 1], u[k] = w[k], w[k - 1], u[k], u[k - 1]
            mu[k - 1][:k - 1], mu[k][:k - 1] = mu[k][:k - 1], mu[k - 1][:k - 1]
            for r in mu[k + 1:]:  # (mu_{i,k-1}, mu_{i,k}) of each i > k
                r[k], t = r[k - 1] - m * r[k], r[k]
                r[k - 1] = t + mu[k][k - 1] * r[k]
            k = max(k - 1, 1)
        else:
            k += 1
    return np.array(w).T, np.array(u, dtype=np.int64).T


def _gram_schmidt(W: np.ndarray):
    """(B, mu) of each basis of a stack (N, d, d) by modified Gram-Schmidt:
    B[i] = ||w_i*||^2 and mu[i][:, j - i - 1] = <w_i*, w_j> / B[i], j > i."""
    V = W.mT.copy()  # V[:, i] is column i
    B, mu = [], []
    for i in range(W.shape[1]):
        g = np.vecdot(V[:, i, None], V[:, i:])  # <w_i*, v_j>, j >= i
        B.append(g[:, 0])
        if i < W.shape[1] - 1:
            mu.append(g[:, 1:] / g[:, :1])
            V[:, i + 1:] -= mu[i][:, :, None] * V[:, i, None]
    return B, mu


def _box(w: np.ndarray, R: float):
    """_enum's dual-norm box of one basis w (d, d) as its X, or None."""
    d, limit = len(w), min(_BOX_NODES, DEFAULT_POINT_CAP)
    c = [math.hypot(*v) for v in w.T.tolist()]  # t_i >= R / ||w_i||
    if min(c) > 0 and math.prod(2 * (R // x) + 1 for x in c) <= limit:
        try:
            r = [math.hypot(*v) for v in np.linalg.inv(w).tolist()]
        except np.linalg.LinAlgError:  # singular: the levels refuse it
            return None
        t = [R * (1.0 + 2.0**-20) * x // 1 for x in r]  # NaN fails below
        if (math.hypot(*c) * math.hypot(*r) <= 2.0 ** (28 - 4 * d)
                and math.prod(2 * x + 1 for x in t) <= limit):
            X = np.empty((d, *(2 * int(x) + 1 for x in t[::-1])), np.int64)
            for i, x in enumerate(map(int, t)):  # x_i on axis d - 1 - i
                X[i] = np.arange(-x, x + 1).reshape(-1, *[1] * i)
            return X.reshape(d, -1).T
    return None


@np.errstate(all="ignore")  # non-finite bounds are refused before a cast
def _enum(W: np.ndarray, R: float):
    """(idx, X): every integer x with ||W x|| <= R for each basis of a stack
    (N, d, d), grouped by basis idx[k] of row k, lex in (x_{d-1}, ..., x_0).

    Modified Gram-Schmidt (accurate on skewed bases) gives ||W x||^2 =
    sum_i B_i (x_i + sum_{j>i} mu_ij x_j)^2.  Level by level from x_{d-1}
    (Fincke-Pohst), one numpy step extends every node of the stack by all
    x_i in its remaining radius: nodes gather B_i and mu_ij by basis
    index, np.repeat + cumsum offsets expand them.  Intervals are inflated
    by 1e-9, the exact test ||W x||^2 <= R^2 ends the search, and a level
    of more than DEFAULT_POINT_CAP nodes of one basis is BudgetExceeded, as
    is a level whose nodes' centers c and half-widths w of x_i have a sum of
    squares of 2^90 or more or not finite (an overflowing R^2 among them).
    Below it every |c|, w < 2^45 and, for under 2^31 nodes, the level's
    count is below 2^62 (Cauchy-Schwarz): no cast or count overflows.

    A single basis with kappa = ||W||_F ||W^-1||_F <= 2^(28 - 4d) lists its
    box |x_i| <= floor(R (1 + 2^-20) ||r_i||), r_i row i of W^-1, in that
    order for the test if it holds at most min(_BOX_NODES, DEFAULT_POINT_CAP)
    rows: x_i = <r_i, W x>, and the test's dots and LU's r_i err by 2^(4d -
    53) kappa relative (Higham 2002, Thm 9.4, Lemma 9.6), so it holds every
    kept row and each level's nodes.  Other W and R^2 = inf take the levels."""
    N, d = W.shape[:2]
    R2 = (R * (1.0 + _INFLATE)) ** 2 if R < 2.0**511 else math.inf  # NaN too
    if N > 1 or not R2 < math.inf or (X := _box(W[0], R)) is None:
        idx, rem, cen, cols = np.arange(N), np.full(N, R2), np.zeros(N), []
        B, mu = _gram_schmidt(W)
        for i in range(d - 1, -1, -1):  # cols: x_{d-1}, ..., x_i per node
            w = np.sqrt(np.maximum(rem, 0.0) / B[i][idx]) * (1 + _INFLATE)
            if not cen.dot(cen) + w.dot(w) < 2.0**90:  # NaN fails too
                raise BudgetExceeded("the search leaves the float range: "
                                     "the radius is too large for the basis")
            lo = np.ceil(-cen - w).astype(np.int64)
            cnt = np.floor(w - cen).astype(np.int64) - lo + 1
            end = cnt.cumsum()
            total = int(end[-1])
            if total > DEFAULT_POINT_CAP:
                worst = total if N == 1 else int(np.bincount(idx, cnt).max())
                if worst > DEFAULT_POINT_CAP:
                    raise BudgetExceeded(f"{worst} candidates exceed cap "
                                         f"{DEFAULT_POINT_CAP}")
            x = np.arange(total) + (lo + cnt - end).repeat(cnt)
            cols = [c.repeat(cnt) for c in cols] + [x]
            idx = idx.repeat(cnt) if N > 1 else idx  # one basis: as is
            if i:
                y = x + cen.repeat(cnt)
                rem = rem.repeat(cnt) - B[i][idx] * (y * y)
                cen = reduce(np.add, (m * c for m, c in
                                      zip(mu[i - 1][idx].T, cols[::-1])))
        X = np.array(cols[::-1]).T
    # BLAS dots either way, so both are bit-equal to X @ W.T of one basis
    xy = X @ W[0].T if N == 1 else np.vecdot(W[idx], X[:, None, :])
    keep = _fold(np.add, xy * xy) <= R2
    X = np.compress(keep, X, axis=0)  # X[keep], faster on its column order
    return (idx[keep] if N > 1 else np.zeros(len(X), np.int64)), X


def _reduce_planar(bases):
    """(B, det, W, U) of a planar stack (N, 2, 2) of trusted bases, such as
    the sampler's (finite, as u < 1 gives y <= 2^53, and unimodular), which
    are not admitted: det their |det| and W = B @ U Gauss-reduced,
    make_lattice's bit for bit where no Gram entry leaves the normal floats."""
    B = np.asarray(bases, dtype=float)
    return (B, _abs_det(B), *_gauss_reduce_2d(B))


def _windows(W: np.ndarray, det: np.ndarray, R: float, limit: int):
    """(lo, hi) runs of consecutive bases of a reduced planar stack W, each
    of about `limit` level nodes of the ball of radius R, (2 R l / det + 1)
    (2 R / l + 1) for a basis of shortest vector l."""
    short = np.sqrt(np.vecdot(W[:, :, 0], W[:, :, 0]))
    nodes = (2 * R * short / det + 1) * (2 * R / short + 1)
    window = (np.cumsum(nodes) - nodes) // limit
    starts = np.flatnonzero(np.diff(window, prepend=-1))
    return zip(starts, [*starts[1:], len(W)])


def _planar_points(stack, R: float):
    """Chunks (idx, coeffs, coords) of the points of norm <= R of each basis
    of a planar stack ``_reduce_planar(bases)``, capped as by
    enumerate_ball_arrays; coords are B c by the dots of ``coeffs @ B.T``.
    A chunk holds about _CHUNK_NODES level nodes, so memory is flat in N."""
    B, det, W, U = stack
    _check_budget(R, 2, det.min(initial=math.inf))
    for lo, hi in _windows(W, det, R, _CHUNK_NODES):
        idx, X = _enum(W[lo:hi], R)
        u = U[lo:hi][idx]
        coeffs = u[:, :, 0] * X[:, :1] + u[:, :, 1] * X[:, 1:]  # U x
        yield idx + lo, coeffs, np.vecdot(B[lo:hi][idx], coeffs[:, None, :])


def enumerate_ball_arrays(L: Lattice, R: float):
    """All lattice points with Euclidean norm <= R, as arrays.

    Returns (coeffs, coords): integer coefficients w.r.t. the stored basis
    and real coordinates, rows in search order, the origin among them.  The
    kernel searches the stored L.W, a stack of one; a count above
    DEFAULT_POINT_CAP raises BudgetExceeded.
    """
    _check_budget(R, L.dim, L.det)
    coeffs = _enum(L.W[None], R)[1] @ L.U.T  # x = W c = B (U c)
    return coeffs, coeffs @ L.basis.T


def _check_cross(s: float, R: float):
    """(t, R_in) = (sqrt(s), R) inflated by 1e-9, BudgetExceeded unless R_in
    < 2^24 t: a rectangle of the cross has aspect up to (R/t)^2, so its float
    reduction is off by about 2^-53 (R/t)^2 (2^-5 at the bound), against the
    26 % by which the sqrt(2) ball exceeds the cross's sqrt(5/4) (measured
    against exact rationals, Haar lattices lost points from 2^27 on)."""
    t, R_in = math.sqrt(s * (1.0 + _INFLATE)), R * (1.0 + _INFLATE)
    if not R_in < 2.0**24 * t:
        raise BudgetExceeded(f"the search leaves the float range: radius "
                             f"{R:g} is 2^24 sqrt(s) or more")
    return t, R_in


def _cross_coeffs(L: Lattice, t: float, R_in: float) -> np.ndarray:
    """Coefficients of points of a planar L near the axes, (t, R_in) =
    _check_cross(s, R), s, R in (0, inf): a superset of the points with
    |x1*x2| <= t^2, ||x|| <= R_in, the origin among them, lex-sorted and
    deduplicated (for memory).  A point with |x_i| <= |x_k| and 2^(j-1) t <
    |x_k| <= 2^j t has |x_i| < 2^(1-j) t, so the rectangles {|x_i| <=
    2^(1-j) t, |x_k| <= 2^j t}, j = 1..ceil(log2(R_in/t)), cover it;
    half-widths (a, h) lie in the ball of radius sqrt(2) of diag(1/a, 1/h)
    B.  One enumeration of this Gauss-reduced stack replaces the pi R^2/det
    points of the ball; DEFAULT_POINT_CAP caps it."""
    sides = []
    for j in range(1, max(1, math.ceil(math.log2(R_in / t))) + 1):
        short, long_ = min(2.0 ** (1 - j) * t, R_in), min(2.0 ** j * t, R_in)
        sides += [(short, long_), (long_, short)]
    W, U = _gauss_reduce_2d(L.basis / np.array(sides)[:, :, None])
    idx, X = _enum(W, math.sqrt(2.0))
    if len(X) > DEFAULT_POINT_CAP:
        raise BudgetExceeded(f"{len(X)} candidates exceed cap "
                             f"{DEFAULT_POINT_CAP}")
    coeffs = np.vecdot(U[idx], X[:, None, :])
    coeffs = coeffs[np.lexsort(coeffs.T[::-1])]
    return coeffs[np.append(True, _fold(np.logical_or,
                                        coeffs[1:] != coeffs[:-1]))]


def primitive_mask(coeffs: np.ndarray) -> np.ndarray:
    """Boolean mask of rows whose integer coefficients are coprime; the
    zero row is not (its gcd is 0)."""
    return reduce(np.gcd, coeffs.T) == 1
