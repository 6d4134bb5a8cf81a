"""Lattices in low dimension: construction, ball enumeration, primitivity.

A lattice is stored by the user-supplied basis (no silent reduction); all
enumeration goes through one Fincke-Pohst coefficient-interval search,
vectorized level by level in every dimension, never an unbounded grid
scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionTooSmall,
    NotLatticePoint,
    SingularBasis,
)

DEFAULT_POINT_CAP = 10**8

# relative inflation applied to every enumeration interval so that floating
# point rounding can never drop a boundary point
_INFLATE = 1e-9
_SCALED_DET_TOL = 1e-12


@dataclass(frozen=True)
class Lattice:
    """A full-rank lattice given by d basis columns and its cached determinant."""

    dim: int
    basis: np.ndarray  # shape (d, d); columns are the basis vectors
    det: float

    def __post_init__(self):
        self.basis.setflags(write=False)


@dataclass(frozen=True)
class LatticePoint:
    """A lattice point together with its integer coordinates in the basis."""

    coords: tuple[float, ...]
    coeffs: tuple[int, ...]

    @property
    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.coords))

    def is_origin(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def _abs_det(B: np.ndarray) -> float:
    if B.shape[0] == 2:
        # direct formula keeps cancellation error at machine scale even for
        # skewed unimodular bases
        return abs(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])
    return abs(np.linalg.det(B))


def make_lattice(columns) -> Lattice:
    """Build a lattice from basis columns, rejecting degenerate input."""
    B = np.array(columns, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise SingularBasis(f"basis must be square, got shape {B.shape}")
    d = B.shape[0]
    if d < 2:
        raise DimensionTooSmall(f"need dimension >= 2, got {d}")
    if not np.all(np.isfinite(B)):
        raise SingularBasis("basis entries must be finite")
    scale = float(np.max(np.linalg.norm(B, axis=0)))
    det = _abs_det(B)
    if scale == 0.0 or det / scale**d <= _SCALED_DET_TOL:
        raise SingularBasis("basis columns are numerically dependent")
    return Lattice(dim=d, basis=B, det=det)


def parse_basis(spec: str) -> np.ndarray:
    """Parse a basis spec like "1,0;0.5,0.866" (semicolons separate columns)."""
    cols = [part.split(",") for part in spec.split(";")]
    if len({len(c) for c in cols}) != 1 or any(not tok.strip()
                                              for c in cols for tok in c):
        raise ValueError(f"malformed basis spec {spec!r}: columns need the "
                         "same number of nonempty entries")
    arr = np.array([[float(tok) for tok in c] for c in cols])
    return arr.T  # each parsed row is one column


def lattice_point(L: Lattice, coeffs) -> LatticePoint:
    c = np.asarray(coeffs, dtype=np.int64)
    x = L.basis @ c
    return LatticePoint(coords=tuple(float(v) for v in x),
                        coeffs=tuple(int(v) for v in c))


def golden_lattice() -> Lattice:
    """Planar lattice with basis (1,1) and ((1+sqrt 5)/2, (1-sqrt 5)/2).

    Every nonzero point has |x1*x2| = |m^2 + mn - n^2|, a nonzero integer,
    which makes it the classical example of a lattice admissible for the
    hyperbola body.
    """
    s = math.sqrt(5.0)
    return make_lattice([[1.0, (1.0 + s) / 2.0], [1.0, (1.0 - s) / 2.0]])


def is_primitive(L: Lattice, p: LatticePoint, tol: float = 1e-9) -> bool:
    """True iff p is nonzero and its integer coefficients are coprime."""
    c = np.asarray(p.coeffs, dtype=np.int64)
    x = L.basis @ c
    err = float(np.linalg.norm(x - np.asarray(p.coords)))
    if err > tol * (1.0 + float(np.linalg.norm(p.coords))):
        raise NotLatticePoint(
            f"coords {p.coords} do not match basis * {p.coeffs}")
    if p.is_origin():
        return False
    return reduce(math.gcd, (abs(int(v)) for v in p.coeffs)) == 1


def perturb_basis(L: Lattice, magnitude: float, seed: int) -> Lattice:
    """Independent uniform offsets of sup-norm <= magnitude on every entry."""
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
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


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


# B_2j / (2j)! for j = 1..5
_EULER_MACLAURIN = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)


def _zeta(d: int) -> float:
    """Riemann zeta at an integer d >= 1: inf at the pole d = 1, pi^2/6 for
    d = 2, else the terms k < 16 plus the Euler-Maclaurin tail from 16 with
    five Bernoulli terms (the first term left out is 2e-17 of zeta(3), less
    for larger d)."""
    if d == 1:
        return math.inf
    if d == 2:
        return math.pi ** 2 / 6
    terms = [k ** -d for k in range(1, 16)]
    terms += [16 ** (1 - d) / (d - 1), 16 ** -d / 2]
    terms += [b * math.prod(range(d, d + 2 * j + 1)) * 16 ** (-d - 2 * j - 1)
              for j, b in enumerate(_EULER_MACLAURIN)]
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# enumeration


def _gauss_reduce_2d(B: np.ndarray):
    """Lagrange/Gauss reduction. Returns (W, U) with W = B @ U, det U = +-1."""
    W = B.astype(float).copy()
    U = np.eye(2, dtype=np.int64)
    for _ in range(256):
        if W[:, 1] @ W[:, 1] < W[:, 0] @ W[:, 0]:
            W = W[:, ::-1].copy()
            U = U[:, ::-1].copy()
        mu = round(float((W[:, 0] @ W[:, 1]) / (W[:, 0] @ W[:, 0])))
        if mu == 0:
            break
        W[:, 1] -= mu * W[:, 0]
        U[:, 1] -= mu * U[:, 0]
    return W, U


def _size_reduce(B: np.ndarray):
    """One pass of Gram-Schmidt size reduction (columns). W = B @ U."""
    d = B.shape[0]
    W = B.astype(float).copy()
    U = np.eye(d, dtype=np.int64)
    _, R = np.linalg.qr(W)
    for j in range(1, d):
        for i in range(j - 1, -1, -1):
            mu = round(float(R[i, j] / R[i, i]))
            if mu:
                W[:, j] -= mu * W[:, i]
                U[:, j] -= mu * U[:, i]
                R[:, j] -= mu * R[:, i]
    return W, U


def _enum(W: np.ndarray, R: float, cap: int) -> np.ndarray:
    """All integer x with ||W x|| <= R, level by level (Fincke-Pohst).

    Gram-Schmidt on the columns w_i of W (modified, so it stays accurate on
    skewed bases) gives ||W x||^2 = sum_i B_i (x_i + sum_{j>i} mu_ij x_j)^2
    with B_i = ||w_i*||^2.  The search starts from the interval of x_{d-1}
    and extends every node (x_{i+1}, ..., x_{d-1}) of a level by all x_i
    within its remaining radius, one numpy step per level (np.repeat +
    cumsum offsets).  Every interval is inflated by 1e-9 and the exact
    test ||W x||^2 <= R^2 ends the search.  Raises BudgetExceeded as soon
    as a level holds more than `cap` nodes.
    """
    d = W.shape[0]
    V = W.T.tolist()
    B = [0.0] * d
    mu = [[0.0] * d for _ in range(d)]
    for i in range(d):
        B[i] = sum([a * a for a in V[i]])
        for j in range(i + 1, d):
            m = mu[i][j] = sum([a * b for a, b in zip(V[i], V[j])]) / B[i]
            V[j] = [b - m * a for a, b in zip(V[i], V[j])]
    R2 = (R * (1.0 + _INFLATE)) ** 2
    top = int(math.sqrt(R2 / B[-1]) * (1.0 + _INFLATE))
    if 2 * top + 1 > cap:
        raise BudgetExceeded(f"{2 * top + 1} candidates exceed cap {cap}")
    x = np.arange(-top, top + 1, dtype=np.int64)
    X = x[:, None]  # row = one node (x_{i+1}, ..., x_{d-1})
    rem = R2 - B[-1] * (x * x)
    for i in range(d - 2, -1, -1):
        cen = mu[i][i + 1] * X[:, 0]
        for k in range(1, d - 1 - i):
            cen += mu[i][i + 1 + k] * X[:, k]
        w = np.sqrt(np.maximum(rem, 0.0) / B[i]) * (1.0 + _INFLATE)
        lo = np.ceil(-cen - w).astype(np.int64)
        cnt = np.maximum(np.floor(w - cen).astype(np.int64) - lo + 1, 0)
        end = np.cumsum(cnt)
        total = int(end[-1])
        if total > cap:
            raise BudgetExceeded(f"{total} candidates exceed cap {cap}")
        X = np.column_stack((np.arange(total) + np.repeat(lo + cnt - end, cnt),
                             np.repeat(X, cnt, axis=0)))
        if i:
            rem = np.repeat(rem, cnt) \
                - B[i] * (X[:, 0] + np.repeat(cen, cnt)) ** 2
    xy = X @ W.T
    return X[(xy * xy).sum(axis=1) <= R2]


def enumerate_ball_arrays(L: Lattice, R: float, cap: int = DEFAULT_POINT_CAP,
                          sort: bool = True):
    """All lattice points with Euclidean norm <= R, as arrays.

    Returns (coeffs, coords): integer coefficients w.r.t. the stored basis
    and real coordinates, rows sorted lexicographically by coefficients
    (callers that do order-independent reductions may pass sort=False).
    The origin row is included.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    d = L.dim
    vol = _unit_ball_volume(d) * R**d
    if vol / L.det > cap:
        raise BudgetExceeded(
            f"predicted point count {vol / L.det:.3g} exceeds cap {cap}")
    W, U = (_gauss_reduce_2d if d == 2 else _size_reduce)(L.basis)
    cred = _enum(W, R, cap)
    coeffs = cred @ U.T  # x = W c = B (U c)
    coords = coeffs @ L.basis.T
    if sort:
        order = np.lexsort(tuple(coeffs[:, k] for k in range(d - 1, -1, -1)))
        coeffs, coords = coeffs[order], coords[order]
    return coeffs, coords


def enumerate_hyperbolic_cross(L: Lattice, s: float, R: float,
                               cap: int = DEFAULT_POINT_CAP):
    """Planar lattice points near the axes, as arrays (coeffs, coords).

    Returns a superset of the nonzero points with |x1*x2| <= s and
    ||x|| <= R, rows deduplicated and sorted lexicographically by
    coefficients; coords are ``coeffs @ L.basis.T`` as in
    :func:`enumerate_ball_arrays`.  A point with |x_i| <= |x_k| and
    2^(j-1) t < |x_k| <= 2^j t, t = sqrt(s), has |x_i| <= s/|x_k| <
    2^(1-j) t, so the region is covered by the dyadic rectangles
    {|x_i| <= 2^(1-j) t, |x_k| <= 2^j t}, j = 1..ceil(log2(R/t)), on each
    axis.  A rectangle with half-widths (a, h) lies in the ellipse that is
    the ball of radius sqrt(2) of the lattice diag(1/a, 1/h) B, enumerated
    after Gauss reduction, so the work is O(log(R^2/s)) small enumerations
    instead of the pi R^2/det points of the ball.  Like every enumeration
    interval, s and R are inflated by a relative 1e-9; `cap` bounds the
    candidates summed over all rectangles.
    """
    if L.dim != 2:
        raise DimensionMismatch("hyperbolic-cross enumeration is planar")
    if not R > 0:
        raise ValueError("R must be positive")
    if not 0 < s < math.inf:
        raise ValueError("s must be positive and finite")
    if R == math.inf:
        raise BudgetExceeded("an infinite radius needs infinitely many "
                             "rectangles")
    t = math.sqrt(s * (1.0 + _INFLATE))
    R_in = R * (1.0 + _INFLATE)
    parts = []
    total = 0
    for j in range(1, max(1, math.ceil(math.log2(R_in / t))) + 1):
        short, long_ = min(2.0 ** (1 - j) * t, R_in), min(2.0 ** j * t, R_in)
        for a, h in ((short, long_), (long_, short)):
            W, U = _gauss_reduce_2d(L.basis / np.array([[a], [h]]))
            cred = _enum(W, math.sqrt(2.0), cap - total)
            total += len(cred)
            parts.append(cred @ U.T)
    coeffs = np.unique(np.concatenate(parts), axis=0)
    coeffs = coeffs[np.any(coeffs != 0, axis=1)]
    return coeffs, coeffs @ L.basis.T


def enumerate_ball(L: Lattice, R: float,
                   cap: int = DEFAULT_POINT_CAP) -> list[LatticePoint]:
    """Object wrapper around :func:`enumerate_ball_arrays`."""
    coeffs, coords = enumerate_ball_arrays(L, R, cap)
    return [
        LatticePoint(coords=tuple(float(v) for v in x),
                     coeffs=tuple(int(v) for v in c))
        for c, x in zip(coeffs, coords)
    ]


def primitive_mask(coeffs: np.ndarray) -> np.ndarray:
    """Boolean mask of rows whose integer coefficients are coprime; the
    zero row is not (its gcd is 0)."""
    g = np.gcd.reduce(np.abs(coeffs), axis=1)
    return g == 1
