"""Distance functions and the star-body catalog.

A star body S = {x : f(x) <= 1} is represented by its distance function f
(nonnegative, continuous, positively homogeneous of degree 1).  Evaluators
are numpy-vectorized: they accept arrays of shape (..., d) and return
values of shape (...).  Catalog bodies carry a closed-form sphere floor.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .lattice import _fold

DEFAULT_BOUNDED_TOL = 1e-6


@dataclass(frozen=True)
class DistanceFunction:
    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str
    floor: float | None = None  # lower bound of f on the sphere; None: unknown

    def __call__(self, x) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class BoundednessCertificate:
    floor: float  # f.floor, or a sampled estimate of min f on the sphere
    bounded: bool


def evaluate(f: DistanceFunction, x) -> float:
    """Scalar evaluation; membership in the body is evaluate(f, x) <= 1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dim,):
        raise DimensionMismatch(f"expected a point of dimension {f.dim}")
    return float(f.evaluator(x))


def _floor_times(floor: float | None, factor: float) -> float | None:
    """floor * factor lowered by a relative 1e-9, far more than the error of
    the pow, sqrt, division or SVD behind a factor; None stays None."""
    return None if floor is None else floor * factor * (1.0 - 1e-9)


def _check_factor(kind: str, c: float) -> None:
    if not 0.0 < c < math.inf:
        raise ValueError(f"{kind} factor must be finite and > 0, got c={c:g}")


# ---------------------------------------------------------------------------
# catalog


def pnorm_ball(dim: int = 2, p: float = 2) -> DistanceFunction:
    """Unit ball of the p-norm (a quasi-norm for p < 1), 0 < p <= inf.  Its
    floor is 1 for p <= 2 (attained on the axes) and d^(1/p - 1/2) for p > 2
    (on the diagonals, by Hoelder's inequality).  Other p than 1, 2, inf take
    m (sum (|x_i| / m)^p)^(1/p), m = max |x_i|: each (|x_i| / m)^p is in
    [0, 1], so only a value beyond the floats overflows (to inf)."""
    if not p > 0:
        raise ValueError(f"ball needs p > 0, got p={p:g}")
    if p in (1, 2, math.inf):
        ev = lambda x: np.linalg.norm(x, ord=p, axis=-1)
    else:
        @np.errstate(all="ignore")
        def ev(x):
            a = np.abs(x)
            m = _fold(np.maximum, a)
            y = a / np.where(m > 0, m, 1.0)[..., None]
            return m * _fold(np.add, y ** p) ** (1.0 / p)
    return DistanceFunction(dim=dim, evaluator=ev, label=f"ball:p={p:g}",
                            floor=1.0 if p <= 2 else
                            _floor_times(1.0, dim ** (1.0 / p - 0.5)))


def box(dim: int = 2) -> DistanceFunction:
    """Sup-norm cube, alias of the p=inf ball."""
    return dataclasses.replace(pnorm_ball(dim, math.inf), label="box")


def hyperbolic(dim: int = 2) -> DistanceFunction:
    """f(x) = |x_1 ... x_d|^(1/d): degree-1 homogeneous, vanishes on the axes;
    the product of points (..., d) or (d,) is a column fold (lattice._fold)."""
    ev = lambda x: np.abs(_fold(np.multiply, np.asarray(x))) ** (1.0 / dim)
    return DistanceFunction(dim=dim, evaluator=ev, label="hyperbola",
                            floor=0.0)


def scale_body(f: DistanceFunction, c: float) -> DistanceFunction:
    """The body c*S, i.e. distance function f/c; finite c > 0."""
    _check_factor("scale", c)
    ev = np.errstate(over="ignore")(lambda x: f.evaluator(x) / c)
    return DistanceFunction(dim=f.dim, evaluator=ev,
                            label=f"scale:c={c:g}:{f.label}",
                            floor=_floor_times(f.floor, 1.0 / c))


def inflate_body(f: DistanceFunction, c: float) -> DistanceFunction:
    """Distance function c*f (the body S/c); finite c > 0."""
    _check_factor("inflate", c)
    ev = lambda x: c * f.evaluator(x)
    return DistanceFunction(dim=f.dim, evaluator=ev,
                            label=f"inflate:c={c:g}:{f.label}",
                            floor=_floor_times(f.floor, c))


def linear_image(f: DistanceFunction, A) -> DistanceFunction:
    """The body A*S, i.e. distance function x -> f(A^-1 x).  Its floor is
    f's over the largest singular value of A: ||A^-1 x|| >= ||x|| / s_max."""
    A = np.asarray(A, dtype=float)
    Ainv = np.linalg.inv(A)
    ev = lambda x: f.evaluator(x @ Ainv.T)
    return DistanceFunction(dim=f.dim, evaluator=ev,
                            label=f"image:{f.label}",
                            floor=_floor_times(
                                f.floor, 1.0 / float(np.linalg.norm(A, 2))))


def _spec_options(spec: str, keys: tuple[str, ...]) -> list[str]:
    """Values of the options `keys` of a spec "head:k1=v1:k2=v2...", in the
    order of `keys`; each must appear once.  A token starts an option only
    when it reads `key=` with `key` in `keys`; other tokens continue the
    value before them, colon included, so a nested body spec keeps its
    colons ("sublevel:body=scale:c=2:ball:p=2:t=1")."""
    opts: dict[str, str] = {}
    key = None
    for tok in spec.split(":")[1:]:
        k, eq, v = tok.partition("=")
        if eq and k in keys:
            if k in opts:
                raise ValueError(f"spec {spec!r} repeats the option {k}=")
            key, opts[k] = k, v
        elif key is None:
            raise ValueError(f"unexpected {tok!r} in spec {spec!r}")
        else:
            opts[key] += ":" + tok
    missing = [k for k in keys if k not in opts]
    if missing:
        raise ValueError(f"spec {spec!r} is missing the option {missing[0]}=")
    return [opts[k] for k in keys]


def parse_body(spec: str, dim: int = 2) -> DistanceFunction:
    """Parse body spec strings: "ball:p=2", "box", "hyperbola",
    "scale:c=2:ball:p=2"."""
    if spec.startswith("scale:"):
        copt, _, inner = spec[len("scale:"):].partition(":")
        if not copt.startswith("c="):
            raise ValueError(f"malformed scale spec {spec!r}")
        if not inner:
            raise ValueError(f"spec {spec!r} is missing the inner body "
                             "(scale:c=<factor>:<body>)")
        return scale_body(parse_body(inner, dim), float(copt[2:]))
    if spec == "box":
        return box(dim)
    if spec in ("hyperbola", "hyperbolic"):
        return hyperbolic(dim)
    if spec.partition(":")[0] == "ball":
        (ptok,) = _spec_options(spec, ("p",))
        p = math.inf if ptok in ("inf", "oo") else float(ptok)
        return pnorm_ball(dim, p)
    raise ValueError(f"unknown body spec {spec!r}")


# ---------------------------------------------------------------------------
# sphere sampling, boundedness, body distance


def sphere_samples(dim: int, resolution: int) -> np.ndarray:
    """Deterministic quasi-uniform sample of the unit sphere.

    d=2 uses an angle grid, d=3 a Fibonacci spiral, d>=4 a product grid of
    spherical angles.  `resolution` is the number of directions per
    great-circle sweep (>= 64).
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    if dim == 2:
        t = np.arange(resolution) * (2.0 * math.pi / resolution)
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    if dim == 3:
        n = resolution * resolution // 4
        k = np.arange(n) + 0.5
        phi = math.pi * (1.0 + math.sqrt(5.0)) * k
        z = 1.0 - 2.0 * k / n
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    # product grid over spherical angles, total size capped near resolution^2
    per = max(int((4 * resolution * resolution) ** (1.0 / (dim - 1))), 8)
    grids = [np.linspace(0.0, math.pi, per, endpoint=True)] * (dim - 2)
    grids.append(np.arange(per) * (2.0 * math.pi / per))
    mesh = np.meshgrid(*grids, indexing="ij")
    angles = np.stack([m.ravel() for m in mesh], axis=1)
    pts = np.empty((angles.shape[0], dim))
    s = np.ones(angles.shape[0])
    for i in range(dim - 1):
        pts[:, i] = s * np.cos(angles[:, i])
        s = s * np.sin(angles[:, i])
    pts[:, dim - 1] = s
    return pts


def _refine_min_2d(func, theta: float, half_width: float) -> float:
    """80 golden-section steps for min func(cos t, sin t) on a bracket."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = theta - half_width, theta + half_width
    val = lambda t: float(func(np.array([math.cos(t), math.sin(t)])))
    c = b - gr * (b - a)
    d_ = a + gr * (b - a)
    fc, fd = val(c), val(d_)
    for _ in range(80):
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - gr * (b - a)
            fc = val(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + gr * (b - a)
            fd = val(d_)
    return min(fc, fd)


def _sphere_min(func, dim: int, resolution: int) -> float:
    """Least value of func (points -> values) over the sphere sample, refined
    near the sample point attaining it: golden-section search on the angle
    in the plane, 30 rounds of 64 shrinking random perturbations in higher
    dimension."""
    S = sphere_samples(dim, resolution)
    vals = np.asarray(func(S), dtype=float)
    i = int(np.argmin(vals))
    if dim == 2:
        return min(float(vals[i]), _refine_min_2d(
            func, math.atan2(S[i, 1], S[i, 0]), 2.0 * math.pi / resolution))
    rng = np.random.default_rng(0)
    best_dir, spread = S[i], 0.2
    best_val = float(func(best_dir))
    for _ in range(30):
        cand = best_dir + spread * rng.standard_normal((64, best_dir.size))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        vals_c = func(cand)
        idx = int(np.argmin(vals_c))
        if float(vals_c[idx]) < best_val:
            best_val, best_dir = float(vals_c[idx]), cand[idx]
        spread *= 0.7
    return min(float(vals[i]), best_val)


def boundedness_floor(f: DistanceFunction,
                      resolution: int = 1024) -> BoundednessCertificate:
    """Floor of f on the unit sphere; the body is bounded when it exceeds
    DEFAULT_BOUNDED_TOL.  The floor is the closed form ``f.floor`` when the
    body has one, as every catalog body does.  Otherwise it is the refined
    minimum over the sphere sample of this resolution and the points +-e_i:
    an estimate from above of the true minimum, which certifies nothing."""
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    floor = f.floor
    if floor is None:
        axes = np.concatenate([np.eye(f.dim), -np.eye(f.dim)])
        floor = min(_sphere_min(f.evaluator, f.dim, resolution),
                    float(np.min(f.evaluator(axes))))
    return BoundednessCertificate(floor=floor,
                                  bounded=floor > DEFAULT_BOUNDED_TOL)


def body_distance(f: DistanceFunction, g: DistanceFunction,
                  resolution: int = 1024) -> float:
    """sup |f - g| over the deterministic sphere sample (refined for d=2).

    Homogeneity reduces the sup over the solid unit ball to the sphere.
    """
    if f.dim != g.dim:
        raise DimensionMismatch(f"{f.dim} != {g.dim}")
    neg = lambda x: -np.abs(np.asarray(f.evaluator(x))
                            - np.asarray(g.evaluator(x)))
    return -_sphere_min(neg, f.dim, resolution)
