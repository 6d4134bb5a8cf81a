"""Distance functions and the star-body catalog.

A star body S = {x : f(x) <= 1} is represented by its distance function f
(nonnegative, continuous, positively homogeneous of degree 1).  Evaluators
are numpy-vectorized: they accept arrays of shape (..., d) and return
values of shape (...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch

DEFAULT_BOUNDED_TOL = 1e-6


@dataclass(frozen=True)
class DistanceFunction:
    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str
    params: tuple = ()

    def __call__(self, x) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class BoundednessCertificate:
    floor: float  # estimated min of f on the unit sphere (upper estimate)
    bounded: bool


def evaluate(f: DistanceFunction, x) -> float:
    """Scalar evaluation; membership in the body is evaluate(f, x) <= 1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dim,):
        raise DimensionMismatch(f"expected a point of dimension {f.dim}")
    return float(f.evaluator(x))


# ---------------------------------------------------------------------------
# catalog


def pnorm_ball(dim: int = 2, p: float = 2) -> DistanceFunction:
    """Unit ball of the p-norm, p in {1, 2, inf}."""
    if p == math.inf:
        ev = lambda x: np.abs(x).max(axis=-1)
        label = "ball:p=inf"
    else:
        ev = lambda x: np.linalg.norm(x, ord=p, axis=-1)
        label = f"ball:p={p:g}"
    return DistanceFunction(dim=dim, evaluator=ev, label=label, params=(p,))


def box(dim: int = 2) -> DistanceFunction:
    """Sup-norm cube, alias of the p=inf ball."""
    f = pnorm_ball(dim, math.inf)
    return DistanceFunction(dim=dim, evaluator=f.evaluator, label="box")


def hyperbolic(dim: int = 2) -> DistanceFunction:
    """f(x) = |x_1 ... x_d|^(1/d): degree-1 homogeneous, vanishes on the axes."""
    ev = lambda x: np.abs(np.prod(x, axis=-1)) ** (1.0 / dim)
    return DistanceFunction(dim=dim, evaluator=ev, label="hyperbola",
                            params=(dim,))


def scale_body(f: DistanceFunction, c: float) -> DistanceFunction:
    """The body c*S, i.e. distance function f/c."""
    if c <= 0:
        raise ValueError("scale factor must be positive")
    base = f.evaluator
    ev = lambda x: base(x) / c
    return DistanceFunction(dim=f.dim, evaluator=ev,
                            label=f"scale:c={c:g}:{f.label}",
                            params=(c,) + f.params)


def inflate_body(f: DistanceFunction, c: float) -> DistanceFunction:
    """Distance function c*f (the body S/c)."""
    base = f.evaluator
    ev = lambda x: c * base(x)
    return DistanceFunction(dim=f.dim, evaluator=ev,
                            label=f"inflate:c={c:g}:{f.label}",
                            params=(c,) + f.params)


def linear_image(f: DistanceFunction, A) -> DistanceFunction:
    """The body A*S, i.e. distance function x -> f(A^-1 x)."""
    A = np.asarray(A, dtype=float)
    Ainv = np.linalg.inv(A)
    base = f.evaluator
    ev = lambda x: base(x @ Ainv.T)
    return DistanceFunction(dim=f.dim, evaluator=ev,
                            label=f"image:{f.label}")


def _spec_options(spec: str, keys: tuple[str, ...]) -> list[str]:
    """Values of the options `keys` of a spec "head:k1=v1:k2=v2...", in the
    order of `keys`; each is required.  A token starts an option only when
    it reads `key=` with `key` in `keys`; other tokens continue the value
    before them, colon included, so a nested body spec keeps its colons
    ("sublevel:body=scale:c=2:ball:p=2:t=1")."""
    opts: dict[str, str] = {}
    key = None
    for tok in spec.split(":")[1:]:
        k, eq, v = tok.partition("=")
        if eq and k in keys:
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


def _refine_min_2d(func, theta: float, half_width: float,
                   iters: int = 80) -> float:
    """Golden-section search for min func(cos t, sin t) on a bracket."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = theta - half_width, theta + half_width
    val = lambda t: float(func(np.array([math.cos(t), math.sin(t)])))
    c = b - gr * (b - a)
    d_ = a + gr * (b - a)
    fc, fd = val(c), val(d_)
    for _ in range(iters):
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - gr * (b - a)
            fc = val(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + gr * (b - a)
            fd = val(d_)
    return min(fc, fd)


def _refine_min(func, S: np.ndarray, i: int, resolution: int) -> float:
    """Local minimum of func (points -> values) on the unit sphere near the
    sample point S[i]: golden-section search on the angle in the plane,
    30 rounds of 64 shrinking random perturbations in higher dimension."""
    if S.shape[1] == 2:
        return _refine_min_2d(func, math.atan2(S[i, 1], S[i, 0]),
                              2.0 * math.pi / resolution)
    rng = np.random.default_rng(0)
    best_dir, spread = S[i], 0.2
    best_val = float(func(best_dir))
    for _ in range(30):
        cand = best_dir + spread * rng.standard_normal((64, best_dir.size))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        vals = func(cand)
        idx = int(np.argmin(vals))
        if float(vals[idx]) < best_val:
            best_val, best_dir = float(vals[idx]), cand[idx]
        spread *= 0.7
    return best_val


def boundedness_floor(f: DistanceFunction, resolution: int = 1024,
                      threshold: float = DEFAULT_BOUNDED_TOL
                      ) -> BoundednessCertificate:
    """Estimated minimum of f on the unit sphere with local refinement.

    The floor is an upper estimate of the true minimum; the body is reported
    bounded when the floor exceeds the threshold.
    """
    S = sphere_samples(f.dim, resolution)
    vals = np.asarray(f.evaluator(S), dtype=float)
    i = int(np.argmin(vals))
    floor = min(float(vals[i]), _refine_min(f.evaluator, S, i, resolution))
    return BoundednessCertificate(floor=floor, bounded=floor > threshold)


def body_distance(f: DistanceFunction, g: DistanceFunction,
                  resolution: int = 1024) -> float:
    """sup |f - g| over the deterministic sphere sample (refined for d=2).

    Homogeneity reduces the sup over the solid unit ball to the sphere.
    """
    if f.dim != g.dim:
        raise DimensionMismatch(f"{f.dim} != {g.dim}")
    S = sphere_samples(f.dim, resolution)
    diff = np.abs(np.asarray(f.evaluator(S)) - np.asarray(g.evaluator(S)))
    i = int(np.argmax(diff))
    neg = lambda x: -np.abs(np.asarray(f.evaluator(x))
                            - np.asarray(g.evaluator(x)))
    return max(float(diff[i]), -_refine_min(neg, S, i, resolution))
