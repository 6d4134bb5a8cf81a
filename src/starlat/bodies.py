"""Distance functions, the star-body catalog and the one spec reader.

A star body S = {x : f(x) <= 1} is represented by its distance function f
(nonnegative, continuous, positively homogeneous of degree 1).  Evaluators
are numpy-vectorized: they accept arrays of shape (..., d) and return
values of shape (...).  Catalog bodies carry a closed-form sphere floor.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .lattice import _fold

DEFAULT_BOUNDED_TOL = 1e-6


@dataclass(frozen=True)
class DistanceFunction:
    """Bodies compare by dim, label, floor and node, not by evaluator."""
    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray] = field(compare=False)
    label: str
    floor: float | None = None  # lower bound of f on the sphere; None: unknown
    node: tuple = ()  # ("scale", 2.0, ("ball", 2.0)); () for an opaque body

    def __call__(self, x) -> np.ndarray:
        """f at points (..., dim), checked; library code calls evaluator."""
        if (x := np.asarray(x, dtype=float)).shape[-1:] != (self.dim,):
            raise DimensionMismatch(f"expected points of dimension {self.dim}")
        return self.evaluator(x)


@dataclass(frozen=True)
class BoundednessCertificate:
    floor: float  # f.floor, or a sampled estimate of min f on the sphere
    bounded: bool


def _floor_times(floor: float | None, factor: float) -> float | None:
    """floor * factor lowered by a relative 1e-9, far more than the error of
    the pow, sqrt, division or SVD behind a factor; None stays None."""
    return None if floor is None else floor * factor * (1.0 - 1e-9)


def _past_overflow(ev, again):
    """ev, but again(x) at finite points x where ev overflows to inf (a
    product or square before its root); a call without overflow is ev's."""
    def wrapped(x):
        try:
            with np.errstate(over="raise"):
                return ev(x := np.asarray(x))
        except FloatingPointError:
            with np.errstate(over="ignore"):
                v, w = ev(x), again(x)
            return np.where(np.isinf(v) & np.isfinite(x).all(-1), w, v)[()]
    return wrapped


def _check_factor(kind: str, c: float) -> None:
    if not 0.0 < c < math.inf:
        raise ValueError(f"{kind} factor must be finite and > 0, got c={c:g}")


# ---------------------------------------------------------------------------
# catalog


def pnorm_ball(dim: int = 2, p: float = 2) -> DistanceFunction:
    """Unit ball of the p-norm (a quasi-norm for p < 1), 0 < p <= inf.  Its
    floor is 1 for p <= 2 (attained on the axes) and d^(1/p - 1/2) for p > 2
    (on the diagonals, by Hoelder's inequality).  p not 1, 2, inf (or 2 where
    x * x overflows) takes m (sum (|x_i| / m)^p)^(1/p), m = max |x_i|: each
    (|x_i| / m)^p is in [0, 1], so only a value past the floats is inf."""
    @np.errstate(all="ignore")
    def ev(x):
        a = np.abs(x)
        m = _fold(np.maximum, a)
        y = a / np.where(m > 0, m, 1.0)[..., None]
        return m * _fold(np.add, y ** p) ** (1.0 / p)
    if not p > 0:
        raise ValueError(f"ball needs p > 0, got p={p:g}")
    if p in (1, 2, math.inf):  # np.linalg.norm's own reductions
        ev = {1: lambda x: np.abs(x).sum(-1),
              2: _past_overflow(lambda x: np.sqrt((x * x).sum(-1)), ev),
              math.inf: lambda x: np.abs(x).max(-1, initial=0)}[p]
    return DistanceFunction(dim=dim, evaluator=ev, label=f"ball:p={p:g}",
                            floor=1.0 if p <= 2 else
                            _floor_times(1.0, dim ** (1.0 / p - 0.5)),
                            node=("ball", p))


def box(dim: int = 2) -> DistanceFunction:
    """Sup-norm cube, alias of the p=inf ball."""
    return dataclasses.replace(pnorm_ball(dim, math.inf), label="box")


def hyperbolic(dim: int = 2) -> DistanceFunction:
    """f(x) = |x_1 ... x_d|^(1/d): degree-1 homogeneous, vanishes on the axes;
    the product of points (..., d) or (d,) is a column fold (lattice._fold),
    and where it overflows, the product of the |x_i|^(1/d) is taken."""
    ev = _past_overflow(
        lambda x: np.abs(_fold(np.multiply, x)) ** (1.0 / dim),
        lambda x: _fold(np.multiply, np.abs(x) ** (1.0 / dim)))
    return DistanceFunction(dim=dim, evaluator=ev, label="hyperbola",
                            floor=0.0, node=("hyperbola",))


def scale_body(f: DistanceFunction, c: float) -> DistanceFunction:
    """The body c*S, i.e. distance function f/c; finite c > 0."""
    _check_factor("scale", c)
    ev = np.errstate(over="ignore")(lambda x: f.evaluator(x) / c)
    return DistanceFunction(dim=f.dim, evaluator=ev,
                            label=f"scale:c={c:g}:{f.label}",
                            floor=_floor_times(f.floor, 1.0 / c),
                            node=("scale", c, f.node))


def inflate_body(f: DistanceFunction, c: float) -> DistanceFunction:
    """Distance function c*f (the body S/c); finite c > 0."""
    _check_factor("inflate", c)
    ev = lambda x: c * f.evaluator(x)
    return DistanceFunction(dim=f.dim, evaluator=ev,
                            label=f"inflate:c={c:g}:{f.label}",
                            floor=_floor_times(f.floor, c),
                            node=("inflate", c, f.node))


def linear_image(f: DistanceFunction, A) -> DistanceFunction:
    """The body A*S, i.e. distance function x -> f(A^-1 x).  Its floor is
    f's over the largest singular value of A: ||A^-1 x|| >= ||x|| / s_max."""
    A = np.asarray(A, dtype=float)
    Ainv = np.linalg.inv(A)
    ev = lambda x: f.evaluator(x @ Ainv.T)
    return DistanceFunction(dim=f.dim, evaluator=ev,
                            label=f"image:{f.label}",
                            floor=_floor_times(
                                f.floor, 1.0 / float(np.linalg.norm(A, 2))),
                            node=("image", tuple(map(tuple, A.tolist())),
                                  f.node))


@dataclass(frozen=True)
class Sublevel:
    """Membership predicate, points (N, d) -> bool mask, of the Borel set
    {x : f(x) <= t}; f = None is the whole plane."""
    f: DistanceFunction | None
    t: float

    def __call__(self, pts) -> np.ndarray:
        if self.f is None:
            return np.ones(len(pts), dtype=bool)
        return np.asarray(self.f.evaluator(pts)) <= self.t


def plane_body() -> Sublevel:
    """The whole plane.  build_shells gives its shells their volume without
    draws, also behind a wrapper that sets ``__wrapped__``."""
    return Sublevel(None, math.inf)


# ---------------------------------------------------------------------------
# specs "head:key=value:...": options in any order, each once, as numbers
# ("oo" is inf) or, for "body", a body spec; a body spec may stand without
# "body=" (scale:c=2:ball:p=2) and ends at a token not among its options.

_BODY_HEADS = {"ball": ("p",), "box": (), "hyperbola": (),
               "scale": ("c", "body")}
_WITNESS_HEADS = {"plane": (), "sublevel": ("body", "t")}


def _parse(spec: str, heads: dict, kind: str, dim: int):
    """What the spec names: a body of dimension dim for a head of
    _BODY_HEADS, else the node (head, values in the order of heads[head])."""
    toks = spec.split(":")

    def read(heads, kind):  # the construction at the front of toks
        head, opts = toks.pop(0), {}
        if head not in heads:
            raise ValueError(f"unknown {kind} spec {spec!r}")
        while toks:
            k, eq, v = toks[0].partition("=")
            if not eq and "body" in heads[head] and "body" not in opts:
                k, v = "body", toks[0]
            elif not (eq and k in heads[head]):
                break
            elif k in opts:
                raise ValueError(f"spec {spec!r} repeats the option {k}=")
            if k == "body":
                toks[0] = v  # the nested body's head
                opts[k] = read(_BODY_HEADS, "body")
            else:
                toks.pop(0)
                opts[k] = math.inf if v == "oo" else float(v)
        for k in heads[head]:
            if k not in opts:
                if any(t.startswith(f"{k}=") for t in toks):
                    raise ValueError(f"unexpected {toks[0]!r} in spec "
                                     f"{spec!r}")
                what = "inner body" if k == "body" else f"option {k}="
                raise ValueError(f"spec {spec!r} is missing the {what}")
        vals = [opts[k] for k in heads[head]]
        if heads is not _BODY_HEADS:
            return (head, *vals)
        return {"ball": pnorm_ball, "box": box, "hyperbola": hyperbolic,
                "scale": lambda d, c, f: scale_body(f, c)}[head](dim, *vals)

    made = read(heads, kind)
    if toks:
        raise ValueError(f"unexpected {toks[0]!r} in spec {spec!r}")
    return made


def parse_body(spec: str, dim: int = 2) -> DistanceFunction:
    """Parse body spec strings: "ball:p=2", "box", "hyperbola",
    "scale:c=2:ball:p=2"."""
    return _parse(spec, _BODY_HEADS, "body", dim)


def parse_witness_set(spec: str) -> Sublevel:
    """Parse a planar witness set: "plane", "sublevel:body=B:t=T", or a body
    spec B for its set at t = 1."""
    if spec.partition(":")[0] not in _WITNESS_HEADS:
        return Sublevel(parse_body(spec), 1.0)
    head, *vals = _parse(spec, _WITNESS_HEADS, "witness set", 2)
    return plane_body() if head == "plane" else Sublevel(*vals)


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
    c, d_ = b - gr * (b - a), a + gr * (b - a)
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
    """Floor of f on the unit sphere.  It is the closed form ``f.floor`` when
    the body has one, as every catalog body does, and then the body is
    bounded when it is positive, at any scale.  Otherwise it is the refined
    minimum over the sphere sample of this resolution and the points +-e_i,
    an estimate from above of the true minimum that certifies nothing, and
    the body counts as bounded when it exceeds DEFAULT_BOUNDED_TOL."""
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    floor, tol = f.floor, 0.0
    if floor is None:
        axes = np.concatenate([np.eye(f.dim), -np.eye(f.dim)])
        floor = min(_sphere_min(f.evaluator, f.dim, resolution),
                    float(np.min(f.evaluator(axes))))
        tol = DEFAULT_BOUNDED_TOL
    return BoundednessCertificate(floor=floor, bounded=floor > tol)


def body_distance(f: DistanceFunction, g: DistanceFunction) -> float:
    """sup |f - g| over the sphere sample of resolution 1024 (refined).

    Homogeneity reduces the sup over the solid unit ball to the sphere.
    """
    if f.dim != g.dim:
        raise DimensionMismatch(f"{f.dim} != {g.dim}")
    neg = lambda x: -np.abs(np.asarray(f.evaluator(x))
                            - np.asarray(g.evaluator(x)))
    return -_sphere_min(neg, f.dim, 1024)
