"""Exact Haar sampling of unimodular planar lattices.

The Haar probability measure on determinant-1 lattices in the plane
disintegrates as (uniform rotation) x (hyperbolic measure (3/pi) dx dy / y^2
on the classical modular fundamental domain |x| <= 1/2, x^2 + y^2 >= 1).
Both factors admit exact inverse-CDF sampling, so the scheme below is
rejection-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, _reduce_planar, make_lattice


@dataclass(frozen=True)
class HaarSample2D:
    x: float          # in [-1/2, 1/2]
    y: float          # >= sqrt(1 - x^2)
    rotation: float   # in [0, 2*pi)
    lattice: Lattice


def _uniforms(count: int, seed: int) -> np.ndarray:
    # Philox is counter-based: one bulk draw is reproducible independently
    # of any worker split
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random((count, 3))


def sample_unimodular_2d_arrays(count: int, seed: int):
    """Vectorized sampler. Returns (x, y, rotation, bases) with bases of
    shape (count, 2, 2); every basis has determinant 1."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    u = _uniforms(count, seed)
    phi = (u[:, 0] - 0.5) * (math.pi / 3.0)   # uniform on [-pi/6, pi/6]
    x = np.sin(phi)
    ymin = np.sqrt(1.0 - x * x)
    y = ymin / (1.0 - u[:, 1])                # inverse CDF of y^-2 tail
    rot = u[:, 2] * (2.0 * math.pi)
    s = 1.0 / np.sqrt(y)
    c, sn = np.cos(rot), np.sin(rot)
    bases = np.empty((count, 2, 2))
    bases[:, 0, 0] = s * c
    bases[:, 1, 0] = s * sn
    bases[:, 0, 1] = s * (x * c - y * sn)
    bases[:, 1, 1] = s * (x * sn + y * c)
    return x, y, rot, bases


def sample_unimodular_2d_batch(count: int, seed: int) -> list[HaarSample2D]:
    x, y, rot, bases = sample_unimodular_2d_arrays(count, seed)
    return [HaarSample2D(*map(float, v), Lattice(2, B, float(det), W, U))
            for *v, B, det, W, U in zip(x, y, rot, *_reduce_planar(bases))]


def sample_unimodular_2d(seed: int) -> HaarSample2D:
    """One Haar-random unimodular planar lattice, deterministic in the seed."""
    return sample_unimodular_2d_batch(1, seed)[0]


def scale_lattice(L: Lattice, target_det: float) -> Lattice:
    """Rescale the basis so the determinant becomes target_det."""
    if target_det <= 0:
        raise ValueError("target_det must be positive")
    factor = (target_det / L.det) ** (1.0 / L.dim)
    return make_lattice(L.basis * factor)
