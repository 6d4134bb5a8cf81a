"""Speed calibration against fixed reference kernels.

The shared virtual machine the benchmark was built on runs identical code
1.3-1.8x slower or faster for seconds to minutes at a time, and process CPU
time drifts with wall time, so neither clock alone separates the code's
speed from the host's.  The benchmark therefore times a fixed reference
kernel between consecutive operations and reports every time divided by the
kernel's slowness, its time there over its time on the reference machine:

    calibrated = measured / slowness(kernel time around the measurement)

A calibrated time is the time the measurement would have taken on the
reference machine in a typical moment.  The kernels use only numpy and the
benchmark's own brute-force oracle, never starlat, so a change to the
library moves calibrated times exactly as it moves measured ones.

Host slowdowns hit interpreter-bound code and memory-bound code by different
amounts, so each workload names the kernel whose work resembles its own.
"""

from __future__ import annotations

import time

import numpy as np

import oracle

_rng = np.random.default_rng(20240825)
_BASES = [_rng.standard_normal((2, 2)) for _ in range(40)]
_B3 = np.eye(3) + 0.1 * _rng.standard_normal((3, 3))
_B2 = np.array([[1.0, 0.37], [0.0, 1.0]])


def _mixed() -> None:
    """The library's small-array mix: interpreter-bound Lagrange reduction,
    a small 3D enumeration with a gcd pass, a 2D ball of about 6e3 points."""
    for B in _BASES:
        oracle.lagrange_reduce(B)
    c, x = oracle.ball_points(_B3, 5.0)
    oracle.gcd_rows(c)
    np.sort((x * x).sum(axis=1))
    c, x = oracle.ball_points(_B2, 45.0)
    np.sort(np.abs(x[:, 0] * x[:, 1]))


def _arrays() -> None:
    """Memory-bound array work: a 2D ball of about 7e4 points, evaluated on
    the hyperbola body and sorted."""
    c, x = oracle.ball_points(_B2, 150.0)
    np.sort(np.abs(x[:, 0] * x[:, 1]))


def _blend() -> None:
    """Both kinds of work, as a workload that alternates Python-level loops
    with Monte Carlo point arrays sees them (`witness`)."""
    for _ in range(4):
        _mixed()
    _arrays()


# kernel -> (function, median time of one call on the reference machine:
# a shared 2-vCPU Xeon virtual machine at 2.1 GHz, Python 3.11, numpy 2.4,
# BLAS pinned to one thread)
KERNELS = {"mixed": (_mixed, 0.0025), "arrays": (_arrays, 0.011),
           "blend": (_blend, 0.021)}


def slowness(kind: str, repeats: int) -> float:
    """Time of `repeats` calls of the named kernel over their time on the
    reference machine: 1.0 there, 1.3 when the host runs 30% slower."""
    fn, ref_s = KERNELS[kind]
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - t0) / (repeats * ref_s)
