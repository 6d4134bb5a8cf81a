import dataclasses
import math

import numpy as np
import pytest

import starlat as sl
from starlat.errors import DimensionMismatch

GOLDEN = ((1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2)


def catalog():
    return [
        sl.pnorm_ball(2, 1),
        sl.pnorm_ball(2, 2),
        sl.pnorm_ball(2, math.inf),
        sl.box(2),
        sl.hyperbolic(2),
        sl.scale_body(sl.pnorm_ball(2, 2), 2.0),
        sl.linear_image(sl.pnorm_ball(2, 2), [[2, 1], [0, 1]]),
    ]


def test_evaluate_examples():
    assert sl.evaluate(sl.pnorm_ball(2, 2), (3, 4)) == 5.0
    assert sl.evaluate(sl.hyperbolic(2), (1, 0)) == 0.0
    assert sl.evaluate(sl.hyperbolic(2), GOLDEN) == pytest.approx(1.0,
                                                                  abs=1e-12)


def test_pnorm_ball_at_extreme_p():
    # p = 1, 2, inf keep numpy's norm bit for bit; other p are scaled by the
    # largest |x_i|, so neither overflow nor underflow makes a wrong value
    x = np.array([[0.5, 0.0], [0.5, 0.25], [3.0, -4.0], [0.0, 0.0],
                  [1e200, 1e200], [1e-200, -1e-200]])
    for p in (1, 2, math.inf):  # (numpy's 2-norm of 1e200 overflows)
        assert (sl.pnorm_ball(2, p).evaluator(x[:4]).tobytes()
                == np.linalg.norm(x[:4], ord=p, axis=-1).tobytes())
    with np.errstate(all="raise"):
        tiny, big = (sl.pnorm_ball(2, p).evaluator(x).tolist()
                     for p in (1e-300, 1e300))
        mid = sl.pnorm_ball(2, 2000).evaluator(x)
        cube = sl.pnorm_ball(2, 3).evaluator(x)
    assert tiny == [0.5, math.inf, math.inf, 0.0, math.inf, math.inf]
    assert big == [0.5, 0.5, 4.0, 0.0, 1e200, 1e-200]
    assert mid == pytest.approx([0.5, 0.5, 4.0, 0.0, 2 ** (1 / 2000) * 1e200,
                                 2 ** (1 / 2000) * 1e-200], rel=1e-15)
    assert cube == pytest.approx(np.linalg.norm(x[:4], ord=3, axis=-1).tolist()
                                 + [2 ** (1 / 3) * 1e200,
                                    2 ** (1 / 3) * 1e-200], rel=1e-15)


def test_evaluate_dimension_check():
    with pytest.raises(DimensionMismatch):
        sl.evaluate(sl.pnorm_ball(2, 2), (1, 2, 3))


def test_homogeneity_and_nonnegativity(rng):
    xs = rng.normal(0, 3, (10**4, 2))
    for f in catalog():
        base = f(xs)
        assert np.all(base >= 0)
        for c in (0.5, 2.0, 10.0):
            scaled = f(c * xs)
            assert np.all(np.abs(scaled - c * base) <= 1e-9 * (1 + c * base))


def test_boundedness_floor_ball():
    cert = sl.boundedness_floor(sl.pnorm_ball(2, 2))
    assert cert.bounded and cert.floor == pytest.approx(1.0, abs=1e-9)


def test_boundedness_floor_box():
    cert = sl.boundedness_floor(sl.box(2))
    assert cert.bounded
    assert cert.floor == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_boundedness_floor_hyperbolic():
    cert = sl.boundedness_floor(sl.hyperbolic(2))
    assert not cert.bounded and cert.floor < 1e-6


def test_boundedness_floor_3d():
    cert = sl.boundedness_floor(sl.pnorm_ball(3, math.inf), resolution=128)
    assert cert.bounded
    assert cert.floor == pytest.approx(1 / math.sqrt(3), abs=1e-3)


def test_resolution_precondition():
    with pytest.raises(ValueError):
        sl.boundedness_floor(sl.pnorm_ball(2, 2), resolution=8)


def test_body_distance_identity_and_scaling():
    f = sl.pnorm_ball(2, 2)
    assert sl.body_distance(f, f) == 0.0
    g = sl.inflate_body(f, 1.1)
    assert sl.body_distance(f, g) == pytest.approx(0.1, abs=1e-9)


def test_body_distance_euclid_vs_box():
    d = sl.body_distance(sl.pnorm_ball(2, 2), sl.box(2))
    assert d == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-6)


def test_body_distance_pseudometric(rng):
    fs = catalog()[:4]
    for f in fs:
        for g in fs:
            assert sl.body_distance(f, g, resolution=256) == pytest.approx(
                sl.body_distance(g, f, resolution=256), abs=0)
    for f in fs:
        for g in fs:
            for h in fs:
                dfg = sl.body_distance(f, g, resolution=256)
                dgh = sl.body_distance(g, h, resolution=256)
                dfh = sl.body_distance(f, h, resolution=256)
                assert dfh <= dfg + dgh + 1e-12


def test_body_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sl.body_distance(sl.pnorm_ball(2, 2), sl.pnorm_ball(3, 2))


def test_bounded_bodies_fit_in_floor_ball(rng):
    # rejection sample: f(x) <= 1 implies ||x|| <= 1/floor + tolerance
    for f in [sl.pnorm_ball(2, 1), sl.pnorm_ball(2, 2), sl.box(2)]:
        cert = sl.boundedness_floor(f)
        xs = rng.uniform(-3, 3, (10**4, 2))
        inside = xs[f(xs) <= 1.0]
        norms = np.linalg.norm(inside, axis=1)
        assert np.all(norms <= 1.0 / cert.floor + 1e-6)


def test_parse_body_specs():
    assert sl.parse_body("ball:p=2").label == "ball:p=2"
    assert sl.parse_body("box").label == "box"
    assert sl.parse_body("hyperbola").label == "hyperbola"
    f = sl.parse_body("scale:c=2:ball:p=2")
    # 2*S doubles the reach: f(2,0) = 1 on the boundary
    assert sl.evaluate(f, (2, 0)) == pytest.approx(1.0)
    assert sl.evaluate(sl.parse_body("ball:p=inf"), (0.5, -2)) == 2.0
    with pytest.raises(ValueError):
        sl.parse_body("donut")
    with pytest.raises(ValueError, match="missing the option p="):
        sl.parse_body("ball")


def test_linear_image_evaluator():
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    f = sl.linear_image(sl.pnorm_ball(2, 2), A)
    assert sl.evaluate(f, (2, 0)) == pytest.approx(1.0)
    assert sl.evaluate(f, (0, 1)) == pytest.approx(1.0)


def _floor_cases(d):
    """(body, tight): tight when the closed-form floor is the minimum of f
    on the sphere and not only a lower bound of it."""
    Q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    A = np.eye(d) + np.triu(np.full((d, d), 0.5), 1)
    cases = [(sl.pnorm_ball(d, p), True)
             for p in (0.5, 1, 1.5, 2, 3, math.inf)]
    return cases + [
        (sl.box(d), True),
        (sl.scale_body(sl.inflate_body(sl.pnorm_ball(d, 3), 1.5), 0.7), True),
        (sl.inflate_body(sl.linear_image(sl.box(d), 2.0 * Q), 0.3), True),
        (sl.linear_image(sl.scale_body(sl.pnorm_ball(d, 2), 2.0), A), True),
        # 1/s_max(A) bounds ||A^-1 x|| in every direction, but f's minimum
        # direction need not be the one where it is attained
        (sl.inflate_body(sl.linear_image(sl.pnorm_ball(d, 1), A), 0.3),
         False),
    ]


@pytest.mark.parametrize("d,resolution", [(2, 1024), (3, 1024), (4, 256)])
def test_closed_form_floor_bounds_the_sampled_estimate(d, resolution):
    # The sampled estimate lies above the true minimum.  Its sample points
    # have norm 1 only up to rounding, so for a floor of exactly 1 it may
    # come out a few ulps below.
    for f, tight in _floor_cases(d):
        est = sl.boundedness_floor(dataclasses.replace(f, floor=None),
                                   resolution).floor
        assert f.floor <= est * (1 + 1e-12), f.label
        if tight:
            assert est <= f.floor * (1 + 1e-3), f.label
        assert sl.boundedness_floor(f, resolution) == \
            sl.BoundednessCertificate(floor=f.floor, bounded=True)
    # sampling misses the axes for d = 3 and would call the body bounded
    h = sl.hyperbolic(d)
    assert h.floor == 0.0 and not sl.boundedness_floor(h, resolution).bounded


@pytest.mark.parametrize("d", [2, 3])
def test_sampled_floor_takes_the_axes(d):
    # the 3D sphere sample has no axis points; without them a floorless
    # hyperbola read 0.0020 (bounded) and the p = 1/2 ball 1.0024 > 1
    def sampled(f):
        return sl.boundedness_floor(dataclasses.replace(f, floor=None), 512)
    assert not sampled(sl.hyperbolic(d)).bounded
    assert sampled(sl.pnorm_ball(d, 0.5)).floor <= 1.0


@pytest.mark.parametrize("make", [
    lambda: sl.pnorm_ball(2, 0),
    lambda: sl.pnorm_ball(2, -1),
    lambda: sl.pnorm_ball(2, math.nan),
    *[lambda c=c, g=g: g(sl.pnorm_ball(2, 2), c)
      for c in (0.0, -2.0, math.nan, math.inf)
      for g in (sl.scale_body, sl.inflate_body)],
])
def test_body_parameters_are_validated(make):
    with pytest.raises(ValueError, match="p > 0|finite and > 0"):
        make()
