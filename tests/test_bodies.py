import dataclasses
import decimal
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starlat as sl
from starlat import stats
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
    assert sl.pnorm_ball(2, 2)((3, 4)) == 5.0
    assert sl.hyperbolic(2)((1, 0)) == 0.0
    assert sl.hyperbolic(2)(GOLDEN) == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("d", [2, 3])
def test_products_and_squares_past_the_floats_are_recomputed(d, rng):
    # |x1 ... xd| and sum x_i^2 overflow at 1e200 before their roots: those
    # values are taken again, and every finite value keeps its bits
    hyp, euclid = sl.hyperbolic(d), sl.pnorm_ball(d, 2)
    x = np.array([[1e200] * d, [-1e200, 3e150, 2e250][:d], [1.0] * d,
                  [1e308] * d])
    with np.errstate(all="raise"):
        h, e = hyp.evaluator(x).tolist(), euclid.evaluator(x).tolist()
        assert (hyp.evaluator(x[0]), euclid.evaluator(x[0])) == (h[0], e[0])
    assert h[0] == pytest.approx(1e200, rel=0.0 if d == 2 else 1e-13)
    assert e[0] == pytest.approx(math.sqrt(d) * 1e200, rel=1e-15)
    with decimal.localcontext(prec=40):
        root = [float(abs(math.prod(map(decimal.Decimal, r.tolist())))
                      ** (decimal.Decimal(1) / d)) for r in x]
    assert h == pytest.approx(root, rel=1e-13)
    assert e == pytest.approx([math.hypot(*r) for r in x], rel=1e-15)
    inf_point = np.array([math.inf] + [1e200] * (d - 1))
    for f in (hyp, euclid):  # a point that is not finite is left as it is
        assert math.isinf(f.evaluator(inf_point))
    pts = rng.standard_normal((4000, d)) * 10.0 ** rng.uniform(
        -300, 300 / d, (4000, d))
    assert hyp.evaluator(pts).tobytes() == (np.abs(np.prod(
        pts, axis=1)) ** (1.0 / d)).tobytes()
    with np.errstate(under="ignore"):
        want = np.linalg.norm(pts, axis=-1)
    assert euclid.evaluator(pts).tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_norm_balls_are_numpys_norm_bit_for_bit(p, rng):
    # p = 1, 2, inf evaluate by the reductions np.linalg.norm runs, so every
    # value keeps its bits; only the 2-norm's overflow at finite points
    # (x * x past the floats) is taken again
    special = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1050, 1e300, -1e300,
               math.inf, -math.inf, math.nan, 1.0, -3.5]
    for d in range(1, 10):
        f = sl.pnorm_ball(d, p)
        for shape in ((d,), (30, d), (6, 5, d), (0, d)):
            # rows of specials and any magnitudes, or rows at unit scale,
            # where the order of the sum shows
            u = rng.random(shape) + (rng.random(shape[:-1] + (1,)) < 0.5)
            x = np.where(u < 0.5, rng.choice(special, shape),
                         rng.standard_normal(shape)
                         * 10.0 ** np.where(u < 1, rng.uniform(-300, 300,
                                                               shape), 0))
            with np.errstate(all="ignore"):
                want = np.asarray(np.linalg.norm(x, ord=p, axis=-1))
            got = np.asarray(f.evaluator(x))
            assert got.dtype == want.dtype and got.shape == want.shape
            again = np.isinf(want) & np.isfinite(x).all(-1)
            assert not again.any() or p == 2
            assert got[~again].tobytes() == want[~again].tobytes()
            assert np.isfinite(got[again]).all()


def test_evaluate_dimension_check():
    # calling a body checks its points (..., dim), a catalog body's and an
    # opaque one's alike; its evaluator, which library code calls, does not
    opaque = sl.DistanceFunction(dim=2, evaluator=lambda x: x[..., 0] ** 2,
                                 label="opaque")
    assert opaque.node == () and opaque.floor is None
    for f in (sl.pnorm_ball(2, 2), opaque):
        for x in ((1, 2, 3), np.ones((5, 3)), 1.0, np.ones((4, 1))):
            with pytest.raises(DimensionMismatch, match="dimension 2"):
                f(x)
        assert np.shape(f(np.ones((5, 2)))) == (5,)
        assert np.shape(f(np.ones((3, 4, 2)))) == (3, 4)
        assert float(f((1.0, 0.0))) == 1.0


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


@pytest.mark.parametrize("c", [1e-7, 1e7, 1e100, 2.0**-600])
def test_closed_form_floor_bounds_a_body_at_any_scale(c):
    # a positive closed-form floor certifies boundedness, however small
    for f in (sl.pnorm_ball(2, 2), sl.box(3)):
        for g in (sl.scale_body(f, c), sl.inflate_body(f, c)):
            cert = sl.boundedness_floor(g)
            assert cert.bounded and cert.floor == g.floor > 0.0
    assert not sl.boundedness_floor(sl.scale_body(sl.hyperbolic(2), c)).bounded


def test_boundedness_floor_3d():
    cert = sl.boundedness_floor(sl.pnorm_ball(3, math.inf), resolution=128)
    assert cert.bounded
    assert cert.floor == pytest.approx(1 / math.sqrt(3), abs=1e-3)


def test_resolution_precondition():
    with pytest.raises(ValueError):
        sl.boundedness_floor(sl.pnorm_ball(2, 2), resolution=8)
    with pytest.raises(ValueError, match="^resolution must be at least 64$"):
        sl.sphere_samples(2, 8)


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
            assert sl.body_distance(f, g) == pytest.approx(
                sl.body_distance(g, f), abs=0)
    for f in fs:
        for g in fs:
            for h in fs:
                dfg = sl.body_distance(f, g)
                dgh = sl.body_distance(g, h)
                dfh = sl.body_distance(f, h)
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
    assert f((2, 0)) == pytest.approx(1.0)
    assert sl.parse_body("ball:p=inf")((0.5, -2)) == 2.0
    with pytest.raises(ValueError):
        sl.parse_body("donut")
    with pytest.raises(ValueError, match="unknown body spec 'hyperbolic'"):
        sl.parse_body("hyperbolic")
    with pytest.raises(ValueError, match="missing the option p="):
        sl.parse_body("ball")


def test_linear_image_evaluator():
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    f = sl.linear_image(sl.pnorm_ball(2, 2), A)
    assert f((2, 0)) == pytest.approx(1.0)
    assert f((0, 1)) == pytest.approx(1.0)


def test_images_and_inflations_carry_records():
    # same label and floor, different bodies: only the record tells them
    # apart, and bodies compare by it
    ball = sl.pnorm_ball(2, 2)
    wide, tall = (sl.linear_image(ball, np.diag(v)) for v in ([2, 1], [1, 2]))
    assert (wide.label, wide.floor) == (tall.label, tall.floor)
    assert wide != tall
    assert wide.node == ("image", ((2.0, 0.0), (0.0, 1.0)), ("ball", 2))
    assert sl.linear_image(ball, [[2, 0], [0, 1]]) == wide
    f = sl.inflate_body(sl.hyperbolic(2), 1.5)
    assert f.node == ("inflate", 1.5, ("hyperbola",))
    assert sl.inflate_body(wide, 2.0).node == ("inflate", 2.0, wide.node)


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


# numbers that :g prints back as they are written
SIZES = st.sampled_from(["0.5", "2", "12", "0.25", "1.5", "0.001", "1e+06"])
BODIES = st.recursive(
    st.sampled_from(["box", "hyperbola"])
    | st.builds("ball:p={}".format, SIZES | st.just("inf")),
    lambda inner: st.builds("scale:c={}:{}".format, SIZES, inner),
    max_leaves=4)


@settings(max_examples=60, deadline=None)
@given(spec=BODIES, t=SIZES, clip=st.sampled_from(["1", "3", "12"]),
       r=st.sampled_from([("1", "2"), ("0", "0.5"), ("2", "12")]))
def test_specs_round_trip(spec, t, clip, r):
    f = sl.parse_body(spec)
    assert f.label == spec
    assert sl.parse_body(f.label).node == f.node
    assert f.node[0] in ("ball", "hyperbola", "scale")
    region = f"sublevel:body={spec}:t={t}:clip={clip}"
    with mock.patch.object(stats, "_MC_POINTS", 1000):  # the area's sample
        assert sl.parse_region(region).spec == region
        assert sl.parse_region(f"sublevel:clip={clip}:t={t}:body={spec}"
                               ).spec == region
    annulus = f"annulus:r0={r[0]}:r1={r[1]}"
    assert sl.parse_region(annulus).spec == annulus
    assert sl.parse_region(f"annulus:r1={r[1]}:r0={r[0]}").spec == annulus
    w = sl.parse_witness_set(f"sublevel:body={spec}:t={t}")
    assert w == sl.parse_witness_set(f"sublevel:t={t}:body={spec}")
    assert w == sl.Sublevel(f, float(t))
    assert sl.parse_witness_set(spec) == sl.sublevel_body(f, 1.0)


def test_witness_sets_and_their_errors():
    plane = sl.parse_witness_set("plane")
    assert plane == sl.plane_body() and plane.f is None
    assert plane(np.zeros((3, 2))).tolist() == [True] * 3
    w = sl.parse_witness_set("sublevel:body=scale:c=2:hyperbola:t=2")
    assert w.f.node == ("scale", 2.0, ("hyperbola",)) and w.t == 2.0
    assert w(np.array([[4.0, 4.0], [5.0, 4.0]])).tolist() == [True, False]
    assert sl.parse_body("scale:c=2:scale:c=3:ball:p=2").node == \
        ("scale", 2.0, ("scale", 3.0, ("ball", 2.0)))
    assert sl.parse_body("scale:ball:p=2:c=3").label == "scale:c=3:ball:p=2"
    with pytest.raises(ValueError, match="^spec 'sublevel:t=1' is missing "
                       "the inner body$"):
        sl.parse_witness_set("sublevel:t=1")
    # an option read past by a stray token names that token
    for spec, stray in (("sublevel:body=hyperbola:x=1:t=1", "x=1"),
                        ("sublevel:t=1:x=2:body=ball:p=2", "x=2")):
        with pytest.raises(ValueError, match=f"^unexpected '{stray}' in "
                           f"spec '{spec}'$"):
            sl.parse_witness_set(spec)
    with pytest.raises(ValueError, match="^unexpected 'x=1' in spec "
                       "'disk:x=1:r=2'$"):
        sl.parse_region("disk:x=1:r=2")
    # a body spec stands for its unit sublevel set
    assert sl.parse_witness_set("hyperbola") == \
        sl.sublevel_body(sl.hyperbolic(2), 1.0)
