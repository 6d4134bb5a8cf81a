import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starlat as sl
from starlat import lattice, minima, partition, stats
from starlat.errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionTooSmall,
    NotLatticePoint,
    SingularBasis,
)

from starlat.lattice import _fold, _zeta

from conftest import (admitted_det, cross_by_rectangles, grid_enumerate,
                      unreduced)


def test_make_lattice_identity():
    L = sl.make_lattice([[1, 0], [0, 1]])
    assert L.det == 1.0 and L.dim == 2


def test_make_lattice_diagonal():
    assert sl.make_lattice([[2, 0], [0, 3]]).det == 6.0


def test_make_lattice_golden_det():
    # 2x2 determinant of columns (1,1), (phi, phibar) is sqrt(5)
    assert sl.golden_lattice().det == pytest.approx(math.sqrt(5.0),
                                                    abs=1e-12)


def test_make_lattice_rejects_singular():
    with pytest.raises(SingularBasis):
        sl.make_lattice([[1, 2], [2, 4]])
    with pytest.raises(SingularBasis):
        sl.make_lattice([[1, 1 + 1e-14], [1, 1]])


@pytest.mark.parametrize("columns,message", [
    ([[1e200, 1e200], [1e200, 1e200]], "numerically dependent"),
    ([[1e-200, 1e-200], [1e-200, 1e-200]], "numerically dependent"),
    ([[1e200, 0], [0, 1e200]], "not representable"),
    ([[1e-200, 0], [0, 1e-200]], "not representable"),
    ([[1e200, 1e200], [1e200, 2e200]], "not representable"),
])
def test_make_lattice_names_dependence_apart_from_overflow(columns, message):
    with pytest.raises(SingularBasis, match=message):
        sl.make_lattice(columns)


def test_make_lattice_admits_det_near_the_float_limit():
    # |det| is a float though (longest column)^d overflows
    assert sl.make_lattice(np.diag([1e103, 1e103, 1e102])).det == \
        pytest.approx(1e308)
    assert sl.make_lattice(np.diag([1.35e154, 1e154])).det == \
        pytest.approx(1.35e308)


def _verdict(admit, B):
    """(det, None) of an admitted basis, else (None, the refusal)."""
    try:
        return float(admit(B)), None
    except SingularBasis as exc:
        return None, str(exc)


def _admission_cases():
    # the CI bad-input bases
    yield from map(np.array, (
        [[1e200, 0], [0, 1e200]], [[1e-200, 0], [0, 1e-200]],
        [[1, 1], [1, 1]], [[1e200, 1e200], [1e200, 1e200]],
        [[1.35e154, 0], [0, 1e154]], [[1e-160, 0], [0, 1e-160]],
        [[1, np.nan], [0, 1]], [[1, 0], [-np.inf, 1]], np.zeros((2, 2)),
        np.zeros((3, 3))))
    # bases whose columns are nearly dependent: ratio 10^-k near 1e-12
    rng = np.random.default_rng(19)
    for d in (2, 3):
        for k in np.linspace(9.0, 15.0, 61):
            B = rng.uniform(-1, 1, (d, d))
            B[:, -1] = B[:, :-1].sum(axis=1) + 10.0 ** -k * B[:, -1]
            yield B
    # well-conditioned, skewed and nearly dependent bases scaled by 2^k
    shapes = [np.array([[1.0, 0.3], [0.2, 0.9]]),
              np.array([[1.0, 7.3], [0.0, 1.0]]),
              np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]]),
              np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]),
              np.array([[0.9, 0.1, 0.3], [0.2, 1.1, 0.0], [0.1, 0.4, 1.2]]),
              sl.random_unimodular(3, 4, 30).astype(float)]
    for B in shapes:
        for k in range(-1070, 1021, 5):
            yield np.ldexp(B, k)


def test_make_lattice_admits_as_the_earlier_stack_admission():
    # one scaled test in make_lattice against the earlier admission, with
    # its unscaled and power-of-two-scaled paths: same verdict and message
    seen = {}
    for B in _admission_cases():
        det, why = _verdict(admitted_det, B)
        got = _verdict(lambda B: sl.make_lattice(B).det, B)
        assert got == (det, why), (B.tolist(), got, (det, why))
        seen[why] = seen.get(why, 0) + 1
    assert len(seen) == 4 and seen[None] > 900  # three refusals, admissions


def test_make_lattice_rejects_dim_1():
    with pytest.raises(DimensionTooSmall):
        sl.make_lattice([[3]])


def test_parse_basis():
    B = sl.parse_basis("1,0;0.5,0.866")
    assert B[:, 0].tolist() == [1.0, 0.0]
    assert B[:, 1].tolist() == [0.5, 0.866]
    for bad in ("1,0;1", "1,0;", "1,,0;0,1", ""):
        with pytest.raises(ValueError, match="malformed basis spec"):
            sl.parse_basis(bad)


def test_zeta_matches_scipy():
    from scipy.special import zeta
    for d in (1, 2):
        assert _zeta(d) == float(zeta(d))
    for d in range(3, 41):
        assert _zeta(d) == pytest.approx(float(zeta(d)), rel=1e-15, abs=0)


def test_import_leaves_scipy_out():
    code = "import sys, starlat; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_enumerate_ball_z2_small():
    L = sl.make_lattice([[1, 0], [0, 1]])
    pts = sl.enumerate_ball(L, 1.5)
    got = {p.coeffs for p in pts}
    assert got == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1),
                   (1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert len(sl.enumerate_ball(L, 0.5)) == 1


def test_enumerate_ball_axis_aligned():
    L = sl.make_lattice([[2, 0], [0, 3]])
    got = {p.coeffs for p in sl.enumerate_ball(L, 2)}
    assert got == {(0, 0), (1, 0), (-1, 0)}


def test_enumerate_ball_budget(monkeypatch):
    L = sl.make_lattice([[1, 0], [0, 1]])
    with pytest.raises(BudgetExceeded):
        sl.enumerate_ball(L, 1e6)
    monkeypatch.setattr(lattice, "DEFAULT_POINT_CAP", 1000)
    with pytest.raises(BudgetExceeded, match="exceeds cap 1000"):
        sl.enumerate_ball(L, 20.0)


def test_enumerate_matches_grid_oracle_random(rng):
    for d in (2, 3, 4):
        for _ in range(25):
            B = rng.uniform(-3, 3, (d, d))
            try:
                L = sl.make_lattice(B)
            except SingularBasis:
                continue
            if L.det / 3**d < 0.05:
                continue
            R = rng.uniform(0.5, 3.0 if d < 4 else 2.0)
            got = [p.coeffs for p in sl.enumerate_ball(L, R)]
            assert got == grid_enumerate(B, R)
    # diag(1/a, 1/h) B, whose sqrt(2)-ball covers the rectangle
    # {|x1| <= a, |x2| <= h} of the hyperbolic cross, at aspect >= 1e3
    for _ in range(6):
        B = rng.uniform(-2, 2, (2, 2))
        B /= math.sqrt(abs(np.linalg.det(B)))
        for a, h in ((0.01, 30.0), (40.0, 0.004)):
            S = B / np.array([[a], [h]])
            got = [p.coeffs for p in sl.enumerate_ball(sl.make_lattice(S),
                                                       math.sqrt(2.0))]
            assert got == grid_enumerate(S, math.sqrt(2.0))
    # skewed bases U of Z^3 with entries up to 3383, at radii that put
    # points exactly on the sphere; the grid runs on Z^3 and the exact
    # inverse of U maps its points to coefficients
    for seed, steps in ((3, 30), (3, 50), (3, 60), (4, 40), (5, 30),
                        (5, 40), (5, 50)):
        U = sl.random_unimodular(3, seed, steps)
        Uinv = np.rint(np.linalg.inv(U)).astype(np.int64)
        assert np.array_equal(U @ Uinv, np.eye(3, dtype=np.int64))
        L = sl.make_lattice(U)
        for R in (1.0, 1.5, 2.0):
            want = sorted(tuple(Uinv @ np.array(x))
                          for x in grid_enumerate(np.eye(3), R))
            assert [p.coeffs for p in sl.enumerate_ball(L, R)] == want


# two skewed bases of Z^3 (one pass of size reduction on
# random_unimodular(3, 3, 40) and (3, 5, 40)); make_lattice's LLL reduces
# both to signed permutations, so the kernel is searched on them directly
_SKEWED_Z3 = ([[-24, 8, -9], [43, -16, 16], [-3, 3, -1]],
              [[349, -141, -160], [-1710, 691, 784], [1952, -789, -895]])


def test_enumerate_node_budget(monkeypatch):
    # the search's top level on this basis holds hundreds of nodes for the
    # 33 points of the ball of radius 2, so a cap of 100 is exceeded inside
    # the search
    W = np.array(_SKEWED_Z3[0], dtype=float)[None]
    assert len(lattice._enum(W, 2.0)[1]) == 33
    monkeypatch.setattr(lattice, "DEFAULT_POINT_CAP", 100)
    with pytest.raises(BudgetExceeded):
        lattice._enum(W, 2.0)


def test_enumerate_node_budget_below_the_top_level(monkeypatch):
    # 2,663 top-level nodes of this basis expand into 99,063 middle-level
    # nodes for the 179 points of the ball of radius 3.47
    W = np.array(_SKEWED_Z3[1], dtype=float)[None]
    assert len(lattice._enum(W, 3.47)[1]) == 179
    monkeypatch.setattr(lattice, "DEFAULT_POINT_CAP", 50000)
    with pytest.raises(BudgetExceeded, match="99063 candidates exceed cap"):
        lattice._enum(W, 3.47)


# random_unimodular(3, s, steps) of the exact_minima benchmark's skewed pool;
# (5, 60) is refused as singular
_POOL = [(s, steps) for s in (3, 4, 5) for steps in (10, 20, 30, 40, 50, 60)
         if (s, steps) != (5, 60)]


def _qt_bases(seed, d, count):
    """Well-conditioned bases Q T, as in the exact_minima benchmark."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        out.append(Q @ (np.triu(rng.uniform(-0.5, 0.5, (d, d)), 1)
                        + np.diag(rng.uniform(0.7, 1.4, d))))
    return out


def _int_det(M):
    """Determinant of an integer matrix in Python ints (Leibniz)."""
    n = len(M)
    return sum((-1) ** sum(p[i] > p[j] for i in range(n)
                           for j in range(i + 1, n))
               * math.prod(int(M[i][p[i]]) for i in range(n))
               for p in itertools.permutations(range(n)))


def test_lll_basis_is_the_lattice_times_a_unimodular_u():
    rng = np.random.default_rng(4242)
    ints = [sl.random_unimodular(3, s, steps) for s, steps in _POOL]
    ints += [sl.random_unimodular(4, s, steps) for s in (3, 4, 5)
             for steps in (20, 40, 50)]
    ints += [B for B in (rng.integers(-9, 10, (d, d)) for d in (3, 4)
                         for _ in range(30)) if _int_det(B)]
    for B in ints:
        for scale in (1.0, 2.0**-40, 2.0**40):  # exact: W = B U
            L = sl.make_lattice(scale * B)
            assert L.U.dtype == np.int64 and abs(_int_det(L.U)) == 1
            assert np.array_equal(L.W, (scale * B) @ L.U)


def test_lll_basis_is_size_reduced_and_lovasz():
    # judged on W by numpy's QR, mu_kj = R_jk / R_jj, B_j = R_jj^2
    rng = np.random.default_rng(77)
    bases = [sl.random_unimodular(3, s, steps) for s, steps in _POOL]
    bases += _qt_bases(3, 3, 30) + _qt_bases(4, 4, 30)
    for d in (3, 4):  # nearly dependent: a last column off the span by eps
        for eps in (1e-3, 1e-5, 1e-7):
            B = rng.standard_normal((d, d))
            B[:, -1] = B[:, :-1] @ rng.uniform(-3, 3, d - 1) + eps * B[:, -1]
            bases.append(B)
    for B in bases:
        R = np.linalg.qr(sl.make_lattice(B).W, mode="r")
        g = np.diag(R)
        mu = R / g[:, None]
        assert np.all(np.abs(np.triu(mu, 1)) <= 0.5 + 1e-9)
        for k in range(1, len(g)):
            lhs = g[k] ** 2 - (0.99 - mu[k - 1, k] ** 2) * g[k - 1] ** 2
            assert lhs >= -1e-9 * g[k - 1] ** 2


def test_lll_takes_skewed_pool_bases_to_signed_permutations():
    # one pass of size reduction left entries of 1952 in (5, 40)
    for s, steps in ((5, 40), (5, 50), (3, 60)):
        A = np.abs(sl.make_lattice(sl.random_unimodular(3, s, steps)).W)
        assert set(A.flat) <= {0.0, 1.0} and np.array_equal(A @ A.T,
                                                            np.eye(3))


def test_enumeration_equals_the_unreduced_search():
    # rows of the reduced search against the search on the basis itself;
    # Z^3 under a unimodular basis has points exactly on the spheres of
    # radius sqrt(2) (12) and sqrt(3) (8)
    for s, steps in _POOL:
        L = sl.make_lattice(sl.random_unimodular(3, s, steps))
        for R, count in ((1.0, 7), (math.sqrt(2), 19), (math.sqrt(3), 27),
                         (2.0, 33)):
            got = sl.enumerate_ball_arrays(L, R)
            ref = sl.enumerate_ball_arrays(unreduced(L), R)
            assert len(got[0]) == count
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    for d, seed in ((3, 5), (4, 6)):
        for B in _qt_bases(seed, d, 10):
            L = sl.make_lattice(B)
            for R in (0.9, 1.7, 2.5):
                got = sl.enumerate_ball_arrays(L, R)
                ref = sl.enumerate_ball_arrays(unreduced(L), R)
                assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_primitive_mask():
    # the zero row has gcd 0, so it is rejected without a separate filter
    rows = np.array([[0, 0], [2, 4], [0, 3], [-6, 9], [1, 0], [-3, 5],
                     [0, -1]])
    assert sl.primitive_mask(rows).tolist() == [False, False, False, False,
                                                True, True, True]
    assert sl.primitive_mask(np.array([[0, 0, 0], [2, 0, 4],
                                       [2, 3, 4]])).tolist() == [
        False, False, True]


def test_enumerate_negation_closure_and_radius(rng):
    for _ in range(20):
        B = rng.uniform(-2, 2, (2, 2))
        try:
            L = sl.make_lattice(B)
        except SingularBasis:
            continue
        R = rng.uniform(0.5, 4.0)
        pts = sl.enumerate_ball(L, R)
        got = {p.coeffs for p in pts}
        for p in pts:
            assert tuple(-c for c in p.coeffs) in got
            assert p.norm <= R * (1 + 1e-9)


def test_enumerate_sorted_lexicographically():
    L = sl.make_lattice([[1, 0.3], [0, 1]])
    pts = sl.enumerate_ball(L, 2.5)
    coeffs = [p.coeffs for p in pts]
    assert coeffs == sorted(coeffs)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_det_invariant_under_unimodular(seed):
    rng = np.random.default_rng(seed)
    B = rng.uniform(-3, 3, (2, 2))
    try:
        L = sl.make_lattice(B)
    except SingularBasis:
        return
    U = sl.random_unimodular(2, seed)
    L2 = sl.make_lattice(B @ U)
    assert L2.det == pytest.approx(L.det, rel=1e-9)


def test_is_primitive_examples():
    L = sl.make_lattice([[1, 0], [0, 1]])
    assert not sl.is_primitive(L, sl.lattice_point(L, (2, 4)))
    assert sl.is_primitive(L, sl.lattice_point(L, (3, 5)))
    assert not sl.is_primitive(L, sl.lattice_point(L, (0, 0)))


def test_is_primitive_rejects_inconsistent_point():
    L = sl.make_lattice([[1, 0], [0, 1]])
    bad = sl.LatticePoint(coords=(1.5, 0.0), coeffs=(1, 0))
    with pytest.raises(NotLatticePoint):
        sl.is_primitive(L, bad)


def test_primitive_divisor_crosscheck(rng):
    # p primitive => p/k is not a lattice point for any integer k >= 2
    for _ in range(10):
        B = rng.uniform(-2, 2, (2, 2))
        try:
            L = sl.make_lattice(B)
        except SingularBasis:
            continue
        pts = sl.enumerate_ball(L, 3.0)
        coeff_set = {p.coeffs for p in pts}
        for p in pts:
            if p.is_origin() or not sl.is_primitive(L, p):
                continue
            for k in (2, 3):
                if all(c % k == 0 for c in p.coeffs):
                    scaled = tuple(c // k for c in p.coeffs)
                    assert scaled not in coeff_set or not any(scaled)


def test_perturb_basis_zero_is_identity():
    L = sl.make_lattice([[1, 0], [0, 1]])
    L2 = sl.perturb_basis(L, 0.0, seed=99)
    assert np.array_equal(L2.basis, L.basis)


def test_perturb_basis_det_bound():
    L = sl.make_lattice([[1, 0], [0, 1]])
    L2 = sl.perturb_basis(L, 0.01, seed=7)
    assert 0.98 <= L2.det <= 1.02
    assert np.abs(L2.basis - L.basis).max() <= 0.01


def test_perturb_basis_converges():
    L = sl.make_lattice([[1, 0], [0, 1]])
    for n in (1, 10, 100, 1000):
        Ln = sl.perturb_basis(L, 1.0 / n, seed=n)
        assert np.abs(Ln.basis - L.basis).max() <= 1.0 / n


def test_perturb_negative_magnitude_rejected():
    L = sl.make_lattice([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        sl.perturb_basis(L, -0.1, seed=0)


def test_hyperbolic_cross_covers_the_region(rng):
    # every nonzero ball point with |x1*x2| <= s is returned, rows are
    # unique, lex-sorted and carry the ball path's coordinates
    for _ in range(20):
        B = rng.uniform(-2, 2, (2, 2))
        try:
            L = sl.make_lattice(B)
        except SingularBasis:
            continue
        for s, R in ((0.05, 30.0), (1.0, 60.0), (40.0, 20.0)):
            coeffs, coords = sl.enumerate_hyperbolic_cross(L, s, R)
            bc, bx = sl.enumerate_ball_arrays(L, R)
            want = {tuple(c) for c, x in zip(bc.tolist(), bx)
                    if any(c) and abs(x[0] * x[1]) <= s}
            assert want <= set(map(tuple, coeffs.tolist()))
            assert np.all(np.any(coeffs != 0, axis=1))
            order = np.lexsort((coeffs[:, 1], coeffs[:, 0]))
            assert np.array_equal(order, np.arange(len(coeffs)))
            assert len(np.unique(coeffs, axis=0)) == len(coeffs)
            assert np.array_equal(coords, coeffs @ L.basis.T)


def test_hyperbolic_cross_matches_per_rectangle_loop(rng):
    # the rectangles enumerated as one stack give the points, bit for bit,
    # of enumerating each rectangle lattice on its own
    for k in range(30):
        B = sl.sample_unimodular_2d_arrays(1, 300 + k)[3][0]
        if k % 3 == 0:
            B = B @ sl.random_unimodular(2, k, 10).astype(float)
        L = sl.make_lattice(B)
        for s, R in ((0.05, 30.0), (1.0, 300.0), (0.3, 2000.0)):
            coeffs, coords = sl.enumerate_hyperbolic_cross(L, s, R)
            want_c, want_x = cross_by_rectangles(L, s, R)
            assert coeffs.tobytes() == want_c.tobytes()
            assert coords.tobytes() == want_x.tobytes()


def test_hyperbolic_cross_rejects_bad_input(monkeypatch):
    L = sl.golden_lattice()
    for s, R in ((1.0, 0.0), (1.0, -3.0), (0.0, 10.0), (math.inf, 10.0)):
        with pytest.raises(ValueError):
            sl.enumerate_hyperbolic_cross(L, s, R)
    with pytest.raises(BudgetExceeded):
        sl.enumerate_hyperbolic_cross(L, 1.0, math.inf)
    with pytest.raises(DimensionMismatch):
        sl.enumerate_hyperbolic_cross(sl.make_lattice(np.eye(3)), 1.0, 5.0)
    monkeypatch.setattr(lattice, "DEFAULT_POINT_CAP", 5)
    with pytest.raises(BudgetExceeded):
        sl.enumerate_hyperbolic_cross(L, 1.0, 1e3)


def test_hyperbolic_cross_caps_the_union_of_its_rectangles(monkeypatch):
    # a cap above every rectangle's level nodes but below their union: the
    # search of the rectangles' stack returns, and the union is refused
    L, enum, out = sl.golden_lattice(), lattice._enum, []
    monkeypatch.setattr(lattice, "_enum", lambda W, R: out.append(enum(W, R))
                        or out[-1])
    sl.enumerate_hyperbolic_cross(L, 1.0, 1e3)
    union = len(out[0][1])
    assert np.bincount(out[0][0]).max() < union // 4  # 20 rectangles
    monkeypatch.setattr(lattice, "DEFAULT_POINT_CAP", union - 1)
    with pytest.raises(BudgetExceeded, match=f"^{union} candidates exceed "
                       f"cap {union - 1}$"):
        sl.enumerate_hyperbolic_cross(L, 1.0, 1e3)
    assert len(out) == 2  # the search itself passed the cap
    monkeypatch.setattr(lattice, "DEFAULT_POINT_CAP", union)
    sl.enumerate_hyperbolic_cross(L, 1.0, 1e3)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_SCALED = st.builds(lambda m, e: m * 10.0 ** e,
                    st.floats(-10.0, 10.0), st.integers(-150, 150))


@given(d=st.integers(1, 7), rows=st.integers(1, 6), data=st.data())
@settings(max_examples=300, deadline=None)
def test_fold_is_numpys_row_reduction_bit_for_bit(d, rows, data):
    X = np.array(data.draw(st.lists(
        st.lists(st.one_of(_SPECIAL, _SCALED), min_size=d, max_size=d),
        min_size=rows, max_size=rows)))
    with np.errstate(all="ignore"):
        for x in (X, X[0]):  # rows (n, d) and one point (d,)
            assert np.array_equal(_bits(_fold(np.multiply, x)),
                                  _bits(np.prod(x, axis=-1)))
            assert np.array_equal(_bits(np.sqrt(_fold(np.add, x * x))),
                                  _bits(np.linalg.norm(x, axis=-1)))
        got, want = _fold(np.add, X), X.sum(axis=-1)
    # numpy's sum starts from +0.0, so only a row of -0.0 terms differs:
    # its sum is -0.0 here and +0.0 there
    zeros = np.all(_bits(X) == _bits(-0.0), axis=-1)
    assert np.array_equal(_bits(got)[~zeros], _bits(want)[~zeros])
    assert np.all(_bits(got[zeros]) == _bits(-0.0))
    assert np.all(_bits(want[zeros]) == _bits(0.0))


@pytest.mark.parametrize("columns", [
    [[1.0, 0.0], [7.3, 1.0]], [[0.3, 1.1], [-2.0, 0.4]],
    [[1.4e154, 1.4e154], [0.0, 1e150]],  # |column|^2 overflows a float
    sl.random_unimodular(3, 4, 30), sl.random_unimodular(4, 2, 20)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_make_lattice_stores_its_reduced_basis(columns):
    L = sl.make_lattice(columns)
    scale = np.abs(L.basis).max()
    assert L.U.dtype == np.int64 and abs(round(np.linalg.det(L.U))) == 1
    assert np.allclose(L.W, L.basis @ L.U, rtol=0, atol=1e-12 * scale)
    assert not (L.W.flags.writeable or L.U.flags.writeable)
    if L.dim == 2:  # Gauss-reduced: |w0| <= |w1|, |<w0, w1>| <= |w0|^2 / 2
        g = (L.W / scale).T @ (L.W / scale)
        assert g[0, 0] <= g[1, 1] and 2 * abs(g[0, 1]) <= g[0, 0] * (1 + 1e-12)
    assert "W=" not in repr(L)


def _count_reductions(monkeypatch):
    """Calls of the two single-lattice reductions, by name, from every
    starlat module that binds them."""
    calls = {"_gauss_reduce_2d": 0, "_lll": 0}
    for name in calls:
        fn = getattr(lattice, name)

        def counted(B, fn=fn, name=name):
            calls[name] += 1
            return fn(B)

        for mod in (lattice, minima, stats, partition):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("columns", [[[1.0, 0.0], [0.4, 10.0]],
                                     [[1.0, 0, 0], [0, 1.0, 0],
                                      [0.3, -0.2, 10.0]]])
def test_exact_minima_query_reduces_its_lattice_once(monkeypatch, columns):
    # lambda_d lies far beyond the first radius R0 = det^(1/d) / floor, so
    # the radius doubles; the last ball has the bound 1.001 max f(w_i) /
    # floor over the reduced basis, here 1.001 lambda_d, for radius, where
    # the replaced search doubled once more.  The basis is reduced when the
    # lattice is built only
    calls = _count_reductions(monkeypatch)
    radii = []
    enum = lattice.enumerate_ball_arrays
    monkeypatch.setattr(minima, "enumerate_ball_arrays",
                        lambda L, R, **kw: radii.append(R) or enum(L, R, **kw))
    d = len(columns)
    L = sl.make_lattice(columns)
    res = sl.successive_minima_exact(sl.pnorm_ball(d, 2), L)
    R0, balls = L.det ** (1 / d), d + 1  # 3 and 4 balls, as before
    assert res.exact and len(radii) == balls
    assert radii[:-1] == [R0 * 2**j for j in range(balls - 1)]
    assert radii[-1] == pytest.approx(1.001 * res.values[-1], rel=1e-8)
    assert radii[-1] < 2 * radii[-2]
    assert calls == {"_gauss_reduce_2d": d == 2, "_lll": d > 2}


def _count_enums(monkeypatch):
    """Calls of lattice._enum from every starlat module that binds it."""
    calls = []
    fn = lattice._enum

    def counted(W, R):
        calls.append((W, R))
        return fn(W, R)

    for mod in (lattice, minima, stats, partition):
        if getattr(mod, "_enum", None) is fn:
            monkeypatch.setattr(mod, "_enum", counted)
    return calls


def test_theorem2_reduces_a_lattice_once_and_enumerates_nothing(monkeypatch):
    # the Haar stack is reduced once; a lattice that the continued-fraction
    # chain covers needs no enumeration and no further reduction, and its
    # walk takes O(log R) steps (one divmod per step)
    calls = _count_reductions(monkeypatch)
    enums = _count_enums(monkeypatch)
    steps = []
    monkeypatch.setattr(minima, "divmod", lambda u, v: steps.append(1)
                        or divmod(u, v), raising=False)
    sl.theorem2_experiment(sl.hyperbolic(2), (10, 100, 1000), 1, 3)
    assert calls == {"_gauss_reduce_2d": 1, "_lll": 0}
    assert not enums and 0 < len(steps) <= 2 * math.log2(2e3) + 8
    sl.theorem2_experiment(sl.hyperbolic(2), (10, 100, 1000), 3, 4)
    assert calls == {"_gauss_reduce_2d": 2, "_lll": 0}
    assert not enums
    L = sl.golden_lattice()
    phi = (1 + math.sqrt(5)) / 2
    for R in (50.0, 1e3, 1e5, 1e7):  # every quotient is 1: x1 grows by phi
        steps.clear()  # (the float basis drifts from |x1 x2| = 1 at 1e7)
        res = sl.minima_upper_bound(sl.hyperbolic(2), L, R)
        assert not enums and res.values == pytest.approx((1, 1), abs=1e-3)
        assert len(steps) <= 2 * math.log(2 * R, phi) + 2
    assert calls == {"_gauss_reduce_2d": 3, "_lll": 0}


def test_hyperbolic_cross_refuses_radii_that_lose_the_lattice():
    # against exact rationals the float rectangles of this lattice drop
    # points from R/sqrt(s) of about 1e9 on (156 rows at 1e10, 288,900 at
    # 1e20): R >= 2^24 sqrt(s) is a budget error, below it the rows hold
    L = sl.sample_unimodular_2d(0)
    t = math.sqrt(0.5)
    rows = [len(sl.enumerate_hyperbolic_cross(L, 0.5, R)[0])
            for R in (1e4, 2.0**23 * t)]  # R grows 2^9.2-fold: 20 rectangles
    assert rows[0] <= rows[1] <= rows[0] + 5 * 20
    for R in (2.0**24 * t, 1e10, 1e15, 1e20):
        with pytest.raises(BudgetExceeded, match="leaves the float range"):
            sl.enumerate_hyperbolic_cross(L, 0.5, R)
    with pytest.raises(BudgetExceeded, match="leaves the float range"):
        sl.minima_upper_bound(sl.hyperbolic(2), sl.golden_lattice(), 1e9)


@pytest.mark.parametrize("W,R", [
    (np.eye(2)[None], 1e200),  # R^2 overflows
    (np.eye(2)[None], math.nan),
    (np.array([[[1.0, 1.0], [0.0, 1e-300]]]), 1.0),  # B_1 underflows to 0
    (np.array([[[1.0, 0.0], [0.0, 1e-30]]]), 1.0),  # x_1 up to 1e30
    (np.stack([np.eye(2), np.diag([1e-30, 1.0])]), 1.0),  # one basis of two
    (np.stack([np.eye(2), np.eye(2)]), 1e200),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_enum_refuses_bounds_beyond_floats(W, R):
    with pytest.raises(BudgetExceeded, match="leaves the float range"):
        lattice._enum(W, R)
