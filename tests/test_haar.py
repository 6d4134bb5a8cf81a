import math

import numpy as np
import pytest
from scipy import stats

import starlat as sl
from starlat import lattice


def test_sample_shapes_and_domain():
    x, y, rot, bases = sl.sample_unimodular_2d_arrays(5000, seed=42)
    assert bases.shape == (5000, 2, 2)
    assert np.all(np.abs(x) <= 0.5)
    assert np.all(y >= np.sqrt(1.0 - x * x) - 1e-12)
    assert np.all((0 <= rot) & (rot < 2 * math.pi))


def test_sample_determinant_is_one():
    _, _, _, bases = sl.sample_unimodular_2d_arrays(10**5, seed=7)
    dets = bases[:, 0, 0] * bases[:, 1, 1] - bases[:, 0, 1] * bases[:, 1, 0]
    assert np.max(np.abs(dets - 1.0)) <= 1e-12


def test_sample_reproducible_and_seed_sensitive():
    a = sl.sample_unimodular_2d_arrays(100, seed=3)[3]
    b = sl.sample_unimodular_2d_arrays(100, seed=3)[3]
    c = sl.sample_unimodular_2d_arrays(100, seed=4)[3]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_prefix_consistency():
    # counter-based generator: a short batch is a prefix of a longer one
    small = sl.sample_unimodular_2d_arrays(10, seed=9)[3]
    big = sl.sample_unimodular_2d_arrays(1000, seed=9)[3]
    assert np.array_equal(small, big[:10])


def test_sample_count_bounds():
    assert sl.sample_unimodular_2d_arrays(0, seed=1)[3].shape == (0, 2, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        sl.sample_unimodular_2d_arrays(-1, seed=1)


def test_single_sample_wrapper():
    L = sl.sample_unimodular_2d(seed=123)
    assert isinstance(L, sl.Lattice)
    assert L.det == pytest.approx(1.0, abs=1e-12)
    assert L.basis.shape == (2, 2)
    bases = sl.sample_unimodular_2d_arrays(1, seed=123)[3]
    assert repr(L) == repr(sl.make_lattice(bases[0]))


def _stack_rows(bases):
    """The lattices of one reduced planar stack, row by row."""
    return [sl.Lattice(2, B, float(det), W, U)
            for B, det, W, U in zip(*lattice._reduce_planar(bases))]


@pytest.mark.parametrize("seed", [5, 90417])
def test_batch_reduces_its_stack_as_make_lattice_does(seed):
    # a Haar stack is reduced as one, without admission; each row's W, U
    # and det equal make_lattice's bit for bit (2 x 5000 Haar bases)
    bases = sl.sample_unimodular_2d_arrays(5000, seed)[3]
    for M, B in zip(_stack_rows(bases), bases):
        L = sl.make_lattice(B)
        assert repr(M) == repr(L)
        assert type(M.det) is float and M.det == L.det
        for a, b in ((M.basis, L.basis), (M.W, L.W), (M.U, L.U)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable


def test_tail_probability_y_above_2():
    # analytic value: P(y > 2) = 3 / (2 pi) = 0.47746...
    _, y, _, _ = sl.sample_unimodular_2d_arrays(10**5, seed=2024)
    frac = float(np.mean(y > 2.0))
    target = 3.0 / (2.0 * math.pi)
    assert frac == pytest.approx(target, abs=0.006)


def test_x_marginal_density():
    # x = sin(phi) with phi uniform: density 1/(pi/3 sqrt(1-x^2)) on
    # [-1/2, 1/2]; check via the CDF at a few quantiles
    x, _, _, _ = sl.sample_unimodular_2d_arrays(10**5, seed=555)
    for q in (-0.4, -0.2, 0.0, 0.2, 0.4):
        expected = (math.asin(q) + math.pi / 6.0) / (math.pi / 3.0)
        assert float(np.mean(x <= q)) == pytest.approx(expected, abs=0.007)


def test_rotation_uniformity_chisquare():
    _, _, rot, _ = sl.sample_unimodular_2d_arrays(10**5, seed=31)
    counts, _ = np.histogram(rot, bins=36, range=(0, 2 * math.pi))
    _, p = stats.chisquare(counts)
    assert p > 1e-4


def test_first_minimum_never_below_fundamental_bound():
    # on the fundamental domain the shortest vector is the first column,
    # of length 1/sqrt(y) <= (4/3)^(1/4)
    _, y, _, bases = sl.sample_unimodular_2d_arrays(200, seed=77)
    ball = sl.pnorm_ball(2, 2)
    bound = (4.0 / 3.0) ** 0.25
    for L, yk in zip(_stack_rows(bases), y):
        res = sl.successive_minima_exact(ball, L)
        assert res.values[0] <= bound + 1e-9
        assert res.values[0] == pytest.approx(1.0 / math.sqrt(yk), rel=1e-9)
