import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starlat as sl
from starlat import bodies, minima
from starlat.errors import (BudgetExceeded, DimensionMismatch,
                            InvariantViolation, SingularBasis, UnboundedBody)

from conftest import (
    ball_candidates,
    doubling_minima,
    rank_threshold_minima,
    reference_greedy,
    tuple_minima,
    unreduced,
)


EUCLID = sl.pnorm_ball(2, 2)


def euclid_norm(x):
    return float(np.linalg.norm(x))


def test_exact_minima_z2():
    L = sl.make_lattice([[1, 0], [0, 1]])
    res = sl.successive_minima_exact(EUCLID, L)
    assert res.exact
    assert res.values == (1.0, 1.0)
    assert res.witnesses[0].coeffs != res.witnesses[1].coeffs


def test_exact_minima_hexagonal():
    L = sl.make_lattice([[1, 0.5], [0, math.sqrt(3) / 2]])
    res = sl.successive_minima_exact(EUCLID, L)
    assert res.values[0] == pytest.approx(1.0, abs=1e-12)
    assert res.values[1] == pytest.approx(1.0, abs=1e-12)


def test_exact_minima_diagonal_box_body():
    L = sl.make_lattice([[2, 0], [0, 3]])
    res = sl.successive_minima_exact(sl.pnorm_ball(2, math.inf), L)
    assert res.values == (2.0, 3.0)
    assert res.witnesses[0].coeffs in {(1, 0), (-1, 0)}


def test_exact_minima_ordering_and_witness_consistency(rng):
    for _ in range(15):
        B = rng.uniform(-2, 2, (2, 2))
        try:
            L = sl.make_lattice(B)
        except SingularBasis:
            continue
        if L.det < 0.2:
            continue
        res = sl.successive_minima_exact(EUCLID, L)
        assert res.values[0] <= res.values[1]
        for v, w in zip(res.values, res.witnesses):
            assert EUCLID(w.coords) == pytest.approx(v, rel=1e-9)
        c1, c2 = res.witnesses[0].coeffs, res.witnesses[1].coeffs
        assert c1[0] * c2[1] - c1[1] * c2[0] != 0


def test_exact_minima_matches_rank_oracle(rng):
    for _ in range(12):
        B = rng.uniform(-2, 2, (2, 2))
        try:
            L = sl.make_lattice(B)
        except SingularBasis:
            continue
        if L.det < 0.3:
            continue
        res = sl.successive_minima_exact(EUCLID, L)
        oracle = rank_threshold_minima(B, euclid_norm,
                                       res.values[1] * 1.5 + 1.0)
        assert res.values[0] == pytest.approx(oracle[0], rel=1e-9)
        assert res.values[1] == pytest.approx(oracle[1], rel=1e-9)


def test_exact_minima_matches_tuple_oracle_small():
    for cols in ([[1, 0], [0, 1]], [[2, 1], [0, 1]], [[1.3, 0.4], [-0.2, 1.1]]):
        L = sl.make_lattice(cols)
        res = sl.successive_minima_exact(EUCLID, L)
        oracle = tuple_minima(cols, euclid_norm, res.values[1] * 1.2 + 0.5)
        assert res.values[0] == pytest.approx(oracle[0], rel=1e-9)
        assert res.values[1] == pytest.approx(oracle[1], rel=1e-9)


def test_exact_minima_3d_identity():
    L = sl.make_lattice(np.eye(3))
    res = sl.successive_minima_exact(EUCLID3 := sl.pnorm_ball(3, 2), L)
    assert res.values == (1.0, 1.0, 1.0)
    res_box = sl.successive_minima_exact(sl.pnorm_ball(3, math.inf),
                                         sl.make_lattice(np.diag([1, 2, 3])))
    assert res_box.values == (1.0, 2.0, 3.0)
    assert EUCLID3.dim == 3


def test_exact_minima_rejects_unbounded():
    with pytest.raises(UnboundedBody):
        sl.successive_minima_exact(sl.hyperbolic(2),
                                   sl.make_lattice([[1, 0], [0, 1]]))


@pytest.mark.parametrize("c", [1e-13, 1e-100, 2.0**-400])
def test_exact_minima_scale_with_a_tiny_lattice(c):
    # the start radius had an absolute floor of 1e-9: at c = 1e-13 its ball
    # held about 3e8 points, over the point cap
    for f in (EUCLID, sl.pnorm_ball(2, 1), sl.box(2)):
        for cols in ([[1, 0], [0, 1]], [[1, 0.5], [0, math.sqrt(3) / 2]],
                     [[1.3, 0.4], [-0.2, 1.1]]):
            ref = sl.successive_minima_exact(f, sl.make_lattice(cols))
            res = sl.successive_minima_exact(
                f, sl.make_lattice(c * np.array(cols)))
            assert res.exact
            assert res.values == pytest.approx(
                [c * v for v in ref.values], rel=1e-12)


def test_exact_minima_below_the_start_radius_floor_exceed_the_cap():
    # the start radius is at least 2^-500; at scale 1e-160 that ball holds
    # about 3e19 points
    with pytest.raises(BudgetExceeded):
        sl.successive_minima_exact(EUCLID, sl.make_lattice(1e-160 * np.eye(2)))


def test_body_and_lattice_dimensions_must_agree():
    # a planar ball evaluated on 3D points gave a wrong certified lambda_3
    # (0.7676 for 0.7445 on this basis), and hyperbolic(3) on planar points
    # |x1 x2|^(1/3)
    L3 = sl.make_lattice(sl.parse_basis(
        "0.626927,-0.2816,0.438389;0.855378,0.485985,0.199299;"
        "-0.449946,-0.90878,-0.674933"))
    with pytest.raises(DimensionMismatch):
        sl.successive_minima_exact(sl.pnorm_ball(2, 8), L3)
    with pytest.raises(DimensionMismatch):
        sl.minima_upper_bound(sl.pnorm_ball(2, 8), L3, 3.0)
    with pytest.raises(DimensionMismatch):
        sl.minima_upper_bound(sl.hyperbolic(3), sl.golden_lattice(), 50.0)
    with pytest.raises(DimensionMismatch):
        sl.theorem2_experiment(sl.hyperbolic(3), [10.0], N=3, seed=0)


def test_minkowski_second_theorem_bound(rng):
    # for the Euclidean ball in the plane: lambda1*lambda2*V(B) <= 4*det
    vol = math.pi
    for _ in range(15):
        B = rng.uniform(-2, 2, (2, 2))
        try:
            L = sl.make_lattice(B)
        except SingularBasis:
            continue
        if L.det < 0.2:
            continue
        res = sl.successive_minima_exact(EUCLID, L)
        prod = res.values[0] * res.values[1]
        assert prod * vol <= 4.0 * L.det * (1 + 1e-9)
        assert prod * vol >= (2.0 ** 2 / math.factorial(2)) * L.det * 0.999


@given(seed=st.integers(0, 10**6), c=st.floats(0.5, 3.0))
@settings(max_examples=30, deadline=None)
def test_minima_scale_covariance(seed, c):
    rng = np.random.default_rng(seed)
    B = rng.uniform(-2, 2, (2, 2))
    try:
        L = sl.make_lattice(B)
    except SingularBasis:
        return
    if L.det < 0.2:
        return
    base = sl.successive_minima_exact(EUCLID, L)
    scaled = sl.successive_minima_exact(sl.scale_body(EUCLID, c), L)
    for v, w in zip(base.values, scaled.values):
        assert w == pytest.approx(v / c, rel=1e-9)


def test_upper_bound_hyperbolic_z2_budget2():
    L = sl.make_lattice([[1, 0], [0, 1]])
    res = sl.minima_upper_bound(sl.hyperbolic(2), L, 2.0)
    assert not res.exact
    assert res.values == (0.0, 0.0)


def test_upper_bound_golden_budget50():
    res = sl.minima_upper_bound(sl.hyperbolic(2), sl.golden_lattice(), 50.0)
    assert res.values[0] == pytest.approx(1.0, abs=1e-9)
    assert res.values[1] == pytest.approx(1.0, abs=1e-9)


def test_upper_bound_monotone_in_budget():
    f = sl.hyperbolic(2)
    L = sl.make_lattice([[1.1, 0.2], [0.1, 0.95]])
    prev = (math.inf, math.inf)
    for R in (1.0, 2.0, 5.0, 10.0, 30.0):
        res = sl.minima_upper_bound(f, L, R)
        assert res.values[0] <= prev[0] + 1e-12
        assert res.values[1] <= prev[1] + 1e-12
        prev = res.values


def test_upper_bound_dominates_exact(rng):
    for _ in range(10):
        B = rng.uniform(-2, 2, (2, 2))
        try:
            L = sl.make_lattice(B)
        except SingularBasis:
            continue
        if L.det < 0.2:
            continue
        exact = sl.successive_minima_exact(EUCLID, L)
        ub = sl.minima_upper_bound(EUCLID, L, max(exact.values[1], 0.5))
        assert ub.values[0] >= exact.values[0] - 1e-12
        assert ub.values[1] >= exact.values[1] - 1e-12


def test_upper_bound_rank_deficit_pads_inf():
    L = sl.make_lattice([[1, 0], [0, 10]])
    res = sl.minima_upper_bound(EUCLID, L, 1.5)
    assert res.values[0] == 1.0
    assert res.values[1] == math.inf and res.witnesses[1] is None


def test_upper_bound_rejects_bad_budget():
    L = sl.make_lattice([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        sl.minima_upper_bound(EUCLID, L, 0.0)


def test_probe_inflating_bodies_converges():
    L = sl.make_lattice([[1, 0], [0, 1]])
    report = sl.semicontinuity_probe(
        f_seq=lambda n: sl.inflate_body(EUCLID, 1.0 + 1.0 / n),
        L_seq=lambda n: L, f=EUCLID, L=L, n_max=8,
        slack=lambda n: 3.0 / n)
    assert report.reference == (1.0, 1.0)
    assert all(e.upper_ok for e in report.entries if e.error is None)
    assert all(e.converged for e in report.entries if e.n >= 2)


def test_probe_perturbed_lattices_upper_semicontinuous():
    L = sl.golden_lattice()
    report = sl.semicontinuity_probe(
        f_seq=lambda n: sl.hyperbolic(2),
        L_seq=lambda n: sl.perturb_basis(L, 0.05 / n, seed=n),
        f=sl.hyperbolic(2), L=L, n_max=6,
        slack=lambda n: 10.0 / n, budget=30.0)
    # budgeted values along the schedule stay below reference + slack
    assert all(e.upper_ok for e in report.entries
               if e.error is None and e.n >= 2)
    assert not report.reference_exact


def test_probe_records_errors_per_entry():
    L = sl.make_lattice([[1, 0], [0, 1]])

    def bad_seq(n):
        if n == 3:
            raise ValueError("synthetic failure")
        return L

    report = sl.semicontinuity_probe(
        f_seq=lambda n: EUCLID, L_seq=bad_seq, f=EUCLID, L=L, n_max=4,
        slack=lambda n: 1.0 / n)
    errs = [e for e in report.entries if e.error is not None]
    assert len(errs) == 1 and errs[0].n == 3
    assert "synthetic failure" in errs[0].error


def test_noncontinuity_zero_epsilon_is_golden():
    rep = sl.noncontinuity_demo(0.0, 40.0, seed=5)
    assert not rep.found and rep.attempts == 1
    assert rep.best_lambda2 == pytest.approx(1.0, abs=1e-9)


def test_noncontinuity_finds_small_lambda2():
    rep = sl.noncontinuity_demo(0.05, 60.0, seed=11, attempts=300)
    assert rep.found
    assert rep.values[1] < 0.5
    w1, w2 = rep.witnesses[0], rep.witnesses[1]
    assert w1.coeffs[0] * w2.coeffs[1] - w1.coeffs[1] * w2.coeffs[0] != 0


def test_noncontinuity_rejects_negative_epsilon():
    with pytest.raises(ValueError):
        sl.noncontinuity_demo(-0.1, 10.0, seed=0)
    # so is one whose draws leave the floats (perturb_basis refuses it)
    with pytest.raises(ValueError, match="below 2\\^1023"):
        sl.noncontinuity_demo(1e308, 10.0, seed=0)


def test_noncontinuity_skips_only_singular_draws(monkeypatch):
    # at epsilon = 1e200 every draw's det overflows: each is skipped as a
    # SingularBasis and the demo reports no lattice tried
    rep = sl.noncontinuity_demo(1e200, 10.0, seed=0, attempts=20)
    assert (rep.found, rep.attempts, rep.values) == (False, 0, ())
    assert rep.best_lambda2 == math.inf
    # any other error of a draw is not swallowed

    def broken(L, magnitude, seed):
        raise ZeroDivisionError("not a degenerate draw")

    monkeypatch.setattr(minima, "perturb_basis", broken)
    with pytest.raises(ZeroDivisionError):
        sl.noncontinuity_demo(0.01, 10.0, seed=0, attempts=1)


def _hyperbola_cases():
    gold = sl.golden_lattice()
    z2 = sl.make_lattice([[1, 0], [0, 1]])
    cases = [(gold, b) for b in (2.0, 50.0, 300.0)]
    cases += [(sl.perturb_basis(gold, 1e-3, seed=k), 50.0) for k in range(30)]
    bases = sl.sample_unimodular_2d_arrays(30, seed=1111)[3]
    cases += [(sl.make_lattice(B), b) for B in bases
              for b in (2.0, 50.0, 400.0)]
    # near-axis lattices (tiny positive s) and Z^2 (s = 0, ball fallback)
    cases += [(sl.perturb_basis(z2, 1e-6, seed=k), b)
              for k in (3, 4) for b in (50.0, 300.0)]
    cases += [(z2, 2.0), (z2, 50.0)]
    return cases


def test_upper_bound_hyperbola_cross_matches_ball(monkeypatch):
    f = sl.hyperbolic(2)
    for L, budget in _hyperbola_cases():
        fast = sl.minima_upper_bound(f, L, budget)
        with monkeypatch.context() as m:
            m.setattr(minima, "_budget_candidates", ball_candidates)
            ball = sl.minima_upper_bound(f, L, budget)
        assert fast == ball, (L.basis.tolist(), budget)


def test_upper_bound_chain_matches_ball_on_perturbed_golden(monkeypatch):
    # values and witness coefficients equal the whole ball's near the golden
    # lattice, whose long runs of quotient 1 hold many near-ties of f
    f = sl.hyperbolic(2)
    for eps in (1e-3, 1e-2, 0.1):
        for k in range(12):
            L = sl.perturb_basis(sl.golden_lattice(), eps, seed=500 + k)
            for budget in (3.0, 50.0, 200.0):
                fast = sl.minima_upper_bound(f, L, budget)
                with monkeypatch.context() as m:
                    m.setattr(minima, "_budget_candidates", ball_candidates)
                    ball = sl.minima_upper_bound(f, L, budget)
                assert fast == ball, (eps, k, budget)


@pytest.mark.parametrize("columns,taken", [
    ([[1.0, 0.0], [0.0, 1.0]], ["ball"] * 3),  # Z^2: s = 0
    ([[1.0, 0.0], [0.0, math.sqrt(2)]], ["ball"] * 3),  # s = 0
    ([[1.0, 0.5], [0.0, math.sqrt(3) / 2]],  # hexagonal: an axis vector
     ["ball", "ball", "flagged", "cross"]),
    ([[1.0, -1.0], [1.0, 1.0]],  # turned Z^2: reflection ties
     ["ball", "ball", "flagged", "cross"]),
])
def test_hyperbola_fallback_lattices(monkeypatch, columns, taken):
    # lattices outside the chain's proof take the ball (s = 0, or R <= r0,
    # where the chain is not walked) or, flagged, the r0-ball and the cross,
    # with the ball's values and witnesses
    f, L, seen = sl.hyperbolic(2), sl.make_lattice(columns), []
    chain_rows, cross = minima._chain_rows, minima._cross_coeffs
    ball, r0 = minima.enumerate_ball_arrays, float(np.hypot(*L.W).max())

    def traced_chain(L, radii):
        assert max(radii) > r0
        try:
            return chain_rows(L, radii)
        except minima._Flagged:
            seen.append("flagged")
            raise

    monkeypatch.setattr(minima, "_chain_rows", traced_chain)
    monkeypatch.setattr(minima, "_cross_coeffs",
                        lambda *a: seen.append("cross") or cross(*a))
    monkeypatch.setattr(minima, "enumerate_ball_arrays", lambda L, R:
                        seen.append("ball" if R in budgets else "r0")
                        or ball(L, R))
    budgets = (0.5, 1.0, 50.0)
    for budget in budgets:
        fast = sl.minima_upper_bound(f, L, budget)
        with monkeypatch.context() as m:
            m.setattr(minima, "_budget_candidates", ball_candidates)
            assert fast == sl.minima_upper_bound(f, L, budget)
    assert [t for t in seen if t != "r0"] == taken


@pytest.mark.parametrize("columns,budget,check", [
    # det 7.9e-261: outside the range where the walk's floats stay normal
    ((np.array([[1.0, 0.7], [0.3, 1.0]]) * 1e-130).tolist(), 5e-129,
     lambda loc: set(loc) == {"L", "radii", "r_max"}),
    # w = (a1, -a2) but one ulp shorter: float Gauss keeps a first, so no
    # start b has b1 > a1
    ([[0.6, 0.6], [1.0, -0.9999999999999999]], 50.0,
     lambda loc: loc["segs"] == [] and not loc["b"][2] > loc["a"][2]),
])
def test_chain_flags_the_range_and_a_missing_start(monkeypatch, columns,
                                                    budget, check):
    # each check flags the lattice before the walk, and the r0-ball and
    # the cross give the ball's values and witnesses
    f, L = sl.hyperbolic(2), sl.make_lattice(columns)
    with pytest.raises(minima._Flagged) as info:
        minima._chain_rows(L, (budget,))
    assert check(info.traceback[-1].locals)
    fast = sl.minima_upper_bound(f, L, budget)
    monkeypatch.setattr(minima, "_budget_candidates", ball_candidates)
    assert fast == sl.minima_upper_bound(f, L, budget)


def test_upper_bound_hyperbola_beyond_the_ball_cap():
    # every nonzero golden-lattice point has |x1*x2| >= 1, so the values
    # stay (1, 1) at a budget whose ball would hold ~3e10 points; the unit
    # points there have |x2| ~ 1e-5 computed with absolute error ~1e-11
    res = sl.minima_upper_bound(sl.hyperbolic(2), sl.golden_lattice(), 1e5)
    assert res.values == pytest.approx((1.0, 1.0), abs=1e-6)


def test_noncontinuity_dependent_witnesses_raise(monkeypatch):
    p1 = sl.LatticePoint(coords=(1.0, 0.1), coeffs=(1, 0))
    p2 = sl.LatticePoint(coords=(-2.0, -0.2), coeffs=(-2, 0))
    monkeypatch.setattr(minima, "minima_upper_bound", lambda f, L, b:
                        minima.MinimaResult((0.1, 0.2), (p1, p2), False))
    with pytest.raises(InvariantViolation):
        sl.noncontinuity_demo(0.01, 10.0, seed=0, attempts=1)


def _greedy_cases():
    """Ball point sets (coeffs, fvals, d), origin included: Z^d (heavy f
    ties), random unimodular and uniform bases, four bodies, three radii;
    each in lex order, shuffled, shuffled with repeated rows, and shuffled
    after the origin twice more (as _budget_candidates lists it from both
    signs of a chain), so that under a norm three zero rows rank first."""
    rng, rows_rng = np.random.default_rng(2360), np.random.default_rng(2361)
    for d in (2, 3):
        bodies = [sl.pnorm_ball(d, 1), sl.pnorm_ball(d, 2),
                  sl.pnorm_ball(d, math.inf), sl.hyperbolic(d)]
        bases = [np.eye(d)]
        bases += [sl.random_unimodular(d, seed=k) for k in range(4)]
        bases += [rng.uniform(-1.5, 1.5, (d, d)) for _ in range(4)]
        for B in bases:
            try:
                L = sl.make_lattice(B)
            except SingularBasis:
                continue
            for r in (1.2, 2.5, 4.0):
                coeffs, coords = sl.enumerate_ball_arrays(
                    L, r * L.det ** (1.0 / d))
                shuffled = rows_rng.permutation(len(coeffs))
                repeated = rows_rng.integers(0, len(coeffs), 2 * len(coeffs))
                origin = np.flatnonzero(~coeffs.any(axis=1))
                origins = np.concatenate([origin, origin, shuffled])
                for f in bodies:
                    fvals = f.evaluator(coords)
                    for rows in (slice(None), shuffled, repeated, origins):
                        yield coeffs[rows], fvals[rows], d


def test_greedy_kernel_matches_reference_scan():
    n = zeros_first = 0
    for coeffs, fvals, d in _greedy_cases():
        assert minima._greedy_minima(coeffs, fvals, d) == \
            reference_greedy(coeffs, fvals, d), (coeffs.tolist(), d)
        n += 1
        ranked = coeffs[np.lexsort((*coeffs.T[::-1], fvals))]
        zeros_first += not ranked[:3].any()
    assert n >= 800 and zeros_first >= 150


def test_greedy_kernel_large_planar_sets_and_empty_input():
    # more than 20000 rows, with heavy ties (Z^2, hyperbola) and without
    haar = sl.sample_unimodular_2d(seed=77)
    for L, f in ((sl.make_lattice(np.eye(2)), sl.hyperbolic(2)),
                 (haar, sl.hyperbolic(2)), (haar, sl.pnorm_ball(2, 1))):
        coeffs, coords = sl.enumerate_ball_arrays(L, 81.0)
        assert len(coeffs) > 20000
        fvals = f.evaluator(coords)
        assert minima._greedy_minima(coeffs, fvals, 2) == \
            reference_greedy(coeffs, fvals, 2)
    assert minima._greedy_minima(np.empty((0, 2), dtype=np.int64),
                                 np.empty(0), 2) == []


def test_greedy_kernel_never_picks_non_finite_f():
    coeffs = np.array([[1, 0], [0, 1], [1, 1], [1, 2], [2, 1]])
    fvals = np.array([np.nan, -np.inf, 3.0, np.inf, 2.0])
    assert minima._greedy_minima(coeffs, fvals, 2) == [4, 2]


def test_greedy_kernel_exact_beyond_int64():
    # eliminating b against a forms 2^32 * 2^32, which wraps to 0 in int64
    # and would make b look dependent on a
    a = np.array([2**32, 0, 0], dtype=object)
    b = np.array([0, 2**32, 0], dtype=object)
    c = np.array([7, 0, 2**32 + 1], dtype=object)
    rows = [a, 2 * a, a + 2 * b, b, 3 * a - 5 * b, c + a + b, c]
    perm = np.random.default_rng(3).permutation(len(rows))
    coeffs = np.array([rows[k] for k in perm], dtype=np.int64)
    fvals = perm.astype(float)           # row k of `rows` has f = k
    want = [int(np.flatnonzero(perm == k)[0]) for k in (0, 2, 5)]
    assert np.abs(coeffs).max() >= 10**6
    assert minima._greedy_minima(coeffs, fvals, 3) == want
    assert reference_greedy(coeffs, fvals, 3) == want


def test_greedy_kernel_scans_past_many_dependent_rows():
    # diag(1e-3, 1) at radius 1.5: the 1999 rows (k, 0), |k| < 1000, rank
    # before (0, +-1) at f = 1, across the scan's chunks of 4, 8, 16, ...
    L = sl.make_lattice(np.diag([1e-3, 1.0]))
    coeffs, coords = sl.enumerate_ball_arrays(L, 1.5)
    for f in (EUCLID, sl.pnorm_ball(2, 1)):
        fvals = f.evaluator(coords)
        chosen = minima._greedy_minima(coeffs, fvals, 2)
        assert np.count_nonzero(fvals < fvals[chosen[1]]) > 1000
        assert chosen == reference_greedy(coeffs, fvals, 2)
        assert coeffs[chosen].tolist() == [[-1, 0], [0, -1]]


def test_greedy_kernel_returns_fewer_picks_on_a_rank_deficit():
    # rows of rank 2 in d = 3 (one of them past int64 products), of rank 1,
    # and none finite: as many picks as the rank
    rng = np.random.default_rng(5)
    plane = rng.integers(-5, 6, (40, 2)) @ np.array([[1, 2, 3], [2, -1, 4]])
    big = np.array([[2**40, 0, 2**40], [3 * 2**40, 0, 3 * 2**40],
                    [0, 2**40, 2**41], [2**41, 2**40, 2**42]])
    line = np.arange(-6, 7)[:, None] * np.array([[3, 0, -6]])
    for rows in (plane, big, line):
        fvals = rng.permutation(len(rows)).astype(float)
        want = reference_greedy(rows, fvals, 3)
        assert len(want) == np.linalg.matrix_rank(rows.astype(float)) < 3
        assert minima._greedy_minima(rows, fvals, 3) == want
    assert minima._greedy_minima(plane, np.full(40, np.inf), 3) == []


def _same_minima(res, ref):
    return (res.values == ref.values
            and [w.coeffs for w in res.witnesses]
            == [w.coeffs for w in ref.witnesses])


def _random_lattice(rng, d, smin=0.45):
    while True:
        B = rng.uniform(-3, 3, (d, d))
        if np.linalg.svd(B, compute_uv=False)[-1] >= smin:
            return B, sl.make_lattice(B)


def test_closed_form_floors_match_the_sampled_floor_path():
    # The sampled estimate at the default resolution, given as the body's
    # floor, is the floor the solver used before bodies carried closed
    # forms.  A smaller floor enumerates a larger ball, but points farther
    # out have larger f and cannot change the greedy pick.
    def both(f, L):
        sampled = sl.boundedness_floor(dataclasses.replace(f, floor=None), 512)
        return (sl.successive_minima_exact(f, L), sl.successive_minima_exact(
            dataclasses.replace(f, floor=sampled.floor), L))

    pairs = []
    balls = [sl.pnorm_ball(3, p) for p in (1.0, 2.0, math.inf)]
    # the skewed unimodular pool of the exact_minima benchmark workload;
    # random_unimodular(3, 5, 60) is rejected as singular
    for s in (3, 4, 5):
        for steps in (10, 20, 30, 40, 50) + ((60,) if s != 5 else ()):
            L = sl.make_lattice(sl.random_unimodular(3, s, steps))
            pairs += [both(f, L) for f in balls]
    # random lattices as in acceptance criterion 01
    rng = np.random.default_rng(101)
    for d, count in ((2, 40), (3, 15)):
        for _ in range(count):
            _, L = _random_lattice(rng, d)
            pairs += [both(sl.pnorm_ball(d, p), L)
                      for p in (1.0, 2.0, math.inf)]
    # scaled, inflated and linear-image bodies as in criterion 02
    rng = np.random.default_rng(202)
    for _ in range(40):
        B, L = _random_lattice(rng, 2)
        c = float(rng.uniform(0.5, 3.0))
        A, _ = _random_lattice(rng, 2)
        pairs += [both(sl.scale_body(EUCLID, c), L),
                  both(sl.inflate_body(EUCLID, c), L),
                  both(sl.linear_image(EUCLID, A), sl.make_lattice(A @ B))]
    assert all(res.exact and _same_minima(res, ref) for res, ref in pairs)


def test_exact_minima_equal_the_unreduced_path(monkeypatch):
    # make_lattice's LLL and the radius schedule against the lattice searched
    # on its own basis (W = B, U = I) by the replaced schedule, doubling from
    # det^(1/d) / floor (doubling_minima), and, where that basis is short
    # enough to start from, against the solver on it.  The schedule searches
    # no more balls than the replaced one, the k-th of at most twice its
    # radius; bodies far from round (p < 1 balls, a thin linear image) keep
    # the replaced schedule but for its last ball
    radii = []
    enum = minima.enumerate_ball_arrays
    monkeypatch.setattr(minima, "enumerate_ball_arrays",
                        lambda L, R: radii.append(R) or enum(L, R))
    balls = {"queries": 0, "searched": 0}

    def check(f, B, direct):
        L = sl.make_lattice(B)
        radii.clear()
        res = sl.successive_minima_exact(f, L)
        assert res.exact == (f.floor is not None)
        values, coeffs, ref_radii = doubling_minima(f, unreduced(L))
        assert (res.values, [w.coeffs for w in res.witnesses]) \
            == (values, coeffs)
        searched = radii[:]
        assert len(searched) <= len(ref_radii)
        assert all(r <= 2 * q for r, q in zip(searched, ref_radii))
        balls["queries"] += 1
        balls["searched"] += len(searched)
        if direct:
            assert _same_minima(res, sl.successive_minima_exact(
                f, unreduced(L)))
        return searched, ref_radii

    floorless = dataclasses.replace(sl.pnorm_ball(3, 2), floor=None)
    for s in (3, 4, 5):  # the exact_minima benchmark's skewed pool
        for steps in (10, 20, 30, 40, 50) + ((60,) if s != 5 else ()):
            U = sl.random_unimodular(3, s, steps)
            for f in [sl.pnorm_ball(3, p) for p in (1.0, 2.0, math.inf)] \
                    + [floorless]:
                check(f, U, direct=np.abs(U).max() <= 10)
    rng = np.random.default_rng(303)
    for d, count in ((2, 20), (3, 20), (4, 6)):  # Q T, as in that workload
        for _ in range(count):
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            B = Q @ (np.triu(rng.uniform(-0.5, 0.5, (d, d)), 1)
                     + np.diag(rng.uniform(0.7, 1.4, d)))
            bodies_d = [sl.pnorm_ball(d, p) for p in (1.0, 2.0, math.inf)]
            for f in bodies_d + ([floorless] if d == 3 else []):
                check(f, B, direct=True)
    # near-round bodies: one ball a query for most (236 balls for 226
    # queries, against 423 of the replaced schedule)
    assert balls["searched"] <= 1.05 * balls["queries"]
    # far from round: the bound 1.001 max f(w_i) / floor overshoots lambda_d
    # / floor 7e5-fold (p = 0.05, where no reduced basis has a short f) and
    # 2-fold (the image), so the radius doubles as before
    for p in (0.05, 0.3):
        assert check(sl.pnorm_ball(2, p), [[1, 0.5], [0, 1]], True) \
            == ([1.0, 2.0, 4.0], [1.0, 2.0, 4.0])
    image = sl.linear_image(sl.pnorm_ball(3, 2), np.diag([1 / 40, 1, 1]))
    new, old = check(image, [[1, 0.5, 0.5], [0, 1, 0], [0, 0, 1]], True)
    assert new == old


def test_thin_image_keeps_the_doubling_radius(monkeypatch):
    # f = ||diag(400, 1, 1) x||, lambda_3 = (200^2 + 1)^(1/2): the bound's
    # ball, 1.001 max f(w_i) / floor = 400.4, predicts 2.7e8 points, over
    # the point cap, while the doubling from det^(1/d) / floor = 1 rises to
    # 1.001 lambda_3 after two balls.  That ball holds 3.4e7 points, too
    # many for a test, so the search stops there
    class Stop(Exception):
        pass

    radii = []
    enum = minima.enumerate_ball_arrays

    def capped(L, R):
        radii.append(R)
        if R > 100:
            raise Stop
        return enum(L, R)

    monkeypatch.setattr(minima, "enumerate_ball_arrays", capped)
    image = sl.linear_image(sl.pnorm_ball(3, 2), np.diag([1 / 400, 1, 1]))
    L = sl.make_lattice([[1, 0.5, 0.5], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(Stop):
        sl.successive_minima_exact(image, L)
    assert radii == pytest.approx([1, 2, 1.001 * math.hypot(200, 1)])


def test_floorless_body_is_not_certified():
    f = sl.DistanceFunction(dim=2, evaluator=EUCLID.evaluator, label="mine")
    L = sl.make_lattice([[1, 0.5], [0, math.sqrt(3) / 2]])
    res = sl.successive_minima_exact(f, L)
    assert not res.exact
    assert _same_minima(res, sl.successive_minima_exact(EUCLID, L))
    assert sl.successive_minima_exact(dataclasses.replace(f, floor=1.0),
                                      L).exact
    rep = sl.semicontinuity_probe(lambda n: f, lambda n: L, EUCLID, L, 2,
                                  slack=lambda n: 1.0)
    assert rep.reference_exact
    assert not any(e.exact or e.converged for e in rep.entries)


def test_probe_samples_a_floorless_floor_once_per_entry(monkeypatch):
    # the reference and each of 3 entries estimate the floor once, in the
    # exact solver
    calls = []
    sphere_min = bodies._sphere_min
    monkeypatch.setattr(bodies, "_sphere_min",
                        lambda *a: calls.append(a[1]) or sphere_min(*a))
    f = sl.DistanceFunction(dim=2, evaluator=EUCLID.evaluator, label="mine")
    L = sl.make_lattice([[1, 0.5], [0, math.sqrt(3) / 2]])
    rep = sl.semicontinuity_probe(lambda n: f, lambda n: L, f, L, 3,
                                  slack=lambda n: 1.0)
    assert len(calls) == 4
    assert not rep.reference_exact
    assert [e.values for e in rep.entries] == [rep.reference] * 3


def test_budgeted_minima_dispatch_on_the_record_not_the_label():
    # a Euclidean evaluator named "hyperbola" is an opaque body: it takes the
    # ball, not the hyperbola's continued-fraction chain, which read
    # lambda-hat_2 = 2.77099 for it here
    L = sl.sample_unimodular_2d(1)
    named = sl.DistanceFunction(2, EUCLID.evaluator, "hyperbola")
    assert named.node == ()
    got = sl.minima_upper_bound(named, L, 3).values
    assert got == sl.minima_upper_bound(EUCLID, L, 3).values
    assert got == pytest.approx((0.39313, 2.54497), abs=1e-5)
    # a copy with a wrapped evaluator, as the benchmark traces bodies, keeps
    # the record and so the chain
    h = sl.hyperbolic(2)
    traced = dataclasses.replace(h, evaluator=lambda x: h.evaluator(x))
    assert traced.node == ("hyperbola",)
    assert minima._budget_candidates(traced, L, (50.0,))[0].tolist() == \
        minima._budget_candidates(h, L, (50.0,))[0].tolist()
