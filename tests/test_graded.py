import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from carnotkit.graded import (
    DEFAULT_T_GRID, DecayTrack, WeightVector, dilate, fit_loglog_slope,
    iter_weighted_exponents, multi_factorial, ow_scaling_test, ow_violations,
    weighted_degree,
)
from carnotkit.poly import PolyMap, RationalPoly

from conftest import fractions, points


def test_weight_vector_basics():
    wv = WeightVector((1, 1, 2, 3))
    assert wv.n == 4 and wv.r == 3
    assert list(wv) == [1, 1, 2, 3]
    assert wv[2] == 2
    assert wv == (1, 1, 2, 3)


@pytest.mark.parametrize("bad", [(), (0, 1), (-1,), (2, 1)])
def test_weight_vector_rejects(bad):
    with pytest.raises(ValueError):
        WeightVector(bad)


@given(st.integers(min_value=0, max_value=6).flatmap(lambda n: st.tuples(
    st.tuples(*[st.integers(min_value=0, max_value=9)] * n),
    st.tuples(*[st.integers(min_value=0, max_value=7)] * n))))
def test_weighted_degree_matches_explicit_loop(exp_weights):
    exp, weights = exp_weights
    total = 0
    for e, w in zip(exp, weights):
        total += e * w
    assert weighted_degree(exp, weights) == total
    assert weighted_degree(exp, weights + (5,)) == total  # extra weights ignored


def test_weighted_degree_and_factorial():
    assert weighted_degree((2, 0, 1), (1, 1, 2)) == 4
    assert weighted_degree((0, 0, 0), (1, 1, 2)) == 0
    assert multi_factorial((3, 1, 2)) == 12


@pytest.mark.parametrize("weights,bound", [((1, 1), 3), ((1, 1, 2), 4), ((1, 2, 3), 6)])
def test_iter_weighted_exponents_matches_brute_force(weights, bound):
    got_eq = set(iter_weighted_exponents(weights, bound, "eq"))
    got_le = set(iter_weighted_exponents(weights, bound, "le"))
    brute = set()
    n = len(weights)
    def rec(prefix):
        if len(prefix) == n:
            brute.add(tuple(prefix))
            return
        for e in range(bound + 1):
            cand = prefix + [e]
            if sum(w * v for w, v in zip(weights, cand)) <= bound:
                rec(cand)
    rec([])
    assert got_le == brute
    assert got_eq == {e for e in brute
                      if weighted_degree(e, weights) == bound}
    assert all(weighted_degree(e, weights) == bound for e in got_eq)


def test_iter_weighted_exponents_rejects_mode():
    with pytest.raises(ValueError):
        list(iter_weighted_exponents((1, 2), 2, "lt"))


@given(points(3), fractions(4, 3), fractions(4, 3))
def test_dilation_composes(x, s, t):
    ws = (1, 2, 3)
    assert dilate(dilate(x, s, ws), t, ws) == dilate(x, s * t, ws)


def test_ow_violations_flags_low_terms_only():
    # component weights (1, 1, 2); residual (x3, 0, x1*x2)
    x1 = RationalPoly.variable(3, 0)
    x2 = RationalPoly.variable(3, 1)
    x3 = RationalPoly.variable(3, 2)
    res = PolyMap([x3, RationalPoly.zero(3), x1 * x2])
    ws = (1, 1, 2)
    # m = 0: x3 in comp 1 has degree 2 >= 1, x1x2 in comp 3 has 2 >= 2 — clean
    assert not ow_violations(res, 0, ws)
    # m = 1: x1x2 (degree 2 < 3) breaks the bound, x3 (2 >= 2) does not
    bad = ow_violations(res, 1, ws)
    assert [(k, exp) for k, exp, _ in bad] == [(2, (1, 1, 0))]


def test_ow_violations_sorted_by_weighted_degree():
    x1 = RationalPoly.variable(2, 0)
    x2 = RationalPoly.variable(2, 1)
    res = PolyMap([x2 + x1, RationalPoly.zero(2)])
    bad = ow_violations(res, 2, (1, 2))
    degs = [weighted_degree(exp, (1, 2)) for _, exp, _ in bad]
    assert degs == sorted(degs) == [1, 2]


def test_fit_loglog_slope_recovers_exponent():
    ts = [0.5 ** k for k in range(1, 9)]
    vals = [7.0 * t ** 3 for t in ts]
    assert fit_loglog_slope(ts, vals) == pytest.approx(3.0, abs=1e-9)


def test_default_t_grid_is_dyadic():
    assert DEFAULT_T_GRID[0] == Fraction(1, 2)
    assert all(DEFAULT_T_GRID[i] / DEFAULT_T_GRID[i + 1] == 2
               for i in range(len(DEFAULT_T_GRID) - 1))


def test_ow_scaling_test_exact_and_slope_paths():
    ws = (1, 1, 2)
    # exact path: the zero map passes with exact=True entries
    zero = lambda x: (0.0, 0.0, 0.0)
    rep = ow_scaling_test(zero, 1, ws, [(1.0, 1.0, 1.0)])
    assert rep.passed and all(e.exact for e in rep.entries)
    # slope path: a genuine O_w(+1) residual map passes with slope >= m
    def f(x):
        return (0.0, 0.0, float(x[0]) ** 3)
    rep = ow_scaling_test(f, 1, ws, [(1.0, 0.5, 0.25), (0.5, 1.0, 0.5)])
    assert rep.passed
    assert all(s is None or s >= 0.9 for s in rep.slopes())
    # failure path: a weight-preserving map is not O_w(+1)
    ident = lambda x: tuple(float(v) for v in x)
    rep = ow_scaling_test(ident, 1, ws, [(1.0, 1.0, 1.0)])
    assert not rep.passed


def test_ow_scaling_test_needs_samples_and_directions():
    zero = lambda x: (0.0, 0.0, 0.0)
    ws = (1, 1, 2)
    assert not ow_scaling_test(zero, 1, ws, [(1.0, 1.0, 1.0)], t_grid=()).passed
    assert not ow_scaling_test(zero, 1, ws, []).passed


_TS = [0.5 ** k for k in range(1, 11)]


@pytest.mark.parametrize("ts, values, exact, m, passed", [
    (_TS, [0.0] * 10, True, 1, True),        # vanishes at every sampled scale
    ([], [], True, 1, False),                # nothing sampled
    ([0.5], [0.25], False, 1, False),        # one nonzero sample fits no slope
    (_TS, [3.0 * t for t in _TS], False, 1, True),
    (_TS, [3.0 * t for t in _TS], False, 2, False),
])
def test_decay_track_rule(ts, values, exact, m, passed):
    track = DecayTrack("r", m, ts, values, exact)
    assert track.passed is passed
