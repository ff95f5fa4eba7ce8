"""The batch substitution kernel on integer numerators against the
per-polynomial Fraction loop in ``oracles``: ``substitute_all``,
``PolyMap.compose``, ``push_fields`` and the truncated inverse give the same
terms, and every coefficient they return is a Fraction (dict equality cannot
tell, since 2 == Fraction(2))."""

from fractions import Fraction

from hypothesis import assume, example, given, strategies as st

from carnotkit.coords import exact_flow
from carnotkit.groups import catalog
from carnotkit.poly import (PolyMap, RationalPoly, invert_weight_triangular,
                            substitute_all, weight_shape)
from carnotkit.vfields import PolyVectorField, push_fields

import oracles
from conftest import small_polys, step3_unipotent_maps

WS2, WS3 = (1, 2), (1, 1, 2)
ENGEL = catalog("engel_4").frame


def bounds():
    """No bound, or one below 0, at 0, or inside the degrees drawn."""
    return st.one_of(st.none(), st.integers(min_value=-2, max_value=6))


def args_of(m, count):
    """``count`` substitution polynomials in m variables; constants allowed."""
    return st.lists(small_polys(m, max_terms=3, max_exp=2), min_size=count,
                    max_size=count)


def assert_same(got, want):
    assert (got.n, got.terms) == (want.n, want.terms)
    assert all(isinstance(c, Fraction) for c in got.terms.values())


def _p(n, terms):
    return RationalPoly(n, terms)


@given(st.lists(small_polys(2), max_size=4), args_of(3, 2), bounds())
@example(polys=[_p(2, {(1, 0): 2, (0, 1): -1})],  # cancels to zero
         args=[_p(3, {(1, 0, 0): Fraction(1, 2)}), _p(3, {(1, 0, 0): 1})], bound=None)
@example(polys=[_p(2, {(2, 0): Fraction(1, 3), (0, 1): Fraction(-1, 5)}),
                _p(2, {(1, 1): Fraction(2, 7), (0, 0): 4})],  # mixed denominators
         args=[_p(3, {(1, 0, 0): Fraction(3, 5), (0, 0, 0): Fraction(1, 3)}),
               _p(3, {(2, 0, 0): Fraction(5, 3), (0, 0, 1): Fraction(1, 7)})], bound=0)
@example(polys=[_p(2, {(1, 1): 1, (0, 0): 3})],
         args=[_p(3, {(0, 0, 0): 1, (0, 1, 0): 1}), _p(3, {(0, 0, 1): 2})], bound=-1)
def test_batch_matches_the_fraction_loop(polys, args, bound):
    got = substitute_all(polys, args, WS3, bound)
    assert len(got) == len(polys)
    for p, q in zip(polys, got):
        assert_same(q, oracles.fraction_substitute(p, args, WS3, bound))
        assert_same(p.substitute(args, WS3, bound), q)


@given(args_of(2, 3), bounds())
def test_an_empty_batch_is_empty(args, bound):
    assert substitute_all([], args, WS2, bound) == []
    zeros = substitute_all([RationalPoly.zero(3)] * 2, args, WS2, bound)
    assert [z.terms for z in zeros] == [{}, {}]


@given(st.lists(small_polys(2), min_size=1, max_size=3), args_of(3, 2), bounds())
def test_compose_matches_the_fraction_loop(outer, inner, bound):
    got = PolyMap(outer).compose(PolyMap(inner), WS3, bound)
    for comp, q in zip(outer, got.components):
        assert_same(q, oracles.fraction_substitute(comp, inner, WS3, bound))


def fields(n):
    return st.lists(small_polys(n, max_terms=3, max_exp=2), min_size=n,
                    max_size=n).map(PolyVectorField)


@given(st.lists(fields(2), max_size=3), args_of(2, 2), args_of(2, 2), bounds())
def test_push_fields_matches_the_fraction_loop(xs, forward, inverse, bound):
    weights = None if bound is None else WS2
    pushed = push_fields(xs, PolyMap(forward), PolyMap(inverse), weights, bound)
    assert len(pushed) == len(xs)
    for x, y in zip(xs, pushed):
        for m_k, c in zip(forward, y.coefficients):
            want = oracles.fraction_substitute(oracles.derivation(x, m_k), inverse,
                                               weights, bound)
            assert_same(c, want)


@given(step3_unipotent_maps(raising=True), st.integers(0, 2))
def test_truncated_inverse_matches_the_fraction_loop(mws, extra):
    m, ws = mws
    assume(max(weight_shape(m.components, ws)[1]) == 2)  # no exact inverse
    bound = max(ws) + extra
    got = invert_weight_triangular(m, ws, bound)
    for q, want in zip(got.components,
                       oracles.fraction_layered_inverse(m, ws, bound).components):
        assert_same(q, want)


def test_integer_input_gives_fraction_coefficients():
    """Integer coefficients in, integer values out: still Fractions."""
    x1, x2 = (RationalPoly.variable(2, k) for k in range(2))
    outer = PolyMap([2 * x1 + x2 * x2, x1 * x2 - 3])
    inner = PolyMap([x1 + 1, 2 * x2])
    fields_ = [PolyVectorField([x2, RationalPoly.const(2, 1)])]
    raising = PolyMap([x1 + x2, x2 + x1 * x1])  # x2 raises component 1
    results = (substitute_all(outer.components, inner.components)
               + outer.compose(inner, WS2, 3).components
               + push_fields(fields_, outer, inner)[0].coefficients
               + invert_weight_triangular(raising, WS2, 4).components
               + exact_flow(ENGEL.fields, ENGEL.weights).components)
    assert all(r.terms for r in results)
    for r in results:
        assert all(isinstance(c, Fraction) for c in r.terms.values())
