"""The batch substitution kernel on integer numerators against the
per-polynomial Fraction loop in ``oracles``: ``substitute_all``,
``PolyMap.compose``, ``push_fields`` and the truncated inverse give the same
terms, and every coefficient they return is a Fraction (dict equality cannot
tell, since 2 == Fraction(2))."""

from bisect import bisect_right
from fractions import Fraction
import random

import pytest
from hypothesis import assume, example, given, strategies as st

from carnotkit import poly
from carnotkit.coords import exact_flow
from carnotkit.graded import weighted_degree
from carnotkit.groups import catalog
from carnotkit.poly import (PolyMap, RationalPoly, invert_weight_triangular,
                            substitute_all, weight_shape)
from carnotkit.verify import random_raising_perturbation
from carnotkit.vfields import PolyVectorField, push_fields

import oracles
from conftest import fractions, small_polys, step3_unipotent_maps

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


@st.composite
def filiform_raising_maps(draw):
    """Model filiform weights (1, 1, 2, ..., n - 1), n = 5..7: the identity
    plus two terms of each component of ``random_raising_perturbation``
    (all of them make the Fraction loop take seconds at n = 7) plus one
    linear term x_j of component k with w_j > w_k, the shape of the
    benchmark's adversarial chart variants."""
    n = draw(st.integers(5, 7))
    ws = (1,) + tuple(range(1, n))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    comps = [y + RationalPoly(n, rng.sample(sorted(q.terms.items()), min(2, len(q.terms))))
             for y, q in zip(PolyMap.identity(n).components,
                             random_raising_perturbation(ws, rng).components)]
    k = draw(st.integers(0, n - 2))
    j = draw(st.sampled_from([j for j in range(n) if ws[j] > ws[k]]))
    comps[k] = comps[k] + draw(fractions(4, 3).filter(bool)) * RationalPoly.variable(n, j)
    return PolyMap(comps), ws


@given(st.one_of(step3_unipotent_maps(raising=True, lowering=True), filiform_raising_maps()),
       st.integers(0, 3))
def test_truncated_inverse_matches_the_fraction_loop(mws, extra):
    """Bounds from the largest weight r to r + 3, on step 3 and on filiform
    steps 4-6; a singular linear part fails in both."""
    m, ws = mws
    assume(max(weight_shape(m.components, ws)[1]) == 2)  # no exact inverse
    bound = max(ws) + extra
    try:
        want = oracles.fraction_layered_inverse(m, ws, bound)
    except ValueError:  # L, drawn with raising and lowering terms, is singular
        with pytest.raises(ValueError, match="singular"):
            invert_weight_triangular(m, ws, bound)
        return
    got = invert_weight_triangular(m, ws, bound)
    for q, w in zip(got.components, want.components):
        assert_same(q, w)


def test_truncated_inverse_forms_each_product_once(monkeypatch):
    """The layered sweep forms no more term pairs than one substitution of
    the nonlinear part N into the final inverse g clipped at the bound, plus
    the residual certificate m(g) (pairs counted as ``_product`` forms
    them, after its clip)."""
    pairs = [0]
    product = poly._product

    def counted(left, right, ws=None, bound=None):
        left = list(left)
        degrees, partners = right
        for e1, _ in left:
            pairs[0] += (len(partners) if bound is None else
                         bisect_right(degrees, bound - weighted_degree(e1, ws)))
        return product(left, right, ws, bound)

    monkeypatch.setattr(poly, "_product", counted)
    ws, bound = (1, 1, 2, 3), 5
    x1, x2, x3, x4 = (RationalPoly.variable(4, j) for j in range(4))
    half, third = Fraction(1, 2), Fraction(1, 3)
    m = PolyMap([x1 + half * x3 - x4, x2 + x1 * x2 + x1 * x3,
                 x3 + x1 * x1 + 2 * x2 * x3 - third * x4,
                 x4 + x1 * x2 - third * x3 * x3 + x1 * x4])
    g = invert_weight_triangular(m, ws, bound)
    inverse, pairs[0] = pairs[0], 0
    m.compose(g, ws, bound)
    certificate, pairs[0] = pairs[0], 0
    nonlinear = [RationalPoly(4, {e: c for e, c in q.terms.items() if sum(e) > 1})
                 for q in m.components]
    substitute_all(nonlinear, g.components, ws, bound)
    assert certificate < inverse <= pairs[0] + certificate


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
