"""Clipped derivation chains, one-Jacobian pushes and sparse elimination
against the whole-polynomial routes in ``oracles``: the same psi maps,
epsilon charts, orders, pushed frames and inverses."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carnotkit.coords import epsilon, linearize, psi_map, transform_frame
from carnotkit.groups import catalog
from carnotkit.linalg import mat_inv
from carnotkit.poly import RationalPoly, invert_weight_triangular
from carnotkit.verify import generate_carnot_variants, generate_privileged_variants
from carnotkit.vfields import Frame, PolyVectorField, function_order, pushforward

import oracles
from conftest import (CATALOG_FRAME_NAMES, catalog_base_frames, filiform_frames,
                      fractions, nonzero_base_frames, small_polys)

FILIFORM_SIZES = (5, 6, 7, 8)


def frames():
    """Model filiform frames (n = 5-8, plain and perturbed, at small
    rational base points, zero included), catalog frames at the origin,
    and catalog or filiform frames at nonzero base points."""
    at_origin = st.sampled_from(CATALOG_FRAME_NAMES).map(lambda name: catalog(name).frame)
    return st.one_of(filiform_frames(FILIFORM_SIZES), at_origin,
                     nonzero_base_frames(FILIFORM_SIZES))


def _at_base(frame, f):
    """f minus its value at the base point, so the order enumeration runs."""
    return f - f.evaluate(frame.base_point)


@given(frames())
def test_psi_matches_unclipped_chains(frame):
    _, adapted = linearize(frame)
    assert psi_map(adapted) == oracles.unclipped_psi(adapted)


@settings(max_examples=12)
@given(frames())
def test_epsilon_matches_unclipped_pipeline(frame):
    eps = epsilon(frame)
    matrix, poly, carnot = oracles.unclipped_epsilon(frame)
    assert eps.change.matrix == matrix
    assert eps.change.offset == frame.base_point
    assert eps.change.poly == poly
    assert [x.coefficients for x in eps.carnot_frame.fields] == carnot


def low_degree_polys(n):
    """Up to three monomials, each a product of at most three variables."""
    monomial = st.tuples(fractions(6, 4), st.lists(st.integers(0, n - 1), max_size=3))
    return st.lists(monomial, max_size=3).map(lambda terms: sum(
        (RationalPoly.monomial(n, [v.count(j) for j in range(n)], c) for c, v in terms),
        RationalPoly.zero(n)))


@given(frames(), st.data())
def test_function_order_matches_unclipped_enumeration(frame, data):
    """At the origin (epsilon's pushed frame and the affinely adapted one,
    where chains are clipped) and at the frame's own base point (nonzero
    for most draws, where nothing is clipped)."""
    n, r = frame.n, frame.weights.r
    pushed = transform_frame(frame, epsilon(frame).change)
    for fr in (pushed, linearize(frame)[1], frame):
        for k in range(n):
            f = _at_base(fr, RationalPoly.variable(n, k))
            bound = fr.weights[k] + 1
            assert (function_order(f, fr, bound)
                    == oracles.unclipped_function_order(f, fr, bound))
        f = _at_base(fr, data.draw(low_degree_polys(n)))
        bound = data.draw(st.integers(min_value=1, max_value=min(r + 1, 5)))
        assert function_order(f, fr, bound) == oracles.unclipped_function_order(f, fr, bound)


@given(st.one_of(st.sampled_from(CATALOG_FRAME_NAMES).map(lambda name: catalog(name).frame),
                 catalog_base_frames().filter(lambda fr: fr is not None)), st.data())
def test_function_order_matches_enumeration_above_the_step(frame, data):
    """Catalog frames at the origin and at base points, and each one's
    affinely adapted frame, with bounds r + 1 to r + 3: orders above the
    step occur there (x3^2 on heisenberg_3 has order 4)."""
    r = frame.weights.r
    for fr in (frame, linearize(frame)[1]):
        f = _at_base(fr, data.draw(low_degree_polys(fr.n).filter(bool)))
        bound = data.draw(st.integers(min_value=r + 1, max_value=r + 3))
        assert function_order(f, fr, bound) == oracles.unclipped_function_order(f, fr, bound)


def test_function_order_reads_every_term_off_the_origin():
    """At a = (1, 0, 0), X_1(x_1^3 - 1) = 3 x_1^2 is 3 at a through its
    degree-2 term alone, so no term may be clipped there."""
    heisenberg = catalog("heisenberg_3").frame
    frame = Frame(heisenberg.fields, heisenberg.weights, (1, 0, 0))
    f = RationalPoly.variable(3, 0) ** 3 - 1
    assert function_order(f, frame, 2) == oracles.unclipped_function_order(f, frame, 2) == 1


@settings(max_examples=10)
@given(frames(), st.randoms(use_true_random=False))
def test_pushes_match_per_field_pushforward(frame, rng):
    """transform_frame's two stages, through epsilon and, up to n = 5 (a
    truncated push at n = 8 costs seconds), through truncated variants of
    it, field by field."""
    ws = frame.weights.weights
    eps = epsilon(frame).change
    changes = [eps]
    if frame.n <= 5:
        changes += (generate_carnot_variants(eps, 1, rng)
                    + generate_privileged_variants(eps, 1, rng))
    for change in changes:
        bound = None if change.is_exactly_invertible else frame.weights.r + 2
        inverse = invert_weight_triangular(change.poly, ws, bound)
        forward_a, inverse_a = change.affine_polymap(), change.affine_inverse_polymap()
        want = [oracles.per_field_pushforward(
                    PolyVectorField(oracles.per_field_pushforward(x, forward_a, inverse_a)),
                    change.poly, inverse, ws, bound) for x in frame.fields]
        pushed = transform_frame(frame, change)
        assert [x.coefficients for x in pushed.fields] == want


@given(frames())
def test_pushforward_is_the_one_field_push(frame):
    change, _ = linearize(frame)
    forward, inverse = change.affine_polymap(), change.affine_inverse_polymap()
    for x in frame.fields:
        assert (pushforward(x, forward, inverse).coefficients
                == oracles.per_field_pushforward(x, forward, inverse))


@given(st.integers(min_value=2, max_value=5), st.data())
def test_clipped_apply_keeps_every_term_up_to_the_bound(n, data):
    field = PolyVectorField([data.draw(small_polys(n, max_terms=3, max_exp=2))
                             for _ in range(n)])
    f = data.draw(small_polys(n, max_terms=4, max_exp=3))
    bound = data.draw(st.integers(min_value=-1, max_value=6))
    whole = oracles.derivation(field, f)
    assert field.apply(f) == whole
    assert field.apply(f, bound).terms == {e: c for e, c in whole.terms.items()
                                          if sum(e) <= bound}


def test_apply_rejects_a_polynomial_in_other_variables():
    field = PolyVectorField.coordinate(2, 0)
    with pytest.raises(ValueError, match="variable count"):
        field.apply(RationalPoly.variable(3, 0))


@st.composite
def rational_matrices(draw):
    """Square matrices with many zeros and ones; a dependent row is planted
    in about a third of them, so singular ones come up often."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), fractions(5, 4))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.integers(min_value=0, max_value=2)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(fractions(3, 3))
        rows[i] = [c * v for v in rows[j]]
    return rows


@settings(max_examples=200)
@given(rational_matrices())
def test_mat_inv_matches_dense_gauss_jordan(rows):
    try:
        want = oracles.dense_mat_inv(rows)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            mat_inv(rows)
        return
    got = mat_inv(rows)
    assert got == want
    assert all(isinstance(v, Fraction) for row in got for v in row)
