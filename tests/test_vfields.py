from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from carnotkit.graded import WeightVector, dilate
from carnotkit.groups import catalog, left_invariant_fields
from carnotkit.poly import PolyMap, RationalPoly
from carnotkit.vfields import (
    Frame, PolyVectorField, bracket, expand, field_weight,
    function_order, model_field, pushforward, rescale,
)

from conftest import fractions, points, small_polys


def _field(coeff_lists):
    return PolyVectorField([c if isinstance(c, RationalPoly) else c
                            for c in coeff_lists])


def small_fields(n):
    return st.lists(small_polys(n, max_terms=3, max_exp=2),
                    min_size=n, max_size=n).map(PolyVectorField)


# ---------------------------------------------------------------------------
# Brackets.
# ---------------------------------------------------------------------------

@given(small_fields(2), small_fields(2))
def test_bracket_antisymmetry(x, y):
    xy = bracket(x, y)
    yx = bracket(y, x)
    assert all((a + b).is_zero for a, b in zip(xy.coefficients, yx.coefficients))


@given(small_fields(2), small_fields(2), small_fields(2))
def test_bracket_jacobi(x, y, z):
    total = [RationalPoly.zero(2) for _ in range(2)]
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        term = bracket(a, bracket(b, c))
        total = [t + u for t, u in zip(total, term.coefficients)]
    assert all(t.is_zero for t in total)


@given(small_fields(2), small_fields(2), small_polys(2, max_terms=3, max_exp=2))
def test_bracket_is_a_derivation_commutator(x, y, f):
    lhs = bracket(x, y).apply(f)
    rhs = x.apply(y.apply(f)) - y.apply(x.apply(f))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Rescaling and homogeneous parts.
# ---------------------------------------------------------------------------

def test_expand_reassembles_field(h3_frame):
    ws = h3_frame.weights
    for field in h3_frame.fields:
        parts = expand(field, ws)
        total = [RationalPoly.zero(field.n) for _ in range(field.n)]
        for part in parts.values():
            total = [t + c for t, c in zip(total, part.coefficients)]
        assert total == field.coefficients


def test_rescale_scales_each_part_by_its_degree():
    fr = catalog("perturbed_heisenberg_3").frame
    ws = fr.weights
    t = Fraction(3, 2)
    for field in fr.fields:
        scaled = rescale(field, t, ws)
        parts = expand(field, ws)
        expected = [RationalPoly.zero(3) for _ in range(3)]
        for deg, part in parts.items():
            for k in range(3):
                expected[k] = expected[k] + part.coefficients[k] * t ** deg
        assert scaled.coefficients == expected


def test_field_weight_examples(h3_frame):
    ws = h3_frame.weights
    assert field_weight(h3_frame.fields[0], ws) == -1
    assert field_weight(PolyVectorField.zero(3), ws) is None
    pert = catalog("perturbed_heisenberg_3").frame
    parts = expand(pert.fields[0], pert.weights)
    assert sorted(parts) == [-1, 0]


# ---------------------------------------------------------------------------
# Model fields.
# ---------------------------------------------------------------------------

def test_model_field_drops_higher_parts():
    fr = catalog("perturbed_heisenberg_3").frame
    ws = fr.weights
    got = model_field(fr.fields[0], 0, ws)
    x2 = RationalPoly.variable(3, 1)
    assert got.coefficients == [RationalPoly.const(3, 1), RationalPoly.zero(3),
                                x2 * Fraction(-1, 2)]


def test_model_field_is_identity_on_homogeneous_frames(group_entry):
    fr = group_entry.frame
    ws = fr.weights
    for j, field in enumerate(fr.fields):
        assert model_field(field, j, ws).coefficients == field.coefficients


def test_model_field_rejects_non_adapted():
    ws = WeightVector((1, 1, 2))
    one = RationalPoly.const(3, 1)
    zero = RationalPoly.zero(3)
    tilted = PolyVectorField([one, one, zero])  # X(0) = e_1 + e_2
    with pytest.raises(ValueError):
        model_field(tilted, 0, ws)


def test_model_field_rejects_parts_below_minus_wj():
    ws = WeightVector((1, 1, 2, 3))
    one = RationalPoly.const(4, 1)
    zero = RationalPoly.zero(4)
    x1 = RationalPoly.variable(4, 0)
    # adapted at 0, but x_1 d/dx_4 sits at homogeneous degree 1 - 3 = -2
    low = PolyVectorField([one, zero, zero, x1])
    with pytest.raises(ValueError):
        model_field(low, 0, ws)


# ---------------------------------------------------------------------------
# Frames.
# ---------------------------------------------------------------------------

def test_frame_rejects_singular_coefficient_matrix():
    x1 = RationalPoly.variable(2, 0)
    zero = RationalPoly.zero(2)
    one = RationalPoly.const(2, 1)
    with pytest.raises(ValueError):
        Frame([PolyVectorField([one, zero]), PolyVectorField([one, zero])],
              WeightVector((1, 1)), (Fraction(0), Fraction(0)))


def test_frame_rejects_filtration_violation():
    # [X_1, X_2] = d/dx_1 has weight-1 output; weights (1, 2) forbid nothing
    # at k=1, so instead violate at base: [X_1, X_2] must lie in the span
    # allowed by w_k <= w_i + w_j; make it hit a weight-4 direction.
    n = 3
    ws = WeightVector((1, 1, 3))
    x2 = RationalPoly.variable(n, 1)
    one = RationalPoly.const(n, 1)
    zero = RationalPoly.zero(n)
    # [X_1, X_2](0) = d/dx_3 (weight 3 > 1 + 1): not filtration-compatible
    fields = [PolyVectorField([one, zero, x2 * 0]),
              PolyVectorField([zero, one, RationalPoly.variable(n, 0)]),
              PolyVectorField([zero, zero, one])]
    with pytest.raises(ValueError):
        Frame(fields, ws, (Fraction(0),) * n)


def test_bracket_table_matches_constants(group_entry, rng):
    sc = group_entry.constants
    fr = group_entry.frame
    for _ in range(3):
        pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(sc.n))
        table = fr.bracket_table(pt)
        assert table == sc.table


# ---------------------------------------------------------------------------
# Pushforward.
# ---------------------------------------------------------------------------

def test_pushforward_identity_is_noop(h3_frame):
    ident = PolyMap.identity(3)
    for field in h3_frame.fields:
        pushed = pushforward(field, ident, ident)
        assert pushed.coefficients == field.coefficients


def test_pushforward_respects_composition(h3_frame):
    x1, x2, x3 = (RationalPoly.variable(3, k) for k in range(3))
    m = PolyMap([x1, x2, x3 + x1 * x2])
    m_inv = PolyMap([x1, x2, x3 - x1 * x2])
    field = h3_frame.fields[0]
    once = pushforward(field, m, m_inv)
    back = pushforward(once, m_inv, m)
    assert back.coefficients == field.coefficients


def test_capped_pushforward_matches_truncated_exact(h3_frame):
    from carnotkit.poly import take_weight_le
    x1, x2, x3 = (RationalPoly.variable(3, k) for k in range(3))
    m = PolyMap([x1, x2, x3 + x1 * x2])
    m_inv = PolyMap([x1, x2, x3 - x1 * x2])
    ws = (1, 1, 2)
    for field in h3_frame.fields:
        exact = pushforward(field, m, m_inv)
        capped = pushforward(field, m, m_inv, ws, 3)
        assert capped.coefficients == [take_weight_le(c, ws, 3)
                                       for c in exact.coefficients]


# ---------------------------------------------------------------------------
# Function order.
# ---------------------------------------------------------------------------

def test_function_order_of_coordinates(group_entry):
    fr = group_entry.frame
    ws = fr.weights.weights
    n = fr.weights.n
    for k in range(n):
        xk = RationalPoly.variable(n, k)
        assert function_order(xk, fr) == ws[k]


def test_function_order_constants_and_cutoff(h3_frame):
    one = RationalPoly.const(3, 1)
    assert function_order(one, h3_frame) == 0
    zero = RationalPoly.zero(3)
    # the zero function vanishes to every order probed
    assert function_order(zero, h3_frame) is None
    x3 = RationalPoly.variable(3, 2)
    assert function_order(x3 * x3, h3_frame, n_max=4) is None
    assert function_order(x3 * x3, h3_frame, n_max=5) == 4
