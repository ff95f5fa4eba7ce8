from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from carnotkit.graded import WeightVector
from carnotkit.poly import (
    PolyMap, RationalPoly, check_unit_triangular, invert_perturbed_triangular,
    invert_triangular, invert_weight_triangular, monomial_str, weight_shape,
)

from conftest import fractions, points, small_polys, step3_unipotent_maps
from oracles import determinant, sweep_truncated_inverse, take_weight_le, truncate_weight


# ---------------------------------------------------------------------------
# Ring laws and evaluation.
# ---------------------------------------------------------------------------

@given(small_polys(2), small_polys(2), small_polys(2))
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_polys(2), small_polys(2), points(2))
def test_evaluate_is_a_homomorphism(p, q, x):
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


@given(small_polys(2), points(2))
def test_substitute_constants_matches_evaluate(p, x):
    consts = [RationalPoly.const(2, v) for v in x]
    assert p.substitute(consts) == RationalPoly.const(2, p.evaluate(x))


def test_partial_product_rule():
    x = RationalPoly.variable(2, 0)
    y = RationalPoly.variable(2, 1)
    p = x * x * y + y * Fraction(3, 2)
    q = x * y - RationalPoly.const(2, 1)
    lhs = (p * q).partial(0)
    rhs = p.partial(0) * q + p * q.partial(0)
    assert lhs == rhs


def test_power_matches_repeated_multiplication():
    x = RationalPoly.variable(1, 0) + RationalPoly.const(1, 1)
    assert x ** 3 == x * x * x
    assert x ** 0 == RationalPoly.const(1, 1)
    with pytest.raises(ValueError):
        x ** -1


# ---------------------------------------------------------------------------
# Capped substitution: identical to exact-then-truncate.
# ---------------------------------------------------------------------------

@given(small_polys(2, max_terms=3, max_exp=2),
       small_polys(2, max_terms=3, max_exp=2),
       small_polys(2, max_terms=3, max_exp=2),
       st.integers(min_value=-1, max_value=6))
@example(host=RationalPoly(2, {(2, 0): 1, (0, 0): 3}),
         g1=RationalPoly(2, {(1, 0): 1, (0, 0): 1}), g2=RationalPoly.variable(2, 0),
         bound=-1)  # below every weight, the constant term's included: 0
def test_capped_substitute_equals_truncated_exact(host, g1, g2, bound):
    ws = (1, 2)
    exact = host.substitute([g1, g2])
    capped = host.substitute([g1, g2], ws, bound)
    assert capped == take_weight_le(exact, ws, bound)


def test_capped_compose_equals_truncated_exact_compose():
    ws = (1, 1, 2)
    x1, x2, x3 = (RationalPoly.variable(3, k) for k in range(3))
    outer = PolyMap([x1 + x3 * x3, x2, x3 + x1 * x2])
    inner = PolyMap([x1 + x2 * x2, x2 + x3, x3 + x1 * x1 * x1])
    exact = outer.compose(inner)
    for bound in (0, 2, 4, 7):
        capped = outer.compose(inner, ws, bound)
        assert capped.components == truncate_weight(exact, ws, bound).components


def test_a_weight_bound_without_weights_is_bad_input():
    ident = PolyMap.identity(2)
    with pytest.raises(ValueError, match="bound needs weights"):
        ident.compose(ident, None, 3)
    with pytest.raises(ValueError, match="bound needs weights"):
        RationalPoly.variable(2, 0).substitute(ident.components, None, 3)


@given(small_polys(3, max_terms=4, max_exp=3), st.integers(min_value=0, max_value=2))
def test_partial_matches_the_power_rule(p, j):
    want = RationalPoly(3, [(e[:j] + (e[j] - 1,) + e[j + 1:], c * e[j])
                            for e, c in p.terms.items() if e[j]])
    got = p.partial(j)
    assert got == want and all(got.terms.values())


# ---------------------------------------------------------------------------
# Printing.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("exp,coef,text", [
    ((1, 1, 0), Fraction(1, 2), "x1*x2/2"),
    ((0, 0, 1), Fraction(-1), "-x3"),
    ((2, 0, 0), Fraction(3), "3*x1^2"),
    ((0, 0, 0), Fraction(5, 7), "5/7"),
])
def test_monomial_str(exp, coef, text):
    assert monomial_str(exp, coef) == text


# ---------------------------------------------------------------------------
# Triangular maps and inverses.
# ---------------------------------------------------------------------------

def _triangular_example():
    ws = WeightVector((1, 1, 2))
    x1, x2, x3 = (RationalPoly.variable(3, k) for k in range(3))
    return PolyMap([x1, x2, x3 + x1 * x2 * Fraction(1, 2)]), ws


def test_triangular_shape_enforced():
    ws = WeightVector((1, 1, 2))
    x1, x2, x3 = (RationalPoly.variable(3, k) for k in range(3))
    m, _ = _triangular_example()
    assert check_unit_triangular(m, ws) is m
    with pytest.raises(ValueError, match="not unipotent"):
        # linear off-diagonal term is not a triangular correction
        check_unit_triangular(PolyMap([x1 + x2, x2, x3]), ws)
    with pytest.raises(ValueError, match="not unit-triangular"):
        # weighted degree above w_k
        check_unit_triangular(PolyMap([x1, x2, x3 + x1 ** 3]), ws)


def test_invert_triangular_round_trip():
    m, ws = _triangular_example()
    inv = invert_triangular(m, ws)
    assert m.compose(inv) == PolyMap.identity(3)
    assert inv.compose(m) == PolyMap.identity(3)
    x1, x2, x3 = (RationalPoly.variable(3, k) for k in range(3))
    with pytest.raises(ValueError, match="not unit-triangular"):
        # exactly invertible, but x3 - x1 has no unit-triangular inverse
        invert_triangular(PolyMap([x1, x2, x3 + x1]), ws)


def test_invert_weight_triangular_allows_lower_weight_tails():
    ws = WeightVector((1, 1, 2))
    x1, x2, x3 = (RationalPoly.variable(3, k) for k in range(3))
    # component 3 may use any polynomial in the weight-1 variables
    m = PolyMap([x1, x2, x3 + x1 * x1 - x2 * Fraction(1, 3) * x1])
    inv = invert_weight_triangular(m, ws)
    assert m.compose(inv) == PolyMap.identity(3)


def test_invert_perturbed_triangular_certificate():
    ws = WeightVector((1, 1, 2))
    x1, x2, x3 = (RationalPoly.variable(3, k) for k in range(3))
    # raising tail: x3 (weight 2) enters component 1 (weight 1)
    m = PolyMap([x1 + x3 * x1, x2, x3 + x1 * x2])
    bound = 6
    g = invert_perturbed_triangular(m, ws, bound)
    resid = m.compose(g, ws.weights, bound) - truncate_weight(
        PolyMap.identity(3), ws.weights, bound)
    assert all(c.is_zero for c in resid.components)


def test_invert_perturbed_triangular_rejects_bad_leading_part():
    ws = WeightVector((1, 1))
    x1, x2 = (RationalPoly.variable(2, k) for k in range(2))
    # leading part maps both components to x1: not unit-triangular
    m = PolyMap([x1, x1])
    with pytest.raises(ValueError):
        invert_perturbed_triangular(m, ws, 4)


@given(step3_unipotent_maps(raising=True), st.integers(0, 2))
def test_kernel_inverts_modulo_the_bound(mws, extra):
    m, ws = mws
    bound = max(ws) + extra
    g = invert_weight_triangular(m, ws, bound)
    assert m.compose(g, ws, bound) == PolyMap.identity(len(ws))
    # the layered solve and the clipped exact sweep give what the
    # fixed-point sweeps give
    want = sweep_truncated_inverse(m, ws, bound)
    assert want is not None
    assert g == want
    assert invert_perturbed_triangular(m, ws, bound) == g


@given(step3_unipotent_maps(raising=True, lowering=True), st.integers(0, 2))
def test_layered_inverse_takes_any_invertible_linear_part(mws, extra):
    m, ws = mws
    bound = max(ws) + extra
    if determinant(m.linear_matrix()) == 0:
        with pytest.raises(ValueError, match="singular"):
            invert_weight_triangular(m, ws, bound)
    else:
        g = invert_weight_triangular(m, ws, bound)
        assert m.compose(g, ws, bound) == PolyMap.identity(len(ws))


def test_layered_inverse_mixes_lower_weight_and_raising_linear_terms():
    x1, x2, x3 = (RationalPoly.variable(3, k) for k in range(3))
    m = PolyMap([x1 + x3, x2, x3 + 2 * x1])
    for bound in (2, 4):
        # sweeps g1 <- y1 - g3, g3 <- y3 - 2 g1 double their error each time
        assert sweep_truncated_inverse(m, (1, 1, 2), bound) is None
        assert (invert_weight_triangular(m, (1, 1, 2), bound)
                == PolyMap([x3 - x1, x2, 2 * x1 - x3]))


def test_layered_inverse_rejects_a_singular_linear_part():
    x1, x2, x3 = (RationalPoly.variable(3, k) for k in range(3))
    with pytest.raises(ValueError, match="singular"):
        invert_weight_triangular(PolyMap([x1 + x3, x2, x3 + x1]), (1, 1, 2), 4)


@given(step3_unipotent_maps(raising=False), st.integers(0, 2))
def test_kernel_exact_inverse_and_its_truncation(mws, extra):
    m, ws = mws
    ident = PolyMap.identity(len(ws))
    g = invert_weight_triangular(m, ws)
    assert m.compose(g) == ident
    assert g.compose(m) == ident
    bound = max(ws) + extra
    assert invert_weight_triangular(m, ws, bound) == truncate_weight(g, ws, bound)
    assert invert_perturbed_triangular(m, ws, bound) == truncate_weight(g, ws, bound)


@given(step3_unipotent_maps(raising=True))
def test_the_bound_below_the_largest_weight_is_refused_on_every_map(mws):
    m, ws = mws  # both rank classes: a raising term is drawn or not
    for f in (invert_weight_triangular, invert_perturbed_triangular):
        with pytest.raises(ValueError, match="at least the largest weight"):
            f(m, ws, max(ws) - 1)


def test_the_bound_is_refused_on_an_exact_map_too():
    m, ws = _triangular_example()
    with pytest.raises(ValueError, match="at least the largest weight"):
        invert_weight_triangular(m, ws, 1)


@given(step3_unipotent_maps(raising=True), st.data())
def test_kernel_rejects_level_linear_terms_and_truncated_constants(mws, data):
    m, ws = mws
    n = len(ws)
    k = data.draw(st.integers(0, n - 1))
    j = data.draw(st.sampled_from([j for j in range(n) if ws[j] == ws[k]]))
    level = list(m.components)
    level[k] = level[k] + RationalPoly.variable(n, j) * Fraction(1, 2)
    with pytest.raises(ValueError):
        invert_weight_triangular(PolyMap(level), ws, max(ws))
    # a weight-raising term makes the map truncated; a constant is then refused
    top = max(range(n), key=lambda i: ws[i])
    low = min(range(n), key=lambda i: ws[i])
    shifted = list(m.components)
    shifted[low] = shifted[low] + RationalPoly.variable(n, top) ** 3
    shifted[k] = shifted[k] + RationalPoly.const(n, 1)
    with pytest.raises(ValueError, match="constant"):
        invert_weight_triangular(PolyMap(shifted), ws, max(ws))


def test_polymap_compose_associative():
    x1, x2 = (RationalPoly.variable(2, k) for k in range(2))
    f = PolyMap([x1 + x2 * x2, x2])
    g = PolyMap([x1 * x2, x1 + x2])
    h = PolyMap([x2, x1 - x2])
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_polymap_jacobian_and_linear_part():
    x1, x2 = (RationalPoly.variable(2, k) for k in range(2))
    f = PolyMap([x1 + 2 * x2 + x1 * x2, x2 - x1 * x1])
    assert f.linear_matrix() == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.tuples(small_polys(n), points(n + 1)), min_size=1, max_size=4)))
def test_linear_matrix_is_jacobian_at_origin(rows):
    # each component: a random polynomial plus a random linear form and constant
    n = rows[0][0].n
    comps = [p + coefs[n] + sum((RationalPoly.variable(n, j) * c
                                 for j, c in enumerate(coefs[:n])), RationalPoly.zero(n))
             for p, coefs in rows]
    m = PolyMap(comps)
    lin = m.linear_matrix()
    origin = (Fraction(0),) * n
    assert lin == [[c.partial(j).evaluate(origin) for j in range(n)] for c in comps]
    assert all(isinstance(c, Fraction) for row in lin for c in row)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.tuples(small_polys(n), fractions()), min_size=1, max_size=4)))
def test_constant_part_is_value_at_origin(rows):
    m = PolyMap([p + c for p, c in rows])
    assert m.constant_part() == m.evaluate((Fraction(0),) * m.n_in)
