from fractions import Fraction
import random as random_mod

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from carnotkit.graded import WeightVector
from carnotkit.groups import (catalog, model_structure_constants,
                              structure_constants_at)
from carnotkit.poly import (
    PolyMap, RationalPoly, check_unit_triangular, invert_triangular,
)
from carnotkit.vfields import Frame, PolyVectorField, function_order, pushforward
from carnotkit.verify import (generate_adversarial_variants, generate_carnot_variants,
                              generate_privileged_variants,
                              random_homogeneous_triangular)
from carnotkit import coords
from carnotkit.coords import (
    MAX_FIT_ENTRIES, MAX_RK4_STEPS, ChartSampler, CoordinateChange, NumericChart,
    canonical_first_kind, canonical_second_kind, combined_field,
    convert_nilpotent_approx, epsilon, exact_flow, exp_map, linearize,
    log_map, numeric_flow, psi_map, transform_frame,
)

import oracles
from conftest import (filiform_constants, filiform_frames, nonzero_base_frames,
                      points, step2_adapted_frames)


def _vars(n):
    return [RationalPoly.variable(n, k) for k in range(n)]


# ---------------------------------------------------------------------------
# CoordinateChange construction and validation.
# ---------------------------------------------------------------------------

def test_change_rejects_constant_part():
    x1, x2 = _vars(2)
    poly = PolyMap([x1 + RationalPoly.const(2, 1), x2])
    with pytest.raises(ValueError, match="fix the origin"):
        CoordinateChange([[1, 0], [0, 1]], (0, 0), (1, 2), poly)


def test_change_rejects_non_unit_diagonal():
    x1, x2 = _vars(2)
    poly = PolyMap([2 * x1, x2])
    with pytest.raises(ValueError, match="unit diagonal"):
        CoordinateChange([[1, 0], [0, 1]], (0, 0), (1, 2), poly)


def test_change_rejects_non_raising_linear_term():
    x1, x2 = _vars(2)
    # x1 in component 2 has weight 1 <= 2: lowering, not allowed.
    poly = PolyMap([x1, x2 + x1])
    with pytest.raises(ValueError, match="not weight-raising"):
        CoordinateChange([[1, 0], [0, 1]], (0, 0), (1, 2), poly)


def test_change_accepts_raising_linear_term():
    x1, x2 = _vars(2)
    change = CoordinateChange([[1, 0], [0, 1]], (0, 0), (1, 2),
                              PolyMap([x1 + x2, x2]))
    assert not change.is_exactly_invertible
    with pytest.raises(ValueError, match="max_weight"):
        change.inverse_polymap()
    with pytest.raises(ValueError, match="no exact inverse has no pointwise inverse"):
        change.inverse_apply((1, 2))
    # The truncated inverse still undoes the change up to the cap.
    inv = change.inverse_polymap(max_weight=4)
    comp = change.forward_polymap().compose(inv)
    assert comp == PolyMap.identity(2)  # exact here: the tail terminates


def test_change_rejects_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        CoordinateChange([[1, 2], [2, 4]], (0, 0), (1, 1))


def test_change_apply_matches_forward_polymap():
    x1, x2, x3 = _vars(3)
    poly = PolyMap([x1, x2, x3 + x1 * x2])
    change = CoordinateChange([[2, 0, 0], [1, 1, 0], [0, 0, 1]],
                              (1, 2, 3), (1, 1, 2), poly)
    for pt in [(0, 0, 0), (1, 1, 1), (Fraction(1, 2), -2, Fraction(3, 5))]:
        pt = tuple(Fraction(v) for v in pt)
        assert change.apply(pt) == change.forward_polymap().evaluate(pt)


@pytest.mark.parametrize("point", [(1, 2), (1, 2, 3, 4, 5)])
def test_change_apply_rejects_a_point_of_the_wrong_dimension(h3_frame, point):
    change = epsilon(h3_frame.at_base((1, 2, 3))).change
    with pytest.raises(ValueError, match="wrong dimension"):
        change.apply(point)
    with pytest.raises(ValueError, match="wrong dimension"):
        change.inverse_apply(point)


@given(points(3))
def test_change_round_trip(pt):
    x1, x2, x3 = _vars(3)
    poly = PolyMap([x1, x2, x3 - 3 * x1 * x2 + x1 ** 2])
    change = CoordinateChange([[1, 2, 0], [0, 1, 0], [5, 0, 1]],
                              (1, -1, Fraction(1, 2)), (1, 1, 2), poly)
    assert change.is_exactly_invertible
    assert change.inverse_apply(change.apply(pt)) == pt
    inv = change.inverse_polymap()
    assert inv.evaluate(change.apply(pt)) == pt


def test_compose_tail_applies_outer_last():
    x1, x2, x3 = _vars(3)
    change = CoordinateChange([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                              (1, 0, 0), (1, 1, 2),
                              PolyMap([x1, x2, x3 + x1 * x2]))
    outer = PolyMap([x1, x2, x3 - x1 ** 2])
    combined = change.compose_tail(outer)
    for pt in [(1, 2, 3), (0, 0, 0), (2, -1, Fraction(1, 3))]:
        pt = tuple(Fraction(v) for v in pt)
        assert combined.apply(pt) == tuple(outer.evaluate(change.apply(pt)))


# ---------------------------------------------------------------------------
# Affine adaptation.
# ---------------------------------------------------------------------------

def test_linearize_adapts_at_base(frame_entry):
    frame = frame_entry.frame.at_base((1, -1) + (0,) * (frame_entry.constants.weights.n - 2))
    change, pushed = linearize(frame)
    n = frame.weights.n
    origin = (Fraction(0),) * n
    assert pushed.base_point == origin
    for j, field in enumerate(pushed.fields):
        unit = tuple(Fraction(1 if k == j else 0) for k in range(n))
        assert field.evaluate(origin) == unit


def test_transform_frame_moves_base():
    frame = catalog("heisenberg_3").frame.at_base((1, 2, 3))
    change, pushed = linearize(frame)
    again = transform_frame(frame, change)
    assert again.base_point == pushed.base_point == (0, 0, 0)
    assert [f for f in again.fields] == [f for f in pushed.fields]


# ---------------------------------------------------------------------------
# transform_frame's two-stage push against the one-stage push.
# ---------------------------------------------------------------------------

def _assert_one_stage_push(frame, change, max_weight=None):
    pushed = transform_frame(frame, change)
    assert ([list(x.coefficients) for x in pushed.fields]
            == oracles.one_stage_push(frame, change, max_weight))
    assert pushed.base_point == change.apply(frame.base_point)


@settings(max_examples=15)
@given(frame=nonzero_base_frames(), rng=st.randoms(use_true_random=False))
def test_transform_frame_matches_one_stage_push_on_exact_changes(frame, rng):
    eps = epsilon(frame).change
    ws = frame.weights
    shifted = CoordinateChange(eps.matrix, [v + 1 for v in eps.offset], ws, eps.poly)
    tail = random_homogeneous_triangular(ws, rng)
    for change in (linearize(frame)[0], eps, eps.compose_tail(tail), shifted):
        assert change.is_exactly_invertible
        _assert_one_stage_push(frame, change)


@settings(max_examples=6)  # filiform n = 6 costs seconds per one-stage push
@given(frame=nonzero_base_frames(filiform_sizes=(5,)),
       rng=st.randoms(use_true_random=False))
def test_transform_frame_matches_one_stage_push_on_truncated_variants(frame, rng):
    eps = epsilon(frame).change
    variants = (generate_carnot_variants(eps, 1, rng)
                + generate_privileged_variants(eps, 1, rng))
    if frame.weights.r > 1:
        variants += generate_adversarial_variants(eps, 1, rng)
    for change in variants:
        _assert_one_stage_push(frame, change, frame.weights.r + 2)


# ---------------------------------------------------------------------------
# The psi correction.
# ---------------------------------------------------------------------------

def test_psi_requires_origin_base():
    frame = catalog("heisenberg_3").frame.at_base((1, 0, 0))
    with pytest.raises(ValueError, match="origin"):
        psi_map(frame)


def test_psi_requires_adapted_fields():
    one = RationalPoly.const(2, 1)
    zero = RationalPoly.zero(2)
    fields = [PolyVectorField([one, one]), PolyVectorField([zero, one])]
    frame = Frame(fields, WeightVector((1, 2)), (Fraction(0),) * 2, check=False)
    with pytest.raises(ValueError, match="linearly adapted"):
        psi_map(frame)


@given(step2_adapted_frames())
def test_psi_is_identity_in_step_two(frame):
    psi = psi_map(frame)
    assert psi == PolyMap.identity(frame.weights.n)


def test_psi_on_weight_breaking_step3_frame():
    frame = catalog("perturbed_engel_4").frame
    _, adapted = linearize(frame)
    psi = psi_map(adapted)
    assert psi == oracles.perturbed_engel_psi()


def test_psi_output_is_triangular():
    frame = catalog("perturbed_engel_4").frame
    _, adapted = linearize(frame)
    psi = psi_map(adapted)
    assert check_unit_triangular(psi, frame.weights) is psi


@given(filiform_frames())
def test_psi_matches_pairwise_formula_beyond_step_three(frame):
    """Steps 4 and 5: psi equals the pairwise formula, and after
    linearize + psi coordinate x_k has derivation order w_k."""
    affine, adapted = linearize(frame)
    psi = psi_map(adapted)
    assert psi == oracles.pairwise_psi(adapted)
    change = CoordinateChange(affine.matrix, affine.offset, frame.weights, psi)
    pushed = transform_frame(frame, change)
    ws = frame.weights.weights
    for k in range(frame.n):
        x_k = RationalPoly.variable(frame.n, k)
        assert function_order(x_k, pushed, n_max=ws[k] + 1) == ws[k]


# ---------------------------------------------------------------------------
# Tangent constants of model bases.
# ---------------------------------------------------------------------------

def _assert_model_constants_agree(frame):
    eps = epsilon(frame)
    constants = model_structure_constants(eps.model_fields, frame.weights)
    assert eps.constants == constants
    affine, adapted = linearize(frame)
    psi = CoordinateChange(affine.matrix, affine.offset, frame.weights, psi_map(adapted))
    assert structure_constants_at(transform_frame(frame, psi))[0] == constants
    assert structure_constants_at(frame)[0] == constants
    return constants


def test_model_constants_match_frame_constants(frame_entry):
    frame = frame_entry.frame
    other = (Fraction(1, 2), Fraction(-1, 3), 2, 1, -1)[:frame.n]
    for base in ((0,) * frame.n, other):
        constants = _assert_model_constants_agree(frame.at_base(base))
        assert constants == frame_entry.constants


@given(filiform_frames())
def test_model_constants_match_frame_constants_beyond_step_three(frame):
    assert _assert_model_constants_agree(frame) == filiform_constants(frame.n)


# ---------------------------------------------------------------------------
# Exact flows.
# ---------------------------------------------------------------------------

def test_exact_flow_identity_certificate(frame_entry):
    frame = frame_entry.frame
    flow = exact_flow(frame.fields, frame.weights)
    assert oracles.flow_certificate_failures(frame.fields, frame.weights,
                                             flow) == []


def test_flow_endpoint_is_group_product(group_entry, rng):
    """For left-invariant fields the time-one flow from y along the
    constant combination xi is the right translation y . xi."""
    frame = group_entry.frame
    n = frame.weights.n
    flow = exact_flow(frame.fields, frame.weights)
    for _ in range(5):
        y = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(n))
        xi = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(n))
        assert flow.evaluate(y + xi + (1,)) == tuple(
            oracles.bch_product(group_entry.constants, n, y, xi))


def test_exact_flow_rejects_non_triangular_system():
    one = RationalPoly.const(2, 1)
    zero = RationalPoly.zero(2)
    x1 = RationalPoly.variable(2, 0)
    # d2 coefficient involves x1 of weight 1 >= w_2 = 1: not integrable in
    # weight order.
    fields = [PolyVectorField([one, x1]), PolyVectorField([zero, one])]
    with pytest.raises(ValueError, match="not triangular"):
        exact_flow(fields, (1, 1))


# ---------------------------------------------------------------------------
# Exponential and logarithm of a model basis.
# ---------------------------------------------------------------------------

def test_exp_log_round_trip(group_entry):
    frame = group_entry.frame
    exp = exp_map(frame.fields, frame.weights)
    log = log_map(exp, frame.weights)
    n = frame.weights.n
    assert exp.compose(log) == PolyMap.identity(n)
    assert log.compose(exp) == PolyMap.identity(n)


def test_exp_map_rejects_inhomogeneous_fields():
    frame = catalog("perturbed_heisenberg_3").frame
    with pytest.raises(ValueError, match="homogeneous"):
        exp_map(frame.fields, frame.weights)


def test_log_map_wants_triangular_input():
    x1, x2, x3 = _vars(3)
    with pytest.raises(ValueError, match="not unipotent"):
        log_map(PolyMap([x1 + x2, x2, x3]), (1, 1, 2))
    with pytest.raises(ValueError, match="weight-homogeneous"):
        log_map(PolyMap([x1, x2, x3 + x1 ** 2 * x2]), (1, 1, 2))


# ---------------------------------------------------------------------------
# The epsilon chart.
# ---------------------------------------------------------------------------

def test_epsilon_group_frame_is_left_translation():
    frame = catalog("heisenberg_3").frame
    inst = oracles.H3_EPSILON_INSTANCE
    res = epsilon(frame.at_base(inst["base"]))
    assert res.change.apply(inst["point"]) == inst["image"]
    assert res.change.inverse_apply(inst["image"]) == inst["point"]


def test_epsilon_at_origin_of_group_frame_is_identity():
    frame = catalog("heisenberg_3").frame
    res = epsilon(frame)
    assert res.change.poly == PolyMap.identity(3)
    assert res.change.offset == (0, 0, 0)


def test_epsilon_round_trip(frame_entry, rng):
    frame = frame_entry.frame
    n = frame.weights.n
    base = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                 for _ in range(n))
    res = epsilon(frame.at_base(base))
    assert res.change.apply(base) == (Fraction(0),) * n
    for _ in range(3):
        pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for _ in range(n))
        assert res.change.inverse_apply(res.change.apply(pt)) == pt


def test_epsilon_carnot_fields_osculate_induced_group(frame_entry, rng):
    """The pushed frame's model part must be the left-invariant basis of
    the structure constants read off at the origin."""
    from carnotkit.vfields import model_field

    frame = frame_entry.frame
    n = frame.weights.n
    res = epsilon(frame)
    for j, field in enumerate(res.carnot_frame.fields):
        model = model_field(field, j, frame.weights.weights)
        for _ in range(3):
            pt = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                       for _ in range(n))
            want = oracles.left_invariant_vectors(res.constants, n, pt)[j]
            assert model.evaluate(pt) == tuple(want)


@pytest.mark.parametrize("name", ["heisenberg_3", "engel_4", "step3_filiform_5",
                                  "perturbed_heisenberg_3", "perturbed_engel_4"])
def test_carnot_frame_is_the_frame_pushed_through_the_chart(name, rng):
    """osculation_report reads carnot_frame as the frame in the chart: the
    privileged fields pushed through phi on the unclipped route."""
    frame = catalog(name).frame
    n = frame.weights.n
    base = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n))
    for fr in (frame, frame.at_base(base)):
        eps = epsilon(fr)
        _, _, carnot = oracles.unclipped_epsilon(fr)
        assert eps.carnot_frame.base_point == (0,) * n
        assert [x.coefficients for x in eps.carnot_frame.fields] == carnot


def test_step2_epsilon_matches_quadratic_rule():
    """Hand-built step-2 frame: the chart is x_k plus the quadratic
    correction computed from first derivatives of the coefficients."""
    one = RationalPoly.const(3, 1)
    zero = RationalPoly.zero(3)
    x2 = RationalPoly.variable(3, 1)
    fields = [PolyVectorField([one, zero, x2]),
              PolyVectorField([zero, one, zero]),
              PolyVectorField([zero, zero, one])]
    frame = Frame(fields, WeightVector((1, 1, 2)), (Fraction(0),) * 3)
    res = epsilon(frame)
    assert res.change.poly == oracles.step2_log_instance()
    assert oracles.expected_log_quadratic(frame) == {2: {(0, 1): Fraction(-1, 2)}}


@given(step2_adapted_frames())
def test_step2_epsilon_quadratic_rule_random(frame):
    res = epsilon(frame)
    n = frame.weights.n
    expected = [RationalPoly.variable(n, k) for k in range(n)]
    for k, entry in oracles.expected_log_quadratic(frame).items():
        for (i, j), q in entry.items():
            exp = tuple((2 if l == i == j else 1 if l in (i, j) else 0)
                        for l in range(n))
            expected[k] = expected[k] + RationalPoly.monomial(n, exp, q)
    assert res.change.poly == PolyMap(expected)


# ---------------------------------------------------------------------------
# Converting between nilpotent approximations.
# ---------------------------------------------------------------------------

def test_convert_nilpotent_approx_recovers_conjugation():
    frame = catalog("heisenberg_3").frame
    wv = frame.weights
    x1, x2, x3 = _vars(3)
    m = PolyMap([x1, x2, x3 + x1 * x2])
    m_inv = invert_triangular(m, wv)
    targets = [pushforward(f, m, m_inv) for f in frame.fields]
    phi = convert_nilpotent_approx(frame.fields, targets, wv)
    assert phi == m


def test_convert_nilpotent_approx_rejects_different_constants():
    frame = catalog("heisenberg_3").frame
    one = RationalPoly.const(3, 1)
    zero = RationalPoly.zero(3)
    abelian = [PolyVectorField([one if k == j else zero for k in range(3)])
               for j in range(3)]
    with pytest.raises(ValueError, match="different structure constants"):
        convert_nilpotent_approx(frame.fields, abelian, frame.weights)


def test_convert_nilpotent_approx_rejects_non_lie_brackets():
    """X1 = d1 + x2 d4, X4 = d4 + x3 d5 on weights (1, 1, 1, 2, 3): the
    brackets at 0 give [e1, e2] = -e4 and [e4, e3] = -e5 only, so the
    Jacobi sum of (e1, e2, e3) is e5."""
    n = 5
    zero = RationalPoly.zero(n)
    x2, x3 = RationalPoly.variable(n, 1), RationalPoly.variable(n, 2)
    fields = [PolyVectorField.coordinate(n, j) for j in range(n)]
    fields[0] = fields[0] + PolyVectorField([zero, zero, zero, x2, zero])
    fields[3] = fields[3] + PolyVectorField([zero, zero, zero, zero, x3])
    with pytest.raises(ValueError, match="jacobi"):
        convert_nilpotent_approx(fields, fields, (1, 1, 1, 2, 3))


def test_convert_nilpotent_approx_rejects_unadapted_basis():
    frame = catalog("heisenberg_3").frame
    x1 = RationalPoly.variable(3, 0)
    tilted = list(frame.fields)
    tilted[1] = tilted[1] + PolyVectorField([RationalPoly.const(3, 1),
                                             RationalPoly.zero(3), x1])
    with pytest.raises(ValueError, match="source basis field 2 is not adapted at 0"):
        convert_nilpotent_approx(tilted, frame.fields, frame.weights)
    with pytest.raises(ValueError, match="target basis field 2 is not adapted at 0"):
        convert_nilpotent_approx(frame.fields, tilted, frame.weights)


def test_psi_map_rejects_unadapted_frame():
    frame = catalog("heisenberg_3").frame
    x1 = RationalPoly.variable(3, 0)
    tilted = list(frame.fields)
    tilted[2] = tilted[2] + PolyVectorField([RationalPoly.zero(3), x1,
                                             RationalPoly.const(3, 2)])
    with pytest.raises(ValueError, match=r"not linearly adapted .*\(field 3\)"):
        psi_map(Frame(tilted, frame.weights, frame.base_point, check=False))


def test_convert_nilpotent_approx_rejects_inhomogeneous_basis():
    frame = catalog("heisenberg_3").frame
    bad = catalog("perturbed_heisenberg_3").frame.fields
    with pytest.raises(ValueError, match="homogeneous"):
        convert_nilpotent_approx(frame.fields, bad, frame.weights)


# ---------------------------------------------------------------------------
# Canonical coordinates.
# ---------------------------------------------------------------------------

def test_first_kind_chart_on_perturbed_heisenberg():
    frame = catalog("perturbed_heisenberg_3").frame
    result = canonical_first_kind(frame)
    assert result.change.forward_polymap() == oracles.perturbed_h3_c1_chart()


def test_second_kind_forward_on_heisenberg():
    frame = catalog("heisenberg_3").frame
    result = canonical_second_kind(frame)
    assert result.forward == oracles.h3_c2_forward()


@settings(max_examples=20)
@given(frame=nonzero_base_frames())
def test_canonical_charts_match_the_construction_about_the_base_point(frame):
    """Packaged about the origin, both kinds equal the chart that inverts
    the forward map with the base point's constants and then undoes the
    affine adaptation by x = a + B(a)^t u."""
    _assert_charts_match_the_construction(frame)


def _assert_charts_match_the_construction(frame):
    for kind, build in (("first", canonical_first_kind), ("second", canonical_second_kind)):
        result = build(frame)
        poly, forward = oracles.unpackaged_canonical_chart(frame, kind)
        assert result.forward == forward
        assert result.change == CoordinateChange(frame.adapted_matrix(), frame.base_point,
                                                 frame.weights, poly)
        for p in result.forward.components + result.change.poly.components:
            assert all(isinstance(c, Fraction) for c in p.terms.values())


# ---------------------------------------------------------------------------
# One integrator: time-one flows in the caller's variables against the flow
# in (y, xi, t) composed at (y, xi, 1).
# ---------------------------------------------------------------------------

def _assert_matches_composed_route(frame):
    ws = frame.weights.weights
    n = len(ws)
    assert exact_flow(frame.fields, ws) == oracles.composed_flow(frame.fields, ws)
    eps = epsilon(frame)
    xi = _vars(n)
    want = oracles.composed_time_one(eps.model_fields, ws, [RationalPoly.zero(n)] * n, xi)
    assert exp_map(eps.model_fields, ws) == want
    _assert_charts_match_the_construction(frame)


def test_time_one_matches_composed_route_on_catalog_frames(frame_entry, rng):
    """At the origin and at two base points where B(a) is invertible."""
    frame = frame_entry.frame
    frames = [frame]
    while len(frames) < 3:
        point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(frame.n))
        try:
            frames.append(frame.at_base(point, check=True))
        except ValueError:  # DegenerateFrameError included
            pass
    for frame in frames:
        _assert_matches_composed_route(frame)


@given(frame=filiform_frames(sizes=(5, 6, 7, 8)))
def test_time_one_matches_composed_route_on_filiform_frames(frame):
    _assert_matches_composed_route(frame)


@given(frame=step2_adapted_frames())
def test_time_one_matches_composed_route_on_step2_frames(frame):
    _assert_matches_composed_route(frame)


def test_time_one_lets_only_the_nonzero_xi_fields_enter(monkeypatch):
    """A second-kind chart makes n single-field flows, so each batch of
    field coefficients substituted holds one polynomial; exponentials and
    first-kind charts substitute at most n per batch."""
    frames = [catalog(name).frame for name in ("heisenberg_3", "engel_4",
                                               "perturbed_engel_4")]
    frames.append(frames[-1].at_base((Fraction(1, 2), -1, Fraction(1, 3), 2), check=True))
    sizes = []
    substitute_all = coords.substitute_all

    def record(polys, *args):
        sizes.append(len(polys))
        return substitute_all(polys, *args)
    monkeypatch.setattr(coords, "substitute_all", record)
    for frame in frames:
        n = frame.n
        models = epsilon(frame).model_fields
        for run, most in ((lambda: canonical_second_kind(frame), 1),
                          (lambda: canonical_first_kind(frame), n),
                          (lambda: exp_map(models, frame.weights), n)):
            sizes.clear()
            run()
            assert sizes and max(sizes) <= most


def test_canonical_charts_invert_their_forward(frame_entry, rng):
    frame = frame_entry.frame
    n = frame.weights.n
    for build in (canonical_first_kind, canonical_second_kind):
        result = build(frame)
        for _ in range(3):
            xi = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(n))
            x = result.forward.evaluate(xi)
            assert result.change.apply(x) == xi


# ---------------------------------------------------------------------------
# Numeric harness.
# ---------------------------------------------------------------------------

def test_numeric_flow_matches_exact_endpoint(h3_frame):
    xi = (Fraction(1, 3), Fraction(-1, 2), Fraction(1, 5))
    y = (Fraction(1, 10), Fraction(1, 5), Fraction(-3, 10))
    flow = exact_flow(h3_frame.fields, h3_frame.weights)
    exact_pt = flow.evaluate(y + xi + (1,))
    num_pt = numeric_flow(combined_field(h3_frame.fields, xi), y, 1.0)
    assert max(abs(float(a) - b) for a, b in zip(exact_pt, num_pt)) < 1e-9


def test_numeric_flow_backwards(h3_frame):
    xi = (Fraction(1, 2), Fraction(1, 3), Fraction(0))
    field = combined_field(h3_frame.fields, xi)
    fwd = numeric_flow(field, (0, 0, 0), 1.0)
    back = numeric_flow(field, fwd, -1.0)
    assert max(abs(v) for v in back) < 1e-9


def test_numeric_chart_matches_exact_chart():
    import random as random_mod

    frame = catalog("perturbed_heisenberg_3").frame
    numeric = NumericChart.build(frame, "first", rng=random_mod.Random(3))
    exact = canonical_first_kind(frame).change
    pts = [(Fraction(1, 10), Fraction(-1, 5), Fraction(1, 8)),
           (Fraction(-1, 6), Fraction(1, 7), Fraction(-1, 9))]
    for pt in pts:
        got = numeric.evaluate(pt)
        want = exact.apply(pt)
        assert max(abs(g - float(w)) for g, w in zip(got, want)) < 1e-7


def test_chart_sampler_matches_exact_forward(h3_frame):
    sampler = ChartSampler(h3_frame, "second")
    forward = oracles.h3_c2_forward()
    for t in [(Fraction(1, 5), Fraction(-1, 4), Fraction(1, 10)),
              (Fraction(0), Fraction(1, 3), Fraction(-1, 6))]:
        got = sampler(t)
        want = forward.evaluate(t)
        assert max(abs(g - float(w)) for g, w in zip(got, want)) < 1e-8


def test_numeric_flow_of_zero_field_stays_put():
    y = (0.5, -0.25, 2.0)
    assert numeric_flow(PolyVectorField.zero(3), y, 1.0) == y


def test_rk4_takes_equal_steps():
    """x' = x from 1: one RK4 step of h multiplies by the degree-4 Taylor
    polynomial of e^h, so the endpoint shows the step schedule."""
    field = PolyVectorField([RationalPoly.variable(1, 0)])

    def taylor(h):
        return 1 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24

    (one_step,) = numeric_flow(field, (1,), 0.5, step=1.0)
    assert abs(one_step - taylor(0.5)) < 1e-15
    (two_steps,) = numeric_flow(field, (1,), 0.5, step=0.3)
    assert abs(two_steps - taylor(0.25) ** 2) < 1e-15
    (backwards,) = numeric_flow(field, (1,), -0.5, step=0.3)
    assert abs(backwards - taylor(-0.25) ** 2) < 1e-15


@pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf")])
def test_rk4_rejects_bad_step(h3_frame, step):
    with pytest.raises(ValueError, match="step"):
        numeric_flow(h3_frame.fields[0], (0, 0, 0), 1.0, step=step)
    with pytest.raises(ValueError, match="step"):
        numeric_flow(h3_frame.fields[0], (0, 0, 0), 0.0, step=step)
    for kind in ("first", "second"):
        with pytest.raises(ValueError, match="step"):
            ChartSampler(h3_frame, kind, step)((0.1, 0.2, 0.3))


@pytest.mark.parametrize("t_total", [float("inf"), float("-inf"), float("nan")])
def test_rk4_rejects_non_finite_time(h3_frame, t_total):
    with pytest.raises(ValueError, match="time must be finite"):
        numeric_flow(h3_frame.fields[0], (0, 0, 0), t_total)
    with pytest.raises(ValueError, match="time must be finite"):
        ChartSampler(h3_frame, "second")((t_total, 0.2, 0.3))


@pytest.mark.parametrize("t_total,step", [(1e300, 1e-3), (1.0, 1e-300),
                                          (1e300, 1e-300),
                                          (-(MAX_RK4_STEPS + 1) * 1e-3, 1e-3)])
def test_rk4_caps_its_step_count(h3_frame, t_total, step):
    # raised before the first step, so no case runs the loop
    with pytest.raises(ValueError, match="more than %d steps" % MAX_RK4_STEPS):
        numeric_flow(h3_frame.fields[0], (0, 0, 0), t_total, step=step)


def test_chart_sampler_rejects_unknown_kind(h3_frame):
    with pytest.raises(ValueError, match="kind"):
        ChartSampler(h3_frame, "bogus")
    with pytest.raises(ValueError, match="kind"):
        NumericChart.build(h3_frame, "bogus")


@pytest.mark.parametrize("options, match", [
    ({"samples": 0}, "samples"),
    ({"samples": 1}, "samples"),
    ({"samples": 19}, "samples"),
    ({"degree": 0}, "degree"),
    ({"degree": -1}, "degree"),
    ({"box": 0}, "box"),
    ({"box": -0.25}, "box"),
    ({"box": float("nan")}, "box"),
    ({"box": float("inf")}, "box"),
])
def test_numeric_chart_rejects_bad_options(h3_frame, options, match):
    with pytest.raises(ValueError, match=match):
        NumericChart.build(h3_frame, "first", **options)


def test_numeric_chart_caps_samples_times_monomials_before_any_work(monkeypatch):
    """The cap counts the fit with math.comb: just inside it the fit goes
    ahead, at the cap + 1 nothing is enumerated or integrated."""
    plane = Frame([PolyVectorField.coordinate(2, j) for j in range(2)], (1, 1), (0, 0))
    samples = (MAX_FIT_ENTRIES + 1) // 3  # 3 monomials of degree <= 1 in 2 variables
    assert 3 * samples == MAX_FIT_ENTRIES + 1

    class Started(Exception):
        pass

    def start(*args, **kwargs):
        raise Started
    monkeypatch.setattr(coords, "ChartSampler", start)
    with pytest.raises(Started):
        NumericChart.build(plane, "first", degree=1, samples=samples - 1)
    monkeypatch.setattr(coords, "iter_weighted_exponents", start)
    with pytest.raises(ValueError, match="exceed the cap of %d" % MAX_FIT_ENTRIES):
        NumericChart.build(plane, "first", degree=1, samples=samples)


def test_numeric_chart_accepts_one_sample_per_monomial(h3_frame):
    chart = NumericChart.build(h3_frame, "first", samples=20, step=1e-2)
    assert len(chart.basis) == chart.samples == 20
    pt = (Fraction(1, 10),) * 3
    want = canonical_first_kind(h3_frame).change.apply(pt)
    assert max(abs(g - float(w)) for g, w in zip(chart.evaluate(pt), want)) < 1e-6


@pytest.mark.parametrize("name", ["engel_4", "step3_filiform_5"])
@pytest.mark.parametrize("kind, build", [("first", canonical_first_kind),
                                         ("second", canonical_second_kind)])
def test_chart_sampler_matches_exact_forward_step3(name, kind, build, rng):
    frame = catalog(name).frame
    forward = build(frame).forward
    sampler = ChartSampler(frame, kind)
    for _ in range(3):
        xi = tuple(Fraction(rng.randint(-4, 4), 8) for _ in range(frame.n))
        got = sampler(xi)
        want = forward.evaluate(xi)
        assert max(abs(g - float(w)) for g, w in zip(got, want)) < 1e-8


# ---------------------------------------------------------------------------
# The stacked RK4 loop against the per-sample loop.
# ---------------------------------------------------------------------------

def _stack_cases():
    """A catalog frame at a small base point and a stack of xi rows among
    which are a zero row and rows of mixed signs and sizes, so the
    per-coordinate times (and step counts) differ from row to row."""
    def build(args):
        name, base, rows = args
        frame = catalog(name).frame
        n = frame.n
        return frame.at_base(base[:n]), [(0.0,) * n] + [row[:n] for row in rows]
    row = st.tuples(*[st.sampled_from([0.0, 0.5, -0.5, 0.25, -0.3, 0.07, -0.013])
                      for _ in range(5)])
    return st.tuples(st.sampled_from(["heisenberg_3", "heisenberg_5", "engel_4",
                                      "step3_filiform_5", "perturbed_heisenberg_3",
                                      "perturbed_engel_4"]),
                     points(5, 1, 4), st.lists(row, min_size=1, max_size=4)).map(build)


@settings(max_examples=12)
@given(_stack_cases(), st.sampled_from(["first", "second"]), st.sampled_from([1e-2, 3e-2]))
def test_stacked_chart_sampler_matches_per_sample_loop(case, kind, step):
    frame, xis = case
    got = ChartSampler(frame, kind, step)(np.array(xis))
    assert got.shape == (len(xis), frame.n)
    for row, xi in zip(got, xis):
        want = oracles.per_sample_chart_point(frame, kind, xi, step)
        assert np.max(np.abs(row - want)) <= 1e-15
    single = ChartSampler(frame, kind, step)(xis[-1])
    assert single == tuple(got[-1].tolist())


@settings(max_examples=10)
@given(_stack_cases(), st.lists(st.sampled_from([0.0, 1.0, -0.4, 0.37, -0.05]),
                                min_size=5, max_size=5))
def test_stacked_rk4_with_per_row_tensors_and_times(case, times):
    """One coefficient tensor and one time per row, as in a stack of
    frames: rows keep their own step schedules."""
    frame, xis = case
    exps, coeffs = oracles.float_fields(frame.fields)
    per_row = np.einsum("sj,jkt->skt", np.array(xis), coeffs)
    starts = [[0.1 * (k + 1) for k in range(frame.n)]] * len(xis)
    row_times = [times[s % len(times)] for s in range(len(xis))]
    got = coords._rk4(per_row, exps, starts, row_times, 1e-2)
    for s, row in enumerate(got):
        want = oracles.per_sample_rk4(per_row[s], exps, starts[s], row_times[s], 1e-2)
        assert np.max(np.abs(row - want)) <= 1e-15


@st.composite
def _triangular_systems(draw):
    """x' = C @ x^E in which component order[p] reads only the variables
    order[:p] of a random order, so the layers need not follow the variable
    order, as (E, C, y0, times, step).  C is one (n, T) matrix or one
    (S, n, T) tensor per row, with coefficients zeroed per row; times are
    one schedule or one per row, zeros and negatives among them."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    coefficient = st.floats(-2, 2, allow_nan=False).filter(bool)
    rows = [{} for _ in range(n)]
    for p, k in enumerate(order):
        monomial = st.lists(st.sampled_from(order[:p]), max_size=4) if p else st.just([])
        for c, picks in draw(st.lists(st.tuples(coefficient, monomial), max_size=3)):
            exp = tuple(picks.count(l) for l in range(n))
            rows[k][exp] = rows[k].get(exp, 0.0) + c
    exps = sorted({exp for row in rows for exp in row})
    coeffs = np.array([[row.get(exp, 0.0) for exp in exps] for row in rows]).reshape(n, -1)
    size = draw(st.integers(1, 4))
    if draw(st.booleans()):  # one tensor per row
        keep = st.lists(st.sampled_from([0.0, 1.0, -0.5, 3.0]), min_size=coeffs.size,
                        max_size=coeffs.size)
        coeffs = np.array([coeffs * np.reshape(draw(keep), coeffs.shape)
                           for _ in range(size)])
    y0 = draw(st.lists(st.lists(st.floats(-1, 1), min_size=n, max_size=n),
                       min_size=size, max_size=size))
    time = st.sampled_from([0.0, 1.0, -0.45, 0.3, -1.2, 0.05])
    times = draw(st.one_of(time.map(lambda t: [t] * size),
                           st.lists(time, min_size=size, max_size=size)))
    step = draw(st.sampled_from([0.013, 0.05, 0.1]))
    return np.array(exps, dtype=float).reshape(-1, n), coeffs, y0, times, step


@settings(max_examples=80)
@given(_triangular_systems(), st.integers(1, 24))
def test_layer_sweep_is_the_step_loop_bit_for_bit(system, block):
    """The layer sweep against the whole-system body (the read graph patched
    to report a cycle): lone rows and stacks, shared and per-row tensors;
    small blocks make rows finish inside different blocks."""
    exps, coeffs, y0, times, step = system
    assert coords._read_layers(coeffs, exps) is not None
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(coords, "_read_layers", lambda c, e: None)
        want = coords._rk4(coeffs, exps, y0, times, step)
    assume(np.isfinite(want).all())  # a deep chain of quartics can overflow
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coords, "RK4_BLOCK", block)
        got = coords._rk4(coeffs, exps, y0, times, step)
    assert np.array_equal(got, want)


def test_sweep_off_the_finite_floats_keeps_its_own_endpoints():
    """x1' = 0, x2' = x1^2 from x1 = 1e300: x1 never moves and x2 overflows.
    The whole-system body would meet 0 * inf in x1's product and return
    nan for both; the sweep's layer for x1 reads no variable."""
    exps, coeffs = np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])
    with np.errstate(all="ignore"):
        (x1, x2), = coords._rk4(coeffs, exps, [[1e300, 0.0]], [0.1], 0.05)
    assert x1 == 1e300 and x2 == np.inf


@pytest.mark.parametrize("exps, coeffs", [
    ([[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]),  # x1 d2 - x2 d1
    ([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.7], [1.0, 0.0]]),   # x1' = 0.7 x1 reads itself
], ids=["rotation", "self-loop"])
def test_cyclic_system_takes_the_step_loop(exps, coeffs):
    exps, coeffs = np.array(exps), np.array(coeffs)
    y0, times = [[1.0, 0.0], [0.3, -0.2], [0.5, 0.5]], [2 * np.pi, -1.0, 0.0]
    assert coords._read_layers(coeffs, exps) is None
    got = coords._rk4(coeffs, exps, y0, times, 1e-2)
    for row, y, t in zip(got, y0, times):
        want = oracles.per_sample_rk4(coeffs, exps, y, t, 1e-2)
        assert np.max(np.abs(row - want)) <= 1e-15


@pytest.mark.parametrize("kind", ["first", "second"])
def test_chart_sampler_on_a_cyclic_frame(kind):
    """X1 = d1 + x2 d2, X2 = d2 at the origin, weights (1, 1): x2 reads x2,
    in the first kind's per-row tensors and in X1 alone, so both kinds
    take the whole-system body."""
    one, zero, x2 = RationalPoly.const(2, 1), RationalPoly.zero(2), RationalPoly.variable(2, 1)
    frame = Frame([PolyVectorField([one, x2]), PolyVectorField([zero, one])],
                  WeightVector((1, 1)), (Fraction(0),) * 2, check=True)
    exps, coeffs = oracles.float_fields(frame.fields)
    assert coords._read_layers(coeffs[0], exps) is None
    assert coords._read_layers(np.einsum("sj,jkt->skt", [[1.0, 0.5]], coeffs), exps) is None
    xis = [(0.0, 0.0), (0.5, -0.3), (-0.25, 0.07), (0.3, 0.0), (-0.013, -0.5)]
    got = ChartSampler(frame, kind, 1e-2)(np.array(xis))
    for row, xi in zip(got, xis):
        want = oracles.per_sample_chart_point(frame, kind, xi, 1e-2)
        assert np.max(np.abs(row - want)) <= 1e-15


def test_long_lone_flow_works_in_bounded_memory(h3_frame):
    """2 * 10^5 steps of X2 = d2 + (x1/2) d3 in blocks: numpy reports its
    arrays to tracemalloc, and the peak stays under 1 MiB, where one
    float per step of a single stage already takes 1.6 MB."""
    import tracemalloc
    field, y = h3_frame.fields[1], (0.1, 0.2, 0.3)
    numeric_flow(field, y, 0.01)
    tracemalloc.start()
    try:
        x = numeric_flow(field, y, 200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert x[0] == 0.1 and abs(x[1] - 200.2) < 1e-6 and abs(x[2] - 10.3) < 1e-6


@pytest.mark.parametrize("name, kind, directions, seed, passed", [
    ("heisenberg_3", "first", 1, 5, False),       # the known round-off fault
    ("perturbed_engel_4", "first", 1, 5, False),  # the known round-off fault
    ("perturbed_heisenberg_3", "first", 2, 11, True),
    ("engel_4", "second", 2, 3, False),
])
def test_numeric_report_matches_per_point_oracle(name, kind, directions, seed, passed):
    from carnotkit.verify import numeric_chart_report, random_osculation_directions

    frame = catalog(name).frame
    eps = epsilon(frame)
    report = numeric_chart_report(frame, kind, eps=eps, n_directions=directions,
                                  rng=random_mod.Random(seed))
    dirs = [x0 for x0, _ in random_osculation_directions(
        frame.weights, directions, random_mod.Random(seed))]
    want = oracles.per_point_chart_report(frame, kind, 1, eps, dirs)
    assert report.passed is want.passed
    assert [e.values for e in report.entries] == [e.values for e in want.entries]
    for got_slope, want_slope in zip(report.slopes(), want.slopes()):
        assert abs(got_slope - want_slope) <= 1e-9
    assert report.passed is passed


class _Unsteppable:
    """Coefficients that fail the test if a step ever uses them."""
    ndim = 2

    def __matmul__(self, other):
        raise AssertionError("an RK4 step ran before the checks")


@pytest.mark.parametrize("times, step, match", [
    ([0.5, -0.25, 0.0], 0.0, "step"),
    ([0.5, -0.25, 0.0], float("nan"), "step"),
    ([0.5, float("nan"), 0.0], 1e-3, "time must be finite"),
    ([0.5, 0.1, float("-inf")], 1e-3, "time must be finite"),
    ([0.5, (MAX_RK4_STEPS + 1) * 1e-3, 0.0], 1e-3, "more than %d steps" % MAX_RK4_STEPS),
])
def test_stacked_rk4_checks_every_row_before_any_step(h3_frame, monkeypatch, times, step, match):
    exps, _ = oracles.float_fields(h3_frame.fields)
    with pytest.raises(ValueError, match=match):
        coords._rk4(_Unsteppable(), exps, [[0.0, 0.0, 0.0]] * 3, times, step)
    stack = np.array([[times[1], 0.2, 0.1], [times[2], 0.0, -0.3], [times[0], 0.1, 0.1]])
    if match == "step":  # first-kind times are all one
        with pytest.raises(ValueError, match=match):
            ChartSampler(h3_frame, "first", step)(stack)
    # the second kind runs one stacked flow per coordinate, X_3 first: a bad
    # time in the first column must still stop it before the first flow
    monkeypatch.setattr(coords, "_rk4", _Unsteppable().__matmul__)
    with pytest.raises(ValueError, match=match):
        ChartSampler(h3_frame, "second", step)(stack)


def test_stacked_sampler_accepts_an_empty_stack(h3_frame):
    for kind in ("first", "second"):
        assert ChartSampler(h3_frame, kind)(np.zeros((0, 3))).shape == (0, 3)
