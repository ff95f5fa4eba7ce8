import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carnotkit.graded import weighted_degree
from carnotkit.groups import catalog, group_frame
from carnotkit.poly import PolyMap, RationalPoly
from carnotkit.coords import (
    CoordinateChange, canonical_first_kind, canonical_second_kind, epsilon,
)
from carnotkit.vfields import DegenerateFrameError, Frame, PolyVectorField
from carnotkit.verify import (
    _carnot_residual, check_carnot, check_privileged, generate_adversarial_variants,
    generate_carnot_variants, generate_privileged_variants,
    group_translation_identity, numeric_chart_report, osculation_report,
    random_osculation_directions, random_raising_perturbation,
)

import oracles
from conftest import filiform_constants, nonzero_base_frames, off_centre_change


# ---------------------------------------------------------------------------
# The built-in chart must pass its own checks.
# ---------------------------------------------------------------------------

def test_epsilon_chart_is_carnot(frame_entry):
    frame = frame_entry.frame
    eps = epsilon(frame)
    priv = check_privileged(frame, eps.change)
    assert priv.ok and priv.witnesses == []
    carn = check_carnot(frame, eps.change, eps=eps)
    assert carn.ok and carn.witnesses == []
    assert carn.details["constants"] is not None
    assert not carn.details["truncated"]


def test_checks_require_centered_chart(h3_frame):
    moved = h3_frame.at_base((1, 0, 0))
    with pytest.raises(ValueError, match="center the chart"):
        check_privileged(moved, CoordinateChange.identity(moved.weights))


@pytest.mark.parametrize("check", [check_carnot, check_privileged])
def test_checks_reject_a_change_centred_elsewhere(check):
    frame, far = off_centre_change()
    assert far.apply(frame.base_point) == (0,) and not far.is_exactly_invertible
    with pytest.raises(ValueError, match="center the chart"):
        check(frame, far)


@pytest.mark.parametrize("check", [check_carnot, check_privileged])
def test_checks_reject_a_change_with_other_weights(h3_frame, check):
    """A change graded by other weights than the frame's is bad input: the
    push would clip by one grading and the verdicts read the other."""
    change = canonical_second_kind(h3_frame).change
    other = CoordinateChange(change.matrix, change.offset, (1, 1, 1), change.poly)
    with pytest.raises(ValueError, match=r"\(1, 1, 1\) differ from the frame's \(1, 1, 2\)"):
        check(h3_frame, other)


def test_report_truth_value(h3_frame):
    eps = epsilon(h3_frame)
    report = check_privileged(h3_frame, eps.change)
    assert bool(report) is True
    assert "ok" in repr(report)


# ---------------------------------------------------------------------------
# Second-kind chart: privileged but not Carnot.
# ---------------------------------------------------------------------------

def test_second_kind_is_privileged_not_carnot(h3_frame):
    chart = canonical_second_kind(h3_frame).change
    assert check_privileged(h3_frame, chart).ok
    carn = check_carnot(h3_frame, chart)
    assert not carn.ok
    assert oracles.H3_C2_WITNESS in carn.witnesses


def test_first_kind_is_carnot_on_perturbed_frame():
    frame = catalog("perturbed_heisenberg_3").frame
    chart = canonical_first_kind(frame).change
    assert check_carnot(frame, chart).ok


# ---------------------------------------------------------------------------
# A bare weight-raising linear term must fail both checks.
# ---------------------------------------------------------------------------

def test_linear_raising_term_fails_both_checks(h3_frame):
    """The term x3 in component 1 raises the weight as a function, but it
    tilts the pushed frame: X_3(0) gains a spurious e_1.  Both routes must
    reject it without tripping the cross-route consistency guard."""
    x1, x2, x3 = [RationalPoly.variable(3, k) for k in range(3)]
    change = CoordinateChange([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 0, 0),
                              h3_frame.weights, PolyMap([x1 + x3, x2, x3]))
    assert not change.is_exactly_invertible
    priv = check_privileged(h3_frame, change)
    assert not priv.ok
    assert priv.witnesses == ["field 3 is not adapted: X_3(0) = (1, 0, 1)"]
    carn = check_carnot(h3_frame, change)
    assert not carn.ok
    assert "x3 in component 1" in carn.witnesses


# ---------------------------------------------------------------------------
# Random chart variants.
# ---------------------------------------------------------------------------

def test_raising_perturbation_term_shape(rng):
    for name in ("heisenberg_3", "engel_4", "step3_filiform_5"):
        wv = catalog(name).frame.weights
        for _ in range(8):
            pert = random_raising_perturbation(wv, rng)
            for k, comp in enumerate(pert.components):
                for exp in comp.terms:
                    assert sum(exp) >= 2
                    extra = weighted_degree(exp, wv.weights) - wv.weights[k]
                    assert 1 <= extra <= 2


def test_privileged_variants_stay_privileged(h3_frame, rng):
    eps = epsilon(h3_frame)
    for variant in generate_privileged_variants(eps.change, 4, rng):
        assert check_privileged(h3_frame, variant).ok


def test_carnot_variants_stay_carnot(h3_frame, rng):
    eps = epsilon(h3_frame)
    for variant in generate_carnot_variants(eps.change, 4, rng):
        assert check_carnot(h3_frame, variant, eps=eps).ok


def test_adversarial_variants_flip_only_carnot(h3_frame, rng):
    eps = epsilon(h3_frame)
    for variant in generate_adversarial_variants(eps.change, 3, rng):
        assert check_privileged(h3_frame, variant).ok
        assert not check_carnot(h3_frame, variant, eps=eps).ok


def test_variants_on_step3_frame(engel_frame, rng):
    eps = epsilon(engel_frame)
    carnot = generate_carnot_variants(eps.change, 1, rng)[0]
    assert check_carnot(engel_frame, carnot, eps=eps).ok
    adversarial = generate_adversarial_variants(eps.change, 1, rng)[0]
    assert check_privileged(engel_frame, adversarial).ok
    assert not check_carnot(engel_frame, adversarial, eps=eps).ok


@settings(max_examples=10)
@given(frame=nonzero_base_frames(filiform_sizes=(5,)),
       rng=st.randoms(use_true_random=False))
def test_carnot_residual_matches_one_stage_formula(frame, rng):
    """Route B's residual, composed about 0 as poly . link . q_eps, equals
    forward . eps^{-1} clipped at r; also when the change's affine factor
    differs from eps's, so that the link map carries constant terms."""
    eps = epsilon(frame).change
    changes = [eps] + generate_carnot_variants(eps, 1, rng) + generate_privileged_variants(
        eps, 1, rng)
    if frame.weights.r > 1:
        changes += generate_adversarial_variants(eps, 1, rng)
    for change in list(changes):
        changes.append(CoordinateChange([[2 * v for v in row] for row in change.matrix],
                                         [v + 1 for v in change.offset], frame.weights,
                                         change.poly))
    link = changes[-1].affine_polymap().compose(eps.affine_inverse_polymap())
    assert any(link.constant_part())
    for change in changes:
        assert _carnot_residual(change, eps) == oracles.one_stage_carnot_residual(change, eps)


def test_carnot_check_carries_the_privileged_report(rng):
    frame = catalog("heisenberg_5").frame.at_base((1, -2, 0, 1, 3))
    eps = epsilon(frame)
    for variant in (generate_privileged_variants(eps.change, 2, rng)
                    + generate_adversarial_variants(eps.change, 2, rng)):
        priv = check_privileged(frame, variant)
        carried = check_carnot(frame, variant, eps=eps).details["privileged"]
        assert (carried.ok, carried.witnesses, carried.details) == (
            priv.ok, priv.witnesses, priv.details)


def test_truncated_verdicts_on_step4_filiform_frame(rng):
    """Step 4: variants of the epsilon chart of the filiform_5 group frame
    have no exact inverse, so both verdicts run on truncated pushforwards."""
    base = (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4), Fraction(0),
            Fraction(2, 3))
    frame = group_frame(filiform_constants(5), base)
    eps = epsilon(frame)
    carnot = generate_carnot_variants(eps.change, 1, rng)[0]
    privileged = generate_privileged_variants(eps.change, 1, rng)[0]
    for variant, is_carnot in ((carnot, True), (privileged, False)):
        priv = check_privileged(frame, variant)
        assert priv.ok and priv.details["truncated"]
        carn = check_carnot(frame, variant, eps=eps)
        assert carn.ok is is_carnot and carn.details["truncated"]


def test_adversarial_variants_impossible_in_step_one(rng):
    with pytest.raises(ValueError, match="step one"):
        generate_adversarial_variants(
            CoordinateChange.identity((1, 1, 1)), 1, rng)


# ---------------------------------------------------------------------------
# Osculation.
# ---------------------------------------------------------------------------

def _rational_root(q, w):
    """The positive rational r with r ** w == q, or None."""
    num, den = (round(v ** (1 / w)) for v in (q.numerator, q.denominator))
    r = Fraction(num, den) if num and den else None
    return r if r is not None and r ** w == q else None


@given(weights=st.lists(st.integers(1, 5), min_size=1, max_size=8).map(sorted),
       seed=st.integers(0, 2 ** 32))
def test_osculation_directions_have_pseudo_norm_exactly_one(weights, seed):
    """Each x_j is +-q_j^{w_j} for a positive rational q_j with sum q_j = 1:
    the pseudo-norm sum |x_j|^{1/w_j} is exactly one, a claim no float
    evaluation of that sum could certify."""
    for pair in random_osculation_directions(weights, 3, random.Random(seed)):
        for point in pair:
            assert all(isinstance(v, Fraction) for v in point)
            roots = [_rational_root(abs(v), w) for v, w in zip(point, weights)]
            assert None not in roots and sum(roots) == 1


def test_osculation_exact_on_group_frame(h3_frame):
    directions = [((Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)),
                   (Fraction(-1, 2), Fraction(1, 3), Fraction(1, 8)))]
    report = osculation_report(h3_frame, directions=directions,
                               t_grid=[Fraction(1, 2), Fraction(1, 4),
                                       Fraction(1, 8)])
    assert report.passed
    entry = report.entries[0]
    assert entry.r_track.exact and entry.rt_track.exact
    assert entry.r_track.values == [0.0, 0.0, 0.0]


def test_osculation_decays_on_perturbed_frame(rng):
    frame = catalog("perturbed_heisenberg_3").frame
    report = osculation_report(frame, n_directions=2, rng=rng)
    assert report.passed
    for entry in report.entries:
        for track in (entry.r_track, entry.rt_track):
            assert track.exact or track.slope >= 0.9


def test_osculation_skips_the_scale_where_the_frame_degenerates():
    # X1 = (1 - 2 x1) d1 vanishes at x1 = 1/2, which y = t * y0 meets at t = 1/2 only
    x1 = RationalPoly.variable(1, 0)
    frame = Frame([PolyVectorField([1 - 2 * x1])], (1,), (0,))
    report = osculation_report(frame, directions=[((Fraction(1, 3),), (Fraction(1),))])
    track = report.entries[0].r_track
    assert track.skipped == [Fraction(1, 2)]
    assert track.ts == [Fraction(1, 2 ** k) for k in range(2, 11)]


def test_osculation_does_not_skip_other_value_errors():
    # [X1, X2] = X3 + 2 x1 X4 leaves the weight filtration away from x1 = 0,
    # so epsilon fails at every scale, though B(y) is never singular
    n = 4
    x1 = RationalPoly.variable(n, 0)
    one, zero = RationalPoly.const(n, 1), RationalPoly.zero(n)
    fields = [PolyVectorField([one, zero, zero, zero]),
              PolyVectorField([zero, one, x1, x1 * x1]),
              PolyVectorField([zero, zero, one, zero]),
              PolyVectorField([zero, zero, zero, one])]
    frame = Frame(fields, (1, 1, 2, 3), (0, 0, 0, 0))
    direction = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    with pytest.raises(ValueError) as info:
        osculation_report(frame, directions=[(direction, direction)])
    assert not isinstance(info.value, DegenerateFrameError)


def test_osculation_needs_directions_or_rng(h3_frame):
    with pytest.raises(ValueError, match="rng"):
        osculation_report(h3_frame)


# ---------------------------------------------------------------------------
# Numeric chart classification.
# ---------------------------------------------------------------------------

def test_numeric_report_passes_on_carnot_chart():
    frame = catalog("perturbed_heisenberg_3").frame
    directions = [(Fraction(1), Fraction(1), Fraction(1)),
                  (Fraction(1), Fraction(-1), Fraction(1, 2))]
    report = numeric_chart_report(frame, "first", m=1, directions=directions)
    assert report.passed


def test_numeric_report_fails_on_second_kind(h3_frame):
    directions = [(Fraction(1), Fraction(1), Fraction(1))]
    report = numeric_chart_report(h3_frame, "second", m=1,
                                  directions=directions)
    assert not report.passed
    # ... but the residual is still weight-preserving (privileged).
    report0 = numeric_chart_report(h3_frame, "second", m=0,
                                   directions=directions)
    assert report0.passed


def test_numeric_report_rejects_unknown_kind(h3_frame):
    with pytest.raises(ValueError, match="kind"):
        numeric_chart_report(h3_frame, "bogus", directions=[(1, 1, 1)])


def test_numeric_report_without_samples_fails(h3_frame):
    # a second-kind chart must not pass as Carnot on an empty scale grid
    report = numeric_chart_report(h3_frame, "second", m=1,
                                  directions=[(1, 1, 1)], t_grid=())
    assert not report.passed


# ---------------------------------------------------------------------------
# Group translation identity.
# ---------------------------------------------------------------------------

def test_group_translation_identity(group_entry, rng):
    n = group_entry.constants.weights.n
    base = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(n))
    samples = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(n)) for _ in range(4)]
    assert group_translation_identity(group_entry.constants, base,
                                      samples) == []


def test_group_translation_identity_reports_a_planted_law(monkeypatch):
    import carnotkit.groups as groups
    real = groups.dynkin_words
    # drop the last word of the step-3 series, -1/18 [x, [y, x]]
    monkeypatch.setattr(groups, "dynkin_words", lambda step: real(step)[:-1])
    sc = catalog("engel_4").constants
    a = (Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(3))
    bad = group_translation_identity(sc, a, [])
    assert len(bad) == 1
    x, got, want = bad[0]
    assert x == tuple(RationalPoly.variable(4, j) for j in range(4))
    assert got[:3] == want[:3] and got[3] != want[3]
    point = (Fraction(2), Fraction(1), Fraction(-1), Fraction(5, 3))
    assert [b[0] for b in group_translation_identity(sc, a, [point])] == [point, x]
