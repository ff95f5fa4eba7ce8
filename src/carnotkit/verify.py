"""Verdicts: is a chart privileged, is it Carnot, and osculation tests.

Every verdict is computed along two independent routes whenever the theory
provides two, and the routes are required to agree exactly; a disagreement
raises ArithmeticError because it means a bug, not a property of the input.
"""

from fractions import Fraction

from .coords import ChartSampler, epsilon, transform_frame
from .graded import (DEFAULT_T_GRID, DecayTrack, WeightVector, dilate,
                     iter_weighted_exponents, ow_scaling_test, ow_violations,
                     weighted_degree)
from .groups import (group_frame, group_product, left_invariant_fields,
                     model_structure_constants)
from .poly import (PolyMap, RationalPoly, check_unit_triangular, invert_weight_triangular,
                   monomial_str)
from .vfields import (DegenerateFrameError, Frame, adaptation_defect, expand,
                      function_order)


class VerificationReport:
    """Outcome of a privileged/Carnot check, with human-readable witnesses
    for every violation."""

    def __init__(self, kind, ok, witnesses=(), details=None):
        self.kind = kind
        self.ok = ok
        self.witnesses = list(witnesses)
        self.details = details if details is not None else {}

    def __bool__(self):
        return self.ok

    def __repr__(self):
        state = "ok" if self.ok else "failed (%d witnesses)" % len(self.witnesses)
        return "VerificationReport(%s: %s)" % (self.kind, state)


def _push_through(frame, change):
    if change.weights != frame.weights:
        raise ValueError("change weights %s differ from the frame's %s"
                         % (change.weights.weights, frame.weights.weights))
    # The polynomial factor fixes the origin and M is invertible, so the
    # change is centred at a exactly when its offset is a; a truncated
    # factor may vanish elsewhere as well, which change(a) = 0 would let in.
    if change.offset != frame.base_point:
        raise ValueError("change does not map the frame's base point to the "
                         "origin; center the chart first")
    return transform_frame(frame, change), change.is_exactly_invertible


def _privileged_inspection(pushed, exact):
    """Homogeneous-part route, with a derivation-order cross-check on exact
    pushes.  Returns (report, model_parts)."""
    wv = pushed.weights
    ws = wv.weights
    n = wv.n
    witnesses = []
    adapted = True
    models = [None] * n
    for j, field in enumerate(pushed.fields):
        val = adaptation_defect(field, j)
        if val is not None:
            adapted = False
            witnesses.append("field %d is not adapted: X_%d(0) = (%s)"
                             % (j + 1, j + 1, ", ".join(str(v) for v in val)))
            continue
        parts = expand(field, ws)
        for d in sorted(parts):
            if d < -ws[j]:
                witnesses.append(
                    "field %d has a homogeneous part of degree %d below -w_%d"
                    % (j + 1, d, j + 1))
        models[j] = parts[-ws[j]]
    ok = not witnesses
    if exact and adapted:
        orders = []
        orders_ok = True
        for k in range(n):
            ordk = function_order(RationalPoly.variable(n, k), pushed,
                                  n_max=ws[k] + 1)
            orders.append(ordk)
            if ordk != ws[k]:
                orders_ok = False
        if orders_ok != ok:
            raise ArithmeticError(
                "privileged verdicts disagree: homogeneous parts say %s but "
                "derivation orders say %s (orders=%s); this is a bug"
                % (ok, orders_ok, orders))
    return VerificationReport("privileged", ok, witnesses,
                              {"truncated": not exact}), models


def check_privileged(frame, change):
    """Are the coordinates u = change(x) privileged for the frame?

    Criterion: the pushed fields are adapted at 0 and each has lowest
    homogeneous part exactly at degree -w_j.  On exactly invertible changes
    the verdict is cross-checked against the derivation orders of the
    coordinate functions (which must then equal the weights).
    ``check_carnot`` returns this report of the same push in
    ``details["privileged"]``: ask it alone for both verdicts.
    """
    pushed, exact = _push_through(frame, change)
    report, _ = _privileged_inspection(pushed, exact)
    return report


def _carnot_residual(change, eps_change):
    """change . eps^{-1} - id clipped at weight r >= every violation's, as
    poly . (change.affine . eps.affine^{-1}) . q_eps: centred at 0."""
    ws, r = change.weights.weights, change.weights.r
    link = change.affine_polymap().compose(eps_change.affine_inverse_polymap())
    q_eps = invert_weight_triangular(eps_change.poly, ws)
    return change.poly.compose(link.compose(q_eps), ws, r) - PolyMap.identity(len(ws))


def _own_epsilon(frame, eps):
    """``eps`` if it is the frame's own epsilon chart; None builds that."""
    if eps is None:
        return epsilon(frame)
    got = eps.frame
    if got is not frame and (got.weights, got.base_point, got.fields) != (
            frame.weights, frame.base_point, frame.fields):
        raise ValueError("eps is the epsilon chart of another frame")
    return eps


def check_carnot(frame, change, eps=None):
    """Are the coordinates u = change(x) Carnot coordinates for the frame?

    Route A: the chart is privileged and the degree -w_j parts of the
    pushed fields are exactly the left-invariant model of their own
    structure constants.  Route B: the residual change(x) . eps^{-1} - id
    against the built-in Carnot chart raises every weight by one and has a
    vanishing differential at 0.  (A lone weight-raising linear term x_j in
    component k would pass the weight test as a function, yet it tilts the
    pushed frame at the origin -- X_j(0) picks up a spurious e_k -- so the
    chart is no longer adapted; both routes must reject it.)  The two
    verdicts must agree; witnesses come from both routes.  ``eps`` is the
    frame's own epsilon chart when given.
    """
    wv = frame.weights
    pushed, exact = _push_through(frame, change)
    priv, models = _privileged_inspection(pushed, exact)
    witnesses = list(priv.witnesses)
    constants = None
    if priv.ok:
        constants = model_structure_constants(models, wv)
        li = left_invariant_fields(constants)
        for j in range(wv.n):
            if models[j] != li[j]:
                witnesses.append(
                    "degree -w_%d part of field %d is %r, expected the "
                    "left-invariant model %r" % (j + 1, j + 1, models[j], li[j]))
    route_a = not witnesses

    residual = _carnot_residual(change, _own_epsilon(frame, eps).change)
    violations = ow_violations(residual, 1, wv.weights)
    for k, comp in enumerate(residual.components):
        for exp, coef in comp.sorted_terms():
            if sum(exp) == 1 and weighted_degree(exp, wv.weights) > wv.weights[k]:
                violations.append((k, exp, coef))
    route_b = not violations
    if route_a != route_b:
        raise ArithmeticError(
            "Carnot verdicts disagree: model-part route says %s, residual "
            "route says %s (violations=%s); this is a bug"
            % (route_a, route_b, violations[:3]))
    witnesses.extend("%s in component %d" % (monomial_str(exp, coef), k + 1)
                     for k, exp, coef in violations)
    return VerificationReport("carnot", route_a, witnesses,
                              {"privileged": priv, "constants": constants,
                               "residual_violations": violations,
                               "truncated": not exact})


# ---------------------------------------------------------------------------
# Random chart variants.
# ---------------------------------------------------------------------------

_COEF_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3),
              Fraction(3), Fraction(-3)]


def random_homogeneous_triangular(weights, rng, density=0.5):
    """Random weight-homogeneous unit-triangular map: component k is x_k
    plus terms of weighted degree exactly w_k with at least two factors."""
    wv = WeightVector(weights)
    ws = wv.weights
    n = wv.n
    comps = []
    for k in range(n):
        comp = RationalPoly.variable(n, k)
        for exp in iter_weighted_exponents(ws, ws[k], "eq"):
            if sum(exp) < 2:
                continue
            if rng.random() < density:
                comp = comp + RationalPoly.monomial(n, exp, rng.choice(_COEF_POOL))
        comps.append(comp)
    return check_unit_triangular(PolyMap(comps), wv)


def random_raising_perturbation(weights, rng):
    """Random map whose component k only has terms of weighted degree w_k + 1
    or w_k + 2, each with at least two factors and drawn with chance 0.4
    (the zero map is possible).  Linear monomials are excluded on purpose:
    a bare x_j with w_j > w_k raises the weight as a function but gives the
    map a nonzero differential at 0, and composing such a map onto a chart
    knocks the pushed frame off X_j(0) = e_j."""
    wv = WeightVector(weights)
    ws = wv.weights
    n = wv.n
    comps = []
    for k in range(n):
        comp = RationalPoly.zero(n)
        for extra in (1, 2):
            for exp in iter_weighted_exponents(ws, ws[k] + extra, "eq"):
                if sum(exp) < 2:
                    continue
                if rng.random() < 0.4:
                    comp = comp + RationalPoly.monomial(n, exp, rng.choice(_COEF_POOL))
        comps.append(comp)
    return PolyMap(comps)


def generate_privileged_variants(change, count, rng):
    """Charts that stay privileged: compose the polynomial factor with
    id + (homogeneous tail) + (weight-raising perturbation)."""
    wv = change.weights
    out = []
    for _ in range(count):
        hom = random_homogeneous_triangular(wv, rng)
        pert = random_raising_perturbation(wv, rng)
        outer = hom + pert
        out.append(change.compose_tail(outer))
    return out


def generate_carnot_variants(change, count, rng):
    """Charts that stay Carnot: compose with id + O_w(+1) only."""
    wv = change.weights
    out = []
    for _ in range(count):
        pert = random_raising_perturbation(wv, rng)
        outer = PolyMap.identity(wv.n) + pert
        out.append(change.compose_tail(outer))
    return out


def generate_adversarial_variants(change, count, rng):
    """Charts that must fail the Carnot check while staying privileged:
    compose with a nontrivial weight-homogeneous diffeomorphism."""
    wv = change.weights
    identity = PolyMap.identity(wv.n)
    has_room = any(sum(exp) >= 2
                   for k in range(wv.n)
                   for exp in iter_weighted_exponents(wv.weights, wv.weights[k], "eq"))
    if not has_room:
        raise ValueError("these weights admit no nontrivial homogeneous "
                         "diffeomorphism (step one)")
    out = []
    while len(out) < count:
        hom = random_homogeneous_triangular(wv, rng, density=0.7)
        if hom == identity:
            continue
        out.append(change.compose_tail(hom))
    return out


# ---------------------------------------------------------------------------
# Osculation.
# ---------------------------------------------------------------------------


def random_osculation_directions(weights, count, rng):
    """Pairs (x0, y0) of rational points of pseudo-norm exactly one."""
    wv = WeightVector(weights)

    def one_point():
        raw = [rng.randint(1, 9) for _ in range(wv.n)]
        total = sum(raw)
        point = []
        for j, c in enumerate(raw):
            mag = Fraction(c, total) ** wv.weights[j]
            point.append(mag if rng.random() < 0.5 else -mag)
        return tuple(point)

    return [(one_point(), one_point()) for _ in range(count)]


class OsculationEntry:
    def __init__(self, direction, r_track, rt_track):
        self.direction = direction
        self.r_track = r_track
        self.rt_track = rt_track

    @property
    def passed(self):
        return self.r_track.passed and self.rt_track.passed


class OsculationReport:
    def __init__(self, constants, t_grid, entries):
        self.constants = constants
        self.t_grid = t_grid
        self.entries = entries

    @property
    def passed(self):
        return bool(self.entries) and all(e.passed for e in self.entries)


def osculation_report(frame, n_directions=8, directions=None, rng=None,
                      t_grid=DEFAULT_T_GRID):
    """Does the tangent group osculate the frame at the base point?

    Work in the frame's own Carnot coordinates; for each direction (x0, y0)
    and scale t, compare the chart at y = delta_t y0 against the group
    translation: R = eps_y(delta_t x0) - (-y) . x  and the mirror residual
    Rt = eps_y^{-1}(delta_t x0) - y . x.  After rescaling by delta_{1/t}
    both must either vanish identically or decay like t (a DecayTrack with
    m = 1).  Scales where the frame matrix is singular at y are reported, not
    interpolated over.
    """
    wv = frame.weights
    ws = wv.weights
    if directions is None:
        if rng is None:
            raise ValueError("provide rng (or a seed-derived Random) or "
                             "explicit directions")
        directions = random_osculation_directions(wv, n_directions, rng)
    grid = tuple(t_grid)
    eps0 = epsilon(frame)
    work = eps0.carnot_frame
    constants = eps0.constants
    entries = []
    for x0, y0 in directions:
        ts, r_vals, rt_vals, skipped = [], [], [], []
        r_exact = True
        rt_exact = True
        for t in grid:
            x = dilate(x0, t, ws)
            y = dilate(y0, t, ws)
            try:
                ey = epsilon(Frame(work.fields, wv, y, check=False))
            except DegenerateFrameError:
                skipped.append(t)
                continue
            minus_y = tuple(-v for v in y)
            r = tuple(p - q for p, q in
                      zip(ey.change.apply(x), group_product(minus_y, x, constants)))
            rt = tuple(p - q for p, q in
                       zip(ey.change.inverse_apply(x), group_product(y, x, constants)))
            r_scaled = dilate(r, Fraction(1) / t, ws)
            rt_scaled = dilate(rt, Fraction(1) / t, ws)
            ts.append(t)
            r_vals.append(max(abs(float(c)) for c in r_scaled))
            rt_vals.append(max(abs(float(c)) for c in rt_scaled))
            r_exact = r_exact and all(c == 0 for c in r)
            rt_exact = rt_exact and all(c == 0 for c in rt)
        entries.append(OsculationEntry(
            (x0, y0),
            DecayTrack("chart vs translation", 1, ts, r_vals, r_exact, skipped),
            DecayTrack("inverse chart vs translation", 1, ts, rt_vals,
                       rt_exact, skipped)))
    return OsculationReport(constants, grid, entries)


# ---------------------------------------------------------------------------
# Numeric chart classification.
# ---------------------------------------------------------------------------


def numeric_chart_report(frame, kind="first", m=1, eps=None, directions=None,
                         n_directions=4, rng=None, t_grid=DEFAULT_T_GRID):
    """Scaling classification of an RK4-sampled canonical chart.

    The residual g(xi) = eps(F(xi)) - xi is measured directly against the
    exact Carnot chart, so no polynomial fit enters the verdict; g must
    raise every weight by m (slope test as in ow_scaling_test).  F is
    sampled at every dilated direction of the grid in one stacked call.
    """
    wv = frame.weights
    sampler = ChartSampler(frame, kind)
    eps = _own_epsilon(frame, eps)
    if directions is None:
        if rng is None:
            raise ValueError("provide rng or explicit directions")
        directions = [x0 for x0, _ in
                      random_osculation_directions(wv, n_directions, rng)]

    ws, ts = wv.weights, tuple(t_grid)
    points = [dilate(d, t, ws) for d in directions for t in ts]
    residual = {xi: tuple(float(a) - float(b) for a, b in zip(eps.change.apply(x), xi))
                for xi, x in zip(points, sampler(points) if points else ())}
    return ow_scaling_test(residual.__getitem__, m, ws, directions, ts)


def group_translation_identity(constants, base_point, sample_points):
    """On the group's own frame, the Carnot chart at a is exactly
    x -> (-a) . x: at each sample point, and as one polynomial identity in
    x, whose mismatch is listed last with the coordinate variables as its
    point.  Returns the list of mismatches (empty when exact)."""
    frame = group_frame(constants, base_point)
    eps = epsilon(frame)
    minus_a = tuple(-Fraction(v) for v in base_point)
    bad = []
    for x in sample_points:
        got = eps.change.apply(x)
        want = group_product(minus_a, tuple(Fraction(v) for v in x), constants)
        if got != want:
            bad.append((x, got, want))
    n = constants.n
    xs = tuple(RationalPoly.variable(n, j) for j in range(n))
    got = eps.change.forward_polymap()
    want = PolyMap(group_product([RationalPoly.const(n, c) for c in minus_a], xs, constants))
    if got != want:
        bad.append((xs, got.components, want.components))
    return bad
