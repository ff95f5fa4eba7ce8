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
from .groups import (StructureConstants, group_product,
                     left_invariant_fields, validate_algebra)
from .poly import PolyMap, RationalPoly, TriangularMap, monomial_str
from .vfields import DegenerateFrameError, Frame, bracket as vf_bracket, expand


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


def _witness(k, exp, coef):
    return "%s in component %d" % (monomial_str(exp, coef), k + 1)


def _push_through(frame, change):
    origin = (Fraction(0),) * frame.weights.n
    if change.apply(frame.base_point) != origin:
        raise ValueError("change does not map the frame's base point to the "
                         "origin; center the chart first")
    exact = change.is_exactly_invertible
    # A weight-W truncated inverse is exact below weight W+1, and every
    # substitution error then carries weight >= W+1 into the pushed
    # coefficients.  The verdicts only read coefficient monomials of
    # weighted degree <= w_k <= r (parts of homogeneous degree <= 0),
    # and no route brackets truncated fields, so r + 2 leaves margin.
    bound = None if exact else frame.weights.r + 2
    return transform_frame(frame, change, bound), exact


def _privileged_inspection(pushed, exact):
    """Homogeneous-part route, with a derivation-order cross-check on exact
    pushes.  Returns (report, model_parts)."""
    wv = pushed.weights
    ws = wv.weights
    n = wv.n
    origin = (Fraction(0),) * n
    witnesses = []
    adapted = True
    models = [None] * n
    for j, field in enumerate(pushed.fields):
        val = field.evaluate(origin)
        unit = tuple(Fraction(1 if k == j else 0) for k in range(n))
        if val != unit:
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
        if -ws[j] not in parts:
            witnesses.append("field %d has no part of degree -w_%d"
                             % (j + 1, j + 1))
        else:
            models[j] = parts[-ws[j]]
    ok = not witnesses
    if exact and adapted:
        from .vfields import function_order
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
    """
    pushed, exact = _push_through(frame, change)
    report, _ = _privileged_inspection(pushed, exact)
    return report


def _tangent_constants_from_models(models, weights):
    wv = weights if isinstance(weights, WeightVector) else WeightVector(weights)
    n = wv.n
    origin = (Fraction(0),) * n
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = vf_bracket(models[i], models[j]).evaluate(origin)
            for k, c in enumerate(vec):
                if c:
                    table[(i, j, k)] = c
    constants = StructureConstants(wv.weights, table)
    report = validate_algebra(constants)
    if not report.ok:
        raise ArithmeticError(
            "tangent structure constants fail grading/Jacobi: %s"
            % "; ".join(report.failures[:3]))
    return constants


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
    verdicts must agree; witnesses come from both routes.
    """
    wv = frame.weights
    pushed, exact = _push_through(frame, change)
    priv, models = _privileged_inspection(pushed, exact)
    witnesses = list(priv.witnesses)
    constants = None
    if priv.ok:
        constants = _tangent_constants_from_models(models, wv)
        li = left_invariant_fields(constants)
        for j in range(wv.n):
            if models[j] != li[j]:
                witnesses.append(
                    "degree -w_%d part of field %d is %r, expected the "
                    "left-invariant model %r" % (j + 1, j + 1, models[j], li[j]))
    route_a = not witnesses

    if eps is None:
        eps = epsilon(frame)
    # every possible violation has weighted degree <= w_k <= r, so the
    # composition may be clipped at r without losing any witness
    residual = change.forward_polymap().compose(
        eps.change.inverse_polymap(), wv.weights, wv.r) - PolyMap.identity(wv.n)
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
    witnesses.extend(_witness(k, exp, coef) for k, exp, coef in violations)
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
    wv = weights if isinstance(weights, WeightVector) else WeightVector(weights)
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
    return TriangularMap(comps, wv)


def random_raising_perturbation(weights, rng, max_extra=2, density=0.4):
    """Random map whose component k only has terms of weighted degree
    w_k + 1 .. w_k + max_extra, each with at least two factors (the zero map
    is a possible outcome).  Linear monomials are excluded on purpose: a
    bare x_j with w_j > w_k raises the weight as a function but gives the
    map a nonzero differential at 0, and composing such a map onto a chart
    knocks the pushed frame off X_j(0) = e_j."""
    wv = weights if isinstance(weights, WeightVector) else WeightVector(weights)
    ws = wv.weights
    n = wv.n
    comps = []
    for k in range(n):
        comp = RationalPoly.zero(n)
        for extra in range(1, max_extra + 1):
            for exp in iter_weighted_exponents(ws, ws[k] + extra, "eq"):
                if sum(exp) < 2:
                    continue
                if rng.random() < density:
                    comp = comp + RationalPoly.monomial(n, exp, rng.choice(_COEF_POOL))
        comps.append(comp)
    return PolyMap(comps)


def _add_maps(a, b):
    return PolyMap([p + q for p, q in zip(a.components, b.components)])


def generate_privileged_variants(change, count, rng):
    """Charts that stay privileged: compose the polynomial factor with
    id + (homogeneous tail) + (weight-raising perturbation)."""
    wv = change.weights
    out = []
    for _ in range(count):
        hom = random_homogeneous_triangular(wv, rng)
        pert = random_raising_perturbation(wv, rng)
        outer = _add_maps(hom, pert)
        out.append(change.compose_tail(outer))
    return out


def generate_carnot_variants(change, count, rng):
    """Charts that stay Carnot: compose with id + O_w(+1) only."""
    wv = change.weights
    out = []
    for _ in range(count):
        pert = random_raising_perturbation(wv, rng)
        outer = _add_maps(PolyMap.identity(wv.n), pert)
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
        if PolyMap(hom.components) == identity:
            continue
        out.append(change.compose_tail(hom))
    return out


# ---------------------------------------------------------------------------
# Osculation.
# ---------------------------------------------------------------------------


def random_osculation_directions(weights, count, rng):
    """Pairs (x0, y0) of rational points of pseudo-norm exactly one."""
    wv = weights if isinstance(weights, WeightVector) else WeightVector(weights)

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
    work = transform_frame(frame, eps0.change)
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
                      zip(ey.apply(x), group_product(minus_y, x, constants)))
            rt = tuple(p - q for p, q in
                       zip(ey.inverse_apply(x), group_product(y, x, constants)))
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
                         n_directions=4, rng=None, step=1e-3,
                         t_grid=DEFAULT_T_GRID):
    """Scaling classification of an RK4-sampled canonical chart.

    The residual g(xi) = eps(F(xi)) - xi is measured directly against the
    exact Carnot chart, so no polynomial fit enters the verdict; g must
    raise every weight by m (slope test as in ow_scaling_test).
    """
    wv = frame.weights
    if eps is None:
        eps = epsilon(frame)
    if directions is None:
        if rng is None:
            raise ValueError("provide rng or explicit directions")
        directions = [x0 for x0, _ in
                      random_osculation_directions(wv, n_directions, rng)]
    sampler = ChartSampler(frame, kind, step)

    def g(xi):
        x = sampler(xi)
        u = eps.apply(tuple(Fraction(v) for v in x))
        return tuple(float(a) - float(b) for a, b in zip(u, xi))

    return ow_scaling_test(g, m, wv.weights, wv.weights, directions, t_grid)


def group_translation_identity(constants, base_point, sample_points):
    """On the group's own frame, the Carnot chart at a is exactly
    x -> (-a) . x.  Returns the list of mismatches (empty when exact)."""
    from .groups import group_frame

    frame = group_frame(constants, base_point)
    eps = epsilon(frame)
    minus_a = tuple(-Fraction(v) for v in base_point)
    bad = []
    for x in sample_points:
        got = eps.apply(x)
        want = group_product(minus_a, tuple(Fraction(v) for v in x), constants)
        if got != want:
            bad.append((x, got, want))
    return bad
