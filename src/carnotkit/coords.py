"""Coordinate constructions on polynomial H-frames.

The chain is: an affine adaptation at the base point, the triangular
correction psi that makes the coordinates privileged, the homogeneous
model fields, and the exponential/logarithm of the model basis, whose
composition is the epsilon chart.  Exact flows of triangular systems give
canonical coordinates of the first and second kind; one stacked fixed-step
RK4 loop backs the numeric variants.
"""

from fractions import Fraction
from functools import cached_property
from itertools import groupby
import math
import random

from . import linalg
from .graded import (WeightVector, as_weights, iter_weighted_exponents,
                     multi_factorial, weighted_degree)
from .groups import model_structure_constants
from .poly import (PolyMap, RationalPoly, check_unit_triangular, invert_triangular,
                   invert_weight_triangular, substitute_all, term_sort_key,
                   weight_shape)
from .vfields import (Frame, PolyVectorField, adaptation_defect, expand,
                      model_field, push_fields)


def _affine_polymap(matrix, shift):
    """x -> matrix x + shift as a PolyMap, for Fraction entries."""
    n = len(shift)
    exps = [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return PolyMap([RationalPoly._from_terms(n, {e: c for e, c in zip(exps, (s, *row)) if c})
                    for row, s in zip(matrix, shift)])


class CoordinateChange:
    """Composite change of coordinates m = poly . affine, with
    affine(x) = M (x - offset).

    ``poly`` is a unipotent polynomial map: it fixes the origin and its
    differential there is the identity plus strictly weight-raising linear
    terms.  When every correction term of component k only involves
    variables of weight < w_k, the change has an exact polynomial inverse;
    otherwise only truncated inverses are available and the caller must say
    how far to expand them.
    """

    def __init__(self, matrix, offset, weights, poly=None):
        self.weights = WeightVector(weights)
        n = self.weights.n
        self.matrix = [[Fraction(x) for x in row] for row in matrix]
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ValueError("matrix must be %d x %d" % (n, n))
        self.matrix_inv = linalg.mat_inv(self.matrix)  # raises when singular
        self.offset = tuple(Fraction(x) for x in offset)
        if len(self.offset) != n:
            raise ValueError("offset has wrong dimension")
        self.poly = poly if poly is not None else PolyMap.identity(n)
        if self.poly.n_in != n or self.poly.n_out != n:
            raise ValueError("polynomial factor must be a square map in %d variables" % n)
        self._validate_unipotent()

    def _validate_unipotent(self):
        ws = self.weights.weights
        if any(self.poly.constant_part()):
            raise ValueError("polynomial factor must fix the origin")
        for k, row in enumerate(self.poly.linear_matrix()):
            for j, entry in enumerate(row):
                if j == k and entry != 1:
                    raise ValueError("polynomial factor must have unit diagonal")
                if j != k and entry and ws[j] <= ws[k]:
                    raise ValueError(
                        "linear term x%d in component %d is not weight-raising"
                        % (j + 1, k + 1))

    @classmethod
    def identity(cls, weights):
        wv = WeightVector(weights)
        return cls(linalg.identity_matrix(wv.n), (0,) * wv.n, wv)

    @cached_property
    def is_exactly_invertible(self):
        """True when every correction only involves lower-weight variables."""
        _, ranks = weight_shape(self.poly.components, self.weights.weights)
        return all(rank < 2 for rank in ranks)

    def affine_polymap(self):
        """u = M (x - offset) as a PolyMap in x."""
        return _affine_polymap(self.matrix,
                               [-v for v in linalg.mat_vec(self.matrix, self.offset)])

    def affine_inverse_polymap(self):
        """x = offset + M^{-1} u as a PolyMap in u."""
        return _affine_polymap(self.matrix_inv, self.offset)

    def forward_polymap(self):
        return self.poly.compose(self.affine_polymap())

    def apply(self, point):
        point = [Fraction(x) for x in point]
        if len(point) != self.weights.n:
            raise ValueError("point has wrong dimension")
        return self.poly.evaluate(linalg.mat_vec(
            self.matrix, [x - o for x, o in zip(point, self.offset)]))

    def inverse_polymap(self, max_weight=None):
        """Polynomial inverse: the polynomial factor inverted exactly, or
        modulo weighted degree > max_weight when it is given (which it must
        be when there is no exact inverse), then the affine inverse."""
        q = invert_weight_triangular(self.poly, self.weights.weights, max_weight)
        return self.affine_inverse_polymap().compose(q)

    def inverse_apply(self, point):
        if not self.is_exactly_invertible:
            raise ValueError("a change with no exact inverse has no pointwise "
                             "inverse; inverse_polymap(max_weight) truncates it")
        q = invert_weight_triangular(self.poly, self.weights.weights)
        return self.affine_inverse_polymap().evaluate(
            q.evaluate(tuple(Fraction(x) for x in point)))

    def compose_tail(self, outer):
        """New change with the polynomial factor outer . poly (affine kept)."""
        return CoordinateChange(self.matrix, self.offset, self.weights,
                                outer.compose(self.poly))

    def __eq__(self, other):
        if not isinstance(other, CoordinateChange):
            return NotImplemented
        return (self.weights == other.weights and self.matrix == other.matrix
                and self.offset == other.offset and self.poly == other.poly)

    def __repr__(self):
        return "CoordinateChange(n=%d, offset=%s)" % (
            self.weights.n, tuple(str(x) for x in self.offset))


def linearize(frame):
    """Affine adaptation T(x) = (B(a)^t)^{-1} (x - a) at the base point.

    Returns (change, pushed frame); the pushed fields satisfy X_j(0) = d_j.
    Raises DegenerateFrameError when B(a) is singular.
    """
    change = CoordinateChange(frame.adapted_matrix(), frame.base_point, frame.weights)
    return change, _push_affine(frame, change)


def _push_affine(frame, change):
    """Stage 1 of transform_frame: push through the affine factor only."""
    forward, inverse = change.affine_polymap(), change.affine_inverse_polymap()
    return Frame(push_fields(frame.fields, forward, inverse),
                 frame.weights, forward.evaluate(frame.base_point), check=False)


def transform_frame(frame, change):
    """Push every frame field through the change; exact when the change
    inverts exactly, else truncated at weighted degree r + 2.  Two stages:
    the affine factor, then the unipotent factor, whose inverse has no
    constant terms, so a weight clip prunes from the first product on.

    A weight-W truncated inverse is exact below weight W + 1, and every
    substitution error then carries weight >= W + 1 into the pushed
    coefficients.  The privileged and Carnot verdicts only read coefficient
    monomials of weighted degree <= w_k <= r (parts of homogeneous degree
    <= 0), and no route brackets truncated fields, so r + 2 leaves margin.
    """
    adapted = _push_affine(frame, change)
    ws = frame.weights.weights
    bound = None if change.is_exactly_invertible else frame.weights.r + 2
    inverse = invert_weight_triangular(change.poly, ws, bound)
    return Frame(push_fields(adapted.fields, change.poly, inverse, ws, bound),
                 frame.weights, change.poly(adapted.base_point), check=False)


def psi_map(frame):
    """Triangular correction turning a linearly adapted frame at 0 into
    privileged coordinates.

    Component k is x_k + sum a_{k,alpha} x^alpha over |alpha| >= 2 and
    <alpha> < w_k; the coefficients are fixed layer by layer (increasing
    |alpha|) by requiring that all composed derivations X^alpha of weight
    below w_k kill the new coordinate at the origin.  With c the component
    built from the lower layers,

        alpha! a_{k,alpha} = -X^alpha(c)|_0,

    since a monomial x^beta of the same layer contributes alpha! a_alpha to
    X^alpha(x^beta)|_0 when beta = alpha and nothing otherwise; in layer
    |alpha| = m the i-th derivation of a chain keeps only degree <= m - i,
    and the chains of a layer share prefixes.  For step-2 weights there is
    nothing to correct and psi is the identity.
    """
    ws = frame.weights.weights
    n = frame.weights.n
    if any(frame.base_point):
        raise ValueError("psi_map expects the frame to be based at the origin")
    for j, x_field in enumerate(frame.fields):
        if adaptation_defect(x_field, j) is not None:
            raise ValueError("frame is not linearly adapted at the origin "
                             "(field %d)" % (j + 1))
    comps = []
    for k in range(n):
        alphas = sorted((alpha for d in range(2, ws[k])
                         for alpha in iter_weighted_exponents(ws, d, "eq")
                         if sum(alpha) >= 2), key=lambda a: (sum(a), a))
        comp = RationalPoly.variable(n, k)
        for m, layer in groupby(alphas, key=sum):
            chains = {(): comp}  # applied field indices -> derived polynomial
            terms = {}
            for alpha in layer:
                seq = ()  # X^alpha(c) = X_1^{a_1} ... X_n^{a_n} c, X_n first
                for j in (j for j in reversed(range(n)) for _ in range(alpha[j])):
                    prefix, seq = seq, seq + (j,)
                    if seq not in chains:
                        chains[seq] = frame.fields[j].apply(chains[prefix], m - len(seq))
                value = chains[seq].terms.get((0,) * n)
                if value:
                    terms[alpha] = -value / multi_factorial(alpha)
            comp = comp + RationalPoly(n, terms)
        comps.append(comp)
    return check_unit_triangular(PolyMap(comps), ws)


# ---------------------------------------------------------------------------
# Exact flows of triangular systems.
# ---------------------------------------------------------------------------


def _check_canonical_shape(fields, weights):
    ws = as_weights(weights)
    n = len(ws)
    if len(fields) != n:
        raise ValueError("need exactly n fields")
    for j, x_field in enumerate(fields):
        for k, coef in enumerate(x_field.coefficients):
            for exp in coef.terms:
                for l, e in enumerate(exp):
                    if e and ws[l] >= ws[k]:
                        raise ValueError(
                            "field %d: coefficient of d%d involves x%d of "
                            "weight >= w_%d; the system is not triangular"
                            % (j + 1, k + 1, l + 1, k + 1))
            if ws[k] <= ws[j]:
                want = RationalPoly.const(n, 1 if k == j else 0)
                if coef != want:
                    raise ValueError(
                        "field %d does not have the canonical d%d leading "
                        "shape" % (j + 1, j + 1))


def _integrate_last(p):
    """Antiderivative in the last variable, vanishing at 0."""
    out = {}
    for exp, c in p.terms.items():
        e = exp[-1]
        out[exp[:-1] + (e + 1,)] = c / (e + 1)
    return RationalPoly(p.n, out)


def _time_one(fields, ws, y, xi):
    """x(1; y, xi) for x' = sum_j xi_j X_j(x), x(0) = y, as a PolyMap in the
    variables of the polynomial lists y and xi, solved in those variables and
    a time t, appended last.  In nondecreasing weight order each right-hand
    side only involves solved components, so every integral is a polynomial
    in t; only the fields with xi_j != 0 enter.  Then t = 1 merges exponents.
    """
    _check_canonical_shape(fields, ws)
    m = y[0].n + 1
    lift = lambda p: RationalPoly._from_terms(m, {e + (0,): c for e, c in p.terms.items()})
    active = [(lift(c), x) for c, x in zip(xi, fields) if c]
    zero = RationalPoly.zero(m)
    solution = [zero] * len(ws)
    for k in sorted(range(len(ws)), key=lambda i: ws[i]):
        column = substitute_all([x.coefficients[k] for _, x in active], solution)
        rhs = sum((c * b for (c, _), b in zip(active, column) if b), zero)
        solution[k] = lift(y[k]) + _integrate_last(rhs)
    return PolyMap([RationalPoly(m - 1, [(e[:-1], c) for e, c in p.terms.items()])
                    for p in solution])


def exact_flow(fields, weights):
    """Exact polynomial flow of a triangular system in canonical shape: the
    flow of x' = sum_j xi_j X_j(x), x(0) = y, as a PolyMap in the 2n + 1
    variables (y_1..y_n, xi_1..xi_n, t): x(t; y, xi) = x(1; y, t xi)."""
    ws = WeightVector(weights).weights
    xs = PolyMap.identity(2 * len(ws) + 1).components
    return _time_one(fields, ws, xs[:len(ws)], [xs[-1] * v for v in xs[len(ws):-1]])


def exp_map(fields, weights):
    """Time-one flow from the origin as a map in xi: the exponential of the
    basis.  Requires a homogeneous model basis; the result is then a
    weight-homogeneous unit-triangular map."""
    wv = WeightVector(weights)
    xi = PolyMap.identity(wv.n).components
    out = _time_one(fields, wv.weights, [RationalPoly.zero(wv.n)] * wv.n, xi)
    try:
        check_unit_triangular(out, wv)
    except ValueError as exc:
        raise ValueError("exponential map shape violation (the fields are "
                         "not a homogeneous model basis): %s" % exc)
    _check_homogeneous(out, wv.weights)
    return out


def _check_homogeneous(m, ws):
    for k, comp in enumerate(m.components):  # x_k itself has weighted degree w_k
        for exp in comp.terms:
            if weighted_degree(exp, ws) != ws[k]:
                raise ValueError(
                    "component %d carries a term of weighted degree != w_k; "
                    "the map is not weight-homogeneous" % (k + 1))


def log_map(m, weights):
    """Inverse of a homogeneous exponential; again weight-homogeneous
    unit-triangular."""
    _check_homogeneous(m, as_weights(weights))
    return invert_triangular(m, weights)


# ---------------------------------------------------------------------------
# The epsilon chart.
# ---------------------------------------------------------------------------


class EpsilonResult:
    """The epsilon chart and the parts of its pipeline that callers read.

    ``change`` is the chart m(x) = eps_hat((B^t)^{-1}(x - a)); the model
    fields, their exponential, phi = its logarithm, their structure
    constants and the privileged frame are kept for inspection and reuse.
    The frame in Carnot coordinates is pushed through phi on first read.
    """

    def __init__(self, change, model_fields, exp_model, phi, constants,
                 privileged_frame):
        self.change = change
        self.model_fields = model_fields
        self.exp_model = exp_model
        self.phi = phi
        self.constants = constants
        self.privileged_frame = privileged_frame

    @cached_property
    def carnot_frame(self):
        privileged = self.privileged_frame
        fields = push_fields(privileged.fields, self.phi, self.exp_model)
        return Frame(fields, privileged.weights, privileged.base_point, check=False)


def epsilon(frame):
    """Carnot coordinates at the frame's base point.

    Pipeline: affine adaptation, psi correction, model fields of the
    privileged frame, phi = log of their exponential; the chart is
    phi . psi . T_a and its polynomial factor is unit-triangular, so the
    inverse is exact: x = a + B(a)^t (triangular map).  The tangent
    constants are the brackets of the model fields at the origin.
    """
    affine, adapted = linearize(frame)
    psi = psi_map(adapted)
    wv = frame.weights
    psi_inv = invert_triangular(psi, wv)
    privileged_fields = push_fields(adapted.fields, psi, psi_inv)
    models = [model_field(x, j, wv.weights)
              for j, x in enumerate(privileged_fields)]
    exp_model = exp_map(models, wv)
    phi = invert_triangular(exp_model, wv)
    change = CoordinateChange(affine.matrix, affine.offset, wv, phi.compose(psi))
    privileged_frame = Frame(privileged_fields, wv, (0,) * wv.n, check=False)
    return EpsilonResult(change, models, exp_model, phi,
                         model_structure_constants(models, wv), privileged_frame)


def convert_nilpotent_approx(models, targets, weights):
    """The polynomial diffeomorphism carrying one homogeneous model basis
    onto another with the same constants: phi = exp_targets . exp_models^{-1}.

    Both bases must be adapted at 0, homogeneous of degree -w_j, and have
    identical brackets at the origin that form a graded Lie algebra
    (ValueError otherwise); the returned triangular map pushes
    models[j] exactly onto targets[j] (verified internally).
    """
    wv = WeightVector(weights)
    ws = wv.weights
    n = wv.n
    for label, basis in (("source", models), ("target", targets)):
        if len(basis) != n:
            raise ValueError("%s basis must have %d fields" % (label, n))
        for j, x_field in enumerate(basis):
            if adaptation_defect(x_field, j) is not None:
                raise ValueError("%s basis field %d is not adapted at 0"
                                 % (label, j + 1))
            parts = expand(x_field, ws)
            if set(parts) != {-ws[j]}:
                raise ValueError("%s basis field %d is not homogeneous of "
                                 "degree -w_%d" % (label, j + 1, j + 1))
    try:
        source = model_structure_constants(models, wv)
        target = model_structure_constants(targets, wv)
    except ArithmeticError as exc:
        raise ValueError("basis brackets at 0 are not a model algebra: %s"
                         % exc) from exc
    if source != target:
        (i, j, _), _ = min(set(source.table.items()) ^ set(target.table.items()))
        raise ValueError("bases have different structure constants "
                         "([X%d, X%d] differs at 0)" % (i + 1, j + 1))
    exp_x = exp_map(models, wv)
    exp_y = exp_map(targets, wv)
    phi = check_unit_triangular(exp_y.compose(invert_triangular(exp_x, wv)), wv)
    phi_inv = invert_triangular(phi, wv)
    if push_fields(models, phi, phi_inv) != list(targets):
        raise ArithmeticError("model conversion failed to match the "
                              "target basis; this is a bug")
    return phi


# ---------------------------------------------------------------------------
# Canonical coordinates of the first and second kind.
# ---------------------------------------------------------------------------


class ChartResult:
    """An exact canonical chart: its CoordinateChange and the forward
    coordinate map xi -> x it inverts."""

    def __init__(self, change, forward):
        self.change = change
        self.forward = forward


def _package_chart(frame, forward):
    """The chart inverting the forward map xi -> x, as a
    CoordinateChange: T_a . forward, with T_a(x) = (B(a)^t)^{-1}(x - a),
    fixes the origin and is unipotent, and its exact inverse is the
    change's polynomial factor."""
    m, a = frame.adapted_matrix(), frame.base_point
    t_a = _affine_polymap(m, [-v for v in linalg.mat_vec(m, a)])
    chart = invert_weight_triangular(t_a.compose(forward), frame.weights.weights)
    return ChartResult(CoordinateChange(m, a, frame.weights, chart), forward)


def canonical_first_kind(frame):
    """Chart of canonical coordinates of the first kind at the base point:
    the inverse of xi -> (time-one flow of sum_j xi_j X_j from a).

    Needs the frame in canonical triangular shape.
    """
    y = [RationalPoly.const(frame.n, v) for v in frame.base_point]
    xi = PolyMap.identity(frame.n).components
    return _package_chart(frame, _time_one(frame.fields, frame.weights.weights, y, xi))


def canonical_second_kind(frame):
    """Chart of canonical coordinates of the second kind: the inverse of

        x -> exp(x_1 X_1) . exp(x_2 X_2) ... exp(x_n X_n)(a),

    the innermost factor acting first: n single-field time-one flows.
    Privileged, but never a Carnot chart once the step exceeds one.
    """
    units = PolyMap.identity(frame.n).components
    current = [RationalPoly.const(frame.n, v) for v in frame.base_point]
    for j in reversed(range(frame.n)):
        xi = [x if l == j else x * 0 for l, x in enumerate(units)]
        current = _time_one(frame.fields, frame.weights.weights, current, xi).components
    return _package_chart(frame, PolyMap(current))


# ---------------------------------------------------------------------------
# Numeric harness: one stacked RK4 loop and fitted charts; only it loads numpy.
# ---------------------------------------------------------------------------


def _monomials(x, exps):
    """x^E: the product of x ** e over each row e of the exponent matrix
    E, for a point x or along the last axis of a stack of points."""
    return (x[..., None, :] ** exps).prod(-1)


def _float_frame(fields):
    """(E, C) with B(x) = C . x^E in floats: E is the (T, n) matrix of
    every exponent in the fields and C the (m, n, T) tensor of their
    coefficients, so field j at x is C[j] @ _monomials(x, E)."""
    import numpy as np
    n = fields[0].n
    exps = sorted({exp for f in fields for p in f.coefficients for exp in p.terms})
    column = {exp: t for t, exp in enumerate(exps)}
    coeffs = np.zeros((len(fields), n, len(exps)))
    for j, f in enumerate(fields):
        for k, p in enumerate(f.coefficients):
            for exp, c in p.terms.items():
                coeffs[j, k, column[exp]] = float(c)
    return np.array(exps, dtype=float).reshape(len(exps), n), coeffs


MAX_RK4_STEPS = 10 ** 6
MAX_FIT_ENTRIES = 2 * 10 ** 6  # samples x basis monomials of one least-squares fit
MAX_OSCULATION_DIRECTIONS = 64  # `carnot osculate`: one epsilon chart per direction and scale


def _rk4_counts(times, step):
    """ceil(|t| / step) per time, once the step and the times pass the checks."""
    import numpy as np
    step, t_max = float(step), float(np.abs(times).max(initial=0.0))  # nan stays nan
    if not 0 < step < math.inf:
        raise ValueError("RK4 step must be positive and finite, got %r" % step)
    if not math.isfinite(t_max):
        raise ValueError("RK4 time must be finite, got %r" % t_max)
    if t_max / step > MAX_RK4_STEPS:
        raise ValueError("RK4 over time %r with step %r needs more than %d steps"
                         % (t_max, step, MAX_RK4_STEPS))
    return np.ceil(np.abs(times) / step)


def _rk4(coeffs, exps, y0, times, step):
    """Classic RK4 for x' = coeffs @ x^E on a stack: row s of y0 (S, n) takes
    ceil(|t_s| / step) equal steps through time times[s], then stays put;
    coeffs is (n, T), shared, or (S, n, T), one per row.  Checks come first,
    and each row's velocity is the matrix-vector product a lone row takes."""
    import numpy as np
    times = np.asarray(times, dtype=float)
    counts = _rk4_counts(times, step)
    order = np.argsort(-counts, kind="stable")  # the moving rows are a prefix
    times, counts = times[order], counts[order]
    coeffs = coeffs[order] if coeffs.ndim == 3 else coeffs
    if len(set(times.tolist())) == 1:  # one schedule: Python float constants
        h = times[0].item() / max(int(counts[0]), 1)
    else:
        h = (times / np.maximum(counts, 1))[:, None, None]
    half, sixth = 0.5 * h, h / 6.0
    x = out = np.array(y0, dtype=float)[order, :, None]  # (S, n, 1) columns
    for i in range(int(counts.max(initial=0))):
        if counts[len(x) - 1] <= i:  # rows whose steps are done stay put
            moving = int((counts > i).sum())
            x, h, half, sixth = x[:moving], h[:moving], half[:moving], sixth[:moving]
            coeffs = coeffs[:moving] if coeffs.ndim == 3 else coeffs
        k1 = coeffs @ (x.transpose(0, 2, 1) ** exps).prod(-1, keepdims=True)
        k2 = coeffs @ ((x + half * k1).transpose(0, 2, 1) ** exps).prod(-1, keepdims=True)
        k3 = coeffs @ ((x + half * k2).transpose(0, 2, 1) ** exps).prod(-1, keepdims=True)
        k4 = coeffs @ ((x + h * k3).transpose(0, 2, 1) ** exps).prod(-1, keepdims=True)
        x += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out[np.argsort(order), :, 0]


def numeric_flow(field, y, t_total, step=1e-3):
    """Classic fixed-step RK4 endpoint of x' = X(x), x(0) = y (one _rk4 row)."""
    exps, coeffs = _float_frame([field])
    return tuple(_rk4(coeffs[0], exps, [y], [t_total], step)[0].tolist())


def combined_field(fields, xi):
    """sum_j xi_j X_j with exact rational coefficients."""
    out = PolyVectorField.zero(fields[0].n)
    for c, f in zip(xi, fields):
        c = Fraction(c)
        if c:
            out = out + f * c
    return out


class NumericChart:
    """Canonical chart built from RK4 samples and a least-squares fit.

    The chart is represented as a polynomial in u = x - a of total degree
    bounded by the step of the grading plus one, sampled on a box of radius
    1/4; fitted coefficients below 1e-8 are zeroed so fit noise stays out
    of downstream decay tests.
    """

    def __init__(self, kind, weights, base_point, degree, box, basis, coeffs,
                 step, samples):
        self.kind = kind
        self.weights = weights
        self.base_point = base_point
        self.degree = degree
        self.box = box
        self.basis = basis
        self.coeffs = coeffs  # (n_basis, n) float array
        self.step = step
        self.samples = samples

    @classmethod
    def build(cls, frame, kind, degree=None, box=0.25, samples=None,
              step=1e-3, rng=None):
        import numpy as np
        wv = frame.weights
        n = wv.n
        if degree is None:
            degree = wv.r + 1
        if degree < 1:
            raise ValueError("fit degree must be at least 1, got %r" % degree)
        box = float(box)
        if not 0 < box < math.inf:
            raise ValueError("sample box must be positive and finite, got %r" % box)
        if rng is None:
            rng = random.Random(0xC0FFEE)
        size = math.comb(n + degree, n)  # monomials of degree <= degree
        count = samples if samples is not None else 3 * size
        if count < size:
            raise ValueError("%d samples cannot fit %d basis monomials" % (count, size))
        if count * size > MAX_FIT_ENTRIES:
            raise ValueError("%d samples of %d basis monomials exceed the cap of %d "
                             "entries" % (count, size, MAX_FIT_ENTRIES))
        basis = sorted(iter_weighted_exponents((1,) * n, degree, "le"), key=term_sort_key)
        sampler = ChartSampler(frame, kind, step)
        xis = np.array([[rng.uniform(-box, box) for _ in range(n)] for _ in range(count)])
        a_mat = _monomials(sampler(xis) - sampler.base, np.array(basis, dtype=float))
        coeffs, _, _, _ = np.linalg.lstsq(a_mat, xis, rcond=None)
        coeffs[np.abs(coeffs) < 1e-8] = 0.0
        return cls(kind, wv, tuple(frame.base_point), degree, box,
                   basis, coeffs, float(step), count)

    def evaluate(self, x):
        import numpy as np
        u = np.array(x, dtype=float) - np.array(self.base_point, dtype=float)
        return tuple((_monomials(u, np.array(self.basis, dtype=float)) @ self.coeffs).tolist())


class ChartSampler:
    """Callable RK4 forward map xi -> x for a frame, shared by the numeric
    chart builder and the residual tests."""

    def __init__(self, frame, kind, step=1e-3):
        if kind not in ("first", "second"):
            raise ValueError("chart kind must be 'first' or 'second', got %r" % (kind,))
        self.kind = kind
        self.step = float(step)
        self.base = tuple(float(v) for v in frame.base_point)
        self._exps, self._coeffs = _float_frame(frame.fields)

    def __call__(self, xi):
        """The endpoint for one xi, as a tuple of floats, or for each row of
        an (S, n) stack, as an (S, n) array from one stacked integration."""
        import numpy as np
        stack = np.atleast_2d(np.array(xi, dtype=float))
        x = np.broadcast_to(self.base, stack.shape)
        if self.kind == "first":
            x = _rk4(np.einsum("sj,jkt->skt", stack, self._coeffs), self._exps,
                     x, np.ones(len(stack)), self.step)
        else:
            _rk4_counts(stack, self.step)  # check every time before any step
            for j in reversed(range(stack.shape[1])):
                x = _rk4(self._coeffs[j], self._exps, x, stack[:, j], self.step)
        return x if np.ndim(xi) == 2 else tuple(x[0].tolist())
