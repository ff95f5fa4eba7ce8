"""Coordinate constructions on polynomial H-frames.

The chain is: an affine adaptation at the base point, the triangular
correction psi that makes the coordinates privileged, the homogeneous
model fields, and the exponential/logarithm of the model basis, whose
composition is the epsilon chart.  Exact flows of triangular systems give
canonical coordinates of the first and second kind; a fixed-step RK4
integrator backs the numeric variants.
"""

from fractions import Fraction
from functools import cached_property
import random

import numpy as np

from . import linalg
from .graded import (WeightVector, as_weights, iter_weighted_exponents,
                     multi_factorial, weighted_degree)
from .poly import (PolyMap, RationalPoly, TriangularMap, invert_triangular,
                   invert_weight_triangular, term_sort_key, weight_shape)
from .vfields import Frame, PolyVectorField, expand, model_field, pushforward


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
        self.weights = weights if isinstance(weights, WeightVector) else WeightVector(weights)
        n = self.weights.n
        self.matrix = linalg.as_matrix(matrix)
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
        self._forward = None

    def _validate_unipotent(self):
        ws = self.weights.weights
        n = self.weights.n
        if any(self.poly.constant_part()):
            raise ValueError("polynomial factor must fix the origin")
        lin = self.poly.linear_matrix()
        for k in range(n):
            for j in range(n):
                want_one = k == j
                entry = lin[k][j]
                if want_one and entry != 1:
                    raise ValueError("polynomial factor must have unit diagonal")
                if not want_one and entry and ws[j] <= ws[k]:
                    raise ValueError(
                        "linear term x%d in component %d is not weight-raising"
                        % (j + 1, k + 1))

    @classmethod
    def identity(cls, weights):
        wv = weights if isinstance(weights, WeightVector) else WeightVector(weights)
        return cls(linalg.identity_matrix(wv.n), (0,) * wv.n, wv)

    @cached_property
    def is_exactly_invertible(self):
        """True when every correction only involves lower-weight variables."""
        _, ranks = weight_shape(self.poly.components, self.weights.weights)
        return all(rank < 2 for rank in ranks)

    def affine_polymap(self):
        n = self.weights.n
        comps = []
        for k in range(n):
            p = RationalPoly.const(n, -sum(self.matrix[k][j] * self.offset[j]
                                           for j in range(n)))
            for j in range(n):
                if self.matrix[k][j]:
                    p = p + self.matrix[k][j] * RationalPoly.variable(n, j)
            comps.append(p)
        return PolyMap(comps)

    def affine_inverse_polymap(self):
        """x = offset + M^{-1} u as a PolyMap in u."""
        n = self.weights.n
        comps = []
        for k in range(n):
            p = RationalPoly.const(n, self.offset[k])
            for j in range(n):
                if self.matrix_inv[k][j]:
                    p = p + self.matrix_inv[k][j] * RationalPoly.variable(n, j)
            comps.append(p)
        return PolyMap(comps)

    def forward_polymap(self):
        if self._forward is None:
            self._forward = self.poly.compose(self.affine_polymap())
        return self._forward

    def apply(self, point):
        u = linalg.mat_vec(self.matrix,
                           [Fraction(x) - o for x, o in zip(point, self.offset)])
        return self.poly.evaluate(u)

    def inverse_polymap(self, max_weight=None):
        """Polynomial inverse; exact when possible, else truncated at
        max_weight (which must then be supplied explicitly)."""
        q = invert_weight_triangular(self.poly, self.weights.weights, max_weight)
        return self.affine_inverse_polymap().compose(q)

    def inverse_apply(self, point):
        q = invert_weight_triangular(self.poly, self.weights.weights)
        u = q.evaluate(tuple(Fraction(x) for x in point))
        return tuple(o + v for o, v in
                     zip(self.offset, linalg.mat_vec(self.matrix_inv, u)))

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
    return change, transform_frame(frame, change)


def transform_frame(frame, change, max_weight=None):
    """Push every frame field through the change; exact when the change is,
    truncated at max_weight otherwise."""
    forward = change.forward_polymap()
    inverse = change.inverse_polymap(max_weight)
    bound = None if change.is_exactly_invertible else max_weight
    fields = [pushforward(x, forward, inverse, frame.weights.weights, bound)
              for x in frame.fields]
    new_base = change.apply(frame.base_point)
    return Frame(fields, frame.weights, new_base, check=False)


def _apply_multi_derivation(fields, alpha, f):
    """X^alpha f with X^alpha = X_1^{a_1} . ... . X_n^{a_n}; the highest
    index acts first."""
    g = f
    for j in reversed(range(len(alpha))):
        for _ in range(alpha[j]):
            g = fields[j].apply(g)
    return g


def psi_map(frame):
    """Triangular correction turning a linearly adapted frame at 0 into
    privileged coordinates.

    Component k is x_k + sum a_{k,alpha} x^alpha over |alpha| >= 2 and
    <alpha> < w_k; the coefficients are fixed layer by layer (increasing
    |alpha|) by requiring that all composed derivations X^alpha of weight
    below w_k kill the new coordinate at the origin:

        alpha! a_{k,alpha} = -X^alpha(x_k)|_0
                             - sum_{2 <= |beta| < |alpha|} a_{k,beta} X^alpha(x^beta)|_0.

    For step-2 weights there is nothing to correct and psi is the identity.
    """
    ws = frame.weights.weights
    n = frame.weights.n
    origin = (Fraction(0),) * n
    if frame.base_point != origin:
        raise ValueError("psi_map expects the frame to be based at the origin")
    for j, x_field in enumerate(frame.fields):
        unit = tuple(Fraction(1 if k == j else 0) for k in range(n))
        if x_field.evaluate(origin) != unit:
            raise ValueError("frame is not linearly adapted at the origin "
                             "(field %d)" % (j + 1))
    comps = []
    for k in range(n):
        alphas = [alpha
                  for d in range(2, ws[k])
                  for alpha in iter_weighted_exponents(ws, d, "eq")
                  if sum(alpha) >= 2]
        alphas.sort(key=lambda a: (sum(a), a))
        found = {}
        comp = RationalPoly.variable(n, k)
        for alpha in alphas:
            value = -_apply_multi_derivation(
                frame.fields, alpha, RationalPoly.variable(n, k)).evaluate(origin)
            for beta, coef in found.items():
                if sum(beta) < sum(alpha):
                    mono = RationalPoly.monomial(n, beta)
                    value -= coef * _apply_multi_derivation(
                        frame.fields, alpha, mono).evaluate(origin)
            coef = value / multi_factorial(alpha)
            if coef:
                found[alpha] = coef
                comp = comp + RationalPoly.monomial(n, alpha, coef)
        comps.append(comp)
    return TriangularMap(comps, frame.weights)


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


class FlowResult:
    """Flow of x' = sum_j xi_j X_j(x), x(0) = y, solved once and for all as
    polynomials in the 2n + 1 variables (y_1..y_n, xi_1..xi_n, t)."""

    def __init__(self, components, weights):
        self.weights = weights
        self.n = weights.n
        self.components = components  # RationalPoly in 2n + 1 variables

    def endpoint(self, y, xi, t=1):
        args = tuple(y) + tuple(xi) + (t,)
        return tuple(c.evaluate(args) for c in self.components)

    def substituted(self, y_polys, xi_polys, t_poly):
        args = list(y_polys) + list(xi_polys) + [t_poly]
        return [c.substitute(args) for c in self.components]

    def map_in_xi(self, y_point, t=1):
        """PolyMap xi -> x(t; y, xi) for fixed rational y and t."""
        n = self.n
        y_polys = [RationalPoly.const(n, v) for v in y_point]
        xi_polys = [RationalPoly.variable(n, j) for j in range(n)]
        t_poly = RationalPoly.const(n, t)
        return PolyMap(self.substituted(y_polys, xi_polys, t_poly))


def exact_flow(fields, weights):
    """Exact polynomial flow of a triangular system in canonical shape.

    Coordinates are integrated in nondecreasing weight order; each
    right-hand side only involves already-solved components, so every
    integral is a polynomial in t.
    """
    wv = weights if isinstance(weights, WeightVector) else WeightVector(weights)
    ws = wv.weights
    n = wv.n
    _check_canonical_shape(fields, ws)
    nn = 2 * n + 1
    y_vars = [RationalPoly.variable(nn, j) for j in range(n)]
    xi_vars = [RationalPoly.variable(nn, n + j) for j in range(n)]
    zero = RationalPoly.zero(nn)
    solution = [None] * n
    for k in sorted(range(n), key=lambda i: ws[i]):
        args = [solution[l] if solution[l] is not None else zero for l in range(n)]
        rhs = RationalPoly.zero(nn)
        for j in range(n):
            coef = fields[j].coefficients[k]
            if coef.is_zero:
                continue
            rhs = rhs + xi_vars[j] * coef.substitute(args)
        solution[k] = y_vars[k] + _integrate_last(rhs)
    return FlowResult(solution, wv)


def exp_map(fields, weights):
    """Time-one flow from the origin as a map in xi: the exponential of the
    basis.  Requires a homogeneous model basis; the result is then a
    weight-homogeneous triangular map with identity differential."""
    wv = weights if isinstance(weights, WeightVector) else WeightVector(weights)
    n = wv.n
    flow = exact_flow(fields, wv)
    comps = flow.map_in_xi((Fraction(0),) * n, 1).components
    try:
        out = TriangularMap(comps, wv)
    except ValueError as exc:
        raise ValueError("exponential map shape violation (the fields are "
                         "not a homogeneous model basis): %s" % exc)
    _check_homogeneous_triangular(out)
    return out


def _check_homogeneous_triangular(m):
    ws = m.weights.weights
    for k in range(m.weights.n):
        for exp in m.tail(k).terms:
            if weighted_degree(exp, ws) != ws[k]:
                raise ValueError(
                    "component %d carries a term of weighted degree != w_k; "
                    "the map is not weight-homogeneous" % (k + 1))


def log_map(m):
    """Inverse of a homogeneous exponential; again weight-homogeneous
    triangular with identity differential."""
    if not isinstance(m, TriangularMap):
        raise TypeError("log_map expects the TriangularMap from exp_map")
    _check_homogeneous_triangular(m)
    return invert_triangular(m)


# ---------------------------------------------------------------------------
# The epsilon chart.
# ---------------------------------------------------------------------------


class EpsilonResult:
    """Everything the epsilon pipeline produces.

    ``change`` is the chart m(x) = eps_hat((B^t)^{-1}(x - a)); the pieces
    (affine adaptation, psi, model fields, phi = log of their exponential)
    are kept for inspection and reuse.
    """

    def __init__(self, change, affine, psi, model_fields, exp_model, phi,
                 constants, adapted_frame, privileged_frame, carnot_frame):
        self.change = change
        self.affine = affine
        self.psi = psi
        self.model_fields = model_fields
        self.exp_model = exp_model
        self.phi = phi
        self.constants = constants
        self.adapted_frame = adapted_frame
        self.privileged_frame = privileged_frame
        self.carnot_frame = carnot_frame

    def apply(self, point):
        return self.change.apply(point)

    def inverse_apply(self, point):
        return self.change.inverse_apply(point)


def epsilon(frame):
    """Carnot coordinates at the frame's base point.

    Pipeline: affine adaptation, psi correction, model fields of the
    privileged frame, phi = log of their exponential; the chart is
    phi . psi . T_a and its polynomial factor is unit-triangular, so the
    inverse is exact: x = a + B(a)^t (triangular map).
    """
    from .groups import structure_constants_at

    affine, adapted = linearize(frame)
    psi = psi_map(adapted)
    psi_inv = invert_triangular(psi)
    privileged_fields = [pushforward(x, psi, psi_inv) for x in adapted.fields]
    wv = frame.weights
    models = [model_field(x, j, wv.weights)
              for j, x in enumerate(privileged_fields)]
    exp_model = exp_map(models, wv)
    phi = invert_triangular(exp_model)
    eps_hat = phi.compose(psi)
    change = CoordinateChange(affine.matrix, affine.offset, wv, eps_hat)
    carnot_fields = [pushforward(x, phi, exp_model) for x in privileged_fields]
    origin = (0,) * wv.n
    privileged_frame = Frame(privileged_fields, wv, origin, check=False)
    carnot_frame = Frame(carnot_fields, wv, origin, check=False)
    constants, _ = structure_constants_at(privileged_frame)
    return EpsilonResult(change, affine, psi, models, exp_model, phi,
                         constants, adapted, privileged_frame, carnot_frame)


def convert_nilpotent_approx(models, targets, weights):
    """The polynomial diffeomorphism carrying one homogeneous model basis
    onto another with the same constants: phi = exp_targets . exp_models^{-1}.

    Both bases must be adapted at 0, homogeneous of degree -w_j, and have
    identical brackets at the origin; the returned triangular map pushes
    models[j] exactly onto targets[j] (verified internally).
    """
    wv = weights if isinstance(weights, WeightVector) else WeightVector(weights)
    ws = wv.weights
    n = wv.n
    origin = (Fraction(0),) * n
    for label, basis in (("source", models), ("target", targets)):
        if len(basis) != n:
            raise ValueError("%s basis must have %d fields" % (label, n))
        for j, x_field in enumerate(basis):
            unit = tuple(Fraction(1 if k == j else 0) for k in range(n))
            if x_field.evaluate(origin) != unit:
                raise ValueError("%s basis field %d is not adapted at 0"
                                 % (label, j + 1))
            parts = expand(x_field, ws)
            if set(parts) != {-ws[j]}:
                raise ValueError("%s basis field %d is not homogeneous of "
                                 "degree -w_%d" % (label, j + 1, j + 1))
    from .vfields import bracket as vf_bracket
    for i in range(n):
        for j in range(i + 1, n):
            bm = vf_bracket(models[i], models[j]).evaluate(origin)
            bt = vf_bracket(targets[i], targets[j]).evaluate(origin)
            if bm != bt:
                raise ValueError("bases have different structure constants "
                                 "([X%d, X%d] differs at 0)" % (i + 1, j + 1))
    exp_x = exp_map(models, wv)
    exp_y = exp_map(targets, wv)
    phi = exp_y.compose(invert_triangular(exp_x))
    phi_inv = invert_triangular(phi)
    for j in range(n):
        if pushforward(models[j], phi, phi_inv) != targets[j]:
            raise ArithmeticError("model conversion failed to match the "
                                  "target basis; this is a bug")
    return phi


# ---------------------------------------------------------------------------
# Canonical coordinates of the first and second kind.
# ---------------------------------------------------------------------------


class ChartResult:
    """A canonical chart: exact results carry a CoordinateChange and the
    forward coordinate map; numeric results carry a fitted NumericChart."""

    def __init__(self, kind, mode, change=None, forward=None, numeric=None):
        self.kind = kind
        self.mode = mode
        self.change = change
        self.forward = forward
        self.numeric = numeric


def _package_chart(frame, chart_map):
    """Present an exact chart C (with C(a) = 0, dC(a) = (B^t)^{-1}) as a
    CoordinateChange by splitting off the affine adaptation."""
    m = frame.adapted_matrix()
    affine_inv = CoordinateChange(m, frame.base_point, frame.weights).affine_inverse_polymap()
    tail = chart_map.compose(affine_inv)
    return CoordinateChange(m, frame.base_point, frame.weights, tail)


def canonical_first_kind(frame, mode="exact", **numeric_options):
    """Chart of canonical coordinates of the first kind at the base point:
    the inverse of xi -> (time-one flow of sum_j xi_j X_j from a).

    Exact mode needs the frame in canonical triangular shape; numeric mode
    integrates with RK4 and fits the chart polynomially.
    """
    if mode == "numeric":
        return ChartResult("first", "numeric",
                           numeric=NumericChart.build(frame, "first", **numeric_options))
    if mode != "exact":
        raise ValueError("mode must be 'exact' or 'numeric'")
    flow = exact_flow(frame.fields, frame.weights)
    forward = flow.map_in_xi(frame.base_point, 1)
    chart = invert_weight_triangular(forward, frame.weights.weights)
    return ChartResult("first", "exact", change=_package_chart(frame, chart),
                       forward=forward)


def canonical_second_kind(frame, mode="exact", **numeric_options):
    """Chart of canonical coordinates of the second kind: the inverse of

        x -> exp(x_1 X_1) . exp(x_2 X_2) ... exp(x_n X_n)(a),

    the innermost factor acting first.  Privileged, but never a Carnot
    chart once the step exceeds one.
    """
    if mode == "numeric":
        return ChartResult("second", "numeric",
                           numeric=NumericChart.build(frame, "second", **numeric_options))
    if mode != "exact":
        raise ValueError("mode must be 'exact' or 'numeric'")
    wv = frame.weights
    n = wv.n
    flow = exact_flow(frame.fields, wv)
    current = [RationalPoly.const(n, v) for v in frame.base_point]
    one = RationalPoly.const(n, 1)
    zero = RationalPoly.zero(n)
    for j in reversed(range(n)):
        xi_polys = [RationalPoly.variable(n, j) if l == j else zero for l in range(n)]
        current = flow.substituted(current, xi_polys, one)
    forward = PolyMap(current)
    chart = invert_weight_triangular(forward, wv.weights)
    return ChartResult("second", "exact", change=_package_chart(frame, chart),
                       forward=forward)


# ---------------------------------------------------------------------------
# Numeric harness: fixed-step RK4 and fitted charts.
# ---------------------------------------------------------------------------


def _field_float_evaluator(field):
    n = field.n
    entries = [(k, exp, float(c))
               for k, p in enumerate(field.coefficients)
               for exp, c in p.terms.items()]
    if not entries:
        return lambda x: np.zeros(n)
    idx = np.array([k for k, _, _ in entries])
    exps = np.array([exp for _, exp, _ in entries], dtype=float)
    coefs = np.array([c for _, _, c in entries])

    def ev(x):
        vals = coefs * np.prod(x[None, :] ** exps, axis=1)
        out = np.zeros(n)
        np.add.at(out, idx, vals)
        return out

    return ev


def _frame_float_evaluator(fields):
    """x -> B(x) as a float matrix (row j = coefficients of field j)."""
    evs = [_field_float_evaluator(f) for f in fields]

    def ev(x):
        return np.stack([e(x) for e in evs])

    return ev


def _rk4(deriv, y0, t_total, step):
    x = np.array([float(v) for v in y0], dtype=float)
    remaining = float(t_total)
    if remaining == 0.0:
        return x
    sign = 1.0 if remaining > 0 else -1.0
    remaining = abs(remaining)
    while remaining > 1e-15:
        h = sign * min(float(step), remaining)
        k1 = deriv(x)
        k2 = deriv(x + 0.5 * h * k1)
        k3 = deriv(x + 0.5 * h * k2)
        k4 = deriv(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        remaining -= abs(h)
    return x


def numeric_flow(field, y, t_total, step=1e-3):
    """Classic fixed-step RK4 endpoint of x' = X(x), x(0) = y."""
    return tuple(float(v) for v in _rk4(_field_float_evaluator(field), y, t_total, step))


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
        wv = frame.weights
        n = wv.n
        if degree is None:
            degree = wv.r + 1
        if rng is None:
            rng = random.Random(0xC0FFEE)
        basis = sorted(iter_weighted_exponents((1,) * n, degree, "le"),
                       key=term_sort_key)
        count = samples if samples is not None else 3 * len(basis)
        sampler = ChartSampler(frame, kind, step)
        rows, targets = [], []
        for _ in range(count):
            xi = np.array([rng.uniform(-float(box), float(box)) for _ in range(n)])
            u = sampler.forward(xi) - sampler.base
            rows.append([np.prod(u ** np.array(exp, dtype=float)) for exp in basis])
            targets.append(xi)
        a_mat = np.array(rows)
        y_mat = np.array(targets)
        coeffs, _, _, _ = np.linalg.lstsq(a_mat, y_mat, rcond=None)
        coeffs[np.abs(coeffs) < 1e-8] = 0.0
        return cls(kind, wv, tuple(frame.base_point), degree, float(box),
                   basis, coeffs, float(step), count)

    def evaluate(self, x):
        u = np.array([float(v) for v in x]) - np.array(
            [float(v) for v in self.base_point])
        row = np.array([np.prod(u ** np.array(exp, dtype=float))
                        for exp in self.basis])
        return tuple(float(v) for v in row @ self.coeffs)


class ChartSampler:
    """Callable RK4 forward map xi -> x for a frame, shared by the numeric
    chart builder and the residual tests."""

    def __init__(self, frame, kind, step=1e-3):
        self.kind = kind
        self.step = float(step)
        self.base = np.array([float(v) for v in frame.base_point])
        self._frame_ev = _frame_float_evaluator(frame.fields)
        self._field_evs = [_field_float_evaluator(f) for f in frame.fields]

    def forward(self, xi):
        """The endpoint x, as a float array, for a float array xi."""
        if self.kind == "first":
            return _rk4(lambda p: self._frame_ev(p).T @ xi, self.base, 1.0,
                        self.step)
        x = self.base.copy()
        for j in reversed(range(len(xi))):
            if xi[j]:
                x = _rk4(self._field_evs[j], x, float(xi[j]), self.step)
        return x

    def __call__(self, xi):
        x = self.forward(np.array([float(v) for v in xi]))
        return tuple(float(v) for v in x)
