"""Polynomial vector fields, brackets, weighted rescaling, and H-frames."""

from fractions import Fraction

from . import linalg
from .graded import (WeightVector, as_weights, iter_weighted_exponents,
                     multi_factorial, weighted_degree)
from .poly import RationalPoly, substitute_all, sum_of_products


class DegenerateFrameError(ValueError):
    """The frame's coefficient matrix B(x) is singular at the point asked
    about, so the fields do not span the tangent space there."""


class PolyVectorField:
    """X = sum_k c_k(x) d/dx_k with polynomial coefficients c_k."""

    def __init__(self, coefficients):
        coeffs = list(coefficients)
        n = len(coeffs)
        for c in coeffs:
            if not isinstance(c, RationalPoly) or c.n != n:
                raise ValueError("need n polynomial coefficients in n variables")
        self.coefficients = coeffs
        self.n = n

    @classmethod
    def coordinate(cls, n, j):
        """The coordinate derivation d/dx_j."""
        coeffs = [RationalPoly.const(n, 1 if k == j else 0) for k in range(n)]
        return cls(coeffs)

    @classmethod
    def zero(cls, n):
        return cls([RationalPoly.zero(n) for _ in range(n)])

    def apply(self, f, max_degree=None):
        """Derivation applied to a polynomial: X(f) = sum c_k df/dx_k, with
        only the terms of ordinary degree <= max_degree formed when given.
        A derivation lowers the degree by at most one, so when k more come
        before the value at 0 is read, the clip k keeps all that value sees."""
        if f.n != self.n:
            raise ValueError("variable count mismatch (%d vs %d)" % (self.n, f.n))
        return sum_of_products(self.n, [(c, f.partial(k)) for k, c in
                                        enumerate(self.coefficients) if c], max_degree)

    def evaluate(self, point):
        return tuple(c.evaluate(point) for c in self.coefficients)

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.coefficients)

    def __add__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return PolyVectorField([a + b for a, b in zip(self.coefficients, other.coefficients)])

    def __sub__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return PolyVectorField([a - b for a, b in zip(self.coefficients, other.coefficients)])

    def __neg__(self):
        return PolyVectorField([-c for c in self.coefficients])

    def __mul__(self, s):
        if isinstance(s, (int, Fraction, RationalPoly)):
            return PolyVectorField([c * s for c in self.coefficients])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.n == other.n and all(
            a == b for a, b in zip(self.coefficients, other.coefficients))

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coefficients):
            if c.is_zero:
                continue
            cs = str(c)
            if cs == "1":
                parts.append("d%d" % (k + 1))
            else:
                parts.append("(%s) d%d" % (cs, k + 1))
        return " + ".join(parts) if parts else "0"


def bracket(x, y):
    """Lie bracket [X, Y] = X(Y_k) - Y(X_k) on each slot."""
    if x.n != y.n:
        raise ValueError("fields live in different dimensions")
    return PolyVectorField([x.apply(y.coefficients[k]) - y.apply(x.coefficients[k])
                            for k in range(x.n)])


def rescale(x_field, t, weights):
    """Weighted pullback-rescaling: coefficient c_k(x) becomes
    t^{<alpha> - w_k} c_{k,alpha} x^alpha, i.e. t^{w}-conjugation by the
    dilation delta_t.  Exact for rational t != 0."""
    t = Fraction(t)
    if t == 0:
        raise ValueError("rescaling parameter must be nonzero")
    ws = as_weights(weights)
    out = []
    for k, c in enumerate(x_field.coefficients):
        terms = {e: cc * t ** (weighted_degree(e, ws) - ws[k])
                 for e, cc in c.terms.items()}
        out.append(RationalPoly(c.n, terms))
    return PolyVectorField(out)


def expand(x_field, weights):
    """Split into weighted-homogeneous parts: {degree: field} where a
    monomial coefficient x^alpha on d/dx_k contributes at <alpha> - w_k."""
    ws = as_weights(weights)
    n = x_field.n
    buckets = {}
    for k, c in enumerate(x_field.coefficients):
        for e, cc in c.terms.items():
            deg = weighted_degree(e, ws) - ws[k]
            buckets.setdefault(deg, [dict() for _ in range(n)])[k][e] = cc
    return {deg: PolyVectorField([RationalPoly._from_terms(n, d) for d in comps])
            for deg, comps in sorted(buckets.items())}


def _partial_at_zero(poly, alpha):
    """d^alpha poly evaluated at the origin, by repeated differentiation."""
    g = poly
    for j, e in enumerate(alpha):
        for _ in range(e):
            g = g.partial(j)
            if g.is_zero:
                return Fraction(0)
    return g.evaluate((Fraction(0),) * poly.n)


def adaptation_defect(x_field, j):
    """X(0), read off the constant terms, when it is not d/dx_j; else None."""
    n = x_field.n
    value = tuple(c.terms.get((0,) * n, Fraction(0)) for c in x_field.coefficients)
    return None if value == tuple(int(k == j) for k in range(n)) else value


def model_field(x_field, j, weights):
    """Homogeneous degree -w_j part of an adapted field, computed two ways.

    Route one filters the weighted expansion; route two rebuilds the part
    from Taylor coefficients d^alpha c_k(0)/alpha! with <alpha> = w_k - w_j.
    The routes must agree exactly; a mismatch raises ArithmeticError.
    Raises ValueError when the field is not adapted (X(0) != d/dx_j) or has
    a component below degree -w_j (the coordinates are not privileged).
    """
    ws = as_weights(weights)
    n = x_field.n
    if adaptation_defect(x_field, j) is not None:
        raise ValueError("field %d is not linearly adapted at the origin" % (j + 1))
    parts = expand(x_field, ws)
    too_low = [d for d in parts if d < -ws[j]]
    if too_low:
        raise ValueError(
            "field %d has a component of degree %d < -w_%d; "
            "the coordinates are not privileged" % (j + 1, min(too_low), j + 1))
    extracted = parts.get(-ws[j], PolyVectorField.zero(n))

    coeffs = []
    for k in range(n):
        d = ws[k] - ws[j]
        terms = {}
        if d >= 0:
            for alpha in iter_weighted_exponents(ws, d, "eq"):
                c = _partial_at_zero(x_field.coefficients[k], alpha)
                if c:
                    terms[alpha] = c / multi_factorial(alpha)
        coeffs.append(RationalPoly(n, terms))
    rebuilt = PolyVectorField(coeffs)
    if rebuilt != extracted:
        raise ArithmeticError("model-field routes disagree; this is a bug")
    return rebuilt


def pushforward(x_field, forward, inverse):
    """m_* X: coefficient of d/dx_k is X(m_k) composed with m^{-1}.

    ``forward`` and ``inverse`` are PolyMaps; exactness of the result is
    exactly the exactness of the supplied inverse.  ``push_fields`` pushes
    several fields at once and clips at a weight bound.
    """
    return push_fields([x_field], forward, inverse)[0]


def push_fields(fields, forward, inverse, weights=None, max_weight=None):
    """``pushforward`` of each field, with each d_l m_k formed once per map.

    When the inverse is itself truncated, pass ``weights`` and
    ``max_weight`` so the composition clips coefficient monomials above the
    truncation bound instead of dragging exact garbage along (terms up to
    the bound come out identical either way)."""
    if any(x.n != forward.n_in for x in fields):
        raise ValueError("map and field dimensions differ")
    jacobian = [[m.partial(l) for l in range(forward.n_in)] for m in forward.components]
    pulled = iter(substitute_all([sum_of_products(x.n, zip(x.coefficients, row))
                                  for x in fields for row in jacobian],
                                 inverse.components, weights, max_weight))
    return [PolyVectorField([next(pulled) for _ in jacobian]) for _ in fields]


def _point_str(point):
    """A point as messages print it: '(1/2, 0, -3)'."""
    return "(%s)" % ", ".join(str(x) for x in point)


class Frame:
    """Ordered polynomial frame (X_1, ..., X_n) with weights and a base point.

    Construction checks that the coefficient matrix B(a) (rows X_j(a)) is
    invertible and that brackets respect the weight filtration at the base
    point: solving B(a)^t lambda = [X_i, X_j](a) must give lambda_k = 0
    whenever w_k > w_i + w_j.  Pass check=False for internal frames that are
    already known to be good (the checks are exact but not free).
    """

    def __init__(self, fields, weights, base_point, check=True):
        self.fields = list(fields)
        self.weights = WeightVector(weights)
        n = self.weights.n
        if len(self.fields) != n or any(x.n != n for x in self.fields):
            raise ValueError("frame needs exactly n fields in n variables")
        self.base_point = tuple(Fraction(x) for x in base_point)
        if len(self.base_point) != n:
            raise ValueError("base point has wrong dimension")
        if check:
            self.bracket_table(self.base_point)

    @property
    def n(self):
        return self.weights.n

    @property
    def step(self):
        return self.weights.r

    def coefficient_matrix(self, point=None):
        """B(x): row j holds the coefficients of X_j at the point."""
        point = self.base_point if point is None else point
        return [list(x.evaluate(point)) for x in self.fields]

    def adapted_matrix(self, point=None):
        """(B(point)^t)^{-1}; DegenerateFrameError when B(point) is singular."""
        point = self.base_point if point is None else point
        try:
            return linalg.mat_inv(linalg.transpose(self.coefficient_matrix(point)))
        except ValueError:
            raise DegenerateFrameError("frame is degenerate (B(x) singular) at %s"
                                       % _point_str(point))

    def at_base(self, point, check=True):
        """Same fields, new base point, checked there unless ``check`` is false."""
        return Frame(self.fields, self.weights, point, check=check)

    def bracket_table(self, point=None):
        """All constants L_ij^k(point) (i < j, zero entries dropped) from
        [X_i, X_j](point) = sum_k L_ij^k(point) X_k(point).

        Raises DegenerateFrameError when B(point) is singular and ValueError
        when some bracket leaves the filtration (a nonzero lambda_k with
        w_k > w_i + w_j).
        """
        point = self.base_point if point is None else tuple(Fraction(x) for x in point)
        ws = self.weights.weights
        n = self.n
        bt_inv = self.adapted_matrix(point)
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                value = bracket(self.fields[i], self.fields[j]).evaluate(point)
                lam = linalg.mat_vec(bt_inv, value)
                for k in range(n):
                    if not lam[k]:
                        continue
                    if ws[k] > ws[i] + ws[j]:
                        raise ValueError(
                            "[X%d, X%d] leaves the weight filtration at %s: "
                            "component %d (weight %d > %d)"
                            % (i + 1, j + 1, _point_str(point), k + 1, ws[k],
                               ws[i] + ws[j]))
                    table[(i, j, k)] = lam[k]
        return table

    def validate(self):
        """Re-run the frame checks at the base point; ValueError on failure."""
        self.bracket_table()

    def __repr__(self):
        return "Frame(n=%d, weights=%s, base=%s)" % (
            self.n, self.weights.weights, tuple(str(x) for x in self.base_point))


def _add_to_echelon(basis, g):
    """Add g to ``basis`` ({largest exponent: polynomial}) reduced against
    it, unless it reduces to zero; each subtraction retires the current
    largest exponent and brings in only smaller ones."""
    while g:
        lead = max(g.terms)
        row = basis.get(lead)
        if row is None:
            basis[lead] = g
            return
        g = g - row * (g.terms[lead] / row.terms[lead])


def function_order(f, frame, n_max=None):
    """Order of f at the frame's base point: the smallest N such that some
    composed derivation X_{i_1} ... X_{i_m} f with weight sum N is nonzero
    at the base point (N = 0 when f itself is nonzero there).

    Weights are examined level by level through the spans
    V_0 = span{f}, V_t = sum_i X_i V_{t - w_i}: V_t is spanned by the words
    of weight t applied to f, and evaluation is linear, so some word of
    weight t is nonzero at the base point exactly when some X_i g is, for g
    in an echelon basis of V_{t - w_i}.  Only weights < n_max are examined
    (default r + 1); returns None when all of them vanish, meaning
    "order >= n_max".  The zero function returns None at once: every
    derivation of it vanishes.
    """
    ws = frame.weights
    if f.n != ws.n:
        raise ValueError("function and frame dimensions differ")
    if f.is_zero:
        return None
    if n_max is None:
        n_max = ws.r + 1
    a = frame.base_point
    if f.evaluate(a) != 0:
        return 0
    levels = [[f]]
    for t in range(1, n_max):
        basis = {}
        for x, w in zip(frame.fields, ws.weights):
            for g in levels[t - w] if w <= t else ():
                xg = x.apply(g)
                if xg.evaluate(a) != 0:
                    return t
                _add_to_echelon(basis, xg)
        levels.append(list(basis.values()))
    return None
