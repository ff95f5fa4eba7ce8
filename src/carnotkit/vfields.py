"""Polynomial vector fields, brackets, weighted rescaling, and H-frames."""

from fractions import Fraction

from . import linalg
from .graded import (WeightVector, as_weights, iter_weighted_exponents,
                     multi_factorial, weighted_degree)
from .poly import PolyMap, RationalPoly


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

    def apply(self, f):
        """Derivation applied to a polynomial: X(f) = sum c_k df/dx_k."""
        out = RationalPoly.zero(self.n)
        for k, c in enumerate(self.coefficients):
            if c:
                out = out + c * f.partial(k)
        return out

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
    return {deg: PolyVectorField([RationalPoly(n, d) for d in comps])
            for deg, comps in sorted(buckets.items())}


def field_weight(x_field, weights):
    """Smallest homogeneous degree present (None for the zero field)."""
    parts = expand(x_field, weights)
    return min(parts) if parts else None


def _partial_at_zero(poly, alpha):
    """d^alpha poly evaluated at the origin, by repeated differentiation."""
    g = poly
    for j, e in enumerate(alpha):
        for _ in range(e):
            g = g.partial(j)
            if g.is_zero:
                return Fraction(0)
    return g.evaluate((Fraction(0),) * poly.n)


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
    origin = (Fraction(0),) * n
    unit = tuple(Fraction(1 if k == j else 0) for k in range(n))
    if x_field.evaluate(origin) != unit:
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


def pushforward(x_field, forward, inverse, weights=None, max_weight=None):
    """m_* X: coefficient of d/dx_k is X(m_k) composed with m^{-1}.

    ``forward`` and ``inverse`` are PolyMaps; exactness of the result is
    exactly the exactness of the supplied inverse.  When the inverse is
    itself truncated, pass ``weights`` and ``max_weight`` so the
    composition clips coefficient monomials above the truncation bound
    instead of dragging exact garbage along (terms up to the bound come
    out identical either way).
    """
    if forward.n_in != x_field.n:
        raise ValueError("map and field dimensions differ")
    coeffs = [x_field.apply(forward.components[k]).substitute(
                  inverse.components, weights, max_weight)
              for k in range(forward.n_out)]
    return PolyVectorField(coeffs)


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
        self.weights = weights if isinstance(weights, WeightVector) else WeightVector(weights)
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
                                       % (point,))

    def at_base(self, point, check=False):
        """Same fields, new base point."""
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
                            % (i + 1, j + 1, point, k + 1, ws[k], ws[i] + ws[j]))
                    table[(i, j, k)] = lam[k]
        return table

    def validate(self, points=()):
        """Re-run the frame checks at the base point and any extra points.

        Returns the list of points checked; raises ValueError on failure.
        """
        checked = [self.base_point]
        self.bracket_table(self.base_point)
        for p in points:
            p = tuple(Fraction(x) for x in p)
            self.bracket_table(p)
            checked.append(p)
        return checked

    def __repr__(self):
        return "Frame(n=%d, weights=%s, base=%s)" % (
            self.n, self.weights.weights, tuple(str(x) for x in self.base_point))


def _sequences_of_weight(weights, target):
    """All index sequences (i_1, ..., i_m) with w_{i_1} + ... + w_{i_m} = target."""
    ws = as_weights(weights)
    n = len(ws)

    def rec(remaining):
        if remaining == 0:
            yield ()
            return
        for i in range(n):
            if ws[i] <= remaining:
                for rest in rec(remaining - ws[i]):
                    yield (i,) + rest

    yield from rec(target)


def function_order(f, frame, n_max=None):
    """Order of f at the frame's base point: the smallest N such that some
    composed derivation X_{i_1} ... X_{i_m} f with weight sum N is nonzero
    at the base point (N = 0 when f itself is nonzero there).

    Only weights < n_max are enumerated (default r + 1); returns None when
    every candidate up to that bound vanishes, meaning "order >= n_max".
    """
    ws = frame.weights
    if f.n != ws.n:
        raise ValueError("function and frame dimensions differ")
    if n_max is None:
        n_max = ws.r + 1
    a = frame.base_point
    if f.evaluate(a) != 0:
        return 0
    cache = {(): f}

    def derived(seq):
        got = cache.get(seq)
        if got is None:
            got = frame.fields[seq[0]].apply(derived(seq[1:]))
            cache[seq] = got
        return got

    for target in range(1, n_max):
        for seq in _sequences_of_weight(ws, target):
            if derived(seq).evaluate(a) != 0:
                return target
    return None
