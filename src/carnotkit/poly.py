"""Exact sparse polynomials over Q, polynomial maps, triangular maps.

A polynomial is a dict {exponent tuple: Fraction} with zero coefficients
dropped eagerly, so equality is plain dict equality.  Variables are indexed
from 0 internally and printed as x1, ..., xn.
"""

from fractions import Fraction

from .graded import as_weights, weighted_degree


def _coef(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, (int, str)):
        return Fraction(c)
    raise TypeError("expected a rational coefficient, got %r" % (c,))


def term_sort_key(exp):
    """Canonical term order: total degree, then the exponent tuple."""
    return (sum(exp), exp)


def monomial_str(exp, coef):
    """Render coef * x^exp the way witnesses are printed: 'x1*x2/2', '-3*x1^2'."""
    c = _coef(coef)
    factors = []
    for j, e in enumerate(exp):
        if e:
            factors.append("x%d" % (j + 1) if e == 1 else "x%d^%d" % (j + 1, e))
    if not factors:
        return str(c)
    mono = "*".join(factors)
    sign = "-" if c < 0 else ""
    num, den = abs(c.numerator), c.denominator
    if num == 1 and den == 1:
        return sign + mono
    if num == 1:
        return "%s%s/%d" % (sign, mono, den)
    if den == 1:
        return "%s%d*%s" % (sign, num, mono)
    return "%s%d/%d*%s" % (sign, num, den, mono)


class RationalPoly:
    """Sparse polynomial in n variables with Fraction coefficients."""

    def __init__(self, nvars, terms=None):
        self.n = int(nvars)
        if self.n < 0:
            raise ValueError("negative variable count")
        table = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, c in items:
                exp = tuple(int(e) for e in exp)
                if len(exp) != self.n or any(e < 0 for e in exp):
                    raise ValueError("bad exponent %r for %d variables" % (exp, self.n))
                c = _coef(c)
                if not c:
                    continue
                prev = table.get(exp)
                if prev is None:
                    table[exp] = c
                else:
                    s = prev + c
                    if s:
                        table[exp] = s
                    else:
                        del table[exp]
        self.terms = table

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        c = _coef(c)
        return cls(nvars, {(0,) * nvars: c} if c else None)

    @classmethod
    def variable(cls, nvars, j):
        if not 0 <= j < nvars:
            raise ValueError("variable index out of range")
        exp = tuple(1 if i == j else 0 for i in range(nvars))
        return cls(nvars, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, nvars, exp, c=1):
        return cls(nvars, {tuple(exp): _coef(c)})

    @classmethod
    def _from_terms(cls, nvars, terms):
        """Wrap a dict of nonzero Fraction coefficients without checking it."""
        p = cls.__new__(cls)
        p.n = nvars
        p.terms = terms
        return p

    def copy(self):
        """A polynomial equal to this one that shares no mutable state."""
        return RationalPoly._from_terms(self.n, dict(self.terms))

    # -- ring operations ----------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check_same(self, other):
        if other.n != self.n:
            raise ValueError("variable count mismatch (%d vs %d)" % (self.n, other.n))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.const(self.n, other)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            prev = out.get(exp)
            if prev is None:
                out[exp] = c
            else:
                s = prev + c
                if s:
                    out[exp] = s
                else:
                    del out[exp]
        return RationalPoly._from_terms(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly._from_terms(self.n,
                                        {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.const(self.n, other)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coef(other)
            terms = {e: cc * c for e, cc in self.terms.items()} if c else {}
            return RationalPoly._from_terms(self.n, terms)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        self._check_same(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                prev = out.get(exp)
                if prev is None:
                    out[exp] = c
                else:
                    s = prev + c
                    if s:
                        out[exp] = s
                    else:
                        del out[exp]
        return RationalPoly._from_terms(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = RationalPoly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalPoly.const(self.n, other)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def partial(self, j):
        """d/dx_j, exact."""
        if not 0 <= j < self.n:
            raise ValueError("variable index out of range")
        out = {}
        for exp, c in self.terms.items():
            e = exp[j]
            if e:
                nexp = exp[:j] + (e - 1,) + exp[j + 1:]
                out[nexp] = out.get(nexp, Fraction(0)) + c * e
        return RationalPoly(self.n, out)

    def evaluate(self, point):
        """Value at a point; exact for rational input, float otherwise."""
        if len(point) != self.n:
            raise ValueError("point has wrong dimension")
        total = 0
        for exp, c in self.terms.items():
            v = c
            for xj, e in zip(point, exp):
                if e:
                    v = v * xj ** e
            total = total + v
        return total

    def substitute(self, args, weights=None, bound=None):
        """Plug polynomials in for the variables (args[j] replaces x_j).

        With ``weights`` and ``bound`` given, monomials of the result whose
        weighted degree exceeds ``bound`` are dropped, and intermediate
        products are clipped the same way while they accumulate.  Every
        surviving term is still exact: the clip only discards terms that
        cannot contribute at or below the bound (all monomial weights are
        nonnegative, so products never lose weight).
        """
        if len(args) != self.n:
            raise ValueError("need %d substitution polynomials" % self.n)
        if self.n == 0:
            m = 0
        else:
            m = args[0].n
            for g in args:
                if not isinstance(g, RationalPoly) or g.n != m:
                    raise ValueError("substitution polynomials must share a variable count")
        ws = minw = None
        if bound is not None:
            ws = as_weights(weights)
            if len(ws) != m:
                raise ValueError("weights must grade the substitution variables")
            # least weighted degree each argument can supply, for skipping
            # host terms that cannot reach the bound at all
            minw = [min((weighted_degree(e, ws) for e in g.terms), default=None)
                    for g in args]
        powers = [[RationalPoly.const(m, 1)] for _ in range(self.n)]
        acc = {}
        for exp, c in self.terms.items():
            if minw is not None:
                low = 0
                for j, e in enumerate(exp):
                    if e:
                        if minw[j] is None:
                            low = None  # argument is the zero polynomial
                            break
                        low += e * minw[j]
                if low is None or low > bound:
                    continue
            term = RationalPoly.const(m, c)
            for j, e in enumerate(exp):
                if e:
                    pj = powers[j]
                    while len(pj) <= e:
                        nxt = pj[-1] * args[j]
                        if bound is not None:
                            nxt = take_weight_le(nxt, ws, bound)
                        pj.append(nxt)
                    term = term * pj[e]
                    if bound is not None:
                        term = take_weight_le(term, ws, bound)
            for e2, c2 in term.terms.items():
                prev = acc.get(e2)
                if prev is None:
                    acc[e2] = c2
                else:
                    s = prev + c2
                    if s:
                        acc[e2] = s
                    else:
                        del acc[e2]
        return RationalPoly._from_terms(m, acc)

    def sorted_terms(self):
        return [(exp, self.terms[exp]) for exp in sorted(self.terms, key=term_sort_key)]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            piece = monomial_str(exp, abs(c))
            if not parts:
                parts.append(("-" if c < 0 else "") + piece)
            else:
                parts.append(("- " if c < 0 else "+ ") + piece)
        return " ".join(parts)

    def __repr__(self):
        return "RationalPoly(%d, %s)" % (self.n, str(self))


# ---------------------------------------------------------------------------
# Weighted filters.
# ---------------------------------------------------------------------------


def take_weight_le(f, weights, bound):
    ws = as_weights(weights)
    return RationalPoly(f.n, {e: c for e, c in f.terms.items()
                              if weighted_degree(e, ws) <= bound})


class PolyMap:
    """Polynomial map R^{n_in} -> R^{n_out}, one RationalPoly per component."""

    def __init__(self, components):
        comps = list(components)
        if not comps:
            raise ValueError("a polynomial map needs at least one component")
        n = comps[0].n
        for c in comps:
            if not isinstance(c, RationalPoly) or c.n != n:
                raise ValueError("components must be polynomials in the same variables")
        self.components = comps
        self.n_in = n
        self.n_out = len(comps)

    @classmethod
    def identity(cls, n):
        return cls([RationalPoly.variable(n, j) for j in range(n)])

    @classmethod
    def constant(cls, n_in, values):
        return cls([RationalPoly.const(n_in, v) for v in values])

    def evaluate(self, point):
        return tuple(c.evaluate(point) for c in self.components)

    __call__ = evaluate

    def compose(self, other, weights=None, bound=None):
        """self after other: (self . other)(x) = self(other(x)).

        ``weights``/``bound`` clip the result (and the intermediate
        products) to weighted degree <= bound; see RationalPoly.substitute.
        """
        if not isinstance(other, PolyMap):
            raise TypeError("can only compose with another PolyMap")
        if other.n_out != self.n_in:
            raise ValueError("composition dimension mismatch")
        return PolyMap([c.substitute(other.components, weights, bound)
                        for c in self.components])

    def __sub__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        if (other.n_in, other.n_out) != (self.n_in, self.n_out):
            raise ValueError("map shapes differ")
        return PolyMap([a - b for a, b in zip(self.components, other.components)])

    def __add__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        if (other.n_in, other.n_out) != (self.n_in, self.n_out):
            raise ValueError("map shapes differ")
        return PolyMap([a + b for a, b in zip(self.components, other.components)])

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (self.n_in == other.n_in and
                [c.terms for c in self.components] == [c.terms for c in other.components])

    def __hash__(self):
        return hash(tuple(hash(c) for c in self.components))

    def constant_part(self):
        """Value at the origin: each component's constant term."""
        zero_exp = (0,) * self.n_in
        return tuple(c.terms.get(zero_exp, Fraction(0)) for c in self.components)

    def jacobian_at(self, point):
        return [[self.components[k].partial(j).evaluate(point)
                 for j in range(self.n_in)]
                for k in range(self.n_out)]

    def linear_matrix(self):
        """Differential at the origin: the degree-one coefficients, as Fraction rows."""
        rows = [[Fraction(0)] * self.n_in for _ in self.components]
        for row, comp in zip(rows, self.components):
            for exp, c in comp.terms.items():
                if sum(exp) == 1:
                    row[exp.index(1)] = c
        return rows

    def __repr__(self):
        return "PolyMap(%s)" % ", ".join(str(c) for c in self.components)


def truncate_weight(m, weights, max_weight):
    """Drop every monomial of weighted degree above max_weight, per component."""
    return PolyMap([take_weight_le(c, weights, max_weight) for c in m.components])


def weight_shape(components, weights):
    """Split a square map into components x_k + q_k and grade the tails q_k.

    Returns (tails, ranks).  ranks[k] is 0 when every term of q_k has at
    least two factors and weighted degree <= w_k (a unit-triangular
    correction), 1 when q_k still involves only variables of weight < w_k,
    and 2 when it involves a variable of weight >= w_k (a weight-raising
    term).  A map whose ranks are all below 2 inverts exactly in one
    weight-ordered sweep.  Raises ValueError on a linear term x_j with
    w_j = w_k, j = k included: no weight-ordered sweep resolves it.
    """
    ws = as_weights(weights)
    n = len(ws)
    if len(components) != n or any(c.n != n for c in components):
        raise ValueError("need a square map matching the weights")
    tails, ranks = [], []
    for k, comp in enumerate(components):
        q = comp - RationalPoly.variable(n, k)
        rank = 0
        for exp in q.terms:
            used = [ws[j] for j, e in enumerate(exp) if e]
            if sum(exp) == 1 and used[0] == ws[k]:
                raise ValueError(
                    "component %d has the linear term %s of the same weight; "
                    "the map is not unipotent" % (k + 1, monomial_str(exp, 1)))
            if any(w >= ws[k] for w in used):
                rank = 2
            elif sum(exp) < 2 or weighted_degree(exp, ws) > ws[k]:
                rank = max(rank, 1)
        tails.append(q)
        ranks.append(rank)
    return tails, ranks


class TriangularMap(PolyMap):
    """Unit-triangular map: component k is x_k plus monomials with
    |alpha| >= 2 and <alpha> <= w_k.

    Such corrections can only involve variables of weight < w_k, so these
    maps form a group under composition and invert exactly by
    back-substitution in increasing weight order.
    """

    def __init__(self, components, weights):
        PolyMap.__init__(self, components)
        from .graded import WeightVector
        self.weights = weights if isinstance(weights, WeightVector) else WeightVector(weights)
        _, ranks = weight_shape(self.components, self.weights.weights)
        for k, rank in enumerate(ranks):
            if rank:
                raise ValueError(
                    "component %d is not unit-triangular: its tail needs "
                    "terms of two or more factors and weighted degree <= w_%d"
                    % (k + 1, k + 1))

    @classmethod
    def identity_map(cls, weights):
        from .graded import WeightVector
        wv = weights if isinstance(weights, WeightVector) else WeightVector(weights)
        return cls(PolyMap.identity(wv.n).components, wv)

    def compose(self, other, weights=None, bound=None):
        out = PolyMap.compose(self, other, weights, bound)
        if (bound is None and isinstance(other, TriangularMap)
                and other.weights == self.weights):
            return TriangularMap(out.components, self.weights)
        return out

    def tail(self, k):
        """Correction terms of component k (component minus x_k)."""
        return self.components[k] - RationalPoly.variable(self.n_in, k)


def invert_weight_triangular(m, weights, max_weight=None):
    """Inverse of a square map with components x_k + q_k, by sweeps
    g_k <- y_k - q_k(g) in increasing weight order.

    When every q_k involves only variables of weight < w_k (constants are
    allowed), one sweep gives the exact inverse.  Otherwise some q_k raises
    the weight and only a truncated inverse exists, so ``max_weight`` is
    required: the sweeps are clipped to weighted degree <= max_weight and
    repeat until g stops changing, and the result satisfies m(g(y)) = y
    modulo monomials of weighted degree > max_weight (checked; a failure
    raises ArithmeticError).  Raises ValueError on a linear term x_j with
    w_j = w_k and, when truncating, on a constant term.
    """
    comps = m.components if isinstance(m, PolyMap) else list(m)
    ws = as_weights(weights)
    tails, ranks = weight_shape(comps, ws)
    n = len(ws)
    order = sorted(range(n), key=lambda i: ws[i])
    ident = [RationalPoly.variable(n, j) for j in range(n)]
    g = list(ident)
    exact = all(rank < 2 for rank in ranks)
    if not exact:
        if max_weight is None:
            raise ValueError("no exact inverse; pass max_weight to truncate")
        if max_weight < max(ws):
            raise ValueError("max_weight must be at least the largest weight")
        if any((0,) * n in q.terms for q in tails):
            raise ValueError("a constant term leaves no truncated inverse")
    bound = None if exact else max_weight
    # Once the layers of total degree below D are exact, layer D settles
    # within one sweep per distinct weight: a weight-raising linear term
    # hands an error down one weight level per sweep.  g has at most
    # max_weight layers, and the last sweep confirms that nothing changed.
    # (Linear terms of lower weight mixed with raising ones can defeat
    # this; the residual check below then fails.)
    for _ in range(1 if exact else max_weight * len(set(ws)) + 1):
        before = list(g)
        for k in order:
            g[k] = ident[k] - tails[k].substitute(g, ws, bound)
        if g == before:
            break
    g = PolyMap(g)
    if exact:
        return g
    residual = PolyMap(comps).compose(g, ws, max_weight) - PolyMap.identity(n)
    if any(not c.is_zero for c in residual.components):
        raise ArithmeticError("truncated inversion failed to stabilize")
    return g


def invert_triangular(m):
    """Exact inverse of a TriangularMap; again a TriangularMap."""
    return TriangularMap(invert_weight_triangular(m, m.weights).components, m.weights)


def invert_perturbed_triangular(m, weights, max_weight):
    """Inverse of m truncated at weighted degree max_weight (the exact
    inverse, clipped, when m has one); see invert_weight_triangular."""
    return truncate_weight(invert_weight_triangular(m, weights, max_weight),
                           weights, max_weight)
