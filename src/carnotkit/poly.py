"""Exact sparse polynomials over Q, polynomial maps and their inverses.

A polynomial is a dict {exponent tuple: Fraction} with zero coefficients
dropped eagerly, so equality is plain dict equality.  Variables are indexed
from 0 internally and printed as x1, ..., xn.  Substitution, and with it
composition, pushes and exact inverses, runs one batch kernel
(``substitute_all``) on integer numerators; a truncated inverse sweeps its
layer products once.  Results hold Fractions like every polynomial.
"""

from bisect import bisect_right
from fractions import Fraction
from math import lcm, prod
from operator import add

from . import linalg
from .graded import as_weights, weighted_degree


def _coef(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
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


def _accumulate(out, items):
    """Add (exponent, coefficient) pairs into the term dict ``out``."""
    for exp, c in items:
        prev = out.get(exp)
        if prev is None:
            out[exp] = c
        else:
            s = prev + c
            if s:
                out[exp] = s
            else:
                del out[exp]


def _graded(terms, ws=None):
    """A term dict as (weighted degrees, items) sorted by degree; as
    (None, items) in dict order without weights."""
    if ws is None:
        return None, list(terms.items())
    graded = sorted((weighted_degree(e, ws), e, c) for e, c in terms.items())
    return [d for d, _, _ in graded], [(e, c) for _, e, c in graded]


def _product(left, right, ws=None, bound=None):
    """The one product loop: the term dict of left * right, for ``left``
    term items and ``right`` in ``_graded`` form, graded by the caller once
    for every product it enters (nothing is cached on a polynomial).

    With weights ``ws`` and a ``bound``, a pair whose weighted degrees sum
    past the bound is never formed; weights are nonnegative, so such a pair
    only yields monomials above it.
    """
    degrees, partners = right
    out = {}
    for e1, c1 in left:
        row = partners
        if bound is not None:  # the partners of weighted degree <= bound - <e1>
            row = partners[:bisect_right(degrees, bound - weighted_degree(e1, ws))]
        _accumulate(out, [(tuple(map(add, e1, e2)), c1 * c2) for e2, c2 in row])
    return out


def sum_of_products(nvars, pairs, max_degree=None):
    """sum a * b over the (a, b) pairs of polynomials in ``nvars``
    variables, forming only the terms of ordinary degree <= max_degree when
    it is given (unit weights grade the clipped product)."""
    ws = None if max_degree is None else (1,) * nvars
    out = {}
    for a, b in pairs:
        if a and b:
            _accumulate(out, _product(a.terms.items(), _graded(b.terms, ws), ws,
                                      max_degree).items())
    return RationalPoly._from_terms(nvars, out)


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
                if c:
                    _accumulate(table, [(exp, c)])
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
        _accumulate(out, other.terms.items())
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
        return RationalPoly._from_terms(self.n, _product(self.terms.items(),
                                                         _graded(other.terms)))

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
        # distinct exponents stay distinct and c * e != 0: nothing to merge
        return RationalPoly._from_terms(self.n, {
            exp[:j] + (exp[j] - 1,) + exp[j + 1:]: c * exp[j]
            for exp, c in self.terms.items() if exp[j]})

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
        """Plug polynomials in for the variables (args[j] replaces x_j),
        dropping the monomials of weighted degree above ``bound`` when
        ``weights`` and ``bound`` are given: ``substitute_all`` on this one
        polynomial, exact over integer numerators."""
        return substitute_all([self], args, weights, bound)[0]

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


def substitute_all(polys, args, weights=None, bound=None):
    """``p.substitute(args, weights, bound)`` for each p of ``polys``.

    Each args[j] is an integer polynomial a_j over one integer denominator,
    so every product runs on ints.  The image a_1^{e_1}...a_j^{e_j} of each
    exponent met is formed once per call, as the image of the exponent with
    e_j lowered by one times a_j, j its last variable; every polynomial of
    the batch reads it.  A bound clips each product as it is formed (see
    ``_product``), which only weights >= 0 make exact.  Each polynomial sums
    its terms' images over one common denominator into Fractions.
    """
    n, m = len(args), args[0].n if args else 0
    if any(p.n != n for p in polys):
        raise ValueError("need one substitution polynomial per variable")
    if any(not isinstance(g, RationalPoly) or g.n != m for g in args):
        raise ValueError("substitution polynomials must share a variable count")
    ws = None
    if bound is not None:
        if weights is None:
            raise ValueError("a weight bound needs weights")
        ws = as_weights(weights)
        if len(ws) != m:
            raise ValueError("weights must grade the substitution variables")
        if any(w < 0 for w in ws):
            raise ValueError("a weight bound needs nonnegative weights")
        if bound < 0:  # every monomial, the constant one included, is above it
            return [RationalPoly(m) for _ in polys]
    dens = [lcm(*(c.denominator for c in g.terms.values())) for g in args]
    graded = [_graded({e: c.numerator * (d // c.denominator) for e, c in g.terms.items()},
                      ws) for g, d in zip(args, dens)]
    images = {(0,) * n: [((0,) * m, 1)]}  # exponent -> items of its image

    def image(exp):
        chain = []  # (exponent, j) down to the first exponent already imaged
        while exp not in images:
            j = max(i for i, e in enumerate(exp) if e)
            chain.append((exp, j))
            exp = exp[:j] + (exp[j] - 1,) + exp[j + 1:]
        got = images[exp]
        for exp, j in reversed(chain):
            got = images[exp] = list(_product(got, graded[j], ws, bound).items())
        return got

    out = []
    for p in polys:
        scaled = [(exp, c.numerator, c.denominator * prod(map(pow, dens, exp)))
                  for exp, c in p.terms.items()]
        common = lcm(*(den for _, _, den in scaled))
        acc = {}
        for exp, num, den in scaled:
            k = num * (common // den)
            _accumulate(acc, [(e, k * v) for e, v in image(exp)])
        out.append(RationalPoly._from_terms(
            m, {e: Fraction(v, common) for e, v in acc.items()}))
    return out


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
        return PolyMap(substitute_all(self.components, other.components, weights, bound))

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


def check_unit_triangular(m, weights):
    """``m`` when it is unit-triangular: component k is x_k plus monomials
    with |alpha| >= 2 and <alpha> <= w_k.  Such corrections can only
    involve variables of weight < w_k, so these maps form a group under
    composition and invert exactly by back-substitution in increasing
    weight order.  Raises ValueError otherwise."""
    _, ranks = weight_shape(m.components, weights)
    for k, rank in enumerate(ranks):
        if rank:
            raise ValueError(
                "component %d is not unit-triangular: its tail needs "
                "terms of two or more factors and weighted degree <= w_%d"
                % (k + 1, k + 1))
    return m


def invert_weight_triangular(m, weights, max_weight=None):
    """Inverse of a square map with components x_k + q_k; without
    ``max_weight`` the exact inverse, with it the inverse modulo weighted
    degree > max_weight (max_weight >= every weight), for every map.

    When every q_k involves only variables of weight < w_k (constants are
    allowed), one sweep g_k <- y_k - q_k(g) in increasing weight order gives
    the exact inverse; a bound clips each substitution, which weights >= 0
    make exact.  Otherwise some q_k raises the weight and only a truncated
    inverse exists, so ``max_weight`` is required.  With m = L + N, N the
    terms of two or more factors, g = L^{-1}y - M(g) for M = L^{-1}N.  g has
    no constant terms, so for |alpha| >= 2 layer d (weighted degree d) of
    g^alpha is the sum of layer e of g^(alpha - e_j) times layer d - e of
    g_j over 0 < e < d: one sweep d = 1, ..., max_weight forms each such
    term pair once, along the chains ``substitute_all`` walks, and then
    layer d of g.  m(g(y)) = y modulo weighted degree > max_weight is
    checked (ArithmeticError).  Raises ValueError on a linear term x_j with
    w_j = w_k, a singular L, or a truncated constant or weight below 1.
    """
    ws = as_weights(weights)
    tails, ranks = weight_shape(m.components, ws)
    if max_weight is not None and max_weight < max(ws):
        raise ValueError("max_weight must be at least the largest weight")
    n = len(ws)
    ident = [RationalPoly.variable(n, j) for j in range(n)]
    if all(rank < 2 for rank in ranks):
        g = list(ident)
        for k in sorted(range(n), key=lambda i: ws[i]):
            g[k] = ident[k] - tails[k].substitute(g, ws, max_weight)
        return PolyMap(g)
    if max_weight is None:
        raise ValueError("no exact inverse; pass max_weight to truncate")
    if min(ws) < 1 or any((0,) * n in q.terms for q in tails):
        raise ValueError("a truncated inverse needs positive weights and no constant term")
    l_inv = linalg.mat_inv(m.linear_matrix())
    nonlinear = [RationalPoly._from_terms(n, {e: c for e, c in q.terms.items() if sum(e) > 1})
                 for q in tails]
    mixed = [sum((q * -c for c, q in zip(row, nonlinear)), RationalPoly.zero(n)) for row in l_inv]
    # layers[exp][d]: the layer-d terms of g^exp, exp a unit or on the chains of -M's terms
    units = [next(iter(y.terms)) for y in ident]
    layers = {unit: [[]] for unit in units}
    steps = {}  # exponent -> (it with its last variable lowered, that variable)
    for exp in (exp for q in mixed for exp in q.terms):
        while exp not in layers:
            j = max(i for i, e in enumerate(exp) if e)
            layers[exp], steps[exp] = [[]], (exp[:j] + (exp[j] - 1,) + exp[j + 1:], j)
            exp = steps[exp][0]
    for d in range(1, max_weight + 1):
        for exp, (lower, j) in steps.items():
            low, g_j, out = layers[lower], layers[units[j]], {}
            for e in range(1, d):
                if low[e] and g_j[d - e]:
                    _accumulate(out, _product(low[e], (None, g_j[d - e])).items())
            layers[exp].append(list(out.items()))
        for unit, row, q in zip(units, l_inv, mixed):
            out = {y: c for y, c, w in zip(units, row, ws) if c and w == d}
            for exp, c in q.terms.items():
                _accumulate(out, [(e, c * v) for e, v in layers[exp][d]])
            layers[unit].append(list(out.items()))
    g = PolyMap([RationalPoly._from_terms(n, dict(t for layer in layers[unit] for t in layer))
                 for unit in units])
    if m.compose(g, ws, max_weight) != PolyMap.identity(n):
        raise ArithmeticError("truncated inverse fails its residual check: m(g(y)) - y "
                              "has terms of weighted degree <= %d" % max_weight)
    return g


def invert_triangular(m, weights):
    """Exact inverse of a unit-triangular map, checked to be one again."""
    return check_unit_triangular(invert_weight_triangular(m, weights), weights)


def invert_perturbed_triangular(m, weights, max_weight):
    """Inverse of m modulo weighted degree > max_weight: one
    invert_weight_triangular call under its own name."""
    return invert_weight_triangular(m, weights, max_weight)
