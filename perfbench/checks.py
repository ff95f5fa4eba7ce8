"""Checks made apart from the program under test.

The helpers here evaluate and differentiate the program's polynomial data
(plain ``{exponent: Fraction}`` dicts) with their own arithmetic, bracket
vectors straight from a structure-constant table, and use sympy for the
linear algebra of the chart checks.  Nothing here calls carnotkit.
"""

from fractions import Fraction


def poly_eval(terms, x):
    total = Fraction(0)
    for exp, c in terms.items():
        v = c
        for xj, e in zip(x, exp):
            if e:
                v *= xj ** e
        total += v
    return total


def poly_deriv_eval(terms, j, x):
    """d/dx_j of the polynomial, evaluated at x."""
    total = Fraction(0)
    for exp, c in terms.items():
        e = exp[j]
        if not e:
            continue
        v = c * e
        for l, (xl, el) in enumerate(zip(x, exp)):
            k = el - 1 if l == j else el
            if k:
                v *= xl ** k
        total += v
    return total


def map_eval(polys, x):
    """Evaluate a list of polynomials (objects with a ``terms`` dict)."""
    return tuple(poly_eval(p.terms, x) for p in polys)


def field_at(field, x):
    return map_eval(field.coefficients, x)


def field_bracket_at(f, g, x):
    """[f, g](x): component k is f(g_k) - g(f_k) at x."""
    fx, gx = field_at(f, x), field_at(g, x)
    n = len(x)
    out = []
    for k in range(n):
        gk, fk = g.coefficients[k].terms, f.coefficients[k].terms
        out.append(sum((fx[l] * poly_deriv_eval(gk, l, x) - gx[l] * poly_deriv_eval(fk, l, x)
                        for l in range(n) if fx[l] or gx[l]), Fraction(0)))
    return tuple(out)


def chart_eval(change, x):
    """u = poly(M (x - offset)) from the change's raw parts."""
    d = [Fraction(xi) - o for xi, o in zip(x, change.offset)]
    u = tuple(sum((m * v for m, v in zip(row, d)), Fraction(0)) for row in change.matrix)
    return map_eval(change.poly.components, u)


def change_key(change):
    """Canonical, hashable form of a coordinate change."""
    return (tuple(tuple(row) for row in change.matrix), tuple(change.offset),
            tuple(tuple(sorted(p.terms.items())) for p in change.poly.components))


def report_key(report):
    return (report.kind, report.ok, tuple(report.witnesses))


# ---------------------------------------------------------------------------
# Abstract brackets and the closed-form group law.
# ---------------------------------------------------------------------------


def vec_bracket(table, u, v, n):
    """[u, v] over a {(i, j, k): c} table with i < j."""
    out = [Fraction(0)] * n
    for (i, j, k), c in table.items():
        w = u[i] * v[j] - u[j] * v[i]
        if w:
            out[k] += c * w
    return out


def bch_closed_form(table, x, y, n):
    """x + y + 1/2[x,y] + 1/12([x,[x,y]] + [y,[y,x]]) - 1/24 [y,[x,[x,y]]];
    exact for groups of step <= 4."""
    br = lambda u, v: vec_bracket(table, u, v, n)
    xy = br(x, y)
    xxy = br(x, xy)
    yyx = br(y, br(y, x))
    yxxy = br(y, xxy)
    return tuple(x[k] + y[k] + xy[k] / 2 + (xxy[k] + yyx[k]) / 12 - yxxy[k] / 24
                 for k in range(n))


def weight2_rule(table, weights, x, y, z):
    """Components of weight 2 of z = x.y must be x + y + 1/2 [x, y]."""
    n = len(weights)
    xy = vec_bracket(table, x, y, n)
    return all(z[k] == x[k] + y[k] + xy[k] / 2 for k in range(n) if weights[k] == 2)


def left_invariant_closed_form(table, x, j, n):
    """X_j(x) = e_j + 1/2 [x, e_j] + 1/12 [x, [x, e_j]] (step <= 4)."""
    ej = [Fraction(1 if i == j else 0) for i in range(n)]
    first = vec_bracket(table, list(x), ej, n)
    second = vec_bracket(table, list(x), first, n)
    return tuple(ej[k] + first[k] / 2 + second[k] / 12 for k in range(n))


# ---------------------------------------------------------------------------
# sympy checks (imported lazily: they run after the measured passes).
# ---------------------------------------------------------------------------


def _sympy_matrix(rows):
    import sympy
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                         for row in rows])


def sympy_chart_linear_part(frame, change):
    """dchart(a) must be (B(a)^t)^-1.  The polynomial factor's linear part
    at 0 times the affine matrix is the chart's differential at a."""
    import sympy
    a = frame.base_point
    n = len(a)
    b = [field_at(f, a) for f in frame.fields]
    want = _sympy_matrix(b).T.inv()
    zero = (Fraction(0),) * n
    lin = [[poly_deriv_eval(p.terms, j, zero) for j in range(n)]
           for p in change.poly.components]
    got = _sympy_matrix(lin) * _sympy_matrix(change.matrix)
    return sympy.simplify(got - want) == sympy.zeros(n, n)


def sympy_tangent_constants(frame, constants_table):
    """Graded part of the solution of B(a)^t lambda = [X_i, X_j](a) must be
    the program's tangent constants."""
    import sympy
    a = frame.base_point
    n = len(a)
    ws = frame.weights.weights
    bt = _sympy_matrix([field_at(f, a) for f in frame.fields]).T
    want = {}
    for i in range(n):
        for j in range(i + 1, n):
            rhs = _sympy_matrix([[c] for c in field_bracket_at(frame.fields[i],
                                                               frame.fields[j], a)])
            lam = bt.LUsolve(rhs)
            for k in range(n):
                if lam[k] != 0 and ws[i] + ws[j] == ws[k]:
                    want[(i, j, k)] = Fraction(int(sympy.fraction(lam[k])[0]),
                                               int(sympy.fraction(lam[k])[1]))
    return want == dict(constants_table)


def sympy_flow_certificate(fields, flow_components, n):
    """The solved flow x(y, xi, t) must satisfy x(0) = y and
    dx_k/dt = sum_j xi_j X_j^k(x) as polynomial identities."""
    import sympy
    ys = sympy.symbols("y0:%d" % n)
    xis = sympy.symbols("xi0:%d" % n)
    t = sympy.Symbol("t")
    gens = list(ys) + list(xis) + [t]

    def to_expr(terms, variables):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*[v ** e for v, e in zip(variables, exp)])
                    for exp, c in terms.items()), sympy.Integer(0))

    xs = [to_expr(c.terms, gens) for c in flow_components]
    for k in range(n):
        if sympy.expand(xs[k].subs(t, 0) - ys[k]) != 0:
            return False
        rhs = sum((xis[j] * to_expr(fields[j].coefficients[k].terms, xs)
                   for j in range(n)), sympy.Integer(0))
        if sympy.expand(sympy.diff(xs[k], t) - rhs) != 0:
            return False
    return True
