"""Independent oracles for the test suite.

Everything in this module is computed from first principles with its own
small helpers (nested brackets straight from a structure-constant table,
explicit closed forms, literals checked by hand) so that the package code
under test never certifies itself.  Keep these implementations boring and
free of imports from carnotkit internals beyond the basic polynomial type.
"""

from fractions import Fraction
import math

from carnotkit.poly import PolyMap, RationalPoly


# ---------------------------------------------------------------------------
# Abstract bracket and the closed-form group product up to step 4.
# ---------------------------------------------------------------------------

def _table_of(constants):
    return constants.table if hasattr(constants, "table") else dict(constants)


def abstract_bracket(constants, n, u, v):
    """[u, v] for coefficient vectors over a {(i, j, k): c} table (i < j,
    0-based, [e_i, e_j] = sum_k c e_k).  Entries may be Fractions or
    polynomials; only + and * are used."""
    table = _table_of(constants)
    out = [None] * n
    for (i, j, k), c in table.items():
        term = (u[i] * v[j] - u[j] * v[i]) * c
        out[k] = term if out[k] is None else out[k] + term
    zero = None
    for x in u:
        zero = x * 0
        break
    return [zero if w is None else w for w in out]


def bch_product(constants, n, x, y):
    """Closed-form product of a nilpotent group of step <= 4:

        z = x + y + 1/2 [x,y] + 1/12 ([x,[x,y]] + [y,[y,x]]) - 1/24 [y,[x,[x,y]]]

    evaluated with nested brackets over the raw structure-constant table.
    Entries may be Fractions or polynomials.
    """
    br = lambda u, v: abstract_bracket(constants, n, u, v)
    xy = br(x, y)
    xxy = br(x, xy)
    yyx = br(y, br(y, x))
    yxxy = br(y, xxy)
    out = []
    for k in range(n):
        out.append(x[k] + y[k] + xy[k] * Fraction(1, 2)
                   + (xxy[k] + yyx[k]) * Fraction(1, 12)
                   - yxxy[k] * Fraction(1, 24))
    return out


def bch_inverse(x):
    """The group inverse is plain negation for any nilpotent group given in
    exponential coordinates: all bracket terms of z(x, -x) cancel in pairs."""
    return [-v for v in x]


def left_invariant_vectors(constants, n, point):
    """X_j(point) for the left-invariant frame of a step <= 4 group, from
    the derivative of the closed-form product in its second slot:

        X_j(x) = e_j + 1/2 [x, e_j] + 1/12 [x, [x, e_j]].

    Returns a list of n vectors (rows j).
    """
    br = lambda u, v: abstract_bracket(constants, n, u, v)
    rows = []
    for j in range(n):
        ej = [Fraction(1 if i == j else 0) for i in range(n)]
        first = br(list(point), ej)
        second = br(list(point), first)
        rows.append([ej[k] + first[k] * Fraction(1, 2)
                     + second[k] * Fraction(1, 12) for k in range(n)])
    return rows


# ---------------------------------------------------------------------------
# The Dynkin series word by word, and the frame as the law's derivative.
# ---------------------------------------------------------------------------

def per_word_group_product(constants, n, x, y):
    """x . y as sum over the words (coef, letters) of dynkin_words(step) of
    coef * [l_1, [l_2, ... [l_{m-1}, l_m]]], each word bracketed on its own
    from the right with no sharing between words.  Entries may be
    Fractions or polynomials."""
    from carnotkit.groups import dynkin_words

    vec = {"x": list(x), "y": list(y)}
    out = [x[k] + y[k] for k in range(n)]
    for coef, letters in dynkin_words(constants.weights.r):
        if len(letters) == 1:
            continue
        v = vec[letters[-1]]
        for ch in reversed(letters[:-1]):
            v = abstract_bracket(constants, n, vec[ch], v)
        out = [o + w * coef for o, w in zip(out, v)]
    return out


def symbolic_law_frame(constants, n):
    """Rows b_jk(x) = d(x . y)_k / dy_j at y = 0 of the per-word law in the
    2n variables (x, y), as polynomials in the n variables x."""
    xs = [RationalPoly.variable(2 * n, j) for j in range(n)]
    ys = [RationalPoly.variable(2 * n, n + j) for j in range(n)]
    law = per_word_group_product(constants, n, xs, ys)
    rows = []
    for j in range(n):
        row = []
        for z in law:
            terms = {}
            for exp, c in z.partial(n + j).terms.items():
                if not any(exp[n:]):
                    terms[exp[:n]] = c
            row.append(RationalPoly(n, terms))
        rows.append(row)
    return rows


def enumerated_dynkin_words(step):
    """(coefficient, letters) of the Dynkin series up to length ``step`` by
    enumerating every sequence of blocks x^s y^t of total length <= step:
    a k-block sequence spelling letters of length L adds
    (-1)^{k-1} / (k L prod s! t!) to that word.  Words whose last two
    letters coincide are skipped, words come in the order of their first
    sequence, and words whose coefficients cancel are dropped."""
    words = {}

    def blocks(nblocks, prefix, used):
        if nblocks == 0:
            yield prefix
            return
        for s in range(0, step - used + 1):
            for t in range(0, step - used - s + 1):
                if s + t:
                    yield from blocks(nblocks - 1, prefix + ((s, t),), used + s + t)

    for nb in range(1, step + 1):
        for combo in blocks(nb, (), 0):
            letters = "".join("x" * s + "y" * t for s, t in combo)
            if len(letters) >= 2 and letters[-1] == letters[-2]:
                continue
            denom = len(letters) * math.prod(math.factorial(s) * math.factorial(t)
                                             for s, t in combo)
            words[letters] = words.get(letters, 0) + Fraction((-1) ** (nb - 1), nb) / denom
    return tuple((coef, letters) for letters, coef in words.items() if coef)


# ---------------------------------------------------------------------------
# Dense validation of a structure-constant table.
# ---------------------------------------------------------------------------

def dense_algebra_failures(weights, constants):
    """Failure strings of the graded Lie algebra check, in the library's
    format: grading failures in table order, then every nonzero Jacobi
    cyclic sum from the dense loop over (i < j < k, l, m), O(n^5) reads of
    the antisymmetric table."""
    table = _table_of(constants)
    n = len(weights)

    def get(i, j, k):
        if i < j:
            return Fraction(table.get((i, j, k), 0))
        if i > j:
            return -Fraction(table.get((j, i, k), 0))
        return Fraction(0)

    failures = []
    for (i, j, k), c in sorted(table.items()):
        if weights[i] + weights[j] != weights[k]:
            failures.append(
                "grading: L(%d,%d)^%d = %s but w_%d + w_%d = %d != %d = w_%d"
                % (i + 1, j + 1, k + 1, c, i + 1, j + 1,
                   weights[i] + weights[j], weights[k], k + 1))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    total = Fraction(0)
                    for m in range(n):
                        total += (get(i, j, m) * get(m, k, l)
                                  + get(j, k, m) * get(m, i, l)
                                  + get(k, i, m) * get(m, j, l))
                    if total:
                        failures.append(
                            "jacobi: cyclic sum for (%d, %d, %d) -> %d is %s"
                            % (i + 1, j + 1, k + 1, l + 1, total))
    return failures


# ---------------------------------------------------------------------------
# Flow certificate: a solved flow is correct iff it satisfies its own ODE.
# ---------------------------------------------------------------------------

def flow_certificate_failures(fields, weights, flow):
    """Exact certificate for a solved flow of x' = sum_j xi_j X_j(x).

    The flow components are polynomials in (y_1..y_n, xi_1..xi_n, t).
    Checks, as exact polynomial identities:
      * x_k(0; y, xi) = y_k,
      * d/dt x_k = sum_j xi_j * (coefficient of d/dx_k in X_j)(x(t)).
    Returns a list of human-readable failure strings (empty = certified).
    """
    n = len(fields)
    nn = 2 * n + 1
    failures = []
    zero_t = [RationalPoly.variable(nn, i) for i in range(nn)]
    zero_t[2 * n] = RationalPoly.zero(nn)
    for k, comp in enumerate(flow.components):
        at0 = comp.substitute(zero_t)
        if at0 != RationalPoly.variable(nn, k):
            failures.append("x_%d(0) != y_%d" % (k + 1, k + 1))

    # lift the field coefficients b_jk (polynomials in x) to (y, xi, t)
    # variables by plugging in the solved components
    lifted = [[fields[j].coefficients[k].substitute(flow.components)
               for k in range(n)] for j in range(n)]
    for k in range(n):
        lhs = flow.components[k].partial(2 * n)
        rhs = RationalPoly.zero(nn)
        for j in range(n):
            rhs = rhs + RationalPoly.variable(nn, n + j) * lifted[j][k]
        if lhs != rhs:
            failures.append("d/dt x_%d does not match the field" % (k + 1))
    return failures


# ---------------------------------------------------------------------------
# Time-one flows composed from the flow in (y, xi, t).
# ---------------------------------------------------------------------------

def composed_flow(fields, ws):
    """The flow of x' = sum_j xi_j X_j(x), x(0) = y, of a triangular system
    in canonical shape as polynomials in the 2n + 1 variables (y, xi, t):
    x_k = y_k + the t-antiderivative (vanishing at 0) of
    sum_j xi_j X_j^k(x), solved in nondecreasing weight order with every
    field entering."""
    n = len(ws)
    nn = 2 * n + 1
    xs = [RationalPoly.variable(nn, i) for i in range(nn)]
    solution = [RationalPoly.zero(nn)] * n
    for k in sorted(range(n), key=lambda i: ws[i]):
        rhs = sum((xs[n + j] * fraction_substitute(x.coefficients[k], solution)
                   for j, x in enumerate(fields)), RationalPoly.zero(nn))
        solution[k] = xs[k] + RationalPoly(nn, {e[:-1] + (e[-1] + 1,): c / (e[-1] + 1)
                                                for e, c in rhs.terms.items()})
    return PolyMap(solution)


def composed_time_one(fields, ws, y, xi):
    """x(1; y, xi) for lists y and xi of polynomials in the same variables:
    ``composed_flow`` composed at (y, xi, 1)."""
    args = list(y) + list(xi) + [RationalPoly.const(xi[0].n, 1)]
    return PolyMap([fraction_substitute(c, args)
                    for c in composed_flow(fields, ws).components])


# ---------------------------------------------------------------------------
# Step-2 quadratic coefficients of the homogeneous logarithm.
# ---------------------------------------------------------------------------

def expected_log_quadratic(frame):
    """For a step-2 frame adapted at 0, the logarithm chart's component k
    is x_k + sum_{i<=j} q_{ij} x_i x_j with

        q_ij = -1/2 (d_i b_jk(0) + d_j b_ik(0))    for i < j,
        q_ii = -1/2  d_i b_ik(0),

    where b_jk is the coefficient of d/dx_k in X_j minus its value delta_jk.
    Returns {k: {(i, j): coefficient}} over nonzero entries only, 0-based,
    i <= j.
    """
    n = frame.weights.n
    origin = (Fraction(0),) * n
    d = {}
    for j in range(n):
        for k in range(n):
            coef = frame.fields[j].coefficients[k]
            for i in range(n):
                d[(i, j, k)] = coef.partial(i).evaluate(origin)
    out = {}
    for k in range(n):
        entry = {}
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    q = -Fraction(1, 2) * d[(i, i, k)]
                else:
                    q = -Fraction(1, 2) * (d[(i, j, k)] + d[(j, i, k)])
                if q:
                    entry[(i, j)] = q
        if entry:
            out[k] = entry
    return out


def pairwise_psi(frame):
    """Components of the psi correction by the pairwise formula: component
    k is x_k + sum a_alpha x^alpha over |alpha| >= 2 and <alpha> < w_k, with
    the coefficients fixed in increasing |alpha| by

        alpha! a_alpha = -X^alpha(x_k)|_0
                         - sum_{2 <= |beta| < |alpha|} a_beta X^alpha(x^beta)|_0,

    where X^alpha = X_1^{a_1} ... X_n^{a_n} (the highest index acts first)
    and each X_j is applied from its coefficient list."""
    ws = tuple(frame.weights)
    n = len(ws)
    coefficients = [field.coefficients for field in frame.fields]
    origin = (Fraction(0),) * n

    def derivation(j, f):
        out = RationalPoly.zero(n)
        for k, c in enumerate(coefficients[j]):
            out = out + c * f.partial(k)
        return out

    def at_origin(alpha, f):
        for j in reversed(range(n)):
            for _ in range(alpha[j]):
                f = derivation(j, f)
        return f.evaluate(origin)

    def exponents(j, budget):
        if j == n:
            yield ()
            return
        for e in range(budget // ws[j] + 1):
            for rest in exponents(j + 1, budget - e * ws[j]):
                yield (e,) + rest

    comps = []
    for k in range(n):
        alphas = sorted((a for a in exponents(0, ws[k] - 1) if sum(a) >= 2),
                        key=lambda a: (sum(a), a))
        found = {}
        comp = RationalPoly.variable(n, k)
        for alpha in alphas:
            value = -at_origin(alpha, RationalPoly.variable(n, k))
            for beta, coef in found.items():
                if sum(beta) < sum(alpha):
                    value -= coef * at_origin(alpha, RationalPoly.monomial(n, beta))
            coef = value / math.prod(math.factorial(e) for e in alpha)
            if coef:
                found[alpha] = coef
                comp = comp + RationalPoly.monomial(n, alpha, coef)
        comps.append(comp)
    return PolyMap(comps)


# ---------------------------------------------------------------------------
# Frozen, hand-checked literals.
# ---------------------------------------------------------------------------

# Heisenberg group law in exponential coordinates:
#   z_3 = x_3 + y_3 + 1/2 (x_1 y_2 - x_2 y_1)
H3_PRODUCT_INSTANCE = (
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1), Fraction(1, 2)),
)

# The step-3 law on weights (1,1,2,3) with [e1,e2]=e3, [e1,e3]=e4:
#   z_3 = x_3 + y_3 + 1/2 (x_1 y_2 - x_2 y_1)
#   z_4 = x_4 + y_4 + 1/2 (x_1 y_3 - x_3 y_1)
#         + 1/12 (x_1^2 y_2 - x_1 x_2 y_1 + y_1^2 x_2 - y_1 y_2 x_1)
# Hand evaluation at x=(1,2,3,4), y=(5,6,7,8):
#   z_3 = 3 + 7 + (6 - 10)/2 = 8
#   z_4 = 4 + 8 + (7 - 15)/2 + (6 - 10 + 50 - 30)/12 = 12 - 4 + 16/12 = 28/3
ENGEL_PRODUCT_INSTANCE = (
    (Fraction(1), Fraction(2), Fraction(3), Fraction(4)),
    (Fraction(5), Fraction(6), Fraction(7), Fraction(8)),
    (Fraction(6), Fraction(8), Fraction(8), Fraction(28, 3)),
)

# On a group frame the centered chart is the left translation by the
# inverse of the base point: with a = (1,2,3) and x = (4,6,10),
#   (-a) . x = (3, 4, 10 - 3 + (-1*6 + 2*4)/2) = (3, 4, 8).
H3_EPSILON_INSTANCE = {
    "base": (Fraction(1), Fraction(2), Fraction(3)),
    "point": (Fraction(4), Fraction(6), Fraction(10)),
    "image": (Fraction(3), Fraction(4), Fraction(8)),
}


def h3_c2_forward():
    """Second-kind forward map of the Heisenberg frame with
    X_1 = d1 - (x_2/2) d3, X_2 = d2 + (x_1/2) d3.  Flowing the basis
    fields one at a time (highest index innermost) from 0:
        exp(t_3 X_3)(0) = (0, 0, t_3),
        exp(t_2 X_2):  x_3' = x_1/2 = 0      -> (0, t_2, t_3),
        exp(t_1 X_1):  x_3' = -x_2/2 = -t_2/2 -> (t_1, t_2, t_3 - t_1 t_2/2),
    so the forward map is (t_1, t_2, t_3 - t_1 t_2 / 2) and the chart
    (its inverse) is (x_1, x_2, x_3 + x_1 x_2 / 2)."""
    x1 = RationalPoly.variable(3, 0)
    x2 = RationalPoly.variable(3, 1)
    x3 = RationalPoly.variable(3, 2)
    return PolyMap([x1, x2, x3 - x1 * x2 * Fraction(1, 2)])


H3_C2_WITNESS = "x1*x2/2 in component 3"


def perturbed_h3_c1_chart():
    """First-kind chart of the catalog frame whose only deviation from the
    Heisenberg model is an extra x_1^2 d/dx_3 term on the first field.
    Solving x' = xi_1 X_1 + xi_2 X_2 + xi_3 X_3 from 0:
        x_1 = t xi_1, x_2 = t xi_2,
        x_3' = xi_3 - (x_2 xi_1 - x_1 xi_2)/2 + xi_1 x_1^2
             = xi_3 + t^2 xi_1^3   =>   x_3(1) = xi_3 + xi_1^3/3,
    and the chart inverts that: (x_1, x_2, x_3 - x_1^3/3)."""
    x1 = RationalPoly.variable(3, 0)
    x2 = RationalPoly.variable(3, 1)
    x3 = RationalPoly.variable(3, 2)
    return PolyMap([x1, x2, x3 - x1 ** 3 * Fraction(1, 3)])


def perturbed_engel_psi():
    """The catalog step-3 frame with the weight-breaking extras x_2 d/dx_4
    on X_1 and x_1 d/dx_4 on X_2 needs exactly one correction term:
    the order recursion at |alpha| = (1,1,0,0) gives
        a_4,(1,1,0,0) = -(X_1 X_2 x_4)(0) = -1,
    so psi = (x_1, x_2, x_3, x_4 - x_1 x_2)."""
    comps = [RationalPoly.variable(4, k) for k in range(4)]
    comps[3] = comps[3] - RationalPoly.variable(4, 0) * RationalPoly.variable(4, 1)
    return PolyMap(comps)


def step2_log_instance():
    """Frame X_1 = d/dx_1 + x_2 d/dx_3, X_2 = d/dx_2, X_3 = d/dx_3 on
    weights (1,1,2): b_13 = x_2, so the only quadratic correction is
    q_{12} in component 3 = -1/2 (d_1 b_23 + d_2 b_13)(0) = -1/2, giving
    the chart (x_1, x_2, x_3 - x_1 x_2 / 2)."""
    x1 = RationalPoly.variable(3, 0)
    x2 = RationalPoly.variable(3, 1)
    x3 = RationalPoly.variable(3, 2)
    return PolyMap([x1, x2, x3 - x1 * x2 * Fraction(1, 2)])


# ---------------------------------------------------------------------------
# Substitution one polynomial at a time, on Fraction coefficients.
# ---------------------------------------------------------------------------

def _clipped_product(left, right, ws, bound):
    """left * right for term dicts over Fractions; with a bound, products
    of weighted degree above it are dropped as they are formed."""
    out = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if bound is None or sum(w * k for w, k in zip(ws, e)) <= bound:
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def fraction_substitute(p, args, weights=None, bound=None):
    """p(args[0], ..., args[n - 1]), clipped at weighted degree ``bound``
    when one is given: the per-polynomial loop the package ran before its
    batch kernel.  Each term is multiplied by the powers args[j]^e_j, which
    are formed once per call, and every coefficient stays a Fraction."""
    m = args[0].n if args else 0
    if bound is not None and bound < 0:
        return RationalPoly(m)
    powers = [[] for _ in args]  # [j][e - 1]: args[j]^e
    acc = {}
    for exp, c in p.terms.items():
        term = {(0,) * m: c}
        for j, e in enumerate(exp):
            if e:
                pj = powers[j]
                if not pj:
                    pj.append(dict(args[j].terms))
                while len(pj) < e:
                    pj.append(_clipped_product(pj[-1], pj[0], weights, bound))
                term = _clipped_product(term, pj[e - 1], weights, bound)
        for e, v in term.items():
            acc[e] = acc.get(e, Fraction(0)) + v
    return RationalPoly(m, acc)


def fraction_layered_inverse(m, ws, max_weight):
    """The layered truncated inverse g = L^{-1}(y - N(g)), pass d clipping
    N(g) at d, with each nonlinear part N_k substituted on its own by
    ``fraction_substitute``; L^{-1} by ``dense_mat_inv``."""
    n = len(ws)
    ident = [RationalPoly.variable(n, j) for j in range(n)]
    l_inv = dense_mat_inv(m.linear_matrix())
    nonlinear = [RationalPoly(n, {e: c for e, c in comp.terms.items() if sum(e) > 1})
                 for comp in m.components]
    g = [RationalPoly.zero(n)] * n
    for d in range(1, max_weight + 1):
        rhs = [y - fraction_substitute(q, g, ws, d) for y, q in zip(ident, nonlinear)]
        g = [sum((p * c for p, c in zip(rhs, row)), RationalPoly.zero(n)) for row in l_inv]
    return PolyMap(g)


# ---------------------------------------------------------------------------
# Weighted filters: the terms of weighted degree <= a bound.
# ---------------------------------------------------------------------------

def take_weight_le(f, weights, bound):
    """The terms of f of weighted degree <= bound."""
    return RationalPoly(f.n, {e: c for e, c in f.terms.items()
                              if sum(w * k for w, k in zip(weights, e)) <= bound})


def truncate_weight(m, weights, max_weight):
    """``take_weight_le`` on every component of the map m."""
    return PolyMap([take_weight_le(c, weights, max_weight) for c in m.components])


# ---------------------------------------------------------------------------
# The truncated inverse by fixed-point sweeps, and an exact determinant.
# ---------------------------------------------------------------------------

def sweep_truncated_inverse(m, ws, max_weight):
    """The inverse of m modulo weighted degree > max_weight by whole sweeps
    g_k <- y_k - q_k(g) in increasing weight order, clipped at max_weight
    and repeated until g stops changing, at most max_weight * (number of
    distinct weights) + 1 times.  Returns None when the sweeps do not settle
    on an inverse modulo the bound."""
    n = len(ws)
    ident = [RationalPoly.variable(n, j) for j in range(n)]
    tails = [c - x for c, x in zip(m.components, ident)]
    g = list(ident)
    for _ in range(max_weight * len(set(ws)) + 1):
        before = list(g)
        for k in sorted(range(n), key=lambda i: ws[i]):
            g[k] = ident[k] - tails[k].substitute(g, ws, max_weight)
        if g == before:
            break
    g = PolyMap(g)
    return g if m.compose(g, ws, max_weight) == PolyMap.identity(n) else None


def determinant(rows):
    """Exact determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(((-1) ** j * c * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
                for j, c in enumerate(rows[0]) if c), Fraction(0))


# ---------------------------------------------------------------------------
# Canonical charts built about the base point.
# ---------------------------------------------------------------------------

def unpackaged_canonical_chart(frame, kind):
    """(polynomial factor, forward map) of a canonical chart of the given
    kind, built about the base point a: the forward map xi -> x is made of
    ``composed_time_one`` flows and keeps a's constants, it is inverted as
    it stands by one weight-ordered sweep, and the inverse is composed with
    x = a + B(a)^t u."""
    ws = frame.weights.weights
    n = len(ws)
    ident = [RationalPoly.variable(n, j) for j in range(n)]
    point = [RationalPoly.const(n, v) for v in frame.base_point]
    steps = [ident] if kind == "first" else [
        [x if l == j else x * 0 for l, x in enumerate(ident)] for j in reversed(range(n))]
    for xi in steps:
        point = composed_time_one(frame.fields, ws, point, xi).components
    forward = PolyMap(point)
    inverse = list(ident)  # each tail only reads variables of lower weight
    for k in sorted(range(n), key=lambda i: ws[i]):
        inverse[k] = ident[k] - (forward.components[k] - ident[k]).substitute(inverse)
    b = [[c.evaluate(frame.base_point) for c in field.coefficients] for field in frame.fields]
    undo_affine = PolyMap([sum((x * b[j][k] for j, x in enumerate(ident)),
                               RationalPoly.const(n, a_k))
                           for k, a_k in enumerate(frame.base_point)])
    return PolyMap(inverse).compose(undo_affine), forward


# ---------------------------------------------------------------------------
# One-stage pushes: the change expanded about the base point as a whole.
# ---------------------------------------------------------------------------

def one_stage_push(frame, change, max_weight=None):
    """Coefficient lists of the frame pushed through the change in one
    stage: X(m_k) = sum_j X^j d_j m_k for the forward map m expanded about
    the base point, composed with the whole inverse (the affine inverse and
    its constant terms included), clipped at max_weight when the change has
    no exact inverse."""
    ws = frame.weights.weights
    bound = None if change.is_exactly_invertible else max_weight
    forward = change.forward_polymap()
    inverse = change.inverse_polymap(bound).components
    pushed = []
    for field in frame.fields:
        coeffs = []
        for m_k in forward.components:
            x_m_k = RationalPoly.zero(m_k.n)
            for j, c in enumerate(field.coefficients):
                x_m_k = x_m_k + c * m_k.partial(j)
            coeffs.append(x_m_k.substitute(inverse, ws, bound))
        pushed.append(coeffs)
    return pushed


def one_stage_carnot_residual(change, eps_change):
    """change . eps^{-1} - id clipped at weight r, with the change expanded
    about the base point and eps's inverse carrying its constant terms."""
    wv = change.weights
    return (change.forward_polymap().compose(eps_change.inverse_polymap(),
                                             wv.weights, wv.r)
            - PolyMap.identity(wv.n))


# ---------------------------------------------------------------------------
# Per-sample RK4: one trajectory at a time, one numpy product per stage.
# ---------------------------------------------------------------------------

def float_fields(fields):
    """(E, C): the (T, n) matrix of every exponent in the fields and the
    (m, n, T) float tensor of their coefficients."""
    import numpy as np

    n = fields[0].n
    exps = sorted({exp for f in fields for p in f.coefficients for exp in p.terms})
    coeffs = np.array([[[float(p.terms.get(exp, 0)) for exp in exps]
                        for p in f.coefficients] for f in fields])
    return np.array(exps, dtype=float).reshape(len(exps), n), coeffs


def per_sample_rk4(coeffs, exps, y0, t_total, step):
    """Classic RK4 endpoint of x' = coeffs @ x^E from y0 over time t_total,
    one trajectory alone, in ceil(|t_total| / step) equal steps."""
    import numpy as np

    def velocity(x):
        return coeffs @ np.prod(x[None, :] ** exps, axis=-1)

    count = math.ceil(abs(t_total) / step)
    h = t_total / max(count, 1)
    x = np.array([float(v) for v in y0])
    for _ in range(count):
        k1 = velocity(x)
        k2 = velocity(x + 0.5 * h * k1)
        k3 = velocity(x + 0.5 * h * k2)
        k4 = velocity(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def per_sample_chart_point(frame, kind, xi, step=1e-3):
    """The canonical chart's forward map at one xi, as a float array: the
    time-one flow of sum_j xi_j X_j from the base point (first kind), or
    the flows of X_n, ..., X_1 for times xi_n, ..., xi_1 in turn (second)."""
    import numpy as np

    exps, coeffs = float_fields(frame.fields)
    xi = np.array([float(v) for v in xi])
    x = [float(v) for v in frame.base_point]
    if kind == "first":
        return per_sample_rk4(np.tensordot(xi, coeffs, axes=1), exps, x, 1.0, step)
    for j in reversed(range(len(xi))):
        x = per_sample_rk4(coeffs[j], exps, x, xi[j], step)
    return np.asarray(x)


def per_point_chart_report(frame, kind, m, eps, directions, step=1e-3):
    """numeric_chart_report's scaling test with the residual
    eps(F(xi)) - xi sampled one point at a time."""
    from carnotkit.graded import ow_scaling_test

    def residual(xi):
        x = per_sample_chart_point(frame, kind, xi, step)
        u = eps.change.apply(tuple(Fraction(v) for v in x))
        return tuple(float(a) - float(b) for a, b in zip(u, xi))

    ws = frame.weights.weights
    return ow_scaling_test(residual, m, ws, directions)


# ---------------------------------------------------------------------------
# Whole-polynomial derivation chains, per-field pushes and dense elimination.
# ---------------------------------------------------------------------------

def _partial(f, j):
    return RationalPoly(f.n, [(exp[:j] + (exp[j] - 1,) + exp[j + 1:], c * exp[j])
                              for exp, c in f.terms.items() if exp[j]])


def derivation(field, f):
    """X(f) = sum_k c_k d_k f on whole polynomials, nothing clipped."""
    out = RationalPoly.zero(f.n)
    for k, c in enumerate(field.coefficients):
        out = out + c * _partial(f, k)
    return out


def _exponents(ws, budget):
    """Every exponent tuple of weighted degree <= budget."""
    if not ws:
        yield ()
        return
    for e in range(budget // ws[0] + 1):
        for rest in _exponents(ws[1:], budget - e * ws[0]):
            yield (e,) + rest


def unclipped_psi(frame):
    """The psi correction with one whole-polynomial chain per alpha: in
    increasing layers |alpha| >= 2 with <alpha> < w_k, component k gains
    -X^alpha(c)|_0 / alpha! x^alpha, c being the component built from the
    lower layers and X^alpha = X_1^{a_1} ... X_n^{a_n} (X_n acts first)."""
    ws = tuple(frame.weights)
    n = len(ws)
    origin = (Fraction(0),) * n
    comps = []
    for k in range(n):
        alphas = sorted((a for a in _exponents(ws, ws[k] - 1) if sum(a) >= 2),
                        key=lambda a: (sum(a), a))
        comp = RationalPoly.variable(n, k)
        for size in sorted({sum(a) for a in alphas}):
            terms = {}
            for alpha in (a for a in alphas if sum(a) == size):
                g = comp
                for j in reversed(range(n)):
                    for _ in range(alpha[j]):
                        g = derivation(frame.fields[j], g)
                value = g.evaluate(origin)
                if value:
                    terms[alpha] = -value / math.prod(math.factorial(e) for e in alpha)
            comp = comp + RationalPoly(n, terms)
        comps.append(comp)
    return PolyMap(comps)


def unclipped_function_order(f, frame, n_max=None):
    """The order of f at the base point by evaluating every composed
    derivation X_{i_1} ... X_{i_m} f of weight < n_max there, on whole
    polynomials; None when all of them vanish (and for f = 0)."""
    ws = tuple(frame.weights)
    n_max = max(ws) + 1 if n_max is None else n_max
    a = frame.base_point
    if f.is_zero:
        return None
    if f.evaluate(a) != 0:
        return 0

    def sequences(target):
        if target == 0:
            yield ()
            return
        for i, w in enumerate(ws):
            if w <= target:
                for rest in sequences(target - w):
                    yield (i,) + rest

    cache = {(): f}

    def derived(seq):
        if seq not in cache:
            cache[seq] = derivation(frame.fields[seq[0]], derived(seq[1:]))
        return cache[seq]

    for target in range(1, n_max):
        if any(derived(seq).evaluate(a) != 0 for seq in sequences(target)):
            return target
    return None


def per_field_pushforward(field, forward, inverse, weights=None, max_weight=None):
    """Coefficient list of m_* X: X(m_k) composed with the inverse, each
    X(m_k) differentiating m_k anew for this field."""
    return [derivation(field, m_k).substitute(inverse.components, weights, max_weight)
            for m_k in forward.components]


def dense_mat_inv(rows):
    """Exact inverse by Gauss-Jordan elimination on [a | I], every row
    update over whole rows; ValueError("singular matrix") without a pivot."""
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def unclipped_epsilon(frame):
    """(matrix, polynomial factor, Carnot-frame coefficient lists) of the
    epsilon chart from the unclipped psi and per-field pushes: the affine
    adaptation u = (B(a)^t)^{-1} (x - a), psi, the model fields of the
    privileged frame, and phi = the inverse of their exponential."""
    from carnotkit.coords import exp_map
    from carnotkit.poly import invert_weight_triangular
    from carnotkit.vfields import Frame, PolyVectorField, model_field

    ws = tuple(frame.weights)
    n = len(ws)
    a = frame.base_point
    b_t = [list(col) for col in zip(*(field.evaluate(a) for field in frame.fields))]
    m = dense_mat_inv(b_t)
    xs = [RationalPoly.variable(n, j) for j in range(n)]

    def affine(matrix, shift):
        return PolyMap([sum((x * c for x, c in zip(xs, row)), RationalPoly.const(n, s))
                        for row, s in zip(matrix, shift)])

    forward = affine(m, [-sum(c * v for c, v in zip(row, a)) for row in m])
    inverse = affine(b_t, a)
    adapted = [PolyVectorField(per_field_pushforward(x, forward, inverse))
               for x in frame.fields]
    psi = unclipped_psi(Frame(adapted, frame.weights, (0,) * n, check=False))
    psi_inv = invert_weight_triangular(psi, ws)
    privileged = [PolyVectorField(per_field_pushforward(x, psi, psi_inv)) for x in adapted]
    exp_model = exp_map([model_field(x, j, ws) for j, x in enumerate(privileged)], ws)
    phi = invert_weight_triangular(exp_model, ws)
    return m, phi.compose(psi), [per_field_pushforward(x, phi, exp_model) for x in privileged]
