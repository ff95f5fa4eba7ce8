"""Seeded input generators for the benchmark.

Everything here is derived from ``random.Random`` streams the caller seeds,
so the same seed always yields the same algebras, frames, points and chart
variants.  Generators that build polynomial maps take two streams: ``shape``
picks which monomials appear and ``values`` picks their coefficients.  The
workloads draw ``shape`` from a fixed stream and ``values`` from the seed,
so every seed asks the program for the same amount of symbolic work while
the numbers differ.  The program under test only ever receives these
generated objects.
"""

from fractions import Fraction

from carnotkit.graded import iter_weighted_exponents
from carnotkit.groups import StructureConstants, group_frame
from carnotkit.poly import PolyMap, RationalPoly, invert_weight_triangular
from carnotkit.vfields import Frame, pushforward

_COEFS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
          Fraction(-2, 3), 3, Fraction(3, 2))
_SCALES = (2, 3, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 2))


def free2(r):
    """Free step-2 nilpotent algebra of rank r: [e_i, e_j] = e_(ij), i < j.

    Dimension r + r(r-1)/2, so rank 3, 4, 5 give n = 6, 10, 15.
    """
    table = {}
    k = r
    for i in range(r):
        for j in range(i + 1, r):
            table[(i, j, k)] = 1
            k += 1
    return StructureConstants((1,) * r + (2,) * (k - r), table)


def filiform(n):
    """Model filiform algebra: [e_1, e_k] = e_(k+1), weights (1, 1, 2, ..., n-1)."""
    weights = (1, 1) + tuple(range(2, n))
    return StructureConstants(weights, {(0, k, k + 1): 1 for k in range(1, n - 1)})


def algebra(name):
    kind, size = name.rsplit("_", 1)
    return {"free2": free2, "filiform": filiform}[kind](int(size))


def rescaled(constants, scales):
    """Constants of the basis f_i = c_i e_i: L'_ij^k = c_i c_j / c_k L_ij^k.

    The diagonal map x -> (c_i x_i) is then a group isomorphism from the
    rescaled law onto the original one.
    """
    c = [Fraction(s) for s in scales]
    table = {(i, j, k): v * c[i] * c[j] / c[k]
             for (i, j, k), v in constants.table.items()}
    return StructureConstants(constants.weights, table)


def random_scales(n, rng):
    return tuple(rng.choice(_SCALES) for _ in range(n))


def rand_frac(rng, num=3, den=3):
    """Nonzero rational +-p/q with p <= num, q <= den (zeros would make some
    seeds cheaper than others)."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, num), rng.randint(1, den))


def rand_point(rng, n, num=3, den=3):
    return tuple(rand_frac(rng, num, den) for _ in range(n))


def _monomials(ws, degree, allowed):
    """Exponents of weighted degree ``degree`` with at least two factors,
    using only the variables in ``allowed``."""
    return [e for e in iter_weighted_exponents(ws, degree, "eq")
            if sum(e) >= 2 and all(not x or j in allowed for j, x in enumerate(e))]


def random_triangular(ws, shape, values, terms_per_component=1):
    """Exactly invertible triangular map: component k is x_k plus a few
    monomials in variables of weight < w_k, of weighted degree w_k - 1 ..
    w_k + 1, so it breaks privileged coordinates and adds higher terms."""
    n = len(ws)
    comps = []
    for k in range(n):
        comp = RationalPoly.variable(n, k)
        lower = {j for j in range(n) if ws[j] < ws[k]}
        cands = [e for d in (ws[k] - 1, ws[k], ws[k] + 1)
                 for e in _monomials(ws, d, lower)]
        for e in shape.sample(cands, min(terms_per_component, len(cands))):
            comp = comp + RationalPoly.monomial(n, e, values.choice(_COEFS))
        comps.append(comp)
    return PolyMap(comps)


def perturbed_frame(constants, base_point, shape, values):
    """Group frame pushed through a random exactly invertible triangular
    change.  Brackets are preserved, so the result is an H-frame with the
    same tangent constants, and it keeps the canonical triangular shape
    that exact canonical charts need."""
    ws = constants.weights.weights
    phi = random_triangular(ws, shape, values)
    phi_inv = invert_weight_triangular(phi, ws)
    fields = [pushforward(x, phi, phi_inv) for x in group_frame(constants).fields]
    return Frame(fields, ws, base_point, check=True)


# ---------------------------------------------------------------------------
# Chart variants built by the benchmark, each with the verdicts it must get.
# ---------------------------------------------------------------------------


def _raising(ws, shape, values, count):
    """id + ``count`` monomials of weighted degree w_k + 1 or w_k + 2 with at
    least two factors.  The first one sits in a weight-1 component and uses
    weight-1 variables, so the result is never exactly invertible."""
    n = len(ws)
    comps = [RationalPoly.variable(n, k) for k in range(n)]
    every = set(range(n))
    first = [(k, e) for k in range(n) if ws[k] == 1 for e in _monomials(ws, 2, every)]
    cands = [(k, e) for k in range(n) for d in (1, 2)
             for e in _monomials(ws, ws[k] + d, every)]
    for k, e in [shape.choice(first)] + shape.sample(cands, count - 1):
        comps[k] = comps[k] + RationalPoly.monomial(n, e, values.choice(_COEFS))
    return comps


def _homogeneous_tail(ws, shape, count):
    """A few monomials of weighted degree exactly w_k with at least two
    factors (component k): a nontrivial homogeneous diffeomorphism."""
    n = len(ws)
    every = set(range(n))
    cands = [(k, e) for k in range(n) for e in _monomials(ws, ws[k], every)]
    return shape.sample(cands, min(count, len(cands)))


def chart_variants(change, shape, values, raising_terms=7):
    """Three chart variants of a Carnot chart, none exactly invertible:

    - ``carnot``: chart o (id + weight-raising terms); Carnot and privileged;
    - ``privileged``: chart o (id + homogeneous tail + raising terms);
      privileged but not Carnot;
    - ``adversarial``: chart o (id + a linear term x_j, w_j > w_k, in
      component k + raising terms), which tilts the frame at the base
      point; neither privileged nor Carnot.

    Returns [(label, change, carnot_expected, privileged_expected)].
    """
    ws = change.weights.weights
    n = len(ws)
    out = []

    def compose(comps):
        return change.compose_tail(PolyMap(comps))

    comps = _raising(ws, shape, values, raising_terms)
    out.append(("carnot", compose(comps), True, True))

    comps = _raising(ws, shape, values, raising_terms)
    for k, e in _homogeneous_tail(ws, shape, 2):
        comps[k] = comps[k] + RationalPoly.monomial(n, e, values.choice(_COEFS))
    out.append(("privileged", compose(comps), False, True))

    comps = _raising(ws, shape, values, raising_terms)
    k, j = shape.choice([(k, j) for k in range(n) for j in range(n) if ws[j] > ws[k]])
    comps[k] = comps[k] + RationalPoly.variable(n, j) * values.choice(_COEFS)
    out.append(("adversarial", compose(comps), False, False))
    return out
