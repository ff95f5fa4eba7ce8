import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from carnotkit.coords import CoordinateChange
from carnotkit.graded import WeightVector, iter_weighted_exponents
from carnotkit.groups import (StructureConstants, catalog, catalog_names,
                              group_frame)
from carnotkit.poly import PolyMap, RationalPoly, invert_weight_triangular
from carnotkit.vfields import Frame, PolyVectorField, pushforward

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

def fractions(max_num=9, max_den=7):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def points(n, max_num=6, max_den=5):
    return st.tuples(*[fractions(max_num, max_den) for _ in range(n)])


def small_polys(n, max_terms=4, max_exp=3):
    """Sparse polynomials in n variables with small rational coefficients."""
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_exp)
                       for _ in range(n)])
    term = st.tuples(exps, fractions(6, 4))
    def build(terms):
        p = RationalPoly.zero(n)
        for exp, c in terms:
            p = p + RationalPoly.monomial(n, exp, c)
        return p
    return st.lists(term, min_size=0, max_size=max_terms).map(build)


STEP3_WEIGHTS = [(1, 1, 2, 3), (1, 2, 3), (1, 1, 2, 3, 3)]


@st.composite
def step3_unipotent_maps(draw, raising, lowering=False):
    """Component k is x_k plus products of two or three variables of weight
    below w_k and then, when ``raising``, possibly a linear x_j with
    w_j > w_k, when also ``lowering`` a linear x_j with w_j < w_k, and a
    product x_i x_j with w_j >= w_k, else possibly a constant."""
    ws = draw(st.sampled_from(STEP3_WEIGHTS))
    n = len(ws)
    xs = [RationalPoly.variable(n, j) for j in range(n)]
    comps = []
    for k in range(n):
        comp = xs[k]
        lower = [j for j in range(n) if ws[j] < ws[k]]
        for _ in range(draw(st.integers(0, 2)) if lower else 0):
            factors = draw(st.lists(st.sampled_from(lower), min_size=2, max_size=3))
            term = draw(fractions(4, 3))
            for j in factors:
                term = term * xs[j]
            comp = comp + term
        if raising:
            higher = [j for j in range(n) if ws[j] > ws[k]]
            if higher and draw(st.booleans()):
                comp = comp + draw(fractions(4, 3)) * xs[draw(st.sampled_from(higher))]
            if lowering and lower and draw(st.booleans()):
                comp = comp + draw(fractions(4, 3)) * xs[draw(st.sampled_from(lower))]
            if draw(st.booleans()):
                j = draw(st.sampled_from([j for j in range(n) if ws[j] >= ws[k]]))
                i = draw(st.integers(0, n - 1))
                comp = comp + draw(fractions(4, 3)) * xs[i] * xs[j]
        elif draw(st.booleans()):
            comp = comp + draw(fractions(4, 3))
        comps.append(comp)
    return PolyMap(comps), ws


CATALOG_GROUP_NAMES = [
    "abelian_3", "heisenberg_3", "heisenberg_5", "engel_4", "step3_filiform_5",
]
CATALOG_FRAME_NAMES = CATALOG_GROUP_NAMES + [
    "perturbed_heisenberg_3", "perturbed_engel_4",
]


def catalog_constants():
    return st.sampled_from(CATALOG_GROUP_NAMES).map(
        lambda name: catalog(name).constants)


def step2_constants(n1_range=(2, 3), n2_range=(1, 2)):
    """Random valid step-2 structure constants: n1 weight-1 generators, n2
    weight-2 centre directions, [e_i, e_j] an arbitrary small-rational
    combination of the centre (Jacobi is automatic in the centre)."""
    def build(args):
        n1, n2, coefs = args
        weights = (1,) * n1 + (2,) * n2
        table = {}
        idx = 0
        for i in range(n1):
            for j in range(i + 1, n1):
                for k in range(n2):
                    c = coefs[idx % len(coefs)]
                    idx += 1
                    if c:
                        table[(i, j, n1 + k)] = c
        return StructureConstants(WeightVector(weights), table)
    return st.tuples(
        st.integers(min_value=n1_range[0], max_value=n1_range[1]),
        st.integers(min_value=n2_range[0], max_value=n2_range[1]),
        st.lists(fractions(3, 2), min_size=6, max_size=12),
    ).map(build)


def step2_adapted_frames():
    """Random step-2 frames adapted at the origin: X_j = d/dx_j plus random
    linear forms times the centre directions."""
    def build(args):
        n1, n2, coefs = args
        n = n1 + n2
        weights = (1,) * n1 + (2,) * n2
        fields = []
        idx = 0
        for j in range(n):
            comps = [RationalPoly.const(n, 1 if k == j else 0) for k in range(n)]
            if j < n1:
                for k in range(n1, n):
                    form = RationalPoly.zero(n)
                    for i in range(n1):
                        c = coefs[idx % len(coefs)]
                        idx += 1
                        if c:
                            form = form + RationalPoly.variable(n, i) * c
                    comps[k] = comps[k] + form
            fields.append(PolyVectorField(comps))
        try:
            return Frame(fields, WeightVector(weights), (Fraction(0),) * n)
        except ValueError:
            return None
    return st.tuples(
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=2),
        st.lists(fractions(3, 2), min_size=8, max_size=16),
    ).map(build).filter(lambda fr: fr is not None)


def filiform_constants(n):
    """Model filiform algebra: [e_1, e_k] = e_(k+1), weights (1, 1, 2, ..., n-1)."""
    return StructureConstants((1, 1) + tuple(range(2, n)),
                              {(0, k, k + 1): 1 for k in range(1, n - 1)})


@st.composite
def filiform_frames(draw, sizes=(5, 6)):
    """Model filiform frames of step n - 1 >= 4 at a random base point: the
    group frame itself, or the group frame pushed through a random unipotent
    map whose component k gains up to two monomials of weighted degree
    2 .. w_k + 2 in variables of weight < w_k (so it inverts exactly and
    the result is an H-frame that is no group frame)."""
    n = draw(st.sampled_from(sizes))
    constants = filiform_constants(n)
    ws = constants.weights.weights
    fields = group_frame(constants).fields
    if draw(st.booleans()):
        comps = []
        for k in range(n):
            comp = RationalPoly.variable(n, k)
            cands = [e for d in range(2, ws[k] + 3)
                     for e in iter_weighted_exponents(ws, d, "eq")
                     if sum(e) >= 2 and all(not x or ws[j] < ws[k]
                                            for j, x in enumerate(e))]
            if cands:
                for e in draw(st.lists(st.sampled_from(cands), max_size=2,
                                       unique=True)):
                    comp = comp + RationalPoly.monomial(n, e, draw(fractions(3, 3)))
            comps.append(comp)
        phi = PolyMap(comps)
        phi_inv = invert_weight_triangular(phi, ws)
        fields = [pushforward(x, phi, phi_inv) for x in fields]
    return Frame(fields, WeightVector(ws), draw(points(n, 2, 3)))


def catalog_base_frames():
    """Catalog frames at small rational base points where B(a) is
    invertible (None where it is not)."""
    def at(args):
        name, point = args
        try:
            return catalog(name).frame.at_base(point, check=True)
        except ValueError:  # DegenerateFrameError included
            return None
    return st.sampled_from(CATALOG_FRAME_NAMES).flatmap(
        lambda name: st.tuples(st.just(name),
                               points(catalog(name).constants.weights.n, 3, 4))).map(at)


def nonzero_base_frames(filiform_sizes=(5, 6)):
    """Catalog frames at nonzero rational base points where B(a) is
    invertible, and model filiform frames (``filiform_frames``) at nonzero
    ones."""
    return st.one_of(catalog_base_frames(), filiform_frames(filiform_sizes)).filter(
        lambda fr: fr is not None and any(fr.base_point))


def off_centre_change():
    """X1 = d1 at 0 with the change u = v + v^2, v = x - 1: it maps 0 to 0
    through a second zero of its truncated factor, not through its centre 1."""
    frame = Frame([PolyVectorField.coordinate(1, 0)], (1,), (0,))
    x = RationalPoly.variable(1, 0)
    return frame, CoordinateChange([[1]], (1,), (1,), PolyMap([x + x * x]))


# ---------------------------------------------------------------------------
# Fixtures.
# ---------------------------------------------------------------------------

@pytest.fixture
def rng(request):
    return random.Random("carnotkit-tests:%s" % request.node.nodeid)


@pytest.fixture(params=CATALOG_GROUP_NAMES)
def group_entry(request):
    return catalog(request.param)


@pytest.fixture(params=CATALOG_FRAME_NAMES)
def frame_entry(request):
    return catalog(request.param)


@pytest.fixture
def h3_frame():
    return catalog("heisenberg_3").frame


@pytest.fixture
def engel_frame():
    return catalog("engel_4").frame
