import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carnotkit.graded import WeightVector, dilate
from carnotkit.poly import RationalPoly
from carnotkit.groups import (
    StructureConstants, catalog, catalog_names, dynkin_product, dynkin_symbolic,
    dynkin_words, group_frame, group_inverse, group_product, left_invariant_fields,
    structure_constants_at, validate_algebra,
)

import oracles
from conftest import (CATALOG_GROUP_NAMES, catalog_constants, fractions,
                      points, step2_constants)


def _rand_point(rng, n, span=5):
    return tuple(Fraction(rng.randint(-span, span), rng.randint(1, 4))
                 for _ in range(n))


# ---------------------------------------------------------------------------
# The product against the closed-form oracle.
# ---------------------------------------------------------------------------

def test_product_matches_closed_form_oracle(group_entry, rng):
    sc = group_entry.constants
    n = sc.n
    for _ in range(25):
        x, y = _rand_point(rng, n), _rand_point(rng, n)
        assert tuple(group_product(x, y, sc)) == \
            tuple(oracles.bch_product(sc, n, list(x), list(y)))


@given(step2_constants(), st.data())
def test_product_matches_oracle_on_random_step2(sc, data):
    n = sc.n
    x = data.draw(points(n))
    y = data.draw(points(n))
    assert tuple(group_product(x, y, sc)) == \
        tuple(oracles.bch_product(sc, n, list(x), list(y)))


def test_frozen_product_instances():
    h3 = catalog("heisenberg_3").constants
    x, y, z = oracles.H3_PRODUCT_INSTANCE
    assert dynkin_product(x, y, h3) == z
    engel = catalog("engel_4").constants
    x, y, z = oracles.ENGEL_PRODUCT_INSTANCE
    assert dynkin_product(x, y, engel) == z


# ---------------------------------------------------------------------------
# Group axioms and dilations.
# ---------------------------------------------------------------------------

def test_group_axioms(group_entry, rng):
    sc = group_entry.constants
    n = sc.n
    e = (Fraction(0),) * n
    for _ in range(15):
        x, y, z = (_rand_point(rng, n) for _ in range(3))
        xy = group_product(x, y, sc)
        assert group_product(xy, z, sc) == group_product(x, group_product(y, z, sc), sc)
        assert group_product(x, e, sc) == x
        assert group_product(e, x, sc) == x
        assert group_product(x, group_inverse(x), sc) == e


def test_dilations_are_automorphisms(group_entry, rng):
    sc = group_entry.constants
    n = sc.n
    ws = sc.weights
    for t in (Fraction(1, 2), Fraction(-2), Fraction(3, 5)):
        for _ in range(5):
            x, y = _rand_point(rng, n), _rand_point(rng, n)
            lhs = group_product(dilate(x, t, ws), dilate(y, t, ws), sc)
            rhs = dilate(group_product(x, y, sc), t, ws)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# Left-invariant fields and their structure constants.
# ---------------------------------------------------------------------------

def test_left_invariant_fields_match_oracle(group_entry, rng):
    sc = group_entry.constants
    n = sc.n
    li = left_invariant_fields(sc)
    for _ in range(8):
        pt = _rand_point(rng, n, span=3)
        rows = oracles.left_invariant_vectors(sc, n, pt)
        for j in range(n):
            assert tuple(li[j].evaluate(pt)) == tuple(rows[j])


def test_left_invariant_fields_are_fresh_per_call():
    sc = catalog("heisenberg_3").constants
    left_invariant_fields(sc)[0].coefficients.append(RationalPoly.zero(3))
    first = left_invariant_fields(sc)[0]
    assert len(first.coefficients) == 3
    assert len(group_frame(sc).fields[0].coefficients) == 3


def test_left_invariant_fields_cache_survives_caller_mutation():
    # constants of their own, so the cache entry is not shared with other tests
    sc = StructureConstants((1, 1, 2), {(0, 1, 2): Fraction(7, 3)})
    fields = left_invariant_fields(sc)
    try:
        fields.append(fields[0])
    except AttributeError:
        pass
    assert len(left_invariant_fields(sc)) == 3
    assert len(group_frame(sc).fields) == 3


def test_left_invariant_coefficients_survive_caller_mutation():
    sc = StructureConstants((1, 1, 2), {(0, 1, 2): Fraction(5, 3)})
    before = dict(left_invariant_fields(sc)[0].coefficients[2].terms)
    left_invariant_fields(sc)[0].coefficients[2].terms[(0, 0, 0)] = Fraction(5)
    assert left_invariant_fields(sc)[0].coefficients[2].terms == before
    assert group_frame(sc).fields[0].coefficients[2].terms == before


def test_symbolic_law_survives_caller_mutation():
    sc = StructureConstants((1, 1, 2), {(0, 1, 2): Fraction(4, 3)})
    before = [dict(c.terms) for c in dynkin_symbolic(sc).components]
    law = dynkin_symbolic(sc)
    law.components.append(law.components[0])
    law.components[0].terms[(0,) * 6] = Fraction(5)
    assert [dict(c.terms) for c in dynkin_symbolic(sc).components] == before


def test_dynkin_words_are_merged_by_letters():
    for step in range(1, 8):
        words = dynkin_words(step)
        letters = [w for _, w in words]
        assert len(letters) == len(set(letters))
        assert all(coef for coef, _ in words)


def test_structure_constants_round_trip(group_entry):
    sc = group_entry.constants
    frame = group_frame(sc)
    recovered, full = structure_constants_at(frame)
    assert recovered.table == sc.table
    assert recovered.weights == sc.weights


def test_group_frame_rebased_keeps_constants(rng):
    sc = catalog("engel_4").constants
    base = _rand_point(rng, 4, span=2)
    frame = group_frame(sc, base)
    recovered, _ = structure_constants_at(frame)
    assert recovered.table == sc.table


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------

def test_validate_accepts_catalog(group_entry):
    rep = validate_algebra(group_entry.constants)
    assert rep.ok, rep


def test_validate_rejects_grading_violation():
    # [e1, e2] = e1 has weight 1 on the left, needs >= 2 on the right
    sc = StructureConstants(WeightVector((1, 1, 2)), {(0, 1, 0): Fraction(1)})
    rep = validate_algebra(sc)
    assert not rep.ok


def test_validate_rejects_jacobi_violation():
    # weights (1,1,1,2,2): [e1,e2]=e4, [e1,e3]=e5, [e2,e3]=... pick entries
    # whose Jacobi sum on (e1,e2,e3) cannot vanish
    ws = WeightVector((1, 1, 1, 2, 2, 3))
    table = {
        (0, 1, 3): Fraction(1),
        (1, 2, 4): Fraction(1),
        (0, 4, 5): Fraction(1),   # [e1,[e2,e3]] = e6
        # [e3,[e1,e2]] = [e3,e4] = 0, [e2,[e3,e1]] = -[e2,e5] = 0
    }
    sc = StructureConstants(ws, table)
    rep = validate_algebra(sc)
    assert not rep.ok


def _free2(r):
    """Free step-2 algebra of rank r: [e_i, e_j] = e_(ij) for i < j."""
    table = {}
    k = r
    for i in range(r):
        for j in range(i + 1, r):
            table[(i, j, k)] = 1
            k += 1
    return StructureConstants((1,) * r + (2,) * (k - r), table)


def _filiform(n):
    """Model filiform algebra: [e_1, e_k] = e_(k+1), weights (1, 1, 2, ..., n-1)."""
    return StructureConstants((1, 1) + tuple(range(2, n)),
                              {(0, k, k + 1): 1 for k in range(1, n - 1)})


def _assert_matches_dense_oracle(sc):
    failures = oracles.dense_algebra_failures(sc.weights.weights, sc)
    rep = validate_algebra(sc)
    assert rep.failures == failures
    assert rep.ok == (not failures)
    return rep


@st.composite
def graded_tables(draw):
    """Tables on n <= 8 basis vectors: a valid algebra (a model filiform or
    free step-2 algebra, or a catalog group, in a randomly rescaled basis),
    optionally with planted entries that may break grading or Jacobi; or an
    arbitrary table on random weights."""
    nonzero = fractions(4, 3).filter(bool)
    base = draw(st.sampled_from(["filiform", "free2", "catalog", "random"]))
    if base == "random":
        ws = tuple(sorted(draw(st.lists(st.integers(1, 4), min_size=3, max_size=8))))
        table = {}
    else:
        if base == "filiform":
            sc = _filiform(draw(st.integers(3, 8)))
        elif base == "free2":
            sc = _free2(draw(st.integers(2, 3)))
        else:
            sc = draw(catalog_constants())
        ws = sc.weights.weights
        scales = draw(st.lists(nonzero, min_size=len(ws), max_size=len(ws)))
        table = {(i, j, k): v * scales[i] * scales[j] / scales[k]
                 for (i, j, k), v in sc.table.items()}
    n = len(ws)
    graded_keys = [(i, j, k) for i in range(n) for j in range(i + 1, n)
                   for k in range(n) if ws[i] + ws[j] == ws[k]]
    index = st.integers(0, n - 1)
    graded_only = bool(graded_keys) and draw(st.booleans())
    for _ in range(draw(st.integers(0, 6 if base == "random" else 3))):
        if graded_only:
            key = draw(st.sampled_from(graded_keys))
        else:
            i, j = sorted(draw(st.lists(index, min_size=2, max_size=2, unique=True)))
            key = (i, j, draw(index))
        table[key] = draw(nonzero)
    return StructureConstants(WeightVector(ws), table)


@settings(max_examples=200)
@given(graded_tables())
def test_validate_matches_dense_oracle_on_random_tables(sc):
    _assert_matches_dense_oracle(sc)


def test_validate_matches_dense_oracle_on_scale_algebras():
    for sc in (_free2(5), _filiform(8)):
        assert _assert_matches_dense_oracle(sc).ok
    # filiform_8 with [e2, e3] = e4 added: it grades, but the cyclic sum on
    # (e1, e2, e3) is [[e2, e3], e1] = [e4, e1] = -e5
    model = _filiform(8)
    broken = StructureConstants(model.weights, {**model.table, (1, 2, 3): 1})
    rep = _assert_matches_dense_oracle(broken)
    assert rep.failures == ["jacobi: cyclic sum for (1, 2, 3) -> 5 is -1"]


def test_constants_antisymmetry_on_read():
    sc = catalog("heisenberg_3").constants
    assert sc.get(0, 1, 2) == Fraction(1)
    assert sc.get(1, 0, 2) == Fraction(-1)
    assert sc.get(0, 2, 1) == 0


def test_catalog_names_cover_the_demos():
    names = catalog_names()
    assert "abelian_<n>" in names  # the abelian family is matched by size
    for needed in ("heisenberg_3", "heisenberg_5", "engel_4",
                   "step3_filiform_5", "perturbed_heisenberg_3",
                   "perturbed_engel_4"):
        assert needed in names
    for family in ("abelian_1", "abelian_3", "abelian_9"):
        assert catalog(family).constants.n == int(family.rsplit("_", 1)[1])
    with pytest.raises(KeyError):
        catalog("no_such_group")
