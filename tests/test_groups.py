import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from carnotkit.graded import WeightVector, dilate
from carnotkit.groups import (
    StructureConstants, catalog, catalog_names, dynkin_product, dynkin_words,
    group_frame, group_inverse, group_product, left_invariant_fields,
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
