"""Class membership scan and structural predicate tests."""

import random
from functools import cache
from itertools import combinations_with_replacement

import pytest
from oracles import a3_by_subgroups, nilpotent_by_series, relabelled_document

from integra.classify import (
    a2_structural,
    a3_structural,
    g3_structural,
    in_A_k,
    in_G_k,
    nilpotent_g3_case,
)
from integra.groups import (
    CATALOG,
    ORDER_BOUND,
    construct,
    cyclic,
    element_orders,
    from_table,
    is_nilpotent,
)


def test_d8_fails_a3_with_first_witness():
    g = construct("dihedral:8")
    rep = in_A_k(g, 3)
    assert not rep.member
    assert rep.witness == (2, 3, 4)
    assert rep.witness_words == ("b", "a^2", "a*b")
    assert rep.sets_checked == 6
    assert not rep.vacuous


def test_quaternion_passes_a3():
    rep = in_A_k(construct("quaternion"), 3)
    assert rep.member
    assert rep.witness is None
    assert rep.sets_checked == 3


def test_vacuous_membership():
    rep = in_A_k(cyclic(2), 3)
    assert rep.member
    assert rep.vacuous
    assert rep.sets_checked == 0
    tiny = in_G_k(cyclic(1), 1)
    assert tiny.member
    assert tiny.vacuous


def test_g_class_counts_all_small_sizes():
    rep = in_G_k(construct("quaternion"), 3)
    assert rep.member
    # 1 involution and 3 inverse pairs: sizes 1..3 give 1 + 3 + 3 sets
    assert rep.sets_checked == 7


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        in_A_k(cyclic(4), 0)
    with pytest.raises(ValueError):
        in_G_k(cyclic(4), -1)


def test_structural_a2():
    assert a2_structural(construct("quaternion"))
    assert a2_structural(construct("alt:4 x cyclic:2"))
    assert not a2_structural(construct("sym:4"))
    assert not a2_structural(construct("dihedral:8"))
    assert not a2_structural(construct("dihedral:8 x cyclic:3"))


def test_structural_a3():
    assert a3_structural(construct("sym:3"))
    assert a3_structural(construct("cyclic:2 x cyclic:6"))
    assert a3_structural(construct("alt:4"))
    assert not a3_structural(construct("alt:4 x cyclic:2"))
    assert not a3_structural(construct("dihedral:12"))


def test_structural_g3():
    assert g3_structural(construct("heisenberg:3"))
    assert g3_structural(construct("quaternion"))
    assert not g3_structural(construct("sym:4"))


def test_heisenberg_in_g3_by_scan():
    rep = in_G_k(construct("heisenberg:3"), 3)
    assert rep.member
    # no involutions, so only the 13 inverse-pair sets of size 2 exist
    assert rep.sets_checked == 13


def test_nilpotent_cases():
    assert nilpotent_g3_case(construct("heisenberg:3")) == "1"
    assert nilpotent_g3_case(construct("cyclic:2 x cyclic:2")) == "2"
    assert nilpotent_g3_case(construct("cyclic:4")) == "3"
    assert nilpotent_g3_case(construct("quaternion")) == "3"
    assert nilpotent_g3_case(construct("cyclic:6")) == "4"
    assert nilpotent_g3_case(construct("cyclic:2 x cyclic:2 x cyclic:3")) == "4"
    assert nilpotent_g3_case(construct("dihedral:8")) == "none"
    # The trivial group is in G_3 vacuously; exponent 1 divides 3.
    assert nilpotent_g3_case(cyclic(1)) == "1"
    assert in_G_k(cyclic(1), 3).member and g3_structural(cyclic(1))
    assert nilpotent_g3_case(construct("cyclic:9")) == "none"


def test_nilpotent_case_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        nilpotent_g3_case(construct("sym:3"))


# The pieces of the products the theorems are swept over, with their orders.
PIECES = {
    "cyclic:2": 2, "cyclic:3": 3, "cyclic:4": 4, "cyclic:5": 5, "cyclic:6": 6,
    "cyclic:8": 8, "dihedral:6": 6, "dihedral:8": 8, "dihedral:12": 12,
    "quaternion": 8, "alt:4": 12, "sym:4": 24, "dic(cyclic:6)": 12,
    "heisenberg:3": 27, "sl:2:3": 24, "sym:5": 120, "alt:5": 60,
}
SMALL = ("cyclic:2", "cyclic:3")


def _products():
    """Every product of order <= ORDER_BOUND of two pieces, or of one piece
    and two of the small cyclic groups."""
    out = [
        (a, b) for a, b in combinations_with_replacement(PIECES, 2)
        if PIECES[a] * PIECES[b] <= ORDER_BOUND
    ]
    out += [
        (a, b, c) for a in PIECES for b, c in combinations_with_replacement(SMALL, 2)
        if PIECES[a] * PIECES[b] * PIECES[c] <= ORDER_BOUND
    ]
    return [" x ".join(factors) for factors in out]


PRODUCTS = _products()


def test_product_sweep_shape():
    assert len(PRODUCTS) == len(set(PRODUCTS)) == 174
    assert {spec: construct(spec).order for spec in PIECES} == PIECES


# The two sweeps below share their groups: construct keeps fewer than the
# specs swept, so without this each group would be built twice.
_swept = cache(construct)


# Odd orders first: without an involution a group is in A_3 vacuously, and in
# G_3 only when its exponent divides 3.
BRUTE_FORCE_SPECS = (
    "cyclic:5",
    "cyclic:7",
    "cyclic:9",
    "cyclic:15",
    "cyclic:5 x cyclic:5",
    "cyclic:3 x cyclic:5",
    "cyclic:3 x cyclic:3 x cyclic:5",
    "cyclic:5 x heisenberg:3",
    "cyclic:3 x cyclic:5 x heisenberg:3",
    "cyclic:2 x dihedral:8 x dihedral:8",
    "cyclic:2 x dihedral:12 x dihedral:12",
    "cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2",
    "quaternion x cyclic:2 x cyclic:2",
    "dic(cyclic:6) x cyclic:2 x cyclic:2",
    "alt:4 x cyclic:2 x cyclic:2",
    "sl:2:3 x cyclic:3",
    "sym:4 x cyclic:2",
)


@pytest.mark.parametrize(
    "spec", BRUTE_FORCE_SPECS + tuple(p for p in PRODUCTS if p not in BRUTE_FORCE_SPECS)
)
def test_structural_predicates_match_brute_force(spec):
    g = _swept(spec)
    assert a2_structural(g) == in_A_k(g, 2).member
    assert a3_structural(g) == in_A_k(g, 3).member
    assert g3_structural(g) == in_G_k(g, 3).member


def _structural(g):
    return a3_structural(g), g3_structural(g), is_nilpotent(g)


def _by_subgroups(g):
    """The A_3, G_3 and nilpotency verdicts from subgroup closures: G_3 is
    exponent dividing 3, or an involution and the A_3 criterion."""
    orders = set(element_orders(g))
    a3 = a3_by_subgroups(g)
    return a3, orders <= {1, 3} or (2 in orders and a3), nilpotent_by_series(g)


CATALOG_SPECS = tuple(spec for _name, spec in CATALOG)
SWEPT_SPECS = tuple(dict.fromkeys(CATALOG_SPECS + BRUTE_FORCE_SPECS + tuple(PRODUCTS)))


@pytest.mark.parametrize("spec", SWEPT_SPECS)
def test_structural_predicates_match_subgroup_oracles(spec):
    g = _swept(spec)
    assert _structural(g) == _by_subgroups(g)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_structural_predicates_on_relabelled_imports(spec):
    built = construct(spec)
    g = from_table(relabelled_document(built, random.Random(spec))[0])
    assert g.identity != 0
    assert _structural(g) == _by_subgroups(g) == _structural(built)
