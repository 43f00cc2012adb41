"""Automorphism search and the orbit-pruned scans against plain scans."""

import random

import pytest
from oracles import plain_cubic_census, plain_scan, relabelled_document

import integra.classify
import integra.spectra
import integra.symsets
import integra.verify
from integra.classify import in_A_k, in_G_k
from integra.groups import automorphisms, catalog_groups, construct, from_table
from integra.symsets import enumerate_symmetric_sets, symmetric_sets_by_orbit

TEXTBOOK_ORDERS = (
    ("cyclic:12", 4),
    ("cyclic:2 x cyclic:2 x cyclic:2", 168),
    ("quaternion", 24),
    ("dihedral:8", 8),
    ("sym:3", 6),
    ("alt:4", 24),
    ("sym:4", 24),
    ("quaternion x cyclic:2", 192),
)


def _assert_automorphism(g, phi):
    n = g.order
    assert sorted(phi) == list(range(n))
    t = g.table
    for a in range(n):
        pa, row = phi[a], t[a]
        img_row = t[pa]
        for b in range(n):
            assert phi[row[b]] == img_row[phi[b]]


def test_automorphism_group_orders():
    for spec, expected in TEXTBOOK_ORDERS:
        g = construct(spec)
        autos = list(automorphisms(g))
        assert len(autos) == expected, spec
        assert len(set(autos)) == expected, spec
        assert tuple(range(g.order)) in autos, spec
        for phi in autos:
            _assert_automorphism(g, phi)


def test_automorphisms_of_relabelled_import():
    rng = random.Random(4099)
    for spec, expected in (("sym:4", 24), ("quaternion x cyclic:2", 192)):
        doc, _new = relabelled_document(construct(spec), rng)
        g = from_table(doc)
        assert g.identity != 0 and g.gens == ()
        autos = list(automorphisms(g))
        assert len(autos) == expected, spec
        assert tuple(range(g.order)) in autos
        for phi in autos:
            assert phi[g.identity] == g.identity
            _assert_automorphism(g, phi)


def _assert_values(g, k, mode, value):
    """The stream yields every set in enumeration order, each with value(g, s)
    as a direct call gives it; value runs at most once per set, and on every
    set of size at most 2. Returns the sets value ran on."""
    calls = []

    def counting_value(group, s):
        calls.append(s)
        return value(group, s)

    stream = list(symmetric_sets_by_orbit(g, k, mode, counting_value))
    sets = [s for s, _v in stream]
    assert sets == list(enumerate_symmetric_sets(g, k, mode))
    assert len(set(calls)) == len(calls)
    assert {s for s in sets if len(s) <= 2} <= set(calls)
    for s, v in stream:
        assert v == value(g, s), s
    return calls


def test_stream_values_each_set_once_by_an_automorphic_image():
    g = construct("quaternion x cyclic:2")
    autos = list(automorphisms(g))

    # A set's whole orbit is invariant under Aut(G), and a value handed on
    # from anything but an image of the set would differ from it.
    def orbit(group, s):
        return frozenset(tuple(sorted(phi[x] for x in s)) for phi in autos)

    calls = _assert_values(g, 15, "at_most", orbit)
    sets = list(enumerate_symmetric_sets(g, 15, mode="at_most"))
    # 511 sets in 65 orbits under 192 automorphisms. The 12 sets of size at
    # most 2 (5 orbits) are valued by their own calls, and each of the other
    # 60 orbits needs at least one call; orbits may be split, but the stream
    # prunes.
    assert len(sets) == 511 and len({orbit(g, s) for s in sets}) == 65 and len(autos) == 192
    assert 65 - 5 + 12 <= len(calls) < 511


@pytest.mark.parametrize(
    ("spec", "cls", "k"),
    (
        ("cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2", "A", 3),
        ("cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2", "G", 5),
        ("cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2", "A", 3),
        ("cyclic:2 x dihedral:8 x dihedral:8", "A", 3),
        ("quaternion x cyclic:2 x cyclic:2", "G", 5),
    ),
)
def test_scans_over_large_automorphism_groups_match_plain_scans(spec, cls, k):
    g = construct(spec)
    rep = in_A_k(g, k) if cls == "A" else in_G_k(g, k)
    assert rep == plain_scan(g, k, cls)


def test_automorphisms_are_drawn_only_as_verdicts_are_made(monkeypatch):
    # |Aut(Z2xD8xD8)| is 131072, and the witness is the 72nd set.
    g = construct("cyclic:2 x dihedral:8 x dihedral:8")
    real_automorphisms, real_is_integral = integra.symsets.automorphisms, integra.classify.is_integral
    drawn = verdicts = 0

    def counting_automorphisms(group):
        nonlocal drawn
        for phi in real_automorphisms(group):
            drawn += 1
            yield phi

    def counting_is_integral(group, s):
        nonlocal verdicts
        verdicts += 1
        return real_is_integral(group, s)

    monkeypatch.setattr(integra.symsets, "automorphisms", counting_automorphisms)
    monkeypatch.setattr(integra.classify, "is_integral", counting_is_integral)
    rep = in_A_k(g, 3)
    assert (rep.witness, rep.sets_checked) == ((2, 3, 4), 72)
    assert 0 < verdicts < 72
    assert 0 < drawn <= 2 * verdicts + 2


def test_small_scans_never_compute_automorphisms(monkeypatch):
    doc, _new = relabelled_document(construct("sym:4 x dihedral:12"), random.Random(288))
    g = from_table(doc)
    assert g.order == 288

    def refuse(_g):
        raise AssertionError("automorphisms computed for a scan of valency at most 2")

    monkeypatch.setattr(integra.symsets, "automorphisms", refuse)
    for k in (1, 2):
        for rep in (in_A_k(g, k), in_G_k(g, k)):
            assert rep.sets_checked > 0


def test_scans_and_c17_never_compute_characteristic_polynomials(monkeypatch):
    def refuse(_g, _s):
        raise AssertionError("characteristic polynomial computed for a verdict")

    # is_integral_cayley reads char_poly from the spectra module, so this
    # refuses it too.
    monkeypatch.setattr(integra.spectra, "char_poly", refuse)
    monkeypatch.setattr(integra.verify, "char_poly", refuse)
    assert not in_A_k(construct("dihedral:8"), 3).member
    assert in_G_k(construct("quaternion"), 7).member
    for claim_id in ("C1", "C17"):
        assert integra.verify.run_claim(claim_id).passed, claim_id


def test_pruned_scans_match_plain_scans():
    for _name, g in catalog_groups():
        for k in range(1, 5):
            assert in_A_k(g, k) == plain_scan(g, k, "A"), (g.label, k)
            assert in_G_k(g, k) == plain_scan(g, k, "G"), (g.label, k)
    g = construct("dic(cyclic:3 x cyclic:6)")
    assert in_G_k(g, 5) == plain_scan(g, 5, "G")
    g = construct("quaternion x cyclic:2")
    assert in_G_k(g, 15) == plain_scan(g, 15, "G")


def test_c17_rows_match_plain_count():
    evidence = integra.verify.run_claim("C17").evidence
    for name, g in catalog_groups():
        row, _sets = plain_cubic_census(g)
        assert evidence["groups"][name] == row, name


def _c17_matches_plain_census(monkeypatch, g):
    """C17 run on g alone, listed under the one name C17 does not allow, so
    that every integral connected cubic set of g is a violation: its row and
    violations must be the plain census. Returns the integral sets."""
    monkeypatch.setattr(integra.verify, "catalog_groups", lambda: [("Q8", g)])
    evidence = integra.verify.run_claim("C17").evidence
    row, integral_sets = plain_cubic_census(g)
    assert evidence["groups"] == {"Q8": row}
    assert evidence["violations"] == [{"group": "Q8", "set": list(s)} for s in integral_sets]
    return integral_sets


@pytest.mark.parametrize("spec", ("sym:3", "dihedral:12", "cyclic:2 x cyclic:2 x cyclic:2"))
def test_c17_violations_cover_whole_orbits(monkeypatch, spec):
    g = construct(spec)
    assert _c17_matches_plain_census(monkeypatch, g)
    _assert_values(g, 3, "exact", integra.verify._cubic_value)


@pytest.mark.parametrize(
    "spec", ("sym:4", "dihedral:12", "quaternion x cyclic:2", "alt:4 x cyclic:2")
)
def test_pruned_scans_on_relabelled_imports_match_plain_scans(monkeypatch, spec):
    # An imported table binds no generators, so Aut(G) is drawn from
    # generators that the element orders rank, around an identity off 0.
    g = from_table(relabelled_document(construct(spec), random.Random(spec))[0])
    assert g.identity != 0 and g.gens == ()
    assert in_A_k(g, 3) == plain_scan(g, 3, "A")
    assert in_G_k(g, 3) == plain_scan(g, 3, "G")
    _c17_matches_plain_census(monkeypatch, g)
