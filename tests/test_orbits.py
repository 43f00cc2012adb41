"""Automorphism search and the orbit-pruned scans against plain scans."""

import random

import pytest
from oracles import plain_cubic_census, plain_scan, relabelled_document

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


def test_least_orbit_members_decide_their_orbits():
    g = construct("quaternion x cyclic:2")
    autos = list(automorphisms(g))
    stream = list(symmetric_sets_by_orbit(g, 15, mode="at_most"))
    assert [s for s, _d in stream] == list(enumerate_symmetric_sets(g, 15, mode="at_most"))
    orbits = set()
    for s, decides in stream:
        orbit = frozenset(tuple(sorted(phi[x] for x in s)) for phi in autos)
        orbits.add(orbit)
        if len(s) <= 2:
            assert list(decides) == [s]
        else:
            assert set(decides) == (orbit if s == min(orbit) else set()), s
    # 511 sets in 65 orbits; the 12 sets of size at most 2 (5 orbits) each decide themselves.
    # The 192 automorphisms are fewer than the 499 larger sets, so orbits are formed.
    assert len(stream) == 511 and len(orbits) == 65 and len(autos) == 192
    assert sum(1 for _s, d in stream if d) == 65 - 5 + 12


def test_large_automorphism_groups_leave_sets_unmerged():
    # Aut(Z2^4) = GL(4,2) has 20160 elements, more than the scan's 455 sets.
    g = construct("cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2")
    assert all(list(d) == [s] for s, d in symmetric_sets_by_orbit(g, 3))
    assert in_A_k(g, 3) == plain_scan(g, 3, "A")


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


@pytest.mark.parametrize("spec", ("sym:3", "dihedral:12", "cyclic:2 x cyclic:2 x cyclic:2"))
def test_c17_violations_cover_whole_orbits(monkeypatch, spec):
    # Listed under the one name C17 does not allow, every integral connected
    # cubic set of the group is a violation.
    g = construct(spec)
    monkeypatch.setattr(integra.verify, "catalog_groups", lambda: [("Q8", g)])
    evidence = integra.verify.run_claim("C17").evidence
    row, integral_sets = plain_cubic_census(g)
    assert integral_sets
    # Only D12 has fewer automorphisms than cubic sets (12 against 49), so only
    # its sets form orbits; S3 (6 against 4) and Z2^3 (168 against 35) keep
    # every set apart.
    merged = any(len(d) > 1 for _s, d in symmetric_sets_by_orbit(g, 3))
    assert merged == (spec == "dihedral:12")
    assert evidence["groups"] == {"Q8": row}
    assert evidence["violations"] == [{"group": "Q8", "set": list(s)} for s in integral_sets]
