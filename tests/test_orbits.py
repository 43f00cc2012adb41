"""Automorphism search and the orbit-pruned scans against plain scans."""

import json
import random

import pytest
from oracles import automorphisms, plain_cubic_census, plain_scan, relabelled_document

import integra.classify
import integra.groups
import integra.spectra
import integra.symsets
import integra.verify
from integra.classify import in_A_k, in_G_k
from integra.cli import main
from integra.groups import FiniteGroup, catalog_groups, construct, from_table
from integra.symsets import enumerate_symmetric_sets, symmetric_sets_by_orbit
from test_classify import SWEPT_SPECS, _swept

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


def _generated_order(g, perms):
    """The order of the permutation group that perms generate."""
    ident = tuple(range(g.order))
    seen, todo = {ident}, [ident]
    for a in todo:
        for p in perms:
            b = tuple(p[x] for x in a)
            if b not in seen:
                seen.add(b)
                todo.append(b)
    return len(seen)


def test_automorphism_group_orders():
    for spec, expected in TEXTBOOK_ORDERS:
        g = construct(spec)
        autos = automorphisms(g)
        assert len(autos) == expected, spec
        assert len(set(autos)) == expected, spec
        assert tuple(range(g.order)) in autos, spec
        for phi in autos:
            _assert_automorphism(g, phi)
        gens = g._aut_generators
        assert _generated_order(g, gens) == expected, spec
        for phi in gens:
            _assert_automorphism(g, phi)


def test_automorphisms_of_relabelled_import():
    rng = random.Random(4099)
    for spec, expected in (("sym:4", 24), ("quaternion x cyclic:2", 192)):
        doc, _new = relabelled_document(construct(spec), rng)
        g = from_table(doc)
        assert g.identity != 0 and g.gens == ()
        autos = automorphisms(g)
        assert len(autos) == expected, spec
        assert tuple(range(g.order)) in autos
        for phi in autos:
            assert phi[g.identity] == g.identity
            _assert_automorphism(g, phi)
        gens = g._aut_generators
        assert _generated_order(g, gens) == expected, spec
        for phi in gens:
            _assert_automorphism(g, phi)


def _assert_values(g, k, value):
    """The stream of the size-k sets yields each in enumeration order, with
    value(g, s) as a direct call gives it; value runs at most once per set,
    and on every set when k is at most 2. Returns the sets value ran on."""
    calls = []

    def counting_value(group, s):
        calls.append(s)
        return value(group, s)

    stream = list(symmetric_sets_by_orbit(g, k, counting_value))
    sets = [s for s, _v in stream]
    assert sets == list(enumerate_symmetric_sets(g, k))
    assert len(set(calls)) == len(calls)
    if k <= 2:
        assert calls == sets
    for s, v in stream:
        assert v == value(g, s), s
    return calls


def _fresh(g):
    """A new object equal to g, so none of g's cached values carries over."""
    return FiniteGroup(g.order, g.identity, g.table, g.inv, g.names, g.gens, g.label)


def test_stream_values_each_set_once_by_an_automorphic_image(monkeypatch):
    # A fresh copy, so that the first scan meets a search not yet run.
    g = _fresh(construct("quaternion x cyclic:2"))
    autos = automorphisms(g)

    # A set's whole orbit is invariant under Aut(G), and a value handed on
    # from anything but an image of the set would differ from it.
    def orbit(group, s):
        return frozenset(tuple(sorted(phi[x] for x in s)) for phi in autos)

    # One stream per size, 1..15: an automorphism keeps a set's size.
    calls = [s for k in range(1, 16) for s in _assert_values(g, k, orbit)]
    sets = [s for k in range(1, 16) for s in enumerate_symmetric_sets(g, k)]
    # 511 sets in 65 orbits under 192 automorphisms. The 12 sets of size at
    # most 2 (5 orbits) are valued by their own calls, and each of the other
    # 60 orbits by one call, its least member's, from the first scan on.
    assert len(sets) == 511 and len({orbit(g, s) for s in sets}) == 65 and len(autos) == 192
    assert len(calls) == 12 + 60
    assert sum(len(_assert_values(g, k, orbit)) for k in range(1, 16)) == 12 + 60
    # The first G_15 scan of another fresh copy visits every set, as Q8xZ2
    # is in G_15, but values only sizes 1..7 the same way: a set of size
    # j >= 8 is the complement of one of size 15 - j <= 7, which passed.
    real_is_integral, verdicts = integra.classify.is_integral, []

    def counting_is_integral(group, s):
        verdicts.append(s)
        return real_is_integral(group, s)

    monkeypatch.setattr(integra.classify, "is_integral", counting_is_integral)
    rep = in_G_k(_fresh(g), 15)
    small = [s for k in (1, 2) for s in enumerate_symmetric_sets(g, k)]
    orbits = {orbit(g, s) for k in range(3, 8) for s in enumerate_symmetric_sets(g, k)}
    assert rep.member and rep.sets_checked == 511
    assert len(verdicts) == len(small) + len(orbits)
    assert max(map(len, verdicts)) == 7


@pytest.mark.parametrize(
    ("spec", "cls", "k"),
    (
        ("cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2", "A", 3),
        ("cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2", "G", 5),
        ("cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2", "A", 3),
        ("cyclic:2 x dihedral:8 x dihedral:8", "A", 3),
        ("quaternion x cyclic:2 x cyclic:2", "G", 5),
        # Its Aut(G) search finishes only with refined cells and generators
        # chosen relation-first.
        ("heisenberg:3 x cyclic:3 x cyclic:3", "G", 4),
    ),
)
def test_scans_over_large_automorphism_groups_match_plain_scans(spec, cls, k):
    g = construct(spec)
    rep = in_A_k(g, k) if cls == "A" else in_G_k(g, k)
    assert rep == plain_scan(g, k, cls)


@pytest.mark.parametrize(
    ("spec", "witness", "checked"),
    (
        # |Aut(Z2xD8xD8)| is 131072, and the witness is the 72nd set.
        ("cyclic:2 x dihedral:8 x dihedral:8", (2, 3, 4), 72),
        ("sym:4 x cyclic:3 x cyclic:3", (9, 18, 90), 41),
        ("sl:2:3 x cyclic:2 x cyclic:2", None, 343),
    ),
)
def test_search_runs_once_per_group_object(monkeypatch, spec, witness, checked):
    # A fresh copy, so that the search starts from nothing.
    g = _fresh(construct(spec))
    real_forced_map, real_is_integral = integra.groups._forced_map, integra.classify.is_integral
    forced = verdicts = 0

    def counting_forced_map(*args):
        nonlocal forced
        forced += 1
        return real_forced_map(*args)

    def counting_is_integral(group, s):
        nonlocal verdicts
        verdicts += 1
        return real_is_integral(group, s)

    monkeypatch.setattr(integra.groups, "_forced_map", counting_forced_map)
    monkeypatch.setattr(integra.classify, "is_integral", counting_is_integral)
    rep = in_A_k(g, 3)
    assert (rep.witness, rep.sets_checked) == (witness, checked)
    assert 0 < verdicts < checked
    assert forced > 0
    assert rep == plain_scan(g, 3, "A")
    # A second scan of the same group object reuses the kept generators.
    forced = 0
    assert in_A_k(g, 3) == rep and forced == 0


# The most _forced_map calls one Aut(G) search may make. The most any swept
# group takes is 2436, on the relabelled import of D12 x Heisenberg.
SEARCH_BUDGET = 5000

# Before cells were refined and generators chosen relation-first, the search
# took over 30000 steps on each of these.
STALLED = (
    ("heisenberg:3 x cyclic:3 x cyclic:3", False),
    ("cyclic:2 x dihedral:8 x dihedral:8", True),
    ("dic(cyclic:6) x sl:2:3", False),
)


@pytest.mark.parametrize(
    ("spec", "imported"),
    STALLED
    + tuple(
        (spec, imp) for spec in SWEPT_SPECS for imp in (False, True)
        if (spec, imp) not in STALLED
    ),
)
def test_search_finishes_within_budget(monkeypatch, spec, imported):
    g = _swept(spec)
    if imported:
        g = from_table(relabelled_document(g, random.Random(spec))[0])
    real_forced_map, forced = integra.groups._forced_map, 0

    def counting_forced_map(*args):
        nonlocal forced
        forced += 1
        return real_forced_map(*args)

    monkeypatch.setattr(integra.groups, "_forced_map", counting_forced_map)
    # The function itself, not the group's kept result: another test may
    # have run the search on this group object already.
    integra.groups._automorphism_generators(g)
    assert 0 < forced <= SEARCH_BUDGET


def test_small_scans_never_compute_automorphisms(monkeypatch, capsys, tmp_path):
    doc, _new = relabelled_document(construct("sym:4 x dihedral:12"), random.Random(288))
    g = from_table(doc)
    assert g.order == 288

    def refuse(_g):
        raise AssertionError("automorphisms sought for a scan of valency at most 2")

    monkeypatch.setattr(integra.groups, "_automorphism_generators", refuse)
    for k in (1, 2):
        for rep in (in_A_k(g, k), in_G_k(g, k)):
            assert rep.sets_checked > 0
    # census at k = 2 on imports of order 72 to 288.
    rng = random.Random(72)
    for i, spec in enumerate(("sym:4 x cyclic:3", "sl:2:3 x cyclic:6", "sym:4 x dihedral:12")):
        doc, _new = relabelled_document(construct(spec), rng)
        (tmp_path / f"g{i}.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["census", "--dir", str(tmp_path), "--k", "2", "--json"]) in (0, 1)
    assert len(json.loads(capsys.readouterr().out)) == 6


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
    _assert_values(g, 3, integra.verify._cubic_value)


@pytest.mark.parametrize(
    "spec", ("sym:4", "dihedral:12", "quaternion x cyclic:2", "alt:4 x cyclic:2")
)
def test_pruned_scans_on_relabelled_imports_match_plain_scans(monkeypatch, spec):
    # An imported table binds no generators, so Aut(G) is searched from
    # generators that the element orders rank, around an identity off 0.
    g = from_table(relabelled_document(construct(spec), random.Random(spec))[0])
    assert g.identity != 0 and g.gens == ()
    assert in_A_k(g, 3) == plain_scan(g, 3, "A")
    assert in_G_k(g, 3) == plain_scan(g, 3, "G")
    _c17_matches_plain_census(monkeypatch, g)
