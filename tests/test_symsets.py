"""Symmetric connection-set enumeration tests."""

import random
from itertools import combinations

import pytest
from oracles import relabelled_document

from integra.groups import catalog_groups, construct, cyclic, from_table
from integra.symsets import _atoms, count_symmetric_sets, enumerate_symmetric_sets


def _brute_sets(g, k):
    elems = [i for i in range(g.order) if i != g.identity]
    out = set()
    for combo in combinations(elems, k):
        if all(g.inv[x] in combo for x in combo):
            out.add(tuple(sorted(combo)))
    return out


def test_atoms_partition_the_non_identity_elements():
    rng = random.Random(30)
    for name, g in catalog_groups():
        imported = from_table(relabelled_document(g, rng)[0])
        assert imported.identity != 0, name
        for h in (g, imported):
            atoms = _atoms(h)
            assert atoms == sorted(atoms), name
            members = sorted(x for atom in atoms for x in atom)
            assert members == [x for x in range(h.order) if x != h.identity], name
            for atom in atoms:
                if len(atom) == 1:
                    assert h.inv[atom[0]] == atom[0], (name, atom)
                else:
                    x, y = atom
                    assert x < y and h.inv[x] == y, (name, atom)
    sizes = [len(atom) for atom in _atoms(construct("quaternion"))]
    assert (sizes.count(1), sizes.count(2)) == (1, 3)


def test_enumeration_matches_brute_force():
    # cyclic:9 has no involution, so no set of odd size; cyclic:10 has one.
    specs = ("cyclic:6", "quaternion", "cyclic:4", "cyclic:5", "dihedral:8", "cyclic:9", "cyclic:10")
    for spec in specs:
        g = construct(spec)
        for k in range(1, g.order):
            got = list(enumerate_symmetric_sets(g, k))
            assert got == sorted(got), (spec, k)
            assert len(got) == len(set(got))
            assert set(got) == _brute_sets(g, k), (spec, k)


def test_enumeration_is_lexicographic():
    g = construct("dihedral:12")
    sets = list(enumerate_symmetric_sets(g, 3))
    assert sets == sorted(sets)
    assert all(len(s) == 3 for s in sets)


def test_at_most_mode_sizes_ascend():
    g = construct("quaternion")
    sizes = [len(s) for s in enumerate_symmetric_sets(g, 4, mode="at_most")]
    assert sizes == sorted(sizes)
    assert sizes[0] == 1
    assert sizes[-1] == 4


def test_counts_match_enumeration():
    # Three groups besides the catalog's, none of them with an involution.
    odd = [(spec, construct(spec)) for spec in ("cyclic:1", "cyclic:9", "cyclic:3 x cyclic:5")]
    for name, g in catalog_groups() + odd:
        for k in range(1, 7):
            for mode in ("exact", "at_most"):
                count = count_symmetric_sets(g, k, mode)
                assert count == len(list(enumerate_symmetric_sets(g, k, mode))), (name, k, mode)
        cum = count_symmetric_sets(g, 6, mode="at_most")
        assert cum == sum(count_symmetric_sets(g, k) for k in range(1, 7))


def test_size_must_be_positive():
    with pytest.raises(ValueError):
        list(enumerate_symmetric_sets(cyclic(6), 0))

