"""Symmetric connection-set enumeration tests."""

from itertools import combinations

import pytest

from integra.groups import catalog_groups, construct, cyclic
from integra.symsets import count_symmetric_sets, enumerate_symmetric_sets, inverse_partition


def _brute_sets(g, k):
    elems = [i for i in range(g.order) if i != g.identity]
    out = set()
    for combo in combinations(elems, k):
        if all(g.inv[x] in combo for x in combo):
            out.add(tuple(sorted(combo)))
    return out


def test_inverse_partition_quaternion():
    g = construct("quaternion")
    part = inverse_partition(g)
    assert len(part.involutions) == 1
    assert len(part.pairs) == 3
    for lo, hi in part.pairs:
        assert lo < hi
        assert g.inv[lo] == hi


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
    for name, g in catalog_groups():
        for k in range(1, 7):
            exact = count_symmetric_sets(g, k)
            assert exact == len(list(enumerate_symmetric_sets(g, k))), (name, k)
        cum = count_symmetric_sets(g, 6, mode="at_most")
        assert cum == sum(count_symmetric_sets(g, k) for k in range(1, 7))


def test_size_must_be_positive():
    with pytest.raises(ValueError):
        list(enumerate_symmetric_sets(cyclic(6), 0))

