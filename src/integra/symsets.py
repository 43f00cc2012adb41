"""Enumeration and counting of symmetric, identity-free connection sets."""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import itemgetter
from typing import Callable, Iterator, TypeVar

from .groups import FiniteGroup


def enumerate_symmetric_sets(g: FiniteGroup, k: int) -> Iterator[tuple[int, ...]]:
    """Stream the symmetric identity-free sets of size k, k >= 1.

    A stream holds one size; a caller that wants several chains one stream
    per size. The sets come in lexicographic order of their sorted members.
    A symmetric set is a union of atoms, taken in order of their least
    member. Two sets first differ at the least member of an atom one of them
    holds, so choosing atoms in that order yields the sets lexicographically,
    and the stream can stop at the first failure of any downstream
    predicate. From atom t on, room[t] members remain, odd[t] of them
    involutions; a size is reachable exactly when it is at most room[t] and
    is even or odd[t] > 0, so a branch ends as soon as it cannot be completed.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    atoms = g._atoms
    sizes = [*map(len, reversed(atoms))]
    room = [*accumulate(sizes, initial=0)][::-1]
    odd = [*accumulate((s == 1 for s in sizes), initial=0)][::-1]

    def rec(chosen: tuple[int, ...], start: int, need: int):
        for t in range(start, len(atoms)):
            if need > room[t] or (need % 2 and not odd[t]):
                return
            atom = atoms[t]
            if len(atom) == need:
                yield tuple(sorted(chosen + atom))
            elif len(atom) < need:
                yield from rec(chosen + atom, t + 1, need - len(atom))

    yield from rec((), 0, k)


_V = TypeVar("_V")


def symmetric_sets_by_orbit(
    g: FiniteGroup, k: int, value: Callable[[FiniteGroup, tuple[int, ...]], _V]
) -> Iterator[tuple[tuple[int, ...], _V]]:
    """Every set of enumerate_symmetric_sets(g, k), in its order, with value(g, s).

    value must be invariant under Aut(G), as every property of Cay(G,S) up
    to isomorphism is: Cay(G,S) and Cay(G,phi(S)) are isomorphic for every
    automorphism phi. For k at most 2 each set is valued by its own call: a
    scan of so few sets gains less from orbits than a fresh group object's
    Aut(G) search costs. Valued through orbits too, they doubled an
    in-process round of the benchmark's census workload, which imports every
    table anew (seed 501, median of 11: 0.101 -> 0.214 s, Python 3.11 on a
    2-vCPU machine). From k = 3 on, a set that no earlier set handed a value
    is valued, and its orbit is grown breadth-first under generators of
    Aut(G), kept with the group, straight into the table of handed-on
    values: value runs once per orbit. Such a set is the least member of
    its orbit, since an earlier member would have handed it the value, so
    every other member comes later; orbits are disjoint, so an entry
    already in the table from another orbit is never an image. An
    automorphism keeps a set's size, so every orbit lies in the one stream,
    and the table is empty at its end.
    """
    sets = enumerate_symmetric_sets(g, k)
    if k <= 2:
        yield from ((s, value(g, s)) for s in sets)
        return
    ahead: dict[tuple[int, ...], _V] = {}
    for s in sets:
        if s in ahead:
            yield s, ahead.pop(s)
        else:
            v = ahead[s] = value(g, s)
            todo = [s]
            for t in todo:
                at_t = itemgetter(*t)  # t has at least 3 members: returns a tuple
                for phi in g._aut_generators:
                    u = tuple(sorted(at_t(phi)))
                    if u not in ahead:
                        ahead[u] = v
                        todo.append(u)
            yield s, ahead.pop(s)


def count_symmetric_sets(g: FiniteGroup, k: int) -> int:
    """The number of size-k sets: sum over a+2b = k of C(#involutions,a)*C(#pairs,b)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    # The atoms partition the n - 1 non-identity elements.
    np_ = g.order - 1 - len(g._atoms)
    ni = len(g._atoms) - np_
    return sum(comb(ni, k - 2 * b) * comb(np_, b) for b in range(min(k // 2, np_) + 1))
