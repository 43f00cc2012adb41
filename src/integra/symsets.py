"""Enumeration and counting of symmetric, identity-free connection sets."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb
from operator import itemgetter
from typing import Callable, Collection, Iterator, TypeVar

from .groups import FiniteGroup, automorphisms


@dataclass(frozen=True)
class InversePartition:
    """Non-identity elements split into involutions and inverse pairs (lo < hi)."""

    involutions: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


def inverse_partition(g: FiniteGroup) -> InversePartition:
    invols = []
    pairs = []
    for i in range(g.order):
        if i == g.identity:
            continue
        j = g.inv[i]
        if j == i:
            invols.append(i)
        elif i < j:
            pairs.append((i, j))
    return InversePartition(tuple(invols), tuple(pairs))


def _lex_exact(g: FiniteGroup, size: int) -> Iterator[tuple[int, ...]]:
    """All symmetric size-k sets in lexicographic order of their sorted members.

    A symmetric set is a union of atoms: involutions (x,) and inverse pairs
    (lo, hi). Atoms are taken in order of their least member. Two sets first
    differ at the least member of an atom one of them holds, so choosing atoms
    in that order yields the sets lexicographically, and the stream can stop
    at the first failure of any downstream predicate. From atom t on, room[t]
    members remain, odd[t] of them involutions; a size is reachable exactly
    when it is at most room[t] and is even or odd[t] > 0, so a branch ends as
    soon as it cannot be completed.
    """
    part = inverse_partition(g)
    atoms = sorted([(x,) for x in part.involutions] + list(part.pairs))
    room, odd = [0] * (len(atoms) + 1), [0] * (len(atoms) + 1)
    for t in range(len(atoms) - 1, -1, -1):
        room[t] = room[t + 1] + len(atoms[t])
        odd[t] = odd[t + 1] + (len(atoms[t]) == 1)

    def rec(chosen: tuple[int, ...], start: int, need: int):
        for t in range(start, len(atoms)):
            if need > room[t] or (need % 2 and not odd[t]):
                return
            atom = atoms[t]
            if len(atom) == need:
                yield tuple(sorted(chosen + atom))
            elif len(atom) < need:
                yield from rec(chosen + atom, t + 1, need - len(atom))

    yield from rec((), 0, size)


def _sizes(g: FiniteGroup, k: int, mode: str) -> Collection[int]:
    """The set sizes that k and mode select, after checking both."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if mode not in ("exact", "at_most"):
        raise ValueError(f"unknown mode {mode!r}")
    return range(1, min(k, g.order - 1) + 1) if mode == "at_most" else (k,)


def enumerate_symmetric_sets(
    g: FiniteGroup, k: int, mode: str = "exact"
) -> Iterator[tuple[int, ...]]:
    """Stream symmetric identity-free sets of size k ("exact") or 1..k ("at_most").

    Sizes ascend in at_most mode and sets are lexicographic within a size.
    """
    for size in _sizes(g, k, mode):
        yield from _lex_exact(g, size)


# Automorphisms drawn each time a set of size at least 3 is valued.
_DRAWS_PER_VERDICT = 2

_V = TypeVar("_V")


def symmetric_sets_by_orbit(
    g: FiniteGroup, k: int, mode: str, value: Callable[[FiniteGroup, tuple[int, ...]], _V]
) -> Iterator[tuple[tuple[int, ...], _V]]:
    """Every set of enumerate_symmetric_sets, in its order, with value(g, s).

    value must be invariant under Aut(G), as every property of Cay(G,S) up
    to isomorphism is: Cay(G,S) and Cay(G,phi(S)) are isomorphic for every
    automorphism phi. A set of size at most 2 is valued by its own call (it
    generates a cyclic or dihedral subgroup, so its value is cheap). From
    size 3 on, finding an automorphism costs about as much as one verdict,
    so Aut(G) is drawn lazily: each set that no earlier image valued draws
    _DRAWS_PER_VERDICT more, is valued, and hands its value to its images
    under all automorphisms drawn so far that come later in the stream.
    Orbits may be partial, but value runs at most once per set, and listing
    never costs more than a constant times the values computed.
    """
    autos = None
    drawn: list[tuple[int, ...]] = []
    ahead: dict[tuple[int, ...], _V] = {}
    for s in enumerate_symmetric_sets(g, k, mode):
        if len(s) <= 2:
            yield s, value(g, s)
        elif s in ahead:
            yield s, ahead.pop(s)
        else:
            if autos is None:
                autos = automorphisms(g)
            drawn.extend(islice(autos, _DRAWS_PER_VERDICT))
            v = value(g, s)
            at_s = itemgetter(*s)  # s has at least 3 members: returns a tuple
            # An image has the size of s, so it comes later exactly when it
            # is lexicographically greater.
            ahead.update((t, v) for t in {tuple(sorted(at_s(phi))) for phi in drawn} if t > s)
            yield s, v


def count_symmetric_sets(g: FiniteGroup, k: int, mode: str = "exact") -> int:
    """Closed-form count: sum over a+2b = size of C(#involutions,a)*C(#pairs,b)."""
    part = inverse_partition(g)
    ni = len(part.involutions)
    np_ = len(part.pairs)
    total = 0
    for size in _sizes(g, k, mode):
        for b in range(min(size // 2, np_) + 1):
            a = size - 2 * b
            total += comb(ni, a) * comb(np_, b)
    return total
