"""Enumeration and counting of symmetric, identity-free connection sets."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Collection, Iterator

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

    The DFS extends the sorted member tuple one position at a time; picking the
    low half of an inverse pair forces its partner into a pending list that
    must be emitted at its sorted position, so output order is truly
    lexicographic and the stream can be short-circuited at the first failure
    of any downstream predicate.
    """
    n = g.order
    ident = g.identity
    inv = g.inv

    def rec(acc: list[int], start: int, pending: tuple[int, ...], need: int):
        if need + len(pending) > n - start:  # too few indices left to fill
            return
        if need == 0 and not pending:
            yield tuple(acc)
            return
        bound = pending[0] if pending else n - 1
        for t in range(start, bound + 1):
            if t == ident:
                continue
            if pending and t == bound:
                acc.append(t)
                yield from rec(acc, t + 1, pending[1:], need)
                acc.pop()
                continue
            p = inv[t]
            if p == t:
                if need >= 1:
                    acc.append(t)
                    yield from rec(acc, t + 1, pending, need - 1)
                    acc.pop()
            elif p > t and need >= 2:
                new_pending = tuple(sorted(pending + (p,)))
                acc.append(t)
                yield from rec(acc, t + 1, new_pending, need - 2)
                acc.pop()

    if size >= 1:
        yield from rec([], 0, (), size)


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


# Orbits are formed only when Aut(G) has at most this many elements. Listing
# and applying a larger one (GL(4,2) on Z2^4 has 20160) costs more than the
# verdicts it saves at small valencies, so every set stays its own orbit.
_AUT_LIMIT = 2048


def symmetric_sets_by_orbit(
    g: FiniteGroup, k: int, mode: str = "exact"
) -> Iterator[tuple[tuple[int, ...], Collection[tuple[int, ...]]]]:
    """Every set of enumerate_symmetric_sets, in its order, with the sets its
    verdict decides. A set of size at most 2 decides itself (it generates a
    cyclic or dihedral subgroup, so its verdict is cheap). From size 3 on,
    Aut(G) is computed once; Cay(G,S) and Cay(G,phi(S)) are isomorphic, so the
    least member of an orbit, which the stream meets first, decides the whole
    orbit and every other member decides nothing.
    """
    autos = None
    ahead: set[tuple[int, ...]] = set()
    for s in enumerate_symmetric_sets(g, k, mode):
        if len(s) <= 2:
            yield s, (s,)
        elif s in ahead:
            ahead.remove(s)
            yield s, ()
        else:
            if autos is None:
                autos = list(islice(automorphisms(g), _AUT_LIMIT + 1))
                if len(autos) > _AUT_LIMIT:
                    autos = [tuple(range(g.order))]
            orbit = {tuple(sorted(phi[x] for x in s)) for phi in autos}
            ahead |= orbit
            ahead.remove(s)
            yield s, orbit


def count_symmetric_sets(g: FiniteGroup, k: int, mode: str = "exact") -> int:
    """Closed-form count: sum over a+2b = size of C(#involutions,a)*C(#pairs,b)."""
    part = inverse_partition(g)
    ni = len(part.involutions)
    np_ = len(part.pairs)
    total = 0
    for size in _sizes(g, k, mode):
        for b in range(size // 2 + 1):
            a = size - 2 * b
            total += comb(ni, a) * comb(np_, b)
    return total
