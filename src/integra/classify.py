"""Membership in the classes A_k and G_k, by scan and by structural criteria."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

from .groups import (
    FiniteGroup,
    element_orders,
    involution_products,
    is_abelian,
    is_nilpotent,
)
from .spectra import is_integral
from .symsets import count_symmetric_sets, symmetric_sets_by_orbit

class MembershipReport(NamedTuple):
    """One A_k or G_k scan of the group labelled group_id.

    A_k scans the sets of size k, and G_k sizes 1..min(k, n - 1) in turn,
    each size in lexicographic order, up to the first non-integral set: the
    witness, None for a member. sets_checked counts the sets the scan
    covers, the witness included: for A_k its position among the sets of
    size k, for G_k every set of the smaller sizes plus its position in its
    own size. vacuous means that the scan had no set to cover.

    A scan reads each size from a per-size record of the group: the first
    failing set of that size's stream, or None, and the sets covered up to
    it. A size missing from the record is filled once and added. verify's
    run_all and the CLI's census share the records for one call, so their
    A_k and G_k scans of one group object fill each size once. A set of
    size j with 2j > n - 1 is valued by its complement, of size n - 1 - j:
    once that size has no failure, size j opens no stream. Its sets are
    counted by count_symmetric_sets's closed form, and none is valued again.
    """

    group_id: str
    cls: str
    k: int
    member: bool
    vacuous: bool
    witness: tuple[int, ...] | None
    witness_words: tuple[str, ...] | None
    sets_checked: int


# Size j -> (the first failing set of the size-j stream or None, the sets
# covered up to it, that set included).
_Record = dict[int, tuple[tuple[int, ...] | None, int]]

# While open, id(g) -> (g, its record). The entry holds g, so that no other
# object takes its id while the entry lives.
_SHARED: ContextVar[dict[int, tuple[FiniteGroup, _Record]] | None] = ContextVar(
    "_SHARED", default=None
)


@contextmanager
def shared_records():
    """Share per-size records among the scans of the block, and drop them at its end."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _fill(g: FiniteGroup, record: _Record, j: int) -> None:
    c = g.order - 1 - j
    # Each set of size j is the complement of one of size c, and the two
    # Cayley graphs are integral together: is_integral walks the size-c
    # side, so once every set of size c passed, none of size j needs a value,
    # and the size is counted by its closed form. The size-0 side is the
    # empty set, whose graph has no edges.
    if c < j and (c == 0 or (c in record and record[c][0] is None)):
        record[j] = None, count_symmetric_sets(g, j)
        return
    witness, checked = None, 0
    for checked, (s, integral) in enumerate(symmetric_sets_by_orbit(g, j, is_integral), 1):
        if not integral:
            witness = s
            break
    record[j] = witness, checked


def _scan(g: FiniteGroup, k: int, cls: str) -> MembershipReport:
    if k < 1:
        raise ValueError("k must be at least 1")
    shared = _SHARED.get()
    record = {} if shared is None else shared.setdefault(id(g), (g, {}))[1]
    sizes = (k,) if cls == "A" else range(1, min(k, g.order - 1) + 1)
    witness, checked = None, 0
    for j in sizes:
        if j not in record:
            _fill(g, record, j)
        witness, visited = record[j]
        checked += visited
        if witness is not None:
            break
    return MembershipReport(
        group_id=g.label,
        cls=cls,
        k=k,
        member=witness is None,
        vacuous=checked == 0,
        witness=witness,
        witness_words=None if witness is None else tuple(g.names[x] for x in witness),
        sets_checked=checked,
    )


def in_A_k(g: FiniteGroup, k: int) -> MembershipReport:
    """Whether every valency-k Cayley graph of g is integral."""
    return _scan(g, k, "A")


def in_G_k(g: FiniteGroup, k: int) -> MembershipReport:
    """Whether every Cayley graph of g of valency at most k is integral."""
    return _scan(g, k, "G")


def a2_structural(g: FiniteGroup) -> bool:
    """Element orders within {1,2,3,4,6} and no D8 or D12 subgroup, that is, no
    two involutions whose product has order 4 or 6."""
    return set(element_orders(g)) <= {1, 2, 3, 4, 6} and not {4, 6} & involution_products(g)


def a3_structural(g: FiniteGroup) -> bool:
    """Either g is S3, the non-abelian group of order 6, or for every
    involution x and every y: ord(y) is 1, 2, 3, 4 or 6 when xy = yx, and 3
    otherwise.

    That says every subgroup generated by an involution and one further
    element is Z2, Z2xZ2, Z4, Z6, Z2xZ4, Z2xZ6 or A4. A commuting <x, y> is
    Z_m or Z2 x Z_m with m = ord(y). A non-commuting one must be A4, where
    every element off V4 has order 3. Conversely xy is another y that x does
    not commute with, so ord(xy) = 3 as well, and x^2 = y^3 = (xy)^3 = 1
    presents the (2,3,3) von Dyck group A4, whose only non-abelian quotient
    is itself.
    """
    if g.order == 6 and not is_abelian(g):
        return True
    orders = element_orders(g)
    t = g.table
    for x in range(g.order):
        if orders[x] != 2:
            continue
        for y, xy in enumerate(t[x]):
            if orders[y] not in ((1, 2, 3, 4, 6) if xy == t[y][x] else (3,)):
                return False
    return True


def g3_structural(g: FiniteGroup) -> bool:
    """A 3-group of exponent dividing 3, or a group with an involution that
    passes the A_3 criterion."""
    # By Cauchy's theorem every prime dividing the order is an element order,
    # so element orders within {1, 3} say exactly: a 3-group of exponent
    # dividing 3, the trivial group included. Any other group without an
    # involution is in A_3 only vacuously, and has an element of odd order at
    # least 5, whose {x, x^-1} is a non-integral cycle.
    orders = set(element_orders(g))
    return orders <= {1, 3} or (2 in orders and a3_structural(g))


def nilpotent_g3_case(g: FiniteGroup) -> str:
    """Which of the four nilpotent G_3 shapes g matches: "1".."4" or "none".

    The shapes are: a 3-group of exponent 3; an elementary abelian 2-group; a
    2-group of exponent 4 with all involutions central; the product of a
    nontrivial elementary abelian 2-group with a nontrivial exponent-3
    3-group. By Cauchy's theorem the primes dividing the order are element
    orders, and a nilpotent group is the direct product of its Sylow
    subgroups, so the set of element orders is {1,3}, {1,2}, {1,2,4} and
    {1,2,3,6} respectively. The trivial group, which lies in G_3 vacuously,
    is shape "1": its exponent 1 divides 3.
    """
    if not is_nilpotent(g):
        raise ValueError("group is not nilpotent")
    orders = element_orders(g)
    shape = set(orders)
    if shape <= {1, 3}:
        return "1"
    if shape == {1, 2}:
        return "2"
    t, n = g.table, g.order
    if shape == {1, 2, 4} and all(
        t[i][j] == t[j][i] for i in range(n) if orders[i] == 2 for j in range(n)
    ):
        return "3"
    if shape == {1, 2, 3, 6}:
        return "4"
    return "none"
