"""Membership in the classes A_k and G_k, by scan and by structural criteria."""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    FiniteGroup,
    element_orders,
    involution_products,
    is_nilpotent,
    recognize_named,
)
from .spectra import is_integral
from .symsets import symmetric_sets_by_orbit

@dataclass(frozen=True)
class MembershipReport:
    group_id: str
    cls: str
    k: int
    member: bool
    vacuous: bool
    witness: tuple[int, ...] | None
    witness_words: tuple[str, ...] | None
    sets_checked: int


def _scan(g: FiniteGroup, k: int, cls: str) -> MembershipReport:
    mode = "exact" if cls == "A" else "at_most"
    checked = 0
    witness = None
    for s, integral in symmetric_sets_by_orbit(g, k, mode, is_integral):
        checked += 1
        if not integral:
            witness = s
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
    """Every valency-k Cayley graph integral; sets are scanned in lexicographic
    order, so a failure report carries the lexicographically first witness."""
    return _scan(g, k, "A")


def in_G_k(g: FiniteGroup, k: int) -> MembershipReport:
    """Every Cayley graph of valency at most k integral; sizes ascend and the
    scan stops at the first witness."""
    return _scan(g, k, "G")


def a2_structural(g: FiniteGroup) -> bool:
    """Element orders within {1,2,3,4,6} and no D8 or D12 subgroup, that is, no
    two involutions whose product has order 4 or 6."""
    return set(element_orders(g)) <= {1, 2, 3, 4, 6} and not {4, 6} & involution_products(g)


def a3_structural(g: FiniteGroup) -> bool:
    """Either g is S3, or for every involution x and every y: ord(y) is 1, 2,
    3, 4 or 6 when xy = yx, and 3 otherwise.

    That says every subgroup generated by an involution and one further
    element is Z2, Z2xZ2, Z4, Z6, Z2xZ4, Z2xZ6 or A4. A commuting <x, y> is
    Z_m or Z2 x Z_m with m = ord(y). A non-commuting one must be A4, where
    every element off V4 has order 3. Conversely xy is another y that x does
    not commute with, so ord(xy) = 3 as well, and x^2 = y^3 = (xy)^3 = 1
    presents the (2,3,3) von Dyck group A4, whose only non-abelian quotient
    is itself.
    """
    if recognize_named(g, "S3"):
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
