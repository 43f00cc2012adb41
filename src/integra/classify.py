"""Membership in the classes A_k and G_k, by scan and by structural criteria."""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    FiniteGroup,
    _spans_named,
    closure,
    element_orders,
    has_subgroup_isomorphic,
    profile,
    recognize_named,
)
from .spectra import is_integral_cayley
from .symsets import symmetric_sets_by_orbit

# Subgroups generated by an involution and one further element must land in
# this list (or the whole group must be S3) for membership in A_3.
_A3_TWO_GENERATED = {
    2: ("Z2",),
    4: ("Z4", "Z2xZ2"),
    6: ("Z6",),
    8: ("Z2xZ4",),
    12: ("Z2xZ6", "A4"),
}


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
    # The first failing set is the least member of its orbit, so deciding
    # one set per orbit keeps the witness and the count of a full scan.
    for s, decides in symmetric_sets_by_orbit(g, k, mode):
        checked += 1
        if decides and not is_integral_cayley(g, s)[0]:
            return MembershipReport(
                group_id=g.label,
                cls=cls,
                k=k,
                member=False,
                vacuous=False,
                witness=s,
                witness_words=tuple(g.names[x] for x in s),
                sets_checked=checked,
            )
    return MembershipReport(
        group_id=g.label,
        cls=cls,
        k=k,
        member=True,
        vacuous=checked == 0,
        witness=None,
        witness_words=None,
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
    """Element orders within {1,2,3,4,6} and no D8 or D12 subgroup."""
    return (
        profile(g).in_class_G
        and not has_subgroup_isomorphic(g, "D8")
        and not has_subgroup_isomorphic(g, "D12")
    )


def a3_structural(g: FiniteGroup) -> bool:
    """Either g is S3, or every subgroup generated by an involution and one
    further element is Z2, Z2xZ2, Z4, Z6, Z2xZ4, Z2xZ6 or A4."""
    if recognize_named(g, "S3"):
        return True
    orders = element_orders(g)
    invols = [i for i in range(g.order) if orders[i] == 2]
    for x in invols:
        for y in range(g.order):
            # Each name filed under len(h) has that order: a copy inside h is h.
            h = closure(g, (x, y))
            allowed = _A3_TWO_GENERATED.get(len(h))
            if allowed is None:
                return False
            if not any(_spans_named(g, nm, h) for nm in allowed):
                return False
    return True


def g3_structural(g: FiniteGroup) -> bool:
    """A nontrivial 3-group of exponent 3, or a group passing the A_3 criterion."""
    if g.order > 1:
        prof = profile(g)
        n = g.order
        while n % 3 == 0:
            n //= 3
        if n == 1 and prof.exponent == 3:
            return True
    return a3_structural(g)


def _sylow_members(g: FiniteGroup, p: int) -> list[int]:
    out = []
    for i, d in enumerate(element_orders(g)):
        while d % p == 0:
            d //= p
        if d == 1:
            out.append(i)
    return out


def nilpotent_g3_case(g: FiniteGroup) -> str:
    """Which of the four nilpotent G_3 shapes g matches: "1".."4" or "none".

    Cases are tried in a fixed order: 3-group of exponent 3; elementary
    abelian 2-group; 2-group of exponent 4 with all involutions central;
    product of a nontrivial elementary abelian 2-group with a nontrivial
    exponent-3 3-group.
    """
    prof = profile(g)
    if not prof.nilpotent:
        raise ValueError("group is not nilpotent")
    n = g.order
    n2, n3 = n, n
    while n2 % 2 == 0:
        n2 //= 2
    while n3 % 3 == 0:
        n3 //= 3
    is_2group = n2 == 1 and n > 1
    is_3group = n3 == 1 and n > 1
    if is_3group and prof.exponent == 3:
        return "1"
    if is_2group and prof.exponent == 2:
        return "2"
    if is_2group and prof.exponent == 4 and prof.involutions_central:
        return "3"
    # A nilpotent group is the direct product of its Sylow subgroups, so the
    # shape Z2^n x B is equivalent to: only primes 2 and 3, Sylow 2 of
    # exponent 2, Sylow 3 of exponent 3, both nontrivial.
    p2 = _sylow_members(g, 2)
    p3 = _sylow_members(g, 3)
    if len(p2) * len(p3) == n and len(p2) > 1 and len(p3) > 1:
        orders = element_orders(g)
        if all(orders[i] <= 2 for i in p2) and all(orders[i] in (1, 3) for i in p3):
            return "4"
    return "none"

