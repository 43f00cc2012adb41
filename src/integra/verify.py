"""Claims catalog: the computational facts behind the classification, re-derived with evidence.

Each claim is one function declared with ``@_claim(id, description, anchor)``;
it returns (passed, evidence). Declaration order is id order.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from .classify import (
    _shared_records,
    a2_structural,
    a3_structural,
    g3_structural,
    in_A_k,
    in_G_k,
    nilpotent_g3_case,
)
from .groups import (
    FiniteGroup,
    catalog_groups,
    closure,
    cocycle_product,
    construct,
    cyclic,
    direct_product,
    inverting_semidirect,
    involution_products,
    is_nilpotent,
    parse_word,
)
from .polys import IntPolynomial
from .spectra import char_poly, is_integral, is_integral_cayley
from .symsets import count_symmetric_sets, symmetric_sets_by_orbit


class Claim(NamedTuple):
    """One verifiable computational statement with a mathematical anchor."""

    id: str
    description: str
    anchor: str


class ClaimResult(NamedTuple):
    """Outcome of one claim run; evidence is JSON-ready and deterministic."""

    id: str
    passed: bool
    evidence: dict
    elapsed: float


_CLAIMS: dict[str, tuple[Claim, Callable[[], tuple[bool, dict]]]] = {}


def _claim(claim_id: str, description: str, anchor: str):
    """Register the decorated function as the body of claim ``claim_id``."""

    def register(fn: Callable[[], tuple[bool, dict]]):
        _CLAIMS[claim_id] = (Claim(claim_id, description, anchor), fn)
        return fn

    return register


def _words_to_set(g: FiniteGroup, words) -> tuple[int, ...]:
    return tuple(sorted(parse_word(g, w) for w in words))


def _names_of(g: FiniteGroup, s) -> list[str]:
    return [g.names[x] for x in s]


@_claim(
    "C1",
    "Cay(Z_n, {1, -1}) for n in 3..12 is integral exactly for n in {3, 4, 6}.",
    "The cycle on n vertices has eigenvalues 2*cos(2*pi*j/n), all integers only for n in {3, 4, 6}.",
)
def _claim_c1() -> tuple[bool, dict]:
    per_order: dict[str, bool] = {}
    integral_orders: list[int] = []
    for n in range(3, 13):
        g = cyclic(n)
        ok = is_integral(g, (1, n - 1))
        per_order[str(n)] = ok
        if ok:
            integral_orders.append(n)
    passed = integral_orders == [3, 4, 6]
    return passed, {
        "per_order": per_order,
        "integral_orders": integral_orders,
        "expected": [3, 4, 6],
    }


def _quadratic_factor(g: FiniteGroup, words, divisor_coeffs) -> tuple[bool, dict]:
    """The set is non-integral and the quadratic divides its characteristic polynomial."""
    s = _words_to_set(g, words)
    ok = is_integral(g, s)
    cp = char_poly(g, s)
    divisor = IntPolynomial(divisor_coeffs)
    divides = not cp.divmod_by(divisor)[1].coeffs
    return (not ok) and divides, {
        "set": list(s),
        "set_names": _names_of(g, s),
        "integral": ok,
        "char_poly": list(cp.coeffs),
        "divisor": list(divisor.coeffs),
        "divides": divides,
    }


@_claim(
    "C2",
    "The valency-3 set {a^2, a^3*b, b} over the order-8 dihedral group is non-integral, x^2+2x-1 divides its characteristic polynomial, and the group is not in A_3.",
    "That connection set has -1+sqrt(2) and -1-sqrt(2) among its eigenvalues.",
)
def _claim_c2() -> tuple[bool, dict]:
    g = construct("dihedral:8")
    passed, evidence = _quadratic_factor(g, ("a^2", "a^3*b", "b"), (-1, 2, 1))
    member = in_A_k(g, 3)
    evidence["a3_member"] = member.member
    evidence["a3_witness"] = list(member.witness) if member.witness else None
    evidence["a3_sets_checked"] = member.sets_checked
    return passed and not member.member, evidence


@_claim(
    "C3",
    "The valency-3 set {a^3, a^5*b, b} over the order-12 dihedral group is non-integral and x^2+2x-2 divides its characteristic polynomial.",
    "That connection set has -1+sqrt(3) and -1-sqrt(3) among its eigenvalues.",
)
def _claim_c3() -> tuple[bool, dict]:
    return _quadratic_factor(construct("dihedral:12"), ("a^3", "a^5*b", "b"), (-2, 2, 1))


@_claim(
    "C4",
    "All 13 symmetric 3-subsets of the alternating group on four letters give integral graphs.",
    "The alternating group on four letters belongs to A_3.",
)
def _claim_c4() -> tuple[bool, dict]:
    rep = in_A_k(construct("alt:4"), 3)
    non_integral = [list(rep.witness)] if rep.witness else []
    passed = rep.sets_checked == 13 and rep.member
    return passed, {
        "sets_checked": rep.sets_checked,
        "expected_sets": 13,
        "non_integral": non_integral,
    }


@_claim(
    "C5",
    "Among catalog groups with a subgroup isomorphic to S3, only S3 itself is in A_3.",
    "A group with an S3 subgroup lies in A_3 if and only if it is S3.",
)
def _claim_c5() -> tuple[bool, dict]:
    with_s3: list[str] = []
    verdicts: dict[str, bool] = {}
    members: list[str] = []
    for name, g in catalog_groups():
        if 3 not in involution_products(g):
            continue
        with_s3.append(name)
        rep = in_A_k(g, 3)
        verdicts[name] = rep.member
        if rep.member:
            members.append(name)
    passed = members == ["S3"]
    return passed, {
        "with_s3_subgroup": with_s3,
        "a3_verdicts": verdicts,
        "a3_members": members,
    }


def _catalog_agreement(brute, structural) -> tuple[bool, dict]:
    """Both membership predicates on every catalog group, and whether they agree."""
    rows: dict[str, dict] = {}
    agree = True
    for name, g in catalog_groups():
        rows[name] = row = {"brute": brute(g), "structural": structural(g)}
        agree = agree and row["brute"] == row["structural"]
    return agree, {"groups": rows, "agree": agree}


@_claim(
    "C6",
    "Brute-force A_3 membership equals the structural predicate on all 15 catalog groups.",
    "A group other than S3 lies in A_3 exactly when every subgroup generated by an involution and one further element is Z2, Z4, Z2xZ2, Z6, Z2xZ4, Z2xZ6, or A4.",
)
def _claim_c6() -> tuple[bool, dict]:
    return _catalog_agreement(lambda g: in_A_k(g, 3).member, a3_structural)


@_claim(
    "C7",
    "Brute-force G_3 membership equals the structural predicate on all 15 catalog groups.",
    "A group lies in G_3 exactly when its element orders lie in {1, 3}, or it has an involution and lies in A_3.",
)
def _claim_c7() -> tuple[bool, dict]:
    return _catalog_agreement(lambda g: in_G_k(g, 3).member, g3_structural)


@_claim(
    "C8",
    "For every nilpotent catalog group, matching one of the four nilpotent shapes coincides with brute-force G_3 membership.",
    "A nilpotent group lies in G_3 exactly when it matches one of four shapes, and then every involution is central.",
)
def _claim_c8() -> tuple[bool, dict]:
    rows: dict[str, dict] = {}
    agree = True
    for name, g in catalog_groups():
        if not is_nilpotent(g):
            continue
        case = nilpotent_g3_case(g)
        member = in_G_k(g, 3).member
        rows[name] = {"case": case, "g3_member": member}
        agree = agree and (case != "none") == member
    return agree, {"nilpotent_groups": rows, "agree": agree}


@_claim(
    "C9",
    "The order-27 Heisenberg group is in G_3 and its valency-4 set {a, a^2, b, b^2} is non-integral, so it is not in G_4.",
    "Over an exponent-3 group of order 27 the set {a, a^2, b, b^2} yields a non-integral graph.",
)
def _claim_c9() -> tuple[bool, dict]:
    g = construct("heisenberg:3")
    g3 = in_G_k(g, 3)
    s = _words_to_set(g, ("a", "a^2", "b", "b^2"))
    ok, rep = is_integral_cayley(g, s)
    passed = g3.member and not ok
    return passed, {
        "order": g.order,
        "g3_member": g3.member,
        "g3_sets_checked": g3.sets_checked,
        "witness": list(s),
        "witness_names": _names_of(g, s),
        "witness_integral": ok,
        "witness_residual": list(rep.residual.coeffs),
    }


def _non_integral(g: FiniteGroup, s: tuple[int, ...]) -> tuple[bool, dict]:
    """The set is non-integral; the evidence carries its residual factor."""
    ok, rep = is_integral_cayley(g, s)
    return not ok, {
        "set": list(s),
        "set_names": _names_of(g, s),
        "integral": ok,
        "residual": list(rep.residual.coeffs),
    }


@_claim(
    "C10",
    "The order-32 and order-16 marked 2-groups fail G_4: two carry pinned non-integral valency-4 sets and the third has a non-central involution and fails G_3.",
    "None of the three marked 2-groups of exponent 4 belongs to G_4.",
)
def _claim_c10() -> tuple[bool, dict]:
    h0 = cocycle_product(4, 4)
    t0 = _words_to_set(h0, ("b*a^2", "a^2*b^3", "a^3*b^2", "b^2*a"))
    fails0, ev0 = _non_integral(h0, t0)
    h1 = inverting_semidirect(cyclic(4), 4)
    fails1, ev1 = _non_integral(h1, _words_to_set(h1, ("a^2*b^-1", "b*a^2", "a^-1*b^-1", "b*a")))
    h2 = cocycle_product(4, 2)
    b = h2.gen("b")
    b_is_involution = h2.element_order(b) == 2
    b_central = all(h2.mul(b, y) == h2.mul(y, b) for y in range(h2.order))
    g3 = in_G_k(h2, 3)
    passed = fails0 and fails1 and b_is_involution and (not b_central) and (not g3.member)
    return passed, {
        **{f"h0_{key}": v for key, v in ev0.items()},
        **{f"h1_{key}": v for key, v in ev1.items()},
        "h0_order": h0.order,
        "h0_set_generates": len(closure(h0, t0)) == h0.order,
        "h1_order": h1.order,
        "h2_order": h2.order,
        "h2_involution": h2.names[b],
        "h2_involution_central": b_central,
        "h2_g3_member": g3.member,
        "h2_g3_witness": list(g3.witness) if g3.witness else None,
    }


@_claim(
    "C11",
    "The valency-4 set of two 3-cycles and two double transpositions over the alternating group on four letters is non-integral.",
    "The alternating group on four letters does not belong to G_4.",
)
def _claim_c11() -> tuple[bool, dict]:
    g = construct("alt:4")
    wanted = ("(2,3,4)", "(2,4,3)", "(1,3)(2,4)", "(1,2)(3,4)")
    return _non_integral(g, tuple(sorted(g.names.index(nm) for nm in wanted)))


@_claim(
    "C12",
    "An explicit valency-4 set over (Z3:Z4)xZ2 of order 24 is non-integral.",
    "The group (Z3:Z4)xZ2 does not belong to G_4.",
)
def _claim_c12() -> tuple[bool, dict]:
    g = direct_product(inverting_semidirect(cyclic(3), 4), cyclic(2))
    passed, evidence = _non_integral(g, _words_to_set(g, ("b^-1*a2", "a2*b", "b*a", "a^-1*b^-1")))
    return passed, {"order": g.order, **evidence}


_C13_WITNESS = (3, 6, 8, 22, 23, 28)


@_claim(
    "C13",
    "The generalized dicyclic group over Z3xZ6 passes every nonempty symmetric set of size at most 5 and fails a pinned size-6 set.",
    "The generalized dicyclic group over Z3xZ6 lies in G_5 but not in G_6.",
)
def _claim_c13() -> tuple[bool, dict]:
    g = construct("dic(cyclic:3 x cyclic:6)")
    g5 = in_G_k(g, 5)
    ok, rep = is_integral_cayley(g, _C13_WITNESS)
    passed = g5.member and g5.sets_checked == 307 and not ok
    return passed, {
        "order": g.order,
        "g5_member": g5.member,
        "g5_sets_checked": g5.sets_checked,
        "empty_set_integral": True,
        "g6_witness": list(_C13_WITNESS),
        "g6_witness_names": _names_of(g, _C13_WITNESS),
        "g6_witness_integral": ok,
        "g6_witness_residual": list(rep.residual.coeffs),
    }


_C14_SPECS = (
    ("S3", "sym:3", 15),
    ("Z2xZ2xZ3", "cyclic:2 x cyclic:2 x cyclic:3", 127),
    ("Z2xZ4", "cyclic:2 x cyclic:4", 31),
    ("Q8", "quaternion", 15),
    ("Q8xZ2", "quaternion x cyclic:2", 511),
    ("DicZ6", "dic(cyclic:6)", 63),
)


@_claim(
    "C14",
    "S3, Z2xZ2xZ3, Z2xZ4, Q8, Q8xZ2 and Dic(Z6) are integral on every symmetric connection set of every size.",
    "Every Cayley graph over these six groups is integral.",
)
def _claim_c14() -> tuple[bool, dict]:
    rows: dict[str, dict] = {}
    passed = True
    for label, spec, expected in _C14_SPECS:
        g = construct(spec)
        formula = sum(count_symmetric_sets(g, j) for j in range(1, g.order))
        rep = in_G_k(g, g.order - 1)
        rows[label] = {
            "order": g.order,
            "sets_checked": rep.sets_checked,
            "expected_sets": expected,
            "count_formula": formula,
            "all_integral": rep.member,
        }
        passed = passed and rep.member and rep.sets_checked == expected and formula == expected
    return passed, {"groups": rows}


@_claim(
    "C15",
    "Q8xZ4, A4xZ3 and SL(2,3) are all in G_3 by brute force.",
    "Products of a G_3 group with a fitting abelian factor, and SL(2,3), stay in G_3.",
)
def _claim_c15() -> tuple[bool, dict]:
    rows: dict[str, dict] = {}
    passed = True
    for label, spec in (
        ("Q8xZ4", "quaternion x cyclic:4"),
        ("A4xZ3", "alt:4 x cyclic:3"),
        ("SL23", "sl:2:3"),
    ):
        g = construct(spec)
        rep = in_G_k(g, 3)
        rows[label] = {
            "order": g.order,
            "member": rep.member,
            "sets_checked": rep.sets_checked,
        }
        passed = passed and rep.member
    return passed, {"groups": rows}


@_claim(
    "C16",
    "Brute-force A_2 membership equals the structural predicate on all 15 catalog groups.",
    "A group lies in A_2 exactly when its element orders lie in {1, 2, 3, 4, 6} and it has no dihedral subgroup of order 8 or 12.",
)
def _claim_c16() -> tuple[bool, dict]:
    return _catalog_agreement(lambda g: in_A_k(g, 2).member, a2_structural)


def _cubic_value(g: FiniteGroup, s: tuple[int, ...]) -> tuple[bool, bool]:
    """Whether Cay(G,S) is connected, and whether it is connected and integral.

    Both are invariant under Aut(G), as symmetric_sets_by_orbit needs."""
    connected = len(closure(g, s)) == g.order
    return connected, connected and is_integral(g, s)


@_claim(
    "C17",
    "Every connected cubic integral Cayley graph over a catalog group has its group among the fourteen allowed ones.",
    "A connected cubic Cayley graph is integral only over one of fourteen listed groups.",
)
def _claim_c17() -> tuple[bool, dict]:
    # Written out, so that a group added to CATALOG does not join the list.
    allowed = [
        "Z2xZ2", "Z4", "Z6", "Z2xZ2xZ2", "Z2xZ4", "Z2xZ6", "S3",
        "D8", "D12", "A4", "S4", "D8xZ3", "D6xZ4", "A4xZ2",
    ]
    rows: dict[str, dict] = {}
    violations: list[dict] = []
    for name, g in catalog_groups():
        n_connected = n_integral = 0
        for s, (connected, integral) in symmetric_sets_by_orbit(g, 3, _cubic_value):
            n_connected += connected
            n_integral += integral
            if integral and name not in allowed:
                violations.append({"group": name, "set": list(s)})
        rows[name] = {"connected_cubic": n_connected, "integral": n_integral}
    return not violations, {
        "allowed": allowed,
        "groups": rows,
        "violations": violations,
    }


def list_claims() -> list[Claim]:
    """Return the full claim registry in id order."""
    return [claim for claim, _fn in _CLAIMS.values()]


def run_claim(claim_id: str) -> ClaimResult:
    """Run one claim by id and return its result with evidence."""
    if claim_id not in _CLAIMS:
        raise ValueError(f"unknown claim: {claim_id}")
    start = time.monotonic()
    passed, evidence = _CLAIMS[claim_id][1]()
    return ClaimResult(claim_id, passed, evidence, time.monotonic() - start)


def run_all(claim_filter: str | None = None) -> list[ClaimResult]:
    """Run every claim whose id matches the filter exactly, else by prefix.

    Their A_k and G_k scans share each group's per-size record until the
    call ends."""
    if claim_filter is None:
        chosen = list(_CLAIMS)
    elif claim_filter in _CLAIMS:
        chosen = [claim_filter]
    else:
        chosen = [i for i in _CLAIMS if i.startswith(claim_filter)]
    with _shared_records():
        return [run_claim(i) for i in chosen]
