"""Checks of each op's output against the reference route, never a stored copy.

Each ``check_<workload>(expect, i, code, out, err)`` returns ``(ok, kind)``
for op ``i``: whether its exit code and output are right, and the kind of
op it was, which groups latencies. Output of the wrong shape raises; the
caller counts that op as failed.
"""

from __future__ import annotations

import json

import reference as ref

CLAIM_IDS = [f"C{i}" for i in range(1, 18)]


def check_claims(expect: dict, i: int, code: int, out: str, err: str):
    """All 17 claims pass; C1, C13 and C14 agree with figures derived here."""
    results = json.loads(out)
    if code != 0 or [r.get("id") for r in results] != CLAIM_IDS:
        return False, "claims"
    if not all(r["passed"] is True for r in results):
        return False, "claims"
    ev = {r["id"]: r["evidence"] for r in results}
    c13 = ev["C13"]
    if not c13["g5_member"] or not c13["g5_sets_checked"] == expect["c13_sets"] == 307:
        return False, "claims"
    rows = ev["C14"]["groups"]
    if sorted(rows) != sorted(expect["c14_sets"]):
        return False, "claims"
    for label, count in expect["c14_sets"].items():
        row = rows[label]
        if not row["all_integral"] or not (
            row["sets_checked"] == row["expected_sets"] == row["count_formula"] == count
        ):
            return False, "claims"
    if ev["C1"]["integral_orders"] != expect["c1_orders"]:
        return False, "claims"
    return True, "claims"


def check_query(expect: dict, i: int, code: int, out: str, err: str):
    """The reported spectrum rebuilds the reference characteristic polynomial.

    prod (x - lam)^m * residual must equal det(xI - A) computed by Newton's
    identities, the residual must have no integer root in [-k, k], and the
    verdict, exit code and component data must match the reference.
    """
    fact = expect["facts"][i]
    kind = "integral" if fact["integral"] else "non-integral"
    rep = json.loads(out)
    k, n = fact["k"], fact["n"]
    mults = [(lam, m) for lam, m in rep["eigenvalues"]]
    residual = list(rep["residual"])
    ok = (
        code == (0 if fact["integral"] else 1)
        and rep["integral"] is fact["integral"]
        and rep["n"] == n
        and rep["degree"] == k
        and all(m > 0 for _lam, m in mults)
        and len({lam for lam, _m in mults}) == len(mults)
        and ref.poly_mul(ref.product_of_roots(mults), residual) == fact["char_poly"]
        and all(ref.poly_eval(residual, lam) != 0 for lam in range(-k, k + 1))
        and (residual == [1]) is fact["integral"]
        and rep["subgroup_order"] == fact["subgroup_order"]
        and rep["index"] * fact["subgroup_order"] == n
        and rep["components"] == rep["index"] == dict(mults).get(k)
    )
    return ok, kind


def check_census(expect: dict, i: int, code: int, out: str, err: str):
    """Scan reports match the closed form; corrupted tables are refused with exit 2."""
    fact = expect["facts"][i]
    if fact["corrupted"]:
        ok = code == 2 and out == "" and err.startswith("error:") and len(err.strip()) > 7
        return ok, "corrupted"
    reports = json.loads(out)
    g = fact["group"]
    witness = fact["witness"]
    member = witness is None
    if code != (0 if member else 1) or [r.get("class") for r in reports] != ["A", "G"]:
        return False, "table"
    for rep, checked in zip(reports, (fact["a_checked"], fact["g_checked"])):
        if (
            rep["group"] != fact["file"]
            or rep["k"] != 2
            or rep["member"] is not member
            or rep["vacuous"] is not False
            or rep["sets_checked"] != checked
        ):
            return False, "table"
        if member:
            if rep["witness"] is not None or rep["witness_words"] is not None:
                return False, "table"
            continue
        w = tuple(rep["witness"])
        if w != witness or rep["witness_words"] != [g.names[x] for x in w]:
            return False, "table"
        if not _is_failing_witness(g, w):
            return False, "table"
    return True, "table"


def _is_failing_witness(g: ref.Group, w: tuple[int, ...]) -> bool:
    """Symmetric, identity-free, of size 2, and non-integral by Newton's identities.

    The spectrum is taken on the subgroup the set generates; Cay(G, S) is
    copies of that graph, so integrality is the same.
    """
    if len(w) != 2 or not ref.is_connection_set(g, w):
        return False
    members = ref.closure_members(g, w)
    pos = {x: j for j, x in enumerate(members)}
    sub = ref.Group([[pos[g.table[a][b]] for b in members] for a in members], 0)
    _mults, residual = ref.integer_spectrum(ref.char_poly(sub, [pos[x] for x in w]), 2)
    return residual != [1]
