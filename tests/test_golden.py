"""Canonical output pinned byte for byte across code changes.

tests/data/verify_all.json is the stdout of `integra verify --all --json`.
tests/data/spectrum_reports.json holds `integra spectrum ... --json` cases:
each has its argv, exit status and stdout. tests/data/structural.json holds
`structural_facts(spec)` for each group it lists: the structural predicates,
the nilpotent G_3 case, and subgroup and whole-group recognition.
tests/data/constructed.json maps each of CONSTRUCTED_SPECS and
LIBRARY_BUILT to `constructed_digest` of its group: the sha256 of the
canonical JSON of every field. Regenerate a file only when a change to the
canonical output is intended.
"""

import hashlib
import json
from pathlib import Path

import pytest
from oracles import NAMED_SPECS, order_counts

from integra.classify import a2_structural, a3_structural, g3_structural, nilpotent_g3_case
from integra.cli import main
from integra.groups import (
    cocycle_product,
    construct,
    cyclic,
    inverting_semidirect,
    involution_products,
)

DATA = Path(__file__).parent / "data"
SPECTRUM_CASES = json.loads((DATA / "spectrum_reports.json").read_text())
STRUCTURAL = json.loads((DATA / "structural.json").read_text())
CONSTRUCTED_DIGESTS = json.loads((DATA / "constructed.json").read_text())

CONSTRUCTED_SPECS = (
    *(f"dihedral:{n}" for n in (2, 4, 8, 12, 24, 32, 36, 48, 100)),
    "quaternion",
    "dic(cyclic:6)",
    "dic(cyclic:3 x cyclic:6)",
    "dic(cyclic:2 x cyclic:4@6)",
    "heisenberg:3",
    "sl:2:3",
    "sym:4",
    "alt:5",
    "perm:5:(1,2,3);(3,4,5)",
)
# Groups only the library builds, with no spec of their own.
LIBRARY_BUILT = {
    "cocycle_product(4, 4)": lambda: cocycle_product(4, 4),
    "cocycle_product(4, 2)": lambda: cocycle_product(4, 2),
    "inverting_semidirect(cyclic(4), 4)": lambda: inverting_semidirect(cyclic(4), 4),
    "inverting_semidirect(cyclic(3), 4)": lambda: inverting_semidirect(cyclic(3), 4),
}

# S3, D8 and D12 are the dihedral groups spanned by two involutions whose
# product has order 3, 4 and 6.
SUBGROUP_PRODUCT_ORDERS = {"S3": 3, "D8": 4, "D12": 6}


def structural_facts(spec: str) -> dict:
    g = construct(spec)
    try:
        case = nilpotent_g3_case(g)
    except ValueError:
        case = "not nilpotent"
    products = involution_products(g)
    counts = order_counts(g)
    return {
        "spec": spec,
        "a2_structural": a2_structural(g),
        "a3_structural": a3_structural(g),
        "g3_structural": g3_structural(g),
        "nilpotent_g3_case": case,
        "has_subgroup_isomorphic": {nm: r in products for nm, r in SUBGROUP_PRODUCT_ORDERS.items()},
        "recognize_named": {
            nm: counts == order_counts(construct(sp)) for nm, sp in NAMED_SPECS.items()
        },
    }


def constructed_digest(g) -> str:
    fields = [g.order, g.identity, g.table, g.inv, g.names, g.gens, g.label]
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_verify_all_matches_golden_bytes(capsys):
    code = main(["verify", "--all", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (DATA / "verify_all.json").read_text()


@pytest.mark.parametrize("case", SPECTRUM_CASES, ids=[c["case"] for c in SPECTRUM_CASES])
def test_spectrum_report_matches_golden_bytes(capsys, case):
    code = main(case["argv"])
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


@pytest.mark.parametrize("row", STRUCTURAL, ids=[r["spec"] for r in STRUCTURAL])
def test_structural_facts_match_golden(row):
    assert structural_facts(row["spec"]) == row


def test_constructed_groups_match_golden():
    built = {spec: construct(spec) for spec in CONSTRUCTED_SPECS}
    built.update((case, build()) for case, build in LIBRARY_BUILT.items())
    assert {case: constructed_digest(g) for case, g in built.items()} == CONSTRUCTED_DIGESTS
