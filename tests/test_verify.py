"""Claims catalog tests."""

import json
from pathlib import Path

import pytest

import integra
from integra.cli import main
from integra.verify import list_claims, run_all, run_claim

ROOT = Path(__file__).resolve().parents[1]


def test_registry_shape():
    claims = list_claims()
    assert len(claims) == 17
    ids = [c.id for c in claims]
    assert ids == [f"C{i}" for i in range(1, 18)]
    assert len(set(ids)) == 17
    assert all(c.anchor for c in claims)
    assert all(c.description for c in claims)
    # The metadata must not drift: tests/data/claims.json pins all of it.
    pinned = json.loads((ROOT / "tests" / "data" / "claims.json").read_text(encoding="utf-8"))
    assert [list(c) for c in claims] == pinned


def test_unknown_claim_rejected():
    with pytest.raises(ValueError, match="unknown claim"):
        run_claim("C0")


def test_c1_cycle_orders():
    res = run_claim("C1")
    assert res.passed
    assert res.evidence["integral_orders"] == [3, 4, 6]
    assert res.evidence["per_order"]["5"] is False


def test_c2_dihedral_witness():
    res = run_claim("C2")
    assert res.passed
    assert res.evidence["set"] == [2, 3, 5]
    assert res.evidence["divisor"] == [-1, 2, 1]
    assert res.evidence["divides"] is True
    assert res.evidence["a3_witness"] == [2, 3, 4]


def test_c4_alternating_cubic_sets():
    res = run_claim("C4")
    assert res.passed
    assert res.evidence["sets_checked"] == 13


def test_c5_symmetric_subgroup_filter():
    res = run_claim("C5")
    assert res.passed
    assert res.evidence["with_s3_subgroup"] == ["S3", "D12", "S4", "D6xZ4"]
    assert res.evidence["a3_members"] == ["S3"]


def test_run_all_filters():
    assert [r.id for r in run_all("C1")] == ["C1"]
    assert run_all("ZZZ") == []
    assert [(r.id, r.passed) for r in run_all("C4")] == [("C4", True)]
    # No id is "C", so every claim matches by prefix, in id order; "C1" above
    # is an id, so its exact match wins over the prefix match of C10-C17.
    results = run_all("C")
    assert [r.id for r in results] == [f"C{i}" for i in range(1, 18)]
    assert all(r.passed for r in results)


def test_result_serialization_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        assert main(["verify", "--claim", "C3", "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    [row] = json.loads(outs[0])
    assert set(row) == {"id", "passed", "evidence"}


def test_readme_library_block_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    # The values the block's comments state.
    assert capsys.readouterr().out.splitlines() == [
        "False",
        "False x^4 + 4*x^3 + 2*x^2 - 4*x + 1",
        "x^8 - 12*x^6 + 34*x^4 - 16*x^3 - 20*x^2 + 16*x - 3",
        "('b', 'a^2', 'a*b')",
        "3 ((2, 3), (0, 6), (-2, 3))",
        "True",
    ]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from integra import *", namespace)
    for name in integra.__all__:
        assert namespace[name] is getattr(integra, name), name
