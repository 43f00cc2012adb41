"""Canonical output pinned byte for byte across code changes.

tests/data/verify_all.json is the stdout of `integra verify --all --json`.
tests/data/spectrum_reports.json holds `integra spectrum ... --json` cases:
each has its argv, exit status and stdout. Regenerate a file only when a
change to the canonical output is intended.
"""

import json
from pathlib import Path

import pytest

from integra.cli import main

DATA = Path(__file__).parent / "data"
SPECTRUM_CASES = json.loads((DATA / "spectrum_reports.json").read_text())


def test_verify_all_matches_golden_bytes(capsys):
    code = main(["verify", "--all", "--json"])
    assert code == 0
    assert capsys.readouterr().out == (DATA / "verify_all.json").read_text()


@pytest.mark.parametrize("case", SPECTRUM_CASES, ids=[c["case"] for c in SPECTRUM_CASES])
def test_spectrum_report_matches_golden_bytes(capsys, case):
    code = main(case["argv"])
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
