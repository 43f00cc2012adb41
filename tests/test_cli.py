"""Command-line interface tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from integra.cli import main
from integra.groups import construct, from_table, recognize_named, to_document

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_to_stdout(capsys):
    code, out, _err = run_cli(capsys, "construct", "--spec", "cyclic:4")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "ftg-1"
    assert doc["order"] == 4


def test_construct_round_trip_preserves_class(capsys, tmp_path):
    for spec, name in (("quaternion", "Q8"), ("sym:3", "S3"), ("dihedral:8", "D8")):
        path = tmp_path / f"{name}.json"
        code, _out, _err = run_cli(capsys, "construct", "--spec", spec, "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert recognize_named(from_table(doc), name)


def test_construct_bad_spec_is_usage_error(capsys):
    code, _out, err = run_cli(capsys, "construct", "--spec", "nope:1")
    assert code == 2
    assert "error" in err


def test_spectrum_words_and_indices_agree(capsys):
    code1, out1, _ = run_cli(
        capsys, "spectrum", "--spec", "dihedral:8", "--set-words", "a^2,a^3*b,b"
    )
    code2, out2, _ = run_cli(
        capsys, "spectrum", "--spec", "dihedral:8", "--set-indices", "2,3,5"
    )
    assert code1 == code2 == 1
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["integral"] is False
    assert doc["residual"] == [1, -4, 2, 4, 1]


def test_spectrum_integral_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--spec", "cyclic:6", "--set-indices", "1,5")
    assert code == 0
    doc = json.loads(out)
    assert doc["integral"] is True
    assert doc["eigenvalues"] == [[2, 1], [1, 2], [-1, 2], [-2, 1]]


def test_spectrum_report_dict_shape(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--spec", "cyclic:12", "--set-indices", "3,9")
    assert code == 0
    assert json.loads(out) == {
        "n": 12, "degree": 2, "integral": True,
        "eigenvalues": [[2, 3], [0, 6], [-2, 3]], "residual": [1],
        "components": 3, "subgroup_order": 4, "index": 3,
    }


def test_spectrum_table_only(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--spec", "cyclic:6", "--set-indices", "1,5", "--table"
    )
    assert code == 0
    assert out == ""
    assert "integral" in err


def test_classify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "classify", "--spec", "quaternion", "--class", "A", "--k", "3")
    assert code == 0
    assert json.loads(out)["member"] is True
    code, out, _ = run_cli(capsys, "classify", "--spec", "dihedral:8", "--class", "A", "--k", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["member"] is False
    assert doc["witness"] == [2, 3, 4]


def test_classify_report_dict_shape(capsys):
    code, out, _ = run_cli(capsys, "classify", "--spec", "dihedral:8", "--class", "A", "--k", "3")
    assert code == 1
    assert json.loads(out) == {
        "group": "dihedral:8", "class": "A", "k": 3, "member": False, "vacuous": False,
        "witness": [2, 3, 4], "witness_words": ["b", "a^2", "a*b"], "sets_checked": 6,
    }


def test_classify_from_file(capsys, tmp_path):
    path = tmp_path / "g.json"
    run_cli(capsys, "construct", "--spec", "cyclic:6", "--out", str(path))
    code, out, _ = run_cli(capsys, "classify", "--file", str(path), "--class", "G", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "g.json"
    assert doc["member"] is True


def test_non_ascii_names_read_as_utf8_under_c_locale(tmp_path):
    doc = to_document(construct("cyclic:5"))
    doc["names"] = ["e", "\u00e9", "\u00e9^2", "\u00e9^3", "\u00e9^4"]
    path = tmp_path / "z5.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=str(SRC))
    argv = ["classify", "--file", str(path), "--class", "A", "--k", "2", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "integra.cli", *argv], env=env, capture_output=True
    )
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["witness_words"] == ["\u00e9", "\u00e9^4"]


def test_verify_single_claim(capsys):
    code, out, err = run_cli(capsys, "verify", "--claim", "C1")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["id"] == "C1"
    assert rows[0]["passed"] is True
    assert "1/1 claims passed" in err


def test_verify_unknown_claim(capsys):
    code, _out, err = run_cli(capsys, "verify", "--claim", "C99")
    assert code == 2
    assert "no claims match" in err


def test_verify_requires_selector(capsys):
    with pytest.raises(SystemExit):
        main(["verify"])


def test_census_directory(capsys, tmp_path):
    run_cli(capsys, "construct", "--spec", "cyclic:6", "--out", str(tmp_path / "a_z6.json"))
    run_cli(capsys, "construct", "--spec", "dihedral:8", "--out", str(tmp_path / "b_d8.json"))
    code, out, _ = run_cli(capsys, "census", "--dir", str(tmp_path), "--k", "3")
    assert code == 1
    rows = json.loads(out)
    assert [(r["group"], r["class"]) for r in rows] == [
        ("a_z6.json", "A"), ("a_z6.json", "G"),
        ("b_d8.json", "A"), ("b_d8.json", "G"),
    ]
    assert [r["member"] for r in rows] == [True, True, False, False]


def test_census_all_members_exits_zero(capsys, tmp_path):
    run_cli(capsys, "construct", "--spec", "cyclic:6", "--out", str(tmp_path / "z6.json"))
    code, _out, _err = run_cli(capsys, "census", "--dir", str(tmp_path), "--k", "3")
    assert code == 0


def test_census_bad_file(capsys, tmp_path):
    (tmp_path / "junk.json").write_text("{ not json")
    code, _out, err = run_cli(capsys, "census", "--dir", str(tmp_path), "--k", "3")
    assert code == 2
    assert "not valid JSON" in err


def test_census_missing_dir(capsys, tmp_path):
    code, _out, err = run_cli(capsys, "census", "--dir", str(tmp_path / "nope"), "--k", "3")
    assert code == 2
    assert "not a directory" in err



def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000 + "]" * 200000)
    for argv in (
        ("spectrum", "--file", str(nested), "--set-indices", "1"),
        ("classify", "--file", str(nested), "--class", "A", "--k", "3"),
        ("census", "--dir", str(tmp_path), "--k", "2"),
    ):
        code, _out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "not valid JSON" in err, argv
