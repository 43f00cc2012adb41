"""Command-line interface tests."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import order_counts

import integra.classify
from integra import verify
from integra.cli import main
from integra.groups import construct, from_table, to_document

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
        assert order_counts(from_table(doc)) == order_counts(construct(spec))


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


def test_spectrum_table_prints_the_residual_factor(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--spec", "dihedral:8", "--set-words", "a^2,a^3*b,b", "--table"
    )
    assert (code, out) == (1, "")
    assert err == (
        "n=8 degree=3 non-integral components=1 subgroup_order=8 index=1\n"
        "integer eigenvalues: 3 (x1), 1 (x2), -1 (x1)\n"
        "residual factor: x^4 + 4*x^3 + 2*x^2 - 4*x + 1\n"
    )


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


def test_classify_table_names_the_witness(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--spec", "dihedral:8", "--class", "A", "--k", "3", "--table"
    )
    assert (code, out) == (1, "")
    assert err == "dihedral:8: A_3 non-member, 6 sets checked\nwitness: {b, a^2, a*b}\n"


def test_classify_table_marks_a_vacuous_member(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--spec", "cyclic:61", "--class", "A", "--k", "29", "--table"
    )
    assert (code, out) == (0, "")
    assert err == "cyclic:61: A_29 member (vacuous), 0 sets checked\n"


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


# Runs the CLI on argv[2:], if any, with src at argv[1], then prints the
# names of the loaded modules to stderr as its last line.
_LOADED_MODULES = """import json, sys
sys.path.insert(0, sys.argv[1])
from integra.cli import main
if sys.argv[2:]:
    main(sys.argv[2:])
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


def test_each_command_loads_only_its_modules(tmp_path):
    # -I -S: the standard library alone, as in CI; -B writes no bytecode.
    def loaded(*argv):
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-c", _LOADED_MODULES, str(SRC), *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stderr.splitlines()[-1]))

    assert not {"dataclasses", "inspect", "typing"} & loaded()
    spectrum = loaded("spectrum", "--spec", "dihedral:8", "--set-indices", "2,3,5", "--json")
    assert "integra.spectra" in spectrum
    assert not {"integra.classify", "integra.verify"} & spectrum
    doc = json.dumps(to_document(construct("quaternion")))
    (tmp_path / "q8.json").write_text(doc, encoding="utf-8")
    census = loaded("census", "--dir", str(tmp_path), "--k", "2", "--json")
    assert "integra.classify" in census
    assert "integra.verify" not in census


@pytest.mark.parametrize(
    ("error", "message"),
    ((MemoryError, "out of memory"), (RecursionError, "recursion limit reached")),
)
def test_a_resource_failure_is_not_a_verdict(capsys, monkeypatch, error, message):
    # Exit 1 would read as "non-member"; a scan that ran out has no verdict.
    def exhausted(*args):
        raise error

    monkeypatch.setattr(integra.classify, "symmetric_sets_by_orbit", exhausted)
    code, out, err = run_cli(
        capsys, "classify", "--spec", "dihedral:8", "--class", "A", "--k", "3", "--json"
    )
    assert (code, out, err) == (2, "", f"error: classify: {message}\n")


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


def test_verify_reports_a_failing_claim(capsys, monkeypatch):
    # C1's body is swapped for one that fails; the other 16 claims run as usual.
    claim, _body = verify._CLAIMS["C1"]
    monkeypatch.setitem(verify._CLAIMS, "C1", (claim, lambda: (False, {"forced": True})))
    golden = json.loads((Path(__file__).parent / "data" / "verify_all.json").read_text())
    code, out, err = run_cli(capsys, "verify", "--all", "--json")
    assert (code, err) == (1, "")
    failed = {"id": "C1", "passed": False, "evidence": {"forced": True}}
    assert json.loads(out) == [failed] + golden[1:]
    code, _out, err = run_cli(capsys, "verify", "--all")
    lines = err.splitlines()
    assert code == 1
    assert re.fullmatch(r"C1   FAIL +\d+\.\d\ds  .+", lines[0])
    assert all(" PASS " in line for line in lines[1:17])
    assert lines[17:] == ["16/17 claims passed"]


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


def test_census_table(capsys, tmp_path):
    run_cli(capsys, "construct", "--spec", "cyclic:6", "--out", str(tmp_path / "a_z6.json"))
    run_cli(capsys, "construct", "--spec", "dihedral:8", "--out", str(tmp_path / "b_d8.json"))
    code, out, err = run_cli(capsys, "census", "--dir", str(tmp_path), "--k", "3", "--table")
    assert (code, out) == (1, "")
    assert err == (
        "a_z6.json: A_3 member\n"
        "a_z6.json: G_3 member\n"
        "b_d8.json: A_3 non-member\n"
        "b_d8.json: G_3 non-member\n"
    )


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


def test_repeated_commands_in_one_process_print_the_same(capsys, tmp_path):
    # The parser is built once per process and groups are shared per spec, so
    # a second pass over the same commands must see nothing the first left.
    run_cli(capsys, "construct", "--spec", "dihedral:8", "--out", str(tmp_path / "d8.json"))
    commands = (
        ("spectrum", "--spec", "dihedral:8", "--set-words", "a^2,a^3*b,b", "--json"),
        ("spectrum", "--spec", "cyclic:6", "--set-indices", "1,5", "--table"),
        ("classify", "--spec", "dihedral:8", "--class", "A", "--k", "3"),
        ("census", "--dir", str(tmp_path), "--k", "3"),
        ("verify", "--claim", "C1", "--json"),
        ("construct", "--spec", "quaternion"),
        ("spectrum", "--spec", "cyclic:6"),
        ("spectrum", "--spec", "nope:1", "--set-indices", "1"),
    )

    def one_pass():
        seen = []
        for argv in commands:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            seen.append((code, *capsys.readouterr()))
        return seen

    first = one_pass()
    assert [code for code, _out, _err in first] == [1, 0, 1, 1, 0, 0, ("exit", 2), 2]
    assert "usage: integra spectrum" in first[6][2]
    assert first[7][2] == "error: cannot parse group spec 'nope:1'\n"
    assert one_pass() == first


def _z6_and_d8_reports():
    def report(group, cls, member, sets_checked, witness=None, words=None):
        return {
            "group": group, "class": cls, "k": 3, "member": member, "vacuous": False,
            "sets_checked": sets_checked, "witness": witness, "witness_words": words,
        }

    return [
        report("a_z6.json", "A", True, 2),
        report("a_z6.json", "G", True, 5),
        report("b_d8.json", "A", False, 6, [2, 3, 4], ["b", "a^2", "a*b"]),
        report("b_d8.json", "G", False, 8, [2, 4], ["b", "a*b"]),
    ]


# name: (argv, exit code, JSON document, table). "{dir}" is a directory
# holding a_z6.json (cyclic:6) and b_d8.json (dihedral:8).
OUTPUT_RULE_CASES = {
    "spectrum-integral": (
        ("spectrum", "--spec", "cyclic:6", "--set-indices", "1,5"),
        0,
        {
            "n": 6, "degree": 2, "integral": True,
            "eigenvalues": [[2, 1], [1, 2], [-1, 2], [-2, 1]], "residual": [1],
            "components": 1, "subgroup_order": 6, "index": 1,
        },
        "n=6 degree=2 integral components=1 subgroup_order=6 index=1\n"
        "integer eigenvalues: 2 (x1), 1 (x2), -1 (x2), -2 (x1)\n",
    ),
    "spectrum-non-integral": (
        ("spectrum", "--spec", "dihedral:8", "--set-words", "a^2,a^3*b,b"),
        1,
        {
            "n": 8, "degree": 3, "integral": False,
            "eigenvalues": [[3, 1], [1, 2], [-1, 1]], "residual": [1, -4, 2, 4, 1],
            "components": 1, "subgroup_order": 8, "index": 1,
        },
        "n=8 degree=3 non-integral components=1 subgroup_order=8 index=1\n"
        "integer eigenvalues: 3 (x1), 1 (x2), -1 (x1)\n"
        "residual factor: x^4 + 4*x^3 + 2*x^2 - 4*x + 1\n",
    ),
    "classify": (
        ("classify", "--spec", "dihedral:8", "--class", "A", "--k", "3"),
        1,
        _z6_and_d8_reports()[2] | {"group": "dihedral:8"},
        "dihedral:8: A_3 non-member, 6 sets checked\nwitness: {b, a^2, a*b}\n",
    ),
    "census": (
        ("census", "--dir", "{dir}", "--k", "3"),
        1,
        _z6_and_d8_reports(),
        "a_z6.json: A_3 member\n"
        "a_z6.json: G_3 member\n"
        "b_d8.json: A_3 non-member\n"
        "b_d8.json: G_3 non-member\n",
    ),
    "verify": (
        ("verify", "--claim", "C1"),
        0,
        [json.loads((Path(__file__).parent / "data" / "verify_all.json").read_text())[0]],
        "C1   PASS  <elapsed>s  "
        "Cay(Z_n, {1, -1}) for n in 3..12 is integral exactly for n in {3, 4, 6}.\n"
        "1/1 claims passed\n",
    ),
    "construct": (
        ("construct", "--spec", "cyclic:3"),
        0,
        {
            "format": "ftg-1", "identity": 0, "names": ["e", "a", "a^2"], "order": 3,
            "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        },
        None,
    ),
}
OUTPUT_FLAGS = ((), ("--json",), ("--table",), ("--json", "--table"))


@pytest.mark.parametrize(
    "name, flags",
    [
        (name, flags)
        for name, case in OUTPUT_RULE_CASES.items()
        for flags in (OUTPUT_FLAGS if case[3] is not None else ((),))
    ],
    ids=lambda v: ("+".join(v) or "no-flags") if isinstance(v, tuple) else v,
)
def test_output_rule_per_command(capsys, tmp_path, name, flags):
    # Canonical JSON goes to stdout with --json or with neither flag, the
    # table goes to stderr with --table (verify also prints it with neither
    # flag), and nothing else is written; the exit code follows the verdict.
    argv, expected_code, document, table = OUTPUT_RULE_CASES[name]
    run_cli(capsys, "construct", "--spec", "cyclic:6", "--out", str(tmp_path / "a_z6.json"))
    run_cli(capsys, "construct", "--spec", "dihedral:8", "--out", str(tmp_path / "b_d8.json"))
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(capsys, *argv, *flags)
    neither = not flags
    assert code == expected_code
    expected_out = json.dumps(document, sort_keys=True, indent=2) + "\n"
    assert out == (expected_out if "--json" in flags or neither else "")
    if name == "verify":
        err = re.sub(r" +\d+\.\d\ds  ", "  <elapsed>s  ", err)
    show_table = "--table" in flags or (neither and name == "verify")
    assert err == (table if show_table else "")


# Each help page and the names it must show. argparse formats help only when
# asked, so a stray % in a help string fails here and nowhere else.
_HELP_NAMES = {
    (): ("construct", "spectrum", "classify", "verify", "census"),
    ("construct",): ("--spec", "--out"),
    ("spectrum",): ("--spec", "--file", "--set-indices", "--set-words", "--json", "--table"),
    ("classify",): ("--spec", "--file", "--class", "--k", "--json", "--table"),
    ("verify",): ("--all", "--claim", "--json", "--table"),
    ("census",): ("--dir", "--k", "--json", "--table"),
}


@pytest.mark.parametrize("command", list(_HELP_NAMES), ids=lambda c: " ".join(c) or "integra")
def test_help_renders(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in _HELP_NAMES[command]:
        assert name in out, name


def _readme_section(title):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_worst_cases_are_the_ci_rows():
    # Each row of README's "Worst cases" table with a timeout is one expect
    # line of the CI step, in the same order, with the same name, exit code
    # and timeout; the open rows have none.
    ci = (SRC.parent / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    expect_lines = re.findall(r"^ *expect (\d+) (\d+) (\w+) --", ci, re.M)
    lines = _readme_section("Worst cases").splitlines()
    rows = [[c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in lines if line.startswith("| ")][2:]
    assert all(len(row) == 6 for row in rows), rows
    in_ci = [(exit_code, timeout, name) for name, _, _, exit_code, timeout, _ in rows
             if timeout != "-"]
    assert in_ci == expect_lines
    assert [row[0] for row in rows if row[4] == "-"] == ["open", "open"]


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    # The three example specs of "Construction specs" fill groups/, which the
    # census example reads; every "integra ..." line of "Command line" then
    # runs as written, in order.
    monkeypatch.chdir(tmp_path)
    examples = _readme_section("Construction specs").split("Examples:", 1)[1]
    specs = re.findall(r"`([^`]+)`", examples.split(". For", 1)[0])
    assert len(specs) == 3, specs
    (tmp_path / "groups").mkdir()
    commands = [
        ["construct", "--spec", spec, "--out", f"groups/{i}.json"] for i, spec in enumerate(specs)
    ]
    blocks = re.findall(r"```sh\n(.*?)```", _readme_section("Command line"), re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    commands += [shlex.split(line)[1:] for line in lines if line.startswith("integra ")]
    assert len(commands) == 3 + 6, commands
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1), (argv, err)
    assert len(list((tmp_path / "groups").glob("*.json"))) == 3
