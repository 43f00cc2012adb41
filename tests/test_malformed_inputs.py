"""Seeded malformed-input cases: each exits 2 with an error message, fast.

Every case is malformed by construction: a spec cut where a term cannot end
or holding a character no spec uses, an ftg-1 document with one field of the
wrong type, size or value, and --set-indices / --k / --claim values that are
not element indices, valid valencies or claim ids.
"""

import copy
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from oracles import relabelled_document

from integra.cli import main
from integra.groups import construct, from_table, to_document
from integra.symsets import count_symmetric_sets

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 20261018
SPECS = (
    "cyclic:12",
    "dihedral:8",
    "quaternion x cyclic:2",
    "dic(cyclic:3 x cyclic:6)",
    "dic(cyclic:6@3)",
    "sym:4",
    "alt:4 x cyclic:2",
    "perm:4:(1,2);(1,2,3,4)",
    "heisenberg:3",
    "sl:2:3",
)
FOREIGN = "#$%?!&~[]{}<>|\\\"'`"
# Specs that parse but name no group, each with the message it exits with.
SPEC_ERRORS = {
    "sym:1": "symmetric group needs at least 2 points",
    "alt:2": "alternating group needs at least 3 points",
    "dic(sym:3)": "dicyclic base must be abelian",
    "dic(cyclic:2 x cyclic:126)": "group order exceeds 500",
    "perm:3:(1,1)": "repeated point in cycle (1,1)",
    "perm:3:(1,4)": "cycle (1,4) leaves points 1..3",
    "perm:3:(1,2);": "empty permutation generator",
    "cyclic:4)": "unbalanced parentheses in 'cyclic:4)'",
}
DOC_SPECS = ("cyclic:6", "sym:3", "quaternion", "dihedral:12")
SPECTRUM_GROUP = "dihedral:8"


def _cut_specs(rng):
    # A prefix ending in "(", ":", "@", ",", ";" or "x " leaves a parenthesis
    # open or a term, generator or index without its body.
    out = []
    for spec in SPECS:
        cuts = [i + 1 for i, ch in enumerate(spec) if ch in "(:@,;"]
        cuts += [i + 2 for i in range(len(spec) - 1) if spec[i : i + 2] == "x "]
        out.extend(spec[:i] for i in rng.sample(cuts, min(2, len(cuts))))
    return out


def _garbled_specs(rng):
    out = []
    for spec in SPECS:
        for _ in range(3):
            i = rng.randrange(len(spec) + 1)
            out.append(spec[:i] + rng.choice(FOREIGN) + spec[i:])
    out += [
        "",
        "   ",
        "x",
        "cyclic:4 x",
        "cyclic:0",
        "cyclic:" + "9" * 5000,
        "sym:" + str(10**9),
        "perm:" + str(10**8) + ":(1,2)",
        "dic(" * 3000 + "cyclic:4" + ")" * 3000,
        "dic(cyclic:4@99)",
        "dic(cyclic:3)",
        "dihedral:7",
        *SPEC_ERRORS,
    ]
    return out


def _bad_documents(rng):
    def wrong(doc, n):
        key = rng.choice(("format", "order", "table", "row", "entry", "identity", "names"))
        if key == "format":
            doc["format"] = rng.choice((None, "ftg-2", 1, ["ftg-1"]))
        elif key == "order":
            doc["order"] = rng.choice((str(n), float(n), None, [n], n + 1, n - 1, 0, -n, 10**6))
        elif key == "table":
            doc["table"] = rng.choice((None, "table", {"0": [0]}, doc["table"][:-1],
                                       doc["table"] + [list(range(n))]))
        elif key == "row":
            i = rng.randrange(n)
            row = doc["table"][i]
            doc["table"][i] = rng.choice((None, "row", row[:-1], row + [0], {"0": 0}))
        elif key == "entry":
            i, j = rng.randrange(n), rng.randrange(n)
            doc["table"][i][j] = rng.choice((-1, n, str(j), float(j) + 0.5, None, [j]))
        elif key == "identity":
            ident = doc["identity"]
            doc["identity"] = rng.choice((str(ident), float(ident) + 0.5, [ident], -1, n,
                                          rng.choice([i for i in range(n) if i != ident])))
        else:
            doc["names"] = rng.choice(("names", {"e": 0}, 7, doc["names"][:-1],
                                       doc["names"] + ["z"]))
        return doc

    # JSON true and false are not orders or indices, although bool is an int.
    out = [[], "ftg-1", 3, None,
           {"format": "ftg-1", "order": True, "identity": False, "table": [[False]]},
           {"format": "ftg-1", "order": True, "identity": 0, "table": [[0]]},
           {"format": "ftg-1", "order": 1, "identity": False, "table": [[0]]},
           {"format": "ftg-1", "order": 1, "identity": 0, "table": [[False]]},
           {"format": "ftg-1", "order": 2, "identity": 0, "table": [[0, True], [True, 0]]}]
    # Element names are strings: null, numbers and lists are not read as their str().
    z2 = {"format": "ftg-1", "order": 2, "identity": 0, "table": [[0, 1], [1, 0]]}
    out += [{**z2, "names": names} for names in (["e", None], ["e", 7], [["e"], "a"], [True, "a"])]
    # Names tell elements apart, so two elements may not share one.
    out.append({**to_document(construct("cyclic:5")), "names": ["e", "a", "a", "a", "a"]})
    for spec in DOC_SPECS:
        base = to_document(construct(spec))
        out.extend(wrong(copy.deepcopy(base), base["order"]) for _ in range(8))
    return out


def _bad_set_indices(rng):
    n = construct(SPECTRUM_GROUP).order
    out = ["a", "1.5", "0x3", "1;2", "2,,x", "--", "1 2", "9" * 5000,
           "0", "1", "2,2", str(n), str(-1), str(10**12)]
    for _ in range(10):
        out.append(",".join(str(rng.randrange(n, 10 * n)) for _ in range(rng.randrange(1, 4))))
    return out


BAD_K = ("0", "-1", "-40", "abc", "1.5", "", "3x", "1e2", "0x3")


def _run(capsys, argv):
    start = time.monotonic()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    elapsed = time.monotonic() - start
    err = capsys.readouterr().err
    assert code == 2, argv
    assert "error:" in err, argv
    assert "Traceback" not in err, argv
    assert elapsed < 1.0, (argv, elapsed)


def test_malformed_specs_exit_two(capsys):
    for spec in SPECS:
        construct(spec)
    rng = random.Random(SEED)
    specs = _cut_specs(rng) + _garbled_specs(rng)
    assert len(specs) > 40
    for spec in specs:
        _run(capsys, ["construct", "--spec", spec])
        _run(capsys, ["classify", "--spec", spec, "--class", "G", "--k", "2"])


def test_a_second_involution_index_is_a_bad_index(capsys):
    # dic(...) splits at every "@" outside parentheses, so a second one makes
    # a bad index, not a base spec holding "@".
    for spec in ("dic(cyclic:4@1@2)", "dic(cyclic:4@@2)", "dic(cyclic:2 x cyclic:4@1@3)"):
        assert main(["construct", "--spec", spec]) == 2
        assert capsys.readouterr().err == f"error: bad involution index in {spec!r}\n"


def test_spec_errors_name_their_fault(capsys):
    for spec, message in SPEC_ERRORS.items():
        assert main(["construct", "--spec", spec]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_documents_exit_two(capsys, tmp_path):
    rng = random.Random(SEED + 1)
    for i, doc in enumerate(_bad_documents(rng)):
        case = tmp_path / f"case{i}"
        case.mkdir()
        path = case / "g.json"
        path.write_text(json.dumps(doc))
        _run(capsys, ["spectrum", "--file", str(path), "--set-indices", "1"])
        _run(capsys, ["classify", "--file", str(path), "--class", "A", "--k", "2"])
        _run(capsys, ["census", "--dir", str(case), "--k", "2"])


def test_element_names_must_be_strings(capsys, tmp_path):
    doc = {"format": "ftg-1", "order": 2, "identity": 0, "table": [[0, 1], [1, 0]]}
    assert from_table({**doc, "names": None}).names == ("e", "g1")
    assert from_table({**doc, "names": ["e", "7"]}).names == ("e", "7")
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**doc, "names": ["e", None]}))
    assert main(["spectrum", "--file", str(path), "--set-indices", "1"]) == 2
    assert capsys.readouterr().err == "error: element names must be strings\n"


def test_element_names_must_be_distinct(capsys, tmp_path):
    # A witness is printed by its members' names, and ["a", "a"] would
    # name no element of the group.
    path = tmp_path / "g.json"
    path.write_text(json.dumps({**to_document(construct("cyclic:5")),
                                "names": ["e", "a", "a", "a", "a"]}))
    assert main(["classify", "--file", str(path), "--class", "A", "--k", "2"]) == 2
    assert capsys.readouterr().err == "error: element names must be distinct\n"


def test_null_identity_reads_as_an_absent_key(capsys, tmp_path):
    # "identity": null means the key is absent, as "names": null does: the
    # identity is searched for, and a table without one still exits 2.
    g = construct("dihedral:8")
    doc, new = relabelled_document(g, random.Random(SEED + 3))
    absent = {key: value for key, value in doc.items() if key != "identity"}
    h = from_table({**doc, "identity": None})
    assert h == from_table(absent) and h.identity == new[g.identity] != 0
    path = tmp_path / "g.json"
    no_identity = {"format": "ftg-1", "order": 3, "identity": None,
                   "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}
    path.write_text(json.dumps(no_identity))
    _run(capsys, ["spectrum", "--file", str(path), "--set-indices", "1"])
    assert main(["classify", "--file", str(path), "--class", "A", "--k", "2"]) == 2
    assert capsys.readouterr().err == "error: no identity\n"


def test_malformed_cli_values_exit_two(capsys, tmp_path):
    rng = random.Random(SEED + 2)
    for value in _bad_set_indices(rng):
        _run(capsys, ["spectrum", "--spec", SPECTRUM_GROUP, "--set-indices", value])
    for k in BAD_K:
        for cls in ("A", "G"):
            _run(capsys, ["classify", "--spec", SPECTRUM_GROUP, "--class", cls, "--k", k])
        # an empty directory holds no document to check the bound on
        _run(capsys, ["census", "--dir", str(tmp_path), "--k", k])
    _run(capsys, ["census", "--dir", str(tmp_path), "--k", "-3"])
    _run(capsys, ["verify", "--claim", ""])


def test_valency_beyond_the_group_is_answered_fast(capsys):
    start = time.monotonic()
    z2_5 = "cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2 x cyclic:2"
    for spec, cls, k, checked in ((z2_5, "A", 10**9, 0), (z2_5, "A", 31, 1),
                                  ("cyclic:6", "G", 10**9, 7)):
        assert main(["classify", "--spec", spec, "--class", cls, "--k", str(k)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["sets_checked"] == checked and rep["vacuous"] is (checked == 0)
    assert time.monotonic() - start < 1.0


def test_odd_valency_without_involutions_is_answered_fast():
    # An odd cyclic group has no involution, so no symmetric set has odd size.
    # A subprocess with a timeout turns a search of every dead branch into a
    # failure instead of a hang.
    for spec, k in (("cyclic:61", 29), ("cyclic:499", 249)):
        argv = ["classify", "--spec", spec, "--class", "A", "--k", str(k), "--json"]
        proc = subprocess.run(
            [sys.executable, "-m", "integra.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        rep = json.loads(proc.stdout)
        assert rep["vacuous"] is True and rep["sets_checked"] == 0


def test_factor_count_is_bounded(capsys):
    # A product of order at most 500 has at most 8 nontrivial factors; a
    # long product of trivial ones is refused before any factor is built.
    assert main(["construct", "--spec", " x ".join(["cyclic:1"] * 32)]) == 0
    capsys.readouterr()
    for count in (33, 10_000):
        spec = " x ".join(["cyclic:1"] * count)
        _run(capsys, ["classify", "--spec", spec, "--class", "A", "--k", "1"])
        assert main(["construct", "--spec", spec]) == 2
        assert capsys.readouterr().err == "error: spec has more than 32 factors\n"


def test_count_beyond_the_group_is_answered_fast():
    g = construct("cyclic:5")
    start = time.monotonic()
    assert count_symmetric_sets(g, 10**9) == 0
    assert time.monotonic() - start < 0.1


def test_empty_index_list_is_the_empty_set(capsys):
    assert main(["spectrum", "--spec", "cyclic:6", "--set-indices", ""]) == 0
    by_index = capsys.readouterr().out
    assert main(["spectrum", "--spec", "cyclic:6", "--set-words", ""]) == 0
    assert capsys.readouterr().out == by_index
