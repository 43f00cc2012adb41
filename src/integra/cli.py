"""Command-line front end: construct groups, compute spectra, classify, verify, census."""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from pathlib import Path

from .groups import FiniteGroup, construct, from_table, parse_word, to_document
from .polys import IntPolynomial

# classify, spectra and verify are imported by the commands that run them,
# so that a command loads only its own modules.


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


_JSON_KEYS = {"group_id": "group", "cls": "class"}


def _report_to_dict(rep) -> dict:
    """A spectrum or membership report as JSON-ready fields, polynomials as coefficients."""
    doc = {_JSON_KEYS.get(name, name): value for name, value in zip(rep._fields, rep)}
    return {k: v.coeffs if isinstance(v, IntPolynomial) else v for k, v in doc.items()}


def _load_document(path: Path) -> FiniteGroup:
    """Parse one ftg-1 file; malformed or too deeply nested JSON is an input error."""
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}")
    except RecursionError:
        raise ValueError(f"{path}: not valid JSON: nested too deeply")
    return from_table(doc, label=path.name)


def _load_group(args: argparse.Namespace) -> FiniteGroup:
    if args.spec is not None:
        return construct(args.spec)
    return _load_document(Path(args.file))


_DECIMAL = re.compile(r"\s*-?[0-9]+\s*", re.ASCII)


def decimal(text: str) -> int:
    """An integer in ASCII decimal digits, with an optional leading "-" and
    spaces around it: --k and each --set-indices token. int() alone would
    also take "1_0" and the digits of other scripts. argparse names a type
    by its function, so a bad --k reads "invalid decimal value"."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _resolve_set(g: FiniteGroup, args: argparse.Namespace) -> tuple[int, ...]:
    if args.set_indices is not None:
        try:
            return tuple(decimal(tok) for tok in args.set_indices.split(",") if tok.strip())
        except ValueError:
            raise ValueError(f"bad --set-indices value: {args.set_indices!r}")
    return tuple(parse_word(g, w) for w in args.set_words.split(",") if w.strip())


# What a command hands to main: its verdict, its JSON document (None when it
# has none to print) and its table lines.
_Outcome = tuple[bool, object, list[str]]


def _cmd_construct(args: argparse.Namespace) -> _Outcome:
    doc = to_document(construct(args.spec))
    if not args.out:
        return True, doc, []
    Path(args.out).write_text(_canonical(doc) + "\n", encoding="utf-8")
    return True, None, []


def _cmd_spectrum(args: argparse.Namespace) -> _Outcome:
    from .spectra import is_integral_cayley

    g = _load_group(args)
    ok, rep = is_integral_cayley(g, _resolve_set(g, args))
    eig = ", ".join(f"{v} (x{m})" for v, m in rep.eigenvalues)
    table = [
        f"n={rep.n} degree={rep.degree} {'integral' if ok else 'non-integral'} "
        f"components={rep.components} subgroup_order={rep.subgroup_order} index={rep.index}",
        f"integer eigenvalues: {eig if eig else 'none'}",
    ]
    if not ok:
        table.append(f"residual factor: {rep.residual}")
    return ok, _report_to_dict(rep), table


def _cmd_classify(args: argparse.Namespace) -> _Outcome:
    from .classify import in_A_k, in_G_k

    g = _load_group(args)
    rep = in_A_k(g, args.k) if args.cls == "A" else in_G_k(g, args.k)
    verdict = "member" if rep.member else "non-member"
    extra = " (vacuous)" if rep.vacuous else ""
    table = [
        f"{rep.group_id}: {rep.cls}_{rep.k} {verdict}{extra}, "
        f"{rep.sets_checked} sets checked"
    ]
    if rep.witness_words:
        table.append(f"witness: {{{', '.join(rep.witness_words)}}}")
    return rep.member, _report_to_dict(rep), table


def _cmd_verify(args: argparse.Namespace) -> _Outcome:
    from .verify import list_claims, run_all

    claim_filter = None if args.all else args.claim
    if claim_filter == "":
        raise ValueError("empty --claim value")
    results = run_all(claim_filter)
    if claim_filter is not None and not results:
        raise ValueError(f"no claims match: {claim_filter}")
    described = {c.id: c.description for c in list_claims()}
    table = [
        f"{r.id:<4} {'PASS' if r.passed else 'FAIL'}  {r.elapsed:7.2f}s  {described[r.id]}"
        for r in results
    ]
    passed = sum(r.passed for r in results)
    table.append(f"{passed}/{len(results)} claims passed")
    # A claim's row leaves out its elapsed time, so the document is the same on every run.
    rows = [{"id": r.id, "passed": r.passed, "evidence": r.evidence} for r in results]
    return passed == len(results), rows, table


def _cmd_census(args: argparse.Namespace) -> _Outcome:
    from .classify import _shared_records, in_A_k, in_G_k

    if args.k < 1:
        raise ValueError("k must be at least 1")
    root = Path(args.dir)
    if not root.is_dir():
        raise ValueError(f"not a directory: {args.dir}")
    reports = []
    for path in sorted(root.glob("*.json")):
        g = _load_document(path)
        with _shared_records():
            reports += [in_A_k(g, args.k), in_G_k(g, args.k)]
    table = [
        f"{rep.group_id}: {rep.cls}_{rep.k} {'member' if rep.member else 'non-member'}"
        for rep in reports
    ]
    return all(rep.member for rep in reports), [_report_to_dict(rep) for rep in reports], table


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit canonical JSON on stdout")
    p.add_argument("--table", action="store_true", help="emit a readable table on stderr")


def _add_group_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--spec", help="construction spec, e.g. 'dic(cyclic:6)'")
    src.add_argument("--file", help="path to a group document in ftg-1 format")


# Built on the first call, not at import, and kept for the process: parsing
# leaves no state in it.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="integra",
        description="Exact integral-spectrum toolkit for Cayley graphs over finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a group and emit its ftg-1 document")
    p.add_argument("--spec", required=True, help="construction spec, e.g. 'dic(cyclic:6)'")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.set_defaults(func=_cmd_construct, json=True, table=False)

    p = sub.add_parser("spectrum", help="exact spectrum report for one connection set")
    _add_group_source(p)
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--set-indices", help="comma-separated element indices")
    sel.add_argument("--set-words", help="comma-separated generator words, e.g. 'a^2,a^3*b,b'")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("classify", help="A_k or G_k membership by exhaustive scan")
    _add_group_source(p)
    p.add_argument("--class", dest="cls", choices=("A", "G"), required=True)
    p.add_argument("--k", type=decimal, required=True, help="valency bound, at least 1")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run the claims catalog")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="run every claim")
    which.add_argument("--claim", help="claim id, exact match first, then prefix")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="classify every ftg-1 file in a directory")
    p.add_argument("--dir", required=True, help="directory of ftg-1 JSON files")
    p.add_argument("--k", type=decimal, required=True, help="valency bound, at least 1")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command: its JSON document to stdout with --json or with
    neither flag, its table lines to stderr with --table (verify prints
    them with neither flag too); exit 0 or 1 from its verdict, 2 on an
    input error or when memory or the recursion limit runs out, which
    leaves no verdict."""
    args = _build_parser().parse_args(argv)
    if not args.json and not args.table:
        args.json, args.table = True, args.command == "verify"
    try:
        ok, document, table = args.func(args)
        if args.json and document is not None:
            print(_canonical(document))
        if args.table:
            for line in table:
                print(line, file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        short = "out of memory" if isinstance(exc, MemoryError) else "recursion limit reached"
        print(f"error: {args.command}: {short}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
