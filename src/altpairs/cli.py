"""Command-line front end: parse pair documents, classify, emit canonical
forms, presentations, and machine-readable reports.

Pair documents are line-oriented text::

    field gf2
    dim 2
    matrix A
    0 1
    1 0
    matrix B
    0 0
    0 0

``corpus`` classifies the ``.pair`` files of a directory one after another
in sorted path order; a file that cannot be read, does not parse, or is not
alternating comes back as ``ok: false`` with a message and the batch goes on.

Exit codes: 0 success (or predicate true), 1 predicate false, 2 input error,
3 internal error (a failed internal invariant, reported with the input file).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .blocks import AlternatingPair, BlockError, BlockId
from .chernikov import PresentationError, build_quotient, presentation_from_tuple
from .field import FieldError, FieldSpec
from .linalg import Mat
from .pencil import (
    ClassFunction,
    PencilError,
    decompose,
    pfaffian_form,
    point_text,
    validate,
)
from .polyring import PolyError, format_form
from .weakeq import CANDIDATE_CAP, ENUMERATION_CAP_K, CapError, GL2Element
from .weakeq import canonical_rep, weakly_equivalent

ENV_FIELD = "ALTPAIRS_FIELD"


class ParseError(ValueError):
    """Pair document syntax error with location."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class PairDocument:
    spec: FieldSpec
    dim: int
    matrices: list[tuple[str, Mat]]

    def first_two(self) -> AlternatingPair:
        if len(self.matrices) < 2:
            raise ParseError(0, "document needs at least two matrices")
        return AlternatingPair(self.matrices[0][1], self.matrices[1][1])


def parse_pair_document(text: str) -> PairDocument:
    spec = None
    dim = None
    matrices: list[tuple[str, list[list[int]]]] = []
    current: list[list[int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "field":
            if len(parts) != 2:
                raise ParseError(lineno, "expected: field <spec>")
            try:
                spec = FieldSpec.parse(parts[1])
            except FieldError as exc:
                raise ParseError(lineno, str(exc)) from exc
        elif parts[0] == "dim":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ParseError(lineno, "expected: dim <n> with n >= 0")
            dim = int(parts[1])
        elif parts[0] == "matrix":
            if len(parts) != 2:
                raise ParseError(lineno, "expected: matrix <name>")
            current = []
            matrices.append((parts[1], current))
        else:
            if current is None:
                raise ParseError(lineno, f"unexpected content {line!r} before any matrix")
            if dim is None:
                raise ParseError(lineno, "dim must be declared before matrix rows")
            try:
                row = [int(tok, 16) for tok in parts]
            except ValueError:
                raise ParseError(lineno, f"bad hex entries in {line!r}") from None
            if len(row) != dim:
                raise ParseError(lineno, f"expected {dim} entries, got {len(row)}")
            current.append(row)
    if spec is None:
        env = os.environ.get(ENV_FIELD)
        if env:
            spec = FieldSpec.parse(env)
        else:
            raise ParseError(0, "missing field declaration")
    if dim is None:
        raise ParseError(0, "missing dim declaration")
    if len(matrices) < 2:
        raise ParseError(0, "document needs at least two matrices")
    out = []
    for name, rows in matrices:
        if len(rows) != dim:
            raise ParseError(0, f"matrix {name} has {len(rows)} rows, expected {dim}")
        try:
            out.append((name, Mat.from_rows(spec, rows, dim)))
        except (FieldError, ValueError) as exc:
            raise ParseError(0, f"matrix {name}: {exc}") from exc
    return PairDocument(spec, dim, out)


def format_pair_document(pair: AlternatingPair) -> str:
    lines = [f"field {pair.spec}", f"dim {pair.dim}"]
    for name, m in zip("AB", pair.matrices):
        lines.append(f"matrix {name}")
        for row in m.rows:
            lines.append(" ".join(f"{v:x}" for v in row))
    return "\n".join(lines) + "\n"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _witness_json(q: GL2Element) -> dict:
    return {"Q": [[f"0x{q.q11:x}", f"0x{q.q12:x}"], [f"0x{q.q21:x}", f"0x{q.q22:x}"]]}


def _class_text(rho: ClassFunction) -> str:
    if not rho.entries:
        return "(empty class function)"
    return "\n".join(
        f"rho({point_text(p)}, {n}) = {m}" for p, n, m in rho.entries
    )


def _block_ids(rho: ClassFunction) -> list[str]:
    return [
        str(BlockId.of_point(point, n)) for point, n, mult in rho.entries for _ in range(mult)
    ]


# -- commands ---------------------------------------------------------------------


def cmd_validate(args) -> int:
    doc = parse_pair_document(_read_input(args.file))
    report = validate(doc.first_two())
    if args.json:
        payload = {"ok": report.ok}
        if not report.ok:
            payload.update(
                {"matrix": report.matrix, "position": list(report.position), "message": report.message}
            )
        print(json.dumps(payload))
    else:
        print("ok" if report.ok else f"invalid: {report.message}")
    return 0 if report.ok else 2


def cmd_pfaffian(args) -> int:
    doc = parse_pair_document(_read_input(args.file))
    form = pfaffian_form(doc.first_two())
    if args.json:
        print(json.dumps({"pfaffian": format_form(form)}))
    else:
        print(format_form(form))
    return 0


def cmd_decompose(args) -> int:
    doc = parse_pair_document(_read_input(args.file))
    rho = decompose(doc.first_two())
    if args.json:
        print(json.dumps(rho.to_json_dict()))
    else:
        print(_class_text(rho))
    return 0


def cmd_canonical(args) -> int:
    doc = parse_pair_document(_read_input(args.file))
    rho = decompose(doc.first_two())
    if args.json:
        payload = rho.to_json_dict()
        payload["block_ids"] = _block_ids(rho)
        print(json.dumps(payload))
    else:
        print(_class_text(rho))
        for bid in _block_ids(rho):
            print(bid)
    return 0


def cmd_weak_class(args) -> int:
    doc = parse_pair_document(_read_input(args.file))
    rho = decompose(doc.first_two())
    rep, witness = canonical_rep(rho)
    if args.json:
        payload = {"class": rep.to_json_dict(), "witness": _witness_json(witness)}
        print(json.dumps(payload))
    else:
        print(_class_text(rep))
        print(f"witness Q = {witness}")
    return 0


def cmd_equiv(args) -> int:
    doc1 = parse_pair_document(_read_input(args.file1))
    doc2 = parse_pair_document(_read_input(args.file2))
    ok, witness = weakly_equivalent(doc1.first_two(), doc2.first_two())
    if args.json:
        payload = {"equivalent": ok}
        if ok:
            payload["witness"] = _witness_json(witness)
        print(json.dumps(payload))
    else:
        if ok:
            print(f"weakly equivalent; witness Q = {witness}")
        else:
            print("not weakly equivalent")
    return 0 if ok else 1


def cmd_group(args) -> int:
    doc = parse_pair_document(_read_input(args.file))
    mats = [m for _, m in doc.matrices]
    pres = presentation_from_tuple(mats, e=args.quotient_exp)
    quotient = build_quotient(pres, args.quotient_exp)
    if args.json:
        payload = {
            "presentation": pres.to_json_dict(),
            "quotient": {"order": quotient.order, "e": quotient.e},
        }
        print(json.dumps(payload))
    else:
        print(pres.to_gap_text())
        print(f"finite model order: {quotient.order} (e = {quotient.e})")
    return 0


def cmd_gen_block(args) -> int:
    spec = FieldSpec.parse(args.field) if args.field else FieldSpec.gf2()
    bid = BlockId.parse(args.blockid, spec)
    pair = bid.build(spec)
    if args.json:
        payload = {
            "field": str(pair.spec),
            "dim": pair.dim,
            "matrices": {
                "A": [list(r) for r in pair.a.rows],
                "B": [list(r) for r in pair.b.rows],
            },
        }
        print(json.dumps(payload))
    else:
        sys.stdout.write(format_pair_document(pair))
    return 0


def _classify_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = parse_pair_document(fh.read())
        pair = doc.first_two()
    except (ParseError, FieldError, UnicodeDecodeError, OSError) as exc:
        return {"path": path, "ok": False, "message": str(exc)}
    try:
        rho = decompose(pair)
    except PencilError as exc:
        return {"path": path, "ok": False, "message": str(exc)}
    entry: dict = {"path": path, "ok": True, "class": rho.to_json_dict()}
    try:
        rep, witness = canonical_rep(rho)
        entry["weak_class"] = rep.to_json_dict()
        entry["witness"] = _witness_json(witness)
    except CapError as exc:
        entry["weak_class_error"] = str(exc)
    return entry


def cmd_corpus(args) -> int:
    paths = sorted(
        os.path.join(args.dir, name)
        for name in os.listdir(args.dir)
        if name.endswith(".pair")
    )
    results = []
    for path in paths:
        try:
            results.append(_classify_file(path))
        except AssertionError as exc:
            exc.path = path  # main reports the file being classified
            raise
    if args.json:
        print(json.dumps({"files": results}))
    else:
        for r in results:
            if r["ok"]:
                blocks = ", ".join(
                    f"({b['g']}, {b['n']}) x {b['mult']}" for b in r["class"]["blocks"]
                ) or "empty"
                print(f"{r['path']}: {blocks}")
            else:
                print(f"{r['path']}: INVALID ({r['message']})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altpairs",
        description="Classify pairs of alternating bilinear forms over GF(2^k) "
        "and emit the matching 2-group presentations.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the alternating-pair invariants")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("pfaffian", help="square root of det(x1 A + x2 B)")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_pfaffian)

    p = sub.add_parser("decompose", help="class function of the pair")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("canonical", help="congruence-canonical block list")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser(
        "weak-class",
        help="weak-equivalence canonical representative; over GF(2^k) up to "
        f"k = {ENUMERATION_CAP_K} for classes with fewer than two degree-1 points, "
        f"otherwise while the search tries at most {CANDIDATE_CAP} moves: "
        "2(2^k - 1) with two degree-1 points, s(s - 1)(s - 2) with s >= 3",
    )
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_weak_class)

    p = sub.add_parser("equiv", help="weak-equivalence test for two pairs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("group", help="presentation of the attached 2-group")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--quotient-exp", type=int, default=1, metavar="E")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("gen-block", help="emit a canonical block as a pair document")
    p.add_argument("blockid")
    p.add_argument("--field", default=None)
    p.set_defaults(func=cmd_gen_block)

    p = sub.add_parser(
        "corpus",
        help="classify every .pair file in a directory, serially in path order; "
        "unparsable files come back ok: false",
    )
    p.add_argument("dir")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError,
        FieldError,
        PolyError,
        PencilError,
        BlockError,
        PresentationError,
        CapError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        inputs = [vars(args)[name] for name in ("file", "file1", "file2") if name in vars(args)]
        where = getattr(exc, "path", None) or ", ".join(inputs) or args.command
        print(f"internal error: {where}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
