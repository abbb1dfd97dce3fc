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

The ``field`` and ``dim`` lines come first, in either order, and a
document's ``field`` line is the only source of its field.  Each ``matrix``
line is followed by ``dim`` rows of ``dim`` entries: hex digits only (no
sign, prefix or underscore), separated by spaces or tabs, each below the
field order.  ``#`` starts a comment.  Every parse error names a line: a
syntax error its own, a short matrix its ``matrix`` line, and a missing
declaration or matrix the document's last line.

Every command reads its input and computes its result, returning a JSON
payload, a text renderer (a function of no arguments) and an exit code;
``main`` prints the payload under ``--json`` and otherwise calls the
renderer and prints its text (nothing when the text is empty), so no text
is built that is not printed.  The argument parser is built once per
process, on the first call of ``main``, and ``main`` finds each command's
function by name when it runs it.

``corpus`` classifies the ``.pair`` files of a directory one after another
in sorted path order; a file that cannot be read, does not parse, or is not
alternating comes back as ``ok: false`` with a message and the batch goes on.

Exit codes: 0 success (or predicate true), 1 predicate false, 2 input error,
3 internal error (a failed internal invariant, reported with the input file).
A reader that closes the output early (``| head``) does not change the code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import cache
from typing import Callable

from .blocks import AlternatingPair, BlockError, BlockId
from .chernikov import PresentationError, presentation_from_tuple
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

_ROW_CHARS = "0123456789abcdefABCDEF \t"


class ParseError(ValueError):
    """Pair document syntax error with location."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")


@dataclass
class PairDocument:
    spec: FieldSpec
    dim: int
    matrices: list[tuple[str, Mat]]

    def first_two(self) -> AlternatingPair:
        return AlternatingPair(self.matrices[0][1], self.matrices[1][1])


def parse_pair_document(text: str) -> PairDocument:
    spec = None
    dim = None
    matrices: list[tuple[str, int, list[int]]] = []
    current: list[int] | None = None
    lineno = 1  # after the loop: the document's last line, where a missing part is reported
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("field", "dim") and matrices:
            raise ParseError(lineno, f"{parts[0]} must come before the first matrix")
        if parts[0] == "field":
            if len(parts) != 2:
                raise ParseError(lineno, "expected: field <spec>")
            try:
                spec = FieldSpec.parse(parts[1])
            except FieldError as exc:
                raise ParseError(lineno, str(exc)) from exc
            slots = _slot_bits(spec)
        elif parts[0] == "dim":
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ParseError(lineno, "expected: dim <n> with n >= 0")
            dim = int(parts[1])
        elif parts[0] == "matrix":
            if len(parts) != 2:
                raise ParseError(lineno, "expected: matrix <name>")
            current = []
            matrices.append((parts[1], lineno, current))
        else:
            if current is None:
                raise ParseError(lineno, f"unexpected content {line!r} before any matrix")
            if spec is None:
                raise ParseError(lineno, "field must be declared before matrix rows")
            if dim is None:
                raise ParseError(lineno, "dim must be declared before matrix rows")
            if line.strip(_ROW_CHARS):
                raise ParseError(lineno, f"bad hex entries in {line!r}")
            if len(parts) != dim:
                raise ParseError(lineno, f"expected {dim} entries, got {len(parts)}")
            try:  # the packed row is the entries' slot bits, last entry first
                bits = "".join([slots[tok] for tok in reversed(parts)])
            except KeyError:  # uppercase, a leading zero or out of range
                row = [int(tok, 16) for tok in reversed(parts)]
                if max(row) >= spec.order:
                    raise ParseError(lineno, f"value 0x{max(row):x} out of range for {spec}") from None
                bits = "".join([slots[f"{v:x}"] for v in row])
            current.append(int(bits, 2))
    if spec is None:
        raise ParseError(lineno, "missing field declaration")
    if dim is None:
        raise ParseError(lineno, "missing dim declaration")
    if len(matrices) < 2:
        raise ParseError(lineno, "document needs at least two matrices")
    for name, start, rows in matrices:
        if len(rows) != dim:
            raise ParseError(start, f"matrix {name} has {len(rows)} rows, expected {dim}")
    # each row was checked and packed on its line
    mats = [(name, Mat(tuple(rows), dim, spec)) for name, _, rows in matrices]
    return PairDocument(spec, dim, mats)


@cache
def _slot_bits(spec: FieldSpec) -> dict[str, str]:
    """Each element's hex spelling (lowercase, no leading zero) -> its slot."""
    w = spec.packing.w
    return {f"{v:x}": f"{v:0{w}b}" for v in range(spec.order)}


def format_pair_document(pair: AlternatingPair) -> str:
    lines = [f"field {pair.spec}", f"dim {pair.dim}"]
    for name, m in zip("AB", pair.matrices):
        lines += [f"matrix {name}", *str(m).splitlines()]
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
    return "\n".join(f"rho({point_text(p)}, {n}) = {m}" for p, n, m in rho.entries)


def _block_ids(rho: ClassFunction) -> list[str]:
    return [str(BlockId.of_point(p, n)) for p, n, mult in rho.entries for _ in range(mult)]


# -- commands: each returns (JSON payload, text renderer, exit code) -------------------

Result = tuple[dict, Callable[[], str], int]


def _read_pair(path: str) -> AlternatingPair:
    return parse_pair_document(_read_input(path)).first_two()


def cmd_validate(args) -> Result:
    report = validate(_read_pair(args.file))
    if report.ok:
        return {"ok": True}, lambda: "ok", 0
    fault = {"matrix": report.matrix, "position": list(report.position), "message": report.message}
    return {"ok": False, **fault}, lambda: f"invalid: {report.message}", 2


def cmd_pfaffian(args) -> Result:
    form = format_form(pfaffian_form(_read_pair(args.file)))
    return {"pfaffian": form}, lambda: form, 0


def cmd_decompose(args) -> Result:
    rho = decompose(_read_pair(args.file))
    return rho.to_json_dict(), lambda: _class_text(rho), 0


def cmd_canonical(args) -> Result:
    rho = decompose(_read_pair(args.file))
    ids = _block_ids(rho)
    payload = {**rho.to_json_dict(), "block_ids": ids}
    return payload, lambda: "\n".join([_class_text(rho), *ids]), 0


def _weak_entry(rep: ClassFunction, witness: GL2Element, key: str) -> dict:
    """The weak canonical representative and its witness as JSON."""
    return {key: rep.to_json_dict(), "witness": _witness_json(witness)}


def cmd_weak_class(args) -> Result:
    rep, witness = canonical_rep(decompose(_read_pair(args.file)))
    payload = _weak_entry(rep, witness, "class")
    return payload, lambda: f"{_class_text(rep)}\nwitness Q = {witness}", 0


def cmd_equiv(args) -> Result:
    ok, witness = weakly_equivalent(_read_pair(args.file1), _read_pair(args.file2))
    if ok:
        payload = {"equivalent": True, "witness": _witness_json(witness)}
        return payload, lambda: f"weakly equivalent; witness Q = {witness}", 0
    return {"equivalent": False}, lambda: "not weakly equivalent", 1


def cmd_group(args) -> Result:
    mats = [m for _, m in parse_pair_document(_read_input(args.file)).matrices]
    group = presentation_from_tuple(mats, e=args.quotient_exp)
    payload = {
        "presentation": group.to_json_dict(),
        "quotient": {"order": group.order, "e": group.e},
    }

    def text() -> str:
        return f"{group.to_gap_text()}\nfinite model order: {group.order} (e = {group.e})"

    return payload, text, 0


def cmd_gen_block(args) -> Result:
    spec = FieldSpec.parse(args.field) if args.field else FieldSpec.gf2()
    pair = BlockId.parse(args.blockid, spec).build(spec)
    payload = {
        "field": str(pair.spec),
        "dim": pair.dim,
        "matrices": {"A": [list(r) for r in pair.a.rows], "B": [list(r) for r in pair.b.rows]},
    }
    return payload, lambda: format_pair_document(pair).rstrip("\n"), 0


def _classify_file(path: str) -> dict:
    try:
        rho = decompose(_read_pair(path))
    except (ParseError, FieldError, PencilError, UnicodeDecodeError, OSError) as exc:
        return {"path": path, "ok": False, "message": str(exc)}
    entry: dict = {"path": path, "ok": True, "class": rho.to_json_dict()}
    try:
        entry.update(_weak_entry(*canonical_rep(rho), "weak_class"))
    except CapError as exc:
        entry["weak_class_error"] = str(exc)
    return entry


def _corpus_line(entry: dict) -> str:
    if not entry["ok"]:
        return f"{entry['path']}: INVALID ({entry['message']})"
    blocks = ", ".join(f"({b['g']}, {b['n']}) x {b['mult']}" for b in entry["class"]["blocks"])
    return f"{entry['path']}: {blocks or 'empty'}"


def cmd_corpus(args) -> Result:
    paths = sorted(
        os.path.join(args.dir, name) for name in os.listdir(args.dir) if name.endswith(".pair")
    )
    results = []
    for path in paths:
        try:
            results.append(_classify_file(path))
        except AssertionError as exc:
            exc.path = path  # main reports the file being classified
            raise
    return {"files": results}, lambda: "\n".join(map(_corpus_line, results)), 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="altpairs",
        description="Classify pairs of alternating bilinear forms over GF(2^k) "
        "and emit the matching 2-group presentations.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    weak_help = (
        "weak-equivalence canonical representative; over GF(2^k) up to "
        f"k = {ENUMERATION_CAP_K} for classes with fewer than two degree-1 points, "
        f"otherwise while the search tries at most {CANDIDATE_CAP} moves: "
        "2(2^k - 1) with two degree-1 points, s(s - 1)(s - 2) with s >= 3"
    )
    for name, help_text in (
        ("validate", "check the alternating-pair invariants"),
        ("pfaffian", "square root of det(x1 A + x2 B)"),
        ("decompose", "class function of the pair"),
        ("canonical", "congruence-canonical block list"),
        ("weak-class", weak_help),
        ("group", "presentation of the attached 2-group"),
    ):
        sub.add_parser(name, help=help_text).add_argument("file", nargs="?", default="-")
    sub.choices["group"].add_argument("--quotient-exp", type=int, default=1, metavar="E")

    p = sub.add_parser("equiv", help="weak-equivalence test for two pairs")
    p.add_argument("file1")
    p.add_argument("file2")

    p = sub.add_parser("gen-block", help="emit a canonical block as a pair document")
    p.add_argument("blockid")
    p.add_argument("--field", default=None)

    p = sub.add_parser(
        "corpus",
        help="classify every .pair file in a directory, serially in path order; "
        "unparsable files come back ok: false",
    )
    p.add_argument("dir")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and print its output: the JSON payload with --json,
    else the rendered text (nothing when the text is empty)."""
    args = build_parser().parse_args(argv)
    try:
        # looked up on each call, so a later wrapper of a cmd_* takes effect
        payload, render, code = globals()["cmd_" + args.command.replace("-", "_")](args)
        out = json.dumps(payload) if args.json else render()
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
    if out:
        try:
            print(out, flush=True)
        except BrokenPipeError:  # the reader stopped early (``| head``)
            null = os.open(os.devnull, os.O_WRONLY)  # for the flush at exit
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
    return code


if __name__ == "__main__":
    sys.exit(main())
