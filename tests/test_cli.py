"""Command-line interface: document parsing, commands, exit codes, JSON."""

import argparse
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import altpairs
from altpairs.blocks import build_finite, build_infinity, build_plus, direct_sum
from altpairs.cli import (
    ParseError,
    format_pair_document,
    main,
    parse_pair_document,
)
from altpairs.field import FieldSpec
from altpairs.pencil import ClassFunction, assemble, decompose
from altpairs.polyring import EPS, BinaryForm, parse_poly

from conftest import GF2, GF4, class_function_from_json, krylov_mutants, parse_pair_document_reference

GOLDEN = Path(__file__).with_name("cli_golden.json")


def tp(text):
    return parse_poly(GF2, text)


INF1_DOC = """\
field gf2
dim 2
matrix A
0 0
0 0
matrix B
0 1
1 0
"""


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- document parsing ------------------------------------------------------------


def test_parse_document_roundtrip():
    pair = build_finite(tp("t^2+t+1"), 1)
    doc = parse_pair_document(format_pair_document(pair))
    assert doc.spec == GF2
    assert doc.dim == 4
    assert doc.first_two().a.rows == pair.a.rows
    assert doc.first_two().b.rows == pair.b.rows


def test_parse_document_gf4_hex():
    text = "field gf2^2:0x7\ndim 2\nmatrix A\n0 3\n3 0\nmatrix B\n0 2\n2 0\n"
    doc = parse_pair_document(text)
    assert doc.spec == GF4
    assert doc.first_two().a.rows == ((0, 3), (3, 0))


def test_parse_document_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_pair_document("field gf2\ndim 2\nmatrix A\n0 1 1\n")
    assert "line 4" in str(exc.value)
    with pytest.raises(ParseError):
        parse_pair_document("dim 2\nmatrix A\n0 0\n0 0\nmatrix B\n0 0\n0 0\n")
    for dim_line in ("dim 2 7", "dim -1", "dim", "dim two"):
        with pytest.raises(ParseError) as exc:
            parse_pair_document(f"field gf2\n{dim_line}\nmatrix A\n0 1\n1 0\n")
        assert "line 2" in str(exc.value), dim_line


def test_parse_document_field_only_from_document(monkeypatch):
    # the environment names no field: a document without a field line is refused
    monkeypatch.setenv("ALTPAIRS_FIELD", "gf2")
    for text in ("dim 1\nmatrix A\n0\nmatrix B\n0\n", "dim 0\nmatrix A\nmatrix B\n"):
        with pytest.raises(ParseError, match="field"):
            parse_pair_document(text)


def test_parse_document_field_before_first_row():
    for text, line in (
        ("dim 2\nmatrix A\n0 1\n1 0\nfield gf2\nmatrix B\n0 0\n0 0\n", 3),
        ("field gf2\ndim 2\nmatrix A\n0 1\n1 0\nfield gf2^2\nmatrix B\n0 0\n0 0\n", 6),
        ("field gf2\nmatrix A\ndim 2\n0 1\n1 0\nmatrix B\n0 0\n0 0\n", 3),
    ):
        with pytest.raises(ParseError) as exc:
            parse_pair_document(text)
        assert str(exc.value).startswith(f"line {line}: "), text


@pytest.mark.parametrize("row", ["0 -1", "1_0 0", "0x3 0", "+1 0", "0 \u0661"])
def test_parse_document_entries_hex_digits_only(row):
    # int(tok, 16) alone accepts a sign, underscores, a 0x prefix and
    # non-ASCII digits
    text = f"field gf2^2:0x7\ndim 2\nmatrix A\n{row}\n0 0\nmatrix B\n0 0\n0 0\n"
    with pytest.raises(ParseError) as exc:
        parse_pair_document(text)
    assert str(exc.value) == f"line 4: bad hex entries in {row!r}"


def test_parse_document_out_of_range_entry_names_its_line(capsys, monkeypatch):
    text = "field gf2\ndim 2\nmatrix A\n0 1\n1 0\nmatrix B\n0 2\n2 0\n"
    with pytest.raises(ParseError) as exc:
        parse_pair_document(text)
    assert str(exc.value) == "line 7: value 0x2 out of range for gf2"
    code, out, err = run(capsys, ["decompose"], stdin=text, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: line 7: value 0x2 out of range for gf2\n")
    wide = "field gf2^2:0x7\ndim 2\nmatrix A\n0 3\n3 0\nmatrix B\n0 A\nA 0\n"
    with pytest.raises(ParseError, match="^line 7: value 0xa out of range for gf2\\^2:0x7$"):
        parse_pair_document(wide)


def _pair_doc(field, a, b, sep=" "):
    """A dim-2 document with the entries a and b above the diagonal."""
    return f"field {field}\ndim 2\nmatrix A\n0{sep}{a}\n{a}{sep}0\nmatrix B\n0{sep}{b}\n{b}{sep}0\n"


@pytest.mark.parametrize(
    "field, lower, twins",
    [
        ("gf2", ("1", "1"), [("01", "001"), ("1", "01")]),
        ("gf2^4", ("a", "f"), [("A", "F"), ("0a", "00f"), ("A", "00F")]),
        ("gf2^8", ("a", "fe"), [("A", "FE"), ("0a", "00fe"), ("00A", "0Fe")]),
        ("gf2^9", ("f", "1a0"), [("F", "1A0"), ("00f", "01a0"), ("0F", "001A0")]),
    ],
)
def test_parse_document_token_spellings(field, lower, twins):
    # uppercase digits, leading zeros and tab separators spell the same entry
    want = parse_pair_document(_pair_doc(field, *lower)).matrices
    for a, b in twins:
        assert parse_pair_document(_pair_doc(field, a, b)).matrices == want, (a, b)
    assert parse_pair_document(_pair_doc(field, *lower, sep="\t")).matrices == want
    assert parse_pair_document(_pair_doc(field, *twins[0], sep=" \t ")).matrices == want


def test_parse_document_spelling_errors():
    with pytest.raises(ParseError, match="^line 4: value 0x10 out of range for gf2\\^4:0x13$"):
        parse_pair_document(_pair_doc("gf2^4", "010", "1"))
    # a bad digit is reported before a wrong entry count
    text = "field gf2^4\ndim 2\nmatrix A\n0 g 1\n1 0\nmatrix B\n0 0\n0 0\n"
    with pytest.raises(ParseError, match="^line 4: bad hex entries in '0 g 1'$"):
        parse_pair_document(text)


def _parsed(parse, text):
    """(field, dim, named matrices) from ``parse``, or its ParseError text."""
    try:
        doc = parse(text)
    except ParseError as exc:
        return str(exc)
    return doc if isinstance(doc, tuple) else (doc.spec, doc.dim, doc.matrices)


_BAD_TOKENS = ["g", "x1", "-1", "1_0", "0x3", "+1", "\u0661", "Z"]


def _mutated_document(rng, spec):
    """A random document over spec, its rows spelled with uppercase digits,
    leading zeros and tabs, some tokens replaced by bad digits or values out
    of range, and some rows cut short, lengthened or dropped."""
    dim = rng.randrange(5)
    lines = [f"field {spec}", f"dim {dim}"]
    for name in "AB":
        lines.append(f"matrix {name}")
        for _ in range(dim):
            toks = [f"{rng.randrange(spec.order):x}" for _ in range(dim)]
            for _ in range(rng.choice([0, 0, 1, 2]) if toks else 0):
                i, op = rng.randrange(len(toks)), rng.randrange(6)
                if op == 0:
                    toks[i] = toks[i].upper()
                elif op == 1:
                    toks[i] = "0" * rng.randrange(1, 4) + toks[i]
                elif op == 2 and rng.random() < 0.2:
                    toks[i] = rng.choice(_BAD_TOKENS)
                elif op == 3 and rng.random() < 0.2:
                    toks[i] = f"{rng.randrange(spec.order, 3 * spec.order):x}"
                elif op == 4 and rng.random() < 0.1 and len(toks) > 1:
                    del toks[i]
                elif op == 5 and rng.random() < 0.1:
                    toks.append("0")
            if rng.random() < 0.98:
                lines.append(rng.choice([" ", "\t", " \t"]).join(toks))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 9])
def test_parser_matches_entry_at_a_time_reference(k):
    rng = random.Random(1000 + k)
    spec = FieldSpec.gf(k)
    outcomes = set()
    for _ in range(300):
        text = _mutated_document(rng, spec)
        want = _parsed(parse_pair_document_reference, text)
        assert _parsed(parse_pair_document, text) == want, text
        outcomes.add(want.split(":", 1)[1].split()[0] if isinstance(want, str) else "ok")
    # every kind of outcome came up
    assert {"ok", "bad", "expected", "value", "matrix"} <= outcomes, outcomes


def test_parser_matches_reference_on_golden_inputs():
    inputs = json.loads(GOLDEN.read_text())["inputs"]
    for name, text in inputs.items():
        assert _parsed(parse_pair_document, text) == _parsed(parse_pair_document_reference, text), name


# a document-level error names a line: a short matrix its matrix line, a
# missing declaration or matrix the last line of the document


def test_parse_short_matrix_names_its_matrix_line():
    text = "field gf2\ndim 2\nmatrix A\n0 1\n1 0\nmatrix B\n0 0\n# end\n"
    with pytest.raises(ParseError, match="^line 6: matrix B has 1 rows, expected 2$"):
        parse_pair_document(text)


def test_parse_missing_field_names_last_line():
    for text, line in (("dim 0\nmatrix A\nmatrix B\n\n", 4), ("", 1)):
        with pytest.raises(ParseError) as exc:
            parse_pair_document(text)
        assert str(exc.value) == f"line {line}: missing field declaration", text


def test_parse_missing_dim_names_last_line():
    with pytest.raises(ParseError, match="^line 3: missing dim declaration$"):
        parse_pair_document("field gf2\nmatrix A\nmatrix B\n")


def test_parse_single_matrix_names_last_line():
    with pytest.raises(ParseError, match="^line 5: document needs at least two matrices$"):
        parse_pair_document("field gf2\ndim 1\nmatrix A\n0\n# no matrix B")


def test_parse_document_comments_ignored():
    doc = parse_pair_document("# intro\n" + INF1_DOC + "# trailing\n")
    assert doc.dim == 2


# -- commands --------------------------------------------------------------------


def test_gen_block_decompose_pipe(capsys, monkeypatch):
    code, out, _ = run(capsys, ["gen-block", "inf:2"])
    assert code == 0
    code, out2, _ = run(capsys, ["decompose"], stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    assert "rho(x2, 2) = 1" in out2


def test_validate_ok(capsys, monkeypatch):
    code, out, _ = run(capsys, ["validate"], stdin=INF1_DOC, monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "ok"


def test_validate_diagonal_violation_exit2(capsys, monkeypatch):
    bad = "field gf2\ndim 2\nmatrix A\n1 0\n0 0\nmatrix B\n0 0\n0 0\n"
    code, out, _ = run(capsys, ["validate"], stdin=bad, monkeypatch=monkeypatch)
    assert code == 2
    assert "diagonal" in out


def test_validate_json(capsys, monkeypatch):
    bad = "field gf2\ndim 2\nmatrix A\n0 0\n0 1\nmatrix B\n0 0\n0 0\n"
    code, out, _ = run(capsys, ["--json", "validate"], stdin=bad, monkeypatch=monkeypatch)
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["matrix"] == "A"
    assert payload["position"] == [1, 1]


def test_pfaffian_command(capsys, monkeypatch):
    code, out, _ = run(capsys, ["pfaffian"], stdin=INF1_DOC, monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "x2"


def test_decompose_json_roundtrip(capsys, monkeypatch):
    pair = build_finite(tp("t^2+t+1"), 2)
    doc = format_pair_document(pair)
    code, out, _ = run(capsys, ["--json", "decompose"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert class_function_from_json(GF2, payload) == decompose(pair)


def test_canonical_lists_block_ids(capsys, monkeypatch):
    code, out, _ = run(capsys, ["--json", "canonical"], stdin=INF1_DOC, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["block_ids"] == ["inf:1"]


def test_weak_class_command(capsys, monkeypatch):
    pair = build_finite(tp("t"), 1)
    doc = format_pair_document(pair)
    code, out, _ = run(capsys, ["--json", "weak-class"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    # the x1 point canonicalizes to the orbit minimum, the x2 point
    assert payload["class"]["blocks"] == [{"g": "x2", "n": 1, "mult": 1}]
    assert "Q" in payload["witness"]


def test_equiv_swap_exit_codes_and_witness(capsys, tmp_path):
    pair = build_finite(tp("t"), 2)
    f1 = tmp_path / "a.pair"
    f2 = tmp_path / "b.pair"
    f1.write_text(format_pair_document(pair))
    from altpairs.blocks import AlternatingPair

    f2.write_text(format_pair_document(AlternatingPair(pair.b, pair.a)))
    code, out, _ = run(capsys, ["--json", "equiv", str(f1), str(f2)])
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    assert payload["witness"]["Q"] == [["0x0", "0x1"], ["0x1", "0x0"]]


def test_equiv_false_exit1(capsys, tmp_path):
    f1 = tmp_path / "a.pair"
    f2 = tmp_path / "b.pair"
    f1.write_text(format_pair_document(build_infinity(1)))
    f2.write_text(format_pair_document(build_infinity(2)))
    code, out, _ = run(capsys, ["equiv", str(f1), str(f2)])
    assert code == 1
    assert "not weakly equivalent" in out


def test_equiv_non_alternating_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.pair"
    bad.write_text("field gf2\ndim 2\nmatrix A\n1 0\n0 0\nmatrix B\n0 0\n0 0\n")
    for dim in (2, 4):  # the same dimension as bad.pair, and another
        good = tmp_path / f"good{dim}.pair"
        good.write_text(format_pair_document(build_infinity(dim // 2)))
        for argv in (["equiv", str(bad), str(good)], ["equiv", str(good), str(bad)]):
            code, out, err = run(capsys, argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: "), argv


def test_weak_class_anchored_above_enumeration_cap(capsys, tmp_path):
    # two degree-1 points anchor the weak canonical form over GF(2^8); one
    # point over GF(2^5) keeps the enumeration cap
    gf256, gf32 = FieldSpec.gf(8), FieldSpec.gf(5)
    x1, x2 = BinaryForm.x1(gf256), BinaryForm.x2(gf256)
    two = ClassFunction.from_dict(gf256, {(x1, 1): 1, (x2, 2): 1})
    one = ClassFunction.from_dict(gf32, {(BinaryForm.x1(gf32), 1): 1})
    (tmp_path / "a-two.pair").write_text(format_pair_document(assemble(two)))
    (tmp_path / "b-one.pair").write_text(format_pair_document(assemble(one)))
    code, out, _ = run(capsys, ["--json", "weak-class", str(tmp_path / "a-two.pair")])
    assert code == 0
    payload = json.loads(out)
    assert payload["class"]["blocks"] == [{"g": "x2", "n": 1, "mult": 1}, {"g": "x1", "n": 2, "mult": 1}]
    assert payload["witness"]["Q"] == [["0x0", "0x1"], ["0x1", "0x0"]]
    code, out, _ = run(capsys, ["--json", "corpus", str(tmp_path)])
    assert code == 0
    two_entry, one_entry = json.loads(out)["files"]
    assert two_entry["weak_class"] == payload["class"]
    assert "weak_class_error" not in two_entry
    assert "weak_class" not in one_entry
    assert "capped at GF(2^4)" in one_entry["weak_class_error"]
    code, _, err = run(capsys, ["weak-class", str(tmp_path / "b-one.pair")])
    assert code == 2
    assert err.startswith("error: ")


def test_weak_class_eps_only_at_k8(capsys, tmp_path):
    # a class of eps entries only is its own weak form, with the identity,
    # in any field; above GF(16) it used to exceed the PGL(2) scan's cap
    gf256 = FieldSpec.gf(8)
    rho = ClassFunction.from_dict(gf256, {(EPS, 1): 1, (EPS, 2): 1})
    path = tmp_path / "eps.pair"
    path.write_text(format_pair_document(assemble(rho)))
    blocks = [{"g": "eps", "n": 1, "mult": 1}, {"g": "eps", "n": 2, "mult": 1}]
    identity = [["0x1", "0x0"], ["0x0", "0x1"]]
    code, out, _ = run(capsys, ["--json", "weak-class", str(path)])
    assert code == 0
    assert json.loads(out) == {"class": {"blocks": blocks}, "witness": {"Q": identity}}
    code, out, _ = run(capsys, ["--json", "corpus", str(tmp_path)])
    assert code == 0
    (entry,) = json.loads(out)["files"]
    assert entry["weak_class"] == {"blocks": blocks}
    assert entry["witness"] == {"Q": identity}
    assert "weak_class_error" not in entry


def test_group_command(capsys, monkeypatch):
    code, out, _ = run(capsys, ["group"], stdin=INF1_DOC, monkeypatch=monkeypatch)
    assert code == 0
    assert "Comm(h1,h2)*a2^-1" in out
    assert "order: 16" in out


def test_group_command_quotient_exp(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["--json", "group", "--quotient-exp", "2"], stdin=INF1_DOC, monkeypatch=monkeypatch
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient"]["order"] == 2 ** (2 + 2 * 2)
    assert payload["presentation"]["relators"].count("h1^2") == 1
    code, out, _ = run(capsys, ["group", "--quotient-exp", "2"], stdin=INF1_DOC, monkeypatch=monkeypatch)
    assert (code, out.splitlines()[-1]) == (0, "finite model order: 64 (e = 2)")


def test_group_command_refuses_nonpositive_exponent(capsys, monkeypatch):
    for e in ("0", "-1"):
        code, out, err = run(
            capsys, ["group", "--quotient-exp", e], stdin=INF1_DOC, monkeypatch=monkeypatch
        )
        assert code == 2
        assert out == ""
        assert err == "error: quotient exponent must be positive\n"


def test_group_command_refuses_order_beyond_bound(capsys, tmp_path):
    # the order, or 2^e in the relators, had too many digits to print
    fifteen = "field gf2\ndim 2\n" + "matrix M\n0 1\n1 0\n" * 15
    for doc, e in ((INF1_DOC, "20000"), (fifteen, "1000")):
        path = tmp_path / "pair.txt"
        path.write_text(doc)
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, [*flags, "group", "--quotient-exp", e, str(path)])
            assert code == 2
            assert out == ""
            assert err.startswith("error: finite model order 2^") and err.count("\n") == 1


def test_gen_block_gf4(capsys):
    code, out, _ = run(capsys, ["gen-block", "fin:{2}*t^0+t^1^1", "--field", "gf2^2:0x7"])
    # the poly text {2}*t^0+t^1 means t + t_gen over GF(4)
    assert code == 0
    assert "field gf2^2:0x7" in out


def test_gen_block_bad_id_exit2(capsys):
    code, _, err = run(capsys, ["gen-block", "spam:1"])
    assert code == 2
    assert "error" in err


def test_parse_error_exit2(capsys, monkeypatch):
    code, _, err = run(capsys, ["decompose"], stdin="field gf2\nmatrix A\n", monkeypatch=monkeypatch)
    assert code == 2
    assert "error" in err


def test_corpus_deterministic(capsys, tmp_path):
    docs = {
        "one.pair": format_pair_document(build_infinity(1)),
        "two.pair": format_pair_document(build_finite(tp("t"), 1)),
        "bad.pair": "field gf2\ndim 1\nmatrix A\n1\nmatrix B\n0\n",
    }
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    code, out1, _ = run(capsys, ["--json", "corpus", str(tmp_path)])
    assert code == 0
    code, out2, _ = run(capsys, ["--json", "corpus", str(tmp_path)])
    assert out1 == out2
    payload = json.loads(out1)
    by_name = {entry["path"].rsplit("/", 1)[-1]: entry for entry in payload["files"]}
    assert by_name["bad.pair"]["ok"] is False
    assert by_name["one.pair"]["class"]["blocks"] == [{"g": "x2", "n": 1, "mult": 1}]
    assert [e["path"] for e in payload["files"]] == sorted(e["path"] for e in payload["files"])


def test_corpus_survives_unparsable_file(capsys, tmp_path):
    good = format_pair_document(build_infinity(1))
    docs = {
        "a-good.pair": good,
        "b-truncated.pair": good[: good.index("matrix B")],
        "c-nonalt.pair": "field gf2\ndim 1\nmatrix A\n1\nmatrix B\n0\n",
    }
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "d-binary.pair").write_bytes(b"field gf2\xff\n")
    (tmp_path / "sub.pair").mkdir()
    code, out, _ = run(capsys, ["--json", "corpus", str(tmp_path)])
    assert code == 0
    files = json.loads(out)["files"]
    names = [e["path"].rsplit("/", 1)[-1] for e in files]
    assert names == sorted(docs) + ["d-binary.pair", "sub.pair"]
    good_entry, truncated, nonalt, binary, subdir = files
    assert binary["ok"] is False
    assert set(subdir) == {"path", "ok", "message"}
    assert subdir["ok"] is False
    assert good_entry["ok"] is True
    assert "weak_class" in good_entry
    assert set(truncated) == {"path", "ok", "message"}
    assert truncated["ok"] is False
    assert "two matrices" in truncated["message"]
    assert nonalt == {
        "path": nonalt["path"], "ok": False, "message": "matrix A has nonzero diagonal at (0, 0)"
    }
    code, out, _ = run(capsys, ["corpus", str(tmp_path)])
    assert code == 0
    assert "b-truncated.pair: INVALID (line 5: document needs at least two matrices)" in out


def test_unreadable_inputs_exit2_without_traceback(capsys, tmp_path):
    binary = tmp_path / "f.pair"
    binary.write_bytes(b"field gf2\xff\n")
    for argv in (
        ["decompose", str(binary)],
        ["decompose", str(tmp_path)],
        ["corpus", str(binary)],
        ["gen-block", "plus:abc"],
        ["gen-block", "inf:x"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: "), argv
        assert "Traceback" not in err


# altpairs.cli in a process of its own, under -X dev -W error
CLI = [sys.executable, "-X", "dev", "-W", "error", "-m", "altpairs.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(altpairs.__file__)))


@pytest.mark.parametrize(
    "argv, code", [(["gen-block", "inf:2", "--field", "gf2^8"], 0), (["equiv", "a.pair", "b.pair"], 1)]
)
def test_output_closed_early_keeps_the_exit_code(tmp_path, argv, code):
    # the read end of the pipe is closed before the process starts, so its
    # first write fails with EPIPE however short the output is
    for name, block in (("a", build_infinity(1)), ("b", build_infinity(2))):
        (tmp_path / f"{name}.pair").write_text(format_pair_document(block))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [*CLI, *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, env=CLI_ENV, cwd=tmp_path, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_pipe_between_two_processes(tmp_path):
    # gen-block inf:2 | decompose, through an operating-system pipe
    with subprocess.Popen(
        [*CLI, "gen-block", "inf:2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=CLI_ENV, cwd=tmp_path,
    ) as writer:
        reader = subprocess.run(
            [*CLI, "decompose"],
            stdin=writer.stdout, capture_output=True, text=True, env=CLI_ENV, cwd=tmp_path, timeout=60,
        )
        writer_err = writer.communicate(timeout=60)[1]
    assert (writer.returncode, writer_err) == (0, "")
    assert (reader.returncode, reader.stdout, reader.stderr) == (0, "rho(x2, 2) = 1\n", "")


def test_internal_error_exit3_names_the_file(capsys, monkeypatch, tmp_path):
    def broken(pair):
        raise AssertionError("invariant factors do not pair up")

    monkeypatch.setattr("altpairs.cli.decompose", broken)
    for name in ("a.pair", "b.pair"):
        (tmp_path / name).write_text(INF1_DOC)
    doc = str(tmp_path / "b.pair")
    for argv, where in (
        (["decompose", doc], doc),
        (["--json", "corpus", str(tmp_path)], str(tmp_path / "a.pair")),
    ):
        code, out, err = run(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert err == f"internal error: {where}: invariant factors do not pair up\n"


def test_dropped_invariant_factor_exit3(capsys, monkeypatch, tmp_path):
    # beside an eps block (U != 0) the x2 divisors of the Wong split come
    # from the kernels of the powers of the nilpotent B_X^-1 A_X; kernels
    # that lose their last dimension stop short of dim X, which fails an
    # invariant instead of printing a wrong class; both documents have an x2
    # block and an eps block, one of them a finite block too (a regular
    # pencil, U = 0, reads its x2 divisors off the walk and never gets here)
    from altpairs import pencil

    nullities = pencil._nullities
    monkeypatch.setattr(pencil, "_nullities", lambda *args: (d := nullities(*args))[:-1] + [d[-1] - 1])
    fin = direct_sum([build_finite(tp("t^2+t+1"), 1), build_infinity(1), build_plus(1)])
    inf = direct_sum([build_infinity(1), build_plus(1)])
    docs = {"fin.pair": format_pair_document(fin), "inf.pair": format_pair_document(inf)}
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    for argv, where in [(["canonical", str(tmp_path / name)], tmp_path / name) for name in docs] + [
        (["--json", "corpus", str(tmp_path)], tmp_path / "fin.pair")
    ]:
        code, out, err = run(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert err == f"internal error: {where}: kernels of powers of x2 reach [1], not 2\n"
        assert "Traceback" not in err


# A = B = J + J, J = [[0,1],[1,0]]: M = I, so the first Krylov sequence closes
# at degree 1 < dim/2 and h is the square root of det(t*I + M)
SCALAR_DOCUMENT = "field gf2\ndim 4\nmatrix A\n0 1 0 0\n1 0 0 0\n0 0 0 1\n0 0 1 0\nmatrix B\n0 1 0 0\n1 0 0 0\n0 0 0 1\n0 0 1 0\n"


def test_pfaffian_with_an_odd_term_exit3(capsys, monkeypatch, tmp_path):
    # det(t*I + A^-1 B) with a term of odd degree is no square: the check
    # that replaces the pairing of invariant factors when A is invertible.
    # The first sequence's t + 1 with its constant flipped makes it t (t + 1)^3
    from altpairs import pencil

    monkeypatch.setattr(pencil, *krylov_mutants()["_krylov"])
    path = tmp_path / "scalar.pair"
    path.write_text(SCALAR_DOCUMENT)
    code, out, err = run(capsys, ["pfaffian", str(path)])
    assert (code, out) == (3, "")
    assert err == f"internal error: {path}: polynomial is not a square\n"


KRYLOV_CHECK = "h(M) or the first sequence's polynomial does not kill a Krylov start"


def test_pfaffian_shortcut_check_exit3(capsys, monkeypatch, tmp_path):
    # the first sequence closes at degree dim/2 and its polynomial is taken
    # for h; with its constant flipped, h(M) no longer kills the next start
    from altpairs import pencil

    monkeypatch.setattr(pencil, *krylov_mutants()["_krylov"])
    path = tmp_path / "fin.pair"
    path.write_text(format_pair_document(build_finite(tp("t^2+t+1"), 1)))
    for command in ("pfaffian", "decompose"):
        code, out, err = run(capsys, [command, str(path)])
        assert (code, out) == (3, "")
        assert err == f"internal error: {path}: {KRYLOV_CHECK}\n"


# (x1, 2) + (x1, 1) under a congruence: M is nilpotent with M^2 = 0, and the
# first Krylov sequence, from e_0 outside ker M, closes at t^2, below dim/2
NILPOTENT_DOCUMENT = (
    "field gf2\ndim 6\nmatrix A\n0 0 0 1 0 0\n0 0 1 0 0 0\n0 1 0 0 0 0\n1 0 0 0 0 0\n0 0 0 0 0 1\n0 0 0 0 1 0\n"
    "matrix B\n0 0 0 0 0 0\n0 0 0 0 1 1\n0 0 0 0 0 0\n0 0 0 0 1 1\n0 1 0 1 0 0\n0 1 0 1 0 0\n"
)


def test_pfaffian_fallback_check_exit3(capsys, monkeypatch, tmp_path):
    # h is the square root of det(t*I + M); with the first constant flipped,
    # t^2 becomes (t + 1)^2, det(t*I + M) stays a square and its root
    # t^2 (t + 1) still kills all of M, but t^2 + 1 no longer kills e_0
    from altpairs import pencil

    path = tmp_path / "nilpotent.pair"
    path.write_text(NILPOTENT_DOCUMENT)
    assert run(capsys, ["pfaffian", str(path)]) == (0, "x1^3\n", "")
    monkeypatch.setattr(pencil, *krylov_mutants()["_krylov"])
    for command in ("pfaffian", "decompose"):
        code, out, err = run(capsys, [command, str(path)])
        assert (code, out) == (3, "")
        assert err == f"internal error: {path}: {KRYLOV_CHECK}\n"


@pytest.mark.parametrize("name", ["_charpoly", "_nullities"])
def test_krylov_mutant_exit3(capsys, monkeypatch, tmp_path, name):
    # A invertible: a characteristic polynomial that lost a Krylov sequence,
    # or a kernel dimension off by one, fails an invariant instead of
    # printing a wrong class
    from altpairs import pencil

    monkeypatch.setattr(pencil, *krylov_mutants()[name])
    path = tmp_path / "fin2.pair"
    path.write_text(format_pair_document(build_finite(tp("t^2+t+1"), 2)))
    code, out, err = run(capsys, ["decompose", str(path)])
    assert (code, out) == (3, "")
    assert err.startswith(f"internal error: {path}: ")
    assert "Traceback" not in err


SUBCOMMANDS = (
    "validate", "pfaffian", "decompose", "canonical", "weak-class", "equiv", "group", "gen-block", "corpus"
)


def test_help_for_every_subcommand(capsys):
    for argv in ([], *([cmd] for cmd in SUBCOMMANDS)):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0, argv
        out = capsys.readouterr().out
        assert out.startswith("usage: altpairs"), argv
        if not argv:  # the top-level usage lists every subcommand
            listed = out.split("{", 1)[1].split("}", 1)[0]
            assert sorted(listed.split(",")) == sorted(SUBCOMMANDS)


def test_commands_return_their_output(capsys, tmp_path):
    # main alone prints: a command hands back (JSON payload, text, exit code)
    from altpairs import cli

    path = tmp_path / "inf1.pair"
    path.write_text(INF1_DOC)
    args = cli.build_parser().parse_args(["canonical", str(path)])
    payload, render, code = cli.cmd_canonical(args)
    text = render()
    assert capsys.readouterr().out == ""
    assert (payload["block_ids"], text, code) == (["inf:1"], "rho(x2, 1) = 1\ninf:1", 0)
    assert run(capsys, ["canonical", str(path)]) == (0, text + "\n", "")
    assert run(capsys, ["--json", "canonical", str(path)]) == (0, json.dumps(payload) + "\n", "")


def test_parser_built_once_per_process(capsys, monkeypatch, tmp_path):
    from altpairs import cli

    path = tmp_path / "inf1.pair"
    path.write_text(INF1_DOC)
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    calls = (["--json", "canonical", str(path)], ["pfaffian", str(path)], ["gen-block", "inf:1"])
    for argv in calls * 10:
        assert run(capsys, argv)[0] == 0
    # one top-level parser and one per subcommand, all from the first call
    assert progs.count("altpairs") == 1
    assert len(progs) == 1 + len(SUBCOMMANDS)


def test_command_patched_after_first_call_takes_effect(capsys, monkeypatch, tmp_path):
    from altpairs import cli

    path = tmp_path / "inf1.pair"
    path.write_text(INF1_DOC)
    assert run(capsys, ["decompose", str(path)]) == (0, "rho(x2, 1) = 1\n", "")
    monkeypatch.setattr(cli, "cmd_decompose", lambda args: ({"file": args.file}, lambda: "fake", 1))
    assert run(capsys, ["decompose", str(path)]) == (1, "fake\n", "")
    payload = json.dumps({"file": str(path)})
    assert run(capsys, ["--json", "decompose", str(path)]) == (1, payload + "\n", "")


def test_json_builds_no_text(capsys, monkeypatch, tmp_path):
    from altpairs import cli

    path = tmp_path / "fin.pair"
    path.write_text(format_pair_document(build_finite(tp("t^2+t+1"), 2)))
    commands = ("decompose", "canonical")
    before = {cmd: run(capsys, ["--json", cmd, str(path)]) for cmd in commands}

    def no_text(rho):
        raise AssertionError("text rendered")

    monkeypatch.setattr(cli, "_class_text", no_text)
    for cmd in commands:
        code, out, err = run(capsys, ["--json", cmd, str(path)])
        assert (code, out, err) == before[cmd], cmd
        assert code == 0 and json.loads(out)["blocks"]
        # the text path still renders, inside main's error handling
        assert run(capsys, [cmd, str(path)]) == (3, "", f"internal error: {path}: text rendered\n")


def test_cached_parser_repeats_errors_and_help(capsys):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "7", "decompose"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr())
    assert errors[0] == errors[1]
    assert errors[0].out == "" and "altpairs: error: " in errors[0].err
    for cmd in SUBCOMMANDS:
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0, cmd
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1], cmd
        assert helps[0].startswith(f"usage: altpairs {cmd}"), cmd
