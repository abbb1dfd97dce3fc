"""Golden CLI outputs: exit code, stdout and stderr of the commands on fixed
inputs, compared byte for byte with ``cli_golden.json``.

The inputs are stored in the data file with the outputs: ``gen-block``
blocks and scrambled direct sums of dimension 8-24 at k in {1, 2, 4}, plus a
few non-alternating documents and a weak image of one sum for ``equiv``.
``corpus`` also runs on an empty directory, and ``gen-block`` on ids it
refuses.  ``decompose`` runs on documents that fail to parse, and blocks and
sums whose points have degree 1 come at k = 8 and 9, on both sides of the
field's table limit.

Last come the route inputs, one per classifier route at k = 8 and 9: h from
the first Krylov sequence (``fin:t+1^2``, and ``fin:t^2+t+1^2`` at k = 9,
where t^2+t+1 stays irreducible; ``gen-block`` refuses it at k = 8); the
square-root fallback (A = B = J+J, J = [[0,1],[1,0]], and the dim-10 sum
2*(x1, 2) + (x1, 1), whose eight Krylov sequences are multiplied); with A
singular, the Wong test (plus:1 + plus:0, Pf 0), the Wong split
(inf:1 + fin:t+1^1) and the longest Wong walk (``inf:8``); and the
equal-degree split of h = (t+1)(t+2)(t+3) at k = 8, 9 and 16.  Two refusals
follow: ``group`` on a gf2^8 document and the entry 200 at gf2^9.  These
replace a hand-written list of CLI checks that ran only in CI.

A change that means to alter CLI output
regenerates the file with ``PYTHONPATH=src python tests/test_cli_golden.py``
and says so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

from altpairs.cli import main

DATA = Path(__file__).with_name("cli_golden.json")
COMMANDS = ("decompose", "canonical", "pfaffian", "weak-class", "validate")
LONG = 2000  # longer outputs are kept as a digest


def _kept(text: str) -> str:
    if len(text) <= LONG:
        return text
    return f"sha256:{hashlib.sha256(text.encode()).hexdigest()} ({len(text)} chars)"


def _run(argv: list[str], stdin: str | None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _outputs(data: dict, workdir: Path) -> list[list]:
    """[code, stdout, stderr] of every case, with long outputs kept as a
    digest; the corpus files are written to ``workdir/batch``, next to an
    empty directory ``workdir/empty``, and ``workdir`` is the working
    directory."""
    batch = workdir / "batch"
    batch.mkdir()
    (workdir / "empty").mkdir()
    for name in data["corpus"]:
        (batch / f"{name}.pair").write_text(data["inputs"][name], encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = []
        for case in data["cases"]:
            code, stdout, stderr = _run(case["argv"], data["inputs"].get(case["input"]))
            out.append([code, _kept(stdout), _kept(stderr)])
        return out
    finally:
        os.chdir(cwd)


def test_cli_outputs_match_golden(tmp_path):
    data = json.loads(DATA.read_text(encoding="utf-8"))
    for case, result in zip(data["cases"], _outputs(data, tmp_path)):
        assert result == case["expected"], (case["argv"], case["input"])


# -- regeneration -------------------------------------------------------------------


def _generate() -> dict:
    from conftest import (
        random_class_function,
        random_invertible,
        small_irreducibles,
        transform_congruence,
    )
    from altpairs.blocks import BlockId
    from altpairs.cli import format_pair_document
    from altpairs.field import FieldSpec
    from altpairs.pencil import assemble

    rng = random.Random(20261018)
    inputs: dict[str, str] = {}
    cases: list[dict] = []
    for k in (1, 2, 4):
        spec = FieldSpec.gf(k)
        field = str(spec)
        irr = small_irreducibles(spec, 2)
        finite = [str(BlockId.finite(irr[0], 2)), str(BlockId.finite(irr[-1], 1))]
        for i, bid in enumerate(["inf:2", "inf:3", "plus:1", "plus:2", *finite]):
            argv = ["gen-block", bid, "--field", field]
            cases.append({"argv": argv, "input": None})
            cases.append({"argv": ["--json", *argv], "input": None})
            inputs[f"k{k}-block-{i}"] = _run(argv, None)[1]
        count = 0
        while count < 16:
            rho = random_class_function(spec, rng, 24, max_deg=2 if k == 4 else 3)
            pair = assemble(rho)
            if not 8 <= pair.dim <= 24:
                continue
            pair = transform_congruence(pair, random_invertible(spec, rng, pair.dim))
            inputs[f"k{k}-sum-{count}"] = format_pair_document(pair)
            count += 1
        text = inputs[f"k{k}-sum-0"].splitlines(keepends=True)
        row = text.index("matrix A\n") + 1
        entries = text[row].split()
        entries[0] = "1"
        inputs[f"k{k}-bad-diagonal"] = "".join(text[:row] + [" ".join(entries) + "\n"] + text[row + 1 :])
    for name in inputs:
        for command in COMMANDS:
            cases.append({"argv": [command], "input": name})
            cases.append({"argv": ["--json", command], "input": name})
        if name.startswith("k1-"):
            cases.append({"argv": ["group", "--quotient-exp", "2"], "input": name})
            cases.append({"argv": ["--json", "group", "--quotient-exp", "2"], "input": name})
    corpus = [name for name in inputs if name.endswith(("-1", "-2", "-3", "-bad-diagonal"))]
    cases.append({"argv": ["corpus", "batch"], "input": None})
    cases.append({"argv": ["--json", "corpus", "batch"], "input": None})
    # appended later, so the cases above keep their inputs and order
    from altpairs.cli import parse_pair_document
    from altpairs.weakeq import GL2Element, transform_weak

    spec = FieldSpec.gf(2)
    pair = parse_pair_document(inputs["k2-sum-1"]).first_two()
    s = random_invertible(spec, random.Random(15), pair.dim)
    inputs["k2-sum-1-weak-image"] = format_pair_document(
        transform_weak(pair, s, GL2Element(1, 2, 2, 1, spec))
    )
    for argv, stdin in (
        (["equiv", "-", "batch/k2-sum-1.pair"], "k2-sum-1-weak-image"),
        (["equiv", "batch/k1-sum-1.pair", "batch/k1-sum-2.pair"], None),
        (["equiv", "batch/k1-bad-diagonal.pair", "batch/k1-sum-1.pair"], None),
        (["corpus", "empty"], None),
        (["gen-block", "inf:0"], None),
        (["gen-block", "bogus"], None),
    ):
        cases.append({"argv": argv, "input": stdin})
        cases.append({"argv": ["--json", *argv], "input": stdin})
    # appended later still: documents that fail to parse, each naming its line
    head = "field gf2^2\ndim 2\n"
    a, b = "matrix A\n0 1\n1 0\n", "matrix B\n0 0\n0 0\n"
    for name, doc in (
        ("short-matrix", head + "matrix A\n0 1\n" + b),
        ("no-field", "dim 2\n" + a + b),
        ("no-dim", "field gf2^2\n" + a + b),
        ("one-matrix", head + a),
        ("underscore-entry", head + a + "matrix B\n0 1_0\n0 0\n"),
        ("signed-entry", head + "matrix A\n0 -1\n1 0\n" + b),
        ("entry-at-order", head + a + "matrix B\n0 4\n4 0\n"),
        ("field-after-matrix", "dim 2\nmatrix A\nfield gf2^2\n0 1\n1 0\n" + b),
        ("reducible-modulus", "field gf2^4:0x15\ndim 2\n" + a + b),
    ):
        inputs[f"parse-{name}"] = doc
        cases.append({"argv": ["decompose"], "input": f"parse-{name}"})
        cases.append({"argv": ["--json", "decompose"], "input": f"parse-{name}"})
    # fields on both sides of the table limit: k = 8 reads built tables,
    # k = 9 computes each product; finite points have degree 1
    rng = random.Random(20261019)
    for k in (8, 9):
        spec = FieldSpec.gf(k)
        field = str(spec)
        irr = small_irreducibles(spec, 1)
        finite = [str(BlockId.finite(irr[0], 2)), str(BlockId.finite(irr[-1], 1))]
        names = []
        for i, bid in enumerate(["inf:2", "plus:1", *finite]):
            argv = ["gen-block", bid, "--field", field]
            cases.append({"argv": argv, "input": None})
            cases.append({"argv": ["--json", *argv], "input": None})
            names.append(f"k{k}-block-{i}")
            inputs[names[-1]] = _run(argv, None)[1]
        for i in range(3):
            pair = assemble(random_class_function(spec, rng, 12, max_deg=1))
            pair = transform_congruence(pair, random_invertible(spec, rng, pair.dim))
            names.append(f"k{k}-sum-{i}")
            inputs[names[-1]] = format_pair_document(pair)
        for name in names:
            for command in COMMANDS:
                cases.append({"argv": [command], "input": name})
                cases.append({"argv": ["--json", command], "input": name})
    # appended last: one input per classifier route at k = 8 and 9 (and the
    # equal-degree split at k = 16), from gen-block or written out as upper
    # entries {(i, j): value} of A and B; then two refusals
    routes = []
    for k in (8, 9):
        field = str(FieldSpec.gf(k))
        for bid in ("fin:t+1^2", "inf:8", "fin:t^2+t+1^2"):
            argv = ["gen-block", bid, "--field", field]
            cases.append({"argv": argv, "input": None})
            cases.append({"argv": ["--json", *argv], "input": None})
            code, doc, _ = _run(argv, None)
            if code == 0:  # t^2+t+1 splits at k = 8, and gen-block refuses it
                routes.append((f"k{k}-route-{bid}", doc))
        for name, dim, a, b in (
            ("sqrt-jj", 4, {(0, 1): 1, (2, 3): 1}, {(0, 1): 1, (2, 3): 1}),
            ("sqrt-nil10", 10, {(0, 1): 1, (2, 4): 1, (3, 5): 1, (6, 8): 1, (7, 9): 1}, {(3, 4): 1, (7, 8): 1}),
            ("wong-singular", 4, {(0, 1): 1}, {(0, 2): 1}),
            ("wong-split", 4, {(2, 3): 1}, {(0, 1): 1, (2, 3): 1}),
        ):
            routes.append((f"k{k}-route-{name}", _upper_doc(field, dim, a, b)))
    for k in (8, 9, 16):
        a, b = {(0, 1): 1, (2, 3): 1, (4, 5): 1}, {(0, 1): 1, (2, 3): 2, (4, 5): 3}
        routes.append((f"k{k}-route-equal-degree", _upper_doc(f"gf2^{k}", 6, a, b)))
    for name, doc in routes:
        inputs[name] = doc
        for command in COMMANDS:
            cases.append({"argv": [command], "input": name})
            cases.append({"argv": ["--json", command], "input": name})
    inputs["k8-group-refused"] = _run(["gen-block", "inf:1", "--field", "gf2^8"], None)[1]
    inputs["parse-entry-at-order-k9"] = _upper_doc("gf2^9", 2, {(0, 1): 0x200}, {})
    for argv, name in ((["group"], "k8-group-refused"), (["decompose"], "parse-entry-at-order-k9")):
        cases.append({"argv": argv, "input": name})
        cases.append({"argv": ["--json", *argv], "input": name})
    return {"inputs": inputs, "corpus": corpus, "cases": cases}


def _upper_doc(field: str, dim: int, a: dict, b: dict) -> str:
    """A pair document whose matrices have the given upper entries, mirrored."""

    def rows(upper: dict) -> str:
        full = {**upper, **{(j, i): v for (i, j), v in upper.items()}}
        return "".join(" ".join(f"{full.get((i, j), 0):x}" for j in range(dim)) + "\n" for i in range(dim))

    return f"field {field}\ndim {dim}\nmatrix A\n{rows(a)}matrix B\n{rows(b)}"


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    data = _generate()
    with tempfile.TemporaryDirectory() as tmp:
        for case, result in zip(data["cases"], _outputs(data, Path(tmp))):
            case["expected"] = result
    DATA.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"{DATA}: {len(data['inputs'])} inputs, {len(data['cases'])} cases")
