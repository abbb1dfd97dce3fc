"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

run.use_checkout_sources()

import gen  # noqa: E402
from spans import SpanRecorder  # noqa: E402

# Layers predicted idle per workload: each metric must read exactly 0 on the
# listed workloads.  The CLI row differs from the first draft of this table,
# which called the CLI layer present everywhere: group calls the library
# directly and never enters the CLI.
PREDICTED_IDLE = {
    "linalg.smith_calls": ("pfaffian", "group"),
    "field.mul_calls": ("group",),
    "linalg.rank_calls": ("pfaffian", "group"),
    "polyring.factor_calls": ("pfaffian", "group"),
    "linalg.det_calls": ("classify", "corpus", "group"),
    "polyring.interp_ms": ("classify", "corpus", "group"),
    "pencil.pfaffian_self_ms": ("classify", "corpus", "group"),
    "pencil.validate_ms": ("group",),
    "pencil.decompose_self_ms": ("group",),
    "weakeq.canonical_ms": ("classify", "pfaffian", "group"),
    "weakeq.gl2_scanned": ("classify", "pfaffian", "group"),
    "weakeq.moebius_calls": ("classify", "pfaffian", "group"),
    "cli.parse_ms": ("group",),
    "cli.self_ms": ("group",),
    "chernikov.verify_ms.exhaustive": ("classify", "pfaffian", "corpus"),
    "chernikov.verify_ms.sampled": ("classify", "pfaffian", "corpus"),
    "chernikov.mul_calls": ("classify", "pfaffian", "corpus"),
    "chernikov.apply_calls": ("classify", "pfaffian", "corpus"),
    "chernikov.iso_self_ms": ("classify", "pfaffian", "corpus"),
    "chernikov.presentation_ms": ("classify", "pfaffian", "corpus"),
}


@pytest.fixture
def workdir():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _inputs(seed):
    g = gen.Generator(seed)
    reps = {(k, d): (1, 1) if d <= 16 else (0, 0) for k in (1, 2, 4) for d in (8, 16, 24, 32)}
    pairs = [c.text for c in g.pair_cases("c", reps)]
    corpus = [f.text for b in g.corpus_batches([((1, 4), (2, 6))]) for f in b.files]
    group = [str(m) for c in g.group_cases((6, 16)) for m in c.p_mats + c.r_mats + [c.s]]
    return pairs, corpus, group


def test_generator_is_deterministic():
    assert _inputs("x/1") == _inputs("x/1")
    assert _inputs("x/1") != _inputs("x/2")


def test_workload_digest_is_deterministic(workdir):
    first = run.build_group("group", 7, workdir).digest
    assert run.build_group("group", 7, workdir).digest == first
    assert run.build_group("group", 8, workdir).digest != first


def _corrupt(text: str) -> str:
    """Flip one hex digit inside the output's first block or Pfaffian."""
    for i, ch in enumerate(text):
        if ch in "0123456789" and i > text.find(":"):
            return text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]
    raise AssertionError("nothing to corrupt")


@pytest.mark.parametrize("workload", ["classify", "pfaffian"])
def test_checker_flags_corrupted_pair_output(workload, workdir):
    work = run.build_pairs(workload, 3, workdir)
    op = next(o for o in work.ops if "k2-d08-generic" in o.name)
    out, rc = op.call()
    assert op.check(out, rc) == 1
    assert op.check(_corrupt(out), rc) == 0
    assert op.check(out, 2) == 0
    assert op.check("not json", rc) == 0


def test_checker_flags_corrupted_corpus_output(workdir):
    work = run.build_corpus("corpus", 3, workdir)
    op = work.ops[0]
    out, rc = op.call()
    assert op.check(out, rc) == op.items
    data = json.loads(out)
    bad = next(e for e in data["files"] if not e["ok"])
    bad["ok"] = True
    assert op.check(json.dumps(data), rc) < op.items
    data = json.loads(out)
    partner = next(e for e in data["files"] if e["path"].endswith("b-k1.pair"))
    partner["weak_class"] = {"blocks": []}
    assert op.check(json.dumps(data), rc) == 0


def test_checker_flags_wrong_group_map(workdir):
    work = run.build_group("group", 3, workdir)
    op = work.ops[0]
    qmap, rc = op.call()
    assert op.check(qmap, rc) == 1
    other, _ = work.ops[2].call()  # a different pair with another generator count
    assert op.check(other, rc) == 0


def _resolve(target):
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def test_trace_restores_every_wrapped_name():
    before = {}
    for target, _, _ in run.TRACE_TARGETS:
        owner, attr = _resolve(target)
        before[target] = vars(owner)[attr]
    rec = SpanRecorder()
    run.install(rec, spans=True)
    run.install(rec, spans=False)
    assert not rec.missing
    for target, _, _ in run.TRACE_TARGETS:
        owner, attr = _resolve(target)
        assert vars(owner)[attr] is not before[target], target
    rec.restore()
    for target, _, _ in run.TRACE_TARGETS:
        owner, attr = _resolve(target)
        assert vars(owner)[attr] is before[target], target


def test_missing_name_records_zero_calls():
    rec = SpanRecorder()
    rec.wrap("altpairs.pencil:no_such_kernel", "gone")
    rec.count_calls("altpairs.linalg:Mat.no_such_method", "gone_calls")
    rec.wrap("altpairs.no_such_module:f", "gone_module")
    assert len(rec.missing) == 3
    rec.restore()
    assert rec.summary() == ({}, {}, {})


def test_self_time_subtracts_children():
    rec = SpanRecorder()
    rec.enter("outer")
    rec.enter("inner")
    rec.exit()
    rec.exit()
    calls, self_s, _ = rec.summary()
    (_, _, _, o_start, o_end, _), (_, _, _, i_start, i_end, parent) = rec.spans()
    assert calls == {"outer": 1, "inner": 1}
    assert parent == 0
    assert self_s["outer"] == pytest.approx((o_end - o_start) - (i_end - i_start))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_predicted_idle_layers_record_nothing(workload, workdir):
    work, _ = run.set_up(workload, 5, workdir)
    result = run.traced_run(workload, 5, 0, work)
    assert result["correct"]
    busy = {
        name: result["metrics"][name]["value"]
        for name, idle_on in PREDICTED_IDLE.items()
        if workload in idle_on and result["metrics"][name]["value"] != 0
    }
    assert not busy


def test_refuses_to_run_without_sources(workdir):
    shutil.copytree(run.ROOT / "perfbench", workdir / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
