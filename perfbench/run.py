"""Benchmark of the altpairs classifier.

Run from the repository root::

    python3 perfbench/run.py --workload classify --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

Workloads, each a closed loop with one client in one process (the next op
starts when the previous one returns):

* ``classify``: ``altpairs --json canonical FILE`` per file;
* ``pfaffian``: ``altpairs --json pfaffian FILE`` on the same kind of inputs;
* ``corpus``: ``altpairs --json corpus DIR`` per batch directory, with the
  CLI's default worker settings;
* ``group``: ``presentation_from_tuple`` on both tuples, then
  ``iso_from_witness(p, r, S, Q, e=2)``, called through the library.

A run generates its inputs from ``--seed`` with known answers, warms up,
then makes whole passes over its inputs until ``--seconds`` of wall time
have elapsed.  Outputs are checked against the known answers after the
timed loop.

Times are host-normalised CPU times.  Each op is timed in CPU seconds of the
whole process (every thread, user and system time), which leaves out the
time a shared host gives to other tenants; for this CPU-bound program it
equals wall time on an idle machine.  Tenants that load the same core still
make an op's CPU time up to 1.8 times as long, so the reference slice of
``ref.py`` runs between ops, and each op's CPU time is divided by that of
the slices around it and given in milliseconds of the reference host.  An
input's time is the median over its passes.  Set-up is timed the same way.

With ``--trace 1`` every op runs untraced, then with spans and then with
call counters, and the run reports per-layer metrics instead of end-to-end
ones.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import ref

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("classify", "pfaffian", "corpus", "group")
SETUP_CHILDREN = 3  # set-up is timed in this many fresh processes
SETUP_SLICES = 25  # reference slices that time the host before and after a set-up

# (generic, structured) inputs per (k, dim) of a classify or pfaffian pass.
# Op cost grows steeply with dim and k, so quantiles over an even mix fall on
# the jump between two size classes.  These weights put p50 in the middle of
# a band of ops of similar cost: the structured k = 2, dim-16 and k = 1,
# dim-24 ops for classify, the generic dim-16 ops for pfaffian; and p90 among
# the generic k >= 2, dim-32 ops on both.
PAIR_REPS = {
    (1, 8): (1, 2), (1, 16): (1, 1), (1, 24): (1, 2), (1, 32): (1, 2),
    (2, 8): (1, 2), (2, 16): (4, 4), (2, 24): (1, 1), (2, 32): (3, 1),
    (4, 8): (2, 1), (4, 16): (2, 2), (4, 24): (1, 1), (4, 32): (3, 1),
}

# Weak-orbit pairs (k, dim) per corpus batch.  Light batches stay at k <= 2;
# a heavy batch holds a GF(8) pair, whose canonical form scans all of
# GL(2, 8).  Three light to one heavy puts p50 among the light batches and
# p90 among the heavy ones.
CORPUS_LIGHT = ((1, 12), (2, 8), (1, 16), (2, 4))
CORPUS_HEAVY = ((1, 6), (3, 6))
CORPUS_PASS = (CORPUS_LIGHT, CORPUS_LIGHT, CORPUS_LIGHT, CORPUS_HEAVY) * 4

# Generator counts of the group ops of a pass; orders up to 2^12 (num_h <= 8
# at e = 2) take the exhaustive verification, larger ones the sampled one.
# Ops cost, from cheap to dear: 6, 16, 7, 24, 32, 8 generators.  The weights
# put p50 in the middle of the 16-generator ops and p90 in the middle of the
# 8-generator ops, whose cost varies by a quarter from input to input: with
# six of them p90 is near their median, not at one of a few extremes.
GROUP_PASS = (
    6, 16, 8, 6, 16, 7, 6, 16, 8, 6, 16, 24, 6, 16, 8,
    6, 16, 32, 6, 16, 8, 6, 16, 8, 6, 16, 8, 16, 16, 16,
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_sources() -> None:
    """Import altpairs from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "altpairs" / "__init__.py").is_file():
        fail(f"no altpairs sources under {src}")
    sys.path.insert(0, str(src))


# -- ops -----------------------------------------------------------------------------


@dataclass
class Op:
    name: str
    call: Callable[[], tuple[object, int]]  # the timed part: (output, exit code)
    check: Callable[[object, int], int]  # inputs of the op answered correctly
    items: int  # inputs in the op


@dataclass
class Workload:
    ops: list[Op]  # one pass
    warmup: list[Op]
    digest: str  # of every generated input, to check determinism


def run_cli(argv: list[str]) -> tuple[str, int]:
    from altpairs import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return out.getvalue(), rc


def run_group(case) -> tuple[object, int]:
    from altpairs import chernikov

    p = chernikov.presentation_from_tuple(case.p_mats, e=2)
    r = chernikov.presentation_from_tuple(case.r_mats, e=2)
    return chernikov.iso_from_witness(p, r, case.s, case.q, 2), 0


def _write(workdir: Path, rel: str, text: str, digest) -> Path:
    path = workdir / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    digest.update(rel.encode() + b"\0" + text.encode() + b"\0")
    return path


def build_pairs(workload: str, seed: int, workdir: Path) -> Workload:
    import gen
    import known

    command, check = {
        "classify": ("canonical", known.check_classify),
        "pfaffian": ("pfaffian", known.check_pfaffian),
    }[workload]
    digest = hashlib.sha256()
    ops = []
    for case in gen.Generator(f"{workload}/{seed}").pair_cases("p", PAIR_REPS):
        path = _write(workdir, case.name + ".pair", case.text, digest)
        ops.append(Op(case.name, partial(run_cli, ["--json", command, str(path)]), partial(check, case), 1))
    # dims 8 and 16 at each k fill every lazily built field table,
    # including those of the Pfaffian's extension fields
    warmup = [op for op in ops if "d08-generic-0" in op.name or "d16-generic-0" in op.name]
    return Workload(ops, warmup, digest.hexdigest())


def build_corpus(workload: str, seed: int, workdir: Path) -> Workload:
    import gen
    import known

    digest = hashlib.sha256()
    ops = []
    batches = gen.Generator(f"{workload}/{seed}").corpus_batches(CORPUS_PASS)
    for batch in batches:
        for f in batch.files:
            _write(workdir, f"{batch.name}/{f.name}.pair", f.text, digest)
        argv = ["--json", "corpus", str(workdir / batch.name)]
        ops.append(Op(batch.name, partial(run_cli, argv), partial(known.check_corpus, batch), len(batch.files)))
    return Workload(ops, [ops[0], ops[3]], digest.hexdigest())


def build_group(workload: str, seed: int, workdir: Path) -> Workload:
    import gen
    import known

    digest = hashlib.sha256()
    ops = []
    for case in gen.Generator(f"{workload}/{seed}").group_cases(GROUP_PASS):
        for m in case.p_mats + case.r_mats + [case.s, case.q.to_mat()]:
            digest.update(str(m).encode() + b"\0")
        ops.append(Op(case.name, partial(run_group, case), partial(known.check_group, case), 1))
    return Workload(ops, [ops[0]], digest.hexdigest())


BUILDERS = {
    "classify": build_pairs,
    "pfaffian": build_pairs,
    "corpus": build_corpus,
    "group": build_group,
}


def set_up(workload: str, seed: int, workdir: Path) -> tuple[Workload, float]:
    """Import, input generation and warm-up; returns the CPU seconds the
    process has used so far, interpreter start-up included."""
    import altpairs.cli  # noqa: F401  (the import is part of set-up)

    work = BUILDERS[workload](workload, seed, workdir)
    for op in work.warmup:
        attempt(op)
    return work, time.process_time()


def child_set_up(workload: str, seed: int) -> tuple[float, str]:
    """Set-up in a fresh interpreter, so lazily built tables count again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    return data["setup_s"], data["digest"]


# -- timed loop ------------------------------------------------------------------------


@dataclass
class Result:
    op: Op
    seconds: float  # wall time
    cpu: float  # CPU seconds of the process, every thread
    output: object
    rc: int | None  # None: the op raised
    slice_s: float = 0.0  # CPU seconds of the reference slice around the op

    @property
    def ms(self) -> float:
        """The op's CPU time in ms of the reference host."""
        return ref.scale(self.cpu, self.slice_s)


def attempt(op: Op) -> Result:
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        output, rc = op.call()
    except Exception:  # an op that raises is a failed op, not a failed run
        output, rc = traceback.format_exc(), None
    return Result(op, time.perf_counter() - started, time.process_time() - cpu_started, output, rc)


def run_passes(ops: list[Op], seconds: float, run_one, least: int) -> int:
    """Whole passes over ops until seconds of wall time have elapsed, and at
    least `least`; returns the number of passes."""
    deadline = time.perf_counter() + seconds
    passes = 0
    while time.perf_counter() < deadline or passes < least:
        for op in ops:
            run_one(op)
        passes += 1
    return passes


def run_timed(ops: list[Op], seconds: float) -> tuple[list[Result], int]:
    """run_passes with the reference slice before and after every op."""
    results: list[Result] = []
    before = ref.slice_cpu()

    def run_one(op):
        nonlocal before
        res = attempt(op)
        after = ref.slice_cpu()
        res.slice_s = (before + after) / 2
        before = after
        results.append(res)

    return results, run_passes(ops, seconds, run_one, 2)


def grade(results: list[Result]) -> list[int]:
    """Correct inputs per op; prints the first failures to stderr."""
    goods, shown = [], 0
    for res in results:
        good = 0 if res.rc is None else res.op.check(res.output, res.rc)
        if good != res.op.items and shown < 3:
            shown += 1
            detail = res.output if res.rc is None else f"exit {res.rc}"
            print(f"perfbench: {res.op.name} failed its check: {detail}", file=sys.stderr)
        goods.append(good)
    return goods


def failures(results: list[Result], goods: list[int]) -> int:
    return sum(good != res.op.items for good, res in zip(goods, results))


def percentile_90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


# -- tracing ---------------------------------------------------------------------------

# (target, how, name): spans or counters at the names each layer is called
# through.  "module:attr" patches a module global, "module:Class.attr" a
# class attribute.  Counted names are called up to millions of times per op,
# so they are counted in a run of their own that is not timed.
TRACE_TARGETS = (
    ("altpairs.cli:main", "span", "cli.main"),
    ("altpairs.cli:parse_pair_document", "span", "cli.parse"),
    ("altpairs.cli:validate", "span", "pencil.validate"),
    ("altpairs.cli:decompose", "span", "pencil.decompose"),
    ("altpairs.cli:pfaffian_form", "span", "pencil.pfaffian"),
    ("altpairs.cli:canonical_rep", "span", "weakeq.canonical"),
    ("altpairs.pencil:validate", "span", "pencil.validate"),
    ("altpairs.pencil:smith_form", "span", "linalg.smith"),
    ("altpairs.pencil:factor", "span", "polyring.factor"),
    ("altpairs.pencil:lagrange_interpolate", "span", "polyring.interp"),
    ("altpairs.linalg:Mat.det", "span", "linalg.det"),
    ("altpairs.linalg:Mat.rank", "span", "linalg.rank"),
    ("altpairs.field:FieldSpec.mul", "calls", "field.mul_calls"),
    ("altpairs.weakeq:gl2_enumerate", "yields", "weakeq.gl2_scanned"),
    ("altpairs.weakeq:moebius_act", "calls", "weakeq.moebius_calls"),
    ("altpairs.chernikov:presentation_from_tuple", "span", "chernikov.presentation"),
    ("altpairs.chernikov:iso_from_witness", "span", "chernikov.iso"),
    ("altpairs.chernikov:verify_quotient_map", "span", "chernikov.verify"),
    ("altpairs.chernikov:FiniteQuotient.mul", "calls", "chernikov.mul_calls"),
    ("altpairs.chernikov:QuotientMap.apply", "calls", "chernikov.apply_calls"),
)


def _smith_label(pm, *args, **kwargs) -> str:
    return f"linalg.smith.k{pm.spec.k}"


def _verify_label(qmap, *args, **kwargs) -> str:
    from altpairs import chernikov

    cap = getattr(chernikov, "MAX_BRUTE_ORDER", 1 << 12)
    return "chernikov.verify.exhaustive" if qmap.src.order <= cap else "chernikov.verify.sampled"


def _factor_degree(g, *args, **kwargs) -> int:
    return g.degree


SPAN_OPTIONS = {
    "linalg.smith": {"label": _smith_label},
    "chernikov.verify": {"label": _verify_label},
    "polyring.factor": {"measure": ("polyring.factor_degree", _factor_degree)},
}


def install(rec, spans: bool) -> None:
    """Wrap the span targets (spans=True) or the counted ones."""
    for target, how, name in TRACE_TARGETS:
        if spans and how == "span":
            rec.wrap(target, name, **SPAN_OPTIONS.get(name, {}))
        elif not spans and how == "calls":
            rec.count_calls(target, name)
        elif not spans and how == "yields":
            rec.count_yields(target, name)


def per_layer(rec, ops: int, traced_s: float, untraced_s: float) -> dict:
    """Self times in ms per op and counts per op, as BENCHMARK.json lists them."""
    calls, self_s, counts = rec.summary()

    def ms(*names):
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names) / ops

    def per_op(*names):
        return sum(calls.get(n, 0) for n in names) / ops

    smith = [f"linalg.smith.k{k}" for k in (1, 2, 3, 4)]
    smith_per_call = {
        k: 1000.0 * self_s[f"linalg.smith.k{k}"] / calls[f"linalg.smith.k{k}"]
        if calls.get(f"linalg.smith.k{k}") else 0.0
        for k in (1, 2, 4)
    }
    m = {
        "linalg.smith_ms": (ms(*smith), "ms"),
        "linalg.smith_calls": (per_op(*smith), "count"),
        "linalg.smith_ms.k1": (smith_per_call[1], "ms"),
        "linalg.smith_ms.k2": (smith_per_call[2], "ms"),
        "linalg.smith_ms.k4": (smith_per_call[4], "ms"),
        "field.smith_k4_over_k1": (
            smith_per_call[4] / smith_per_call[1] if smith_per_call[1] else 0.0, "ratio"
        ),
        "field.mul_calls": (counts.get("field.mul_calls", 0) / ops, "count"),
        "linalg.rank_ms": (ms("linalg.rank"), "ms"),
        "linalg.rank_calls": (per_op("linalg.rank"), "count"),
        "polyring.factor_ms": (ms("polyring.factor"), "ms"),
        "polyring.factor_calls": (per_op("polyring.factor"), "count"),
        "polyring.factor_degree": (counts.get("polyring.factor_degree", 0) / ops, "count"),
        "linalg.det_ms": (ms("linalg.det"), "ms"),
        "linalg.det_calls": (per_op("linalg.det"), "count"),
        "polyring.interp_ms": (ms("polyring.interp"), "ms"),
        "pencil.pfaffian_self_ms": (ms("pencil.pfaffian"), "ms"),
        "pencil.validate_ms": (ms("pencil.validate"), "ms"),
        "pencil.decompose_self_ms": (ms("pencil.decompose"), "ms"),
        "weakeq.canonical_ms": (ms("weakeq.canonical"), "ms"),
        "weakeq.gl2_scanned": (counts.get("weakeq.gl2_scanned", 0) / ops, "count"),
        "weakeq.moebius_calls": (counts.get("weakeq.moebius_calls", 0) / ops, "count"),
        "cli.parse_ms": (ms("cli.parse"), "ms"),
        "cli.self_ms": (ms("cli.main"), "ms"),
        "chernikov.verify_ms.exhaustive": (ms("chernikov.verify.exhaustive"), "ms"),
        "chernikov.verify_ms.sampled": (ms("chernikov.verify.sampled"), "ms"),
        "chernikov.mul_calls": (counts.get("chernikov.mul_calls", 0) / ops, "count"),
        "chernikov.apply_calls": (counts.get("chernikov.apply_calls", 0) / ops, "count"),
        "chernikov.iso_self_ms": (ms("chernikov.iso"), "ms"),
        "chernikov.presentation_ms": (ms("chernikov.presentation"), "ms"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


# -- environment -----------------------------------------------------------------------


def environment(seed: int) -> dict:
    # the ceiling keeps git from looking for a repository above the checkout
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": src_lines,
    }


# -- one workload ------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        work, _ = set_up(workload, seed, workdir)
        if trace:
            return traced_run(workload, seed, seconds, work)
        results, passes = run_timed(work.ops, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    goods = grade(results)
    failed = failures(results, goods)
    setups = []
    same_inputs = True
    for _ in range(SETUP_CHILDREN):
        child_s, child_digest = child_set_up(workload, seed)
        setups.append(child_s)
        same_inputs &= child_digest == work.digest
    if not same_inputs:
        print("perfbench: the same seed generated different inputs", file=sys.stderr)
    # results[i] is a run of work.ops[i % len(work.ops)]
    size = len(work.ops)
    op_ms = [statistics.median(r.ms for r in results[i::size]) for i in range(size)]
    # inputs answered correctly per second of op time
    correct = sum(goods) / passes
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "pairs_per_s": (1000.0 * correct / sum(op_ms), size),
        "latency_p50_ms": (statistics.median(op_ms), size),
        "latency_p90_ms": (percentile_90(op_ms), size),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    for name, (value, n) in values.items():
        print(f"{workload} {name} = {value:.6g} {END_TO_END_UNITS[name]} (n={n})")
    print(f"{workload} failed_frac = {failed / len(results):.6g} ratio (n={len(results)})")
    # raw wall-clock figures over every op run, for reference only: a
    # shared host moves them by up to 80%
    wall_ms = [1000.0 * r.seconds for r in results]
    slice_ms = statistics.median(1000.0 * r.slice_s for r in results)
    print(f"{workload} passes = {passes}; reference slice median {slice_ms:.4g} ms")
    print(f"{workload} raw wall pairs_per_s = {1000.0 * sum(goods) / sum(wall_ms):.6g} 1/s (n={len(results)})")
    print(f"{workload} raw wall latency_p50_ms = {statistics.median(wall_ms):.6g} ms (n={len(wall_ms)})")
    print(f"{workload} raw wall latency_p90_ms = {percentile_90(wall_ms):.6g} ms (n={len(wall_ms)})")
    return {
        "correct": failed == 0 and same_inputs,
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, (value, _) in values.items()
        },
    }


def traced_run(workload: str, seed: int, seconds: float, work: Workload) -> dict:
    """Each op untraced, then with spans, then with counters; the trace is
    written to .perfbench/."""
    from spans import SpanRecorder

    rec = SpanRecorder()
    results: list[Result] = []
    totals = [0.0, 0.0]

    def run_traced(op):
        plain = attempt(op)
        runs = [plain]
        for spans in (True, False):
            install(rec, spans)
            try:
                runs.append(attempt(op))
            finally:
                rec.restore()
        totals[0] += plain.cpu
        totals[1] += runs[1].cpu
        results.extend(runs)

    run_passes(work.ops, seconds, run_traced, 1)
    failed = failures(results, grade(results))
    ops = len(results) // 3
    metrics = per_layer(rec, ops, totals[1], totals[0])
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']} (n={ops})")
    out = WORK / f"trace-{workload}-seed{seed}.json"
    out.write_text(
        json.dumps(
            {
                "environment": environment(seed),
                "missing": rec.missing,
                "fields": ["id", "thread", "name", "start", "end", "parent"],
                "spans": rec.spans(),
                "per_layer": metrics,
            }
        ),
        encoding="utf-8",
    )
    print(f"{workload} trace: {len(rec.spans())} spans in {out.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in a fresh process of its own, then a summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            fail(f"workload {workload} exited with code {proc.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    use_checkout_sources()
    if args.setup_only:
        # the host is timed before and after set-up; the slices before it
        # are taken off the set-up's CPU time
        slices = [ref.slice_cpu() for _ in range(SETUP_SLICES)]
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"setup-{args.workload}-", dir=WORK))
        try:
            work, setup_cpu = set_up(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setup_cpu -= sum(slices)
        slices += [ref.slice_cpu() for _ in range(SETUP_SLICES)]
        setup_s = ref.scale(setup_cpu, statistics.median(slices)) / 1000.0
        print(json.dumps({"setup_s": setup_s, "digest": work.digest}))
        return
    print("env " + json.dumps(environment(args.seed)))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
