"""Known-answer checks, run outside the timed region.

Each check returns how many of the op's inputs came back right; it never
raises, so one bad output counts as a failed op instead of ending the run.
"""

from __future__ import annotations

import json
import os
import random


def _payload(stdout: str, rc: int):
    if rc != 0:
        return None
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_classify(case, stdout: str, rc: int) -> int:
    """The blocks equal the known class and there is one block id per
    block counted with multiplicity."""
    data = _payload(stdout, rc)
    try:
        ok = data["blocks"] == case.blocks and len(data["block_ids"]) == sum(
            b["mult"] for b in case.blocks
        )
    except (KeyError, TypeError):
        return 0
    return int(ok)


def check_pfaffian(case, stdout: str, rc: int) -> int:
    data = _payload(stdout, rc)
    try:
        return int(data["pfaffian"] == case.pfaffian)
    except (KeyError, TypeError):
        return 0


def check_corpus(batch, stdout: str, rc: int) -> int:
    """Each file's class is the known one, weak-orbit partners share one
    weak_class, and non-alternating files come back ok: false."""
    data = _payload(stdout, rc)
    good = 0
    weak: dict = {}
    try:
        entries = {os.path.basename(e["path"]): e for e in data["files"]}
        if len(entries) != len(batch.files):
            return 0
        for f in batch.files:
            entry = entries.get(f.name + ".pair", {})
            if f.blocks is None:
                good += entry.get("ok") is False
            elif entry.get("ok") is True and entry["class"]["blocks"] == f.blocks:
                weak.setdefault(f.orbit, []).append(entry["weak_class"])
                good += 1
    except (AttributeError, KeyError, TypeError):
        return 0
    for classes in weak.values():
        if any(c != classes[0] for c in classes):
            return 0
    return good


def check_group(case, qmap, rc: int, sample: int = 64) -> int:
    """Orders match and the map respects products on a seeded sample of
    element pairs, multiplied with FiniteQuotient.mul."""
    if rc != 0:
        return 0
    try:
        src, dst = qmap.src, qmap.dst
        # e = 2 over a bottom of rank 2
        if src.order != dst.order or src.order != 1 << (case.num_h + 4):
            return 0
        rng = random.Random(case.name)
        mod = 1 << src.e

        def element():
            return (rng.randrange(1 << src.num_h), tuple(rng.randrange(mod) for _ in range(src.m)))

        for _ in range(sample):
            g, h = element(), element()
            if qmap.apply(src.mul(g, h)) != dst.mul(qmap.apply(g), qmap.apply(h)):
                return 0
    except (AttributeError, TypeError, ValueError):
        return 0
    return 1
