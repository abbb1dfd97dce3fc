"""Span recorder for the traced benchmark run.

The recorder wraps public names at the call sites the program uses them
through (a module global such as ``altpairs.pencil.smith_form`` or a class
attribute such as ``Mat.det``), records one span per call, and restores the
originals afterwards; nothing under ``src/`` is modified.  ``altpairs
corpus`` classifies files in a thread pool, so spans and counts are kept per
thread, and a span that a worker thread opens with nothing open in that
thread gets the span open in the installing thread as its parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list = []  # open frames: (name, start, span id, parent id)
        self.counts: Counter | None = None


class SpanRecorder:
    """Collects spans (thread, name, start, end, parent) and counters."""

    def __init__(self):
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._spans: dict[int, tuple] = {}
        self._counts: list[Counter] = []
        self._patches: list[tuple[object, str, object]] = []
        self._root_stack = self._local.stack
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        local = self._local
        if local.counts is None:
            local.counts = Counter()
            with self._lock:
                self._counts.append(local.counts)
        local.counts[name] += amount

    def enter(self, name: str) -> None:
        stack = self._local.stack
        if stack:
            parent = stack[-1][2]
        else:
            root = self._root_stack
            parent = root[-1][2] if root and stack is not root else -1
        stack.append((name, time.perf_counter(), next(self._ids), parent))

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, span_id, parent = self._local.stack.pop()
        self._spans[span_id] = (threading.get_ident(), name, start, end, parent)

    # -- wrapping ----------------------------------------------------------------

    def _patch(self, target: str, make) -> None:
        """target is "module:attr" or "module:Class.attr"."""
        module_name, path = target.split(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            # The name was moved or deleted: it records zero calls.
            self.missing.append(target)
            return
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = functools.wraps(func)(make(func))
        setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
        self._patches.append((owner, attr, raw))

    def wrap(self, target: str, name: str, label=None, measure=None) -> None:
        """Record a span per call.  ``label(*args)`` may refine the span name;
        ``measure = (counter, amount)`` adds ``amount(*args)`` to a counter."""
        rec = self

        def make(func):
            def wrapper(*args, **kwargs):
                if measure is not None:
                    rec.count(measure[0], measure[1](*args, **kwargs))
                rec.enter(label(*args, **kwargs) if label is not None else name)
                try:
                    return func(*args, **kwargs)
                finally:
                    rec.exit()

            return wrapper

        self._patch(target, make)

    def count_calls(self, target: str, name: str) -> None:
        """Count calls without a span, for names called millions of times."""
        rec = self

        def make(func):
            def wrapper(*args, **kwargs):
                rec.count(name)
                return func(*args, **kwargs)

            return wrapper

        self._patch(target, make)

    def count_yields(self, target: str, name: str) -> None:
        """Count the items a generator function yields."""
        rec = self

        def make(func):
            def wrapper(*args, **kwargs):
                for item in func(*args, **kwargs):
                    rec.count(name)
                    yield item

            return wrapper

        self._patch(target, make)

    def restore(self) -> None:
        """Put back every original, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------------

    def spans(self) -> list[tuple]:
        """Closed spans as (id, thread, name, start, end, parent id)."""
        return [(i, *span) for i, span in sorted(self._spans.items())]

    def summary(self) -> tuple[dict, dict, dict]:
        """Per span name: calls and self seconds; plus the merged counters.

        Self time is a span's duration minus the part of its interval that
        its children cover; children in pool threads overlap each other, so
        their intervals are merged before they are subtracted.
        """
        children: defaultdict = defaultdict(list)
        for _, _, start, end, parent in self._spans.values():
            if parent >= 0:
                children[parent].append((start, end))
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for span_id, (_, name, start, end, _) in self._spans.items():
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            calls[name] += 1
            self_s[name] += (end - start) - covered
        counts: Counter = Counter()
        with self._lock:
            for thread_counts in self._counts:
                counts.update(thread_counts)
        return dict(calls), dict(self_s), dict(counts)
