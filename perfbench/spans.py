"""Spans around calls into the program's layers, recorded from outside.

A :class:`SpanRecorder` wraps public functions and methods of the
program: each call records a span (name, start, end, parent span) in
memory, on the calling thread.  Nothing is written while the system
runs; :meth:`SpanRecorder.summary` turns the spans into per-name totals
once the round has ended.  A span's self time is its duration minus the
time its child spans cover (children of one span never overlap, because
a thread's spans nest like its calls).
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import Counter


class _ThreadSpans:
    __slots__ = ("name", "parent", "start", "end", "stack", "counts")

    def __init__(self) -> None:
        self.name = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()


class SpanRecorder:
    """Per-thread span store plus counters recorded at the same calls."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget every span and count (a forked worker starts here)."""
        with self._lock:
            self._threads: list[_ThreadSpans] = []
            self._local = threading.local()

    def _thread(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def count(self, name: str, n: float = 1) -> None:
        self._thread().counts[name] += n

    def wrap(self, name: str, fn):
        """``fn`` recording a span named ``name`` per call."""
        name_id = self._name_id(name)
        thread = self._thread
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = thread()
            index = len(spans.start)
            stack = spans.stack
            spans.name.append(name_id)
            spans.parent.append(stack[-1] if stack else -1)
            spans.end.append(0.0)
            stack.append(index)
            spans.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[index] = clock()
                stack.pop()
        return traced

    def summary(self) -> dict:
        """``{"spans": {name: [calls, seconds, self_seconds]},
        "counts": {name: total}}`` over every recorded span."""
        spans_out: dict[str, list] = {}
        counts: Counter = Counter()
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            counts.update(spans.counts)
            starts, ends, parents = spans.start, spans.end, spans.parent
            covered = [0.0] * len(starts)
            for i, parent in enumerate(parents):
                if parent >= 0:
                    covered[parent] += ends[i] - starts[i]
            for i, name_id in enumerate(spans.name):
                duration = ends[i] - starts[i]
                entry = spans_out.setdefault(self._names[name_id],
                                             [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - covered[i]
        return {"spans": spans_out, "counts": dict(counts)}

