"""Spans around calls into latscat's layers, recorded from the benchmark side.

A span is (name, start, end, parent): the name is ``<layer>.<stage>``, the
times come from ``time.perf_counter`` and the parent is the index of the
enclosing span, or None.  Spans stay in memory and are written out once,
when the run ends.  With tracing off the tracer only counts calls, so an
untraced pass pays one attribute increment per call.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# Spans whose names end like this time a reference computation that is not
# part of the workload (a bare eigh on the same matrix); they are excluded
# from layer totals and from the traced pass's wall time.
REFERENCE_SUFFIX = "_ref"


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.calls = 0
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        """Run fn(*args) as one operation of layer ``name``."""
        self.calls += 1
        if not self.enabled:
            return fn(*args)
        with self.span(name):
            return fn(*args)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def add_span(self, name: str, start: float, end: float, parent: int | None) -> int | None:
        """Record a span timed elsewhere (e.g. by a child process); returns its index."""
        if not self.enabled:
            return None
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def reference_time(self) -> float:
        return sum(e - s for name, s, e, _ in self.spans if name.endswith(REFERENCE_SUFFIX))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span run one after another, so their durations add.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, covered)]


def span_metrics(spans) -> dict:
    """Self time and call count per span name, and self time per layer.

    Returns ``{"<name>_s": seconds, "<name>_calls": count, "<layer>.self_s": seconds}``.
    Reference spans keep their own ``_s`` entry but add to no layer.
    """
    out: dict = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        out[name + "_s"] += own
        out[name + "_calls"] += 1
        if not name.endswith(REFERENCE_SUFFIX):
            out[name.split(".", 1)[0] + ".self_s"] += own
    return dict(out)
