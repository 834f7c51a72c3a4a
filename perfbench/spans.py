"""Span recorder for the traced run.

A span is (name, start, end, parent index) around one call the benchmark
makes into a layer.  Spans stay in memory and are written out when the run
ends.  Untraced runs never build a Tracer: the workloads call lambekit's
functions directly, so they pay nothing for tracing.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._open = -1

    def wrap(self, name: str, fn, count=None):
        """fn wrapped so each call records a span named ``name``; ``count``,
        if given, is called as count(self.counts, result, args) afterwards."""
        spans = self.spans

        def traced(*args, **kwargs):
            parent = self._open
            index = len(spans)
            span = [name, perf_counter(), 0.0, parent]
            spans.append(span)
            self._open = index
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open = parent
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced

    def self_ms(self) -> dict:
        """Per span name: total duration minus the time its children cover."""
        covered: dict = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - covered[index]
        return {name: 1000.0 * value for name, value in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)
