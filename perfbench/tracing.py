"""Spans recorded by the benchmark's own wrappers around calls into each layer.

A span is (name, start_ns, end_ns, parent, op): parent is the index of the
enclosing span or -1, and op numbers the root span, so every span of one
operation shares it. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("words", "counting", "ranking", "unranking", "arches", "cli")


class NullTracer:
    """Untraced runs: a direct call with no bookkeeping."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._ops = 0

    def call(self, name, fn, *args):
        stack = self._stack
        if stack:
            parent = stack[-1]
            op = self.spans[parent][4]
        else:
            parent = -1
            op = self._ops
            self._ops += 1
        index = len(self.spans)
        self.spans.append((name, 0, 0, parent, op))
        stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans[index] = (name, start, end, parent, op)

    def durations(self, name) -> list[int]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def median_s(self, name) -> float:
        durations = self.durations(name)
        return statistics.median(durations) / 1e9 if durations else 0.0

    def self_shares(self) -> dict[str, float]:
        """Each layer's self time as a percentage of all root spans' time.

        A span's self time is its duration minus the time of its direct
        children; calls never overlap because there is one caller.
        """
        own = [s[2] - s[1] for s in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        total = sum(s[2] - s[1] for s in self.spans if s[3] < 0)
        by_layer: dict[str, int] = defaultdict(int)
        for span, t in zip(self.spans, own):
            by_layer[span[0].split(".", 1)[0]] += t
        return {layer: 100.0 * by_layer[layer] / total if total else 0.0 for layer in LAYERS}

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
