"""Spans recorded around the benchmark's own calls into the program's layers.

A span has a name, start and end (perf_counter seconds), the id of the span
that caused it, and the id of the program (trace) it belongs to. Spans stay
in memory and are written out once, when the run ends. The program itself
is not instrumented: every layer is timed from outside.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = {"id": next(self._ids), "name": name,
               "parent": parent["id"] if parent else None, "attrs": attrs}
        rec["trace"] = parent["trace"] if parent else rec["id"]
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(rec)

    def durations(self, name: str) -> list[float]:
        """Per-operation seconds of every span called `name`; a span with an
        `n` attribute covers n operations."""
        return [(s["end"] - s["start"]) / s["attrs"].get("n", 1)
                for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return statistics.median(values)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class NullTracer:
    """Stand-in for untraced runs: records nothing."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._NULL
