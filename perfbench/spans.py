"""Span recorder used by the benchmark around its calls into ucp_lab.

A span is one call: its name, start and end (``time.perf_counter`` seconds),
the index of the enclosing span (-1 for none), the item id (None during
set-up) and whether the call raised.  Spans stay in memory; ``dump`` writes
them once, when the run ends.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    """Tracing off: calls go straight through."""

    item = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Tracing on: every ``call`` appends one span."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, item, failed]
        self.item = None
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, time.perf_counter(), None,
                self._open[-1] if self._open else -1, self.item, False]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except Exception:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item, failed in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (name, start, end, *_), c in zip(self.spans, child)]

    def stats(self, phase):
        """{name: (calls, self seconds, failed calls)} over the spans of one
        phase: ``"item"`` for spans inside items, ``"setup"`` for the rest."""
        out = defaultdict(lambda: [0, 0.0, 0])
        for span, self_s in zip(self.spans, self.self_times()):
            if (span[4] is None) != (phase == "setup"):
                continue
            entry = out[span[0]]
            entry[0] += 1
            entry[1] += self_s
            entry[2] += int(span[5])
        return {name: tuple(v) for name, v in out.items()}

    def dump(self, path, meta, origin):
        """Write the spans as JSON, times relative to ``origin``."""
        rows = [[name, start - origin, end - origin, parent, item, failed]
                for name, start, end, parent, item, failed in self.spans]
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "columns": ["name", "start_s", "end_s", "parent", "item",
                                   "failed"],
                       "spans": rows}, fh)
            fh.write("\n")
