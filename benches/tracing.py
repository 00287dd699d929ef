"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``(name, start, end, parent, op)``: ``name`` is ``<layer>.<call>``
where the layer is a module of ``preqscore``, ``parent`` is the index of the
enclosing span (or -1) and ``op`` identifies the operation the span belongs
to.  Spans are kept in a list and written out once, when the run ends, so
recording costs one ``perf_counter`` pair and one append per span.

Counts are kept at the same boundaries, by name.

Untraced runs use :data:`NO_TRACE`, whose ``span`` returns a shared no-op
context manager, so end-to-end timings carry no tracing code.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    op = None

    def span(self, name: str):
        return _NULL

    def count(self, name: str, k: int) -> None:
        pass


NO_TRACE = NullTracer()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.counts: dict[str, int] = defaultdict(int)

    def count(self, name: str, k: int) -> None:
        self.counts[name] += k

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, spans=None) -> dict[str, float]:
        """Seconds per layer, each span's duration minus its children's."""
        spans = self.spans if spans is None else spans
        index = {id(s): i for i, s in enumerate(self.spans)}
        child = defaultdict(float)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s[0].split(".", 1)[0]] += (s[2] - s[1]) - child[index[id(s)]]
        return dict(out)

    def write(self, path) -> None:
        rows = [{"name": n, "start": a, "end": b, "parent": p, "op": o} for n, a, b, p, o in self.spans]
        with open(path, "w") as f:
            json.dump(rows, f)
