"""In-memory spans around the benchmark's own calls into each k3tk layer.

A span records (name, start, end, parent, op id, count).  Its layer is the
part of the name before the first dot.  Spans are kept in a list and written
out once, when the run ends.  The untraced run uses ``NULL``, whose spans do
nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op, count]
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, count: int = 1):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op, count]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def self_times(self) -> list[float]:
        """Duration of each span minus the part its child spans cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "count")
        return [dict(zip(keys, s)) for s in self.spans]


class _NullTracer:
    op = -1
    _null = nullcontext([None, 0.0, 0.0, -1, -1, 0])

    def span(self, name: str, count: int = 1):
        return self._null


NULL = _NullTracer()
