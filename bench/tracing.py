"""In-memory spans for the traced benchmark run.

A span records name, start, end, parent span and op id.  Spans stay in a
list until the run ends; nothing is written while ops are timed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, op, parent, 0.0)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec.start = time.perf_counter()
        try:
            yield
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def to_json(self) -> list[dict]:
        own = self.self_times()
        return [
            {
                "id": i,
                "name": s.name,
                "op": s.op,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self_s": own[i],
                "failed": s.failed,
            }
            for i, s in enumerate(self.spans)
        ]
