"""Bench-side spans: recorded in memory, written when the run ends.

Spans are taken from the benchmark's own files, around its calls into
each layer of the program. A span is ``[name, start_s, end_s, parent,
request]``: ``parent`` is the index of the span that was open when it
started (-1 at the root) and ``request`` ties the spans of one served
request together (None elsewhere).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """A span stack; a disabled tracer costs one attribute test per span."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][END] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, request: int | None = None) -> None:
        """Record a span whose interval was timed elsewhere (a request)."""
        if self.enabled:
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, start, end, parent, request])

    def seconds(self) -> dict[str, float]:
        """Per span name: total duration of the spans closed so far."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span[END] is not None:
                out[span[NAME]] = out.get(span[NAME], 0.0) + span[END] - span[START]
        return out

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
        out: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered, edge = 0.0, span[START]
            for start, end in sorted(children.get(index, ())):
                start, end = max(start, edge), min(end, span[END])
                if end > start:
                    covered += end - start
                    edge = end
            own = span[END] - span[START] - covered
            out[span[NAME]] = out.get(span[NAME], 0.0) + own
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {**header,
                 "columns": ["name", "start_s", "end_s", "parent", "request"],
                 "self_seconds": self.self_seconds(),
                 "spans": self.spans},
                fh,
            )
