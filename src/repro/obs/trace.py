"""JSON-lines trace files: one run, one file, schema-versioned.

A trace is an append-only sequence of JSON objects, one per line:

- ``{"t": "header", "schema": 1, ...}`` — always the first line;
  readers reject files whose schema they do not understand.
- ``{"t": "span", "path": "tnr.build/tnr.table", "name": "tnr.table",
  "start_us": ..., "dur_us": ..., "depth": 1}`` — one per completed
  span, emitted at span *exit* (so a crashed run keeps every span that
  finished). ``path`` joins the enclosing span names with ``/`` —
  the rollup tree is rebuilt from paths alone.
- ``{"t": "metrics", "snapshot": {...}}`` — the final registry
  snapshot, written when the trace is closed cleanly.

The format is deliberately dumb: greppable, diffable, tolerant of
truncation (a torn last line is skipped, everything before it parses).
``repro-harness trace <run.jsonl>`` renders the per-phase rollup with
self/total times; :func:`rollup` and :func:`render_tree` are the
library form of the same computation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, TextIO

#: Trace file schema; readers reject anything else.
TRACE_SCHEMA = 1


class TraceWriter:
    """Appends schema-versioned JSON-lines events to one run file."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._fh: TextIO | None = open(self.path, "w", encoding="utf-8")
        # Spans close on more than one thread (the service's repair
        # thread next to the serving thread); one line per event must
        # stay one line.
        self._lock = threading.Lock()
        self.event(
            {
                "t": "header",
                "schema": TRACE_SCHEMA,
                "pid": os.getpid(),
                "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            }
        )

    @property
    def closed(self) -> bool:
        return self._fh is None

    def event(self, record: dict) -> None:
        """Write one event (ignored after close); flushed per line so a
        crash loses at most the line being written."""
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line)
            self._fh.flush()

    def close(self, snapshot: dict | None = None) -> None:
        if self._fh is None:
            return
        if snapshot is not None:
            self.event({"t": "metrics", "snapshot": snapshot})
        with self._lock:
            self._fh.close()
            self._fh = None


def read_trace(path: str | os.PathLike) -> list[dict]:
    """Parse a trace file; raises ``ValueError`` on a bad header.

    A truncated (torn) trailing line is skipped silently — every event
    before it is returned.
    """
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if i == 0:
                    raise ValueError(f"{path}: not a trace file (bad header line)")
                continue  # torn tail from a crashed writer
            if i == 0:
                if not isinstance(record, dict) or record.get("t") != "header":
                    raise ValueError(f"{path}: not a trace file (no header)")
                schema = record.get("schema")
                if schema != TRACE_SCHEMA:
                    raise ValueError(
                        f"{path}: unsupported trace schema {schema!r} "
                        f"(this reader understands {TRACE_SCHEMA})"
                    )
            if isinstance(record, dict):
                events.append(record)
    if not events:
        raise ValueError(f"{path}: empty trace file")
    return events


def trace_metrics(events: Iterable[dict]) -> dict | None:
    """The final registry snapshot embedded in the trace, if any."""
    snapshot = None
    for record in events:
        if record.get("t") == "metrics":
            snapshot = record.get("snapshot")
    return snapshot


@dataclass
class SpanNode:
    """One node of the rollup tree (aggregated over same-path spans)."""

    name: str
    path: str
    count: int = 0
    total_us: float = 0.0
    children: dict[str, "SpanNode"] = field(default_factory=dict)

    @property
    def child_us(self) -> float:
        return sum(c.total_us for c in self.children.values())

    @property
    def self_us(self) -> float:
        """Time inside this span not covered by child spans.

        Clamped at zero: aggregation over repeated spans can make the
        children's sum marginally exceed the parent's on timer jitter.
        """
        return max(0.0, self.total_us - self.child_us)


def rollup(events: Iterable[dict]) -> SpanNode:
    """Aggregate span events into a tree keyed by span path.

    Spans with the same path merge (count goes up, durations add) —
    a build with 40 ``ch.contract`` rounds shows one node with
    ``count=40``, not 40 siblings.
    """
    root = SpanNode(name="(run)", path="")
    for record in events:
        if record.get("t") != "span":
            continue
        path = record.get("path") or record.get("name", "?")
        node = root
        walked = []
        for part in path.split("/"):
            walked.append(part)
            child = node.children.get(part)
            if child is None:
                child = node.children[part] = SpanNode(
                    name=part, path="/".join(walked)
                )
            node = child
        node.count += 1
        node.total_us += float(record.get("dur_us", 0.0))
    root.count = 1
    root.total_us = root.child_us
    return root


def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.2f}s"
    if us >= 1e3:
        return f"{us / 1e3:.1f}ms"
    return f"{us:.0f}us"


def render_tree(root: SpanNode) -> str:
    """ASCII rollup tree with total/self times, largest subtree first."""
    lines = [f"{'span':<44} {'count':>6} {'total':>9} {'self':>9}"]
    lines.append("-" * len(lines[0]))

    def walk(node: SpanNode, depth: int) -> None:
        label = ("  " * depth + node.name)[:44]
        lines.append(
            f"{label:<44} {node.count:>6} "
            f"{_fmt_us(node.total_us):>9} {_fmt_us(node.self_us):>9}"
        )
        for child in sorted(
            node.children.values(), key=lambda c: -c.total_us
        ):
            walk(child, depth + 1)

    if not root.children:
        return "(no spans in trace)"
    for child in sorted(root.children.values(), key=lambda c: -c.total_us):
        walk(child, 0)
    return "\n".join(lines)


def tree_summary(root: SpanNode) -> dict:
    """JSON-able rollup (the form attached to ``BENCH_kernels.json``)."""

    def walk(node: SpanNode) -> dict:
        out: dict[str, Any] = {
            "count": node.count,
            "total_ms": round(node.total_us / 1e3, 3),
            "self_ms": round(node.self_us / 1e3, 3),
        }
        if node.children:
            out["children"] = {
                name: walk(child) for name, child in sorted(node.children.items())
            }
        return out

    return {name: walk(child) for name, child in sorted(root.children.items())}
