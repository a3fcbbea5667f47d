"""Instrumentation layer: metrics registry + phase spans + run traces.

Three pieces, wired through every layer of the reproduction:

- a process-wide :class:`~repro.obs.registry.MetricsRegistry` of
  counters, gauges and fixed-bucket latency histograms
  (:func:`registry`);
- nestable :func:`span` phase timers that roll up into the registry
  (histogram ``span.<name>`` in microseconds) and, when a trace is
  active, emit one JSON-lines event per completed span
  (:mod:`repro.obs.trace`);
- a **no-op fast path**: the module-level :data:`ENABLED` flag is
  checked once per call site, so disabled instrumentation costs one
  attribute load + branch on the hot query paths (gated below 2% on
  the Dijkstra point-query microbench by ``scripts/obs_overhead.py``).

Call-site contract
------------------
Hot paths (per-query code) guard every obs interaction::

    from repro import obs
    ...
    if obs.ENABLED:
        obs.registry().counter("ch.query.settled").inc(n)

Phase-level code (preprocessing, batch serving) may call :func:`span`
unconditionally — when disabled it returns a shared no-op context
manager and costs one function call per *phase*, which is noise::

    with obs.span("tnr.table"):
        table = many_to_many(ch, nodes, nodes)

Environment knobs:

- ``REPRO_OBS=1`` — enable instrumentation at import (default off);
- ``REPRO_TRACE=<path>`` — enable instrumentation *and* stream span
  events to ``<path>`` as JSON lines (implies ``REPRO_OBS=1``).

This package is stdlib-only: the core modules import it without
pulling in numpy/scipy or the rest of the package.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_snapshot,
    to_prometheus,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    SpanNode,
    TraceWriter,
    read_trace,
    render_tree,
    rollup,
    trace_metrics,
    tree_summary,
)

__all__ = [
    "Counter",
    "ENABLED",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanNode",
    "TRACE_SCHEMA",
    "TraceWriter",
    "detach_trace",
    "enabled",
    "read_trace",
    "registry",
    "render_snapshot",
    "render_tree",
    "reset",
    "rollup",
    "set_enabled",
    "span",
    "start_trace",
    "stop_trace",
    "to_prometheus",
    "trace_metrics",
    "tree_summary",
    "unique_trace_path",
]


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in ("", "0", "off", "false")


#: THE flag. Hot call sites read ``obs.ENABLED`` (module attribute, so
#: toggles via :func:`set_enabled` are seen immediately); everything
#: else in this module also honours it.
ENABLED: bool = _env_truthy("REPRO_OBS") or bool(os.environ.get("REPRO_TRACE"))

_registry = MetricsRegistry()
# A pool worker forked while another thread is registering an instrument
# would inherit the creation lock held, with nobody left to release it.
os.register_at_fork(after_in_child=_registry.reinit_lock)
_trace: TraceWriter | None = None



class _SpanStack(threading.local):
    """Active span names of the *calling thread*.

    Per thread, not per process: the service's repair thread opens
    ``serve.repair`` / ``labels.*`` / ``ch.*`` spans while the serving
    thread opens its own, and a shared stack would splice one thread's
    names into the other's ``span.path``. Worker processes carry their
    own stacks as before.
    """

    def __init__(self) -> None:
        self.names: list[str] = []


_spans = _SpanStack()


def enabled() -> bool:
    return ENABLED


def set_enabled(flag: bool) -> None:
    """Flip instrumentation on/off for the whole process."""
    global ENABLED
    ENABLED = bool(flag)


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def reset() -> None:
    """Clear every instrument and drop the calling thread's span nesting
    (tests)."""
    _registry.reset()
    _spans.names.clear()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _Span:
    """A live phase timer; use via :func:`span`, not directly."""

    __slots__ = ("name", "path", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        stack = _spans.names
        stack.append(name)
        self.path = "/".join(stack)
        self._start = time.perf_counter()

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        dur_us = (time.perf_counter() - self._start) * 1e6
        stack = _spans.names
        if stack and stack[-1] == self.name:
            stack.pop()
        _registry.histogram(f"span.{self.name}").observe(dur_us)
        if _trace is not None:
            _trace.event(
                {
                    "t": "span",
                    "name": self.name,
                    "path": self.path,
                    "depth": self.path.count("/"),
                    "dur_us": round(dur_us, 1),
                }
            )


class _NoopSpan:
    """Shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NOOP = _NoopSpan()


def span(name: str):
    """A nestable phase timer: ``with obs.span("ch.contract"): ...``.

    When instrumentation is disabled this returns a shared no-op
    context manager — cheap enough for phase-level call sites to use
    unconditionally. Hot per-query paths should gate on
    ``obs.ENABLED`` instead and skip the call entirely.
    """
    if not ENABLED:
        return _NOOP
    return _Span(name)


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def start_trace(path: str | os.PathLike) -> TraceWriter:
    """Open a run trace at ``path`` and enable instrumentation.

    One trace per process; starting a new one closes the old (with its
    final metrics snapshot).
    """
    global _trace
    if _trace is not None:
        _trace.close(_registry.snapshot())
    _trace = TraceWriter(path)
    set_enabled(True)
    return _trace


def stop_trace() -> str | None:
    """Close the active trace (embedding the final registry snapshot).

    Returns the trace path, or ``None`` when no trace was active.
    Instrumentation stays enabled — only the file stream stops.
    """
    global _trace
    if _trace is None:
        return None
    path = _trace.path
    _trace.close(_registry.snapshot())
    _trace = None
    return path


def trace_path() -> str | None:
    """Path of the active trace file, if any."""
    return _trace.path if _trace is not None else None


def detach_trace() -> None:
    """Drop the trace writer *without* closing its file.

    For forked children that inherit an open trace: the file handle
    (and its path) belong to the parent, so the child must neither
    write a metrics tail into it nor close it — it just forgets the
    writer, then typically opens its own file at
    :func:`unique_trace_path`. No-op when no trace is active.
    """
    global _trace
    _trace = None


#: Monotonic per-process counter appended to default trace names.
_trace_seq = 0


def unique_trace_path(base: str | os.PathLike) -> str:
    """A collision-free variant of a trace path: pid + counter.

    ``run.jsonl`` becomes ``run-<pid>-<k>.jsonl`` with ``k`` counting
    up per process, so pool workers and concurrent runs that derive
    their trace names from one configured base never clobber each
    other's files.
    """
    global _trace_seq
    root, ext = os.path.splitext(os.fspath(base))
    path = f"{root}-{os.getpid()}-{_trace_seq}{ext or '.jsonl'}"
    _trace_seq += 1
    return path


# REPRO_TRACE autostart. The first process to import under a given
# REPRO_TRACE claims the configured path and records its pid; any
# *other* process importing with the same environment (spawned build
# workers, subprocess tests) sees a foreign claim and writes to a
# pid-unique variant instead of clobbering the claimant's file.
# Long-lived serving workers are forked after import and re-route
# explicitly via detach_trace()/unique_trace_path() (repro.serve.pool).
_env_trace = os.environ.get("REPRO_TRACE", "").strip()
if _env_trace:  # pragma: no cover - exercised via subprocess tests
    _claim = os.environ.get("REPRO_TRACE_PID", "")
    if _claim and _claim != str(os.getpid()):
        _env_trace = unique_trace_path(_env_trace)
    else:
        os.environ["REPRO_TRACE_PID"] = str(os.getpid())
    start_trace(_env_trace)
