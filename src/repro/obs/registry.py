"""The process-wide metrics registry: counters, gauges, histograms.

The paper is an *experimental evaluation*: its claims are tables of
preprocessing times, index sizes and query times. Reproducing those
numbers is only half the job — explaining them needs the algorithmic
counters underneath (vertices settled, locality-filter hits, fold-regime
tallies), which is what this registry collects. Design constraints:

- **no samples stored** — latency histograms use fixed log-spaced
  buckets, so p50/p90/p99 are derivable by interpolation at O(buckets)
  memory regardless of how many observations land;
- **cheap when idle** — a counter increment is one dict-free attribute
  add; instruments are created once and cached by name;
- **JSON-able** — :meth:`MetricsRegistry.snapshot` emits a
  schema-versioned dict that the trace writer embeds verbatim and the
  ``repro-harness stats`` CLI renders;
- **mirrorable** — every instrument carries an optional *mirror* slot (a
  writable buffer handed out by :class:`repro.obs.shm.PlaneMirror`) so a
  forked worker can publish absolute values into shared memory on every
  write, letting the parent aggregate worker registries without any pipe
  traffic. Snapshots carry sparse bucket lists so two registries merge
  exactly (:meth:`MetricsRegistry.merge_snapshot`).

Everything here is stdlib-only so the hot core modules can import it
without dragging in numpy/scipy (or the rest of the package).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from typing import Iterator

#: Version of the snapshot dict layout (bump on incompatible change).
#: Schema 2 adds sparse ``"buckets"`` lists to histogram dicts, which is
#: what makes snapshots mergeable across processes.
METRICS_SCHEMA = 2

#: Histogram bucket boundaries: eight per decade from 1e-2 to 1e8 —
#: a 1.33x ratio, so interpolated quantiles carry at most ~15% relative
#: error, plenty for latency distributions spanning microseconds to
#: minutes. Values are unit-agnostic; span timers record microseconds.
_DECADES = range(-2, 8)
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** (d + i / 8.0) for d in _DECADES for i in range(8)
) + (10.0 ** _DECADES.stop,)


class Counter:
    """A monotonically increasing integer.

    ``mirror``, when set, is a one-element writable int64 buffer (a
    shared-memory slice) that receives the absolute value on every
    increment — O(1), no serialization.
    """

    __slots__ = ("value", "mirror")

    def __init__(self) -> None:
        self.value = 0
        self.mirror = None

    def inc(self, n: int = 1) -> None:
        self.value += n
        m = self.mirror
        if m is not None:
            m[0] = self.value


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value", "mirror")

    def __init__(self) -> None:
        self.value = 0.0
        self.mirror = None

    def set(self, value: float) -> None:
        self.value = float(value)
        m = self.mirror
        if m is not None:
            m[0] = self.value


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``observe(v, n)`` folds ``n`` observations of value ``v`` in O(1);
    quantiles interpolate linearly inside the containing bucket, clamped
    by the exact min/max, so single-observation histograms report the
    exact value and heavy-tailed ones stay within the bucket ratio.
    """

    __slots__ = ("counts", "count", "total", "vmin", "vmax",
                 "mirror_counts", "mirror_stats")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        # Mirror buffers: counts row is len(self.counts) bucket words plus
        # one trailing total-count word (int64); stats is (sum, min, max)
        # as float64. Handed out by a PlaneMirror, None otherwise.
        self.mirror_counts = None
        self.mirror_stats = None

    def observe(self, value: float, n: int = 1) -> None:
        i = bisect_right(BUCKET_BOUNDS, value)
        self.counts[i] += n
        self.count += n
        self.total += value * n
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        mc = self.mirror_counts
        if mc is not None:
            mc[i] = self.counts[i]
            mc[len(self.counts)] = self.count
            ms = self.mirror_stats
            ms[0] = self.total
            ms[1] = self.vmin
            ms[2] = self.vmax

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (exact: bucket-wise add)."""
        counts = self.counts
        for i, c in enumerate(other.counts):
            if c:
                counts[i] += c
        self.count += other.count
        self.total += other.total
        if other.vmin < self.vmin:
            self.vmin = other.vmin
        if other.vmax > self.vmax:
            self.vmax = other.vmax
        mc = self.mirror_counts
        if mc is not None:
            for i, c in enumerate(counts):
                mc[i] = c
            mc[len(counts)] = self.count
            ms = self.mirror_stats
            ms[0] = self.total
            ms[1] = self.vmin
            ms[2] = self.vmax

    @classmethod
    def from_dict(cls, d: dict) -> "Histogram":
        """Rebuild a histogram from an :meth:`as_dict` snapshot.

        Needs the sparse ``"buckets"`` list (schema >= 2); raises
        :class:`ValueError` for non-empty schema-1 dicts, which recorded
        only derived quantiles and cannot be merged exactly.
        """
        h = cls()
        count = int(d.get("count") or 0)
        if count == 0:
            return h
        buckets = d.get("buckets")
        if buckets is None:
            raise ValueError(
                "histogram snapshot lacks bucket data (schema < "
                f"{METRICS_SCHEMA}); cannot merge"
            )
        for i, c in buckets:
            h.counts[int(i)] = int(c)
        h.count = count
        h.total = float(d.get("sum") or 0.0)
        vmin = d.get("min")
        vmax = d.get("max")
        h.vmin = math.inf if vmin is None else float(vmin)
        h.vmax = -math.inf if vmax is None else float(vmax)
        return h

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Interpolated quantile in [0, 1]; NaN when empty."""
        if self.count == 0:
            return math.nan
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= rank:
                lo = BUCKET_BOUNDS[i - 1] if i > 0 else 0.0
                hi = (
                    BUCKET_BOUNDS[i]
                    if i < len(BUCKET_BOUNDS)
                    else max(self.vmax, lo)
                )
                frac = (rank - seen) / c
                est = lo + (hi - lo) * frac
                return min(max(est, self.vmin), self.vmax)
            seen += c
        return self.vmax

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "mean": self.mean if self.count else None,
            "p50": self.p50 if self.count else None,
            "p90": self.p90 if self.count else None,
            "p99": self.p99 if self.count else None,
            # Sparse non-zero buckets: what makes snapshots mergeable.
            "buckets": [[i, c] for i, c in enumerate(self.counts) if c],
        }


class MetricsRegistry:
    """Named instruments, created on first use and cached forever.

    Names are dotted paths (``tnr.locality.table_hits``); the renderers
    sort by name so related instruments group naturally.

    Threads: *creating* an instrument (and installing or resetting the
    mirror, which allocates plane rows) is serialised by a lock, so two
    threads may register names concurrently; the hit path stays a bare
    dict lookup. Writes to one instrument are not atomic — each
    instrument has one writing thread (the service's repair thread owns
    ``dynamic.*`` and its spans, the serving thread owns ``serve.*``).
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self._mirror = None
        self._lock = threading.Lock()

    # -- instrument accessors (create-or-get) ---------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            with self._lock:
                c = self.counters.get(name)
                if c is None:
                    c = Counter()
                    if self._mirror is not None:
                        c.mirror = self._mirror.attach_counter(name, 0)
                    self.counters[name] = c
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            with self._lock:
                g = self.gauges.get(name)
                if g is None:
                    g = Gauge()
                    if self._mirror is not None:
                        g.mirror = self._mirror.attach_gauge(name, 0.0)
                    self.gauges[name] = g
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            with self._lock:
                h = self.histograms.get(name)
                if h is None:
                    h = Histogram()
                    if self._mirror is not None:
                        h.mirror_counts, h.mirror_stats = (
                            self._mirror.attach_histogram(name, h)
                        )
                    self.histograms[name] = h
        return h

    def reinit_lock(self) -> None:
        """Fresh creation lock — for a forked child, whose copy may have
        been held by a parent thread that does not exist on this side."""
        self._lock = threading.Lock()

    # -- shared-memory mirroring -----------------------------------------
    def set_mirror(self, mirror) -> None:
        """Install (or remove, with ``None``) a shared-memory mirror.

        The mirror duck-type is :class:`repro.obs.shm.PlaneMirror`:
        ``attach_counter(name, value)`` / ``attach_gauge(name, value)``
        return a one-element writable buffer (or None when the plane is
        full), ``attach_histogram(name, hist)`` returns a
        ``(counts, stats)`` buffer pair, and ``on_reset()`` zeroes the
        plane. Existing instruments are re-attached immediately;
        instruments created later attach on creation.
        """
        with self._lock:
            self._mirror = mirror
            for name, c in self.counters.items():
                c.mirror = (
                    mirror.attach_counter(name, c.value)
                    if mirror is not None else None
                )
            for name, g in self.gauges.items():
                g.mirror = (
                    mirror.attach_gauge(name, g.value)
                    if mirror is not None else None
                )
            for name, h in self.histograms.items():
                if mirror is not None:
                    h.mirror_counts, h.mirror_stats = (
                        mirror.attach_histogram(name, h)
                    )
                else:
                    h.mirror_counts = None
                    h.mirror_stats = None

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Counters add, gauges take the incoming value (last write wins),
        histograms merge bucket-wise. Non-empty histograms without
        bucket data (schema-1 snapshots) raise :class:`ValueError`.
        """
        if not isinstance(snapshot, dict):
            raise ValueError(f"not a metrics snapshot: {snapshot!r}")
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, d in snapshot.get("histograms", {}).items():
            h = self.histogram(name)
            if d.get("count"):
                try:
                    h.merge(Histogram.from_dict(d))
                except ValueError as exc:
                    raise ValueError(f"histogram {name!r}: {exc}") from None

    # -- bulk operations -------------------------------------------------
    def add_counters(self, prefix: str, values: dict[str, int]) -> None:
        """Fold a ``{name: delta}`` mapping under ``prefix.``."""
        for name, delta in values.items():
            self.counter(f"{prefix}.{name}").inc(int(delta))

    def counter_values(self, prefix: str = "") -> dict[str, int]:
        """``{name: value}`` of every counter under ``prefix``."""
        return {
            name: c.value
            for name, c in self.counters.items()
            if name.startswith(prefix)
        }

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            if self._mirror is not None:
                self._mirror.on_reset()

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    # -- output ----------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able dump of every instrument (schema-versioned)."""
        return {
            "schema": METRICS_SCHEMA,
            "counters": {k: self.counters[k].value for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k].value for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].as_dict() for k in sorted(self.histograms)
            },
        }

    def render(self) -> str:
        """Aligned ASCII table of the registry (``repro-harness stats``)."""
        return render_snapshot(self.snapshot())


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    if isinstance(value, float) and math.isinf(value):
        return str(value)
    if abs(value) >= 1e6:
        # Engineering notation (exponent a multiple of 3) keeps
        # microsecond sums readable: 12345678 -> "12.35e6".
        exp = int(math.floor(math.log10(abs(value)))) // 3 * 3
        return f"{value / 10 ** exp:.4g}e{exp}"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def _rows(snapshot: dict) -> Iterator[tuple[str, str, str]]:
    for name, value in snapshot.get("counters", {}).items():
        yield name, "counter", _fmt(value)
    for name, value in snapshot.get("gauges", {}).items():
        yield name, "gauge", _fmt(value)
    for name, h in snapshot.get("histograms", {}).items():
        detail = (
            f"count={h['count']} mean={_fmt(h.get('mean'))} "
            f"min={_fmt(h.get('min'))} p50={_fmt(h.get('p50'))} "
            f"p90={_fmt(h.get('p90'))} p99={_fmt(h.get('p99'))} "
            f"max={_fmt(h.get('max'))}"
        )
        yield name, "histogram", detail


def render_snapshot(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as an ASCII table."""
    rows = list(_rows(snapshot))
    if not rows:
        return "(registry is empty)"
    name_w = max(len(r[0]) for r in rows)
    kind_w = max(len(r[1]) for r in rows)
    return "\n".join(
        f"{name:<{name_w}}  {kind:<{kind_w}}  {detail}"
        for name, kind, detail in rows
    )


def _prom_name(name: str, prefix: str) -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"{prefix}_{safe}"


def _prom_num(value: float) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def to_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Render a snapshot dict in the Prometheus text exposition format.

    Histograms emit cumulative ``_bucket{le="..."}`` series from the
    sparse bucket lists plus ``_sum``/``_count``; schema-1 histogram
    dicts (no buckets) degrade to ``_sum``/``_count`` only.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        pn = _prom_name(name, prefix)
        lines.append(f"# TYPE {pn} counter")
        lines.append(f"{pn} {_prom_num(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("gauges", {})):
        pn = _prom_name(name, prefix)
        lines.append(f"# TYPE {pn} gauge")
        lines.append(f"{pn} {_prom_num(snapshot['gauges'][name])}")
    for name in sorted(snapshot.get("histograms", {})):
        h = snapshot["histograms"][name]
        pn = _prom_name(name, prefix)
        lines.append(f"# TYPE {pn} histogram")
        buckets = h.get("buckets")
        if buckets is not None:
            sparse = {int(i): int(c) for i, c in buckets}
            cum = 0
            for i, bound in enumerate(BUCKET_BOUNDS):
                c = sparse.get(i)
                if c:
                    cum += c
                    lines.append(
                        f'{pn}_bucket{{le="{_prom_num(bound)}"}} {cum}'
                    )
            lines.append(f'{pn}_bucket{{le="+Inf"}} {h["count"]}')
        lines.append(f"{pn}_sum {_prom_num(h.get('sum', 0.0))}")
        lines.append(f"{pn}_count {h.get('count', 0)}")
    return "\n".join(lines) + "\n"
