"""The persistent worker pool and its shared-memory technique views.

Each worker process attaches the published segments
(:mod:`repro.serve.segments`) and rebuilds *views* of the indexes —
lightweight objects whose arrays live in shared memory and whose query
methods are the repo's existing exact paths:

- :class:`SharedDijkstra` answers through
  :meth:`repro.graph.csr.CSRGraph.distance_table` (the compiled SSSP
  sweep) over a CSRGraph wrapping the mapped graph arrays;
- :class:`SharedCH` exposes the upward :class:`~repro.graph.csr.DirectedCSR`
  through the same duck-typed surface
  (``index.n``/``index.upward_csr()``/``upward_search``) that
  :func:`repro.core.ch.many_to_many.many_to_many` consumes, so CH
  batches run the bucket engine unchanged;
- :class:`SharedTNR` replays :class:`repro.core.tnr.query.TransitNodeRouting`'s
  table/fallback split on the flattened access arrays, with
  :class:`SharedCH` as the fallback (the paper's recommended setup);
- :class:`SharedSILC` walks first-hop intervals with ``searchsorted``
  over the flattened per-vertex interval arrays;
- :class:`SharedLabels` rebuilds a
  :class:`~repro.core.labels.HubLabelIndex` directly over the mapped
  label arrays (the segment layout *is* the in-process layout) and
  dispatches to the hub-label query kernels.

Every view's answers are bit-identical to the in-process technique:
each underlying primitive is exact per entry (float64 sums of integer
travel times), so neither the segment indirection nor the scheduler's
batch partitioning can change a single bit (guarded by
``tests/test_serve.py``).

One transport drives the views — :class:`RingPool`, the zero-copy
shared-memory ring: the scheduler writes request pairs into a shared
int32 arena and publishes a fixed-width slot descriptor
(:mod:`repro.serve.segments` ring layout); the worker writes distances
straight into a preallocated float64 result arena and commits the slot;
only an 8-byte slot index ever crosses the wakeup pipe in either
direction. Per-slot sequence/commit words make SIGKILL mid-slot
detectable: an uncommitted slot is retried, a committed one is
harvested.

The pool dispatches batches to the least-loaded worker and collects
completions with ``multiprocessing.connection.wait``. A worker death
surfaces as a ``died`` event carrying the batch ids that were lost in
flight; the pool restarts the worker (counted in
``serve.worker_restarts``) and the scheduler decides whether to retry.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.silc.quadtree import MIXED_LEAF
from repro.core.tnr.grid import OUTER_RADIUS
from repro.graph.csr import CSRGraph, DirectedCSR
from repro.obs.registry import MetricsRegistry
from repro.obs.shm import MetricsPlane, PlaneMirror
from repro.parallel import serve_context
from repro.persistence import GraphFingerprint
from repro.serve.segments import (
    ERR_BYTES,
    SLOT_BATCH,
    SLOT_COMMIT,
    SLOT_EPOCH,
    SLOT_NPAIRS,
    SLOT_OFF,
    SLOT_REQ,
    SLOT_SEQ,
    SLOT_STATUS,
    SLOT_T_ENQ,
    SLOT_T_FORM,
    SLOT_T_PUB,
    SLOT_T_WCOMMIT,
    SLOT_T_WSTART,
    SLOT_TECH,
    STATUS_ERR,
    STATUS_OK,
    AttachedRing,
    AttachedSegments,
    RingBuffers,
    SegmentError,
    attach_segments,
)

INF = float("inf")


def _now_us() -> int:
    """Microseconds on CLOCK_MONOTONIC — comparable across forked
    processes on the same host, which is what the per-stage latency
    stamps rely on."""
    return time.monotonic_ns() // 1000

#: Ring wakeup-channel control tokens (regular messages are slot >= 0).
_STOP = -1
_READY = -2
_EPOCH = -3  #: epoch flip: a re-published manifest follows on the pipe
_TOKEN = struct.Struct("<q")


def _manifest_epoch(manifest: dict) -> int:
    """The weight epoch a manifest serves (0 for pre-dynamics manifests)."""
    return int(manifest.get("fingerprint", {}).get("epoch", 0))


class RingFull(RuntimeError):
    """No free ring slots for this batch — back off and retry later."""


# ----------------------------------------------------------------------
# Shared technique views
# ----------------------------------------------------------------------
class SharedDijkstra:
    """Bidirectional-Dijkstra-equivalent serving view (exact baseline).

    Answers through the CSR batched sweep, the same kernel
    :class:`repro.core.bidirectional.BidirectionalDijkstra` dispatches
    its ``distance_table`` to.
    """

    name = "Dijkstra"

    def __init__(self, csr: CSRGraph) -> None:
        self.csr = csr

    def distance_table(self, sources, targets) -> np.ndarray:
        return self.csr.distance_table(sources, targets)

    def distance(self, source: int, target: int) -> float:
        if source == target:
            return 0.0
        return float(self.csr.distance_table([source], [target])[0, 0])


class _SharedCHIndex:
    """Duck-typed stand-in for :class:`repro.core.ch.contraction.CHIndex`
    carrying only what the many-to-many engine reads."""

    __slots__ = ("n", "_ucsr")

    def __init__(self, n: int, ucsr: DirectedCSR) -> None:
        self.n = n
        self._ucsr = ucsr

    def upward_csr(self) -> DirectedCSR:
        return self._ucsr


class SharedCH:
    """CH distance serving over the shared upward arc arrays."""

    name = "CH"

    def __init__(self, n: int, ucsr: DirectedCSR) -> None:
        self.index = _SharedCHIndex(n, ucsr)

    def distance_table(self, sources, targets) -> np.ndarray:
        from repro.core.ch.many_to_many import many_to_many

        return many_to_many(self, sources, targets, dtype=np.float64)

    def distance(self, source: int, target: int) -> float:
        if source == target:
            return 0.0
        return float(self.distance_table([source], [target])[0, 0])

    def upward_search(self, source: int, stall: bool = True) -> dict[int, float]:
        """Flat-array port of ``ContractionHierarchy.upward_search``.

        Only exercised on the legacy many-to-many path (tiny graphs or
        ``REPRO_NO_CSR=1``); identical label semantics, including
        stall-on-demand.
        """
        from heapq import heappop, heappush

        ucsr = self.index.upward_csr()
        indptr, indices, weights = ucsr.indptr, ucsr.indices, ucsr.weights
        dist: dict[int, float] = {source: 0.0}
        settled: dict[int, float] = {}
        heap: list[tuple[float, int]] = [(0.0, source)]
        dist_get = dist.get
        while heap:
            d, u = heappop(heap)
            if u in settled or d > dist[u]:
                continue
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            if stall:
                stalled = False
                for k in range(lo, hi):
                    dv = dist_get(int(indices[k]))
                    if dv is not None and dv + weights[k] < d:
                        stalled = True
                        break
                if stalled:
                    continue
            settled[u] = d
            for k in range(lo, hi):
                v = int(indices[k])
                nd = d + float(weights[k])
                if nd < dist_get(v, INF):
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return settled


class SharedTNR:
    """TNR distance serving: shared transit table + flattened I2 arrays.

    ``distance_table`` mirrors
    :meth:`repro.core.tnr.query.TransitNodeRouting.distance_table`
    line for line — answerable pairs gather Equation 1 from the shared
    table, the rest batch through the fallback's ``distance_table``
    over deduplicated endpoints.
    """

    name = "TNR"

    def __init__(
        self,
        g: int,
        cells: np.ndarray,
        table: np.ndarray,
        va_indptr: np.ndarray,
        va_idx: np.ndarray,
        va_dist: np.ndarray,
        fallback,
    ) -> None:
        self.g = g
        self.cells = cells
        self.table = table
        self.va_indptr = va_indptr
        self.va_idx = va_idx
        self.va_dist = va_dist
        self.fallback = fallback

    def answerable(self, u: int, v: int) -> bool:
        ca, cb = int(self.cells[u]), int(self.cells[v])
        g = self.g
        return max(abs(ca % g - cb % g), abs(ca // g - cb // g)) > OUTER_RADIUS

    def _access(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = int(self.va_indptr[v]), int(self.va_indptr[v + 1])
        return self.va_idx[lo:hi], self.va_dist[lo:hi]

    def _table_distance(self, source: int, target: int) -> float:
        ai, ds = self._access(source)
        aj, dt = self._access(target)
        if len(ai) == 0 or len(aj) == 0:
            return INF
        middle = self.table[np.ix_(ai, aj)].astype(np.float64)
        totals = ds[:, None] + middle + dt[None, :]
        return float(totals.min())

    def distance(self, source: int, target: int) -> float:
        if source == target:
            return 0.0
        if not self.answerable(source, target):
            return self.fallback.distance(source, target)
        return self._table_distance(source, target)

    def distance_table(self, sources, targets) -> np.ndarray:
        src = [int(s) for s in sources]
        tgt = [int(t) for t in targets]
        out = np.empty((len(src), len(tgt)), dtype=np.float64)
        pending: list[tuple[int, int]] = []
        for i, s in enumerate(src):
            row = out[i]
            for j, t in enumerate(tgt):
                if s == t:
                    row[j] = 0.0
                elif self.answerable(s, t):
                    row[j] = self._table_distance(s, t)
                else:
                    pending.append((i, j))
        if pending:
            f_src = sorted({src[i] for i, _ in pending})
            f_tgt = sorted({tgt[j] for _, j in pending})
            sub = np.asarray(
                self.fallback.distance_table(f_src, f_tgt), dtype=np.float64
            )
            si = {v: k for k, v in enumerate(f_src)}
            ti = {v: k for k, v in enumerate(f_tgt)}
            for i, j in pending:
                out[i, j] = sub[si[src[i]], ti[tgt[j]]]
        return out

    def distance_pairs(self, pairs) -> np.ndarray:
        """Vectorised per-pair distances — linear in the batch size.

        Mirrors :meth:`TransitNodeRouting.distance_pairs` but evaluates
        every answerable pair's Equation-1 min in one padded numpy
        gather over the flattened access-node arrays: pairs' access
        lists are right-padded to the batch maxima with ``inf``
        distances, so padding rows/columns never win the min and the
        result equals the per-pair answer bit for bit.
        """
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        s, t = arr[:, 0], arr[:, 1]
        out = np.zeros(len(arr), dtype=np.float64)
        g = self.g
        ca, cb = self.cells[s], self.cells[t]
        cheb = np.maximum(np.abs(ca % g - cb % g), np.abs(ca // g - cb // g))
        same = s == t
        table_ok = (cheb > OUTER_RADIUS) & ~same
        idx = np.nonzero(table_ok)[0]
        if len(idx):
            out[idx] = self._table_distance_many(s[idx], t[idx])
        fb = np.nonzero(~table_ok & ~same)[0]
        if len(fb):
            f_src = sorted({int(a) for a in s[fb]})
            f_tgt = sorted({int(b) for b in t[fb]})
            sub = np.asarray(
                self.fallback.distance_table(f_src, f_tgt), dtype=np.float64
            )
            si = {v: k for k, v in enumerate(f_src)}
            ti = {v: k for k, v in enumerate(f_tgt)}
            out[fb] = [sub[si[int(a)], ti[int(b)]] for a, b in arr[fb]]
        return out

    def _table_distance_many(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Equation 1 for many (s, t) pairs in one padded gather."""
        indptr = self.va_indptr
        slo, ns = indptr[s], indptr[s + 1] - indptr[s]
        tlo, nt = indptr[t], indptr[t + 1] - indptr[t]
        max_s = int(ns.max(initial=0))
        max_t = int(nt.max(initial=0))
        if max_s == 0 or max_t == 0:
            return np.full(len(s), INF)
        rs, rt = np.arange(max_s), np.arange(max_t)
        sv = rs[None, :] < ns[:, None]
        sp = np.where(sv, slo[:, None] + rs[None, :], 0)
        tv = rt[None, :] < nt[:, None]
        tp = np.where(tv, tlo[:, None] + rt[None, :], 0)
        a_s = self.va_idx[sp]  # (k, max_s) access-node ids, 0-padded
        a_t = self.va_idx[tp]
        d_s = np.where(sv, self.va_dist[sp], INF)
        d_t = np.where(tv, self.va_dist[tp], INF)
        middle = self.table[a_s[:, :, None], a_t[:, None, :]].astype(np.float64)
        totals = d_s[:, :, None] + middle + d_t[:, None, :]
        return totals.reshape(len(s), -1).min(axis=1)


class SharedSILC:
    """SILC distance serving: interval bisection over flattened arrays.

    The walk is the same first-hop iteration as
    :meth:`repro.core.silc.query.SILC.distance` — same visit order,
    same float64 weight sums — with ``np.searchsorted`` standing in for
    ``bisect_right`` and a per-vertex binary search over the graph's
    neighbour-sorted CSR row standing in for ``weight_map``.
    """

    name = "SILC"

    def __init__(self, csr: CSRGraph, arrays: dict[str, np.ndarray]) -> None:
        self.csr = csr
        self.codes = arrays["codes"]
        self.iv_indptr = arrays["iv_indptr"]
        self.iv_start = arrays["iv_start"]
        self.iv_end = arrays["iv_end"]
        self.iv_color = arrays["iv_color"]
        self.exc_indptr = arrays["exc_indptr"]
        self.exc_key = arrays["exc_key"]
        self.exc_val = arrays["exc_val"]

    def _edge_weight(self, u: int, v: int) -> float:
        indptr = self.csr.indptr
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        k = lo + int(np.searchsorted(self.csr.indices[lo:hi], v))
        return float(self.csr.weights[k])

    def next_hop(self, source: int, target: int) -> int:
        code = int(self.codes[target])
        lo, hi = int(self.iv_indptr[source]), int(self.iv_indptr[source + 1])
        i = lo + int(np.searchsorted(self.iv_start[lo:hi], code, side="right")) - 1
        if i < lo or code >= int(self.iv_end[i]):
            raise KeyError(
                f"morton code of {target} not covered by partition of {source}"
            )
        color = int(self.iv_color[i])
        if color == MIXED_LEAF:
            elo, ehi = int(self.exc_indptr[source]), int(self.exc_indptr[source + 1])
            k = elo + int(np.searchsorted(self.exc_key[elo:ehi], target))
            if k >= ehi or int(self.exc_key[k]) != target:
                raise KeyError(target)
            color = int(self.exc_val[k])
        return color

    def distance(self, source: int, target: int) -> float:
        if source == target:
            return 0.0
        total = 0.0
        current = source
        while current != target:
            nxt = self.next_hop(current, target)
            if nxt < 0:
                return INF
            total += self._edge_weight(current, nxt)
            current = nxt
        return total


class SharedLabels:
    """Hub-label distance serving over the shared flat label arrays.

    The mapped ``indptr``/``hubs``/``dists`` views *are* a valid
    :class:`~repro.core.labels.HubLabelIndex` (the segment layout is the
    in-process layout), so every query dispatches to the same kernels —
    zero copies, bit-identical answers.
    """

    name = "HL"

    def __init__(self, n: int, arrays: dict[str, np.ndarray]) -> None:
        from repro.core.labels import HubLabelIndex

        self.index = HubLabelIndex(
            n=n,
            indptr=arrays["indptr"],
            hubs=arrays["hubs"],
            dists=arrays["dists"],
        )

    def distance(self, source: int, target: int) -> float:
        from repro.core.labels import point_query

        return point_query(self.index, source, target)

    def distances(self, pairs) -> np.ndarray:
        from repro.core.labels import query_pairs

        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return query_pairs(self.index, pairs[:, 0], pairs[:, 1])

    def distance_table(self, sources, targets) -> np.ndarray:
        from repro.core.labels import label_table

        return label_table(self.index, sources, targets)


def build_techniques(segs: AttachedSegments) -> dict:
    """Instantiate the shared views for every published technique.

    Verifies the graph segment against the manifest fingerprint before
    answering anything through it; TNR requires CH in the same manifest
    (its fallback), which :func:`repro.serve.service.build_payloads`
    guarantees at publish time.
    """
    manifest = segs.manifest
    out: dict = {}
    graph_arrays = segs.arrays("dijkstra")
    csr = CSRGraph(**graph_arrays)
    fp = manifest.get("fingerprint", {})
    got = GraphFingerprint.of_csr(csr)
    if (got.n, got.m) != (fp.get("n"), fp.get("m")) or got.total_weight != fp.get(
        "total_weight"
    ):
        raise SegmentError(
            f"graph segment does not match the manifest fingerprint "
            f"({got} vs {fp})"
        )
    out["dijkstra"] = SharedDijkstra(csr)
    if "ch" in manifest["techniques"]:
        a = segs.arrays("ch")
        ucsr = DirectedCSR(a["indptr"], a["indices"], a["weights"])
        out["ch"] = SharedCH(int(segs.meta("ch")["n"]), ucsr)
    if "tnr" in manifest["techniques"]:
        if "ch" not in out:
            raise SegmentError("tnr segment published without its ch fallback")
        a = segs.arrays("tnr")
        out["tnr"] = SharedTNR(
            g=int(segs.meta("tnr")["g"]),
            cells=a["cells"],
            table=a["table"],
            va_indptr=a["va_indptr"],
            va_idx=a["va_idx"],
            va_dist=a["va_dist"],
            fallback=out["ch"],
        )
    if "silc" in manifest["techniques"]:
        out["silc"] = SharedSILC(csr, segs.arrays("silc"))
    if "labels" in manifest["techniques"]:
        out["labels"] = SharedLabels(
            int(segs.meta("labels")["n"]), segs.arrays("labels")
        )
    return out


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _attach_plane(plane_entry: dict | None) -> MetricsPlane | None:
    """Worker-side metrics-plane attach + registry mirror install.

    The plane is parent-created and parent-owned; the worker only maps
    it (``foreign=False``: same service) and mirrors its registry into
    it. A broken plane must never take the worker down — telemetry is
    strictly best-effort.
    """
    if plane_entry is None:
        return None
    try:
        plane = MetricsPlane.attach(plane_entry, foreign=False)
        plane.set_pid(os.getpid())
        obs.registry().set_mirror(PlaneMirror(plane))
        return plane
    except Exception:  # pragma: no cover - best-effort telemetry
        return None


def _detach_plane(plane: MetricsPlane | None) -> None:
    if plane is None:
        return
    try:
        obs.registry().set_mirror(None)
        plane.close()
    except Exception:  # pragma: no cover
        pass


def _worker_main(
    manifest: dict, conn, trace_base: str | None, plane_entry: dict | None = None
) -> None:
    """Worker loop: attach, build views, answer slots until ``_STOP``.

    Protocol: the parent sends one 8-byte slot index per published slot
    (``_STOP`` to shut down); the worker answers with the same 8 bytes
    once the slot is committed. Everything else — request pairs, result
    distances, error text — lives in the shared ring segment and never
    crosses the pipe.

    Commit discipline (the SIGKILL contract): the result stores land in
    the arena *before* ``SLOT_COMMIT`` is set to ``SLOT_SEQ``, so the
    parent can trust any committed slot's results even if this process
    is killed before (or while) sending the wakeup byte.
    """
    from repro.harness.experiments import batched_distances

    if trace_base or obs.trace_path() is not None:
        # Forked workers inherit the parent's open trace; re-route to a
        # pid-unique file instead of interleaving with (or closing) it.
        base = trace_base or obs.trace_path()
        obs.detach_trace()
        obs.start_trace(obs.unique_trace_path(base))
    # Fork also copies the parent's accumulated counters *and* its
    # registry mirror (which maps the scheduler's plane — resetting
    # through it would zero the parent's telemetry). Detach the
    # inherited mirror, then drop the counters: the worker's trace tail
    # and its own metrics plane must report only worker-side activity,
    # or the parent's build-time totals would be counted once per
    # worker when planes are merged.
    obs.registry().set_mirror(None)
    obs.reset()
    segs = ring = None
    plane = _attach_plane(plane_entry)
    try:
        segs = attach_segments(manifest, foreign=False)
        ring = AttachedRing(manifest["transport"], foreign=False)
        techniques = build_techniques(segs)
        epoch = _manifest_epoch(manifest)
        #: Technique ids are indexes into the sorted manifest names —
        #: the same order the parent's RingPool uses.
        by_id = [techniques.get(name) for name in sorted(manifest["techniques"])]
        rbuf, pair_arena = ring.ring, ring.pairs
        results, errors = ring.results, ring.errors
        conn.send_bytes(_TOKEN.pack(_READY))
        while True:
            slot = _TOKEN.unpack(conn.recv_bytes())[0]
            if slot == _STOP:
                break
            if slot == _EPOCH:
                # The re-published manifest follows the token on the
                # same pipe (length-framed, so the byte protocols mix
                # safely). The ring itself survives the flip — only the
                # index segments swap underneath it. Every reference
                # into the old mapping is dropped first, so the unmap
                # actually releases it; the parent flips only after the
                # scheduler drained, so no batch straddles the flip.
                manifest = conn.recv()
                techniques = by_id = None
                segs.close()
                segs = attach_segments(manifest, foreign=False)
                techniques = build_techniques(segs)
                by_id = [
                    techniques.get(name)
                    for name in sorted(manifest["techniques"])
                ]
                epoch = _manifest_epoch(manifest)
                conn.send_bytes(_TOKEN.pack(_EPOCH))
                continue
            rbuf[slot, SLOT_T_WSTART] = _now_us()
            off = int(rbuf[slot, SLOT_OFF])
            n = int(rbuf[slot, SLOT_NPAIRS])
            try:
                tech = by_id[int(rbuf[slot, SLOT_TECH])]
                with obs.span("serve.worker_batch"):
                    out = batched_distances(
                        tech, pair_arena[off : off + n], batch_size=max(n, 1)
                    )
                results[off : off + n] = out
                rbuf[slot, SLOT_STATUS] = STATUS_OK
            except Exception as exc:  # surface, don't die
                text = f"{type(exc).__name__}: {exc}".encode()[:ERR_BYTES]
                errors[slot] = 0
                errors[slot, : len(text)] = np.frombuffer(text, dtype=np.uint8)
                rbuf[slot, SLOT_STATUS] = STATUS_ERR
            rbuf[slot, SLOT_EPOCH] = epoch
            rbuf[slot, SLOT_T_WCOMMIT] = _now_us()
            rbuf[slot, SLOT_COMMIT] = rbuf[slot, SLOT_SEQ]
            if plane is not None:
                plane.note_batch()
            conn.send_bytes(_TOKEN.pack(slot))
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        if obs.trace_path() is not None:
            obs.stop_trace()
        _detach_plane(plane)
        if ring is not None:
            ring.close()
        if segs is not None:
            segs.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class _Worker:
    __slots__ = ("process", "conn", "inflight", "ready", "plane")

    def __init__(self, process, conn, plane=None) -> None:
        self.process = process
        self.conn = conn
        #: Batch id -> the ring slots it occupies on this worker.
        self.inflight: dict[int, list[int]] = {}
        self.ready = False
        #: This worker slot's MetricsPlane (parent-owned; the worker
        #: mirrors its registry into it). Survives restarts: the pool
        #: harvests + resets it and hands it to the replacement.
        self.plane = plane


class _RingBatch:
    """Parent-side record of one batch spread over ring slots."""

    __slots__ = ("batch_id", "slots", "remaining")

    def __init__(self, batch_id: int, slots: list[int]) -> None:
        self.batch_id = batch_id
        self.slots = slots
        self.remaining = set(slots)


class RingPool:
    """N persistent workers behind a shared request ring + result arena.

    :meth:`submit` writes the batch's pairs into the shared int32 arena,
    fills a fixed-width slot descriptor and sends the worker one 8-byte
    slot index; the worker writes distances straight into the shared
    float64 result arena and sends the index back.

    Events from :meth:`poll`:

    - ``("done", batch_id, distances, stamps)`` — a batch completed;
      ``distances`` is a numpy *view* into the result arena — no
      pickling, no copy — valid until the next :meth:`poll` (the
      scheduler scatters it into futures immediately, so freed slots
      are recycled one poll later, never under a live view);
      ``stamps`` maps stage names (``enq``/``form``/``pub``/``wstart``/
      ``wcommit``) to CLOCK_MONOTONIC microseconds for the latency
      breakdown (zero where unknown), plus the worker's ``epoch``;
    - ``("error", batch_id, message)`` — the batch raised in the worker
      (e.g. an out-of-range vertex — the worker survives);
    - ``("died", batch_ids)`` — a worker died (crash or kill) with
      those batches in flight; the pool has already restarted it and
      incremented ``serve.worker_restarts``. Requeueing is the
      scheduler's call.

    Backpressure is explicit: a batch that cannot get slots raises
    :class:`RingFull` and the scheduler holds it, feeding the existing
    ``Overloaded`` shed path once its queue bound is hit.

    SIGKILL recovery runs on the slot sequence/commit words: a dead
    worker's fully-committed batches are harvested from the arena as
    normal completions (the results provably landed before death);
    any batch with an uncommitted slot is reported ``died`` for the
    scheduler's retry-once policy.

    Batches larger than one slot (the scheduler's oversized-request
    case) span several contiguous-per-slot spans on the same worker;
    their ``done`` event concatenates the spans in order, so answers
    stay bit-identical to one in-process call over the same pairs.
    """

    #: The transport's name in status()/bench reports.
    transport = "ring"

    def __init__(
        self,
        manifest: dict,
        n_workers: int = 2,
        *,
        ring_slots: int = 64,
        slot_pairs: int = 256,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        self.manifest = manifest
        self.n_workers = n_workers
        self._ctx = serve_context()
        self._workers: list[_Worker] = []
        self.restarts = 0
        self.batches_done = 0
        self._trace_base = obs.trace_path()
        #: Batch ids lost by a worker reaped outside poll() (e.g. a
        #: broken pipe discovered during submit); surfaced as one
        #: ``died`` event at the next poll so no future ever hangs.
        self._orphaned: list[int] = []
        #: Metrics harvested from dead workers' planes (merged in at
        #: reap time, folded into the service's aggregate snapshot).
        self.retired = MetricsRegistry()
        #: One fixed-name metrics plane per worker *slot* (not per
        #: process): registered in the manifest before any fork so a
        #: foreign `service stats` dashboard can attach them, and kept
        #: across restarts so the names stay stable.
        token = manifest.get("service") or secrets.token_hex(4)
        self._planes = [
            MetricsPlane(f"rsv-{token}-mw{i}") for i in range(n_workers)
        ]
        manifest.setdefault("metrics", {})["workers"] = [
            p.entry for p in self._planes
        ]
        #: The pool owns the ring segment (publisher-unlink semantics);
        #: the manifest gains the transport entry *before* any worker
        #: forks, so attachers find it.
        self.ring = RingBuffers(
            ring_slots, slot_pairs, token=manifest.get("service")
        )
        manifest["transport"] = self.ring.manifest_entry
        self._tech_id = {
            name: i for i, name in enumerate(sorted(manifest["techniques"]))
        }
        self._free: list[int] = list(range(ring_slots - 1, -1, -1))
        self._pending_free: list[int] = []
        self._batches: dict[int, _RingBatch] = {}

    # ------------------------------------------------------------------
    def start(self) -> "RingPool":
        for i in range(self.n_workers):
            self._workers.append(self._spawn(self._planes[i]))
        return self

    def _spawn(self, plane: MetricsPlane | None = None) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self.manifest,
                child_conn,
                self._trace_base,
                plane.entry if plane is not None else None,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn, plane)

    @property
    def worker_pids(self) -> list[int]:
        return [w.process.pid for w in self._workers]

    @property
    def inflight(self) -> int:
        return sum(len(w.inflight) for w in self._workers)

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def worker_status(self) -> list[dict]:
        """Per-worker liveness/progress rows (``service status`` section).

        ``batches`` and ``last_commit_age_s`` come from the worker's
        metrics-plane header (written by the worker itself, read here
        without any pipe traffic); ``pid`` prefers the plane's own
        claim, falling back to the process handle during startup.
        """
        now_us = _now_us()
        rows: list[dict] = []
        for i, w in enumerate(self._workers):
            row = {
                "worker": i,
                "pid": w.process.pid,
                "alive": w.process.is_alive(),
                "ready": w.ready,
                "inflight": len(w.inflight),
                "batches": 0,
                "last_commit_age_s": None,
            }
            if w.plane is not None:
                h = w.plane.header()
                if h["pid"]:
                    row["pid"] = h["pid"]
                row["batches"] = h["batches"]
                if h["last_batch_us"]:
                    row["last_commit_age_s"] = round(
                        max(now_us - h["last_batch_us"], 0) / 1e6, 3
                    )
            rows.append(row)
        return rows

    def worker_snapshots(self) -> list[dict]:
        """Live workers' plane snapshots (see :meth:`MetricsPlane.snapshot`)."""
        return [
            w.plane.snapshot() for w in self._workers if w.plane is not None
        ]

    # ------------------------------------------------------------------
    def flip_epoch(self) -> int:
        """Barrier: every worker reattaches the (re-published) manifest.

        Call only with zero batches in flight (the scheduler drains
        first): each worker flips its zero-copy views to the manifest's
        current segments and acknowledges; a worker that dies mid-flip
        is reaped as usual — its replacement forks with the already-new
        manifest, so it *is* on the new epoch. Returns the epoch now
        being served.
        """
        pending: list[_Worker] = []
        for w in list(self._workers):
            try:
                # The token warns the worker that the next frame is a
                # pickled manifest, not another slot index (framing
                # keeps them apart).
                w.conn.send_bytes(_TOKEN.pack(_EPOCH))
                w.conn.send(self.manifest)
                pending.append(w)
            except (BrokenPipeError, OSError):
                self._reap(w)
        for w in pending:
            if w not in self._workers:  # reaped while flipping others
                continue
            try:
                self._ack_epoch(w)
            except (EOFError, OSError):
                self._reap(w)
        return _manifest_epoch(self.manifest)

    def _ack_epoch(self, w: _Worker) -> None:
        while True:
            if not w.conn.poll(10):
                raise RuntimeError(
                    f"worker pid {w.process.pid} did not acknowledge the "
                    f"epoch flip"
                )
            token = _TOKEN.unpack(w.conn.recv_bytes())[0]
            if token == _EPOCH:
                return
            if token == _READY:  # a fresh respawn racing the flip
                w.ready = True
            elif token >= 0:  # pragma: no cover - stale slot post-drain
                self._pending_free.append(token)

    # ------------------------------------------------------------------
    def submit(
        self,
        batch_id: int,
        technique: str,
        pairs: Sequence,
        meta: dict | None = None,
    ) -> None:
        """Publish a batch into ring slots on the least-loaded worker.

        ``meta`` optionally carries the scheduler's telemetry stamps
        (``request_id``/``t_enq_us``/``t_form_us``); the slot words add
        the publish/worker stamps and the full set comes back on the
        ``done`` event.

        Raises :class:`RingFull` when the ring cannot hold the batch
        right now; raises ``ValueError`` for a batch that could *never*
        fit (more pairs than the whole ring holds).

        A worker whose pipe is already broken is reaped (and restarted)
        on the spot and the next candidate tried; with every worker
        freshly dead the batch lands on a restarted one.
        """
        tech_id = self._tech_id.get(technique)
        if tech_id is None:
            raise ValueError(f"technique {technique!r} is not published")
        arr = np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
        sp = self.ring.slot_pairs
        needed = max(1, math.ceil(len(arr) / sp))
        if needed > self.ring.n_slots:
            raise ValueError(
                f"batch of {len(arr)} pairs exceeds the ring capacity "
                f"({self.ring.n_slots} slots x {sp} pairs)"
            )
        if len(self._free) < needed:
            raise RingFull(
                f"ring full: {needed} slot(s) needed, {len(self._free)} free"
            )
        last_exc: BaseException | None = None
        for _ in range(self.n_workers + 1):
            w = min(self._workers, key=lambda w: len(w.inflight))
            slots = [self._free.pop() for _ in range(needed)]
            rec = _RingBatch(batch_id, slots)
            self._batches[batch_id] = rec
            w.inflight[batch_id] = slots
            try:
                for k, slot in enumerate(slots):
                    self._publish(w, slot, batch_id, tech_id, arr, k * sp, meta)
                return
            except (BrokenPipeError, OSError) as exc:
                # Nothing committed on a worker that never read a byte:
                # roll the batch back and try the next (restarted) pool.
                last_exc = exc
                del self._batches[batch_id]
                w.inflight.pop(batch_id, None)
                self._free.extend(slots)
                self._reap(w)
        raise RuntimeError("no live worker accepted the batch") from last_exc

    def _publish(
        self, w: _Worker, slot: int, batch_id: int, tech_id: int,
        arr: np.ndarray, start: int, meta: dict | None = None,
    ) -> None:
        sp = self.ring.slot_pairs
        span = arr[start : start + sp]
        base = slot * sp
        self.ring.pairs[base : base + len(span)] = span
        ring = self.ring.ring
        ring[slot, SLOT_BATCH] = batch_id
        ring[slot, SLOT_TECH] = tech_id
        ring[slot, SLOT_OFF] = base
        ring[slot, SLOT_NPAIRS] = len(span)
        ring[slot, SLOT_STATUS] = STATUS_OK
        ring[slot, SLOT_REQ] = int(meta.get("request_id") or 0) if meta else 0
        ring[slot, SLOT_T_ENQ] = int(meta.get("t_enq_us") or 0) if meta else 0
        ring[slot, SLOT_T_FORM] = int(meta.get("t_form_us") or 0) if meta else 0
        ring[slot, SLOT_T_WSTART] = 0
        ring[slot, SLOT_T_WCOMMIT] = 0
        ring[slot, SLOT_T_PUB] = _now_us()
        # The sequence bump is the publish: everything above must be in
        # place before it, and the wakeup byte (a syscall, hence a
        # barrier) follows it.
        ring[slot, SLOT_SEQ] += 1
        w.conn.send_bytes(_TOKEN.pack(slot))

    # ------------------------------------------------------------------
    def poll(self, timeout: float = 0.0) -> list[tuple]:
        """Collect completion/death events (waits up to ``timeout`` s)."""
        events: list[tuple] = []
        # Completed slots park in _pending_free until the *next* poll:
        # by then the scheduler has scattered every previously returned
        # arena view, so recycling cannot overwrite a result that has
        # not been read (the zero-copy hand-back invariant).
        if self._pending_free:
            self._free.extend(self._pending_free)
            self._pending_free.clear()
        if self._orphaned:
            events.append(("died", self._orphaned))
            self._orphaned = []
        while True:
            conns = [w.conn for w in self._workers]
            ready = _conn_wait(conns, timeout)
            if not ready:
                # A SIGKILLed worker's pipe usually reports EOF, but
                # belt-and-braces: reap anything no longer alive.
                for w in list(self._workers):
                    if not w.process.is_alive():
                        events.extend(self._reap_events(w))
                return events
            timeout = 0.0  # only block on the first wait
            for conn in ready:
                w = next(x for x in self._workers if x.conn is conn)
                try:
                    self._on_message(w, events)
                except (EOFError, OSError):
                    events.extend(self._reap_events(w))

    def _on_message(self, w: _Worker, events: list[tuple]) -> None:
        """Consume one wakeup token from ``w`` into ``events``."""
        slot = _TOKEN.unpack(w.conn.recv_bytes())[0]
        if slot == _READY:
            w.ready = True
            return
        if obs.ENABLED:
            obs.registry().counter("serve.reply_bytes").inc(_TOKEN.size)
        batch_id = int(self.ring.ring[slot, SLOT_BATCH])
        rec = self._batches.get(batch_id)
        if rec is None:  # pragma: no cover - stale wakeup after a reap
            self._pending_free.append(slot)
            return
        rec.remaining.discard(slot)
        if not rec.remaining:
            w.inflight.pop(batch_id, None)
            events.append(self._finish(rec))

    def _finish(self, rec: _RingBatch) -> tuple:
        """Turn a fully-committed batch record into its pool event."""
        del self._batches[rec.batch_id]
        self._pending_free.extend(rec.slots)
        ring = self.ring.ring
        for slot in rec.slots:
            if int(ring[slot, SLOT_STATUS]) == STATUS_ERR:
                raw = self.ring.errors[slot].tobytes()
                message = raw.split(b"\0", 1)[0].decode("utf-8", "replace")
                return ("error", rec.batch_id, message)
        self.batches_done += 1
        if len(rec.slots) == 1:
            slot = rec.slots[0]
            off = int(ring[slot, SLOT_OFF])
            n = int(ring[slot, SLOT_NPAIRS])
            distances = self.ring.results[off : off + n]
        else:
            distances = np.concatenate([
                self.ring.results[
                    int(ring[s, SLOT_OFF]) : int(ring[s, SLOT_OFF])
                    + int(ring[s, SLOT_NPAIRS])
                ]
                for s in rec.slots
            ])
        first = rec.slots[0]
        wstarts = [int(ring[s, SLOT_T_WSTART]) for s in rec.slots]
        stamps = {
            "enq": int(ring[first, SLOT_T_ENQ]),
            "form": int(ring[first, SLOT_T_FORM]),
            "pub": int(ring[first, SLOT_T_PUB]),
            "wstart": min((t for t in wstarts if t), default=0),
            "wcommit": max(
                (int(ring[s, SLOT_T_WCOMMIT]) for s in rec.slots), default=0
            ),
            # All of a batch's slots run on one worker between two
            # drains, so every slot carries the same epoch word.
            "epoch": int(ring[first, SLOT_EPOCH]),
        }
        return ("done", rec.batch_id, distances, stamps)

    def _reap_events(self, w: _Worker) -> list[tuple]:
        """Classify a dead worker's slots by their commit words."""
        events: list[tuple] = []
        lost: list[int] = []
        ring = self.ring.ring
        for batch_id, slots in list(w.inflight.items()):
            rec = self._batches.get(batch_id)
            if rec is None:  # pragma: no cover - already resolved
                continue
            if all(ring[s, SLOT_COMMIT] == ring[s, SLOT_SEQ] for s in slots):
                events.append(self._finish(rec))
                if events[-1][0] == "done" and obs.ENABLED:
                    obs.registry().counter("serve.harvested").inc()
            else:
                # Uncommitted somewhere: drop the whole batch for the
                # scheduler's retry (a dead worker never writes again,
                # so its slots recycle safely).
                del self._batches[batch_id]
                self._pending_free.extend(rec.slots)
                lost.append(batch_id)
        w.inflight.clear()
        self._reap(w)
        if lost:
            events.append(("died", lost))
        return events

    def _reap(self, w: _Worker) -> None:
        """Replace a dead worker with a fresh one (counted).

        Anything still in the worker's in-flight map (a reap outside
        poll's event path) has its slots freed, so the retry gets fresh
        ones, and is queued as orphaned so the next poll reports it
        ``died`` instead of leaving its futures pending.

        The dead worker's metrics plane is harvested into
        :attr:`retired` *after* the join (the plane is quiescent, so
        the read is exact) and reset before the replacement inherits
        the same fixed-name segment — counters never double-count and
        never silently vanish across a restart.
        """
        for batch_id in w.inflight:
            rec = self._batches.pop(batch_id, None)
            if rec is not None:
                self._pending_free.extend(rec.slots)
        self._orphaned.extend(w.inflight)
        w.inflight.clear()
        try:
            w.conn.close()
        except OSError:  # pragma: no cover
            pass
        if w.process.is_alive():  # broken pipe but still running: kill
            w.process.terminate()
        w.process.join(timeout=5)
        if w.plane is not None:
            try:
                self.retired.merge_snapshot(w.plane.snapshot())
            except ValueError:  # pragma: no cover - torn mid-death write
                pass
            w.plane.reset()
        self._workers.remove(w)
        self._workers.append(self._spawn(w.plane))
        self.restarts += 1
        if obs.ENABLED:
            obs.registry().counter("serve.worker_restarts").inc()

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Graceful shutdown: stop token, join, then force-kill; the
        ring segment is unlinked last."""
        try:
            for w in self._workers:
                try:
                    w.conn.send_bytes(_TOKEN.pack(_STOP))
                except (BrokenPipeError, OSError):
                    pass
            for w in self._workers:
                w.process.join(timeout=5)
                if w.process.is_alive():  # pragma: no cover - stuck worker
                    w.process.kill()
                    w.process.join(timeout=5)
                try:
                    w.conn.close()
                except OSError:  # pragma: no cover
                    pass
            self._workers.clear()
            planes, self._planes = self._planes, []
            for p in planes:
                try:
                    p.close()
                except Exception:  # pragma: no cover
                    pass
        finally:
            self.ring.close()

    def __enter__(self) -> "RingPool":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
