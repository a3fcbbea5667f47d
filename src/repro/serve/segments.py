"""Shared-memory index segments + the versioned serving manifest.

One serving process (the *publisher*) copies the frozen flat arrays of
the graph and of each built technique index into POSIX shared memory —
one segment per technique — and describes them in a small JSON-able
manifest:

```
{"schema": 1, "service": "<token>", "dataset": "DE", "tier": "small",
 "fingerprint": {"n": ..., "m": ..., "total_weight": ...},
 "techniques": {
   "ch": {"segment": "rsv-<token>-ch", "nbytes": ...,
          "meta": {"n": ...},
          "arrays": {"indptr": {"dtype": "int32", "shape": [601],
                                "offset": 0}, ...}}, ...}}
```

Workers (and foreign inspectors like ``repro-harness service status``)
attach by name and rebuild numpy views straight over the mapped buffer
— no pickle, no copy; every array offset is 64-byte aligned so views
are as cache/SIMD-friendly as freshly allocated arrays. The manifest is
the only thing that crosses process boundaries by value.

Ownership and cleanup
---------------------
The publisher owns the segments: only :meth:`SegmentSet.close` unlinks
them (attachers merely unmap). Cleanup is robust to worker crashes —
a killed worker leaves the parent's mapping and registration intact,
so ``close()`` still frees everything; if the *publisher* itself dies
abnormally, Python's ``resource_tracker`` unlinks the leaked segments
at interpreter exit.

CPython < 3.13 tracker hazard: ``SharedMemory(name=...)`` registers the
segment with the caller's resource tracker even on *attach*, so a
foreign process that merely inspected a segment would unlink it — out
from under the live service — when that process exits.
:func:`_attach_shm` neutralises this: it passes ``track=False`` where
supported (3.13+) and otherwise unregisters foreign attachments
explicitly. Pool workers are forked from the publisher and share its
tracker, where the registration set is idempotent and the publisher's
eventual unlink unregisters exactly once — they must *not* unregister
(that would erase the publisher's own crash-safety registration), so
``foreign=False`` skips the workaround for them.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph, DirectedCSR
from repro.persistence import GraphFingerprint

#: Manifest schema; attachers reject anything else.
SERVE_SCHEMA = 1

#: Array offsets inside a segment are rounded up to this many bytes.
_ALIGN = 64

# ----------------------------------------------------------------------
# Ring-transport slot layout (see RingBuffers below and docs/SERVING.md)
# ----------------------------------------------------------------------
#: int64 word indices inside one ring-slot descriptor.
SLOT_SEQ = 0      #: publish sequence — bumped by the scheduler per dispatch
SLOT_COMMIT = 1   #: worker copies SEQ here *after* the results are written
SLOT_BATCH = 2    #: scheduler batch id the slot belongs to
SLOT_TECH = 3     #: technique id (index into the sorted manifest techniques)
SLOT_OFF = 4      #: first pair row of this slot's span in the arenas
SLOT_NPAIRS = 5   #: pair count of this slot's span
SLOT_STATUS = 6   #: STATUS_OK or STATUS_ERR (error text in the error block)
SLOT_REQ = 7      #: request id of the head request in the batch (telemetry)
# Per-stage timestamps (CLOCK_MONOTONIC microseconds, comparable across
# forked processes on the same host) feeding the serve.stage_us.*
# latency breakdown — see docs/OBSERVABILITY.md.
SLOT_T_ENQ = 8      #: earliest request enqueue time in the batch
SLOT_T_FORM = 9     #: batch formation (scheduler closed the batch)
SLOT_T_PUB = 10     #: slot publish (written just before the SEQ bump)
SLOT_T_WSTART = 11  #: worker picked the slot up
SLOT_T_WCOMMIT = 12 #: worker finished, about to commit
SLOT_EPOCH = 13     #: weight epoch the worker answered under (swap audit)
SLOT_WORDS = 16   #: descriptor width (two cache lines of int64 words)

STATUS_OK = 0
STATUS_ERR = 1

#: Per-slot error text block (utf-8, truncated).
ERR_BYTES = 256


class SegmentError(RuntimeError):
    """Raised for unattachable, foreign, or mismatched segments."""


def _fingerprint_entry(fingerprint: GraphFingerprint) -> dict:
    """The manifest's JSON form of a fingerprint (epoch included)."""
    return {
        "n": fingerprint.n,
        "m": fingerprint.m,
        "total_weight": fingerprint.total_weight,
        "epoch": fingerprint.epoch,
    }


def release_segments(segments: dict[str, shared_memory.SharedMemory]) -> None:
    """Unmap and unlink a drained epoch's segments (idempotent-ish).

    Tolerates already-unlinked names so crash-recovery paths can call
    it unconditionally.
    """
    for shm in segments.values():
        try:
            shm.close()
        except Exception:  # pragma: no cover - double close
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
    segments.clear()


def manifest_segment_names(manifest: dict) -> list[str]:
    """Every shared-memory segment name a manifest references.

    Technique segments, the ring transport, and the metrics planes
    (scheduler + workers) — the full footprint ``service clean`` must
    account for after a publisher is SIGKILLed.
    """
    names = [
        e["segment"] for e in manifest.get("techniques", {}).values()
    ]
    transport = manifest.get("transport")
    if isinstance(transport, dict) and transport.get("segment"):
        names.append(transport["segment"])
    metrics = manifest.get("metrics", {})
    sched = metrics.get("scheduler")
    if isinstance(sched, dict) and sched.get("segment"):
        names.append(sched["segment"])
    for entry in metrics.get("workers") or []:
        if isinstance(entry, dict) and entry.get("segment"):
            names.append(entry["segment"])
    return names


def publisher_alive(manifest: dict) -> bool:
    """Whether the manifest's publisher process still exists.

    Signal 0 probes liveness without touching the process; a
    ``PermissionError`` means the pid exists under another user, which
    still counts as alive.
    """
    pid = manifest.get("publisher_pid")
    if not pid:
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign-uid publisher
        return True
    return True


def find_orphans(manifest: dict) -> list[str]:
    """Manifest-referenced segments that still exist.

    Besides the names the manifest carries, scans ``/dev/shm`` (where
    available) for anything else under the service's token — a
    publisher killed mid-epoch-swap can leave old-epoch segments the
    updated manifest no longer mentions.
    """
    orphans: list[str] = []
    for name in manifest_segment_names(manifest):
        try:
            shm = _attach_shm(name, foreign=True)
        except FileNotFoundError:
            continue
        shm.close()
        orphans.append(name)
    token = manifest.get("service")
    if token and os.path.isdir("/dev/shm"):
        prefix = f"rsv-{token}-"
        for entry in sorted(os.listdir("/dev/shm")):
            if entry.startswith(prefix) and entry not in orphans:
                orphans.append(entry)
    return orphans


def unlink_orphans(names: Sequence[str]) -> list[str]:
    """Unlink each named segment; returns the names actually removed.

    Races with concurrent cleanup are tolerated — a name that vanishes
    between listing and unlinking is simply skipped.
    """
    removed: list[str] = []
    for name in names:
        try:
            # foreign=False on purpose: on pre-3.13 the attach registers
            # with the resource tracker and unlink() unregisters — a
            # balanced pair. foreign=True would unregister early and
            # unlink()'s second unregister would KeyError in the
            # tracker process (harmless but noisy on a CLI path).
            shm = _attach_shm(name, foreign=False)
        except FileNotFoundError:
            continue
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent clean
            continue
        removed.append(name)
    return removed


def _attach_shm(name: str, foreign: bool) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting cleanup duty.

    See the module docstring: ``track=False`` on 3.13+, explicit
    unregister for ``foreign`` attachments on older interpreters.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        shm = shared_memory.SharedMemory(name=name)
        if foreign:
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker variants
                pass
        return shm


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _layout(arrays: dict[str, np.ndarray]) -> tuple[dict[str, dict], int]:
    """Aligned segment layout for ``arrays``: (specs, total bytes).

    Every array lands at a 64-byte-aligned offset; the specs are the
    JSON-able ``{name: {dtype, shape, offset}}`` mapping the manifest
    carries and :func:`_views` rebuilds from.
    """
    specs: dict[str, dict] = {}
    offset = 0
    for key, arr in arrays.items():
        specs[key] = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "offset": offset,
        }
        offset = _aligned(offset + arr.nbytes)
    return specs, offset


def _views(
    shm: shared_memory.SharedMemory, specs: dict[str, dict], *, where: str
) -> dict[str, np.ndarray]:
    """Numpy views over ``shm`` per ``specs`` (bounds-checked, no copy)."""
    out: dict[str, np.ndarray] = {}
    for key, spec in specs.items():
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        need = int(spec["offset"]) + int(np.prod(shape)) * dtype.itemsize
        if need > shm.size:
            raise SegmentError(
                f"segment {shm.name!r} is truncated: array {where}.{key} "
                f"needs {need} bytes but the mapping holds {shm.size}"
            )
        out[key] = np.ndarray(
            shape, dtype=dtype, buffer=shm.buf, offset=spec["offset"]
        )
    return out


# ----------------------------------------------------------------------
# Packing: technique objects -> flat array payloads
# ----------------------------------------------------------------------
def pack_graph(csr: CSRGraph) -> tuple[dict[str, np.ndarray], dict]:
    """The frozen graph's five core arrays (serves ``dijkstra``)."""
    return dict(csr.core_arrays()), {}


def pack_ch(ch) -> tuple[dict[str, np.ndarray], dict]:
    """A CH index as its upward-graph arc arrays.

    The upward ``DirectedCSR`` is everything the bucket-based
    many-to-many engine needs; vertex ranks, shortcut middles and the
    augmented adjacency stay behind in the publisher (they serve path
    unpacking, which the distance service does not do).
    """
    up = ch.index.upward_csr()
    return dict(up.core_arrays()), {"n": int(ch.index.n)}


def pack_tnr(tnr) -> tuple[dict[str, np.ndarray], dict]:
    """A TNR index: cell map, transit table, flattened access lists.

    ``vertex_access``/``vertex_access_dist`` are ragged per-vertex
    arrays; they flatten into one indptr plus two value arrays, the
    same trick as the CSR layout itself.
    """
    index = tnr.index
    n = len(index.vertex_access)
    va_indptr = np.zeros(n + 1, dtype=np.int64)
    for v, idx in enumerate(index.vertex_access):
        va_indptr[v + 1] = len(idx)
    np.cumsum(va_indptr, out=va_indptr)
    total = int(va_indptr[-1])
    va_idx = np.empty(total, dtype=np.int32)
    va_dist = np.empty(total, dtype=np.float64)
    for v, (idx, dist) in enumerate(
        zip(index.vertex_access, index.vertex_access_dist)
    ):
        va_idx[va_indptr[v] : va_indptr[v + 1]] = idx
        va_dist[va_indptr[v] : va_indptr[v + 1]] = dist
    arrays = {
        "cells": np.asarray(index.grid.cell_of_vertex, dtype=np.int32),
        "table": np.ascontiguousarray(index.table, dtype=np.float32),
        "va_indptr": va_indptr,
        "va_idx": va_idx,
        "va_dist": va_dist,
    }
    return arrays, {"g": int(index.grid.g)}


def pack_silc(index) -> tuple[dict[str, np.ndarray], dict]:
    """A SILC index: Morton codes + flattened interval/exception lists.

    Exception keys are sorted per vertex so the worker-side lookup is a
    binary search over the vertex's slice.
    """
    n = index.n
    iv_indptr = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        iv_indptr[v + 1] = len(index.starts[v])
    np.cumsum(iv_indptr, out=iv_indptr)
    total = int(iv_indptr[-1])
    iv_start = np.empty(total, dtype=np.int64)
    iv_end = np.empty(total, dtype=np.int64)
    iv_color = np.empty(total, dtype=np.int64)
    for v in range(n):
        a, b = iv_indptr[v], iv_indptr[v + 1]
        iv_start[a:b] = index.starts[v]
        iv_end[a:b] = index.ends[v]
        iv_color[a:b] = index.colors[v]

    exc_indptr = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        exc_indptr[v + 1] = len(index.exceptions[v])
    np.cumsum(exc_indptr, out=exc_indptr)
    total = int(exc_indptr[-1])
    exc_key = np.empty(total, dtype=np.int64)
    exc_val = np.empty(total, dtype=np.int64)
    for v in range(n):
        a = int(exc_indptr[v])
        for k, (tgt, color) in enumerate(sorted(index.exceptions[v].items())):
            exc_key[a + k] = tgt
            exc_val[a + k] = color
    arrays = {
        "codes": np.asarray(index.codes, dtype=np.int64),
        "iv_indptr": iv_indptr,
        "iv_start": iv_start,
        "iv_end": iv_end,
        "iv_color": iv_color,
        "exc_indptr": exc_indptr,
        "exc_key": exc_key,
        "exc_val": exc_val,
    }
    return arrays, {"n": int(n)}


def pack_labels(index) -> tuple[dict[str, np.ndarray], dict]:
    """A hub-label index: its three flat arrays, published verbatim.

    The CSR-style label layout (:mod:`repro.core.labels.index`) is
    already exactly what the query kernels consume, so the segment is a
    byte-for-byte copy — workers rebuild a
    :class:`~repro.core.labels.HubLabelIndex` straight over the views.
    """
    return dict(index.core_arrays()), {"n": int(index.n)}


# ----------------------------------------------------------------------
# Publisher
# ----------------------------------------------------------------------
@dataclass
class StagedEpoch:
    """A weight epoch written to shared memory but not yet served."""

    segments: dict[str, shared_memory.SharedMemory]
    #: The manifest's ``techniques`` section once this epoch is live.
    techniques: dict[str, dict]
    fingerprint: GraphFingerprint


class SegmentSet:
    """Owner of one service's published segments.

    ``payloads`` maps technique name to ``(arrays, meta)`` as produced
    by the ``pack_*`` helpers. The constructor copies every array into
    its segment (the only copy in the system); :attr:`manifest` is the
    JSON-able description workers and inspectors attach from.
    """

    def __init__(
        self,
        payloads: dict[str, tuple[dict[str, np.ndarray], dict]],
        *,
        fingerprint: GraphFingerprint,
        dataset: str = "?",
        tier: str = "?",
    ) -> None:
        token = secrets.token_hex(4)
        self._token = token
        self._segments, techniques = self._build(
            payloads, lambda tech: f"rsv-{token}-{tech}"
        )
        self.manifest: dict = {
            "schema": SERVE_SCHEMA,
            "service": token,
            "dataset": dataset,
            "tier": tier,
            "publisher_pid": os.getpid(),
            "fingerprint": _fingerprint_entry(fingerprint),
            "techniques": techniques,
        }

    @staticmethod
    def _build(
        payloads: dict[str, tuple[dict[str, np.ndarray], dict]],
        name_for,
    ) -> tuple[dict[str, shared_memory.SharedMemory], dict[str, dict]]:
        """Create and fill one segment per technique.

        On failure, unlinks whatever it already created and re-raises —
        it never touches segments it did not create, so a failed
        :meth:`stage` leaves the live epoch serving.
        """
        segments: dict[str, shared_memory.SharedMemory] = {}
        techniques: dict[str, dict] = {}
        try:
            for tech, (arrays, meta) in payloads.items():
                arrays = {k: np.ascontiguousarray(a) for k, a in arrays.items()}
                specs, nbytes = _layout(arrays)
                name = name_for(tech)
                shm = shared_memory.SharedMemory(
                    create=True, name=name, size=max(nbytes, 1)
                )
                segments[tech] = shm
                for key, arr in arrays.items():
                    dst = np.ndarray(
                        arr.shape,
                        dtype=arr.dtype,
                        buffer=shm.buf,
                        offset=specs[key]["offset"],
                    )
                    dst[...] = arr
                techniques[tech] = {
                    "segment": name,
                    "nbytes": nbytes,
                    "meta": dict(meta),
                    "arrays": specs,
                }
        except BaseException:
            release_segments(segments)
            raise
        return segments, techniques

    def stage(
        self,
        payloads: dict[str, tuple[dict[str, np.ndarray], dict]],
        *,
        fingerprint: GraphFingerprint,
    ) -> "StagedEpoch":
        """Write a new weight epoch's segments *side by side*.

        The new segments are named ``rsv-<token>-e<epoch>-<tech>`` so
        they coexist with the epoch still being served. Nothing the
        serving side reads is touched — not the manifest, not the live
        segments — so this may run on another thread while queries are
        being answered. The result goes live through :meth:`flip`; a
        staged epoch that never will must be handed to
        :func:`release_segments` (``staged.segments``).
        """
        if set(payloads) != set(self._segments):
            raise SegmentError(
                "a staged epoch must cover exactly the published techniques "
                f"({sorted(self._segments)}), got {sorted(payloads)}"
            )
        epoch = fingerprint.epoch
        segments, techniques = self._build(
            payloads, lambda tech: f"rsv-{self._token}-e{epoch}-{tech}"
        )
        return StagedEpoch(segments, techniques, fingerprint)

    def flip(
        self, staged: "StagedEpoch"
    ) -> dict[str, shared_memory.SharedMemory]:
        """Point the manifest at a staged epoch; returns the old segments.

        The manifest (the same dict object the pool holds and respawned
        workers fork with) is updated in place. The caller unlinks the
        returned segments via :func:`release_segments` only after every
        worker has flipped and every in-flight batch on the old epoch
        has drained.
        """
        old = self._segments
        self._segments = staged.segments
        self.manifest["techniques"] = staged.techniques
        self.manifest["fingerprint"] = _fingerprint_entry(staged.fingerprint)
        return old

    @property
    def techniques(self) -> list[str]:
        return sorted(self._segments)

    def close(self) -> None:
        """Unmap and unlink every segment (idempotent).

        Segments are unlinked only here and in the epoch flip
        (:func:`release_segments` on what :meth:`flip` returned);
        either runs fine after worker crashes, since the publisher's
        mappings are untouched by a child dying.
        """
        release_segments(self._segments)

    def __enter__(self) -> "SegmentSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Attachment
# ----------------------------------------------------------------------
class AttachedSegments:
    """Zero-copy views over a published service's segments.

    ``arrays(tech)`` returns ``{name: ndarray}`` views backed directly
    by the mapped shared memory — nothing is copied or unpickled.
    :meth:`close` unmaps; it never unlinks (the publisher owns that).
    """

    def __init__(self, manifest: dict, *, foreign: bool = False) -> None:
        if not isinstance(manifest, dict) or manifest.get("schema") != SERVE_SCHEMA:
            got = manifest.get("schema") if isinstance(manifest, dict) else "?"
            raise SegmentError(
                f"manifest schema {got} unsupported (this release reads "
                f"{SERVE_SCHEMA})"
            )
        self.manifest = manifest
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._arrays: dict[str, dict[str, np.ndarray]] = {}
        try:
            for tech, entry in manifest["techniques"].items():
                try:
                    shm = _attach_shm(entry["segment"], foreign)
                except FileNotFoundError as exc:
                    raise SegmentError(
                        f"segment {entry['segment']!r} for technique "
                        f"{tech!r} is gone (service shut down?)"
                    ) from exc
                self._segments[tech] = shm
                self._arrays[tech] = _views(shm, entry["arrays"], where=tech)
        except BaseException:
            self.close()
            raise

    @property
    def techniques(self) -> list[str]:
        return sorted(self._arrays)

    def arrays(self, tech: str) -> dict[str, np.ndarray]:
        return self._arrays[tech]

    def meta(self, tech: str) -> dict:
        return self.manifest["techniques"][tech]["meta"]

    def close(self) -> None:
        # Views into the buffers must be dropped before unmapping or
        # SharedMemory.close() raises BufferError on exported pointers.
        self._arrays.clear()
        for shm in self._segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - live views remain
                pass
        self._segments.clear()

    def __enter__(self) -> "AttachedSegments":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_segments(manifest: dict, *, foreign: bool = False) -> AttachedSegments:
    """Attach a published service's segments (see :class:`AttachedSegments`).

    ``foreign=True`` marks a process outside the publisher's fork
    family (an inspector CLI, a test subprocess); it switches on the
    pre-3.13 resource-tracker workaround so the inspector's exit cannot
    unlink the live service's memory.
    """
    return AttachedSegments(manifest, foreign=foreign)


# ----------------------------------------------------------------------
# Ring transport: request ring + pair/result arenas
# ----------------------------------------------------------------------
def _ring_arrays(n_slots: int, slot_pairs: int) -> dict[str, np.ndarray]:
    """Zeroed prototype arrays for a ring of ``n_slots`` slots.

    - ``ring``    — one :data:`SLOT_WORDS`-word int64 descriptor per slot
      (whole cache lines, so two workers never false-share a descriptor;
      words 7..12 carry the request id and stage timestamps for the
      telemetry plane);
    - ``pairs``   — the int32 request arena: slot ``i`` owns rows
      ``[i*slot_pairs, (i+1)*slot_pairs)``;
    - ``results`` — the float64 reply arena, same row ownership;
    - ``errors``  — :data:`ERR_BYTES` of utf-8 per slot for the rare
      worker-side exception message.
    """
    cap = n_slots * slot_pairs
    return {
        "ring": np.zeros((n_slots, SLOT_WORDS), dtype=np.int64),
        "pairs": np.zeros((cap, 2), dtype=np.int32),
        "results": np.zeros(cap, dtype=np.float64),
        "errors": np.zeros((n_slots, ERR_BYTES), dtype=np.uint8),
    }


class RingBuffers:
    """Publisher-owned shared-memory ring: descriptors + arenas.

    The zero-copy transport between the scheduler and the workers
    (:class:`repro.serve.pool.RingPool`): the scheduler writes request
    pairs into the ``pairs`` arena and publishes a slot by bumping its
    ``SLOT_SEQ`` word; the worker writes distances straight into the
    ``results`` arena and acknowledges by copying ``SLOT_SEQ`` into
    ``SLOT_COMMIT`` *after* the last result store — so a slot whose
    commit word trails its sequence word was killed mid-flight and must
    be retried, while a committed slot's results are complete even if
    the worker died before its wakeup byte left the pipe.

    Ownership mirrors :class:`SegmentSet`: the creator alone unlinks
    (:meth:`close`); workers attach via :class:`AttachedRing` and only
    unmap. The manifest carries the layout under the ``"transport"``
    key (:attr:`manifest_entry`), same spec format as index segments.
    """

    def __init__(
        self, n_slots: int, slot_pairs: int, *, token: str | None = None
    ) -> None:
        if n_slots < 1 or slot_pairs < 1:
            raise ValueError(
                f"ring needs positive dimensions, got {n_slots}x{slot_pairs}"
            )
        self.n_slots = n_slots
        self.slot_pairs = slot_pairs
        arrays = _ring_arrays(n_slots, slot_pairs)
        self._specs, nbytes = _layout(arrays)
        name = f"rsv-{token or secrets.token_hex(4)}-ring"
        self._shm = shared_memory.SharedMemory(
            create=True, name=name, size=max(nbytes, 1)
        )
        views = _views(self._shm, self._specs, where="ring")
        self.ring = views["ring"]
        self.pairs = views["pairs"]
        self.results = views["results"]
        self.errors = views["errors"]
        self.ring[...] = 0
        self.manifest_entry: dict = {
            "kind": "ring",
            "segment": name,
            "nbytes": nbytes,
            "n_slots": n_slots,
            "slot_pairs": slot_pairs,
            "arrays": self._specs,
        }

    def close(self) -> None:
        """Unmap and unlink the ring segment (idempotent)."""
        if self._shm is None:
            return
        self.ring = self.pairs = self.results = self.errors = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - live views remain
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._shm = None

    def __enter__(self) -> "RingBuffers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AttachedRing:
    """A worker's zero-copy view of a published :class:`RingBuffers`.

    Attach-only (never unlinks), same resource-tracker hygiene as
    :class:`AttachedSegments`.
    """

    def __init__(self, entry: dict, *, foreign: bool = False) -> None:
        if not isinstance(entry, dict) or entry.get("kind") != "ring":
            raise SegmentError(f"not a ring transport entry: {entry!r}")
        self.n_slots = int(entry["n_slots"])
        self.slot_pairs = int(entry["slot_pairs"])
        try:
            self._shm = _attach_shm(entry["segment"], foreign)
        except FileNotFoundError as exc:
            raise SegmentError(
                f"ring segment {entry['segment']!r} is gone "
                f"(service shut down?)"
            ) from exc
        try:
            views = _views(self._shm, entry["arrays"], where="ring")
        except BaseException:
            self.close()
            raise
        self.ring = views["ring"]
        self.pairs = views["pairs"]
        self.results = views["results"]
        self.errors = views["errors"]

    def close(self) -> None:
        self.ring = self.pairs = self.results = self.errors = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - live views remain
                pass
            self._shm = None

    def __enter__(self) -> "AttachedRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Manifest files (for cross-process inspection)
# ----------------------------------------------------------------------
def save_manifest(path: str | os.PathLike, manifest: dict) -> str:
    """Write a manifest as JSON; returns the path."""
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_manifest(path: str | os.PathLike) -> dict:
    """Read a manifest written by :func:`save_manifest` (schema-checked)."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("schema") != SERVE_SCHEMA:
        raise SegmentError(f"{path}: not a serve manifest (schema mismatch)")
    return manifest
