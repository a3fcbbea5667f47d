"""The query service: publish segments, run the pool, serve requests.

:class:`QueryService` is the one-stop assembly of the serving
subsystem: it packs the registry's built indexes into shared-memory
segments (:mod:`repro.serve.segments`), starts a
:class:`~repro.serve.pool.RingPool` over them and fronts it with a
:class:`~repro.serve.scheduler.BatchingScheduler`. The
``repro-harness service {start,status,stats,clean}`` CLI is a thin
driver over this class.

Lifecycle::

    with QueryService(ServiceConfig(dataset="DE", workers=2)) as svc:
        fut = svc.submit("ch", [(0, 17), (3, 99)])
        svc.drain()
        fut.result()  # [d(0,17), d(3,99)]

Weight updates (``apply_updates``) run as an epoch pipeline: the call
only checks and queues the batch; one repair thread owned by the
service repairs the indexes and writes the next epoch's segments beside
the live ones; the thread that pumps the service flips a finished epoch
live between micro-batches (docs/SERVING.md, "Weight epochs").

Shutdown order matters: the repair thread is joined first (it writes
segments), then workers stop (they unmap), then the publisher unlinks
the segments. A crashed worker changes nothing — the publisher's
mappings survive child death, so ``close()`` still frees every segment.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from repro import obs
from repro.harness.registry import Registry
from repro.obs.registry import MetricsRegistry, to_prometheus
from repro.obs.shm import MetricsPlane, PlaneMirror
from repro.persistence import GraphFingerprint
from repro.serve.pool import RingPool
from repro.serve.scheduler import BatchingScheduler, QueryFuture
from repro.serve.segments import (
    SegmentSet,
    StagedEpoch,
    pack_ch,
    pack_graph,
    pack_labels,
    pack_silc,
    pack_tnr,
    release_segments,
)

#: Techniques the service understands. ``pcpd`` is known but has no
#: segment packer (its per-vertex shortest-path trees are a path/distance
#: oracle too large to serve); requests for it degrade gracefully to the
#: scheduler's fallback, which exercises the degradation path end to end.
KNOWN_TECHNIQUES = ("dijkstra", "ch", "tnr", "silc", "pcpd", "labels")

#: Techniques that can actually be published into segments.
PUBLISHABLE = ("dijkstra", "ch", "tnr", "silc", "labels")

#: What counts as a vertex id at admission (Python and NumPy integers).
_INTEGRAL = (int, np.integer)


@dataclass
class ServiceConfig:
    """Everything a :class:`QueryService` needs to come up."""

    dataset: str = "DE"
    tier: str = "small"
    workers: int = 2
    techniques: tuple[str, ...] = ("ch",)
    max_batch: int = 256
    #: Per-technique batch caps; None = scheduler defaults
    #: (:data:`repro.serve.scheduler.TECHNIQUE_BATCH_CAPS`).
    max_batch_overrides: dict | None = None
    batch_window_s: float = 0.002
    max_queue: int = 1024
    #: Ring sizing: request slots in the shared ring (each slot carries
    #: up to ``max_batch`` pairs).
    ring_slots: int = 64
    cache: str = "auto"
    extra: dict = field(default_factory=dict)


def build_payloads(
    registry: Registry, dataset: str, techniques: Sequence[str]
) -> dict:
    """Pack the requested techniques' indexes for publication.

    ``dijkstra`` (the graph itself) is always included — it is the
    degradation target and SILC's edge-weight source; requesting
    ``tnr`` pulls in ``ch`` as its fallback. Unknown names raise,
    unpublishable ones (``pcpd``) are skipped — the scheduler will
    degrade requests for them instead.
    """
    want = {t.lower() for t in techniques}
    unknown = want - set(KNOWN_TECHNIQUES)
    if unknown:
        raise ValueError(
            f"unknown technique(s) {sorted(unknown)} "
            f"(known: {list(KNOWN_TECHNIQUES)})"
        )
    want &= set(PUBLISHABLE)
    want.add("dijkstra")
    if "tnr" in want:
        want.add("ch")
    graph = registry.graph(dataset)
    csr = graph.csr()
    payloads: dict = {"dijkstra": pack_graph(csr)}
    if "ch" in want:
        payloads["ch"] = pack_ch(registry.ch(dataset))
    if "tnr" in want:
        payloads["tnr"] = pack_tnr(registry.tnr(dataset))
    if "silc" in want:
        payloads["silc"] = pack_silc(registry.silc(dataset).index)
    if "labels" in want:
        payloads["labels"] = pack_labels(registry.hub_labels_index(dataset))
    return payloads


class _EpochJob:
    """One accepted weight update on its way to going live.

    Written by the repair thread up to ``ready.set()`` and read by the
    serving thread only after it — the event is the hand-over.
    """

    __slots__ = ("report", "edges", "weights", "t_call", "ready", "done",
                 "staged", "repair_us", "error")

    def __init__(self, report, edges, weights) -> None:
        #: The caller's handle, completed in place at go-live.
        self.report = report
        self.edges = edges
        self.weights = weights
        self.t_call = time.perf_counter()
        self.ready = threading.Event()
        #: The repair thread's own report (None until repaired).
        self.done = None
        self.staged: StagedEpoch | None = None
        self.repair_us = 0.0
        self.error: BaseException | None = None


class QueryService:
    """Segments + pool + scheduler, assembled and torn down together."""

    def __init__(
        self, config: ServiceConfig, registry: Registry | None = None
    ) -> None:
        self.config = config
        self.registry = registry or Registry(
            tier=config.tier, cache=config.cache, verbose=False
        )
        with obs.span("serve.publish"):
            payloads = build_payloads(
                self.registry, config.dataset, config.techniques
            )
            csr = self.registry.graph(config.dataset).csr()
            self.segments = SegmentSet(
                payloads,
                fingerprint=GraphFingerprint.of_csr(csr),
                dataset=config.dataset,
                tier=config.tier,
            )
        try:
            with obs.span("serve.pool_start"):
                self.pool = RingPool(
                    self.segments.manifest,
                    n_workers=config.workers,
                    ring_slots=config.ring_slots,
                    slot_pairs=config.max_batch,
                ).start()
            self.scheduler = BatchingScheduler(
                self.pool,
                published=self.segments.techniques,
                known=KNOWN_TECHNIQUES,
                max_batch=config.max_batch,
                max_batch_overrides=config.max_batch_overrides,
                batch_window_s=config.batch_window_s,
                max_queue=config.max_queue,
            )
            # Scheduler-side metrics plane: mirrors *this* process's
            # registry (serve.e2e_us, shed counters, ...) into shared
            # memory so a foreign `service stats --watch` dashboard sees
            # the scheduler's half of the story too. Registered in the
            # manifest next to the worker planes.
            token = self.manifest.get("service") or f"{os.getpid():x}"
            self._plane = MetricsPlane(f"rsv-{token}-mwsched")
            self._plane.set_pid(os.getpid())
            self.manifest.setdefault("metrics", {})["scheduler"] = (
                self._plane.entry
            )
            self._mirror = PlaneMirror(self._plane)
            obs.registry().set_mirror(self._mirror)
        except BaseException:
            pool = getattr(self, "pool", None)
            if pool is not None:
                try:
                    pool.stop()
                except Exception:
                    pass
            plane = getattr(self, "_plane", None)
            if plane is not None:
                plane.close()
            self.segments.close()
            raise
        # The vertex count requests are checked against at admission;
        # epochs change weights, never topology.
        self._n_vertices = int(self.manifest["fingerprint"]["n"])
        self._prev_usr1 = None
        self._closed = False
        self._dyn = None
        # The epoch pipeline (apply_updates -> repair thread -> flip on
        # the serving loop). _pending is touched by the serving thread
        # only; jobs cross to the repair thread through _jobs and come
        # back through their ready event.
        self._pending: deque[_EpochJob] = deque()
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._repairer: threading.Thread | None = None
        self._repair_failure: BaseException | None = None

    # ------------------------------------------------------------------
    @property
    def manifest(self) -> dict:
        return self.segments.manifest

    @property
    def published(self) -> list[str]:
        return self.segments.techniques

    @property
    def epoch(self) -> int:
        """The weight epoch currently being served."""
        return self.scheduler.epoch

    def _dynamic_state(self):
        """Build (once) the repairable index state behind this service.

        Constructed lazily on the first :meth:`apply_updates`, on the
        calling thread — a static service never pays for the CCH
        scaffold. From then on only the repair thread touches it. The
        witness CH
        and TNR grid side come from the same registry builds the
        publisher packed, so epoch 0's repaired indexes answer
        identically to what is already in the segments.
        """
        if self._dyn is None:
            from repro.dynamic import DynamicState

            dataset = self.config.dataset
            graph = self.registry.graph(dataset)
            tnr_g = None
            if "tnr" in self.published:
                tnr_g = int(self.manifest["techniques"]["tnr"]["meta"]["g"])
            self._dyn = DynamicState(
                graph,
                self.registry.ch(dataset),
                with_labels="labels" in self.published,
                tnr_grid=tnr_g,
            )
        return self._dyn

    def apply_updates(self, edges, new_weights):
        """Accept one weight-update batch; it goes live in the background.

        The call checks the batch, queues it and returns at once — the
        serving loop keeps admitting, dispatching and scattering on the
        current epoch while the rest happens (docs/SERVING.md):

        1. **Repair** (repair thread): every published index is repaired
           incrementally (:meth:`repro.dynamic.DynamicState.apply_updates`).
        2. **Stage** (repair thread): the new epoch's payloads are packed
           and written into fresh segments, side by side with the ones
           being served.
        3. **Flip** (the thread that calls :meth:`pump` / :meth:`drain`
           / :meth:`wait_live`, at its next call once 1–2 are done):
           drain the scheduler — batches in flight complete on the epoch
           they were admitted under — point the manifest at the staged
           segments, barrier every worker onto them
           (:meth:`~repro.serve.pool.RingPool.flip_epoch`), unlink the
           old segments, bump the admission epoch.

        Updates go live one epoch per call, in call order, never merged:
        the ``k``-th accepted call becomes epoch ``k``. Returns that
        epoch's :class:`~repro.dynamic.RepairReport` with ``live=False``
        and only ``epoch`` / ``changed_edges`` set; the same object is
        filled in when the epoch goes live (``live=True``), or gets
        ``error`` set if it never will. Until then every request is
        admitted, answered and stamped on the old epoch.

        Raises here, with nothing queued: ``ValueError`` / ``KeyError``
        for a bad batch (:func:`repro.dynamic.validate_batch`),
        ``ValueError`` if a published technique has no repair path
        (``silc``'s interval tree is rebuild-only), ``RuntimeError``
        once an earlier repair has failed. A failure *inside* the repair
        is re-raised by the next :meth:`pump` / :meth:`drain` /
        :meth:`wait_live`; the service keeps answering on the last live
        epoch.

        The first call is the service's one-time switch to dynamic
        serving and does block: it builds the repairable state (the CCH
        scaffold, about a second) and waits for its own epoch to go
        live, so it returns a completed report.
        """
        from repro.dynamic import REPAIRABLE, RepairReport, validate_batch

        if self._closed:
            raise RuntimeError("the service is closed")
        unsupported = set(self.published) - set(REPAIRABLE)
        if unsupported:
            raise ValueError(
                f"technique(s) {sorted(unsupported)} cannot be repaired "
                f"incrementally (repairable: {list(REPAIRABLE)})"
            )
        if self._repair_failure is not None:
            raise RuntimeError(
                "an earlier weight update failed in repair; the service "
                f"stays on epoch {self.epoch} and accepts no more updates"
            ) from self._repair_failure
        # Private copies: the caller may reuse its lists once we return.
        edges = [(int(u), int(v)) for u, v in edges]
        new_weights = [float(w) for w in new_weights]
        csr = self.registry.graph(self.config.dataset).csr()
        validate_batch(csr, edges, new_weights)
        first = self._dyn is None
        self._dynamic_state()
        report = RepairReport(
            epoch=self.epoch + len(self._pending) + 1,
            changed_edges=len(edges),
            live=False,
        )
        job = _EpochJob(report, edges, new_weights)
        self._pending.append(job)
        if self._repairer is None:
            self._repairer = threading.Thread(
                target=self._repair_loop, name="repro-serve-repair",
                daemon=True,
            )
            self._repairer.start()
        self._jobs.put(job)
        if obs.ENABLED:
            obs.registry().gauge("serve.updates_pending").set(
                len(self._pending)
            )
        if first:
            # This call has already held the loop for the scaffold
            # build: see its epoch live too, so the whole one-time cost
            # is paid here instead of trickling into the caller's next
            # second through a repair thread competing for the GIL.
            self.wait_live()
        return report

    # -- the repair thread ---------------------------------------------
    def _repair_loop(self) -> None:
        """Repair and stage queued updates, strictly in call order.

        After a failure nothing later runs: epoch ``k+1`` is defined on
        top of epoch ``k``, and a repair that raised may have left the
        dynamic state half-advanced.
        """
        while True:
            job = self._jobs.get()
            if job is None:
                return
            if self._repair_failure is None and not self._closed:
                try:
                    self._repair(job)
                except Exception as exc:  # handed to the serving thread
                    self._repair_failure = exc
            job.error = self._repair_failure
            job.ready.set()

    def _repair(self, job: _EpochJob) -> None:
        st = self._dyn
        t0 = time.perf_counter()
        with obs.span("serve.repair"):
            done = st.apply_updates(job.edges, job.weights)
        job.repair_us = (time.perf_counter() - t0) * 1e6
        if done.epoch != job.report.epoch:
            raise RuntimeError(
                f"repair produced epoch {done.epoch} for the update "
                f"accepted as epoch {job.report.epoch}"
            )
        with obs.span("serve.stage_epoch"):
            payloads: dict = {"dijkstra": pack_graph(st.csr)}
            if "ch" in self.published:
                payloads["ch"] = pack_ch(st.ch)
            if "tnr" in self.published:
                payloads["tnr"] = pack_tnr(SimpleNamespace(index=st.tnr))
            if "labels" in self.published:
                payloads["labels"] = pack_labels(st.labels)
            job.staged = self.segments.stage(
                payloads, fingerprint=st.current.fingerprint
            )
        job.done = done

    # -- the serving thread's half -------------------------------------
    def _flip_ready(self) -> int:
        """Flip every epoch whose repair has finished, oldest first.

        Returns the requests the drains resolved. Re-raises a repair
        failure (once), after marking that update and every one queued
        behind it failed.
        """
        resolved = 0
        while self._pending and self._pending[0].ready.is_set():
            job = self._pending[0]
            if job.error is not None:
                for dropped in self._pending:
                    dropped.report.error = job.error
                self._pending.clear()
                if obs.ENABLED:
                    obs.registry().gauge("serve.updates_pending").set(0)
                raise job.error
            resolved += self._go_live(job)
        return resolved

    def _go_live(self, job: _EpochJob) -> int:
        t_swap = time.perf_counter()
        # Everything admitted so far was stamped with the old epoch:
        # dispatch and finish it there. A drain that times out leaves
        # the job pending for the next call.
        resolved = self.scheduler.drain()
        self._pending.popleft()
        old = self.segments.flip(job.staged)
        try:
            self.pool.flip_epoch()
        finally:
            # Unlinking frees the names, not the mappings: a worker that
            # failed to flip still answers — on the old epoch, which the
            # scheduler's epoch audit then refuses.
            release_segments(old)
        self.scheduler.epoch = job.report.epoch
        now = time.perf_counter()
        vars(job.report).update(vars(job.done))
        if obs.ENABLED:
            reg = obs.registry()
            reg.gauge("serve.epoch").set(self.epoch)
            reg.gauge("serve.updates_pending").set(len(self._pending))
            reg.histogram("serve.swap_us").observe((now - t_swap) * 1e6)
            reg.histogram("serve.repair_us").observe(job.repair_us)
            reg.histogram("serve.update_lag_us").observe(
                (now - job.t_call) * 1e6
            )
        return resolved

    def wait_live(self, timeout_s: float = 60.0) -> int:
        """Block until every update accepted so far is live.

        Returns the epoch then being served. Raises ``TimeoutError`` if
        a repair is still running after ``timeout_s``, and re-raises a
        repair failure like :meth:`pump` does.
        """
        deadline = time.monotonic() + timeout_s
        while self._pending:
            head = self._pending[0]
            if not head.ready.wait(max(deadline - time.monotonic(), 0.0)):
                raise TimeoutError(
                    f"epoch {head.report.epoch} is still being repaired "
                    f"after {timeout_s:.0f}s"
                )
            self._flip_ready()
        return self.epoch

    def submit(self, technique, pairs, deadline_s=None) -> QueryFuture:
        """Admit one request (see :meth:`BatchingScheduler.submit`).

        Every vertex id must be an integer in ``[0, n)``; anything else
        raises ``ValueError`` here, before a request id is issued or
        anything is queued. A kernel would wrap a negative id around to
        another vertex's answer, and an id past the end would fail the
        whole coalesced batch, innocent requests included.
        """
        n = self._n_vertices
        for s, t in pairs:
            if not (
                isinstance(s, _INTEGRAL) and isinstance(t, _INTEGRAL)
                and 0 <= s < n and 0 <= t < n
            ):
                raise ValueError(
                    f"pair ({s!r}, {t!r}): vertex ids must be integers "
                    f"in [0, {n})"
                )
        return self.scheduler.submit(technique, pairs, deadline_s=deadline_s)

    def pump(self, block_s: float = 0.0) -> int:
        """One scheduling step, then flip any epoch that became ready.

        Returns the number of requests resolved, those finished by a
        flip's drain included.
        """
        resolved = self.scheduler.pump(block_s)
        if self._pending:
            resolved += self._flip_ready()
        return resolved

    def drain(self, timeout_s: float = 60.0) -> None:
        """Resolve everything submitted so far (see :meth:`pump` for
        epochs: ready ones flip, running repairs are not waited for)."""
        if self._pending:
            self._flip_ready()
        self.scheduler.drain(timeout_s)

    def status(self) -> dict:
        """A JSON-able snapshot for ``service status`` and tests.

        ``workers`` is the per-worker telemetry section sourced from the
        shm metrics planes (pid as claimed by the worker itself, batches
        served, seconds since its last commit); ``n_workers`` is the
        configured pool size. The schema is documented in
        docs/SERVING.md.
        """
        return {
            "dataset": self.config.dataset,
            "tier": self.config.tier,
            "transport": self.pool.transport,
            "n_workers": self.pool.n_workers,
            "workers": self.pool.worker_status(),
            "worker_pids": self.pool.worker_pids,
            "published": self.published,
            "segment_bytes": {
                tech: entry["nbytes"]
                for tech, entry in self.manifest["techniques"].items()
            },
            "worker_restarts": self.pool.restarts,
            "batches_done": self.pool.batches_done,
            "pending_updates": len(self._pending),
            **self.scheduler.stats(),
        }

    def merged_snapshot(self) -> dict:
        """One schema-versioned snapshot of the whole service.

        Aggregates, via :meth:`MetricsRegistry.merge_snapshot`:

        - this process's registry (scheduler counters, e2e/stage
          histograms) — read directly, *not* through the scheduler
          plane, so nothing double-counts;
        - every live worker's metrics plane;
        - :attr:`RingPool.retired` — instruments harvested from
          workers that died and were restarted;
        - per-worker ``serve.worker.<i>.{pid,batches}`` gauges from the
          plane headers.
        """
        merged = MetricsRegistry()
        merged.merge_snapshot(obs.registry().snapshot())
        merged.merge_snapshot(self.pool.retired.snapshot())
        for snap in self.pool.worker_snapshots():
            merged.merge_snapshot(snap)
        for row in self.pool.worker_status():
            i = row["worker"]
            merged.gauge(f"serve.worker.{i}.pid").set(row["pid"] or 0)
            merged.gauge(f"serve.worker.{i}.batches").set(row["batches"])
        return merged.snapshot()

    def write_metrics(self, path: str | os.PathLike) -> str:
        """Dump :meth:`merged_snapshot` as Prometheus text to ``path``."""
        text = to_prometheus(self.merged_snapshot())
        path = os.fspath(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def install_usr1_snapshot(self, path: str | os.PathLike) -> None:
        """SIGUSR1 → :meth:`write_metrics` to ``path`` (live dumps).

        ``kill -USR1 <service pid>`` snapshots a running service
        without stopping it; the previous handler is restored at
        :meth:`close`. Main thread only (a signal.signal constraint).
        """
        def _handler(signum, frame):
            try:
                self.write_metrics(path)
            except Exception:  # pragma: no cover - never die on a dump
                pass

        self._prev_usr1 = signal.signal(signal.SIGUSR1, _handler)

    def close(self) -> None:
        """Stop the repair thread and the workers, then unlink segments
        (idempotent). Updates that are not live yet never will be: their
        reports get ``error`` set and their staged segments are freed."""
        if self._closed:
            return
        self._closed = True
        if self._repairer is not None:
            # _closed makes the thread skip what it has not started; a
            # repair under way runs to its end (it cannot be interrupted
            # between NumPy calls without leaving segments behind).
            self._jobs.put(None)
            self._repairer.join()
            self._repairer = None
        for job in self._pending:
            if job.staged is not None:
                release_segments(job.staged.segments)
            if job.report.error is None:
                job.report.error = RuntimeError(
                    f"service closed before epoch {job.report.epoch} "
                    "went live"
                )
        self._pending.clear()
        if self._prev_usr1 is not None:
            try:
                signal.signal(signal.SIGUSR1, self._prev_usr1)
            except (ValueError, OSError):  # pragma: no cover
                pass
            self._prev_usr1 = None
        reg = obs.registry()
        if getattr(reg, "_mirror", None) is self._mirror:
            reg.set_mirror(None)
        try:
            self.pool.stop()
        finally:
            self._plane.close()
            self.segments.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_workload(
    service: QueryService,
    technique: str,
    requests: Sequence[Sequence[tuple[int, int]]],
    deadline_s: float | None = None,
) -> tuple[list[QueryFuture], float]:
    """Push a request stream through the service; returns (futures, secs).

    Requests are submitted as fast as the queue admits, pumping the
    scheduler between submissions; the clock stops when the last answer
    lands.
    """
    futures: list[QueryFuture] = []
    started = time.perf_counter()
    for req in requests:
        futures.append(service.submit(technique, req, deadline_s=deadline_s))
        service.pump()
    service.drain()
    elapsed = time.perf_counter() - started
    return futures, elapsed
