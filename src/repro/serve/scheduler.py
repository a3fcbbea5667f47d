"""Request scheduler: micro-batching, admission control, retries.

Requests enter as ``(technique, pairs)`` and come back as
:class:`QueryFuture`\\ s. The scheduler coalesces compatible requests —
same technique, arrival within the batch window — into one
``batched_distances`` call on a pool worker, which is where the serving
throughput comes from: one deduplicated many-to-many table amortises
the per-query upward-search cost across every request in the batch.

Requests are never split across batches: a batch is whole requests
packed greedily up to ``max_batch`` pairs (an oversized request gets a
batch of its own). Because every technique's answers are exact per
entry, the partitioning cannot change any result bit — the service
answers bit-identical to an in-process ``batched_distances`` over the
same pairs regardless of how traffic happened to coalesce.

Batch sizing is technique-aware: ``max_batch`` is the global cap, and
``max_batch_overrides`` (defaulting to :data:`TECHNIQUE_BATCH_CAPS`)
caps individual techniques below it. TNR is the motivating case: it
once served through a deduplicated source x target ``distance_table``
grid — quadratic work for linear answers on coalesced batches (the
ROADMAP's "TNR serving cliff"). The linear ``distance_pairs`` path
removed the cliff; TNR's cap now bounds the padded Equation-1 gather
scratch (batch x access x access floats) instead. The
``serve.batch_pairs.<technique>`` histograms record what was actually
dispatched.

Admission control is load-shedding, not queueing-forever:

- a bounded queue — submissions beyond ``max_queue`` waiting requests
  raise :class:`Overloaded` immediately (counter ``serve.shed_queue``);
- per-request deadlines — a request whose deadline passed while it
  waited is shed at dispatch time, before any worker spends cycles on
  it (counter ``serve.shed_deadline``); both shed paths also bump the
  aggregate ``serve.shed``;
- graceful degradation — a request for a known technique that is not
  published in this service's segments is answered by ``degrade_to``
  (bidirectional Dijkstra by default) with the future's ``degraded``
  flag set, rather than erroring (counter ``serve.degraded``);
- ring backpressure — a batch that cannot get ring slots
  (:class:`~repro.serve.pool.RingFull`) is *held*, not lost:
  it parks in a blocked queue (counter ``serve.ring_full``, wait time
  in the ``serve.slot_wait_us`` histogram) and re-dispatches as soon
  as completions recycle slots. Held batches still count against
  ``max_queue``, so a jammed ring feeds the same typed
  :class:`Overloaded` shed path as a full queue.

A batch whose worker died is retried exactly once on the restarted
pool (counter ``serve.retries``); a second death fails its futures.

Telemetry: every request gets a monotonically increasing ``request_id``
and every batch carries stage timestamps (enqueue → batch-form →
slot-publish → worker-start → commit → scatter) through the ring's
slot words, feeding the ``serve.e2e_us`` and
``serve.stage_us.<stage>`` histograms. A bounded
:class:`FlightRecorder` keeps the last N terminal request records
(done/failed/shed, with latency and retry/degrade flags) for
post-mortem inspection regardless of whether obs is enabled.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Sequence

import numpy as np

from repro import obs
from repro.serve.pool import RingFull, RingPool

Pair = tuple[int, int]

#: Default per-technique batch caps (pairs), applied below the global
#: ``max_batch``. TNR's vectorised ``distance_pairs`` path evaluates a
#: padded ``batch x access x access`` Equation-1 tensor per batch; the
#: cap bounds that scratch while staying deep enough that coalescing
#: still amortises the numpy dispatch overhead (measured knee ~64 on
#: DE-small; see docs/PERFORMANCE.md).
TECHNIQUE_BATCH_CAPS: dict[str, int] = {"tnr": 64}


class Overloaded(RuntimeError):
    """The service queue is full — the request was rejected unserved."""


class QueryFuture:
    """Handle to one submitted request.

    ``status`` is ``"pending"`` until the scheduler resolves it to
    ``"done"`` (``distances`` holds one float per submitted pair, in
    order), ``"shed"`` (deadline passed before dispatch) or
    ``"failed"`` (``error`` holds the message). ``degraded`` marks
    requests answered by the fallback technique.
    """

    __slots__ = ("technique", "pairs", "deadline", "submitted_at", "status",
                 "distances", "error", "degraded", "request_id", "epoch",
                 "served_epoch")

    def __init__(
        self,
        technique: str,
        pairs: Sequence[Pair],
        deadline: float | None,
        degraded: bool,
    ) -> None:
        self.technique = technique
        self.pairs = list(pairs)
        self.deadline = deadline
        self.submitted_at = time.monotonic()
        self.status = "pending"
        self.distances: list[float] | None = None
        self.error: str | None = None
        self.degraded = degraded
        #: Assigned by the scheduler at admission (0 = unassigned).
        self.request_id = 0
        #: Weight epoch the request was admitted under; the scheduler
        #: guarantees the answer was computed at exactly this epoch.
        self.epoch = 0
        #: Epoch the worker reports having answered under (set on done;
        #: ``None`` until then, or when the transport carries no tag).
        self.served_epoch: int | None = None

    @property
    def done(self) -> bool:
        return self.status != "pending"

    def result(self) -> list[float]:
        """The distances, or raise for shed/failed requests."""
        if self.status == "done":
            assert self.distances is not None
            return self.distances
        if self.status == "shed":
            raise Overloaded(self.error or "request shed")
        if self.status == "failed":
            raise RuntimeError(self.error or "request failed")
        raise RuntimeError("request still pending — drain() the scheduler")


class FlightRecorder:
    """Bounded ring of the last N terminal request records.

    Always on (a deque append per terminal request is noise next to a
    dispatch): after an incident — sheds, retries, a worker death — the
    recorder holds what happened to the most recent requests without
    requiring obs to have been enabled in advance.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._records: deque[dict] = deque(maxlen=capacity)
        #: Total records ever taken (so overflow is detectable).
        self.recorded = 0

    def record(self, entry: dict) -> None:
        self._records.append(entry)
        self.recorded += 1

    def records(self) -> list[dict]:
        """Oldest-to-newest copy of the retained records."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)


class _Batch:
    """One dispatched unit: whole requests for a single technique."""

    __slots__ = ("batch_id", "technique", "requests", "pairs", "retries",
                 "blocked_since", "request_id", "t_enq_us", "t_form_us",
                 "epoch")

    def __init__(self, batch_id: int, technique: str,
                 requests: list[QueryFuture]) -> None:
        self.batch_id = batch_id
        self.technique = technique
        self.requests = requests
        self.pairs: list[Pair] = [p for r in requests for p in r.pairs]
        self.retries = 0
        #: Admission epoch of the batch's requests. Batches only form
        #: from a single epoch's queue: the swap protocol drains the
        #: scheduler before bumping :attr:`BatchingScheduler.epoch`.
        self.epoch = requests[0].epoch
        #: When the ring first refused this batch (None = never held).
        self.blocked_since: float | None = None
        #: Telemetry: head request id + stage stamps (monotonic µs).
        self.request_id = requests[0].request_id
        self.t_enq_us = min(int(r.submitted_at * 1e6) for r in requests)
        self.t_form_us = int(time.monotonic() * 1e6)

    def scatter(self, distances) -> None:
        # One ndarray.tolist() per request instead of a per-pair float()
        # loop: same exact float64 values, and it also consumes ring
        # arena views immediately (they are only valid until the next
        # poll recycles their slots).
        arr = np.asarray(distances, dtype=np.float64)
        offset = 0
        for r in self.requests:
            k = len(r.pairs)
            r.distances = arr[offset:offset + k].tolist()
            r.status = "done"
            offset += k

    def fail(self, message: str) -> None:
        for r in self.requests:
            r.status = "failed"
            r.error = message


class BatchingScheduler:
    """Coalesce requests into batches and drive them through the pool."""

    def __init__(
        self,
        pool: RingPool,
        published: Sequence[str],
        *,
        known: Sequence[str] | None = None,
        max_batch: int = 256,
        max_batch_overrides: dict[str, int] | None = None,
        batch_window_s: float = 0.002,
        max_queue: int = 1024,
        degrade_to: str = "dijkstra",
    ) -> None:
        if degrade_to not in published:
            raise ValueError(
                f"degradation target {degrade_to!r} is not published "
                f"(published: {sorted(published)})"
            )
        self.pool = pool
        self.published = frozenset(published)
        self.known = frozenset(known) if known is not None else self.published
        self.max_batch = max_batch
        if max_batch_overrides is None:
            max_batch_overrides = TECHNIQUE_BATCH_CAPS
        self.max_batch_overrides = dict(max_batch_overrides)
        self.batch_window_s = batch_window_s
        self.max_queue = max_queue
        self.degrade_to = degrade_to
        #: Waiting requests per technique, in arrival order.
        self._queues: dict[str, deque[QueryFuture]] = {}
        #: Oldest-waiter timestamp per technique (window aging).
        self._oldest: dict[str, float] = {}
        self._inflight: dict[int, _Batch] = {}
        #: Batches held back by ring backpressure, FIFO.
        self._blocked: deque[_Batch] = deque()
        self._next_batch_id = 0
        self._next_request_id = 1
        #: Last-N terminal request records (always on).
        self.flight = FlightRecorder()
        #: Current weight epoch; bumped by the service *after* a drain +
        #: worker flip (both on the thread that pumps this scheduler),
        #: so every admitted request is answered at its admission epoch
        #: (audited per reply below).
        self.epoch = 0
        # Stats (mirrored into obs counters when enabled).
        self.dispatched_batches = 0
        self.dispatched_pairs = 0
        self.shed = 0
        self.degraded = 0
        self.retries = 0
        self.ring_full = 0
        self.epoch_mismatches = 0

    # ------------------------------------------------------------------
    def max_batch_for(self, technique: str) -> int:
        """The effective batch cap: the global cap, overridden per
        technique (overrides never raise it above the global cap)."""
        override = self.max_batch_overrides.get(technique)
        if override is None:
            return self.max_batch
        return min(self.max_batch, override)

    @property
    def queued(self) -> int:
        """Waiting requests — both undispatched and held by a full ring
        (so ring backpressure feeds the ``Overloaded`` shed path)."""
        return sum(len(q) for q in self._queues.values()) + sum(
            len(b.requests) for b in self._blocked
        )

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def _count(self, name: str) -> None:
        if obs.ENABLED:
            obs.registry().counter(name).inc()

    # ------------------------------------------------------------------
    def submit(
        self,
        technique: str,
        pairs: Sequence[Pair],
        deadline_s: float | None = None,
    ) -> QueryFuture:
        """Enqueue a request; raises :class:`Overloaded` when full.

        ``deadline_s`` is a relative budget: a request not dispatched
        within that many seconds is shed instead of served late.
        """
        technique = technique.lower()
        degraded = False
        if technique not in self.published:
            if technique not in self.known:
                raise ValueError(
                    f"unknown technique {technique!r} "
                    f"(known: {sorted(self.known)})"
                )
            technique = self.degrade_to
            degraded = True
        if not pairs:
            raise ValueError("empty request")
        rid = self._next_request_id
        self._next_request_id += 1
        if self.queued >= self.max_queue:
            self.shed += 1
            self._count("serve.shed")
            self._count("serve.shed_queue")
            self.flight.record({
                "id": rid,
                "technique": technique,
                "pairs": len(pairs),
                "status": "shed",
                "degraded": degraded,
                "e2e_us": 0,
                "retries": 0,
                "error": "queue full",
            })
            raise Overloaded(
                f"queue full ({self.queued} requests waiting, "
                f"limit {self.max_queue})"
            )
        deadline = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        fut = QueryFuture(technique, pairs, deadline, degraded)
        fut.request_id = rid
        fut.epoch = self.epoch
        if degraded:
            self.degraded += 1
            self._count("serve.degraded")
        q = self._queues.setdefault(technique, deque())
        if not q:
            self._oldest[technique] = fut.submitted_at
        q.append(fut)
        return fut

    # ------------------------------------------------------------------
    def _dispatch(self, technique: str, requests: list[QueryFuture]) -> None:
        batch = _Batch(self._next_batch_id, technique, requests)
        self._next_batch_id += 1
        self._send(batch)

    def _record_terminal(self, batch: _Batch) -> None:
        """Flight-record every request of a terminally resolved batch."""
        now = time.monotonic()
        for r in batch.requests:
            self.flight.record({
                "id": r.request_id,
                "technique": r.technique,
                "pairs": len(r.pairs),
                "status": r.status,
                "degraded": r.degraded,
                "e2e_us": int((now - r.submitted_at) * 1e6),
                "retries": batch.retries,
                "error": r.error,
            })

    def _try_submit(self, batch: _Batch) -> bool:
        """Hand a batch to the pool; False means the ring refused it."""
        try:
            self.pool.submit(
                batch.batch_id,
                batch.technique,
                batch.pairs,
                meta={
                    "request_id": batch.request_id,
                    "t_enq_us": batch.t_enq_us,
                    "t_form_us": batch.t_form_us,
                },
            )
        except RingFull:
            return False
        except ValueError as exc:
            # A batch the transport can never carry (e.g. one request
            # larger than the whole ring): fail its futures typed, now.
            batch.fail(str(exc))
            self._record_terminal(batch)
            return True
        self._inflight[batch.batch_id] = batch
        self.dispatched_batches += 1
        self.dispatched_pairs += len(batch.pairs)
        if obs.ENABLED:
            obs.registry().histogram(
                f"serve.batch_pairs.{batch.technique}"
            ).observe(len(batch.pairs))
            if batch.blocked_since is not None:
                obs.registry().histogram("serve.slot_wait_us").observe(
                    (time.monotonic() - batch.blocked_since) * 1e6
                )
        batch.blocked_since = None
        return True

    def _send(self, batch: _Batch) -> None:
        if not self._try_submit(batch):
            if batch.blocked_since is None:
                batch.blocked_since = time.monotonic()
                self.ring_full += 1
                self._count("serve.ring_full")
            self._blocked.append(batch)

    def _flush_blocked(self) -> None:
        """Re-dispatch ring-blocked batches in FIFO order while they fit."""
        while self._blocked:
            if not self._try_submit(self._blocked[0]):
                return
            self._blocked.popleft()

    def _flush_technique(self, technique: str) -> None:
        """Pack the technique's waiting requests into batches and send."""
        q = self._queues.get(technique)
        if not q:
            return
        cap = self.max_batch_for(technique)
        now = time.monotonic()
        current: list[QueryFuture] = []
        size = 0
        while q:
            fut = q.popleft()
            if fut.deadline is not None and now > fut.deadline:
                fut.status = "shed"
                fut.error = "deadline passed before dispatch"
                self.shed += 1
                self._count("serve.shed")
                self._count("serve.shed_deadline")
                self.flight.record({
                    "id": fut.request_id,
                    "technique": fut.technique,
                    "pairs": len(fut.pairs),
                    "status": "shed",
                    "degraded": fut.degraded,
                    "e2e_us": int((now - fut.submitted_at) * 1e6),
                    "retries": 0,
                    "error": fut.error,
                })
                continue
            if obs.ENABLED:
                obs.registry().histogram("serve.queue_us").observe(
                    (now - fut.submitted_at) * 1e6
                )
            if current and size + len(fut.pairs) > cap:
                self._dispatch(technique, current)
                current, size = [], 0
            current.append(fut)
            size += len(fut.pairs)
        if current:
            self._dispatch(technique, current)
        self._oldest.pop(technique, None)

    def pump(self, block_s: float = 0.0) -> int:
        """One scheduling step: flush due batches, collect completions.

        A technique's queue is flushed when it holds ``max_batch`` pairs
        or its oldest waiter has aged past the batch window. Returns the
        number of requests resolved this step.
        """
        now = time.monotonic()
        for technique in list(self._queues):
            q = self._queues[technique]
            if not q:
                continue
            pending_pairs = sum(len(f.pairs) for f in q)
            aged = now - self._oldest.get(technique, now) >= self.batch_window_s
            if pending_pairs >= self.max_batch_for(technique) or aged:
                self._flush_technique(technique)
        return self._collect(block_s)

    def _collect(self, block_s: float) -> int:
        if not self._inflight and not self._blocked:
            return 0
        resolved = 0
        # With nothing in flight there is no completion to wait for —
        # poll(0) still lets the ring recycle slots for blocked batches.
        for event in self.pool.poll(block_s if self._inflight else 0.0):
            kind = event[0]
            if kind == "done":
                batch_id, distances = event[1], event[2]
                batch = self._inflight.pop(batch_id, None)
                if batch is not None:
                    stamps = event[3] if len(event) > 3 else None
                    served = stamps.get("epoch") if stamps else None
                    if served is not None and served != batch.epoch:
                        # A reply computed at the wrong weight epoch is
                        # a wrong answer — fail it loudly rather than
                        # hand back stale (or too-fresh) distances.
                        self.epoch_mismatches += 1
                        self._count("serve.epoch_mismatch")
                        batch.fail(
                            f"epoch mismatch: admitted at epoch "
                            f"{batch.epoch}, answered at {served}"
                        )
                        resolved += len(batch.requests)
                        self._record_terminal(batch)
                        continue
                    for r in batch.requests:
                        r.served_epoch = (
                            served if served is not None else batch.epoch
                        )
                    batch.scatter(distances)
                    resolved += len(batch.requests)
                    self._observe_latency(batch, stamps)
                    self._record_terminal(batch)
            elif kind == "error":
                _, batch_id, message = event
                batch = self._inflight.pop(batch_id, None)
                if batch is not None:
                    batch.fail(message)
                    resolved += len(batch.requests)
                    self._record_terminal(batch)
            elif kind == "died":
                (_, batch_ids) = event
                for batch_id in batch_ids:
                    batch = self._inflight.pop(batch_id, None)
                    if batch is None:
                        continue
                    if batch.retries == 0:
                        batch.retries += 1
                        self.retries += 1
                        self._count("serve.retries")
                        self._send(batch)
                    else:
                        batch.fail("worker died twice on this batch")
                        resolved += len(batch.requests)
                        self._record_terminal(batch)
        self._flush_blocked()
        return resolved

    #: Stage boundaries of the latency breakdown, in pipeline order:
    #: (histogram suffix, start stamp, end stamp). ``scatter`` closes
    #: against "now" at observation time.
    _STAGES = (
        ("queue", "enq", "form"),
        ("publish", "form", "pub"),
        ("dispatch", "pub", "wstart"),
        ("worker", "wstart", "wcommit"),
    )

    def _observe_latency(self, batch: _Batch, stamps: dict | None) -> None:
        """Feed ``serve.e2e_us`` + ``serve.stage_us.*`` from one batch.

        Stages with a missing/zero boundary (a fake pool in tests, a
        transport that lost a stamp) are skipped rather than observed
        as garbage; per-request end-to-end latency needs no stamps.
        """
        if not obs.ENABLED:
            return
        reg = obs.registry()
        now = time.monotonic()
        for r in batch.requests:
            reg.histogram("serve.e2e_us").observe(
                max((now - r.submitted_at) * 1e6, 0.0)
            )
        if not stamps:
            return
        now_us = int(now * 1e6)
        for stage, start, end in self._STAGES:
            a, b = stamps.get(start), stamps.get(end)
            if a and b:
                reg.histogram(f"serve.stage_us.{stage}").observe(
                    max(b - a, 0)
                )
        wcommit = stamps.get("wcommit")
        if wcommit:
            reg.histogram("serve.stage_us.scatter").observe(
                max(now_us - wcommit, 0)
            )

    # ------------------------------------------------------------------
    def drain(self, timeout_s: float = 60.0) -> int:
        """Flush everything and wait for all in-flight work to resolve.

        Returns the number of requests resolved meanwhile, counted like
        :meth:`pump` counts them.
        """
        for technique in list(self._queues):
            self._flush_technique(technique)
        resolved = 0
        deadline = time.monotonic() + timeout_s
        while self._inflight or self._blocked:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"{len(self._inflight)} batches still in flight "
                    f"({len(self._blocked)} ring-blocked) after "
                    f"{timeout_s:.0f}s"
                )
            resolved += self._collect(min(remaining, 0.25))
        return resolved

    def stats(self) -> dict[str, int]:
        return {
            "dispatched_batches": self.dispatched_batches,
            "dispatched_pairs": self.dispatched_pairs,
            "shed": self.shed,
            "degraded": self.degraded,
            "retries": self.retries,
            "ring_full": self.ring_full,
            "queued": self.queued,
            "inflight": self.inflight,
            "flight_recorded": self.flight.recorded,
            "epoch": self.epoch,
            "epoch_mismatches": self.epoch_mismatches,
        }
