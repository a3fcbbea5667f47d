"""Ring transport tests: slots, wraparound, backpressure, recovery.

The shared-memory ring transport (:class:`repro.serve.pool.RingPool`)
is exercised directly against a real published segment set — no fakes
between the descriptor words and the worker — plus through the
scheduler for the backpressure -> ``Overloaded`` escalation and the
per-technique batch caps. The SIGKILL tests pin the commit-word
protocol: an uncommitted slot means retry, a fully-committed batch is
harvested from the arena as a normal completion.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro import obs
from repro.harness.experiments import batched_distances
from repro.harness.registry import Registry
from repro.persistence import GraphFingerprint
from repro.serve import (
    TECHNIQUE_BATCH_CAPS,
    AttachedRing,
    BatchingScheduler,
    Overloaded,
    QueryService,
    RingBuffers,
    RingFull,
    RingPool,
    SegmentError,
    SegmentSet,
    ServiceConfig,
)
from repro.serve.segments import (
    SLOT_COMMIT,
    SLOT_NPAIRS,
    SLOT_OFF,
    SLOT_SEQ,
    SLOT_WORDS,
    pack_ch,
    pack_graph,
)

DATASET = "DE"


@pytest.fixture(scope="module")
def registry():
    return Registry(tier="small", verbose=False)


@pytest.fixture(scope="module")
def workload(registry):
    pairs = [p for qset in registry.q_sets(DATASET) for p in qset.pairs]
    return pairs[:240]


@pytest.fixture(scope="module")
def ch_answers(registry, workload):
    return np.asarray(batched_distances(registry.ch(DATASET), workload))


@pytest.fixture()
def segments(registry):
    csr = registry.graph(DATASET).csr()
    payloads = {
        "dijkstra": pack_graph(csr),
        "ch": pack_ch(registry.ch(DATASET)),
    }
    with SegmentSet(
        payloads, fingerprint=GraphFingerprint.of_csr(csr),
        dataset=DATASET, tier="small",
    ) as segs:
        yield segs


def _drain_pool(pool, want_events, timeout_s=30.0):
    """Poll until ``want_events`` terminal events arrived (or time out)."""
    events = []
    deadline = time.monotonic() + timeout_s
    while len(events) < want_events:
        if time.monotonic() > deadline:
            raise TimeoutError(f"only {len(events)}/{want_events} events")
        events.extend(pool.poll(timeout=0.2))
    return events


# ----------------------------------------------------------------------
# The ring segment itself
# ----------------------------------------------------------------------
class TestRingBuffers:
    def test_layout_and_shared_visibility(self):
        with RingBuffers(4, 8, token="t-ring") as ring:
            assert ring.ring.shape == (4, SLOT_WORDS)
            assert ring.pairs.shape == (32, 2)
            assert ring.results.shape == (32,)
            entry = ring.manifest_entry
            assert entry["kind"] == "ring"
            assert entry["n_slots"] == 4 and entry["slot_pairs"] == 8
            ring.results[5] = 42.5
            with AttachedRing(entry, foreign=True) as att:
                assert att.results[5] == 42.5
                att.ring[1, SLOT_SEQ] = 7
                assert ring.ring[1, SLOT_SEQ] == 7

    def test_close_unlinks_and_attach_rejects(self):
        ring = RingBuffers(2, 4)
        entry = ring.manifest_entry
        ring.close()
        ring.close()  # idempotent
        with pytest.raises(SegmentError, match="gone"):
            AttachedRing(entry, foreign=True)
        with pytest.raises(SegmentError, match="ring"):
            AttachedRing({"kind": "graph"}, foreign=True)


# ----------------------------------------------------------------------
# RingPool against real workers
# ----------------------------------------------------------------------
class TestRingPool:
    def test_slot_wraparound_property(self, segments, registry, workload,
                                      ch_answers):
        """Random-sized batches through a 4-slot ring: slots are reused
        many times over; every answer must stay bit-identical and the
        ring must end with every slot free again."""
        rng = np.random.default_rng(11)
        with RingPool(segments.manifest, n_workers=1,
                      ring_slots=4, slot_pairs=8) as pool:
            pool.start()
            cursor, batch_id = 0, 0
            while cursor < len(workload):
                size = int(rng.integers(1, 17))  # up to 2 slots
                chunk = workload[cursor:cursor + size]
                pool.submit(batch_id, "ch", chunk)
                (event,) = _drain_pool(pool, 1)
                kind, got_id, distances = event[:3]
                assert (kind, got_id) == ("done", batch_id)
                assert np.array_equal(
                    np.asarray(distances),
                    ch_answers[cursor:cursor + len(chunk)],
                )
                cursor += len(chunk)
                batch_id += 1
            pool.poll()  # recycle the last pending slots
            assert pool.free_slots == 4

    def test_ring_full_and_oversized_batch(self, segments, workload):
        with RingPool(segments.manifest, n_workers=1,
                      ring_slots=2, slot_pairs=4) as pool:
            pool.start()
            pool.submit(0, "ch", workload[:4])
            pool.submit(1, "ch", workload[4:8])
            with pytest.raises(RingFull, match="ring full"):
                pool.submit(2, "ch", workload[8:12])
            with pytest.raises(ValueError, match="exceeds the ring"):
                pool.submit(3, "ch", workload[:9])  # 3 slots > 2 total
            with pytest.raises(ValueError, match="not published"):
                pool.submit(4, "nope", workload[:1])
            _drain_pool(pool, 2)

    def test_uncommitted_slot_retried_after_sigkill(self, segments, workload):
        """A worker killed before committing its slot: the batch comes
        back as ``died`` (the scheduler's retry hook) and its slots are
        recycled for the next submission."""
        with RingPool(segments.manifest, n_workers=1,
                      ring_slots=4, slot_pairs=8) as pool:
            pool.start()
            pid = pool.worker_pids[0]
            os.kill(pid, signal.SIGSTOP)  # the slot can never commit
            pool.submit(7, "ch", workload[:6])
            slot = pool._batches[7].slots[0]
            ring = pool.ring.ring
            assert ring[slot, SLOT_COMMIT] != ring[slot, SLOT_SEQ]
            os.kill(pid, signal.SIGKILL)
            events = _drain_pool(pool, 1)
            assert ("died", [7]) in events
            assert pool.restarts == 1
            # The freed slots and the restarted worker serve the retry.
            pool.submit(8, "ch", workload[:6])
            (event,) = _drain_pool(pool, 1)
            assert event[0] == "done" and event[1] == 8

    def test_committed_slots_harvested_after_sigkill(self, segments,
                                                     workload):
        """A batch whose every slot committed before the worker died is
        a *completion*, not a casualty: the results provably landed in
        the arena, so the pool harvests them instead of retrying."""
        with RingPool(segments.manifest, n_workers=1,
                      ring_slots=4, slot_pairs=8) as pool:
            pool.start()
            pid = pool.worker_pids[0]
            os.kill(pid, signal.SIGSTOP)
            pool.submit(3, "ch", workload[:5])
            rec = pool._batches[3]
            ring = pool.ring.ring
            # Forge the worker's side of the protocol through the shared
            # mapping: results into the arena, then the commit word.
            for slot in rec.slots:
                off = int(ring[slot, SLOT_OFF])
                n = int(ring[slot, SLOT_NPAIRS])
                pool.ring.results[off:off + n] = 123.0
                ring[slot, SLOT_COMMIT] = ring[slot, SLOT_SEQ]
            os.kill(pid, signal.SIGKILL)
            events = _drain_pool(pool, 1)
            kind, batch_id, distances = events[0][:3]
            assert (kind, batch_id) == ("done", 3)
            assert np.all(np.asarray(distances) == 123.0)
            assert pool.restarts == 1

    def test_worker_error_reported_not_fatal(self, segments, workload):
        with RingPool(segments.manifest, n_workers=1,
                      ring_slots=4, slot_pairs=8) as pool:
            pool.start()
            pool.submit(0, "ch", [(10 ** 8, 0)])  # vertex out of range
            (event,) = _drain_pool(pool, 1)
            assert event[0] == "error" and event[1] == 0
            assert event[2]  # a non-empty message, no worker death
            assert pool.restarts == 0
            pool.submit(1, "ch", workload[:3])
            (event,) = _drain_pool(pool, 1)
            assert event[0] == "done"


# ----------------------------------------------------------------------
# Scheduler integration: backpressure and per-technique caps
# ----------------------------------------------------------------------
class TestRingScheduler:
    def test_full_ring_escalates_to_typed_overloaded(self, registry,
                                                     workload):
        """Sustained pressure on a 2-slot ring: blocked batches count
        toward the queue bound, so the shed path stays typed."""
        config = ServiceConfig(
            dataset=DATASET, tier="small", workers=1, techniques=("ch",),
            max_batch=8, ring_slots=2,
            max_queue=20, batch_window_s=0.0,
        )
        with QueryService(config, registry=registry) as svc:
            futures, accepted, shed = [], [], 0
            for pair in workload:
                try:
                    futures.append(svc.submit("ch", [pair]))
                    accepted.append(pair)
                except Overloaded:
                    shed += 1
            assert shed > 0
            svc.drain()
            stats = svc.scheduler.stats()
            assert stats["ring_full"] >= 1
            assert stats["shed"] == shed
            got = np.array([d for f in futures for d in f.result()])
            want = np.asarray(
                batched_distances(registry.ch(DATASET), accepted)
            )
            assert np.array_equal(got, want)

    def test_blocked_batches_drain_without_shedding(self, registry,
                                                    workload, ch_answers):
        """A burst bigger than the ring but smaller than the queue bound
        parks in the blocked queue and drains completely."""
        config = ServiceConfig(
            dataset=DATASET, tier="small", workers=1, techniques=("ch",),
            max_batch=8, ring_slots=2,
            max_queue=1024, batch_window_s=0.0,
        )
        with QueryService(config, registry=registry) as svc:
            futures = [
                svc.submit("ch", workload[a:a + 8])
                for a in range(0, 240, 8)
            ]
            svc.drain()
            assert svc.scheduler.stats()["shed"] == 0
            got = np.array([d for f in futures for d in f.result()])
            assert np.array_equal(got, ch_answers)


class _CapturePool:
    """Records submitted batches; answers 1.0 per pair on poll."""

    def __init__(self):
        self.batches: list[tuple[str, int]] = []
        self._pending: list[tuple[int, int]] = []
        self.restarts = 0

    def submit(self, batch_id, technique, pairs, meta=None):
        self.batches.append((technique, len(pairs)))
        self._pending.append((batch_id, len(pairs)))

    def poll(self, timeout=0.0):
        events = [
            ("done", bid, np.ones(n)) for bid, n in self._pending
        ]
        self._pending.clear()
        return events


class TestTechniqueBatchCaps:
    def test_default_caps_bound_tnr_only(self):
        sched = BatchingScheduler(
            _CapturePool(), published=("ch", "tnr", "dijkstra"),
            max_batch=256, batch_window_s=0.0, max_queue=1024,
        )
        assert sched.max_batch_for("tnr") == TECHNIQUE_BATCH_CAPS["tnr"]
        assert sched.max_batch_for("tnr") < 256
        assert sched.max_batch_for("ch") == 256

    def test_override_map_splits_batches(self):
        sched = BatchingScheduler(
            _CapturePool(), published=("ch", "tnr", "dijkstra"),
            max_batch=64, batch_window_s=0.0, max_queue=1024,
            max_batch_overrides={"tnr": 4},
        )
        for technique in ("tnr", "ch"):
            for i in range(3):
                sched.submit(technique, [(i, 0), (i, 1), (i, 2)])
        sched.drain()
        tnr_batches = [n for t, n in sched.pool.batches if t == "tnr"]
        ch_batches = [n for t, n in sched.pool.batches if t == "ch"]
        # Two 3-pair requests never fit under the 4-pair tnr cap...
        assert tnr_batches == [3, 3, 3]
        # ...while ch coalesces all three under the global cap.
        assert ch_batches == [9]

    def test_batch_pairs_histogram_per_technique(self):
        obs.set_enabled(True)
        obs.reset()
        try:
            sched = BatchingScheduler(
                _CapturePool(), published=("ch", "tnr", "dijkstra"),
                max_batch=64, batch_window_s=0.0, max_queue=1024,
            )
            sched.submit("ch", [(0, 1), (0, 2)])
            sched.submit("tnr", [(0, 3)])
            sched.drain()
            reg = obs.registry()
            ch_hist = reg.histogram("serve.batch_pairs.ch")
            tnr_hist = reg.histogram("serve.batch_pairs.tnr")
            assert ch_hist.count == 1 and ch_hist.vmax == 2
            assert tnr_hist.count == 1 and tnr_hist.vmax == 1
        finally:
            obs.reset()
            obs.set_enabled(False)


# ----------------------------------------------------------------------
# The linear TNR pair path feeding the ring workers
# ----------------------------------------------------------------------
class TestTNRDistancePairs:
    def test_core_and_shared_match_per_pair(self, registry, workload):
        from repro.serve import attach_segments, build_payloads
        from repro.serve.pool import build_techniques

        tnr = registry.tnr(DATASET)
        pairs = list(workload[:60]) + [(5, 5), (0, 0)]
        want = np.array([tnr.distance(s, t) for s, t in pairs])
        assert np.array_equal(tnr.distance_pairs(pairs), want)

        csr = registry.graph(DATASET).csr()
        payloads = build_payloads(registry, DATASET, ("tnr",))
        with SegmentSet(
            payloads, fingerprint=GraphFingerprint.of_csr(csr),
            dataset=DATASET, tier="small",
        ) as segs:
            with attach_segments(segs.manifest, foreign=True) as att:
                shared = build_techniques(att)["tnr"]
                assert np.array_equal(shared.distance_pairs(pairs), want)

    def test_batched_distances_prefers_pairs_path(self, registry, workload):
        """The endpoint must route TNR through the linear path — the
        quadratic dedup grid would answer identically but at b x the
        cost (the old serving cliff)."""
        tnr = registry.tnr(DATASET)
        calls = []
        original = tnr.distance_pairs

        def spy(pairs):
            calls.append(len(pairs))
            return original(pairs)

        tnr.distance_pairs = spy
        try:
            got = batched_distances(tnr, workload[:50], batch_size=16)
        finally:
            del tnr.distance_pairs
        assert calls == [16, 16, 16, 2]
        want = np.array([tnr.distance(s, t) for s, t in workload[:50]])
        assert np.array_equal(got, want)
