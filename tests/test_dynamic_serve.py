"""Live epoch-swap tests: the serving side of the dynamics subsystem.

The contract under test (docs/SERVING.md): a weight-update batch is
checked and queued by ``apply_updates``, repaired and staged into
side-by-side segments by the service's repair thread while the old epoch
keeps answering, and flipped live by the serving loop — drain, manifest
flip, worker barrier, old epoch unlinked — with **zero mixed-epoch
answers**: every reply is stamped with the epoch it was answered under
and audited against the epoch it was admitted under.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import dijkstra_distance
from repro.graph.csr import HAVE_SCIPY
from repro.queries.workloads import rush_hour_churn
from repro.serve import BatchingScheduler, QueryService, ServiceConfig

pytestmark = pytest.mark.skipif(
    not HAVE_SCIPY, reason="the dynamics subsystem needs scipy"
)

DATASET = "DE"


@pytest.fixture(scope="module")
def registry():
    from repro.harness.registry import Registry

    return Registry(tier="small", verbose=False)


@pytest.fixture(scope="module")
def phases(registry):
    return rush_hour_churn(
        registry.graph(DATASET),
        bursts=2,
        edges_per_burst=5,
        queries_per_phase=8,
        seed=13,
    )


def _reference_distances(registry, state, queries):
    from repro.dynamic import reweight_graph

    g2 = reweight_graph(registry.graph(DATASET), state.csr)
    return np.array([dijkstra_distance(g2, u, v) for u, v in queries])


def _batch(phase):
    return [e for e, _ in phase.updates], [w for _, w in phase.updates]


class TestLiveSwap:
    def test_churn_swaps_clean(self, registry, phases):
        from repro.dynamic import DynamicState

        config = ServiceConfig(
            dataset=DATASET,
            tier="small",
            workers=2,
            techniques=("ch", "tnr", "labels"),
        )
        ref = DynamicState(
            registry.graph(DATASET),
            registry.ch(DATASET),
            with_labels=False,
        )
        with QueryService(config, registry=registry) as svc:
            assert svc.epoch == 0
            fut = svc.submit("ch", [(0, 5)])
            svc.drain()
            fut.result()
            assert fut.epoch == 0 and fut.served_epoch == 0

            old_names = [
                e["segment"]
                for e in svc.manifest["techniques"].values()
            ]
            for i, ph in enumerate(phases, start=1):
                edges, ws = _batch(ph)
                report = svc.apply_updates(edges, ws)
                assert svc.wait_live() == i
                ref.apply_updates(edges, ws)
                assert report.live and report.epoch == i == svc.epoch
                assert svc.manifest["fingerprint"]["epoch"] == i
                want = _reference_distances(registry, ref, ph.queries)
                for tech in ("ch", "tnr", "labels", "dijkstra"):
                    fut = svc.submit(tech, list(ph.queries))
                    svc.drain()
                    got = np.asarray(fut.result())
                    # Admitted and answered on the new epoch...
                    assert fut.epoch == i and fut.served_epoch == i
                    # ...with exact post-update distances.
                    np.testing.assert_array_equal(got, want)

            status = svc.status()
            assert status["epoch"] == len(phases)
            assert status["epoch_mismatches"] == 0
            # The old epoch's segments are provably unlinked: attaching
            # by their manifest names must fail.
            for name in old_names:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
            # The live manifest points at the new epoch's names.
            for e in svc.manifest["techniques"].values():
                assert f"-e{len(phases)}-" in e["segment"]
                shm = shared_memory.SharedMemory(name=e["segment"])
                shm.close()

    def test_swap_survives_worker_respawn(self, registry, phases):
        """A worker killed right before the flip is respawned onto the
        current manifest; the barrier still completes and answers stay
        exact."""
        import signal

        config = ServiceConfig(
            dataset=DATASET,
            tier="small",
            workers=2,
            techniques=("ch",),
        )
        ph = phases[0]
        edges, ws = _batch(ph)
        with QueryService(config, registry=registry) as svc:
            os.kill(svc.pool.worker_pids[0], signal.SIGKILL)
            svc.apply_updates(edges, ws)
            svc.wait_live()
            from repro.dynamic import DynamicState

            ref = DynamicState(
                registry.graph(DATASET),
                registry.ch(DATASET),
                with_labels=False,
            )
            ref.apply_updates(edges, ws)
            want = _reference_distances(registry, ref, ph.queries)
            fut = svc.submit("ch", list(ph.queries))
            svc.drain()
            np.testing.assert_array_equal(np.asarray(fut.result()), want)
            assert fut.served_epoch == 1
            assert svc.scheduler.epoch_mismatches == 0


def _service_segments(svc) -> list[str]:
    """Every shared-memory name under this service's token."""
    prefix = f"rsv-{svc.manifest['service']}-"
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))


def _hold_repairs(svc):
    """Make the repair thread wait for one ``release()`` per update."""
    st = svc._dynamic_state()
    turns = threading.Semaphore(0)
    real = st.apply_updates

    def held(edges, weights):
        assert turns.acquire(timeout=60)
        return real(edges, weights)

    st.apply_updates = held
    return turns


def _pump_until(svc, epoch, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while svc.epoch < epoch:
        assert time.monotonic() < deadline, f"epoch {epoch} never went live"
        svc.pump(0.01)


class TestEpochPipeline:
    """``apply_updates`` returns at once; the epoch goes live later."""

    def _config(self, techniques=("ch", "labels")):
        return ServiceConfig(
            dataset=DATASET, tier="small", workers=2,
            techniques=techniques,
        )

    def _ref(self, registry, with_labels=False):
        from repro.dynamic import DynamicState

        return DynamicState(
            registry.graph(DATASET), registry.ch(DATASET),
            with_labels=with_labels,
        )

    def test_old_epoch_answers_until_go_live(self, registry, phases):
        ph = phases[0]
        edges, ws = _batch(ph)
        ref = self._ref(registry)
        before = _reference_distances(registry, ref, ph.queries)
        ref.apply_updates(edges, ws)
        after = _reference_distances(registry, ref, ph.queries)
        assert not np.array_equal(before, after)
        with QueryService(self._config(), registry=registry) as svc:
            turns = _hold_repairs(svc)
            report = svc.apply_updates(edges, ws)
            assert report.epoch == 1 and not report.live and not report.failed
            assert report.repair_us == {}
            assert svc.epoch == 0
            assert svc.status()["pending_updates"] == 1
            for tech in ("ch", "labels", "dijkstra"):
                fut = svc.submit(tech, list(ph.queries))
                svc.drain()
                assert fut.epoch == 0 and fut.served_epoch == 0
                np.testing.assert_array_equal(np.asarray(fut.result()), before)
            # Admitted before the flip, resolved by the flip's own drain:
            # still the old epoch, and counted by the pump that flipped.
            straddler = svc.submit("ch", list(ph.queries))
            turns.release()
            assert svc.wait_live() == 1
            assert straddler.done
            assert straddler.epoch == 0 and straddler.served_epoch == 0
            np.testing.assert_array_equal(
                np.asarray(straddler.result()), before
            )
            assert report.live and set(report.repair_us) >= {"ch", "labels"}
            assert svc.status()["pending_updates"] == 0
            for tech in ("ch", "labels", "dijkstra"):
                fut = svc.submit(tech, list(ph.queries))
                svc.drain()
                assert fut.epoch == 1 and fut.served_epoch == 1
                np.testing.assert_array_equal(np.asarray(fut.result()), after)
            assert svc.status()["epoch_mismatches"] == 0

    def test_back_to_back_updates_go_live_in_call_order(self, registry):
        from repro.serve import attach_segments
        from repro.serve.segments import pack_ch, pack_labels

        churn = rush_hour_churn(
            registry.graph(DATASET), bursts=3, edges_per_burst=4,
            queries_per_phase=2, seed=29,
        )
        ref = self._ref(registry, with_labels=True)
        with QueryService(self._config(), registry=registry) as svc:
            turns = _hold_repairs(svc)
            reports = [svc.apply_updates(*_batch(ph)) for ph in churn]
            assert [r.epoch for r in reports] == [1, 2, 3]
            assert svc.status()["pending_updates"] == 3 and svc.epoch == 0
            for k, ph in enumerate(churn, start=1):
                turns.release()
                _pump_until(svc, k)
                # Exactly one epoch per call: the later ones still wait.
                assert svc.epoch == k
                assert [r.live for r in reports] == [i < k for i in range(3)]
                ref.apply_updates(*_batch(ph))
                fresh = ref.rebuilt()
                want = {
                    "ch": pack_ch(fresh.ch)[0],
                    "labels": pack_labels(fresh.labels)[0],
                }
                with attach_segments(svc.manifest, foreign=False) as segs:
                    assert svc.manifest["fingerprint"]["epoch"] == k
                    for tech, arrays in want.items():
                        got = segs.arrays(tech)
                        assert set(got) == set(arrays)
                        for key, arr in arrays.items():
                            np.testing.assert_array_equal(got[key], arr)
                    del got
            assert svc.status()["epoch_mismatches"] == 0

    @pytest.mark.parametrize("where", ["repair", "stage"])
    def test_repair_failure_keeps_the_old_epoch(
        self, registry, phases, where, monkeypatch
    ):
        from repro.serve import segments as segments_mod

        ph = phases[0]
        edges, ws = _batch(ph)
        before = _reference_distances(
            registry, self._ref(registry), ph.queries
        )
        with QueryService(self._config(), registry=registry) as svc:
            st = svc._dynamic_state()
            if where == "repair":
                def boom(edges, weights):
                    raise RuntimeError("boom in repair")

                st.apply_updates = boom
            else:
                real_layout = segments_mod._layout
                calls = []

                def layout(arrays):
                    # The epoch's first segment is written, the second
                    # one fails: the first must not be left behind.
                    calls.append(1)
                    if len(calls) == 2:
                        raise OSError("boom in stage")
                    return real_layout(arrays)

                monkeypatch.setattr(segments_mod, "_layout", layout)
            first = svc.apply_updates(edges, ws)
            second = svc.apply_updates(edges, ws)
            with pytest.raises((RuntimeError, OSError), match="boom"):
                svc.wait_live()
            assert first.failed and second.failed and not first.live
            assert second.error is first.error
            assert svc.epoch == 0
            assert svc.status()["pending_updates"] == 0
            # Raised once; the loop carries on, on the old epoch.
            fut = svc.submit("labels", list(ph.queries))
            svc.pump()
            svc.drain()
            assert fut.epoch == 0 and fut.served_epoch == 0
            np.testing.assert_array_equal(np.asarray(fut.result()), before)
            assert not [n for n in _service_segments(svc) if "-e1-" in n]
            with pytest.raises(RuntimeError, match="accepts no more updates"):
                svc.apply_updates(edges, ws)

    def test_close_with_an_update_pending(self, registry, phases):
        edges, ws = _batch(phases[0])
        svc = QueryService(self._config(), registry=registry)
        try:
            st = svc._dynamic_state()
            real = st.apply_updates
            started = threading.Event()

            def slow(edges, weights):
                started.set()
                time.sleep(0.2)
                return real(edges, weights)

            st.apply_updates = slow
            running = svc.apply_updates(edges, ws)
            queued = svc.apply_updates(edges, ws)
            assert started.wait(30)
            repairer = svc._repairer
            workers = list(svc.pool._workers)
        finally:
            svc.close()
        assert not repairer.is_alive()
        for report in (running, queued):
            assert report.failed and not report.live
            assert "closed before epoch" in str(report.error)
        assert _service_segments(svc) == []
        assert not any(w.process.is_alive() for w in workers)

    def test_bad_batches_raise_at_the_call(self, registry, phases):
        import math

        graph = registry.graph(DATASET)
        (u, v), w = phases[0].updates[0]
        non_edge = next(
            (a, b) for a in range(graph.n) for b in range(graph.n)
            if a != b and not graph.has_edge(a, b)
        )
        bad = [
            ([non_edge], [1.0], KeyError),
            ([(u, graph.n)], [1.0], KeyError),
            ([(-1, v)], [1.0], KeyError),
            ([(u, v)], [0.0], ValueError),
            ([(u, v)], [-2.0], ValueError),
            ([(u, v)], [math.nan], ValueError),
            ([(u, v)], [math.inf], ValueError),
            ([(u, v)], [1.0, 2.0], ValueError),
        ]
        with QueryService(self._config(), registry=registry) as svc:
            for edges, ws, exc in bad:
                with pytest.raises(exc):
                    svc.apply_updates(edges, ws)
                assert svc.status()["pending_updates"] == 0
            # Refused before anything was built, queued or numbered.
            assert svc._dyn is None and svc._repairer is None
            # The first accepted update is the one-time switch to
            # dynamic serving: it comes back live, as epoch 1.
            report = svc.apply_updates([(u, v)], [w])
            assert report.epoch == 1 == svc.epoch and report.live
            # Later ones return at once.
            turns = _hold_repairs(svc)
            later = svc.apply_updates([(u, v)], [w + 1.0])
            assert later.epoch == 2 and not later.live and svc.epoch == 1
            with pytest.raises(ValueError):
                svc.apply_updates([(u, v)], [0.0])
            assert svc.status()["pending_updates"] == 1
            turns.release()
            assert svc.wait_live() == 2 and later.live

    def test_repair_spans_stay_off_the_serving_threads_stack(
        self, registry, phases, tmp_path
    ):
        from repro import obs

        edges, ws = _batch(phases[0])
        was = obs.ENABLED
        obs.reset()
        path = tmp_path / "run.jsonl"
        try:
            obs.start_trace(path)
            with QueryService(self._config(), registry=registry) as svc:
                turns = _hold_repairs(svc)
                with obs.span("test.serving_loop"):
                    svc.apply_updates(edges, ws)
                    turns.release()
                    svc.wait_live()
                snap = svc.merged_snapshot()
        finally:
            obs.stop_trace()
            obs.set_enabled(was)
            obs.reset()
        spans = {
            e["name"]: e["path"]
            for e in obs.read_trace(path) if e["t"] == "span"
        }
        assert spans["test.serving_loop"] == "test.serving_loop"
        assert spans["serve.repair"] == "serve.repair"
        assert spans["serve.stage_epoch"] == "serve.stage_epoch"
        hists = snap["histograms"]
        for name in ("serve.swap_us", "serve.repair_us", "serve.update_lag_us"):
            assert hists[name]["count"] == 1
        assert hists["serve.update_lag_us"]["max"] >= hists["serve.repair_us"]["max"]
        assert snap["gauges"]["serve.updates_pending"] == 0
        assert snap["gauges"]["serve.epoch"] == 1


class TestSwapGuards:
    def test_unrepairable_technique_rejected(self, registry):
        config = ServiceConfig(
            dataset=DATASET, tier="small", workers=1, techniques=("silc",)
        )
        with QueryService(config, registry=registry) as svc:
            with pytest.raises(ValueError, match="silc"):
                svc.apply_updates([(0, 1)], [2.0])

    def test_epoch_mismatch_fails_the_batch(self):
        """A reply stamped with a foreign epoch must never reach the
        caller — the scheduler fails the batch and counts it."""

        class _StaleEpochPool:
            restarts = 0

            def __init__(self):
                self._pending = []

            def submit(self, batch_id, technique, pairs, meta=None):
                self._pending.append((batch_id, len(pairs)))

            def poll(self, timeout=0.0):
                events = [
                    ("done", bid, np.ones(n), {"epoch": 99})
                    for bid, n in self._pending
                ]
                self._pending.clear()
                return events

        sched = BatchingScheduler(
            _StaleEpochPool(),
            published=("ch", "dijkstra"),
            max_batch=8,
            batch_window_s=0.0,
            max_queue=8,
        )
        fut = sched.submit("ch", [(0, 1)])
        deadline = 50
        while not fut.done and deadline:
            sched.pump(0.01)
            deadline -= 1
        assert fut.done
        with pytest.raises(RuntimeError, match="epoch mismatch"):
            fut.result()
        assert sched.epoch_mismatches == 1
        assert sched.stats()["epoch_mismatches"] == 1
