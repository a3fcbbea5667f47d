"""Serving subsystem tests: segments, scheduler, pool, end-to-end.

Integration tests run a real 2-worker service on DE/small (builds are
sub-second there) and hold the subsystem to its core contract: every
answer bit-identical to the in-process batched endpoint, crashes
recovered, segments always released. Scheduler policy (coalescing,
admission control, retry-once) is tested against a deterministic fake
pool so no timing can flake it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from multiprocessing import shared_memory

from repro import obs
from repro.core.silc.quadtree import compress_partition, compress_partitions
from repro.harness.experiments import batched_distances, request_stream
from repro.harness.registry import Registry
from repro.serve import (
    BatchingScheduler,
    Overloaded,
    QueryService,
    SegmentError,
    SegmentSet,
    ServiceConfig,
    attach_segments,
    load_manifest,
    save_manifest,
)
from repro.serve.segments import pack_graph
from repro.serve.service import PUBLISHABLE, build_payloads, serve_workload

DATASET = "DE"


@pytest.fixture(scope="module")
def registry():
    return Registry(tier="small", verbose=False)


@pytest.fixture(scope="module")
def workload(registry):
    pairs = [p for qset in registry.q_sets(DATASET) for p in qset.pairs]
    return pairs[:240]


@pytest.fixture(scope="module")
def service(registry):
    config = ServiceConfig(
        dataset=DATASET,
        tier="small",
        workers=2,
        techniques=("ch", "tnr", "silc", "labels"),
    )
    with QueryService(config, registry=registry) as svc:
        yield svc


def _inprocess(registry, technique: str):
    from repro.core.techniques import registry_builders

    return registry_builders(registry)[technique](DATASET)


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
class TestSegments:
    def test_publish_attach_roundtrip_bit_identical(self, registry):
        payloads = build_payloads(
            registry, DATASET, ("ch", "tnr", "silc", "labels")
        )
        assert "labels" in payloads
        from repro.persistence import GraphFingerprint

        csr = registry.graph(DATASET).csr()
        with SegmentSet(
            payloads, fingerprint=GraphFingerprint.of_csr(csr),
            dataset=DATASET, tier="small",
        ) as segs:
            with attach_segments(segs.manifest, foreign=True) as att:
                assert att.techniques == segs.techniques
                for tech, (arrays, _meta) in payloads.items():
                    for key, want in arrays.items():
                        got = att.arrays(tech)[key]
                        assert got.dtype == np.asarray(want).dtype
                        assert np.array_equal(got, want), (tech, key)

    def test_offsets_aligned_and_views_zero_copy(self, registry):
        csr = registry.graph(DATASET).csr()
        from repro.persistence import GraphFingerprint

        with SegmentSet(
            {"dijkstra": pack_graph(csr)},
            fingerprint=GraphFingerprint.of_csr(csr),
        ) as segs:
            for spec in segs.manifest["techniques"]["dijkstra"]["arrays"].values():
                assert spec["offset"] % 64 == 0
            with attach_segments(segs.manifest, foreign=True) as att:
                for arr in att.arrays("dijkstra").values():
                    # A view over the mapped buffer, not a copy.
                    assert not arr.flags.owndata

    def test_segments_are_shared_not_copies(self, registry):
        """A write through one attachment is visible through another."""
        csr = registry.graph(DATASET).csr()
        from repro.persistence import GraphFingerprint

        with SegmentSet(
            {"dijkstra": pack_graph(csr)},
            fingerprint=GraphFingerprint.of_csr(csr),
        ) as segs:
            with attach_segments(segs.manifest, foreign=True) as a, \
                    attach_segments(segs.manifest, foreign=True) as b:
                wa = a.arrays("dijkstra")["weights"]
                wb = b.arrays("dijkstra")["weights"]
                original = wa[0]
                wa[0] = 12345.5
                assert wb[0] == 12345.5
                wa[0] = original

    def test_close_unlinks_segments(self, registry):
        csr = registry.graph(DATASET).csr()
        from repro.persistence import GraphFingerprint

        segs = SegmentSet(
            {"dijkstra": pack_graph(csr)},
            fingerprint=GraphFingerprint.of_csr(csr),
        )
        name = segs.manifest["techniques"]["dijkstra"]["segment"]
        segs.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        with pytest.raises(SegmentError, match="gone"):
            attach_segments(segs.manifest, foreign=True)

    def test_manifest_file_roundtrip_and_schema_gate(self, registry, tmp_path):
        csr = registry.graph(DATASET).csr()
        from repro.persistence import GraphFingerprint

        with SegmentSet(
            {"dijkstra": pack_graph(csr)},
            fingerprint=GraphFingerprint.of_csr(csr),
        ) as segs:
            path = tmp_path / "manifest.json"
            save_manifest(path, segs.manifest)
            assert load_manifest(path) == segs.manifest
            bad = dict(segs.manifest, schema=999)
            with pytest.raises(SegmentError, match="schema"):
                attach_segments(bad)


class TestManifestMismatches:
    """Every manifest/segment inconsistency must raise a typed
    :class:`SegmentError` — never attach garbage views."""

    def test_wrong_schema_version_rejected(self, registry):
        with pytest.raises(SegmentError, match="schema"):
            attach_segments({"schema": 0, "techniques": {}})
        with pytest.raises(SegmentError, match="schema"):
            attach_segments("not a manifest")  # type: ignore[arg-type]

    def test_wrong_graph_fingerprint_rejected(self, registry):
        """Segments published for a *different* graph must be refused by
        workers even when the arrays attach cleanly."""
        from repro.persistence import GraphFingerprint
        from repro.serve.pool import build_techniques

        csr = registry.graph(DATASET).csr()
        fp = GraphFingerprint.of_csr(csr)
        lying = GraphFingerprint(n=fp.n + 1, m=fp.m, total_weight=fp.total_weight)
        with SegmentSet(
            {"dijkstra": pack_graph(csr)}, fingerprint=lying,
        ) as segs:
            with attach_segments(segs.manifest, foreign=True) as att:
                with pytest.raises(SegmentError, match="fingerprint"):
                    build_techniques(att)

    def test_truncated_segment_rejected(self, registry):
        """A manifest promising more bytes than the segment holds must
        raise, not hand out views over out-of-bounds memory."""
        import copy

        from repro.persistence import GraphFingerprint

        csr = registry.graph(DATASET).csr()
        with SegmentSet(
            {"dijkstra": pack_graph(csr)},
            fingerprint=GraphFingerprint.of_csr(csr),
        ) as segs:
            lying = copy.deepcopy(segs.manifest)
            spec = lying["techniques"]["dijkstra"]["arrays"]["weights"]
            spec["shape"] = [spec["shape"][0] * 1000]
            with pytest.raises(SegmentError, match="truncated"):
                attach_segments(lying, foreign=True)


class TestSharedViews:
    """The worker-side shared views, exercised directly (no fork): each
    ``Shared*`` must answer bit-identically to the real index it wraps.
    The service tests prove the same thing end-to-end; this pins the
    views themselves so a mapping bug can't hide behind the pipe."""

    @pytest.fixture(scope="class")
    def views(self, registry):
        from repro.persistence import GraphFingerprint
        from repro.serve.pool import build_techniques

        payloads = build_payloads(registry, DATASET, PUBLISHABLE)
        csr = registry.graph(DATASET).csr()
        with SegmentSet(
            payloads, fingerprint=GraphFingerprint.of_csr(csr),
            dataset=DATASET, tier="small",
        ) as segs:
            with attach_segments(segs.manifest, foreign=True) as att:
                yield build_techniques(att)

    @pytest.fixture(scope="class")
    def pairs(self, workload):
        return workload[:40]

    @pytest.mark.parametrize("technique", PUBLISHABLE)
    def test_point_queries_bit_identical(
        self, views, registry, pairs, technique
    ):
        real = _inprocess(registry, technique)
        view = views[technique]
        assert view.name == real.name
        for s, t in pairs:
            assert view.distance(s, t) == real.distance(s, t)

    def test_labels_batch_apis_bit_identical(self, views, registry, pairs):
        hl = _inprocess(registry, "labels")
        view = views["labels"]
        assert np.array_equal(view.distances(pairs), hl.distances(pairs))
        sources = sorted({s for s, _ in pairs[:8]})
        targets = sorted({t for _, t in pairs[:8]})
        assert np.array_equal(
            view.distance_table(sources, targets),
            hl.distance_table(sources, targets),
        )

    def test_tables_bit_identical(self, views, registry, pairs):
        sources = sorted({s for s, _ in pairs[:6]})
        targets = sorted({t for _, t in pairs[:6]})
        for technique in ("ch", "tnr"):
            real = _inprocess(registry, technique)
            got = views[technique].distance_table(sources, targets)
            assert np.array_equal(got, real.distance_table(sources, targets))

    def test_shared_ch_upward_search_matches(self, views, registry, pairs):
        real = registry.ch(DATASET)
        for v in sorted({s for s, _ in pairs[:6]}):
            assert views["ch"].upward_search(v) == real.upward_search(v)


# ----------------------------------------------------------------------
# End-to-end agreement (the acceptance criterion)
# ----------------------------------------------------------------------
class TestServiceAgreement:
    @pytest.mark.parametrize("technique", PUBLISHABLE)
    def test_bit_identical_to_inprocess(
        self, service, registry, workload, technique
    ):
        requests = request_stream(workload, 8)
        futures, _ = serve_workload(service, technique, requests)
        got = np.array([d for f in futures for d in f.result()])
        want = np.asarray(batched_distances(_inprocess(registry, technique), workload))
        assert np.array_equal(got, want)

    def test_degrades_unpublished_technique(self, service, registry, workload):
        """pcpd is known but never published -> served by dijkstra."""
        future = service.submit("pcpd", workload[:16])
        service.drain()
        assert future.degraded
        want = np.asarray(
            batched_distances(_inprocess(registry, "dijkstra"), workload[:16])
        )
        assert np.array_equal(np.array(future.result()), want)
        assert service.scheduler.degraded >= 1

    def test_unknown_technique_rejected(self, service, workload):
        with pytest.raises(ValueError, match="unknown technique"):
            service.submit("astar", workload[:4])

    @pytest.mark.parametrize("bad", [-1, "n", 2**40, 1.5])
    def test_bad_vertex_id_rejected_at_admission(self, service, bad):
        """Ids outside [0, n) or not integers raise at the call, for
        every published technique, and never reach a worker."""
        if bad == "n":
            bad = service.manifest["fingerprint"]["n"]
        before = service.status()
        for technique in service.published:
            for pair in [(bad, 5), (5, bad)]:
                with pytest.raises(ValueError, match="vertex ids"):
                    service.submit(technique, [(0, 1), pair])
        service.drain()
        after = service.status()
        assert after["queued"] == 0 and after["inflight"] == 0
        assert [w["batches"] for w in after["workers"]] == [
            w["batches"] for w in before["workers"]
        ]

    def test_bad_request_does_not_poison_its_window(
        self, service, registry, workload
    ):
        """A rejected request takes no request id and fails nobody
        coalesced around it."""
        n = service.manifest["fingerprint"]["n"]
        first = service.submit("labels", workload[:8])
        with pytest.raises(ValueError, match="vertex ids"):
            service.submit("labels", [workload[8], (workload[9][0], n)])
        second = service.submit(
            "labels", [(np.int64(s), np.int32(t)) for s, t in workload[8:16]]
        )
        assert second.request_id == first.request_id + 1
        service.drain()
        want = np.asarray(
            batched_distances(_inprocess(registry, "labels"), workload[:16])
        )
        got = np.array(first.result() + second.result())
        assert np.array_equal(got, want)

    def test_transport_is_not_selectable(self):
        from repro.harness.cli import main

        with pytest.raises(TypeError):
            ServiceConfig(transport="pipe")
        with pytest.raises(SystemExit) as exc:
            main(["service", "start", "--transport", "pipe"])
        assert exc.value.code == 2

    def test_status_snapshot(self, service):
        status = service.status()
        assert status["n_workers"] == 2
        assert len(status["worker_pids"]) == 2
        assert status["transport"] == "ring"
        assert set(status["published"]) == {
            "ch", "dijkstra", "silc", "tnr", "labels"
        }
        assert all(v > 0 for v in status["segment_bytes"].values())
        # The per-worker telemetry section, sourced from the shm planes.
        rows = status["workers"]
        assert [r["worker"] for r in rows] == [0, 1]
        for row in rows:
            assert row["alive"] and row["ready"]
            assert {"pid", "batches", "inflight",
                    "last_commit_age_s"} <= set(row)
        assert "flight_recorded" in status


# ----------------------------------------------------------------------
# Scheduler policy (deterministic fake pool)
# ----------------------------------------------------------------------
class _FakePool:
    """Answers every pair with 1.0; scriptable death events."""

    def __init__(self):
        self.batches: list[tuple[int, str, list]] = []
        self.die_next = 0
        self._pending: list[tuple[int, int]] = []  # (batch_id, n_pairs)
        self.restarts = 0

    def submit(self, batch_id, technique, pairs, meta=None):
        self.batches.append((batch_id, technique, list(pairs)))
        self._pending.append((batch_id, len(pairs)))

    def poll(self, timeout=0.0):
        events = []
        for batch_id, n in self._pending:
            if self.die_next > 0:
                self.die_next -= 1
                self.restarts += 1
                events.append(("died", [batch_id]))
            else:
                events.append(("done", batch_id, np.ones(n)))
        self._pending.clear()
        return events


def _scheduler(**kwargs) -> BatchingScheduler:
    defaults = dict(published=("ch", "dijkstra"), max_batch=64,
                    batch_window_s=0.0, max_queue=8)
    defaults.update(kwargs)
    return BatchingScheduler(_FakePool(), **defaults)


class TestScheduler:
    def test_coalesces_requests_into_one_batch(self):
        sched = _scheduler()
        futures = [sched.submit("ch", [(0, i), (1, i)]) for i in range(8)]
        sched.drain()
        assert sched.dispatched_batches == 1
        assert sched.dispatched_pairs == 16
        (_, technique, pairs), = sched.pool.batches
        assert technique == "ch" and len(pairs) == 16
        for f in futures:
            assert f.result() == [1.0, 1.0]

    def test_requests_never_split_across_batches(self):
        sched = _scheduler(max_batch=5)
        # 3 requests of 3 pairs under a 5-pair cap: two whole requests
        # never fit together, and none may be split -> 3 batches of 3.
        for i in range(3):
            sched.submit("ch", [(i, 0), (i, 1), (i, 2)])
        sched.drain()
        assert sched.dispatched_batches == 3
        assert all(len(pairs) == 3 for _, _, pairs in sched.pool.batches)

    def test_oversized_request_gets_own_batch(self):
        sched = _scheduler(max_batch=4)
        big = [(0, t) for t in range(10)]
        fut = sched.submit("ch", big)
        sched.drain()
        assert sched.dispatched_batches == 1
        assert len(fut.result()) == 10

    def test_queue_overflow_sheds(self):
        sched = _scheduler(max_queue=3)
        for i in range(3):
            sched.submit("ch", [(0, i)])
        with pytest.raises(Overloaded, match="queue full"):
            sched.submit("ch", [(0, 99)])
        assert sched.shed == 1

    def test_deadline_shed_before_dispatch(self):
        sched = _scheduler()
        fut = sched.submit("ch", [(0, 1)], deadline_s=0.0)
        time.sleep(0.002)
        sched.drain()
        assert fut.status == "shed"
        assert sched.shed == 1
        with pytest.raises(Overloaded, match="deadline"):
            fut.result()

    def test_retry_once_then_fail(self):
        sched = _scheduler()
        sched.pool.die_next = 1
        fut = sched.submit("ch", [(0, 1)])
        sched.drain()
        assert sched.retries == 1 and fut.result() == [1.0]

        sched.pool.die_next = 2  # death, retry, death again
        fut2 = sched.submit("ch", [(0, 2)])
        sched.drain()
        assert fut2.status == "failed"
        with pytest.raises(RuntimeError, match="died twice"):
            fut2.result()

    def test_degrade_target_must_be_published(self):
        with pytest.raises(ValueError, match="not published"):
            _scheduler(published=("ch",), degrade_to="dijkstra")

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _scheduler().submit("ch", [])

    def test_flight_recorder_records_done_and_sheds(self):
        sched = _scheduler(max_queue=2)
        fut = sched.submit("ch", [(0, 1), (0, 2)])
        sched.drain()
        done = sched.flight.records()[-1]
        assert done["status"] == "done"
        assert done["pairs"] == 2 and done["retries"] == 0
        assert done["e2e_us"] >= 0
        assert done["id"] == fut.request_id > 0

        shed = sched.submit("ch", [(0, 3)], deadline_s=0.0)
        time.sleep(0.002)
        sched.drain()
        assert shed.status == "shed"
        assert sched.flight.records()[-1]["status"] == "shed"

        for i in range(2):
            sched.submit("ch", [(0, i)])
        with pytest.raises(Overloaded):
            sched.submit("ch", [(0, 99)])  # queue full -> recorded too
        assert sched.flight.records()[-1]["error"] == "queue full"
        sched.drain()
        assert sched.stats()["flight_recorded"] == len(sched.flight.records())

    def test_flight_recorder_records_worker_death(self):
        sched = _scheduler()
        sched.pool.die_next = 2  # death, retry, death again -> failed
        fut = sched.submit("ch", [(0, 2)])
        sched.drain()
        assert fut.status == "failed"
        rec = sched.flight.records()[-1]
        assert rec["status"] == "failed" and rec["retries"] == 1


# ----------------------------------------------------------------------
# Worker death, recovery, cleanup
# ----------------------------------------------------------------------
class TestRecovery:
    @pytest.mark.parametrize("technique", ["ch", "labels"])
    def test_worker_kill_mid_workload_recovers(
        self, registry, workload, technique
    ):
        config = ServiceConfig(
            dataset=DATASET, tier="small", workers=2,
            techniques=(technique,), max_batch=64,
        )
        with QueryService(config, registry=registry) as svc:
            requests = request_stream(workload, 8)
            futures = [svc.submit(technique, req) for req in requests]
            svc.pump()  # dispatch what is due
            os.kill(svc.pool.worker_pids[0], signal.SIGKILL)
            svc.drain()
            assert svc.pool.restarts >= 1
            got = np.array([d for f in futures for d in f.result()])
            want = np.asarray(
                batched_distances(_inprocess(registry, technique), workload)
            )
            assert np.array_equal(got, want)

    def test_segments_released_after_worker_crash(self, registry):
        config = ServiceConfig(
            dataset=DATASET, tier="small", workers=1, techniques=("ch",)
        )
        svc = QueryService(config, registry=registry)
        names = [
            entry["segment"]
            for entry in svc.manifest["techniques"].values()
        ]
        os.kill(svc.pool.worker_pids[0], signal.SIGKILL)
        svc.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Cross-process telemetry plane (shm worker metrics + latency breakdown)
# ----------------------------------------------------------------------
class TestTelemetryPlane:
    """The shared-memory metrics plane, end to end over real workers."""

    @pytest.fixture()
    def obs_enabled(self):
        """Enable obs BEFORE service creation so forked workers inherit
        the flag; restore and clear after."""
        was = obs.ENABLED
        obs.reset()
        obs.set_enabled(True)
        yield
        obs.set_enabled(was)
        obs.reset()

    def test_worker_counters_bit_identical_to_control(
        self, registry, workload, obs_enabled
    ):
        """The acceptance criterion: worker-side counters harvested over
        shared memory equal an in-process control run of the same pairs
        bit for bit, and equal the sum of the per-worker planes.

        Partitioning is pinned (one request per drain cycle => one
        batch per request; control uses the same batch size) because
        ``labels.query.pairs`` counts table cells, which depend on the
        batch split."""
        pairs = workload[:64]
        control_obj = _inprocess(registry, "labels")
        obs.reset()
        batched_distances(control_obj, pairs, batch_size=8)
        control = obs.registry().counter_values("labels.query")
        assert control["labels.query.pairs"] > 0

        obs.reset()
        config = ServiceConfig(
            dataset=DATASET, tier="small", workers=2,
            techniques=("labels",), max_batch=8,
        )
        with QueryService(config, registry=registry) as svc:
            obs.reset()  # drop publish-time counters: serving only
            for req in request_stream(pairs, 8):
                svc.submit("labels", req)
                svc.drain()
            snap = svc.merged_snapshot()
            per_worker = [
                s["counters"].get("labels.query.pairs", 0)
                for s in svc.pool.worker_snapshots()
            ]
        for name, want in control.items():
            assert snap["counters"][name] == want, name
        assert sum(per_worker) == control["labels.query.pairs"]

    def test_latency_breakdown_histograms(
        self, registry, workload, obs_enabled
    ):
        """serve.e2e_us / serve.stage_us.* land in the merged snapshot
        and obey the invariant e2e >= worker-compute stage."""
        config = ServiceConfig(
            dataset=DATASET, tier="small", workers=2,
            techniques=("ch",), max_batch=64,
        )
        with QueryService(config, registry=registry) as svc:
            obs.reset()
            serve_workload(svc, "ch", request_stream(workload[:64], 8))
            snap = svc.merged_snapshot()
        hists = snap["histograms"]
        e2e = hists["serve.e2e_us"]
        worker = hists["serve.stage_us.worker"]
        assert e2e["count"] == 8  # one observation per request
        assert worker["count"] >= 1  # one per batch
        # The request wrapping the slowest batch waited at least that
        # batch's worker time, so the maxima are ordered.
        assert e2e["max"] >= worker["max"]
        assert e2e["min"] >= 0 and worker["min"] >= 0
        for stage in ("queue", "scatter"):
            assert f"serve.stage_us.{stage}" in hists

    def test_status_workers_section_tracks_serving(
        self, registry, workload
    ):
        config = ServiceConfig(
            dataset=DATASET, tier="small", workers=2,
            techniques=("ch",), max_batch=64,
        )
        with QueryService(config, registry=registry) as svc:
            serve_workload(svc, "ch", request_stream(workload[:64], 8))
            rows = svc.status()["workers"]
            assert [r["worker"] for r in rows] == [0, 1]
            assert sum(r["batches"] for r in rows) >= 1
            for row in rows:
                assert row["alive"] and row["ready"]
                if row["batches"]:
                    # pid claimed by the worker itself, over shared memory
                    assert row["pid"] in svc.pool.worker_pids
                    assert row["last_commit_age_s"] is not None
                else:
                    assert row["last_commit_age_s"] is None

    def test_service_status_json_schema(self, service, tmp_path, capsys):
        """`service status --json`: the documented schema, asserted."""
        from repro.harness.cli import main as cli_main

        path = tmp_path / "manifest.json"
        save_manifest(path, service.manifest)
        assert cli_main(
            ["service", "status", "--manifest", str(path), "--json"]
        ) == 0
        info = json.loads(capsys.readouterr().out)
        assert set(info) == {
            "service", "dataset", "tier", "publisher_pid", "fingerprint",
            "techniques", "workers", "segments_ok",
        }
        assert info["segments_ok"] is True
        assert info["dataset"] == DATASET
        assert {r["worker"] for r in info["workers"]} == {0, 1}
        for row in info["workers"]:
            assert set(row) == {
                "worker", "pid", "batches", "last_commit_age_s"
            }
        for tech in info["techniques"].values():
            assert tech["nbytes"] > 0 and tech["arrays"] > 0

    def test_service_stats_cli_merged_view(
        self, registry, workload, obs_enabled, tmp_path, capsys
    ):
        """`service stats` renders the merged plane of a live service.

        Needs its own obs-enabled service (the module fixture forks its
        workers with obs off, so those planes stay empty)."""
        from repro.harness.cli import main as cli_main

        config = ServiceConfig(
            dataset=DATASET, tier="small", workers=2,
            techniques=("ch",),
        )
        with QueryService(config, registry=registry) as svc:
            for req in request_stream(workload[:32], 8):
                svc.submit("ch", req)
            svc.drain()
            path = tmp_path / "manifest.json"
            save_manifest(path, svc.manifest)
            assert cli_main(
                ["service", "stats", "--manifest", str(path), "--prom"]
            ) == 0
            out = capsys.readouterr().out
            assert "repro_serve_e2e_us" in out
            assert "repro_labels" not in out  # only the served technique
            assert cli_main(
                ["service", "stats", "--manifest", str(path), "--watch",
                 "--interval", "0.05", "--iterations", "2"]
            ) == 0
            out = capsys.readouterr().out
            assert out.count("\x1b[2J") == 2  # two clear-screen redraws
            assert "worker 0" in out and "worker 1" in out

    def test_sigusr1_metrics_snapshot(self, registry, tmp_path):
        config = ServiceConfig(
            dataset=DATASET, tier="small", workers=1,
            techniques=("ch",),
        )
        dump = tmp_path / "metrics.prom"
        prev = signal.getsignal(signal.SIGUSR1)
        with QueryService(config, registry=registry) as svc:
            svc.install_usr1_snapshot(dump)
            os.kill(os.getpid(), signal.SIGUSR1)
            time.sleep(0.05)
            assert dump.exists()
            assert "repro_serve_worker_0_pid" in dump.read_text()
        # close() restored the previous disposition
        assert signal.getsignal(signal.SIGUSR1) is prev

    def test_worker_restart_preserves_harvested_counters(
        self, registry, workload, obs_enabled
    ):
        """Counters of a killed worker survive into pool.retired and
        stay in the merged snapshot after its plane is reused."""
        config = ServiceConfig(
            dataset=DATASET, tier="small", workers=1,
            techniques=("labels",), max_batch=8,
        )
        with QueryService(config, registry=registry) as svc:
            obs.reset()
            for req in request_stream(workload[:16], 8):
                svc.submit("labels", req)
                svc.drain()
            before = svc.merged_snapshot()["counters"]["labels.query.pairs"]
            os.kill(svc.pool.worker_pids[0], signal.SIGKILL)
            for req in request_stream(workload[16:32], 8):
                svc.submit("labels", req)
                svc.drain()
            after = svc.merged_snapshot()
            assert svc.pool.restarts >= 1
            assert after["counters"]["labels.query.pairs"] > before
            retired = svc.pool.retired.snapshot()["counters"]
            assert retired.get("labels.query.pairs", 0) >= before


# ----------------------------------------------------------------------
# Trace-file collision fix
# ----------------------------------------------------------------------
class TestTraceNames:
    def test_unique_trace_path_embeds_pid_and_counter(self):
        a = obs.unique_trace_path("run.jsonl")
        b = obs.unique_trace_path("run.jsonl")
        assert a != b
        assert str(os.getpid()) in a
        assert a.endswith(".jsonl") and b.endswith(".jsonl")
        assert obs.unique_trace_path("bare").endswith(".jsonl")

    def test_foreign_claim_redirects_env_trace(self, tmp_path):
        """A second process under the same REPRO_TRACE must not clobber
        the claimant's file — it picks a pid-unique variant."""
        base = tmp_path / "trace.jsonl"
        env = dict(os.environ)
        env.update({
            "REPRO_TRACE": str(base),
            "REPRO_TRACE_PID": "1",  # someone else holds the claim
            "PYTHONPATH": "src",
        })
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro import obs; print(obs.trace_path())"],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.returncode == 0, out.stderr
        path = out.stdout.strip()
        assert path != str(base)
        assert path.startswith(str(tmp_path / "trace-"))


# ----------------------------------------------------------------------
# `service clean`: orphaned-segment recovery after a SIGKILLed publisher
# ----------------------------------------------------------------------
_PUBLISHER_SCRIPT = """
import json, sys, time
# A SIGKILL leaves no chance to unlink, but CPython's resource_tracker
# daemon outlives the kill and would race `service clean` to the
# segments (and warn about them). Real deployments lose the tracker
# too (container teardown, OOM group kills); stub registration so the
# leak is deterministic.
from multiprocessing import resource_tracker
resource_tracker.register = lambda *a, **k: None
from repro.graph.generators import grid_graph
from repro.obs.shm import MetricsPlane
from repro.persistence import GraphFingerprint
from repro.serve.segments import RingBuffers, SegmentSet, pack_graph

g = grid_graph(4, 4)
csr = g.csr()
segs = SegmentSet(
    {"dijkstra": pack_graph(csr)},
    fingerprint=GraphFingerprint.of_csr(csr),
)
ring = RingBuffers(4, 8, token=segs.manifest["service"])
segs.manifest["transport"] = ring.manifest_entry
plane = MetricsPlane("rsv-" + segs.manifest["service"] + "-mwsched")
segs.manifest.setdefault("metrics", {})["scheduler"] = plane.entry
if len(sys.argv) > 2:
    # Killed between the repair thread's stage and the serving loop's
    # flip: the next epoch's segments exist, the manifest predates them.
    staged = segs.stage(
        {"dijkstra": pack_graph(csr)},
        fingerprint=GraphFingerprint.of_csr(csr, epoch=1),
    )
with open(sys.argv[1], "w") as fh:
    json.dump(segs.manifest, fh)
print("READY", flush=True)
time.sleep(300)
"""


class TestServiceClean:
    """A SIGKILLed publisher never unlinks; `service clean` must."""

    def _spawn_publisher(self, tmp_path, *flags):
        manifest_path = tmp_path / "manifest.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-c", _PUBLISHER_SCRIPT, str(manifest_path),
             *flags],
            stdout=subprocess.PIPE, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.stdout.readline().strip() == "READY"
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        return proc, manifest_path, manifest

    def test_sigkilled_publisher_segments_cleaned(self, tmp_path):
        from repro.harness.cli import main
        from repro.serve.segments import manifest_segment_names

        proc, manifest_path, manifest = self._spawn_publisher(tmp_path)
        names = manifest_segment_names(manifest)
        try:
            # Techniques + ring + scheduler plane are all accounted for.
            assert len(names) == 3
            # Refuses while the publisher is alive, even with --force.
            rc = main(
                ["service", "clean", "--manifest", str(manifest_path),
                 "--force"]
            )
            assert rc == 1
            from repro.serve.segments import _attach_shm

            for name in names:
                _attach_shm(name, foreign=True).close()

            proc.kill()
            proc.wait()
            # The kill leaked every segment...
            for name in names:
                _attach_shm(name, foreign=True).close()
            # ...and clean unlinks them all.
            rc = main(
                ["service", "clean", "--manifest", str(manifest_path),
                 "--force"]
            )
            assert rc == 0
            for name in names:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
            # Idempotent: a second run finds nothing and succeeds.
            rc = main(
                ["service", "clean", "--manifest", str(manifest_path),
                 "--force"]
            )
            assert rc == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            from repro.serve.segments import unlink_orphans

            unlink_orphans(names)

    def test_staged_epoch_of_a_killed_publisher_is_found(self, tmp_path):
        """Segments of an epoch that was staged but never flipped are in
        no manifest; the token scan of ``/dev/shm`` finds them."""
        from repro.harness.cli import main
        from repro.serve.segments import (
            find_orphans,
            manifest_segment_names,
            unlink_orphans,
        )

        proc, manifest_path, manifest = self._spawn_publisher(
            tmp_path, "staged"
        )
        staged = f"rsv-{manifest['service']}-e1-dijkstra"
        try:
            assert staged not in manifest_segment_names(manifest)
            proc.kill()
            proc.wait()
            orphans = find_orphans(manifest)
            assert staged in orphans
            assert set(manifest_segment_names(manifest)) < set(orphans)
            rc = main(
                ["service", "clean", "--manifest", str(manifest_path),
                 "--force"]
            )
            assert rc == 0
            assert find_orphans(manifest) == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            unlink_orphans([staged, *manifest_segment_names(manifest)])

    def test_clean_confirm_aborts_on_no(self, tmp_path, monkeypatch):
        from repro.harness.cli import main

        proc, manifest_path, _ = self._spawn_publisher(tmp_path)
        try:
            proc.kill()
            proc.wait()
            monkeypatch.setattr("builtins.input", lambda prompt="": "n")
            rc = main(["service", "clean", "--manifest", str(manifest_path)])
            assert rc == 1  # aborted, nothing unlinked
            monkeypatch.setattr("builtins.input", lambda prompt="": "y")
            rc = main(["service", "clean", "--manifest", str(manifest_path)])
            assert rc == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# ----------------------------------------------------------------------
# Satellite: fused SILC compression
# ----------------------------------------------------------------------
class TestBatchedQuadtree:
    def test_differential_vs_scalar(self):
        rng = np.random.default_rng(7)
        n, k = 80, 12
        codes = rng.integers(0, 1 << 10, n).tolist()
        codes[10] = codes[11] = codes[12]  # shared Morton codes -> mixed leaves
        codes.sort()
        colors = rng.integers(0, 5, (k, n)).astype(np.int64)
        skips = rng.integers(0, n, k).tolist()
        batched = compress_partitions(codes, colors, skips)
        saw_exceptions = 0
        for r in range(k):
            intervals, exc = compress_partition(codes, colors[r].tolist(), skips[r])
            assert batched[r][0] == intervals
            assert batched[r][1] == exc
            saw_exceptions += len(exc)
        assert saw_exceptions > 0  # the mixed-leaf path was exercised

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="codes"):
            compress_partitions([0, 1], np.zeros((2, 3), dtype=np.int64), [0, 0])


def test_request_stream_chunks():
    pairs = [(0, i) for i in range(10)]
    assert request_stream(pairs, 4) == [pairs[0:4], pairs[4:8], pairs[8:10]]
    assert request_stream([], 4) == []
    with pytest.raises(ValueError):
        request_stream(pairs, 0)
