"""The observability layer: registry, spans, traces, and counter parity.

The differential suite at the bottom is the load-bearing part: the CSR
kernels and the legacy ``_*_py`` loops must not only agree on answers
(tests/test_csr_kernels.py) but on the *algorithmic counters* — settled
vertices and heap pushes — so instrumented runs are comparable across
dispatch modes.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from repro import obs
from repro.core.dijkstra import dijkstra_distance
from repro.harness.cli import main as cli_main
from repro.obs.registry import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    render_snapshot,
    to_prometheus,
)
from repro.obs.shm import MetricsPlane, PlaneMirror
from repro.obs.trace import read_trace, rollup, render_tree, tree_summary

from tests.conftest import random_pairs


@pytest.fixture()
def obs_on():
    """Enable instrumentation on a clean registry; restore after."""
    was = obs.ENABLED
    obs.reset()
    obs.set_enabled(True)
    yield obs.registry()
    obs.set_enabled(was)
    obs.reset()


class TestRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.counter("a.b").inc(4)
        reg.gauge("g").set(2.5)
        assert reg.counter("a.b").value == 5
        assert reg.gauge("g").value == 2.5
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_add_counters_and_prefix_query(self):
        reg = MetricsRegistry()
        reg.add_counters("ch.query", {"settled": 7, "stalls": 2})
        reg.add_counters("ch.query", {"settled": 3})
        assert reg.counter_values("ch.query") == {
            "ch.query.settled": 10,
            "ch.query.stalls": 2,
        }

    def test_histogram_exact_single_observation(self):
        h = Histogram()
        h.observe(42.0)
        assert h.count == 1
        assert h.mean == 42.0
        # min/max clamping makes a single observation exact at every q.
        assert h.p50 == h.p90 == h.p99 == 42.0

    def test_histogram_quantiles_within_bucket_ratio(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        # True p50 is ~50; buckets are 1.33x wide so the interpolated
        # estimate must land within one bucket ratio of the truth.
        assert 50 / 1.34 <= h.quantile(0.5) <= 50 * 1.34
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.0) >= 1.0

    def test_histogram_empty_is_nan(self):
        h = Histogram()
        assert math.isnan(h.mean)
        assert math.isnan(h.p50)
        assert h.as_dict()["min"] is None

    def test_histogram_weighted_observe(self):
        h = Histogram()
        h.observe(10.0, n=5)
        assert h.count == 5 and h.total == 50.0

    def test_bucket_bounds_monotonic(self):
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
        assert len(set(BUCKET_BOUNDS)) == len(BUCKET_BOUNDS)

    def test_snapshot_and_render(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.histogram("h").observe(5.0)
        snap = reg.snapshot()
        assert snap["schema"] == 2
        assert snap["counters"] == {"c": 3}
        # Schema 2: histograms carry their sparse buckets, so snapshots
        # from different processes can be merged loss-free.
        assert snap["histograms"]["h"]["buckets"]
        json.dumps(snap)  # snapshot must be JSON-able as-is
        rendered = reg.render()
        assert "c" in rendered and "histogram" in rendered
        assert MetricsRegistry().render() == "(registry is empty)"

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.reset()
        assert len(reg) == 0


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        obs.set_enabled(False)
        s1 = obs.span("a")
        s2 = obs.span("b")
        assert s1 is s2  # the shared no-op singleton: zero allocation

    def test_span_rolls_up_into_registry(self, obs_on):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        assert obs_on.histogram("span.outer").count == 1
        assert obs_on.histogram("span.inner").count == 1

    def test_nesting_paths(self, obs_on, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        obs.start_trace(trace_file)
        with obs.span("build"):
            with obs.span("phase"):
                pass
            with obs.span("phase"):
                pass
        obs.stop_trace()
        events = read_trace(trace_file)
        spans = [e for e in events if e["t"] == "span"]
        # Children exit before the parent; same-path spans both recorded.
        assert [s["path"] for s in spans] == [
            "build/phase", "build/phase", "build",
        ]
        assert spans[0]["depth"] == 1 and spans[-1]["depth"] == 0


    def test_span_stacks_are_per_thread(self, obs_on, tmp_path):
        """Two threads with open spans never see each other's names."""
        import threading

        trace_file = tmp_path / "run.jsonl"
        obs.start_trace(trace_file)
        both_open = threading.Barrier(2, timeout=30)

        def work(tag):
            with obs.span(f"{tag}.outer"):
                both_open.wait()  # the other thread's outer is open too
                with obs.span(f"{tag}.inner"):
                    both_open.wait()

        threads = [threading.Thread(target=work, args=(t,)) for t in "ab"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        obs.stop_trace()
        paths = sorted(
            e["path"] for e in read_trace(trace_file) if e["t"] == "span"
        )
        assert paths == ["a.outer", "a.outer/a.inner", "b.outer", "b.outer/b.inner"]


class TestTrace:
    def _write_trace(self, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        obs.start_trace(trace_file)
        obs.registry().counter("demo.counter").inc(9)
        with obs.span("build"):
            with obs.span("contract"):
                pass
        with obs.span("serve"):
            pass
        obs.stop_trace()
        return trace_file

    def test_roundtrip_with_metrics(self, obs_on, tmp_path):
        trace_file = self._write_trace(tmp_path)
        events = read_trace(trace_file)
        assert events[0]["t"] == "header" and events[0]["schema"] == 1
        from repro.obs.trace import trace_metrics

        snapshot = trace_metrics(events)
        assert snapshot["counters"]["demo.counter"] == 9

    def test_rollup_tree(self, obs_on, tmp_path):
        events = read_trace(self._write_trace(tmp_path))
        root = rollup(events)
        assert set(root.children) == {"build", "serve"}
        build = root.children["build"]
        assert set(build.children) == {"contract"}
        assert build.self_us >= 0.0
        assert build.total_us >= build.children["contract"].total_us
        rendered = render_tree(root)
        assert "contract" in rendered and "self" in rendered
        summary = tree_summary(root)
        assert summary["build"]["children"]["contract"]["count"] == 1
        json.dumps(summary)

    def test_torn_tail_is_skipped(self, obs_on, tmp_path):
        trace_file = self._write_trace(tmp_path)
        with open(trace_file, "a", encoding="utf-8") as fh:
            fh.write('{"t": "span", "name": "torn')  # crashed writer
        events = read_trace(trace_file)
        assert all("torn" not in str(e.get("name", "")) for e in events)

    def test_rejects_non_trace_files(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        with pytest.raises(ValueError, match="bad header"):
            read_trace(bad)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_trace(empty)
        skewed = tmp_path / "skew.jsonl"
        skewed.write_text('{"t": "header", "schema": 999}\n')
        with pytest.raises(ValueError, match="schema"):
            read_trace(skewed)


class TestCounterParity:
    """Settled/heap-push counts must agree between CSR and legacy paths.

    Pushes happen only on strict distance improvement on both sides, so
    every vertex carries at most one heap entry with its final label —
    the kernel's lazy-deletion pops and the legacy settled-set pops
    then biject (ROADMAP: the differential control checks counters,
    not just answers).
    """

    def _point_counters(self, monkeypatch, mode_env, graph, pairs):
        monkeypatch.setenv(mode_env, "1")
        obs.reset()
        obs.set_enabled(True)
        results = [dijkstra_distance(graph, s, t) for s, t in pairs]
        counters = obs.registry().counter_values("dijkstra.point")
        monkeypatch.delenv(mode_env)
        return results, counters

    def test_point_query_parity(self, monkeypatch, co_tiny, rng):
        pairs = random_pairs(co_tiny, rng, 25) + [(0, 0), (1, 1)]
        try:
            d_csr, c_csr = self._point_counters(
                monkeypatch, "REPRO_FORCE_CSR", co_tiny, pairs
            )
            d_py, c_py = self._point_counters(
                monkeypatch, "REPRO_NO_CSR", co_tiny, pairs
            )
        finally:
            obs.set_enabled(False)
            obs.reset()
        assert d_csr == d_py
        assert c_csr["dijkstra.point.queries"] == len(pairs)
        assert c_csr == c_py  # settled AND heap_pushes, exactly
        assert c_csr["dijkstra.point.settled"] > 0
        assert c_csr["dijkstra.point.heap_pushes"] > 0

    def test_disabled_records_nothing(self, monkeypatch, co_tiny):
        obs.reset()
        obs.set_enabled(False)
        dijkstra_distance(co_tiny, 0, co_tiny.n - 1)
        assert obs.registry().counter_values("dijkstra.point") == {}


class TestWiring:
    """Spot-checks that build/query layers actually feed the registry."""

    def test_ch_query_counters(self, obs_on, ch_co):
        ch_co.distance(0, ch_co.graph.n - 1)
        values = obs_on.counter_values("ch.query")
        assert values["ch.query.queries"] == 1
        assert values["ch.query.settled"] == ch_co.last_settled > 0

    def test_bidijkstra_counters(self, obs_on, bidij_co):
        bidij_co.distance(1, bidij_co.graph.n - 2)
        values = obs_on.counter_values("bidijkstra")
        assert values["bidijkstra.queries"] == 1
        assert values["bidijkstra.settled"] == bidij_co.last_settled > 0

    def test_tnr_locality_counters(self, obs_on, tnr_co):
        n = tnr_co.graph.n
        for s, t in [(0, n - 1), (1, n - 2), (2, 3)]:
            tnr_co.distance(s, t)
        values = obs_on.counter_values("tnr.locality")
        assert sum(values.values()) == 3
        assert values.get("tnr.locality.table_hits", 0) >= 1  # (0, n-1) is far
        assert values.get("tnr.locality.fallback", 0) >= 1    # (2, 3) is near

    def test_build_spans_cover_five_techniques(self, obs_on, de_tiny, tmp_path):
        from repro.core.bidirectional import BidirectionalDijkstra
        from repro.core.ch import ContractionHierarchy
        from repro.core.pcpd.index import build_pcpd
        from repro.core.silc import build_silc
        from repro.core.tnr import build_tnr

        trace_file = tmp_path / "pipeline.jsonl"
        obs.start_trace(trace_file)
        BidirectionalDijkstra(de_tiny)
        ch = ContractionHierarchy.build(de_tiny)
        build_tnr(de_tiny, ch, 8)
        build_silc(de_tiny, workers=0)
        build_pcpd(de_tiny, workers=0)
        obs.stop_trace()

        root = rollup(read_trace(trace_file))
        top = set(root.children)
        for phase in ("bidijkstra.setup", "ch.build", "tnr.build",
                      "silc.build", "pcpd.build"):
            assert phase in top, f"missing build span {phase}"
        assert "tnr.table" in root.children["tnr.build"].children
        assert "pcpd.apsp" in root.children["pcpd.build"].children
        counters = obs_on.counter_values("")
        assert counters["ch.build.runs"] == 1
        assert counters["silc.build.runs"] == 1
        assert counters["pcpd.build.pairs"] > 0

    def test_serve_histograms(self, obs_on, ch_co):
        from repro.harness.experiments import batched_distances

        pairs = [(0, 5), (1, 5), (0, 7), (2, 9)]
        batched_distances(ch_co, pairs, batch_size=2)
        reg = obs_on
        assert reg.counter("serve.pairs").value == 4
        assert reg.counter("serve.batches").value == 2
        assert reg.histogram("serve.batch_us").count == 2
        assert reg.histogram("serve.request_us").count == 4
        # Batch 1 repeats source 0: one source sweep saved.
        assert reg.counter("serve.dedup_saved").value >= 1

    def test_cache_counters_mirrored(self, obs_on, tmp_path):
        from repro.harness.cache import MISSING, DiskCache

        cache = DiskCache(tmp_path / "c")
        assert cache.load(("k",)) is MISSING
        cache.store(("k",), {"v": 1})
        assert cache.load(("k",)) == {"v": 1}
        values = obs_on.counter_values("cache")
        assert values["cache.misses"] == 1
        assert values["cache.hits"] == 1
        assert values["cache.writes"] == 1


class TestObsCLI:
    @pytest.fixture()
    def trace_file(self, obs_on, tmp_path, ch_co):
        from repro.harness.experiments import batched_distances

        path = tmp_path / "run.jsonl"
        obs.start_trace(path)
        batched_distances(ch_co, [(0, 5), (1, 7)])
        obs.stop_trace()
        return path

    def test_trace_subcommand_renders_tree(self, trace_file, capsys):
        assert cli_main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "serve.batched" in out and "self" in out

    def test_trace_subcommand_json(self, trace_file, capsys):
        assert cli_main(["trace", str(trace_file), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["serve.batched"]["count"] == 1

    def test_trace_subcommand_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "nope.jsonl"
        bad.write_text("garbage\n")
        assert cli_main(["trace", str(bad)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_stats_from_trace(self, trace_file, capsys):
        assert cli_main(["stats", "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "serve.pairs" in out
        assert cli_main(["stats", "--trace", str(trace_file), "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["serve.pairs"] == 2

    def test_stats_live_registry(self, obs_on, tmp_path, capsys):
        obs.registry().counter("demo.live").inc(3)
        assert cli_main(["stats", "--cache", str(tmp_path / "none")]) == 0
        assert "demo.live" in capsys.readouterr().out


class TestServeErrorPaths:
    """`repro-harness serve` must fail with one-line diagnostics."""

    def _err_lines(self, capsys):
        err = capsys.readouterr().err.strip()
        return err.splitlines()

    def test_unknown_technique(self, capsys):
        assert cli_main(["serve", "--technique", "warp"]) == 2
        lines = self._err_lines(capsys)
        assert len(lines) == 1
        assert "unknown technique 'warp'" in lines[0]

    def test_unknown_dataset(self, capsys):
        assert cli_main(["serve", "--dataset", "Atlantis",
                         "--tier", "tiny"]) == 2
        lines = self._err_lines(capsys)
        assert len(lines) == 1 and "unknown dataset" in lines[0]

    def test_malformed_pair_file(self, tmp_path, capsys):
        bad = tmp_path / "pairs.txt"
        bad.write_text("1 2\n3 four\n")
        assert cli_main(["serve", "--tier", "tiny",
                         "--pair-file", str(bad)]) == 2
        lines = self._err_lines(capsys)
        assert len(lines) == 1
        assert f"{bad}:2" in lines[0] and "non-integer" in lines[0]

    def test_pair_file_wrong_arity(self, tmp_path, capsys):
        bad = tmp_path / "pairs.txt"
        bad.write_text("1 2 3\n")
        assert cli_main(["serve", "--tier", "tiny",
                         "--pair-file", str(bad)]) == 2
        assert "expected 'source target'" in self._err_lines(capsys)[0]

    def test_missing_pair_file(self, tmp_path, capsys):
        assert cli_main(["serve", "--tier", "tiny",
                         "--pair-file", str(tmp_path / "nope.txt")]) == 2
        assert "cannot read pair file" in self._err_lines(capsys)[0]

    def test_empty_batch(self, tmp_path, capsys):
        empty = tmp_path / "pairs.txt"
        empty.write_text("# nothing but comments\n\n")
        assert cli_main(["serve", "--tier", "tiny",
                         "--pair-file", str(empty)]) == 1
        lines = self._err_lines(capsys)
        assert len(lines) == 1 and "empty batch" in lines[0]

    def test_out_of_range_pair(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 999999\n")
        assert cli_main(["serve", "--tier", "tiny",
                         "--pair-file", str(pairs)]) == 2
        assert "out of range" in self._err_lines(capsys)[0]

    def test_pair_file_happy_path(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 5\n1 3  # comment\n0 5\n")
        assert cli_main(["serve", "--tier", "tiny",
                         "--pair-file", str(pairs), "--check"]) == 0
        out = capsys.readouterr().out
        assert "served 3 pairs" in out and "answers identical" in out


class TestHistogramMerge:
    """Histogram.merge / merge_snapshot: exact bucket-wise aggregation."""

    def _filled(self, values):
        h = Histogram()
        for v in values:
            h.observe(v)
        return h

    def test_merge_equals_concatenation(self, rng):
        a_vals = [rng.uniform(0.5, 1e5) for _ in range(500)]
        b_vals = [rng.uniform(10.0, 1e7) for _ in range(300)]
        a = self._filled(a_vals)
        a.merge(self._filled(b_vals))
        whole = self._filled(a_vals + b_vals)
        assert a.counts == whole.counts
        assert a.count == whole.count
        assert a.total == pytest.approx(whole.total)
        assert a.vmin == whole.vmin and a.vmax == whole.vmax
        # Merged quantiles are *identical* to the single histogram of
        # the concatenated stream at every q...
        for q in (0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert a.quantile(q) == whole.quantile(q)
        # ...and within one bucket ratio (8 buckets/decade => 10^(1/8)
        # ~ 1.334) of the true sample quantile.
        ratio = 10 ** (1 / 8) * 1.001
        ordered = sorted(a_vals + b_vals)
        for q in (0.25, 0.5, 0.9, 0.99):
            true = ordered[min(int(q * len(ordered)), len(ordered) - 1)]
            assert true / ratio <= a.quantile(q) <= true * ratio

    def test_merge_empty_cases(self):
        empty = Histogram()
        empty.merge(Histogram())
        assert empty.count == 0 and math.isnan(empty.p50)
        empty.merge(self._filled([3.0, 4.0]))  # empty += filled
        assert empty.count == 2 and empty.vmin == 3.0 and empty.vmax == 4.0
        filled = self._filled([5.0])
        filled.merge(Histogram())  # filled += empty is a no-op
        assert filled.count == 1 and filled.p50 == 5.0

    def test_nan_observation_lands_in_overflow_bucket(self):
        # bisect_right(bounds, nan) returns len(bounds): NaN falls into
        # the overflow bucket; min/max are untouched (NaN comparisons
        # are all false). Pinned so a refactor can't silently change it.
        h = Histogram()
        h.observe(math.nan)
        assert h.count == 1
        assert h.counts[-1] == 1
        assert h.vmin == math.inf and h.vmax == -math.inf

    def test_from_dict_roundtrip_and_schema1_rejection(self):
        h = self._filled([1.0, 10.0, 100.0])
        clone = Histogram.from_dict(h.as_dict())
        assert clone.counts == h.counts
        assert clone.total == h.total
        assert clone.vmin == h.vmin and clone.vmax == h.vmax
        assert Histogram.from_dict({"count": 0}).count == 0  # empty is fine
        with pytest.raises(ValueError, match="bucket"):
            Histogram.from_dict({"count": 5, "sum": 10.0})  # schema-1 dict

    def test_registry_merge_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.counter("only_b").inc()
        a.gauge("g").set(1.0)
        b.gauge("g").set(7.0)
        a.histogram("h").observe(5.0)
        b.histogram("h").observe(50.0)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"] == {"c": 5, "only_b": 1}
        assert snap["gauges"]["g"] == 7.0  # last write wins
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["min"] == 5.0
        assert snap["histograms"]["h"]["max"] == 50.0

    def test_merge_snapshot_rejects_schema1_histograms(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="'h'"):
            reg.merge_snapshot(
                {"histograms": {"h": {"count": 3, "sum": 1.0}}}
            )


class TestRenderAndProm:
    def test_histogram_row_includes_min(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(2.0)
        reg.histogram("h").observe(8.0)
        assert "min=2 " in reg.render()

    def test_engineering_notation_for_large_values(self):
        reg = MetricsRegistry()
        reg.counter("big").inc(12345678)
        reg.histogram("h").observe(2.5e9)
        rendered = reg.render()
        assert "12.35e6" in rendered   # exponent is a multiple of 3
        assert "2.5e9" in rendered
        # Infinities (an empty histogram's min/max never render, but a
        # merged gauge could carry one) must not hit log10.
        assert "inf" in render_snapshot({"gauges": {"g": math.inf}})

    def test_to_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("serve.pairs").inc(4)
        reg.gauge("serve.worker.0.pid").set(123)
        h = reg.histogram("serve.e2e_us")
        h.observe(5.0)
        h.observe(50.0)
        text = to_prometheus(reg.snapshot())
        assert "# TYPE repro_serve_pairs counter\nrepro_serve_pairs 4" in text
        assert "repro_serve_worker_0_pid 123" in text
        assert "# TYPE repro_serve_e2e_us histogram" in text
        assert 'repro_serve_e2e_us_bucket{le="+Inf"} 2' in text
        assert "repro_serve_e2e_us_sum 55" in text
        assert "repro_serve_e2e_us_count 2" in text
        # Cumulative buckets: the le-bound covering 50 counts both.
        assert text.endswith("\n")

    def test_to_prometheus_schema1_degrades(self):
        text = to_prometheus(
            {"histograms": {"h": {"count": 3, "sum": 6.0}}}
        )
        assert "repro_h_sum 6" in text and "repro_h_count 3" in text
        assert "_bucket" not in text


class TestMetricsPlane:
    """The shared-memory worker metrics plane (repro.obs.shm)."""

    def test_roundtrip_through_foreign_attach(self):
        reg = MetricsRegistry()
        with MetricsPlane(f"rsv-test-{id(self):x}") as plane:
            plane.set_pid(4242)
            reg.set_mirror(PlaneMirror(plane))
            reg.counter("c").inc(7)
            reg.gauge("g").set(2.5)
            reg.histogram("h").observe(5.0)
            reg.histogram("h").observe(500.0)
            plane.note_batch()

            reader = MetricsPlane.attach(plane.entry, foreign=True)
            try:
                head = reader.header()
                assert head["pid"] == 4242
                assert head["batches"] == 1
                snap = reader.snapshot()
            finally:
                reader.close()
            assert snap["counters"] == {"c": 7}
            assert snap["gauges"] == {"g": 2.5}
            want = reg.histogram("h").as_dict()
            assert snap["histograms"]["h"] == want
            reg.set_mirror(None)

    def test_concurrent_instrument_creation_keeps_every_row(self):
        """Threads registering names at once (the service's repair
        thread next to its serving thread): every instrument gets its
        own plane row and no name is lost or allocated twice."""
        import sys
        import threading

        n_threads, per_thread = 8, 12
        want = {
            f"t{k}.c{i}": k + 1
            for k in range(n_threads) for i in range(per_thread)
        }
        was = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(10):
                reg = MetricsRegistry()
                name = f"rsv-test3-{id(self):x}-{round_}"
                with MetricsPlane(name) as plane:
                    reg.set_mirror(PlaneMirror(plane))
                    go = threading.Barrier(n_threads, timeout=30)

                    def work(k):
                        go.wait()
                        for i in range(per_thread):
                            reg.counter(f"t{k}.c{i}").inc(k + 1)
                            reg.histogram(f"t{k}.h{i}").observe(float(i + 1))

                    threads = [
                        threading.Thread(target=work, args=(k,))
                        for k in range(n_threads)
                    ]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(30)
                        assert not t.is_alive()
                    snap = plane.snapshot()
                    reg.set_mirror(None)
                assert snap["counters"] == want
                assert len(snap["histograms"]) == n_threads * per_thread
        finally:
            sys.setswitchinterval(was)

    def test_attach_before_and_after_instrument_creation(self):
        reg = MetricsRegistry()
        reg.counter("early").inc(3)  # exists before the mirror
        with MetricsPlane(f"rsv-test2-{id(self):x}") as plane:
            reg.set_mirror(PlaneMirror(plane))
            reg.counter("late").inc(4)  # created after the mirror
            snap = plane.snapshot()
            assert snap["counters"] == {"early": 3, "late": 4}
            reg.set_mirror(None)

    def test_full_table_drops_not_crashes(self):
        reg = MetricsRegistry()
        with MetricsPlane(
            f"rsv-test3-{id(self):x}", max_counters=2
        ) as plane:
            reg.set_mirror(PlaneMirror(plane))
            for i in range(4):
                reg.counter(f"c{i}").inc()
            head = plane.header()
            assert head["counters"] == 2
            assert head["dropped"] == 2  # overflow counted, not fatal
            assert len(plane.snapshot()["counters"]) == 2
            reg.set_mirror(None)

    def test_registry_reset_zeroes_the_plane(self):
        reg = MetricsRegistry()
        with MetricsPlane(f"rsv-test4-{id(self):x}") as plane:
            plane.set_pid(99)
            reg.set_mirror(PlaneMirror(plane))
            reg.counter("c").inc(5)
            reg.histogram("h").observe(1.0)
            reg.reset()
            snap = plane.snapshot()
            assert snap["counters"] == {} and snap["histograms"] == {}
            assert plane.header()["pid"] == 99  # identity survives reset
            reg.set_mirror(None)

    def test_attach_rejects_mismatched_entry(self):
        with MetricsPlane(f"rsv-test5-{id(self):x}") as plane:
            bad = dict(plane.entry, max_counters=9999)
            with pytest.raises(ValueError):
                MetricsPlane.attach(bad, foreign=True)


class TestStatsMergeCLI:
    def _worker_trace(self, tmp_path, name, pairs, latencies):
        path = tmp_path / name
        obs.start_trace(path)
        obs.registry().counter("labels.query.pairs").inc(pairs)
        for v in latencies:
            obs.registry().histogram("serve.e2e_us").observe(v)
        obs.stop_trace()
        obs.reset()
        return path

    def test_merge_two_worker_traces(self, obs_on, tmp_path, capsys):
        a = self._worker_trace(tmp_path, "w-1.jsonl", 30, [10.0, 20.0])
        b = self._worker_trace(tmp_path, "w-2.jsonl", 12, [30.0])
        assert cli_main(["stats", "--merge", str(a), str(b), "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["labels.query.pairs"] == 42
        assert snap["histograms"]["serve.e2e_us"]["count"] == 3
        assert snap["histograms"]["serve.e2e_us"]["min"] == 10.0
        assert snap["histograms"]["serve.e2e_us"]["max"] == 30.0

    def test_merge_prom_output(self, obs_on, tmp_path, capsys):
        a = self._worker_trace(tmp_path, "w-1.jsonl", 5, [])
        assert cli_main(["stats", "--merge", str(a), "--prom"]) == 0
        assert "repro_labels_query_pairs 5" in capsys.readouterr().out

    def test_merge_and_trace_are_exclusive(self, tmp_path, capsys):
        assert cli_main(
            ["stats", "--merge", "a.jsonl", "--trace", "b.jsonl"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_merge_missing_file_errors_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "gone.jsonl"
        assert cli_main(["stats", "--merge", str(missing)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and len(err.splitlines()) == 1


# ----------------------------------------------------------------------
# Prometheus exposition-format grammar
# ----------------------------------------------------------------------
# A scraper parses `stats --prom` with the exposition grammar, not with
# substring matches — so the tests here validate the whole output
# against that grammar (metric/label name charsets, sample line shape,
# cumulative `le` buckets with a `+Inf` terminal), catching the classes
# of breakage a "this substring appears" test never would.
_PROM_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_PROM_TYPE_LINE = re.compile(
    r"^# TYPE (?P<name>\S+) (?P<kind>counter|gauge|histogram|summary|untyped)$"
)
_PROM_SAMPLE = re.compile(
    r"^(?P<name>[^{ ]+)(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$"
)
_PROM_LABEL_PAIR = re.compile(r'^(?P<key>[^=]+)="(?P<val>[^"\\]*)"$')


def _prom_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)  # accepts "NaN"; raises on garbage


def parse_exposition(text: str):
    """Parse ``text`` strictly; asserts on any grammar violation.

    Returns ``(types, samples)`` — the ``{metric: kind}`` map from the
    ``# TYPE`` comments and the ``[(name, labels, value)]`` sample list.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    types: dict[str, str] = {}
    samples: list[tuple[str, dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        assert line == line.strip(), f"line {lineno}: stray whitespace"
        if line.startswith("#"):
            m = _PROM_TYPE_LINE.match(line)
            assert m, f"line {lineno}: malformed comment: {line!r}"
            name = m["name"]
            assert _PROM_METRIC_NAME.match(name), \
                f"line {lineno}: bad metric name {name!r}"
            assert name not in types, f"line {lineno}: duplicate TYPE {name}"
            types[name] = m["kind"]
            continue
        m = _PROM_SAMPLE.match(line)
        assert m, f"line {lineno}: malformed sample: {line!r}"
        name = m["name"]
        assert _PROM_METRIC_NAME.match(name), \
            f"line {lineno}: bad metric name {name!r}"
        labels: dict[str, str] = {}
        if m["labels"]:
            for pair in m["labels"].split(","):
                pm = _PROM_LABEL_PAIR.match(pair)
                assert pm, f"line {lineno}: malformed label: {pair!r}"
                assert _PROM_LABEL_NAME.match(pm["key"]), \
                    f"line {lineno}: bad label name {pm['key']!r}"
                assert pm["key"] not in labels, \
                    f"line {lineno}: duplicate label {pm['key']!r}"
                labels[pm["key"]] = pm["val"]
        samples.append((name, labels, _prom_value(m["value"])))
    return types, samples


def check_exposition(text: str):
    """Full semantic check on top of :func:`parse_exposition`."""
    types, samples = parse_exposition(text)
    by_name: dict[str, list] = {}
    for name, labels, value in samples:
        by_name.setdefault(name, []).append((labels, value))

    for name, entries in by_name.items():
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            stem = name[: -len(suffix)] if name.endswith(suffix) else None
            if stem and types.get(stem) == "histogram":
                base = stem
                break
        assert base in types, f"sample {name} has no # TYPE declaration"
        kind = types[base]
        if kind in ("counter", "gauge"):
            assert name == base
            assert len(entries) == 1, f"{name}: duplicate series"
            labels, value = entries[0]
            assert labels == {}, f"{name}: unexpected labels"
            if kind == "counter":
                assert value >= 0, f"{name}: negative counter"

    for name, kind in types.items():
        if kind != "histogram":
            continue
        count_series = by_name.get(f"{name}_count")
        sum_series = by_name.get(f"{name}_sum")
        assert count_series and sum_series, f"{name}: missing _sum/_count"
        count = count_series[0][1]
        buckets = by_name.get(f"{name}_bucket")
        if buckets is None:
            continue  # schema-1 degradation: _sum/_count only
        les = []
        for labels, value in buckets:
            assert set(labels) == {"le"}, f"{name}_bucket: labels {labels}"
            les.append((_prom_value(labels["le"]), value))
        bounds = [le for le, _ in les]
        counts = [v for _, v in les]
        assert bounds == sorted(bounds) and len(set(bounds)) == len(bounds), \
            f"{name}: le bounds not strictly increasing: {bounds}"
        assert counts == sorted(counts), \
            f"{name}: bucket counts not cumulative: {counts}"
        assert bounds[-1] == math.inf, f"{name}: no +Inf terminal bucket"
        assert counts[-1] == count, \
            f"{name}: +Inf bucket {counts[-1]} != _count {count}"
    return types, by_name


class TestPrometheusGrammar:
    """`stats --prom` output must survive a real exposition parser."""

    def test_registry_output_parses(self):
        reg = MetricsRegistry()
        reg.counter("serve.pairs").inc(41)
        reg.counter("dijkstra.settled").inc(7)
        reg.gauge("serve.epoch").set(3)
        reg.gauge("serve.worker.0.pid").set(1234)
        h = reg.histogram("serve.e2e_us")
        for v in (0.5, 3.0, 3.0, 40.0, 41.0, 5e6):
            h.observe(v)
        reg.histogram("serve.swap_us").observe(120.0)
        types, by_name = check_exposition(to_prometheus(reg.snapshot()))
        assert types["repro_serve_pairs"] == "counter"
        assert types["repro_serve_epoch"] == "gauge"
        assert types["repro_serve_e2e_us"] == "histogram"
        # Six observations land in the +Inf terminal.
        inf_bucket = [
            v for labels, v in by_name["repro_serve_e2e_us_bucket"]
            if labels["le"] == "+Inf"
        ]
        assert inf_bucket == [6.0]

    def test_dotted_names_are_sanitised(self):
        """Dots (and anything outside [a-zA-Z0-9_]) must be mapped into
        the legal charset, never emitted raw."""
        reg = MetricsRegistry()
        reg.counter("a.b-c:d e.pairs").inc()
        types, _ = check_exposition(to_prometheus(reg.snapshot()))
        assert list(types) == ["repro_a_b_c_d_e_pairs"]

    def test_special_values_parse(self):
        """inf/nan gauges render as +Inf/NaN, which the grammar accepts."""
        text = to_prometheus(
            {"gauges": {"up": math.inf, "down": -math.inf, "odd": math.nan}}
        )
        _, by_name = check_exposition(text)
        assert by_name["repro_up"][0][1] == math.inf
        assert by_name["repro_down"][0][1] == -math.inf
        assert math.isnan(by_name["repro_odd"][0][1])

    def test_empty_histogram_still_terminates(self):
        """Zero observations: no finite buckets, but the +Inf terminal
        and _count must still agree (both 0)."""
        reg = MetricsRegistry()
        reg.histogram("h")  # never observed
        types, by_name = check_exposition(to_prometheus(reg.snapshot()))
        assert types["repro_h"] == "histogram"
        assert by_name["repro_h_count"][0][1] == 0
        assert by_name["repro_h_bucket"][-1][1] == 0

    def test_cli_stats_prom_is_grammatical(self, obs_on, tmp_path, capsys):
        """The end-to-end path: a recorded trace merged and exposed via
        `repro-harness stats --prom` parses under the full grammar."""
        path = tmp_path / "w.jsonl"
        obs.start_trace(path)
        obs.registry().counter("labels.query.pairs").inc(17)
        for v in (4.0, 9.0, 1500.0):
            obs.registry().histogram("serve.e2e_us").observe(v)
        obs.registry().gauge("serve.epoch").set(2)
        obs.stop_trace()
        obs.reset()
        assert cli_main(["stats", "--merge", str(path), "--prom"]) == 0
        types, by_name = check_exposition(capsys.readouterr().out)
        assert types["repro_labels_query_pairs"] == "counter"
        assert by_name["repro_serve_e2e_us_count"][0][1] == 3.0
