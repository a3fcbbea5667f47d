"""The traced run: the same workload again, with the per-layer metrics.

Differences from the untraced run (``bench.workloads.run``):

- bench-side spans are recorded around every call into a layer and
  written to ``<out>/<workload>.trace.json`` when the run ends;
- ``repro.obs`` is switched on, so the program's own public snapshot
  (``QueryService.merged_snapshot``) can be read for the stage split;
- before that switch, ``dist_us.ch`` and ``capacity_rps`` are measured
  once more with everything off — the difference is the price of
  tracing and is reported as ``obs.overhead_share.*``;
- the open loop walks the whole rate ladder, not just the headline rate;
- layer probes that belong to the workload run at the end.

A per-layer metric of a layer the workload never enters is not
emitted here; ``bench.run`` reports it as 0.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.analysis.memory import deep_sizeof
from repro.core.ch.many_to_many import many_to_many
from repro.dynamic import DynamicState
from repro.graph.csr import CSRGraph
from repro.harness.experiments import batched_distances
from repro.harness.registry import Registry
from repro.queries.workloads import linf_query_sets
from repro.serve.pool import build_techniques
from repro.serve.segments import attach_segments
from repro.serve.service import QueryService

from bench import workloads as W
from bench.oracle import Oracle, count_wrong
from bench.trace import Tracer

MIB = float(2**20)
STAGES = ("queue", "publish", "dispatch", "worker", "scatter")
#: Pairs and batch size of the in-process batch-kernel probes.
BATCH_PAIRS, BATCH = 8000, 256
RTT_REQUESTS = 200
SSSP_CALLS = 64
#: Extra point operation of the traced ``paper-point`` run.
DIJKSTRA_PATH = W.PointOp("core.dijkstra.path_us", "dijkstra", "path", 8)
#: (technique, dataset tier) of the spatial methods: the largest tiers
#: of DE their all-pairs preprocessing builds in under a second.
SPATIAL = (("silc", "medium"), ("pcpd", "small"))


def run(wl: W.Workload, seed: int, seconds: float, out_dir: Path) -> W.Outcome:
    out = W.Outcome()
    tracer = Tracer(True)
    m = out.metrics
    point_s, closed_s, open_s = (share * seconds for share in wl.shares)
    try:
        with tracer.span("run"):
            with tracer.span("setup"):
                built = W.build(seed, tracer)
            oracle = Oracle.of_graph(built.graph)
            want = oracle.distances(built.pairs)
            W.quiet_gc()

            # Everything off: the reference the overhead is taken against.
            ch_op = next(op for op in W.POINT_OPS if op.metric == "dist_us.ch")
            ch_off = W.per_query_us(
                W.point_section(built, oracle, want, 0, Tracer(False), out, (ch_op,)), ch_op
            )
            cap_off = None
            if wl.published and not wl.churn:
                cap_off = capacity(wl, built, seed, closed_s, oracle, out, Tracer(False))

            obs.reset()
            obs.set_enabled(True)
            built.techniques["tnr"].stats.reset()
            ops = W.POINT_OPS + ((DIJKSTRA_PATH,) if not wl.published else ())
            with tracer.span("point_section"):
                passes = W.point_section(built, oracle, want, point_s, tracer, out, ops)
            m.update(W.band_metrics(passes, built.band, W.POINT_OPS))
            if not wl.published:
                m[DIJKSTRA_PATH.metric] = W.per_query_us(passes, DIJKSTRA_PATH)
            ch_on = W.per_query_us(passes, ch_op)
            m["obs.overhead_share.dist_us_ch"] = (ch_on - ch_off) / ch_off
            m.update(build_metrics(built, tracer))
            with tracer.span("probes.graph"):
                m.update(graph_probes(built))

            if not wl.published:
                with tracer.span("probes.spatial"):
                    m.update(spatial_probes(seed, out))
            elif wl.churn:
                with tracer.span("serve_section"):
                    m.update(churn_section(wl, built, seed, open_s, oracle, out, tracer))
                with tracer.span("probes.dynamic_tnr"):
                    m.update(dynamic_tnr_probe(built))
            else:
                with tracer.span("serve_section"):
                    m.update(serve_section(
                        wl, built, seed, closed_s, open_s, oracle, out, tracer, cap_off
                    ))
                if "tnr" in wl.published:
                    with tracer.span("probes.batch"):
                        m.update(batch_probes(wl, built, out))
    finally:
        gc.enable()
        obs.set_enabled(False)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{wl.name}.trace.json"
    tracer.write(path, {"workload": wl.name, "seed": seed, "seconds": seconds})
    out.notes["trace_file"] = str(path)
    out.notes["spans"] = len(tracer.spans)
    return out


# ----------------------------------------------------------------------
# graph / queries / core
# ----------------------------------------------------------------------
def build_metrics(built, tracer: Tracer) -> dict:
    """Build seconds from the set-up spans; sizes and counts off the indexes."""
    took = tracer.seconds()
    ch, tnr, labels = (built.techniques[t].index for t in ("ch", "tnr", "labels"))
    sizes = labels.label_sizes()
    stats = built.techniques["tnr"].stats
    answered = stats.answered_by_table + stats.answered_by_fallback
    return {
        "graph.generators.build_s": took["graph.generators.build"],
        "queries.workloads.qsets_s": took["queries.workloads.qsets"],
        "queries.workloads.rsets_s": took["queries.workloads.rsets"],
        "core.ch.build_s": took["core.ch.build"],
        "core.labels.build_s": took["core.labels.build"],
        "core.tnr.build_s": took["core.tnr.build"],
        "core.ch.index_mb": deep_sizeof(ch) / MIB,
        "core.labels.index_mb": deep_sizeof(labels) / MIB,
        "core.tnr.index_mb": deep_sizeof(tnr) / MIB,
        "core.ch.shortcuts": ch.n_shortcuts,
        "core.tnr.transit_nodes": tnr.n_transit_nodes,
        "core.labels.label_size_mean": float(sizes.mean()),
        "core.labels.label_size_max": int(sizes.max()),
        "core.tnr.table_hit_share": stats.answered_by_table / answered,
    }


def graph_probes(built) -> dict:
    graph = built.graph
    adjacency = [graph.neighbors(u) for u in range(graph.n)]
    t0 = time.perf_counter()
    CSRGraph.from_adjacency(graph.xs, graph.ys, adjacency)
    freeze_s = time.perf_counter() - t0
    csr = graph.csr()
    sources = np.linspace(0, graph.n - 1, SSSP_CALLS).astype(int)
    t0 = time.perf_counter()
    for s in sources:
        csr.sssp(int(s))
    sssp_s = time.perf_counter() - t0
    return {
        "graph.csr.freeze_ms": freeze_s * 1e3,
        "graph.csr.sssp_ns_per_settle": sssp_s * 1e9 / (SSSP_CALLS * graph.n),
    }


def spatial_probes(seed: int, out: W.Outcome) -> dict:
    """SILC and PCPD on DE, built only here: build, size, point queries."""
    m = {}
    for name, tier in SPATIAL:
        reg = Registry(tier=tier, cache="off", workers=1, verbose=False)
        graph = reg.graph("DE")
        t0 = time.perf_counter()
        technique = getattr(reg, name)("DE")
        m[f"core.{name}.build_s"] = time.perf_counter() - t0
        m[f"core.{name}.index_mb"] = deep_sizeof(technique.index) / MIB
        pairs = [p for q in linf_query_sets(graph, 20, seed=seed) for p in q.pairs]
        oracle = Oracle.of_graph(graph)
        want = oracle.distances(pairs)
        seconds, answers = W.timed_pass(technique.distance, pairs)
        m[f"core.{name}.dist_us"] = float(seconds.mean() * 1e6)
        out.check(len(pairs), count_wrong(answers, want))
        seconds, answers = W.timed_pass(technique.path, pairs)
        m[f"core.{name}.path_us"] = float(seconds.mean() * 1e6)
        out.check(len(pairs), sum(
            not oracle.path_ok(p, float(d), a) for p, d, a in zip(pairs, want, answers)
        ))
    return m


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def capacity(wl, built, seed, closed_s, oracle, out, tracer, workers=W.WORKERS) -> float:
    """Closed-loop requests/s of a fresh service with ``workers`` workers."""
    svc, pool = W.start_service(wl, built, seed, workers)
    try:
        W.ramp(svc, wl, pool, seed)
        return W.closed_loop_rps(
            svc, wl, pool, seed, closed_s - W.RAMP_S, oracle, out, tracer
        )
    finally:
        svc.close()


def headline_metrics(svc, before: dict, result) -> dict:
    """What the program itself saw of the headline step.

    ``before`` is ``status()`` taken when the registry was reset, just
    ahead of the step: stage p50s from the program's snapshot and what
    they leave of the end-to-end p50, and the scheduler's counts.
    """
    hists = svc.merged_snapshot()["histograms"]
    m = {f"serve.stage_us.{s}": hists[f"serve.stage_us.{s}"]["p50"] for s in STAGES}
    m["serve.stage_residual_us"] = hists["serve.e2e_us"]["p50"] - sum(m.values())
    after = svc.status()
    m["serve.scheduler.gen_late_p99_ms"] = float(np.percentile(result.late, 99) * 1e3)
    m["serve.scheduler.ring_full"] = after["ring_full"] - before["ring_full"]
    m["serve.scheduler.batch_pairs_mean"] = (
        (after["dispatched_pairs"] - before["dispatched_pairs"])
        / (after["dispatched_batches"] - before["dispatched_batches"])
    )
    return m


def request_spans(tracer: Tracer, result) -> None:
    for i in np.flatnonzero(~np.isnan(result.latency)):
        begin = result.start + result.due[i]
        tracer.add("serve.request", begin, begin + result.latency[i], request=int(i))


def rtt_us(svc, graph) -> float:
    """Median round trip of a lone 1-pair request on the idle service."""
    took = []
    for k in range(RTT_REQUESTS):
        v = (k * 37) % graph.n
        t0 = time.perf_counter()
        fut = svc.submit("dijkstra", [(v, v)])
        while not fut.done:
            svc.pump(0.0005)
        took.append(time.perf_counter() - t0)
        fut.result()
    return float(np.median(took) * 1e6)


def ladder(svc, wl, pool, seed, open_s, oracle, out, tracer) -> dict:
    """Every rate of the ladder, headline first (its stage split is read
    from a freshly reset registry, before any other step pollutes it)."""
    m = {}
    slo = 0.0
    other_s = open_s / 2
    for rate in (wl.headline, *[r for r in wl.ladder if r != wl.headline]):
        step = wl.ladder.index(rate) + 1
        head = rate == wl.headline
        before = svc.status()
        obs.reset()
        with tracer.span(f"serve.open_step.{rate}"):
            result, _ = W.open_step(svc, wl, pool, rate, open_s if head else other_s, seed)
            if head:
                request_spans(tracer, result)
        p50, p99 = W.latency_ms(result, windows=1)
        m[f"serve.service.lat_p50_ms.step{step}"] = p50
        m[f"serve.service.lat_p99_ms.step{step}"] = p99
        late_p99 = float(np.percentile(result.late, 99) * 1e3)
        overload = rate == wl.ladder[-1]
        if head:
            m.update(headline_metrics(svc, before, result))
        if overload:
            m["serve.scheduler.shed_share.overload"] = result.refused / result.attempted
        if not result.refused and p99 <= W.SLO_P99_MS and late_p99 <= W.SLO_P99_MS:
            slo = max(slo, float(rate))
        # Shedding is what the overload step is for; it is reported
        # above and not counted against the run.
        W.verify_replies(oracle, result.futures, out, 0 if overload else result.refused)
        out.notes[f"step{step}"] = W.step_notes(rate, result)
    m["serve.service.slo_rate_rps"] = slo
    return m


def serve_section(wl, built, seed, closed_s, open_s, oracle, out, tracer, cap_off) -> dict:
    m = {}
    with tracer.span("serve.start_service"):
        svc, pool = W.start_service(wl, built, seed)
    try:
        m["serve.segments.bytes"] = sum(svc.status()["segment_bytes"].values())
        W.ramp(svc, wl, pool, seed)
        m.update(ladder(svc, wl, pool, seed, open_s, oracle, out, tracer))
        cap_on = W.closed_loop_rps(
            svc, wl, pool, seed, closed_s - W.RAMP_S, oracle, out, tracer
        )
        m["obs.overhead_share.capacity_rps"] = (cap_off - cap_on) / cap_off
        with tracer.span("serve.pool.rtt"):
            m["serve.pool.rtt_us"] = rtt_us(svc, built.graph)
        out.notes["service"] = W.service_notes(svc)
    finally:
        svc.close()
    m["serve.segments.publish_ms"] = publish_ms(wl, built)
    with tracer.span("serve.pool.one_worker"):
        cap_1w = capacity(wl, built, seed, closed_s, oracle, out, tracer, workers=1)
    m["serve.pool.scaling_2w"] = cap_on / cap_1w
    return m


def publish_ms(wl, built) -> float:
    """``QueryService(...)`` on the memory-warm registry: pack, publish, fork."""
    t0 = time.perf_counter()
    svc = QueryService(W.service_config(wl), registry=built.reg)
    took = time.perf_counter() - t0
    svc.close()
    return took * 1e3


def batch_probes(wl, built, out: W.Outcome) -> dict:
    """In-process batch kernels, and the same batches through ``Shared*``."""
    m = {}
    pairs = (built.pairs * (BATCH_PAIRS // len(built.pairs) + 1))[:BATCH_PAIRS]
    answers = {}
    for name in ("dijkstra", "ch", "tnr", "labels"):
        # Bidirectional Dijkstra answers a batch pair by pair at ~1 ms.
        subset = pairs[:BATCH_PAIRS // 16] if name == "dijkstra" else pairs
        t0 = time.perf_counter()
        answers[name] = batched_distances(built.techniques[name], subset, BATCH)
        took = time.perf_counter() - t0
        m[f"harness.experiments.batch_kpps.{name}"] = len(subset) / took / 1e3
    ch = built.techniques["ch"]
    nodes = sorted({v for p in built.pairs for v in p})[:BATCH]
    t0 = time.perf_counter()
    many_to_many(ch, nodes, nodes)
    m["core.ch.m2m_table_ms"] = (time.perf_counter() - t0) * 1e3

    svc = QueryService(W.service_config(wl), registry=built.reg)
    try:
        segs = attach_segments(svc.manifest)
        try:
            shared = build_techniques(segs)
            for name in ("ch", "tnr", "labels"):
                t0 = time.perf_counter()
                got = batched_distances(shared[name], pairs, BATCH)
                took = time.perf_counter() - t0
                m[f"serve.pool.shared_kpps.{name}"] = len(pairs) / took / 1e3
                out.check(len(pairs), count_wrong(got, answers[name]))
            del shared
        finally:
            segs.close()
    finally:
        svc.close()
    return m


# ----------------------------------------------------------------------
# dynamic
# ----------------------------------------------------------------------
def churn_section(wl, built, seed, open_s, oracle, out, tracer) -> dict:
    m = {}
    with tracer.span("serve.start_service"):
        svc, pool = W.start_service(wl, built, seed)
    try:
        m["serve.segments.bytes"] = sum(svc.status()["segment_bytes"].values())
        with tracer.span("dynamic.init"):
            churn = W.Churn.start(svc, built.graph, open_s)
        m["dynamic.init_s"] = churn.update_s[0]
        churn.teach(oracle)
        W.ramp(svc, wl, pool, seed)
        before = svc.status()
        obs.reset()
        with tracer.span(f"serve.open_step.{wl.headline}"):
            result = churn.open_loop(svc, wl, pool, seed, oracle, out)
            request_spans(tracer, result)
            for t0, t1 in churn.spans[1:]:
                tracer.add("dynamic.apply_updates", t0, t1)
        m.update(headline_metrics(svc, before, result))
        p50, p99 = W.latency_ms(result, windows=1)
        m["serve.service.lat_p50_ms.step1"] = p50
        m["serve.service.lat_p99_ms.step1"] = p99
        done = result.latency[~np.isnan(result.latency)]
        m["dynamic.stall_share"] = float(np.mean(done > W.STALL_S))
        update_ms = np.array(churn.update_s[1:]) * 1e3
        reports = churn.reports[1:]
        m["dynamic.updates"] = len(reports)
        m["dynamic.update_ms"] = float(np.median(update_ms))
        for t in ("ch", "labels"):
            m[f"dynamic.repair_ms.{t}"] = float(
                np.median([r.repair_us[t] for r in reports]) / 1e3
            )
        repaired_ms = np.array([sum(r.repair_us.values()) for r in reports]) / 1e3
        m["dynamic.swap_ms"] = float(np.median(update_ms - repaired_ms))
        m["dynamic.labels_dirty_mean"] = float(np.mean([r.labels_dirty for r in reports]))
        out.notes["service"] = W.service_notes(svc)
    finally:
        svc.close()
    return m


def dynamic_tnr_probe(built) -> dict:
    """TNR repair, in process: it is ~3 s a batch, too slow to serve under."""
    grid = built.reg.spec(W.DATASET).tnr_grid
    state = DynamicState(
        built.graph, built.techniques["ch"], with_labels=False, tnr_grid=grid
    )
    churn = W.Churn(built.graph, 1)
    took = []
    for phase in churn.phases:
        report = state.apply_updates(
            [edge for edge, _ in phase.updates], [w for _, w in phase.updates]
        )
        took.append(report.repair_us["tnr"] / 1e3)
    return {"dynamic.repair_ms.tnr": float(np.median(took))}
