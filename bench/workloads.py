"""The four workloads and the sections they are assembled from.

Every run reports the same end-to-end metrics (the driver requires it),
so every run has the same skeleton:

1. **set-up** — cold builds of graph, Q/R sets, CH, hub labels and TNR,
   then (serve workloads) publish + fork + warm-up;
2. **point section** — in-process ``.distance`` / ``.path`` calls, one
   thread, closed loop: ``dist_us.*`` and ``path_us.*``;
3. **serve section** — closed-loop capacity, then an open loop at the
   workload's headline rate: ``capacity_rps``, ``lat_p50_ms``,
   ``lat_p99_ms``. ``paper-point`` has no service: its three numbers are
   the same statistics over its own point calls.

What a workload fixes is what the service publishes, the request shape
and technique mix, the rates, and whether weights churn under load.
All layers are timed from outside, around calls into public functions.
"""

from __future__ import annotations

import gc
import resource
import time
import zlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.harness.registry import Registry
from repro.queries.workloads import (
    distance_query_sets,
    linf_query_sets,
    rush_hour_churn,
)
from repro.serve.service import QueryService, ServiceConfig

from bench.loadgen import poisson_schedule, run_closed_loop, run_open_loop
from bench.oracle import Oracle, count_wrong, count_wrong_replies
from bench.trace import Tracer

DATASET = "CO"
TIER = "medium"
PAIRS_PER_SET = 100
WORKERS = 2

#: The weight churn is part of the fixed scenario, like the graph: one
#: burst costs 18 ms or 265 ms to repair depending on where its hotspot
#: lands, so a churn drawn from ``--seed`` would make ``lat_p99_ms`` a
#: property of the seed instead of the code. Query pairs, technique draws
#: and arrival times still come from ``--seed``.
CHURN_SEED = 20120827
UPDATE_PERIOD_S = 1.0
#: Windows the open loop's latencies are cut into; the reported p50 /
#: p99 are medians over windows, so one disturbed second cannot set them.
LATENCY_WINDOWS = 5
MIN_CLOSED_PASSES = 3
RAMP_S = 2.0
MIN_POINT_ROUNDS = 3
#: What one round of POINT_OPS takes on the reference machine.
NOMINAL_ROUND_S = 1.0
#: A request slower than this counts as stalled (per-layer only).
STALL_S = 0.025
SLO_P99_MS = 25.0


class PointOp(NamedTuple):
    metric: str
    technique: str
    method: str
    #: 1 = every Q∪R pair each round; k = every k-th, next offset each round.
    stride: int


#: Dijkstra distances (1.2 ms) and TNR paths (2.9 ms) take an evenly
#: strided subset per round — every set gives 12 resp. 5 of its 100
#: pairs — so a round of all six is about 1 s and a 5 s budget still
#: yields five passes of each cheap operation.
POINT_OPS = (
    PointOp("dist_us.dijkstra", "dijkstra", "distance", 8),
    PointOp("dist_us.ch", "ch", "distance", 1),
    PointOp("dist_us.tnr", "tnr", "distance", 1),
    PointOp("dist_us.labels", "labels", "distance", 1),
    PointOp("path_us.ch", "ch", "path", 1),
    PointOp("path_us.tnr", "tnr", "path", 20),
)
#: Q/R set indexes behind the per-layer near / mid / far split.
BANDS = (("near", 1, 3), ("mid", 4, 7), ("far", 8, 10))


@dataclass(frozen=True)
class Workload:
    #: Why each workload exists is recorded beside its name in BENCHMARK.json.
    name: str
    #: Techniques the service publishes; empty = no service.
    published: tuple[str, ...] = ()
    #: Techniques a request's technique is drawn from, uniformly.
    mix: tuple[str, ...] = ()
    request_pairs: int = 8
    #: Requests per closed-loop pass (about 1.2 s of work). The warm-up
    #: is one such pass: after 400 requests the first timed pass still
    #: ran a third slower than the rest (first touch of every ring slot).
    closed_requests: int = 0
    #: Open-loop rates (req/s); the last one is the deliberate overload.
    ladder: tuple[int, ...] = ()
    #: The rate ``lat_p50_ms`` / ``lat_p99_ms`` are read at.
    headline: int = 0
    churn: bool = False
    #: Shares of ``--seconds``: point section, ramp + closed loop, open loop.
    shares: tuple[float, float, float] = (0.3, 0.3, 0.4)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-point", shares=(1.0, 0.0, 0.0)),
        Workload(
            "serve-mixed",
            published=("ch", "tnr", "labels"), mix=("ch", "tnr", "labels"),
            closed_requests=5000, ladder=(1500, 3000, 4000, 5000), headline=3000,
        ),
        Workload(
            "serve-light",
            published=("labels",), mix=("labels",), request_pairs=1,
            closed_requests=30000, ladder=(5000, 10000, 30000, 70000),
            headline=10000,
        ),
        Workload(
            "churn-serve",
            published=("ch", "labels"), mix=("ch", "labels"),
            closed_requests=3000, ladder=(1500,), headline=1500, churn=True,
            shares=(0.3, 0.0, 0.7),  # the 2 s ramp comes out of the open loop
        ),
    )
}


@dataclass
class Outcome:
    """What a run hands back to ``bench.run``."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)

    def check(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def service_config(wl: Workload, workers: int = WORKERS) -> ServiceConfig:
    """The workload's service: every unnamed field is the program's default."""
    return ServiceConfig(
        dataset=DATASET, tier=TIER, workers=workers,
        techniques=wl.published, cache="off",
    )


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def build(seed: int, tracer: Tracer) -> SimpleNamespace:
    """Cold-build everything the point section needs (part of setup_s)."""
    reg = Registry(
        tier=TIER, pairs_per_set=PAIRS_PER_SET, cache="off", workers=1,
        verbose=False,
    )
    with tracer.span("graph.generators.build"):
        graph = reg.graph(DATASET)
    with tracer.span("queries.workloads.qsets"):
        qsets = linf_query_sets(graph, PAIRS_PER_SET, seed=seed)
    with tracer.span("queries.workloads.rsets"):
        rsets = distance_query_sets(graph, PAIRS_PER_SET, seed=seed)
    with tracer.span("core.ch.build"):
        ch = reg.ch(DATASET)
    with tracer.span("core.labels.build"):
        labels = reg.hub_labels(DATASET)
    with tracer.span("core.tnr.build"):
        tnr = reg.tnr(DATASET)
    techniques = {
        "dijkstra": reg.bidijkstra(DATASET), "ch": ch, "tnr": tnr,
        "labels": labels,
    }
    pairs = [p for qset in qsets + rsets for p in qset.pairs]
    band = np.array([q.index for q in qsets + rsets for _ in q.pairs])
    n_q = sum(len(q) for q in qsets)
    return SimpleNamespace(
        reg=reg, graph=graph, techniques=techniques, pairs=pairs, band=band,
        n_q=n_q,
    )


def start_service(wl: Workload, built, seed: int, workers: int = WORKERS):
    """Publish, fork and warm a service; returns ``(service, pool)``."""
    svc = QueryService(service_config(wl, workers), registry=built.reg)
    try:
        pool = request_pool(built, wl.request_pairs, seed)
        warm, _ = arrivals(wl, pool, wl.closed_requests, seed, "warm")
        run_closed_loop(svc, warm)
    except BaseException:
        svc.close()
        raise
    return svc, pool


# ----------------------------------------------------------------------
# Point section
# ----------------------------------------------------------------------
def timed_pass(fn, pairs) -> tuple[np.ndarray, list]:
    """Call ``fn(s, t)`` per pair; per-call seconds and the answers."""
    seconds = np.empty(len(pairs))
    answers = [None] * len(pairs)
    clock = time.perf_counter
    for k, (s, t) in enumerate(pairs):
        t0 = clock()
        answer = fn(s, t)
        seconds[k] = clock() - t0
        answers[k] = answer
    return seconds, answers


def point_section(
    built, oracle: Oracle, want: np.ndarray, budget_s: float,
    tracer: Tracer, out: Outcome, ops=POINT_OPS,
) -> dict[str, list[np.ndarray]]:
    """One round per nominal second of ``budget_s`` (at least three).

    The round count is fixed by the budget, not by how fast the rounds
    turn out, so a seed always means the same calls on every commit.
    Every answer of every pass is checked before the next pass starts,
    outside the timed calls. Returns per-call seconds per metric, one
    array per pass.
    """
    passes: dict[str, list[np.ndarray]] = {op.metric: [] for op in ops}
    for k in range(max(MIN_POINT_ROUNDS, int(budget_s / NOMINAL_ROUND_S))):
        with tracer.span("core.point_round"):
            for metric, technique, method, stride in ops:
                fn = getattr(built.techniques[technique], method)
                # A strided op takes the next offset each round, so its
                # rounds cover different pairs (see per_query_us).
                picked = slice(k % stride, None, stride)
                subset = built.pairs[picked]
                with tracer.span(f"core.{technique}.{method}"):
                    seconds, answers = timed_pass(fn, subset)
                passes[metric].append(seconds)
                ref = want[picked]
                if method == "distance":
                    wrong = count_wrong(answers, ref)
                else:
                    wrong = sum(
                        not oracle.path_ok(pair, float(d), answer)
                        for pair, d, answer in zip(subset, ref, answers)
                    )
                out.check(len(subset), wrong)
    return passes


def per_query_us(passes: dict[str, list[np.ndarray]], op: PointOp) -> float:
    """Mean µs per call of one point operation.

    Full passes repeat the same pairs, so the median over passes drops a
    disturbed one. Strided passes each took different pairs — TNR path
    cost runs from 70 µs to 15 ms with distance, and ten pairs per set
    swing a 200-pair mean by +-12 % with the seed — so they are pooled
    into one mean over every pair seen.
    """
    series = passes[op.metric]
    if op.stride == 1:
        return float(np.median([p.mean() for p in series]) * 1e6)
    return float(np.concatenate(series).mean() * 1e6)


def band_metrics(passes: dict[str, list[np.ndarray]], band: np.ndarray, ops) -> dict:
    """The near / mid / far split of every point metric (per-layer)."""
    out = {}
    for metric, technique, method, stride in ops:
        kind = "dist_us" if method == "distance" else "path_us"
        for name, lo, hi in BANDS:
            calls = []
            for k, seconds in enumerate(passes[metric]):
                sets = band[k % stride::stride]
                calls.append(seconds[(sets >= lo) & (sets <= hi)])
            out[f"core.{technique}.{kind}.{name}"] = float(
                np.concatenate(calls).mean() * 1e6
            )
    return out


# ----------------------------------------------------------------------
# Serve section
# ----------------------------------------------------------------------
def request_pool(built, request_pairs: int, seed: int) -> list[list]:
    """The Q pairs, shuffled by the seed, cut into fixed requests."""
    rng = np.random.default_rng([seed, 1])
    order = rng.permutation(built.n_q)
    return [
        [built.pairs[i] for i in order[a:a + request_pairs]]
        for a in range(0, built.n_q - request_pairs + 1, request_pairs)
    ]


def arrivals(wl: Workload, pool: list, n: int, seed: int, phase: str):
    """``n`` requests drawn from the pool: ``(requests, pool indexes)``.

    Each phase of a run draws its own stream from ``(seed, phase)``.
    """
    rng = np.random.default_rng([seed, zlib.crc32(phase.encode())])
    which = rng.integers(len(pool), size=n)
    tech = rng.integers(len(wl.mix), size=n)
    return [(wl.mix[t], pool[i]) for t, i in zip(tech, which)], which


def ramp(svc, wl: Workload, pool: list, seed: int) -> None:
    """Unmeasured closed-loop load until the OS has spread the processes.

    While the parent computes alone (set-up, point section) the idle
    workers are parked on its core, and once requests flow Linux needs
    about 1.4 s to move them apart: until then parent and workers share
    one core and serve-light runs at 30 k instead of 57 k req/s. That
    transient follows every idle spell on a 2-core box and is not what
    the serve metrics are about.
    """
    requests, _ = arrivals(wl, pool, wl.closed_requests // 4, seed, "ramp")
    end = time.perf_counter() + RAMP_S
    while time.perf_counter() < end:
        run_closed_loop(svc, requests)


def verify_replies(oracle: Oracle, futures, out: Outcome, refused: int = 0,
                   sample: np.ndarray | None = None) -> None:
    """Check served replies against the oracle and count them.

    ``sample`` (churn only) marks the replies whose distances are
    checked on their epoch's weights; the rest are still required to be
    done and stamped with the epoch they were admitted under.
    """
    full, wrong = [], 0
    for k, fut in enumerate(futures):
        if fut is None:
            continue
        got = fut.distances if fut.status == "done" else None
        if sample is None or sample[k]:
            full.append((fut.pairs, got, fut.epoch, fut.served_epoch))
        elif got is None or fut.served_epoch != fut.epoch:
            wrong += 1
    wrong += count_wrong_replies(oracle, full)
    out.check(len(futures), wrong + refused)


def closed_loop_rps(svc, wl, pool, seed, budget_s, oracle, out, tracer) -> float:
    """Median requests/s over closed-loop passes filling ``budget_s``."""
    rates: list[float] = []
    spent = 0.0
    while len(rates) < MIN_CLOSED_PASSES or spent + spent / len(rates) <= budget_s:
        requests, _ = arrivals(wl, pool, wl.closed_requests, seed, f"closed{len(rates)}")
        with tracer.span("serve.closed_pass"):
            futures, seconds = run_closed_loop(svc, requests)
        rates.append(len(requests) / seconds)
        spent += seconds
        verify_replies(oracle, futures, out)
    return float(np.median(rates))


def open_step(svc, wl, pool, rate, seconds, seed, tick=None):
    """One open-loop step at ``rate``: ``(result, pool indexes)``."""
    due = poisson_schedule(rate, seconds, seed=seed * 1000 + rate % 997)
    requests, which = arrivals(wl, pool, len(due), seed, f"open{rate}")
    return run_open_loop(svc, requests, due, tick=tick), which


def latency_ms(result, windows: int = LATENCY_WINDOWS) -> tuple[float, float]:
    """Median over equal windows of arrivals of the window's p50 and p99 (ms).

    A request that was refused or never finished has no latency and
    counts as failed instead.
    """
    p50, p99 = [], []
    for lat in np.array_split(result.latency, windows):
        lat = lat[~np.isnan(lat)] * 1e3
        if len(lat):
            p50.append(np.percentile(lat, 50))
            p99.append(np.percentile(lat, 99))
    return float(np.median(p50)), float(np.median(p99))


class Churn:
    """The weight updates of ``churn-serve``, applied from the loop's tick."""

    def __init__(self, graph, n_updates: int) -> None:
        self.n_updates = n_updates
        #: Phase 0 is the set-up's warm-up update (builds the scaffold).
        self.phases = rush_hour_churn(
            graph, bursts=n_updates + 1, edges_per_burst=12, seed=CHURN_SEED
        )
        self.applied = 0
        self.update_s: list[float] = []
        self.reports: list = []
        self.spans: list[tuple[float, float]] = []

    def apply_next(self, svc) -> None:
        phase = self.phases[self.applied]
        edges = [edge for edge, _ in phase.updates]
        weights = [w for _, w in phase.updates]
        t0 = time.perf_counter()
        report = svc.apply_updates(edges, weights)
        t1 = time.perf_counter()
        self.applied += 1
        self.update_s.append(t1 - t0)
        self.reports.append(report)
        self.spans.append((t0, t1))

    def teach(self, oracle: Oracle) -> None:
        """Give the oracle its own copy of every epoch's weights."""
        for epoch, phase in enumerate(self.phases, start=1):
            oracle.new_epoch(epoch, phase.updates)

    def tick(self, svc):
        def tick(elapsed_s: float) -> None:
            if (
                self.applied < len(self.phases)
                and elapsed_s >= (self.applied - 0.5) * UPDATE_PERIOD_S
            ):
                self.apply_next(svc)
        return tick

    @classmethod
    def start(cls, svc, graph, open_s: float) -> "Churn":
        """Plan one update per period of the open loop (less its ramp)
        and apply the warm-up update; still part of set-up."""
        churn = cls(graph, int((open_s - RAMP_S) / UPDATE_PERIOD_S))
        churn.apply_next(svc)
        return churn

    def open_loop(self, svc, wl: Workload, pool, seed: int, oracle: Oracle, out: Outcome):
        """The open loop with the updates ticking in it, verified."""
        result, which = open_step(
            svc, wl, pool, wl.headline, self.n_updates * UPDATE_PERIOD_S, seed,
            tick=self.tick(svc),
        )
        out.notes.update(
            open_loop=step_notes(wl.headline, result),
            updates=self.applied - 1,
            update_ms_median=float(np.median(self.update_s[1:]) * 1e3),
        )
        # One request in ten has its distances checked on its epoch's weights.
        sample = which < max(1, len(pool) // 10)
        verify_replies(oracle, result.futures, out, result.refused, sample)
        return result


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def quiet_gc() -> None:
    """Switch the cyclic collector off for the measured sections.

    This process is also the service's parent and holds the indexes as
    a few million Python objects; a full collection over them is a
    ~30 ms pause whose timing follows the *bench's* allocations (the
    futures it keeps for verification). Left on, it set serve-light's
    p99 anywhere from 6 to 50 ms. ``timeit`` does the same; reference
    counting still frees everything the run drops.
    """
    gc.collect()
    gc.disable()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run(wl: Workload, seed: int, seconds: float, t_start: float) -> Outcome:
    """The untraced run: every end-to-end metric of ``wl``."""
    out = Outcome()
    tracer = Tracer(False)
    point_s, closed_s, open_s = (share * seconds for share in wl.shares)

    built = build(seed, tracer)
    svc = pool = churn = None
    if wl.published:
        svc, pool = start_service(wl, built, seed)
    try:
        if wl.churn:
            churn = Churn.start(svc, built.graph, open_s)
        m = out.metrics
        m["setup_s"] = time.perf_counter() - t_start
        quiet_gc()

        oracle = Oracle.of_graph(built.graph)
        want = oracle.distances(built.pairs)
        if churn:
            churn.teach(oracle)

        passes = point_section(built, oracle, want, point_s, tracer, out)
        for op in POINT_OPS:
            m[op.metric] = per_query_us(passes, op)

        if svc is None:
            # The closed loop here is the point section itself: calls per
            # second of call time, and the latency of its distance calls
            # (with the path calls mixed in, the median would sit on the
            # edge between two techniques' modes and jump between them).
            calls = [p for series in passes.values() for p in series]
            m["capacity_rps"] = sum(map(len, calls)) / float(sum(p.sum() for p in calls))
            dist = np.concatenate([
                p for op in POINT_OPS if op.method == "distance"
                for p in passes[op.metric]
            ])
            m["lat_p50_ms"] = float(np.percentile(dist, 50) * 1e3)
            m["lat_p99_ms"] = float(np.percentile(dist, 99) * 1e3)
        elif churn:
            ramp(svc, wl, pool, seed)
            result = churn.open_loop(svc, wl, pool, seed, oracle, out)
            m["capacity_rps"] = (
                np.count_nonzero(~np.isnan(result.latency)) / result.seconds
            )
            # One window: the stalls are the signal here, and they come in
            # two sizes (30 ms and 300 ms), so a median over per-update
            # windows would flip between the two modes.
            m["lat_p50_ms"], m["lat_p99_ms"] = latency_ms(result, windows=1)
        else:
            ramp(svc, wl, pool, seed)
            m["capacity_rps"] = closed_loop_rps(
                svc, wl, pool, seed, closed_s - RAMP_S, oracle, out, tracer
            )
            result, _ = open_step(svc, wl, pool, wl.headline, open_s, seed)
            m["lat_p50_ms"], m["lat_p99_ms"] = latency_ms(result)
            out.notes["open_loop"] = step_notes(wl.headline, result)
            verify_replies(oracle, result.futures, out, result.refused)
        if svc is not None:
            out.notes["service"] = service_notes(svc)
    finally:
        gc.enable()
        if svc is not None:
            svc.close()
    m["peak_rss_mb"] = peak_rss_mb()
    return out


def step_notes(rate: int, result) -> dict:
    done = ~np.isnan(result.latency)
    return {
        "rate_rps": rate,
        "samples": int(done.sum()),
        "refused": result.refused,
        "gen_late_p99_ms": float(np.percentile(result.late, 99) * 1e3),
    }


def service_notes(svc) -> dict:
    """The effective service settings, echoed into the result."""
    cfg = svc.config
    status = svc.status()
    return {
        "workers": cfg.workers, "techniques": list(cfg.techniques),
        "transport": status["transport"], "max_batch": cfg.max_batch,
        "batch_window_s": cfg.batch_window_s, "max_queue": cfg.max_queue,
        "ring_slots": cfg.ring_slots, "published": status["published"],
    }
