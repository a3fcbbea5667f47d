"""Benchmark incremental index repair against from-scratch rebuilds.

The dynamics acceptance gate: for a clustered update batch touching at
most ~1% of the edges, repairing the CH customization and the hub
labels (:meth:`repro.dynamic.DynamicState.apply_updates`) must be at
least ``MIN_RATIO`` (5x) faster than rebuilding each index from scratch
at the same epoch.

Methodology
-----------
- **Workload**: a congestion burst — a breadth-first cluster of
  ``--batch-pct`` of the edges around a hotspot vertex chosen at rank
  quantile ``--hotspot-quantile`` (default 0.25). Low/mid-rank hotspots
  are the honest case for incremental repair: a change adjacent to the
  very top of the hierarchy dirties nearly every search space and the
  repair rightly falls back to the full path (the damage threshold),
  which is a rebuild, not a repair.
- **Repair side**: ``repair_us.{ch,labels}`` from the
  :class:`~repro.dynamic.RepairReport` — recustomization + incremental
  export for CH, dirty-vertex relabel + splice for labels.
- **Full side**: a fresh bottom-up customization plus full index
  export on an already-built scaffold (CH), and a from-scratch
  ``build_labels_flat`` over the repaired upward graph (labels) — the
  cheapest honest from-scratch path, i.e. the comparison is stacked
  *against* the repair.
- Best of ``--trials`` congest/relax round trips on both sides; both
  directions of weight change are exercised and the graph ends every
  trial back at its original metric.

Gates (``evaluate_gates``):

- ``ratio = full_us / repair_us`` must be >= 5 for CH and labels;
- the repair must actually have taken the incremental path
  (``full_rebuild`` false) — a fallback would be comparing the full
  path to itself;
- with ``--check BASELINE.json``: each ratio must hold at least half
  the committed value (machine-noise tolerance).

Usage::

    python scripts/dynamic_bench.py                           # print only
    python scripts/dynamic_bench.py --output BENCH_dynamic.json
    python scripts/dynamic_bench.py --check BENCH_dynamic.json  # gate CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

#: Repair must beat the from-scratch rebuild by this factor.
MIN_RATIO = 5.0

#: With --check, each ratio must hold this fraction of the committed one.
BASELINE_SLACK = 0.5

GATED = ("ch", "labels")


def clustered_batch(graph, rank, quantile, n_edges, factor=2.0):
    """A congestion burst: ``n_edges`` BFS-contiguous edges around the
    vertex whose CH rank sits at ``quantile``, all strictly slowed."""
    order = sorted(range(graph.n), key=lambda v: rank[v])
    hot = order[min(graph.n - 1, int(quantile * graph.n))]
    seen: set[tuple[int, int]] = set()
    picked: list[tuple[int, int]] = []
    frontier = [hot]
    while frontier and len(picked) < n_edges:
        v = frontier.pop(0)
        for u, _w in graph.neighbors(v):
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                picked.append(key)
                frontier.append(u)
    picked = picked[:n_edges]
    weights = [
        max(graph.edge_weight(u, v) + 1.0, float(round(graph.edge_weight(u, v) * factor)))
        for u, v in picked
    ]
    return picked, weights


def measure(dataset="DE", tier="medium", batch_pct=0.01,
            hotspot_quantile=0.25, trials=3) -> dict:
    """One full measurement; returns the JSON-able report."""
    from repro.dynamic import DynamicState, build_labels_flat
    from repro.dynamic.cch import CCHScaffold
    from repro.harness.registry import Registry

    registry = Registry(tier=tier, verbose=False)
    graph = registry.graph(dataset)
    state = DynamicState(graph, registry.ch(dataset), with_labels=True)
    rank = state.scaffold.rank
    n_edges = max(1, int(batch_pct * graph.m))
    edges, slow = clustered_batch(graph, rank, hotspot_quantile, n_edges)
    orig = [graph.edge_weight(u, v) for u, v in edges]

    # A second scaffold over the same topology carries the from-scratch
    # side; its construction cost is excluded from both sides (the
    # topology never changes between epochs).
    full_scaffold = CCHScaffold(graph.csr(), list(rank))

    repair_us = {t: float("inf") for t in GATED}
    full_us = {t: float("inf") for t in GATED}
    fell_back = {t: False for t in GATED}
    dirty = 0
    for _ in range(trials):
        for weights in (slow, orig):
            report = state.apply_updates(edges, weights)
            for tech in GATED:
                repair_us[tech] = min(repair_us[tech], report.repair_us[tech])
                fell_back[tech] = fell_back[tech] or report.full_rebuild.get(
                    tech, False
                )
            dirty = max(dirty, report.labels_dirty)
            t0 = time.perf_counter()
            full_scaffold.customize(state.csr.weights)
            index = full_scaffold.export_index()
            full_us["ch"] = min(
                full_us["ch"], (time.perf_counter() - t0) * 1e6
            )
            t0 = time.perf_counter()
            labels = build_labels_flat(index.upward_csr(), graph.n)
            full_us["labels"] = min(
                full_us["labels"], (time.perf_counter() - t0) * 1e6
            )
            # The from-scratch side must land on the repaired index —
            # otherwise the two sides are timing different work.
            np.testing.assert_array_equal(
                full_scaffold.w, state.scaffold.w
            )
            np.testing.assert_array_equal(labels.dists, state.labels.dists)

    report = {
        "dataset": dataset,
        "tier": tier,
        "n": graph.n,
        "m": graph.m,
        "batch_edges": len(edges),
        "batch_pct": round(100.0 * len(edges) / graph.m, 3),
        "hotspot_quantile": hotspot_quantile,
        "trials": trials,
        "labels_dirty_max": int(dirty),
        "techniques": {},
    }
    for tech in GATED:
        report["techniques"][tech] = {
            "repair_us": round(repair_us[tech], 1),
            "full_us": round(full_us[tech], 1),
            "ratio": round(full_us[tech] / repair_us[tech], 2),
            "incremental": not fell_back[tech],
        }
    return report


def evaluate_gates(report: dict, baseline: dict | None = None) -> list[str]:
    """All gate violations (empty means the bench passes). Pure
    function of the report so the gates are unit-testable."""
    failures: list[str] = []
    techniques = report.get("techniques", {})
    for tech in GATED:
        entry = techniques.get(tech)
        if entry is None:
            failures.append(f"{tech}: missing from the report")
            continue
        if not entry.get("incremental", False):
            failures.append(
                f"{tech}: repair fell back to the full rebuild path "
                f"(ratio would compare the full path to itself)"
            )
        if entry["ratio"] < MIN_RATIO:
            failures.append(
                f"{tech} repair ratio {entry['ratio']} below the "
                f"{MIN_RATIO}x gate (repair {entry['repair_us']}us vs "
                f"full {entry['full_us']}us)"
            )
        if baseline is not None:
            base = baseline.get("techniques", {}).get(tech)
            if base is not None and entry["ratio"] < BASELINE_SLACK * base["ratio"]:
                failures.append(
                    f"{tech} repair ratio {entry['ratio']} fell below "
                    f"{BASELINE_SLACK} x the committed baseline "
                    f"({base['ratio']})"
                )
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Benchmark incremental repair vs from-scratch rebuild."
    )
    parser.add_argument("--dataset", default="DE")
    parser.add_argument("--tier", default="medium")
    parser.add_argument(
        "--batch-pct", type=float, default=0.01,
        help="update batch size as a fraction of edges (default: 0.01)",
    )
    parser.add_argument(
        "--hotspot-quantile", type=float, default=0.25,
        help="CH-rank quantile of the congestion hotspot (default: 0.25)",
    )
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--output", default=None, metavar="FILE")
    parser.add_argument("--check", default=None, metavar="FILE")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report = measure(
        dataset=args.dataset,
        tier=args.tier,
        batch_pct=args.batch_pct,
        hotspot_quantile=args.hotspot_quantile,
        trials=args.trials,
    )
    report["measured_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    print(
        f"{report['dataset']}/{report['tier']}: batch of "
        f"{report['batch_edges']} edges ({report['batch_pct']}%)"
    )
    for tech, entry in report["techniques"].items():
        print(f"{tech}:")
        for key, value in entry.items():
            print(f"  {key:<12} {value}")

    baseline = None
    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    failures = evaluate_gates(report, baseline)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
