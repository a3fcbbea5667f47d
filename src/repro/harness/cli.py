"""Command-line entry point: ``python -m repro.harness`` / ``repro-harness``.

Examples
--------
List the available experiments::

    repro-harness --list

Reproduce Figure 8 on the default (small) tier::

    repro-harness --experiment fig8

Everything, with a bigger workload, on the tiny tier::

    repro-harness --experiment all --tier tiny --pairs 200

Inspect, verify or reset the disk cache::

    repro-harness cache list
    repro-harness cache verify [--quarantine]
    repro-harness cache stats
    repro-harness cache clear

Serve a workload of distance queries in batches of 64 (the batched
distance endpoint; see docs/PERFORMANCE.md)::

    repro-harness serve --technique ch --dataset DE --pairs 512

Run the multi-worker query service over shared-memory segments
(docs/SERVING.md)::

    repro-harness service start --dataset DE --workers 2 --techniques ch
    repro-harness service status --manifest serve-manifest.json [--json]
    repro-harness service stats --manifest serve-manifest.json --watch

Observability (docs/OBSERVABILITY.md)::

    repro-harness --experiment fig8 --trace run.jsonl
    repro-harness stats [--json] [--prom] [--trace run.jsonl]
    repro-harness stats --merge worker-a.jsonl worker-b.jsonl
    repro-harness trace run.jsonl [--json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro import obs
from repro.core.techniques import TECHNIQUES as _SERVE_TECHNIQUES
from repro.core.techniques import registry_builders as _registry_builders
from repro.harness.cache import DiskCache
from repro.harness.experiments import all_keys, run
from repro.harness.registry import Registry, _default_cache_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description=(
            "Regenerate the tables and figures of 'Shortest Path and "
            "Distance Queries on Road Networks: An Experimental "
            "Evaluation' (Wu et al., VLDB 2012)."
        ),
        epilog=(
            "Subcommands: 'cache {list,verify,clear,stats}' manages the "
            "disk cache; 'serve' runs the batched distance endpoint; "
            "'service {start,status,stats,clean}' runs the multi-worker "
            "query service; 'stats' dumps the metrics registry; "
            "'trace <run.jsonl>' renders a run trace's phase tree."
        ),
    )
    parser.add_argument(
        "--experiment", "-e", default=None,
        help="experiment key (e.g. fig8, table2) or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list experiment keys")
    parser.add_argument("--tier", default=None, help="dataset tier (tiny/small/medium)")
    parser.add_argument("--pairs", type=int, default=None, help="pairs per query set")
    parser.add_argument(
        "--datasets", default=None,
        help="comma-separated dataset names overriding the experiment default",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the disk cache")
    parser.add_argument(
        "--chart", action="store_true",
        help="render the figure's log-log series as ASCII plots",
    )
    _add_trace_flag(parser)
    return parser


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", nargs="?", const="auto", default=None, metavar="FILE",
        help="enable instrumentation and write a JSON-lines run trace to "
             "FILE; without FILE, a collision-free default name "
             "(repro-trace-<pid>-<k>.jsonl) is chosen",
    )


def _resolve_trace(value: str | None) -> str | None:
    """Map the --trace flag to a path; bare --trace gets a unique name.

    Default names embed the pid and a per-process counter so concurrent
    runs (CI matrices, the serving pool's workers) never clobber each
    other's trace files; explicit paths are honoured verbatim.
    """
    if not value:
        return None
    if value == "auto":
        return obs.unique_trace_path("repro-trace.jsonl")
    return value


def _print_charts(exp, registry) -> None:
    """Render a figure experiment's series like the paper's plots."""
    from repro.harness.plotting import experiment_charts

    keyed = [k for k in exp.data if isinstance(k, tuple) and len(k) == 3]
    n_of = {k[1]: float(registry.graph(k[1]).n) for k in keyed}
    charts = experiment_charts(exp, n_of)
    if not charts:
        print("(no chartable series in this experiment)\n")
        return
    for chart in charts:
        print(chart)
        print()


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into `head` etc.; exit quietly like a good CLI.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness cache",
        description="Inspect, verify, or reset the experiment disk cache.",
    )
    parser.add_argument(
        "action", choices=("list", "verify", "clear", "stats"),
        help="list entries / re-verify checksums / delete everything / counters",
    )
    parser.add_argument(
        "--cache", default=None,
        help="cache directory (default: REPRO_CACHE or <cwd>/.cache/repro)",
    )
    parser.add_argument(
        "--quarantine", action="store_true",
        help="with 'verify': move failing entries aside so they rebuild",
    )
    return parser


def _cache_main(argv: list[str]) -> int:
    args = build_cache_parser().parse_args(argv)
    root = Path(args.cache) if args.cache else _default_cache_dir()
    if root is None:
        print("disk cache is disabled (REPRO_CACHE=off); nothing to do")
        return 0
    cache = DiskCache(root)

    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {root} ({removed} file(s) removed)")
        return 0

    if args.action == "stats":
        print(cache.describe())
        return 0

    if args.action == "list":
        infos = cache.list_entries()
        if not infos:
            print(f"cache at {root} is empty")
            return 0
        from repro.harness.timing import fmt_bytes, fmt_seconds

        width = max(len(i.name) for i in infos)
        for info in infos:
            if info.header is not None:
                h = info.header
                print(f"{info.name:<{width}}  {fmt_bytes(info.size):>8}  "
                      f"built in {fmt_seconds(h.get('build_seconds', 0.0)):>8}  "
                      f"at {h.get('built_at', '?')}  "
                      f"(repro {h.get('repro_version', '?')})")
            else:  # info.error already leads with the entry name
                print(f"{info.name:<{width}}  {fmt_bytes(info.size):>8}  "
                      f"UNREADABLE ({info.error})")
        count, size = cache.totals()
        print(f"-- {count} entr{'y' if count == 1 else 'ies'}, {fmt_bytes(size)}")
        return 0

    # verify: full re-read of every entry (checksum + unpickle)
    infos = cache.verify(quarantine=args.quarantine)
    bad = [i for i in infos if not i.ok]
    for info in infos:
        if info.ok:
            print(f"OK    {info.name}")
        else:  # info.error already leads with the entry name
            action = " (quarantined)" if args.quarantine else ""
            print(f"FAIL  {info.error}{action}")
    print(f"-- verified {len(infos)} entr{'y' if len(infos) == 1 else 'ies'}, "
          f"{len(bad)} bad")
    return 1 if bad else 0




def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness serve",
        description=(
            "Answer a workload of distance queries through the batched "
            "endpoint (repro.harness.experiments.batched_distances)."
        ),
    )
    parser.add_argument(
        "--technique", default="ch",
        help=f"which technique serves the batch: {'/'.join(_SERVE_TECHNIQUES)} "
             "(default: ch)",
    )
    parser.add_argument("--dataset", default="DE", help="dataset name (default: DE)")
    parser.add_argument("--tier", default=None, help="dataset tier (tiny/small/medium)")
    parser.add_argument(
        "--pairs", type=int, default=512,
        help="how many query pairs to serve (drawn from the Q-sets)",
    )
    parser.add_argument(
        "--pair-file", default=None, metavar="FILE",
        help="serve exactly the 'source target' pairs listed in FILE "
             "(one pair per line, '#' comments) instead of Q-set sampling",
    )
    parser.add_argument(
        "--batch", type=int, default=None,
        help="pairs per batch (default: 64); 1 degrades to per-pair serving",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="re-answer every pair per-pair and assert exact agreement",
    )
    _add_trace_flag(parser)
    return parser


def _read_pair_file(path: str) -> list[tuple[int, int]]:
    """Parse a ``source target`` pair file; ValueError carries a one-line
    ``file:line: reason`` diagnostic for the CLI to print."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read pair file {path}: {exc.strerror or exc}")
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"{path}:{lineno}: expected 'source target', got {raw.strip()!r}"
            )
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: non-integer vertex id in {raw.strip()!r}"
            ) from None
    return pairs


def _serve_main(argv: list[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    from repro.harness.experiments import DEFAULT_BATCH, batched_distances

    if args.technique not in _SERVE_TECHNIQUES:
        print(
            f"error: unknown technique {args.technique!r} "
            f"(choose from {', '.join(_SERVE_TECHNIQUES)})",
            file=sys.stderr,
        )
        return 2

    kwargs = {}
    if args.tier:
        kwargs["tier"] = args.tier
    try:
        registry = Registry(**kwargs)
        graph = registry.graph(args.dataset)
    except KeyError as exc:
        print(f"error: unknown dataset or tier: {exc}", file=sys.stderr)
        return 2

    if args.pair_file is not None:
        try:
            pairs = _read_pair_file(args.pair_file)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for s, t in pairs:
            if not (0 <= s < graph.n and 0 <= t < graph.n):
                print(
                    f"error: {args.pair_file}: pair ({s}, {t}) out of range "
                    f"for {args.dataset} (n={graph.n})",
                    file=sys.stderr,
                )
                return 2
    else:
        pairs = [p for qset in registry.q_sets(args.dataset) for p in qset.pairs]
        while pairs and len(pairs) < args.pairs:
            pairs = pairs + pairs
        pairs = pairs[: max(args.pairs, 0)]
    if not pairs:
        print("error: no query pairs to serve (empty batch)", file=sys.stderr)
        return 1

    trace = _resolve_trace(args.trace)
    if trace:
        obs.start_trace(trace)
    technique = _registry_builders(registry)[args.technique](args.dataset)

    batch = args.batch if args.batch else DEFAULT_BATCH
    started = time.perf_counter()
    distances = batched_distances(technique, pairs, batch_size=batch)
    elapsed = time.perf_counter() - started
    finite = distances[distances < float("inf")]
    print(
        f"served {len(pairs)} pairs through {technique.name} "
        f"in batches of {batch}: {elapsed:.3f}s "
        f"({len(pairs) / elapsed:.0f} pairs/s)"
    )
    print(
        f"  reachable {len(finite)}/{len(pairs)}, "
        f"mean distance {finite.mean():.1f}" if len(finite)
        else f"  reachable 0/{len(pairs)}"
    )
    if args.check:
        for (s, t), d in zip(pairs, distances.tolist()):
            expect = technique.distance(s, t)
            if d != expect:
                print(f"MISMATCH ({s}, {t}): batched {d} != per-pair {expect}")
                return 1
        print(f"  per-pair check: all {len(pairs)} answers identical")
    if trace:
        print(f"[trace] {obs.stop_trace()}")
    return 0


# ----------------------------------------------------------------------
# The multi-worker query service (docs/SERVING.md)
# ----------------------------------------------------------------------
def build_service_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness service",
        description=(
            "Run the multi-worker query service: shared-memory index "
            "segments, a persistent worker pool and a micro-batching "
            "scheduler (see docs/SERVING.md)."
        ),
    )
    sub = parser.add_subparsers(dest="action", required=True)

    start = sub.add_parser(
        "start", help="serve a Q-set workload through a fresh worker pool"
    )
    start.add_argument("--dataset", default="DE", help="dataset name (default: DE)")
    start.add_argument("--tier", default=None, help="dataset tier (tiny/small/medium)")
    start.add_argument(
        "--techniques", default="ch",
        help="comma-separated techniques to publish/serve (default: ch); "
             "the graph (dijkstra) is always published",
    )
    start.add_argument(
        "--pairs", type=int, default=512,
        help="how many query pairs to serve (drawn from the Q-sets)",
    )
    start.add_argument(
        "--request-size", type=int, default=8,
        help="pairs per client request before scheduler coalescing",
    )
    start.add_argument(
        "--batch", type=int, default=256,
        help="scheduler micro-batch cap in pairs (default: 256)",
    )
    start.add_argument(
        "--workers", type=int, default=2, help="worker processes (default: 2)"
    )
    start.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="also write the segment manifest to FILE (for `service status`)",
    )
    start.add_argument(
        "--check", action="store_true",
        help="assert service answers are bit-identical to the in-process "
             "batched endpoint",
    )
    start.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the merged (scheduler + workers) metrics snapshot to "
             "FILE in Prometheus text format before shutdown; SIGUSR1 "
             "dumps the same snapshot to FILE at any point while serving",
    )
    _add_trace_flag(start)

    status = sub.add_parser(
        "status", help="inspect a running service through its manifest file"
    )
    status.add_argument(
        "--manifest", required=True, metavar="FILE",
        help="manifest written by `service start --manifest FILE`",
    )
    status.add_argument(
        "--json", action="store_true",
        help="emit the status as JSON (schema in docs/SERVING.md)",
    )

    stats = sub.add_parser(
        "stats",
        help="live cross-process metrics of a running service "
             "(shared-memory planes; no pipe traffic)",
    )
    stats.add_argument(
        "--manifest", required=True, metavar="FILE",
        help="manifest written by `service start --manifest FILE`",
    )
    stats.add_argument(
        "--watch", action="store_true",
        help="redraw the merged snapshot every --interval seconds "
             "(terminal dashboard; Ctrl-C to stop)",
    )
    stats.add_argument(
        "--interval", type=float, default=1.0, metavar="SECS",
        help="refresh period for --watch (default: 1.0)",
    )
    stats.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="with --watch: stop after N redraws (default: run until "
             "interrupted)",
    )
    stats.add_argument(
        "--json", action="store_true", help="emit the merged snapshot as JSON"
    )
    stats.add_argument(
        "--prom", action="store_true",
        help="emit the merged snapshot in Prometheus text format",
    )

    clean = sub.add_parser(
        "clean",
        help="unlink shared-memory segments orphaned by a SIGKILLed "
             "publisher (lists, confirms, then removes)",
    )
    clean.add_argument(
        "--manifest", required=True, metavar="FILE",
        help="manifest written by `service start --manifest FILE`",
    )
    clean.add_argument(
        "--force", action="store_true",
        help="skip the interactive confirmation (for CI and scripts)",
    )
    return parser


def _attach_metric_planes(manifest: dict) -> tuple[list, list[str]]:
    """Attach every metrics plane a manifest advertises (read-only).

    Returns ``(planes, errors)``: a list of ``(label, MetricsPlane)``
    pairs for the scheduler and each worker slot, plus one message per
    entry that could not be attached (service gone, stale manifest).
    Callers must ``close()`` every attached plane.
    """
    from repro.obs.shm import MetricsPlane

    metrics = manifest.get("metrics") or {}
    entries = [("scheduler", metrics.get("scheduler"))]
    entries += [
        (f"worker {i}", e) for i, e in enumerate(metrics.get("workers") or [])
    ]
    planes: list = []
    errors: list[str] = []
    for label, entry in entries:
        if not entry:
            continue
        try:
            planes.append((label, MetricsPlane.attach(entry, foreign=True)))
        except (OSError, ValueError) as exc:
            errors.append(f"{label}: {exc}")
    return planes, errors


def _worker_rows(planes: list) -> list[dict]:
    """Per-worker liveness rows read straight from the plane headers."""
    now_us = int(time.monotonic() * 1e6)
    rows = []
    for label, plane in planes:
        if not label.startswith("worker"):
            continue
        h = plane.header()
        age = (
            round(max(now_us - h["last_batch_us"], 0) / 1e6, 3)
            if h["last_batch_us"] else None
        )
        rows.append(
            {
                "worker": int(label.split()[1]),
                "pid": h["pid"],
                "batches": h["batches"],
                "last_commit_age_s": age,
            }
        )
    return rows


def _merged_plane_snapshot(planes: list) -> dict:
    """One snapshot aggregating every attached plane (scheduler+workers)."""
    merged = obs.MetricsRegistry()
    for _, plane in planes:
        merged.merge_snapshot(plane.snapshot())
    return merged.snapshot()


def _service_status(args, manifest: dict) -> int:
    from repro.serve import SegmentError, attach_segments

    fp = manifest.get("fingerprint", {})
    planes, plane_errors = _attach_metric_planes(manifest)
    try:
        info = {
            "service": manifest.get("service"),
            "dataset": manifest.get("dataset"),
            "tier": manifest.get("tier"),
            "publisher_pid": manifest.get("publisher_pid"),
            "fingerprint": fp,
            "techniques": {},
            "workers": _worker_rows(planes),
            "segments_ok": True,
        }
        seg_error = None
        try:
            with attach_segments(manifest, foreign=True) as segs:
                for tech in segs.techniques:
                    entry = manifest["techniques"][tech]
                    info["techniques"][tech] = {
                        "segment": entry["segment"],
                        "nbytes": entry["nbytes"],
                        "arrays": len(segs.arrays(tech)),
                    }
        except SegmentError as exc:
            info["segments_ok"] = False
            seg_error = str(exc)

        if args.json:
            print(json.dumps(info, indent=1, sort_keys=True))
            return 0 if info["segments_ok"] else 1

        print(
            f"service {info['service']} — "
            f"{info['dataset']}/{info['tier']} "
            f"(n={fp.get('n')}, m={fp.get('m')}), "
            f"publisher pid {info['publisher_pid']}"
        )
        if not info["segments_ok"]:
            print(f"  segments unreachable: {seg_error}")
            return 1
        for tech, t in info["techniques"].items():
            print(
                f"  {tech:<9} {t['segment']:<22} "
                f"{t['nbytes']:>10} bytes  "
                f"{t['arrays']} arrays attached"
            )
        print("all segments attached and released (zero-copy, no unlink)")
        for row in info["workers"]:
            age = row["last_commit_age_s"]
            print(
                f"  worker {row['worker']}: pid {row['pid']}, "
                f"{row['batches']} batch(es), last commit "
                + (f"{age}s ago" if age is not None else "never")
            )
        for err in plane_errors:
            print(f"  metrics plane unreachable: {err}")
        if planes:
            snap = _merged_plane_snapshot(planes)
            if any(snap[k] for k in ("counters", "gauges", "histograms")):
                print()
                print(obs.render_snapshot(snap))
        return 0
    finally:
        for _, plane in planes:
            plane.close()


def _service_stats(args, manifest: dict) -> int:
    """The live dashboard: merged shared-memory metrics, zero pipe traffic."""
    planes, errors = _attach_metric_planes(manifest)
    if not planes:
        detail = "; ".join(errors) or "manifest lists no metrics planes"
        print(f"error: cannot attach metrics planes: {detail}", file=sys.stderr)
        return 1
    try:
        drawn = 0
        while True:
            snap = _merged_plane_snapshot(planes)
            if args.json:
                body = json.dumps(snap, indent=1, sort_keys=True)
            elif args.prom:
                body = obs.to_prometheus(snap).rstrip("\n")
            else:
                lines = [
                    f"service {manifest.get('service')} — "
                    f"{manifest.get('dataset')}/{manifest.get('tier')}, "
                    f"publisher pid {manifest.get('publisher_pid')}"
                ]
                for row in _worker_rows(planes):
                    age = row["last_commit_age_s"]
                    lines.append(
                        f"  worker {row['worker']}: pid {row['pid']}, "
                        f"{row['batches']} batch(es), last commit "
                        + (f"{age}s ago" if age is not None else "never")
                    )
                lines.extend(f"  metrics plane unreachable: {e}" for e in errors)
                lines.append("")
                lines.append(obs.render_snapshot(snap))
                body = "\n".join(lines)
            if args.watch:
                sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
            print(body)
            sys.stdout.flush()
            drawn += 1
            if not args.watch or (args.iterations and drawn >= args.iterations):
                return 0
            time.sleep(max(args.interval, 0.05))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        print()
        return 0
    finally:
        for _, plane in planes:
            plane.close()


def _service_clean(args, manifest: dict) -> int:
    """Detect and unlink segments a dead publisher left behind.

    A publisher killed with SIGKILL never runs ``close()``, so its
    technique segments, ring and metrics planes stay in ``/dev/shm``
    until reboot. This lists what the manifest (plus a token scan)
    still finds, refuses to touch a *live* service, asks before
    unlinking (``--force`` skips the prompt), and removes the rest.
    """
    from repro.serve.segments import (
        find_orphans,
        publisher_alive,
        unlink_orphans,
    )

    pid = manifest.get("publisher_pid")
    if publisher_alive(manifest):
        print(
            f"error: publisher pid {pid} is still alive — refusing to "
            f"unlink a live service's segments (stop it first)",
            file=sys.stderr,
        )
        return 1
    orphans = find_orphans(manifest)
    print(
        f"service {manifest.get('service')} — publisher pid {pid} is gone"
    )
    if not orphans:
        print("no orphaned segments found; nothing to clean")
        return 0
    for name in orphans:
        print(f"  orphaned: {name}")
    if not args.force:
        reply = input(f"unlink {len(orphans)} segment(s)? [y/N] ")
        if reply.strip().lower() not in ("y", "yes"):
            print("aborted; nothing unlinked")
            return 1
    removed = unlink_orphans(orphans)
    print(f"unlinked {len(removed)} segment(s)")
    return 0


def _service_main(argv: list[str]) -> int:
    args = build_service_parser().parse_args(argv)
    from repro.serve import (
        SegmentError,
        load_manifest,
        save_manifest,
    )

    if args.action == "clean":
        try:
            with open(args.manifest, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return _service_clean(args, manifest)

    if args.action in ("status", "stats"):
        try:
            manifest = load_manifest(args.manifest)
        except (OSError, ValueError, SegmentError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.action == "stats":
            return _service_stats(args, manifest)
        return _service_status(args, manifest)

    from repro.harness.experiments import (
        batched_distances,
        request_stream,
    )
    from repro.serve import QueryService, ServiceConfig
    from repro.serve.service import serve_workload

    kwargs = {"verbose": False}
    if args.tier:
        kwargs["tier"] = args.tier
    try:
        registry = Registry(**kwargs)
        registry.graph(args.dataset)
    except KeyError as exc:
        print(f"error: unknown dataset or tier: {exc}", file=sys.stderr)
        return 2
    techniques = tuple(t.strip() for t in args.techniques.split(",") if t.strip())

    trace = _resolve_trace(args.trace)
    if trace:
        obs.start_trace(trace)
    pairs = [p for qset in registry.q_sets(args.dataset) for p in qset.pairs]
    while pairs and len(pairs) < args.pairs:
        pairs = pairs + pairs
    pairs = pairs[: max(args.pairs, 0)]
    if not pairs:
        print("error: no query pairs to serve", file=sys.stderr)
        return 1
    requests = request_stream(pairs, args.request_size)
    config = ServiceConfig(
        dataset=args.dataset,
        tier=registry.tier,
        workers=args.workers,
        techniques=techniques,
        max_batch=args.batch,
    )
    try:
        service = QueryService(config, registry=registry)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with service:
        print(
            f"published {', '.join(service.published)} for "
            f"{args.dataset}/{registry.tier}; {args.workers} worker(s), "
            f"pids {service.pool.worker_pids}, "
            f"transport {service.pool.transport}"
        )
        service.install_usr1_snapshot(
            args.metrics_out or f"serve-metrics-{os.getpid()}.prom"
        )
        if args.manifest:
            save_manifest(args.manifest, service.manifest)
            print(f"[manifest] {args.manifest}")
        failed = 0
        for tech in techniques:
            futures, elapsed = serve_workload(service, tech, requests)
            print(
                f"{tech}: served {len(pairs)} pairs in {len(requests)} "
                f"requests: {elapsed:.3f}s ({len(pairs) / elapsed:.0f} pairs/s)"
            )
            if args.check:
                import numpy as np

                builders = _registry_builders(registry)
                got = np.array([d for f in futures for d in f.result()])
                want = np.asarray(
                    batched_distances(builders[tech](args.dataset), pairs)
                )
                ok = bool(np.array_equal(got, want))
                print(f"  bit-identical to in-process batched: {ok}")
                failed += 0 if ok else 1
        status = service.status()
        print(
            f"shed {status['shed']}, degraded {status['degraded']}, "
            f"retries {status['retries']}, "
            f"worker restarts {status['worker_restarts']}"
        )
        for row in status["workers"]:
            age = row["last_commit_age_s"]
            print(
                f"  worker {row['worker']}: pid {row['pid']}, "
                f"{row['batches']} batch(es), last commit "
                + (f"{age}s ago" if age is not None else "never")
            )
        if args.metrics_out:
            print(f"[metrics] {service.write_metrics(args.metrics_out)}")
    print("service shut down cleanly")
    if trace:
        print(f"[trace] {obs.stop_trace()}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Observability subcommands
# ----------------------------------------------------------------------
def build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness stats",
        description=(
            "Dump the metrics registry (counters, gauges, latency "
            "histograms) as an aligned table or JSON."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the raw snapshot as JSON"
    )
    parser.add_argument(
        "--prom", action="store_true",
        help="emit the snapshot in Prometheus text exposition format",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="read the metrics snapshot embedded in a trace file instead "
             "of the (empty, in a fresh process) live registry",
    )
    parser.add_argument(
        "--merge", nargs="+", default=None, metavar="FILE",
        help="merge the metrics snapshots of several trace files (e.g. "
             "the per-pid worker traces of one service run) into one "
             "rendered snapshot; mutually exclusive with --trace",
    )
    parser.add_argument(
        "--cache", default=None,
        help="cache directory whose lifetime counters to fold in "
             "(default: REPRO_CACHE or <cwd>/.cache/repro)",
    )
    return parser


def _trace_snapshot(path: str) -> dict:
    """The metrics snapshot embedded in a trace file, or ValueError."""
    try:
        events = obs.read_trace(path)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    snapshot = obs.trace_metrics(events)
    if snapshot is None:
        raise ValueError(
            f"{path}: no metrics snapshot "
            "(trace from a crashed or still-running process?)"
        )
    return snapshot


def _stats_main(argv: list[str]) -> int:
    args = build_stats_parser().parse_args(argv)
    if args.merge and args.trace:
        print("error: --merge and --trace are mutually exclusive",
              file=sys.stderr)
        return 2
    if args.merge:
        merged = obs.MetricsRegistry()
        for path in args.merge:
            try:
                snap = _trace_snapshot(path)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            try:
                merged.merge_snapshot(snap)
            except ValueError as exc:
                # e.g. a schema-1 trace whose histograms carry no buckets
                print(f"error: {path}: {exc}", file=sys.stderr)
                return 1
        snapshot = merged.snapshot()
    elif args.trace:
        try:
            snapshot = _trace_snapshot(args.trace)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        snapshot = obs.registry().snapshot()
        # Fold the disk-cache manifest's cross-process lifetime counters
        # in, so `stats` shows cache behaviour even in a fresh process.
        root = Path(args.cache) if args.cache else _default_cache_dir()
        if root is not None and root.is_dir():
            lifetime = DiskCache(root).manifest().get("counters", {})
            for name in sorted(lifetime):
                snapshot["counters"][f"cache.lifetime.{name}"] = int(lifetime[name])
    if args.json:
        print(json.dumps(snapshot, indent=1, sort_keys=True))
    elif args.prom:
        print(obs.to_prometheus(snapshot), end="")
    else:
        print(obs.render_snapshot(snapshot))
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness trace",
        description=(
            "Render the per-phase rollup tree (with self/total times) "
            "of a JSON-lines run trace."
        ),
    )
    parser.add_argument("trace", help="trace file written via --trace/REPRO_TRACE")
    parser.add_argument(
        "--json", action="store_true", help="emit the rollup as JSON"
    )
    return parser


def _trace_main(argv: list[str]) -> int:
    args = build_trace_parser().parse_args(argv)
    try:
        events = obs.read_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    root = obs.rollup(events)
    if args.json:
        print(json.dumps(obs.tree_summary(root), indent=1, sort_keys=True))
    else:
        print(obs.render_tree(root))
    return 0


def _main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "service":
        return _service_main(argv[1:])
    if argv and argv[0] == "stats":
        return _stats_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list or not args.experiment:
        print("available experiments:")
        for key in all_keys():
            print(f"  {key}")
        return 0

    kwargs = {}
    if args.tier:
        kwargs["tier"] = args.tier
    if args.pairs:
        kwargs["pairs_per_set"] = args.pairs
    if args.no_cache:
        kwargs["cache"] = "off"
    registry = Registry(**kwargs)

    run_kwargs = {}
    if args.datasets:
        run_kwargs["names"] = tuple(args.datasets.split(","))

    trace = _resolve_trace(args.trace)
    if trace:
        obs.start_trace(trace)
    keys = all_keys() if args.experiment == "all" else [args.experiment]
    for key in keys:
        started = time.perf_counter()
        exp = run(key, registry, **(run_kwargs if args.datasets else {}))
        print(exp.render())
        print(f"[{key} completed in {time.perf_counter() - started:.1f}s]\n")
        if args.chart:
            _print_charts(exp, registry)
    if registry.cache_stats is not None:
        print(f"[cache] {registry.cache_stats}")
    if trace:
        print(f"[trace] {obs.stop_trace()}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
