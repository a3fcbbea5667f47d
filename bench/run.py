"""One benchmark run: ``python3 -m bench.run --workload <name> --seed <n>``.

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` (the default) measures the end-to-end
metrics with all tracing off; ``--trace 1`` repeats the workload with
bench-side spans and ``repro.obs`` on and reports the per-layer metrics.
Exits non-zero, without a result line, on a run it cannot vouch for.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from bench import env  # noqa: E402

CONTRACT = env.ROOT / "BENCHMARK.json"


def parse_args(argv=None) -> argparse.Namespace:
    contract = json.loads(CONTRACT.read_text())
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(prog="python3 -m bench.run", description=__doc__)
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=contract["run_seconds"])
    ap.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run, per-layer metrics (bare --trace means 1)",
    )
    ap.add_argument("--out", type=Path, default=env.OUT_DIR,
                    help="directory for the result (and trace) file")
    args = ap.parse_args(argv)
    args.contract = contract
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    env.prepare()
    try:
        return measure(args)
    finally:
        # Whatever way the run ends, no process it started outlives it.
        env.stop_children()


def measure(args: argparse.Namespace) -> int:
    from bench import workloads

    wl = workloads.WORKLOADS[args.workload]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in args.contract[kind]}
    if args.trace:
        from bench import traced

        outcome = traced.run(wl, args.seed, args.seconds, args.out)
        # A layer the workload never enters did no work: it reads 0.
        values = {name: 0.0 for name in units} | outcome.metrics
    else:
        outcome = workloads.run(wl, args.seed, args.seconds, T_START)
        values = outcome.metrics
    if set(values) != set(units):
        sys.exit(
            f"bench: metric names differ from BENCHMARK.json {kind}: "
            f"missing {sorted(set(units) - set(values))}, "
            f"uncatalogued {sorted(set(values) - set(units))}"
        )
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]} for name in units
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    why = next(w["why"] for w in args.contract["workloads"] if w["name"] == wl.name)
    record = {
        "workload": wl.name, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": env.fingerprint(), "notes": outcome.notes, **result,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}.seed{args.seed}" + (".trace1" if args.trace else "")
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"# operations attempted={result['attempted']} "
          f"succeeded={result['attempted'] - result['failed']} "
          f"failed={result['failed']}")
    print(f"# notes {json.dumps(outcome.notes)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
