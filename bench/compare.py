"""Compare two sets of runs: ``python3 -m bench.compare <base> <change>``.

Each argument is a directory of result files written by ``bench.run``
(any number of runs per workload) or a summary saved earlier with
``--save``. For every (metric, workload) pair it prints both medians
with their quartiles, the ratio change/base, and a verdict against the
bound ``BENCHMARK.json`` fixes for the metric:

- ``within bound`` — the change's median is not worse than the base's
  by more than the bound;
- ``worse`` — it is (the exit code is then 1);
- ``unresolved (spread > bound)`` — either side's quartile distance is
  wider than the bound, so the medians cannot tell, unless every run of
  the change reads better than every run of the base.

Per-layer metrics (from ``--trace 1`` results) have no bound and are
listed with their ratio only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench import env

CONTRACT = env.ROOT / "BENCHMARK.json"


def summarise(path: Path) -> dict:
    """``{workload: {metric: [values...]}}`` of a result dir or summary file."""
    if path.is_file():
        return json.loads(path.read_text())["values"]
    values: dict[str, dict[str, list[float]]] = {}
    for file in sorted(path.glob("*.json")):
        record = json.loads(file.read_text())
        if "metrics" not in record or "workload" not in record:
            continue
        if not record["correct"]:
            raise SystemExit(f"bench.compare: {file} is a run with failed operations")
        per_metric = values.setdefault(record["workload"], {})
        for name, m in record["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
    if not values:
        raise SystemExit(f"bench.compare: no result files in {path}")
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    lower = better == "lower"
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    if max((b3 - b1) / bm, (c3 - c1) / cm) > bound:
        clear = max(change) < min(base) if lower else min(change) > max(base)
        return "within bound" if clear else "unresolved (spread > bound)"
    worse_by = (cm - bm) / bm if lower else (bm - cm) / bm
    return "worse" if worse_by > bound else "within bound"


def compare(base: dict, change: dict, contract: dict) -> tuple[list[str], bool]:
    """The report lines, and whether any pair came out worse."""
    specs = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    lines = [
        f"{'workload':<12} {'metric':<40} {'base med [q1, q3]':>36} "
        f"{'change med [q1, q3]':>36} {'change/base':>11}  verdict"
    ]
    any_worse = False
    for workload in sorted(set(base) & set(change)):
        for name in specs:
            if name not in base[workload] or name not in change[workload]:
                continue
            b, c = base[workload][name], change[workload][name]
            b1, bm, b3 = quartiles(b)
            c1, cm, c3 = quartiles(c)
            if bm == 0 and cm == 0:
                continue  # a layer this workload never enters
            ratio = f"{cm / bm:.3f}x" if bm else "n/a"
            spec = specs[name]
            word = (
                verdict(b, c, spec["better"], spec["bound"])
                if "bound" in spec else "no bound"
            )
            any_worse |= word == "worse"
            lines.append(
                f"{workload:<12} {name:<40} "
                f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}] n={len(b)}':>36} "
                f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}] n={len(c)}':>36} "
                f"{ratio:>11}  {word}"
            )
    return lines, any_worse


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m bench.compare", description=__doc__)
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--save", type=Path, nargs="?", const=True,
                    help="write BASE's summary as a baseline "
                         "(default: bench/baseline/<this machine's fingerprint>.json)")
    args = ap.parse_args(argv)
    base = summarise(args.base)
    if args.save:
        fp = env.fingerprint()
        path = args.save if isinstance(args.save, Path) else (
            env.ROOT / "bench" / "baseline" / f"{env.fingerprint_id(fp)}.json"
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fingerprint": fp, "values": base}, indent=1) + "\n")
        print(f"saved {path}")
    if args.change is None:
        return 0
    lines, any_worse = compare(base, summarise(args.change), json.loads(CONTRACT.read_text()))
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
