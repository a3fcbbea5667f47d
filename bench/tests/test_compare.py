"""Verdicts of bench.compare, and the contract file itself."""

import json
import re

from bench import compare, env

CONTRACT = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, [10.5, 10.4, 10.6, 10.5], "lower", 0.10) == "within bound"
    assert compare.verdict(base, [11.5, 11.4, 11.6, 11.5], "lower", 0.10) == "worse"
    assert compare.verdict(base, [8.5, 8.4, 8.6, 8.5], "higher", 0.10) == "worse"
    assert compare.verdict(base, [11.5, 11.4, 11.6, 11.5], "higher", 0.10) == "within bound"
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert compare.verdict(noisy, [9.0, 11.0, 13.0, 15.0], "lower", 0.10).startswith("unresolved")
    # too noisy for the medians, but every run of the change beats every base run
    assert compare.verdict(noisy, [5.0, 6.0, 7.0, 7.5], "lower", 0.10) == "within bound"


def test_compare_flags_the_worse_pair_only():
    base = {"serve-light": {"capacity_rps": [100.0, 101.0, 99.0], "lat_p50_ms": [2.0, 2.0, 2.1]}}
    change = {"serve-light": {"capacity_rps": [70.0, 71.0, 69.0], "lat_p50_ms": [2.0, 2.1, 2.0]}}
    lines, worse = compare.compare(base, change, CONTRACT)
    assert worse
    verdicts = {line.split()[1]: line for line in lines[1:]}
    assert verdicts["capacity_rps"].endswith("worse")
    assert verdicts["lat_p50_ms"].endswith("within bound")
    assert "0.700x" in verdicts["capacity_rps"]


def test_contract_file_is_within_the_drivers_limits():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in CONTRACT[k]]
    assert len(names) == len(set(names)) and all(name.fullmatch(n) for n in names)
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in CONTRACT["workloads"])
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16 and 1 <= len(CONTRACT["per_layer"]) <= 128
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(unit.fullmatch(m["unit"]) for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in CONTRACT["end_to_end"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
