"""Integration tests for the registry, experiment runners, and CLI."""

import re
from pathlib import Path

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.experiments import Experiment, all_keys, run
from repro.harness.registry import Registry
from repro.harness.timing import (
    Timing,
    fmt_bytes,
    fmt_micros,
    fmt_seconds,
    subsample_evenly,
    time_queries,
)


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    return Registry(tier="tiny", pairs_per_set=12, cache=str(cache), verbose=False)


class TestRegistry:
    def test_graph_cached_in_memory(self, registry):
        assert registry.graph("DE") is registry.graph("DE")

    def test_disk_cache_roundtrip(self, registry, tmp_path_factory):
        index = registry.ch_index("DE")
        fresh = Registry(tier="tiny", pairs_per_set=12,
                         cache=str(registry.cache_dir), verbose=False)
        again = fresh.ch_index("DE")
        assert again.rank == index.rank
        assert again.stats.seconds == index.stats.seconds

    def test_cache_off(self):
        reg = Registry(tier="tiny", pairs_per_set=5, cache="off", verbose=False)
        assert reg.cache_dir is None
        assert reg.graph("DE").n > 0

    def test_query_sets_cached(self, registry):
        assert registry.q_sets("DE") is registry.q_sets("DE")
        assert len(registry.q_sets("DE")) == 10

    def test_tnr_fallback_selection(self, registry):
        ch_backed = registry.tnr("DE", fallback="ch")
        dij_backed = registry.tnr("DE", fallback="dijkstra")
        assert ch_backed.fallback.name == "CH"
        assert dij_backed.fallback.name == "Dijkstra"
        with pytest.raises(ValueError):
            registry.tnr("DE", fallback="bogus")

    def test_all_techniques_constructible(self, registry):
        for factory in (registry.bidijkstra, registry.ch, registry.tnr,
                        registry.silc, registry.pcpd):
            tech = factory("DE")
            assert tech.distance(0, 1) >= 0


class TestExperiments:
    def test_all_keys_present(self):
        keys = all_keys()
        for expected in ("table1", "table2", "fig6", "fig7", "fig8", "fig9",
                         "fig10", "fig11", "fig13", "fig14", "fig15",
                         "fig16", "fig17", "appb", "summary"):
            assert expected in keys

    def test_unknown_key_rejected(self, registry):
        with pytest.raises(KeyError):
            run("fig99", registry)

    def test_table1_rows(self, registry):
        exp = run("table1", registry)
        assert len(exp.rows) == 10
        assert exp.data["DE"]["paper_n"] == 48_812

    def test_fig8_small_slice(self, registry):
        exp = run("fig8", registry, names=("DE", "CO"), set_indexes=(1, 10))
        assert ("CH", "DE", "Q1") in exp.data
        assert ("TNR", "CO", "Q10") in exp.data
        assert all(v > 0 for v in exp.data.values())

    def test_fig7_uses_spatial_datasets(self, registry):
        exp = run("fig7", registry, names=("DE",))
        assert ("SILC", "DE", "Q1") in exp.data
        assert ("PCPD", "DE", "Q1") in exp.data

    def test_render_is_ascii_table(self, registry):
        exp = run("table1", registry)
        text = exp.render()
        assert "== table1" in text
        assert "Delaware" in text

    def test_experiment_dataclass_defaults(self):
        exp = Experiment(key="x", title="t", headers=["a"])
        assert exp.rows == [] and exp.data == {} and exp.notes == []


class TestTiming:
    def test_time_queries_counts(self):
        calls = []
        t = time_queries(lambda s, t_: calls.append((s, t_)), [(1, 2), (3, 4)])
        assert t.queries == 2 and calls == [(1, 2), (3, 4)]
        assert t.micros_per_query >= 0

    def test_subsampling(self):
        calls = []
        time_queries(lambda s, t_: calls.append(s), [(i, i) for i in range(100)],
                     max_pairs=10)
        assert len(calls) == 10

    def test_subsampling_never_duplicates(self):
        # Exact integer arithmetic: every subsample is max_pairs
        # *distinct* indices, including sizes where float stepping
        # (int(i * step)) could collapse neighbouring picks.
        for n, k in [(100, 10), (7, 3), (10**6, 9999), (12345, 12344),
                     (3, 3), (5, 1)]:
            picked = subsample_evenly(n, k)
            assert len(picked) == min(n, k)
            assert len(set(picked)) == len(picked), (n, k)
            assert picked == sorted(picked)
            assert all(0 <= i < n for i in picked)

    def test_empty_pairs(self):
        import math

        t = time_queries(lambda s, t_: None, [])
        assert t.queries == 0 and math.isnan(t.micros_per_query)
        assert math.isnan(t.p50) and math.isnan(t.p99)
        t = time_queries(lambda s, t_: None, [], percentiles=True)
        assert t.queries == 0 and math.isnan(t.p50)

    def test_percentiles_recorded(self):
        import math

        t = time_queries(lambda s, t_: None, [(i, i) for i in range(50)],
                         percentiles=True)
        assert t.queries == 50
        assert not math.isnan(t.p50)
        assert t.p50 <= t.p90 <= t.p99
        assert "p50" in str(t) and "p99" in str(t)
        # The default (block-timed) loop leaves percentiles unset.
        t2 = time_queries(lambda s, t_: None, [(1, 2)])
        assert math.isnan(t2.p50) and "p50" not in str(t2)

    def test_timing_str(self):
        assert "us over" in str(Timing(12.5, 10))

    def test_formatters(self):
        assert fmt_micros(5.0) == "5.0us"
        assert fmt_micros(1500.0) == "1.5ms"
        assert fmt_micros(2_000_000.0) == "2.00s"
        assert fmt_bytes(500.0) == "0.5KB"
        assert fmt_bytes(2_000_000.0) == "2.0MB"
        assert fmt_bytes(3_200_000_000.0) == "3.20GB"
        assert fmt_seconds(30.0) == "30.0s"
        assert fmt_seconds(90.0) == "1.5min"
        assert fmt_seconds(7200.0) == "2.0h"


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table2" in out

    def test_no_args_lists(self, capsys):
        assert cli_main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_run_table1(self, capsys, tmp_path):
        code = cli_main([
            "--experiment", "table1", "--tier", "tiny", "--pairs", "5",
        ])
        assert code == 0
        assert "Delaware" in capsys.readouterr().out

    def test_run_survives_corrupt_default_cache(self, capsys, tmp_path,
                                                monkeypatch):
        # A stale/corrupt entry in the default cache location must never
        # abort a run — this is the exact failure the seed suite hit.
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        from repro.harness.cache import CACHE_VERSION

        bad = tmp_path / f"v{CACHE_VERSION}" / "graph-tiny-DE.pkl"
        bad.parent.mkdir(parents=True)
        bad.write_bytes(b"\x05corrupt")
        assert cli_main(["--experiment", "table1", "--tier", "tiny",
                         "--pairs", "5"]) == 0
        assert "Delaware" in capsys.readouterr().out
        assert cli_main(["cache", "verify", "--cache", str(tmp_path)]) == 0

    def test_cache_subcommand_stats(self, capsys, tmp_path):
        assert cli_main(["cache", "stats", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache root" in out and "entries        0" in out


def test_readme_env_table_lists_exactly_the_knobs_in_src():
    """Adding or removing a ``REPRO_*`` variable must touch README's
    environment-variable table in the same change."""
    root = Path(__file__).resolve().parent.parent
    in_src = {
        name
        for path in (root / "src").rglob("*.py")
        for name in re.findall(r"REPRO_[A-Z0-9_]+", path.read_text("utf-8"))
    }
    readme = (root / "README.md").read_text("utf-8")
    in_table = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", readme, re.M))
    assert in_table == in_src
