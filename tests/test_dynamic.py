"""Dynamics tests: weight epochs, incremental repair, churn differential.

The load-bearing property throughout is **bit-identity**: after any
sequence of ``apply_updates`` batches, every repaired index must equal —
array for array, byte for byte — the index built from scratch at the
same epoch (``DynamicState.rebuilt()``). Query answers are additionally
cross-checked against plain Dijkstra on the reweighted graph.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import dijkstra_distance
from repro.graph.csr import HAVE_SCIPY
from repro.queries.workloads import rush_hour_churn

pytestmark = pytest.mark.skipif(
    not HAVE_SCIPY, reason="the dynamics subsystem needs scipy"
)

from repro.dynamic import (  # noqa: E402
    REPAIRABLE,
    DynamicState,
    WeightEpoch,
    arc_ids,
    changed_endpoints,
    next_epoch,
    reweight_graph,
    validate_batch,
)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def random_edge_batch(graph, rng, k, factor_range=(0.5, 3.0)):
    """``k`` distinct existing edges with fresh positive weights."""
    edges = [(e.u, e.v) for e in graph.edges()]
    picks = rng.choice(len(edges), size=min(k, len(edges)), replace=False)
    batch, weights = [], []
    for i in picks:
        u, v = edges[int(i)]
        lo, hi = factor_range
        f = lo + (hi - lo) * float(rng.random())
        w = max(1.0, float(round(graph.edge_weight(u, v) * f)))
        batch.append((u, v))
        weights.append(w)
    return batch, weights


def assert_ch_equal(a, b):
    assert a.index.rank == list(b.index.rank)
    assert a.index.up == b.index.up
    assert a.index.middle == b.index.middle
    ua, ub = a.index.upward_csr(), b.index.upward_csr()
    for name in ("indptr", "heads", "weights"):
        x, y = getattr(ua, name, None), getattr(ub, name, None)
        if x is None:
            continue
        np.testing.assert_array_equal(x, y)


def assert_labels_equal(a, b):
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.hubs, b.hubs)
    np.testing.assert_array_equal(a.dists, b.dists)


def assert_tnr_equal(a, b):
    np.testing.assert_array_equal(
        np.asarray(a.transit_nodes), np.asarray(b.transit_nodes)
    )
    np.testing.assert_array_equal(a.table, b.table)
    assert len(a.vertex_access) == len(b.vertex_access)
    for va, vb, da, db in zip(
        a.vertex_access, b.vertex_access,
        a.vertex_access_dist, b.vertex_access_dist,
    ):
        np.testing.assert_array_equal(np.asarray(va), np.asarray(vb))
        np.testing.assert_array_equal(np.asarray(da), np.asarray(db))


def assert_state_matches_rebuild(st):
    rb = st.rebuilt()
    assert_ch_equal(st.ch, rb.ch)
    if st.labels is not None:
        assert_labels_equal(st.labels, rb.labels)
    if st.tnr is not None:
        assert_tnr_equal(st.tnr, rb.tnr)


# ----------------------------------------------------------------------
# Epoch mechanics
# ----------------------------------------------------------------------
class TestEpochs:
    def test_arc_ids_both_directions(self, de_tiny):
        csr = de_tiny.csr()
        e = next(iter(de_tiny.edges()))
        pos = arc_ids(csr, [(e.u, e.v)])
        assert pos.shape == (1, 2)
        assert int(csr.indices[pos[0, 0]]) == e.v
        assert int(csr.indices[pos[0, 1]]) == e.u

    def test_arc_ids_missing_edge_raises(self, de_tiny):
        csr = de_tiny.csr()
        # A self-loop is never in the topology.
        with pytest.raises(KeyError):
            arc_ids(csr, [(0, 0)])
        with pytest.raises(KeyError):
            arc_ids(csr, [(0, de_tiny.n + 5)])

    def test_next_epoch_rejects_bad_weights(self, de_tiny):
        ep = WeightEpoch.zero(de_tiny.csr())
        e = next(iter(de_tiny.edges()))
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                next_epoch(ep, [(e.u, e.v)], [bad])
        with pytest.raises(ValueError):
            next_epoch(ep, [(e.u, e.v)], [1.0, 2.0])

    def test_validate_batch_is_next_epochs_check(self, de_tiny):
        """The service runs it alone, at the call site, on any epoch's
        topology; it must accept and refuse exactly what next_epoch does."""
        csr = de_tiny.csr()
        e = next(iter(de_tiny.edges()))
        pos = validate_batch(csr, [(e.u, e.v)], [2.5])
        np.testing.assert_array_equal(pos, arc_ids(csr, [(e.u, e.v)]))
        assert len(validate_batch(csr, [], [])) == 0
        for edges, ws, exc in (
            ([(e.u, e.v)], [0.0], ValueError),
            ([(e.u, e.v)], [math.nan], ValueError),
            ([(e.u, e.v)], [1.0, 2.0], ValueError),
            ([(0, 0)], [1.0], KeyError),
            ([(0, de_tiny.n)], [1.0], KeyError),
        ):
            with pytest.raises(exc):
                validate_batch(csr, edges, ws)
            with pytest.raises(exc):
                next_epoch(WeightEpoch.zero(csr), edges, ws)

    def test_noop_update_excluded_from_changed(self, de_tiny):
        ep = WeightEpoch.zero(de_tiny.csr())
        e = next(iter(de_tiny.edges()))
        nxt, changed = next_epoch(ep, [(e.u, e.v)], [float(e.weight)])
        assert nxt.epoch == 1
        assert len(changed) == 0
        np.testing.assert_array_equal(nxt.csr.weights, ep.csr.weights)

    def test_fingerprint_carries_epoch(self, de_tiny):
        ep = WeightEpoch.zero(de_tiny.csr())
        e = next(iter(de_tiny.edges()))
        nxt, changed = next_epoch(ep, [(e.u, e.v)], [float(e.weight) + 5.0])
        assert ep.fingerprint.epoch == 0
        assert nxt.fingerprint.epoch == 1
        assert nxt.fingerprint != ep.fingerprint
        assert len(changed) == 2  # both directed arcs
        # Topology arrays are shared, not copied.
        assert nxt.csr.indptr is ep.csr.indptr
        assert nxt.csr.indices is ep.csr.indices

    def test_changed_endpoints(self, de_tiny):
        csr = de_tiny.csr()
        ep = WeightEpoch.zero(csr)
        e = next(iter(de_tiny.edges()))
        _, changed = next_epoch(ep, [(e.u, e.v)], [float(e.weight) + 3.0])
        ends = changed_endpoints(csr, changed)
        assert set(ends.tolist()) == {e.u, e.v}
        assert len(changed_endpoints(csr, np.empty(0, dtype=np.int64))) == 0

    def test_reweight_graph_round_trip(self, de_tiny):
        ep = WeightEpoch.zero(de_tiny.csr())
        e = next(iter(de_tiny.edges()))
        nxt, _ = next_epoch(ep, [(e.u, e.v)], [float(e.weight) + 7.0])
        g2 = reweight_graph(de_tiny, nxt.csr)
        assert g2.frozen and g2.n == de_tiny.n and g2.m == de_tiny.m
        assert g2.edge_weight(e.u, e.v) == float(e.weight) + 7.0
        np.testing.assert_array_equal(g2.csr().weights, nxt.csr.weights)


# ----------------------------------------------------------------------
# DynamicState repair
# ----------------------------------------------------------------------
class TestDynamicState:
    def test_requires_frozen_graph(self):
        from repro.graph.graph import Graph

        g = Graph([0.0, 1.0], [0.0, 0.0], [(0, 1, 1.0)])
        assert not g.frozen
        with pytest.raises(ValueError):
            DynamicState(g)

    def test_epoch_zero_matches_rebuild(self, de_tiny):
        st = DynamicState(de_tiny, tnr_grid=8)
        assert st.epoch == 0
        assert_state_matches_rebuild(st)

    def test_repair_report_shape(self, de_tiny):
        st = DynamicState(de_tiny, with_labels=True)
        rng = np.random.default_rng(1)
        edges, ws = random_edge_batch(de_tiny, rng, 3)
        report = st.apply_updates(edges, ws)
        assert report.epoch == 1 == st.epoch
        assert report.changed_edges == len(edges)
        assert set(report.repair_us) <= set(REPAIRABLE)
        assert {"dijkstra", "ch", "labels"} <= set(report.repair_us)

    def test_dirty_vertices_match_the_loop_bfs(self, de_tiny):
        """The frontier-at-a-time BFS marks exactly what the one-vertex-
        at-a-time walk over the reversed up-graph marks."""
        st = DynamicState(de_tiny, with_labels=False)
        tails = st.scaffold.tails
        rev_indptr, rev_tails = st._rev_indptr, st._rev_tails

        def reference(arcs):
            seen = set(tails[arcs].tolist())
            stack = list(seen)
            while stack:
                x = stack.pop()
                for t in rev_tails[rev_indptr[x]:rev_indptr[x + 1]].tolist():
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            return sorted(seen)

        rng = np.random.default_rng(7)
        n_arcs = len(tails)
        batches = [np.empty(0, dtype=np.int64), np.arange(n_arcs)]
        batches += [
            rng.choice(n_arcs, size=k, replace=False) for k in (1, 1, 2, 5, 20)
        ]
        # Every arc out of one vertex.
        batches.append(np.nonzero(tails == tails.max())[0])
        for arcs in batches:
            got = st._dirty_vertices(arcs)
            assert got.tolist() == reference(arcs)

    def test_bit_identity_over_epochs(self, de_tiny):
        st = DynamicState(de_tiny, tnr_grid=8, damage_threshold=0.9)
        rng = np.random.default_rng(42)
        for _ in range(3):
            edges, ws = random_edge_batch(de_tiny, rng, 2)
            st.apply_updates(edges, ws)
            assert_state_matches_rebuild(st)

    def test_damage_fallback_equivalent(self, de_tiny):
        """threshold=0 (always full rebuild) and threshold=1 (always
        incremental) land on identical indexes."""
        inc = DynamicState(de_tiny, damage_threshold=1.0)
        full = DynamicState(de_tiny, damage_threshold=0.0)
        rng = np.random.default_rng(7)
        for _ in range(2):
            edges, ws = random_edge_batch(de_tiny, rng, 4)
            r_inc = inc.apply_updates(edges, ws)
            r_full = full.apply_updates(edges, ws)
            assert not r_inc.full_rebuild["ch"]
            assert r_full.full_rebuild["ch"]
            assert_ch_equal(inc.ch, full.ch)
            assert_labels_equal(inc.labels, full.labels)

    def test_queries_exact_after_updates(self, de_tiny, rng):
        st = DynamicState(de_tiny, tnr_grid=8)
        nprng = np.random.default_rng(3)
        for _ in range(2):
            edges, ws = random_edge_batch(de_tiny, nprng, 3)
            st.apply_updates(edges, ws)
        g2 = reweight_graph(de_tiny, st.csr)
        from repro.core.bidirectional import BidirectionalDijkstra
        from repro.core.ch.query import ContractionHierarchy
        from repro.core.labels import HubLabels

        bd = BidirectionalDijkstra(g2)
        ch = ContractionHierarchy(g2, st.ch.index)
        hl = HubLabels(g2, st.labels)
        for _ in range(25):
            s, t = rng.randrange(de_tiny.n), rng.randrange(de_tiny.n)
            want = dijkstra_distance(g2, s, t)
            assert bd.distance(s, t) == want
            assert ch.distance(s, t) == want
            assert hl.distance(s, t) == want

    def test_restore_returns_to_epoch_zero_arrays(self, de_tiny):
        """Re-applying the original weights reproduces the epoch-0
        customization bit for bit (customization is a pure function of
        the weight vector)."""
        st = DynamicState(de_tiny)
        base_w = st.scaffold.w.copy()
        base_labels = (
            st.labels.indptr.copy(),
            st.labels.hubs.copy(),
            st.labels.dists.copy(),
        )
        e = next(iter(de_tiny.edges()))
        st.apply_updates([(e.u, e.v)], [float(e.weight) * 4 + 1])
        assert not np.array_equal(st.scaffold.w, base_w)
        st.apply_updates([(e.u, e.v)], [float(e.weight)])
        np.testing.assert_array_equal(st.scaffold.w, base_w)
        np.testing.assert_array_equal(st.labels.indptr, base_labels[0])
        np.testing.assert_array_equal(st.labels.hubs, base_labels[1])
        np.testing.assert_array_equal(st.labels.dists, base_labels[2])


# ----------------------------------------------------------------------
# Churn workload differential
# ----------------------------------------------------------------------
class TestChurn:
    def test_workload_deterministic_and_restoring(self, de_tiny):
        a = rush_hour_churn(de_tiny, bursts=4, seed=5)
        b = rush_hour_churn(de_tiny, bursts=4, seed=5)
        assert a == b
        c = rush_hour_churn(de_tiny, bursts=4, seed=6)
        assert a != c
        # From phase 3 on, each phase restores the cluster congested
        # two bursts earlier — some update must decrease a weight.
        current: dict = {}
        for e in de_tiny.edges():
            current[(min(e.u, e.v), max(e.u, e.v))] = float(e.weight)
        saw_restore = False
        for ph in a:
            for (u, v), w in ph.updates:
                if w < current[(u, v)]:
                    saw_restore = True
                current[(u, v)] = w
        assert saw_restore

    def test_churn_differential(self, de_tiny):
        """The acceptance gate in miniature: replay a churn workload,
        checking repaired indexes bit-identical to rebuilds and query
        answers exact at every epoch."""
        st = DynamicState(de_tiny, tnr_grid=8, damage_threshold=0.9)
        phases = rush_hour_churn(
            de_tiny, bursts=3, edges_per_burst=5, queries_per_phase=8, seed=11
        )
        from repro.core.ch.query import ContractionHierarchy
        from repro.core.labels import HubLabels
        from repro.core.tnr import TransitNodeRouting

        for i, ph in enumerate(phases, start=1):
            edges = [e for e, _ in ph.updates]
            ws = [w for _, w in ph.updates]
            report = st.apply_updates(edges, ws)
            assert report.epoch == i
            assert_state_matches_rebuild(st)
            g2 = reweight_graph(de_tiny, st.csr)
            ch = ContractionHierarchy(g2, st.ch.index)
            hl = HubLabels(g2, st.labels)
            tnr = TransitNodeRouting(g2, st.tnr, ch)
            for s, t in ph.queries:
                want = dijkstra_distance(g2, s, t)
                assert ch.distance(s, t) == want
                assert hl.distance(s, t) == want
                assert tnr.distance(s, t) == want
