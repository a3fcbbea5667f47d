"""Per-technique incremental index repair across weight epochs.

:class:`DynamicState` owns one :class:`~repro.dynamic.cch.CCHScaffold`
plus the current epoch's query indexes and, on every
:meth:`~DynamicState.apply_updates`, produces the next epoch with a
repair plan per technique:

- **dijkstra / bidirectional** — nothing to repair: both answer off the
  epoch's weight view directly;
- **CH** — incremental re-customization of the scaffold, seeded by the
  changed base arcs and propagated along lower triangles
  (:meth:`CCHScaffold.recustomize`), falling back to a full
  customization past the damage threshold;
- **hub labels** — re-derivation of only the *dirty* vertices' labels.
  A vertex ``v``'s label is its stall-filtered upward search space, and
  that search consults exactly the arcs whose tails ``v`` reaches in
  the (metric-independent) up-graph; so ``v`` is dirty iff it reaches
  the tail of some customised arc whose value moved — one BFS over the
  precomputed reversed up-graph. Clean labels are provably bit-equal to
  a from-scratch build, dirty ones rerun the identical search kernel;
- **TNR** — per-cell patching. A cell's access computation consults
  (a) arcs whose tail sits within the inner 5×5 block (structural:
  Chebyshev distance ≤ ``INNER_RADIUS`` from the cell) and (b) arcs
  inside the limited one-to-many ball around its members, whose radius
  :func:`~repro.core.tnr.access_nodes._cell_access_csr_with_radius`
  reports. A cell is dirty iff a changed edge endpoint violates (a) or
  sits within the radius of (b) under the old *or* new metric (one
  multi-source ``min_only`` sweep each); every other cell's
  ``CellAccess`` is bit-identical under both metrics. The transit table
  re-derives only the rows/columns of transit nodes whose CH search
  spaces changed (the labels dirty set) — every other entry's
  candidate set is unchanged — and falls back to a full
  ``many_to_many`` when the transit set itself changes or the damage
  threshold trips.

The differential contract (``tests/test_dynamic.py``): after any
sequence of update batches, every repaired index compares bit-identical
to :meth:`DynamicState.rebuilt`, which builds the same indexes from
scratch at the same epoch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.ch.many_to_many import SEARCH_CHUNK, _settled_spaces, many_to_many
from repro.core.ch.query import ContractionHierarchy
from repro.core.labels.index import HubLabelIndex
from repro.core.tnr.access_nodes import (
    CellAccess,
    _cell_access_csr_with_radius,
    transit_nodes as collect_transit_nodes,
)
from repro.core.tnr.grid import INNER_RADIUS, TNRGrid
from repro.core.tnr.index import TNRIndex
from repro.dynamic.cch import CCHScaffold
from repro.dynamic.epochs import WeightEpoch, changed_endpoints, next_epoch
from repro.graph.csr import HAVE_SCIPY, CSRGraph
from repro.graph.graph import Graph

INF = math.inf

#: Repair techniques this module knows how to keep current.
REPAIRABLE = ("dijkstra", "bidijkstra", "ch", "labels", "tnr")


def _now_us() -> float:
    return time.perf_counter_ns() / 1e3


@dataclass
class RepairReport:
    """What one :meth:`DynamicState.apply_updates` call did, and how fast.

    :meth:`repro.serve.QueryService.apply_updates` hands its caller the
    report *before* the repair has run: ``live`` is False and only
    ``epoch`` / ``changed_edges`` are meaningful until the serving loop
    flips the epoch live and fills the same object in (or sets
    ``error``). A report returned by :class:`DynamicState` itself is
    complete on return.
    """

    epoch: int
    changed_edges: int
    changed_arcs: int = 0
    repair_us: dict[str, float] = field(default_factory=dict)
    full_rebuild: dict[str, bool] = field(default_factory=dict)
    ch_changed_arcs: int = 0
    labels_dirty: int = 0
    tnr_dirty_cells: int = 0
    tnr_dirty_transit: int = 0
    #: The epoch is what queries are answered on.
    live: bool = True
    #: What stopped a served update from ever going live.
    error: BaseException | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


# ----------------------------------------------------------------------
# Hub-label building blocks (engine-pinned: always the flat kernels)
# ----------------------------------------------------------------------
def _label_rows(ucsr, nodes: Sequence[int]):
    """Flat ``(indptr, hubs, dists)`` of the given vertices' labels.

    Runs :func:`_settled_spaces` directly (not through the
    ``_flat_engine`` size gate), so repair and full rebuild use the
    *same* kernel on any graph size — the differential bit-identity
    depends on that.
    """
    k = len(nodes)
    counts = np.zeros(k, dtype=np.int64)
    hub_parts: list[np.ndarray] = []
    dist_parts: list[np.ndarray] = []
    for base, rows, verts, dists in _settled_spaces(ucsr, nodes, SEARCH_CHUNK):
        counts += np.bincount(rows + base, minlength=k)
        hub_parts.append(verts)
        dist_parts.append(dists)
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    hubs = (
        np.concatenate(hub_parts).astype(np.int32)
        if hub_parts
        else np.empty(0, dtype=np.int32)
    )
    dists_arr = (
        np.concatenate(dist_parts).astype(np.float64)
        if dist_parts
        else np.empty(0, dtype=np.float64)
    )
    return indptr, hubs, dists_arr


def build_labels_flat(ucsr, n: int) -> HubLabelIndex:
    """Full hub-label build over the flat upward CSR (all ``n`` vertices)."""
    indptr, hubs, dists = _label_rows(ucsr, list(range(n)))
    return HubLabelIndex(n=n, indptr=indptr, hubs=hubs, dists=dists)


def _splice_labels(
    old: HubLabelIndex, dirty: np.ndarray, rows
) -> HubLabelIndex:
    """New index = old with the ``dirty`` vertices' rows replaced."""
    d_indptr, d_hubs, d_dists = rows
    n = old.n
    sizes = np.diff(old.indptr)
    new_sizes = sizes.copy()
    new_sizes[dirty] = np.diff(d_indptr)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_sizes, out=indptr[1:])
    is_dirty = np.zeros(n, dtype=bool)
    is_dirty[dirty] = True
    src_start = old.indptr[:-1].copy()
    src_start[dirty] = d_indptr[:-1]
    total = int(indptr[-1])
    flat_src = np.repeat(src_start, new_sizes) + (
        np.arange(total, dtype=np.int64) - np.repeat(indptr[:-1], new_sizes)
    )
    mask = np.repeat(is_dirty, new_sizes)
    hubs = np.empty(total, dtype=np.int32)
    dists = np.empty(total, dtype=np.float64)
    hubs[mask] = d_hubs[flat_src[mask]]
    hubs[~mask] = old.hubs[flat_src[~mask]]
    dists[mask] = d_dists[flat_src[mask]]
    dists[~mask] = old.dists[flat_src[~mask]]
    return HubLabelIndex(n=n, indptr=indptr, hubs=hubs, dists=dists)


# ----------------------------------------------------------------------
# TNR building blocks
# ----------------------------------------------------------------------
def _assemble_tnr(
    grid: TNRGrid,
    cell_access: dict[int, CellAccess],
    ch: ContractionHierarchy,
    table: np.ndarray | None = None,
) -> TNRIndex:
    """Assemble a :class:`TNRIndex` from per-cell access information.

    Mirrors the tail of :func:`repro.core.tnr.index.build_tnr`; pass a
    precomputed ``table`` to skip the many-to-many (the patch path).
    """
    transit = collect_transit_nodes(cell_access)
    t_index = {v: i for i, v in enumerate(transit)}
    if table is None:
        table = many_to_many(ch, transit, transit, dtype=np.float32)
    n = grid.graph.n
    empty_idx = np.empty(0, dtype=np.int32)
    empty_dist = np.empty(0, dtype=np.float64)
    vertex_access: list[np.ndarray] = [empty_idx] * n
    vertex_access_dist: list[np.ndarray] = [empty_dist] * n
    for info in cell_access.values():
        idx = np.array([t_index[a] for a in info.access_nodes], dtype=np.int32)
        for v, dists in info.vertex_distances.items():
            vertex_access[v] = idx
            vertex_access_dist[v] = np.array(dists, dtype=np.float64)
    return TNRIndex(
        grid=grid,
        transit_nodes=transit,
        table=table,
        vertex_access=vertex_access,
        vertex_access_dist=vertex_access_dist,
    )


def _compute_cells(grid: TNRGrid, csr: CSRGraph, cells) -> tuple[dict, dict]:
    """``(cell_access, radius)`` of the given cells under ``csr``'s metric."""
    access: dict[int, CellAccess] = {}
    radius: dict[int, float] = {}
    for cell in cells:
        access[cell], radius[cell] = _cell_access_csr_with_radius(csr, grid, cell)
    return access, radius


# ----------------------------------------------------------------------
# The dynamic state
# ----------------------------------------------------------------------
class DynamicState:
    """Current-epoch indexes over one frozen topology, repaired in place.

    Parameters
    ----------
    graph:
        The frozen base graph (epoch 0's metric).
    ch:
        A witness CH of the base graph; only its contraction *order* is
        used (the scaffold re-derives the arc set metric-independently).
        Built on demand when omitted.
    with_labels / tnr_grid:
        Which optional techniques to maintain; ``tnr_grid`` is the TNR
        grid side length (``None`` disables TNR).
    damage_threshold:
        Fraction of arcs (CH), vertices (labels) or transit nodes (TNR)
        past which repair falls back to the full path.
    """

    def __init__(
        self,
        graph: Graph,
        ch: ContractionHierarchy | None = None,
        *,
        with_labels: bool = True,
        tnr_grid: int | None = None,
        damage_threshold: float = 0.25,
    ) -> None:
        if not HAVE_SCIPY:
            raise RuntimeError(
                "the dynamics subsystem needs scipy's compiled Dijkstra; "
                "install scipy or serve static epochs only"
            )
        if not graph.frozen:
            raise ValueError("freeze() the graph before building DynamicState")
        self.graph = graph
        self.damage_threshold = float(damage_threshold)
        base_csr = graph.csr()
        if ch is None:
            ch = ContractionHierarchy.build(graph)
        self.current = WeightEpoch.zero(base_csr)
        self.scaffold = CCHScaffold(base_csr, list(ch.index.rank))
        self.ch = ContractionHierarchy(graph, self.scaffold.export_index())
        # Reversed up-graph (topology-only, reused every epoch) for the
        # labels dirty-vertex BFS.
        order = np.argsort(self.scaffold.uheads, kind="stable")
        self._rev_tails = self.scaffold.tails[order]
        rev_counts = np.bincount(
            self.scaffold.uheads, minlength=self.scaffold.n
        )
        self._rev_indptr = np.zeros(self.scaffold.n + 1, dtype=np.int64)
        np.cumsum(rev_counts, out=self._rev_indptr[1:])

        self.labels: HubLabelIndex | None = None
        if with_labels:
            self.labels = build_labels_flat(
                self.ch.index.upward_csr(), graph.n
            )
        self.tnr: TNRIndex | None = None
        self._cell_access: dict[int, CellAccess] = {}
        self._cell_radius: dict[int, float] = {}
        if tnr_grid is not None:
            grid = TNRGrid(graph, tnr_grid)
            self._cell_access, self._cell_radius = _compute_cells(
                grid, base_csr, grid.nonempty_cells()
            )
            self.tnr = _assemble_tnr(grid, self._cell_access, self.ch)

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.current.epoch

    @property
    def csr(self) -> CSRGraph:
        """The current epoch's weight view (the Dijkstra "repair")."""
        return self.current.csr

    # ------------------------------------------------------------------
    def _dirty_vertices(self, changed_up_arcs: np.ndarray) -> np.ndarray:
        """Vertices whose upward search space consults a changed arc:
        everything that reaches a changed arc's tail in the up-graph
        (BFS over the reversed topology, one frontier per NumPy step —
        the service runs this beside its serving loop, so it must not
        sit in a Python loop holding the interpreter lock)."""
        seen = np.zeros(self.scaffold.n, dtype=bool)
        frontier = np.unique(self.scaffold.tails[changed_up_arcs])
        rev_indptr, rev_tails = self._rev_indptr, self._rev_tails
        while len(frontier):
            seen[frontier] = True
            starts = rev_indptr[frontier]
            counts = rev_indptr[frontier + 1] - starts
            ends = np.cumsum(counts)
            # Positions of every in-arc of the frontier, row by row.
            flat = np.arange(int(ends[-1]), dtype=np.int64) + np.repeat(
                starts - (ends - counts), counts
            )
            reached = rev_tails[flat]
            frontier = np.unique(reached[~seen[reached]])
        return np.nonzero(seen)[0]

    # ------------------------------------------------------------------
    def apply_updates(
        self,
        edges: Sequence[tuple[int, int]],
        new_weights: Sequence[float],
    ) -> RepairReport:
        """Advance one epoch and repair every maintained index."""
        old_csr = self.current.csr
        t0 = _now_us()
        self.current, changed = next_epoch(self.current, edges, new_weights)
        new_csr = self.current.csr
        report = RepairReport(
            epoch=self.current.epoch,
            changed_edges=len(edges),
            changed_arcs=len(changed),
        )
        report.repair_us["dijkstra"] = _now_us() - t0

        # CH: incremental customization (the changed customised-arc set
        # is taken from a vectorised before/after compare, so it is the
        # same whether the incremental or the fallback path ran).
        t0 = _now_us()
        w_prev = self.scaffold.w.copy()
        mid_prev = self.scaffold.mid.copy()
        incremental = self.scaffold.recustomize(
            new_csr.weights, changed, self.damage_threshold
        )
        # Value changes drive search-space dirtiness (labels, TNR); a
        # middle can also flip while the value holds (the base arc
        # overtakes a tied triangle or vice versa), which matters only
        # to path unpacking — i.e. to the export.
        moved = self.scaffold.w != w_prev
        changed_up = np.nonzero(moved)[0]
        changed_export = np.nonzero(moved | (self.scaffold.mid != mid_prev))[0]
        # The previous epoch's copies are spent: free them before the
        # export and the label rows allocate theirs.
        del w_prev, mid_prev, moved
        index = self.scaffold.export_index(self.ch.index, changed_export)
        self.ch = ContractionHierarchy(self.graph, index)
        report.repair_us["ch"] = _now_us() - t0
        report.full_rebuild["ch"] = not incremental
        report.ch_changed_arcs = len(changed_up)

        dirty = self._dirty_vertices(changed_up)
        if self.labels is not None:
            t0 = _now_us()
            self._repair_labels(dirty, report)
            report.repair_us["labels"] = _now_us() - t0
        if self.tnr is not None:
            t0 = _now_us()
            self._repair_tnr(old_csr, new_csr, changed, dirty, report)
            report.repair_us["tnr"] = _now_us() - t0

        if obs.ENABLED:
            reg = obs.registry()
            reg.counter("dynamic.updates").inc()
            reg.gauge("dynamic.epoch").set(self.current.epoch)
            for tech, us in report.repair_us.items():
                reg.histogram(f"dynamic.repair_us.{tech}").observe(us)
        return report

    def _repair_labels(self, dirty: np.ndarray, report: RepairReport) -> None:
        report.labels_dirty = len(dirty)
        if len(dirty) == 0:
            report.full_rebuild["labels"] = False
            return
        ucsr = self.ch.index.upward_csr()
        if len(dirty) > self.damage_threshold * self.scaffold.n:
            self.labels = build_labels_flat(ucsr, self.scaffold.n)
            report.full_rebuild["labels"] = True
            return
        rows = _label_rows(ucsr, dirty.tolist())
        self.labels = _splice_labels(self.labels, dirty, rows)
        report.full_rebuild["labels"] = False

    def _repair_tnr(
        self,
        old_csr: CSRGraph,
        new_csr: CSRGraph,
        changed: np.ndarray,
        dirty_vertices: np.ndarray,
        report: RepairReport,
    ) -> None:
        from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

        grid = self.tnr.grid
        endpoints = changed_endpoints(new_csr, changed)
        if len(endpoints) == 0 and len(dirty_vertices) == 0:
            report.full_rebuild["tnr"] = False
            return
        # (a) structural: every arc a cell's access computation
        # enumerates (inner block + exit arcs, including the weights
        # that size its search radius) has its tail within INNER_RADIUS
        # cells, so any cell that close to a changed endpoint recomputes.
        end_cells = {grid.cell_of_vertex[int(v)] for v in endpoints}
        dirty_cells = [
            c
            for c in self._cell_access
            if any(grid.cell_distance(c, e) <= INNER_RADIUS for e in end_cells)
        ]
        # (b) metric ball: a farther changed arc matters only if it sits
        # inside the cell's limited one-to-many search under the old or
        # the new metric. d(v, endpoint) is symmetric (undirected), so
        # two multi-source min-only sweeps bound every cell at once.
        if len(endpoints):
            idx = endpoints.astype(np.int64)
            dmin = np.minimum(
                _sp_dijkstra(
                    old_csr.matrix(), directed=True, indices=idx, min_only=True
                ),
                _sp_dijkstra(
                    new_csr.matrix(), directed=True, indices=idx, min_only=True
                ),
            )
            structural = set(dirty_cells)
            for c, radius in self._cell_radius.items():
                if c in structural:
                    continue
                near = dmin[grid.vertices_in(c)].min()
                if np.isfinite(near) and near <= radius:
                    dirty_cells.append(c)
        report.tnr_dirty_cells = len(dirty_cells)

        old_transit = self.tnr.transit_nodes
        if dirty_cells:
            fresh_access, fresh_radius = _compute_cells(
                grid, new_csr, sorted(dirty_cells)
            )
            self._cell_access.update(fresh_access)
            self._cell_radius.update(fresh_radius)
        transit = collect_transit_nodes(self._cell_access)

        dirty_set = set(dirty_vertices.tolist())
        dirty_t = [i for i, t in enumerate(old_transit) if t in dirty_set]
        report.tnr_dirty_transit = len(dirty_t)
        full_table = transit != old_transit or len(dirty_t) > (
            self.damage_threshold * max(len(old_transit), 1)
        )
        report.full_rebuild["tnr"] = full_table
        if full_table:
            self.tnr = _assemble_tnr(grid, self._cell_access, self.ch)
            return
        # Patch: rows/columns of transit nodes whose CH search spaces
        # changed — any entry with two clean endpoints has an unchanged
        # candidate set, hence the identical float32 value.
        table = self.tnr.table
        if dirty_t:
            table = table.copy()
            nodes = [old_transit[i] for i in dirty_t]
            sub = many_to_many(self.ch, nodes, old_transit, dtype=np.float32)
            table[np.asarray(dirty_t), :] = sub
            table[:, np.asarray(dirty_t)] = sub.T
        if dirty_cells or dirty_t:
            self.tnr = _assemble_tnr(grid, self._cell_access, self.ch, table=table)

    # ------------------------------------------------------------------
    def rebuilt(self) -> SimpleNamespace:
        """From-scratch indexes at the *current* epoch (the comparator).

        Re-customises a fresh scaffold at the current weights and builds
        labels and TNR with the same engine-pinned kernels the repair
        path uses — the differential suite asserts bit-identity between
        these and the repaired indexes.
        """
        scaffold = CCHScaffold(self.current.csr, self.scaffold.rank.tolist())
        ch = ContractionHierarchy(self.graph, scaffold.export_index())
        labels = (
            build_labels_flat(ch.index.upward_csr(), self.graph.n)
            if self.labels is not None
            else None
        )
        tnr = None
        if self.tnr is not None:
            grid = self.tnr.grid
            access, _ = _compute_cells(grid, self.current.csr, grid.nonempty_cells())
            tnr = _assemble_tnr(grid, access, ch)
        return SimpleNamespace(ch=ch, labels=labels, tnr=tnr)
