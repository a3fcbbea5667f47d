"""Versioned weight epochs over a frozen CSR topology.

A road network's *topology* is effectively static; its *metric* is not —
travel times move with traffic every few minutes. The dynamics
subsystem models that as a sequence of **weight epochs**: immutable
per-epoch ``float64`` arc-weight arrays over the one frozen CSR
topology, keyed by a monotonically increasing epoch counter that is
folded into :class:`~repro.persistence.GraphFingerprint` (so an index
customised for epoch ``k`` can never be mistaken for one valid at
``k+1``).

An epoch step (:func:`next_epoch`) takes a batch of undirected edges
with their new weights, validates them against the topology, and
produces the next :class:`WeightEpoch` — a new :class:`CSRGraph` that
*shares* ``indptr``/``indices``/``xs``/``ys`` with its predecessor and
owns only a fresh weight array (both directed arcs of each updated edge
are rewritten). Everything downstream — the incremental repairs in
:mod:`repro.dynamic.cch` and :mod:`repro.dynamic.repair`, the serving
swap in :mod:`repro.serve.service` — consumes these epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.persistence import GraphFingerprint

INF = math.inf


@dataclass(frozen=True)
class WeightEpoch:
    """One immutable weight version of the frozen topology.

    ``csr`` shares the topology arrays of every other epoch of the same
    graph and owns its weight array; ``fingerprint`` carries the epoch
    counter, so segment manifests and persistence headers distinguish
    epochs of the same topology.
    """

    epoch: int
    csr: CSRGraph
    fingerprint: GraphFingerprint

    @staticmethod
    def zero(csr: CSRGraph) -> "WeightEpoch":
        """Epoch 0: the dataset's frozen metric, weights shared as-is."""
        return WeightEpoch(
            epoch=0, csr=csr, fingerprint=GraphFingerprint.of_csr(csr, epoch=0)
        )


def arc_ids(csr: CSRGraph, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """``(k, 2)`` arc positions of each undirected edge's two arcs.

    Column 0 is the ``u -> v`` arc, column 1 the ``v -> u`` arc. Raises
    ``KeyError`` for an edge that is not in the topology — dynamic
    updates reweight existing edges, they never change the topology.
    """
    indptr, indices = csr.indptr, csr.indices
    out = np.empty((len(edges), 2), dtype=np.int64)
    for i, (u, v) in enumerate(edges):
        for col, (a, b) in enumerate(((u, v), (v, u))):
            if not 0 <= a < csr.n:
                raise KeyError(f"vertex {a} is not in the graph")
            lo, hi = int(indptr[a]), int(indptr[a + 1])
            k = lo + int(np.searchsorted(indices[lo:hi], b))
            if k >= hi or int(indices[k]) != b:
                raise KeyError(f"edge ({u}, {v}) is not in the topology")
            out[i, col] = k
    return out


def validate_batch(
    csr: CSRGraph,
    edges: Sequence[tuple[int, int]],
    new_weights: Sequence[float],
) -> np.ndarray:
    """Check one update batch against the topology; returns its arc ids.

    Raises ``ValueError`` for a length mismatch or a weight that is not
    positive and finite (what :meth:`~repro.graph.graph.Graph.add_edge`
    demands at build time) and ``KeyError`` for an out-of-range vertex
    or a non-edge (see :func:`arc_ids`). Only the topology is consulted,
    so any epoch's ``csr`` gives the same verdict — which lets
    :meth:`repro.serve.QueryService.apply_updates` reject a bad batch at
    the call site, before anything is queued for the repair thread.
    """
    if len(edges) != len(new_weights):
        raise ValueError("edges and new_weights must have equal length")
    pos = arc_ids(csr, edges)
    for (u, v), w in zip(edges, new_weights):
        w = float(w)
        if not (w > 0.0 and math.isfinite(w)):
            raise ValueError(
                f"edge ({u}, {v}): weight must be positive and finite, got {w}"
            )
    return pos


def next_epoch(
    prev: WeightEpoch,
    edges: Sequence[tuple[int, int]],
    new_weights: Sequence[float],
) -> tuple[WeightEpoch, np.ndarray]:
    """Apply one update batch; returns ``(epoch, changed_arc_ids)``.

    ``changed_arc_ids`` holds the directed-arc positions whose weight
    actually moved (an "update" to the current weight is a no-op and is
    excluded), sorted ascending — the seed set for every incremental
    repair. The batch is checked by :func:`validate_batch` first.
    """
    pos = validate_batch(prev.csr, edges, new_weights)
    weights = prev.csr.weights.copy()
    weights[pos[:, 0]] = np.asarray(new_weights, dtype=np.float64)
    weights[pos[:, 1]] = np.asarray(new_weights, dtype=np.float64)
    changed = np.nonzero(weights != prev.csr.weights)[0]
    csr = CSRGraph(
        prev.csr.indptr, prev.csr.indices, weights, prev.csr.xs, prev.csr.ys
    )
    epoch = prev.epoch + 1
    return (
        WeightEpoch(
            epoch=epoch,
            csr=csr,
            fingerprint=GraphFingerprint.of_csr(csr, epoch=epoch),
        ),
        changed,
    )


def changed_endpoints(csr: CSRGraph, changed_arcs: np.ndarray) -> np.ndarray:
    """Sorted unique vertex ids touching any changed arc."""
    if len(changed_arcs) == 0:
        return np.empty(0, dtype=np.int64)
    esrc = csr.edge_sources()
    return np.unique(
        np.concatenate(
            [esrc[changed_arcs].astype(np.int64), csr.indices[changed_arcs].astype(np.int64)]
        )
    )


def reweight_graph(graph: Graph, csr: CSRGraph) -> Graph:
    """A fresh frozen :class:`Graph` carrying an epoch's weights.

    The from-scratch comparator for the differential harness: the
    weight-oblivious techniques (Dijkstra, bidirectional) and the full
    index rebuilds run on this graph exactly as they would on a dataset
    that shipped with the epoch's metric.
    """
    esrc = csr.edge_sources()
    fwd = esrc < csr.indices
    out = Graph(
        graph.xs,
        graph.ys,
        zip(
            esrc[fwd].tolist(),
            csr.indices[fwd].tolist(),
            csr.weights[fwd].tolist(),
        ),
    )
    return out.freeze()
