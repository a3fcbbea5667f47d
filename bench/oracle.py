"""The reference the benchmark checks every answer against.

SciPy's compiled Dijkstra over the bench's *own* copy of the edge list
(and its own per-epoch weight copies), so no code under ``src/`` takes
part in deciding whether an answer is right. A distance is right at
relative error <= 1e-9; a path is right when every hop is an edge and
its weights sum to the reference distance.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

REL_TOL = 1e-9

#: Sources per SciPy call: bounds the reference table to a few MiB so
#: the oracle does not show up in the run's peak memory.
SOURCE_CHUNK = 128

Pair = tuple[int, int]


def _key(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


class Oracle:
    """Exact distances on an undirected weighted graph, per weight epoch."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]]) -> None:
        self.n = n
        triples = [(int(u), int(v), float(w)) for u, v, w in edges]
        self._u = np.array([u for u, _, _ in triples], dtype=np.int64)
        self._v = np.array([v for _, v, _ in triples], dtype=np.int64)
        self._edge_id = {_key(u, v): i for i, (u, v, _) in enumerate(triples)}
        self._weights = {0: np.array([w for _, _, w in triples], dtype=np.float64)}
        self._known: dict[int, dict[Pair, float]] = {}

    @classmethod
    def of_graph(cls, graph) -> "Oracle":
        """Copy the edge list out of one of the program's graphs."""
        return cls(graph.n, [(e.u, e.v, e.weight) for e in graph.edges()])

    def new_epoch(self, epoch: int, updates: Iterable[tuple[Pair, float]]) -> None:
        """Epoch ``epoch`` = a copy of ``epoch - 1`` with ``updates`` applied."""
        weights = self._weights[epoch - 1].copy()
        for (u, v), w in updates:
            weights[self._edge_id[_key(u, v)]] = float(w)
        self._weights[epoch] = weights

    def _matrix(self, epoch: int) -> csr_matrix:
        w = self._weights[epoch]
        rows = np.concatenate([self._u, self._v])
        cols = np.concatenate([self._v, self._u])
        return csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(self.n, self.n))

    def distances(self, pairs: Sequence[Pair], epoch: int = 0) -> np.ndarray:
        """Reference distance of every pair, searched once per epoch."""
        known = self._known.setdefault(epoch, {})
        pairs = [(int(s), int(t)) for s, t in pairs]
        todo: dict[int, list[int]] = {}
        for s, t in pairs:
            if (s, t) not in known:
                todo.setdefault(s, []).append(t)
        sources = sorted(todo)
        matrix = self._matrix(epoch) if sources else None
        for a in range(0, len(sources), SOURCE_CHUNK):
            chunk = sources[a:a + SOURCE_CHUNK]
            table = dijkstra(matrix, directed=True, indices=chunk)
            for row, s in zip(table, chunk):
                for t in todo[s]:
                    known[(s, t)] = float(row[t])
        return np.array([known[p] for p in pairs], dtype=np.float64)

    def edge_weight(self, u: int, v: int, epoch: int = 0) -> float | None:
        """Weight of edge ``{u, v}`` at ``epoch``; None when it is no edge."""
        i = self._edge_id.get(_key(int(u), int(v)))
        return None if i is None else float(self._weights[epoch][i])

    def path_ok(
        self, pair: Pair, want: float, answer, epoch: int = 0
    ) -> bool:
        """Is ``answer = (distance, vertex list | None)`` a shortest path?"""
        dist, path = answer
        if math.isinf(want):
            return math.isinf(dist) and not path
        if not path or path[0] != pair[0] or path[-1] != pair[1]:
            return False
        total = 0.0
        for a, b in zip(path, path[1:]):
            w = self.edge_weight(a, b, epoch)
            if w is None:
                return False
            total += w
        return bool(close(total, want)) and bool(close(dist, want))


def close(got, want) -> np.ndarray:
    """Elementwise ``|got - want| <= 1e-9 * |want|`` (equal infinities pass)."""
    return np.isclose(got, want, rtol=REL_TOL, atol=0.0)


def count_wrong(got: Sequence[float], want: Sequence[float]) -> int:
    """How many of ``got`` miss the reference ``want``."""
    return int(np.count_nonzero(~close(np.asarray(got, dtype=np.float64), want)))


Reply = tuple[Sequence[Pair], "Sequence[float] | None", int, "int | None"]


def count_wrong_replies(oracle: Oracle, replies: Iterable[Reply]) -> int:
    """How many served replies are wrong.

    A reply is ``(pairs, distances, admitted_epoch, served_epoch)``. It
    must carry an answer, be stamped with the epoch it was admitted
    under, and be exact on *that* epoch's weights: a distance that is
    right for another epoch is a wrong answer.
    """
    wrong = 0
    by_epoch: dict[int, list[tuple[Sequence[Pair], Sequence[float]]]] = {}
    for pairs, distances, admitted, served in replies:
        if distances is None or served != admitted:
            wrong += 1
        else:
            by_epoch.setdefault(admitted, []).append((pairs, distances))
    for epoch, items in by_epoch.items():
        want = oracle.distances([p for pairs, _ in items for p in pairs], epoch)
        offset = 0
        for pairs, got in items:
            wrong += count_wrong(got, want[offset:offset + len(pairs)]) > 0
            offset += len(pairs)
    return wrong
