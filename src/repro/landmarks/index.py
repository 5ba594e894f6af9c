"""The landmark routing index: selection + distances + assignment + updates.

This is the router-resident structure behind landmark routing: the
``(n, P)`` node-to-processor distance table (O(nP) storage, §3.4.1), plus
incremental maintenance for graph updates: a new node gets distances from
its neighbors' distances (:meth:`LandmarkIndex.add_node`), and a batch of
live updates re-relaxes its dirty nodes from their neighbors
(:meth:`LandmarkIndex.refresh_nodes`). Relaxation is exact when the
neighbors' vectors are exact and an upper bound otherwise; the drift
stays until an index is built afresh (:meth:`LandmarkIndex.build`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.digraph import Graph
from .assignment import assign_landmarks_to_processors, node_processor_distances
from .distances import UNREACHABLE, LandmarkDistances
from .selection import select_landmarks


class LandmarkIndex:
    """Per-node processor distances derived from landmark BFS tables."""

    def __init__(
        self,
        node_ids: np.ndarray,
        landmark_node_ids: List[int],
        landmark_matrix: np.ndarray,
        groups: List[List[int]],
        table: np.ndarray,
    ) -> None:
        self.node_ids = node_ids
        self.landmark_node_ids = landmark_node_ids
        self.groups = groups
        self._row: Dict[int, int] = {n: i for i, n in enumerate(node_ids.tolist())}
        # Distances as float32 with +inf for "unreachable": uniform math for
        # the base matrix and incremental overlays.
        base = landmark_matrix.astype(np.float32)
        base[landmark_matrix == UNREACHABLE] = np.inf
        self._landmark_dist = base  # (L, n)
        self._table = table.astype(np.float32)  # (n, P)
        self._extra_landmark: Dict[int, np.ndarray] = {}
        self._extra_table: Dict[int, np.ndarray] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        num_processors: int,
        num_landmarks: int = 96,
        min_separation: int = 3,
        csr: Optional[CSRGraph] = None,
        distances: Optional[LandmarkDistances] = None,
    ) -> "LandmarkIndex":
        """Full preprocessing pass over ``graph``.

        Pass a prebuilt bi-directed ``csr`` to avoid rebuilding it when the
        caller already has one (benchmark harnesses reuse it heavily), and
        the ``distances`` computed over it to share one landmark table with
        an embedding (its landmarks are used; none are selected here).
        """
        if csr is None:
            csr = CSRGraph.from_graph(graph, direction="both")
        if distances is None:
            landmarks = select_landmarks(csr, num_landmarks, min_separation)
            distances = LandmarkDistances.compute(csr, landmarks)
        if not distances.landmarks:
            raise ValueError("graph yielded no usable landmarks")
        groups = assign_landmarks_to_processors(
            distances.pair_matrix(), num_processors
        )
        table = node_processor_distances(distances.matrix, groups)
        landmark_node_ids = [int(csr.node_ids[l]) for l in distances.landmarks]
        return cls(csr.node_ids, landmark_node_ids, distances.matrix, groups, table)

    # -- lookups ------------------------------------------------------------
    @property
    def num_processors(self) -> int:
        return self._table.shape[1]

    @property
    def num_landmarks(self) -> int:
        return self._landmark_dist.shape[0]

    def knows(self, node_id: int) -> bool:
        return node_id in self._row or node_id in self._extra_table

    def processor_distances(self, node_id: int) -> Optional[np.ndarray]:
        """d(u, p) for every processor, or None for unindexed nodes."""
        row = self._row.get(node_id)
        if row is not None:
            return self._table[row]
        return self._extra_table.get(node_id)

    def landmark_vector(self, node_id: int) -> Optional[np.ndarray]:
        """Distances from ``node_id`` to every landmark (inf = unreachable)."""
        row = self._row.get(node_id)
        if row is not None:
            return self._landmark_dist[:, row]
        return self._extra_landmark.get(node_id)

    def storage_bytes(self) -> int:
        """Router-side footprint: the d(u,p) table plus overlays."""
        extra = sum(v.nbytes for v in self._extra_table.values())
        return self._table.nbytes + extra

    # -- incremental maintenance ------------------------------------------------
    def _table_row_from_vector(self, vector: np.ndarray) -> np.ndarray:
        row = np.full(self.num_processors, np.inf, dtype=np.float32)
        for processor, group in enumerate(self.groups):
            if group:
                row[processor] = vector[group].min()
        return row

    def _set_vector(self, node_id: int, vector: np.ndarray) -> None:
        row = self._row.get(node_id)
        if row is not None:
            self._landmark_dist[:, row] = vector
            self._table[row] = self._table_row_from_vector(vector)
        else:
            self._extra_landmark[node_id] = vector
            self._extra_table[node_id] = self._table_row_from_vector(vector)

    def _landmark_rows(self) -> Dict[int, int]:
        return {node: row for row, node in enumerate(self.landmark_node_ids)}

    def _relaxed_vector(self, neighbor_ids: Iterable[int]) -> np.ndarray:
        """1 + elementwise-min over known neighbors' landmark vectors."""
        vector = np.full(self.num_landmarks, np.inf, dtype=np.float32)
        for neighbor in neighbor_ids:
            neighbor_vec = self.landmark_vector(neighbor)
            if neighbor_vec is not None:
                np.minimum(vector, neighbor_vec + 1.0, out=vector)
        return vector

    def add_node(self, node_id: int, neighbor_ids: Iterable[int]) -> None:
        """Index a newly added node from its (already indexed) neighbors.

        The paper computes the new node's distance to every landmark; we
        realise that with one relaxation step — exact when the neighbors'
        vectors are exact, an upper bound otherwise.
        """
        if self.knows(node_id):
            raise ValueError(f"node {node_id} already indexed")
        self._set_vector(node_id, self._relaxed_vector(neighbor_ids))

    def refresh_nodes(self, graph: Graph, node_ids: Iterable[int]) -> int:
        """Batched incremental re-assignment of a dirty region.

        Live updates mark the nodes whose adjacency changed; this
        recomputes each one's landmark vector by neighbor relaxation over
        the *current* graph — ``d(u, L) = 1 + min over neighbors`` is exact
        when the neighbors' vectors are exact, an upper bound otherwise —
        in two passes so improvements propagate across the patch (new
        nodes chained to other new nodes resolve on the second pass).
        No minimum with the old vector is taken: the batch may contain
        deletions, after which the old vector is not a valid bound. A
        node whose relaxation yields no information (every neighbor
        unknown) keeps its previous vector — stale information beats
        none, and only a fresh :meth:`build` clears the drift. Returns
        how many nodes were refreshed.
        """
        nodes = sorted(n for n in set(node_ids) if n in graph)
        if not nodes:
            return 0
        landmark_rows = self._landmark_rows()
        refreshed = 0
        for sweep in range(2):
            for node in nodes:
                vector = self._relaxed_vector(graph.neighbors(node))
                row = landmark_rows.get(node)
                if row is not None:
                    vector[row] = 0.0
                elif not np.isfinite(vector).any():
                    if self.landmark_vector(node) is not None:
                        continue  # keep the stale-but-informative vector
                self._set_vector(node, vector)
                if sweep == 0:
                    refreshed += 1
        return refreshed

    def reassign_processors(
        self, num_processors: int, alive: Sequence[bool]
    ) -> int:
        """Rebalance landmark groups across an elastic processing tier.

        A joiner receives an equal share of landmarks (popped from the
        largest surviving groups); a leaver's landmarks spread over the
        survivors. The d(u, p) table is recomputed from the stored
        landmark distances — no BFS re-runs — and only nodes whose
        nearest *alive* group changed move, which is the bounded-movement
        property the elastic-topology layer reports. Returns that moved
        count (over the base table; overlay nodes are recomputed too).
        """
        if num_processors < len(self.groups):
            raise ValueError("processor ids are never reused; the count "
                             "cannot shrink (removed ones stay dead)")
        groups = [list(group) for group in self.groups]
        groups.extend([] for _ in range(num_processors - len(groups)))
        alive_ids = [p for p in range(num_processors) if alive[p]]
        if alive_ids:
            pool: List[int] = []
            for processor in range(num_processors):
                if not alive[processor] and groups[processor]:
                    pool.extend(groups[processor])
                    groups[processor] = []
            total = sum(len(group) for group in groups) + len(pool)
            ceil_share = -(-total // len(alive_ids))
            for processor in alive_ids:
                while len(groups[processor]) > ceil_share:
                    pool.append(groups[processor].pop())
            for landmark in sorted(pool):
                target = min(
                    alive_ids, key=lambda p: (len(groups[p]), p)
                )
                groups[target].append(landmark)
        old_table = self._table
        table = np.full(
            (old_table.shape[0], num_processors), np.inf, dtype=np.float32
        )
        for processor, group in enumerate(groups):
            if group:
                table[:, processor] = self._landmark_dist[group].min(axis=0)
        padded = np.full_like(table, np.inf)
        padded[:, : old_table.shape[1]] = old_table
        masked = table
        dead = [p for p in range(num_processors) if not alive[p]]
        if dead:
            padded[:, dead] = np.inf
            masked = table.copy()
            masked[:, dead] = np.inf
        moved = int(
            (np.argmin(padded, axis=1) != np.argmin(masked, axis=1)).sum()
        )
        self.groups = groups
        self._table = table
        for node, vector in self._extra_landmark.items():
            self._extra_table[node] = self._table_row_from_vector(vector)
        return moved

    def clone(self) -> "LandmarkIndex":
        """Independent copy (shared immutable node ids, copied tables).

        Live-update experiments run several services against identical
        starting preprocessing; cloning the index is a memcpy, while
        rebuilding it re-runs the landmark BFS sweep.
        """
        copy = LandmarkIndex(
            self.node_ids,
            list(self.landmark_node_ids),
            self._landmark_dist,
            [list(group) for group in self.groups],
            self._table,
        )
        # The constructor re-derives float32/inf forms; hand it the
        # already-converted arrays as fresh copies instead.
        copy._landmark_dist = self._landmark_dist.copy()
        copy._table = self._table.copy()
        copy._extra_landmark = {
            node: vec.copy() for node, vec in self._extra_landmark.items()
        }
        copy._extra_table = {
            node: vec.copy() for node, vec in self._extra_table.items()
        }
        return copy
