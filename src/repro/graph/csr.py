"""Compressed-sparse-row view of a graph with vectorised traversals.

Landmark preprocessing needs |L| full breadth-first searches and the workload
generator samples thousands of h-hop neighbourhoods. Pure-Python BFS would
dominate experiment runtime, so analysis-side traversals run on a CSR array
view: numpy frontier expansion for one search, one bit-parallel sweep for
many. The simulated *cluster* never touches this class — query processors
work on adjacency records fetched from the storage tier — CSR is purely an
offline analysis accelerator.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .digraph import Graph

UNREACHED = -1


class _Pool:
    """Append-only neighbour buffer shared by the versions of one CSR.

    Entries below :attr:`used` are never rewritten, so a version's extents
    stay valid however many later versions append behind them.
    """

    __slots__ = ("data", "used")

    def __init__(self, data: np.ndarray, used: int) -> None:
        self.data = data
        self.used = used


class CSRGraph:
    """One immutable version of an extent CSR, with numpy-vectorised BFS.

    Row ``i`` is the extent ``pool[starts[i]:starts[i] + lengths[i]]``.
    A version never changes; :meth:`with_updated_rows` derives the next one in
    O(dirty rows) by appending to the shared pool, so a reader holding an
    older version keeps seeing exactly the graph it started on.

    Node ids are compacted to ``0..n-1`` in sorted order of the original
    ids; :attr:`node_ids` maps compact index back to the original id and
    :meth:`index_of` the other way.
    """

    def __init__(
        self,
        starts: np.ndarray,
        lengths: np.ndarray,
        pool: _Pool,
        node_ids: np.ndarray,
        index: dict,
        num_edges: int,
    ) -> None:
        starts.setflags(write=False)
        lengths.setflags(write=False)
        self._starts = starts
        self._lengths = lengths
        self._pool = pool
        self._data = pool.data.view()
        self._data.setflags(write=False)
        self.node_ids = node_ids
        self._index = index
        #: Number of stored adjacency entries (directed rows).
        self.num_edges = num_edges

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        direction: str = "both",
        node_ids: Optional[np.ndarray] = None,
        index: Optional[dict] = None,
    ) -> "CSRGraph":
        """Build from a :class:`Graph`.

        ``direction`` selects which adjacency goes into the rows:

        * ``"out"`` — successors only;
        * ``"in"`` — predecessors only;
        * ``"both"`` — the bi-directed view (deduplicated), which is what
          the paper's landmark and embedding preprocessing uses (§3.4.1).

        Row ``i`` lists the neighbors of ``node_ids[i]`` in the order
        :meth:`Graph.out_neighbors` / :meth:`~Graph.in_neighbors` /
        :meth:`~Graph.neighbors` yields them, as compact indices.

        ``node_ids`` fixes the compact ordering instead of the default
        sorted order — live graph updates append new nodes at the end so
        compact indices (cache keys, record-size rows) stay stable.
        ``index`` is the caller's ``{node id: compact index}`` map for
        that ordering; it is held by reference, so several views can
        share one append-only map.

        One bulk pass: the row dicts come from
        :meth:`Graph.adjacency_rows`, the lengths and the flattened
        neighbor ids from two ``fromiter`` sweeps, and the ids become
        compact indices through one ``searchsorted`` against the sorted
        ``node_ids`` — any int ids, any ``node_ids`` order.
        """
        if direction not in ("out", "in", "both"):
            raise ValueError(f"bad direction: {direction!r}")
        if node_ids is None:
            node_ids = np.array(sorted(graph.nodes()), dtype=np.int64)
        elif len(node_ids) != graph.num_nodes:
            raise ValueError(
                f"node_ids has {len(node_ids)} entries for a graph of "
                f"{graph.num_nodes} nodes"
            )
        ids = node_ids.tolist()
        if index is None:
            index = {nid: i for i, nid in enumerate(ids)}
        rows = graph.adjacency_rows(ids, direction)
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        total = int(lengths.sum())
        neighbors = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=total
        )
        order = np.argsort(node_ids, kind="stable")
        rank = np.searchsorted(node_ids, neighbors, sorter=order)
        flat = order[np.minimum(rank, max(len(ids) - 1, 0))]
        if total and not np.array_equal(node_ids[flat], neighbors):
            raise ValueError("node_ids does not list every node of the graph")
        pool = _Pool(flat.astype(np.int64, copy=False), total)
        starts = np.cumsum(lengths) - lengths
        return cls(starts, lengths, pool, node_ids, index, total)

    def with_updated_rows(
        self,
        rows: Mapping[int, Sequence[int]],
        node_ids: Optional[np.ndarray] = None,
    ) -> "CSRGraph":
        """The next version: ``rows`` replaced, new nodes appended at the end.

        ``rows`` maps compact index -> neighbor row (compact indices,
        already translated by the caller). ``node_ids``, when nodes were
        added, is :attr:`node_ids` extended by the new ids; their rows
        are empty unless ``rows`` names them. The rows are appended to
        the shared pool and only the new version's extents point at
        them: O(dirty) plus two O(nodes) memcpys, nothing proportional
        to the edge count. When the pool is full, the live rows are laid
        out canonically into a fresh pool of twice their size —
        amortised O(1) per entry appended, and a pool never holds more
        than twice what was live when it was laid out; older versions
        keep the buffer they read.
        """
        n_old = self.num_nodes
        if node_ids is None:
            node_ids = self.node_ids
        elif len(node_ids) < n_old:
            raise ValueError(
                f"node_ids has {len(node_ids)} entries, fewer than the "
                f"{n_old} nodes it must extend"
            )
        n_new = len(node_ids)
        for idx in rows:
            if not 0 <= idx < n_new:
                raise ValueError(f"row {idx} out of range for {n_new} nodes")
        for idx, nid in enumerate(node_ids[n_old:].tolist(), n_old):
            if self._index.setdefault(nid, idx) != idx:
                raise ValueError(f"node {nid} is indexed at another row")
        pad = np.zeros(n_new - n_old, dtype=np.int64)
        lengths = np.concatenate([self._lengths, pad])
        starts = self._starts
        pool = self._pool
        added = sum(map(len, rows.values()))
        if pool.used + added > len(pool.data):
            live = self._gather(np.arange(n_old))
            data = np.empty(2 * (live.size + added), dtype=np.int64)
            data[:live.size] = live
            pool = _Pool(data, live.size)
            starts = np.cumsum(self._lengths) - self._lengths
        starts = np.concatenate([starts, pad])
        num_edges = self.num_edges + added
        cursor = pool.used
        for idx, row in rows.items():
            num_edges -= int(lengths[idx])
            starts[idx] = cursor
            lengths[idx] = len(row)
            pool.data[cursor:cursor + len(row)] = row
            cursor += len(row)
        pool.used = cursor
        return CSRGraph(starts, lengths, pool, node_ids, self._index, num_edges)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def index_of(self, node_id: int) -> int:
        """Compact index of an original node id."""
        idx = self._index[node_id]
        if idx >= len(self.node_ids):  # appended by a later version
            raise KeyError(node_id)
        return idx

    def degrees(self) -> np.ndarray:
        """Row lengths (degree in the chosen direction) per compact index."""
        return self._lengths

    def degrees_of(self, frontier: np.ndarray) -> np.ndarray:
        """Row length of each frontier node (compact indices)."""
        return self._lengths[frontier]

    def neighbors_of(self, index: int) -> np.ndarray:
        """Compact-index neighbors of a compact-index node."""
        start = self._starts[index]
        return self._data[start:start + self._lengths[index]]

    def gather_neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Public alias of :meth:`_gather` for frontier expansion."""
        return self._gather(frontier)

    def _gather(self, frontier: np.ndarray) -> np.ndarray:
        """All neighbors of every frontier node, concatenated (with dups).

        A one-node frontier (every expansion from a single anchor) gets
        its row itself: a view of the pool, read-only like the pool.
        """
        if len(frontier) == 1:
            return self.neighbors_of(frontier[0])
        starts = self._starts[frontier]
        counts = self._lengths[frontier]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Vectorised multi-slice gather: for each frontier node, the range
        # [start, start+count) into the pool, laid out back to back.
        offsets = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        return self._data[np.arange(total) + offsets]

    def bfs_distances(
        self,
        sources: Iterable[int],
        max_hops: Optional[int] = None,
    ) -> np.ndarray:
        """Hop distances from ``sources`` (compact indices) to every node.

        Returns an ``int32`` array where unreached nodes hold ``-1``.
        """
        dist = np.full(self.num_nodes, UNREACHED, dtype=np.int32)
        frontier = np.unique(np.asarray(list(sources), dtype=np.int64))
        if frontier.size == 0:
            return dist
        dist[frontier] = 0
        # Marks read back in index order: the sorted, unique next frontier.
        fresh_mask = np.zeros(self.num_nodes, dtype=bool)
        hops = 0
        while frontier.size:
            if max_hops is not None and hops >= max_hops:
                break
            hops += 1
            neighbors = self._gather(frontier)
            fresh_mask[neighbors[dist[neighbors] == UNREACHED]] = True
            fresh = np.flatnonzero(fresh_mask)
            if fresh.size == 0:
                break
            fresh_mask[fresh] = False
            dist[fresh] = hops
            frontier = fresh
        return dist

    def multi_source_distances(self, sources: Sequence[int]) -> np.ndarray:
        """Hop distances from *each* of ``sources`` to every node, at once.

        Returns ``int32 (len(sources), n)``; row ``i`` equals
        ``bfs_distances([sources[i]])``. Every source owns one bit of a
        ``uint64`` label word and each level ORs, per node, the frontier
        words of the nodes that list it: ``ceil(len(sources) / 64)`` passes
        over the edges per level instead of one BFS per source (after Fan
        et al.'s batched reachability, see PAPERS.md).
        """
        n = self.num_nodes
        sources = np.asarray(sources, dtype=np.int64).reshape(-1)
        slots = np.arange(sources.size)
        words = -(-sources.size // 64)
        # The canonical edge list (pool extents are not contiguous after
        # live updates) regrouped by target: v pulls from every u naming it.
        # reduceat yields the element *at* the index for an empty segment,
        # so nodes nobody names stay out of the reduction.
        targets = self._gather(np.arange(n))
        order = np.argsort(targets, kind="stable")
        origins = np.repeat(np.arange(n), self._lengths)[order]
        indegrees = np.bincount(targets, minlength=n)
        pulling = np.flatnonzero(indegrees)
        segments = (np.cumsum(indegrees) - indegrees)[pulling]

        frontier = np.zeros((n, words), dtype=np.uint64)
        bits = np.uint64(1) << (slots % 64).astype(np.uint64)
        np.bitwise_or.at(frontier, (sources, slots // 64), bits)
        seen = frontier.copy()

        def unseen_bits() -> np.ndarray:  # (n, 64 * words); column = source
            unseen = (~seen).astype("<u8", copy=False).view(np.uint8)
            return np.unpackbits(unseen, axis=1, bitorder="little")

        # A node d hops away sits out levels 0..d-1: its count of unseen
        # levels is its distance (uint8 tally, folded before it can wrap).
        dist = np.zeros((n, 64 * words), dtype=np.int32)
        tally = np.zeros((n, 64 * words), dtype=np.uint8)
        levels = 0
        while frontier.any():
            tally += unseen_bits()
            levels += 1
            if levels % 255 == 0:
                dist += tally
                tally[:] = 0
            pulled = np.zeros_like(frontier)
            pulled[pulling] = np.bitwise_or.reduceat(
                np.take(frontier, origins, axis=0), segments, axis=0
            )
            frontier = pulled & ~seen
            seen |= frontier
        dist += tally
        dist[unseen_bits().view(bool)] = UNREACHED
        return np.ascontiguousarray(dist[:, :sources.size].T)

    def k_hop_frontiers(self, source: int, hops: int) -> List[np.ndarray]:
        """Per-hop frontiers from ``source``: ``[hop1, hop2, ...]``.

        ``source`` itself is not included; each array holds the compact
        indices first reached at that hop. This is the exact node set a
        query processor must have adjacency data for when answering an
        h-hop neighbourhood query starting at ``source``.
        """
        dist = self.bfs_distances([source], max_hops=hops)
        return [
            np.flatnonzero(dist == hop).astype(np.int64)
            for hop in range(1, hops + 1)
        ]

    def neighborhood_size(self, source: int, hops: int) -> int:
        """|N_h(source)| — nodes within ``hops`` hops, excluding the source."""
        dist = self.bfs_distances([source], max_hops=hops)
        return int(((dist > 0) & (dist <= hops)).sum())
