"""Labeled directed graph with both in- and out-adjacency.

The paper (§2.1) models a heterogeneous network as a labeled directed graph
and stores, for every node, *both* incoming and outgoing edges so that
queries can traverse in either direction (e.g. ``founded`` implies the
reverse ``founded_by``). This class mirrors that storage decision: adjacency
is kept per direction, and ``neighbors()`` exposes the bi-directed view used
by the smart-routing preprocessing (§3.4).
"""

from __future__ import annotations

from typing import (
    Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
    ValuesView,
)

NodeId = int
Label = Optional[Hashable]


class GraphError(Exception):
    """Raised on invalid graph mutations or lookups."""


class Graph:
    """A labeled, directed graph.

    Adjacency is stored as ``{node: {neighbor: edge_label}}`` in both
    directions, which gives O(1) edge membership, deduplicated edges, and
    label storage without auxiliary structures.
    """

    def __init__(self) -> None:
        self._out: Dict[NodeId, Dict[NodeId, Label]] = {}
        self._in: Dict[NodeId, Dict[NodeId, Label]] = {}
        self._node_labels: Dict[NodeId, Hashable] = {}
        self._num_edges = 0

    # -- nodes ---------------------------------------------------------------
    def add_node(self, node: NodeId, label: Label = None) -> None:
        """Add ``node`` if absent; set its label if given."""
        if node not in self._out:
            self._out[node] = {}
            self._in[node] = {}
        if label is not None:
            self._node_labels[node] = label

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and every edge incident on it."""
        self._require(node)
        for succ in list(self._out[node]):
            self.remove_edge(node, succ)
        for pred in list(self._in[node]):
            self.remove_edge(pred, node)
        del self._out[node]
        del self._in[node]
        self._node_labels.pop(node, None)

    def has_node(self, node: NodeId) -> bool:
        return node in self._out

    def __contains__(self, node: NodeId) -> bool:
        return node in self._out

    def nodes(self) -> Iterator[NodeId]:
        return iter(self._out)

    @property
    def num_nodes(self) -> int:
        return len(self._out)

    def node_label(self, node: NodeId) -> Label:
        self._require(node)
        return self._node_labels.get(node)

    def set_node_label(self, node: NodeId, label: Hashable) -> None:
        self._require(node)
        self._node_labels[node] = label

    # -- edges ---------------------------------------------------------------
    def add_edge(self, u: NodeId, v: NodeId, label: Label = None) -> bool:
        """Add directed edge ``u -> v``; returns False if it already existed.

        Endpoints are created implicitly, matching the paper's adjacency-list
        ingestion where edges arrive as (source, target) pairs.
        """
        self.add_node(u)
        self.add_node(v)
        if v in self._out[u]:
            if label is not None:
                self._out[u][v] = label
                self._in[v][u] = label
            return False
        self._out[u][v] = label
        self._in[v][u] = label
        self._num_edges += 1
        return True

    def add_edges(self, sources: Sequence[NodeId], targets: Sequence[NodeId]) -> int:
        """Add edges ``sources[i] -> targets[i]``; returns how many were new.

        The same graph as ``add_edge(u, v)`` for each pair in order, in
        one pass: endpoints are created implicitly, ``u`` before ``v``; a
        duplicate keeps its first position (and any label). Row order is
        first-insertion order in both directions, and ``neighbors()``,
        the CSR builds and landmark relaxation read rows in that order,
        so a generator's graph is fixed by its pair order, not its set.
        """
        if len(sources) != len(targets):
            raise ValueError(f"{len(sources)} sources but {len(targets)} targets")
        out, into = self._out, self._in
        added = 0
        for u, v in zip(sources, targets, strict=True):
            row = out.get(u)
            if row is None:
                row = out[u] = {}
                into[u] = {}
            col = into.get(v)
            if col is None:
                out[v] = {}
                col = into[v] = {}
            if v not in row:
                row[v] = col[u] = None
                added += 1
        self._num_edges += added
        return added

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        if not self.has_edge(u, v):
            raise GraphError(f"no such edge: {u} -> {v}")
        del self._out[u][v]
        del self._in[v][u]
        self._num_edges -= 1

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return u in self._out and v in self._out[u]

    def edge_label(self, u: NodeId, v: NodeId) -> Label:
        if not self.has_edge(u, v):
            raise GraphError(f"no such edge: {u} -> {v}")
        return self._out[u][v]

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        for u, succs in self._out.items():
            for v in succs:
                yield (u, v)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # -- adjacency -------------------------------------------------------------
    def out_neighbors(self, node: NodeId) -> Iterable[NodeId]:
        self._require(node)
        return self._out[node].keys()

    def in_neighbors(self, node: NodeId) -> Iterable[NodeId]:
        self._require(node)
        return self._in[node].keys()

    def out_labels(self, node: NodeId) -> ValuesView[Label]:
        """Labels of ``node``'s out-edges, in :meth:`out_neighbors` order."""
        self._require(node)
        return self._out[node].values()

    def in_labels(self, node: NodeId) -> ValuesView[Label]:
        """Labels of ``node``'s in-edges, in :meth:`in_neighbors` order."""
        self._require(node)
        return self._in[node].values()

    def neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Bi-directed neighbors (out first, then in-only), deduplicated."""
        self._require(node)
        out = self._out[node]
        yield from out
        for pred in self._in[node]:
            if pred not in out:
                yield pred

    def adjacency_rows(
        self, nodes: Iterable[NodeId], direction: str
    ) -> List[Mapping[NodeId, Label]]:
        """Each node's adjacency row, keyed by neighbor, for bulk readers.

        The keys of row ``i`` are :meth:`out_neighbors`,
        :meth:`in_neighbors` or :meth:`neighbors` of ``nodes[i]`` for
        ``direction`` ``"out"``, ``"in"`` or ``"both"``, in that order.
        ``"out"`` / ``"in"`` rows are the graph's own dicts (read them,
        never write them); a ``"both"`` row is a fresh merge whose values
        are not edge labels. One dict lookup per node, no per-neighbor
        Python call: the CSR builders read whole graphs through this.
        """
        try:
            if direction == "out":
                return list(map(self._out.__getitem__, nodes))
            if direction == "in":
                return list(map(self._in.__getitem__, nodes))
            if direction == "both":
                out, into = self._out, self._in
                return [out[node] | into[node] for node in nodes]
        except KeyError as missing:
            raise GraphError(f"no such node: {missing.args[0]}") from None
        raise ValueError(f"bad direction: {direction!r}")

    def out_degree(self, node: NodeId) -> int:
        self._require(node)
        return len(self._out[node])

    def in_degree(self, node: NodeId) -> int:
        self._require(node)
        return len(self._in[node])

    def degree(self, node: NodeId) -> int:
        """Total degree (in + out), the measure used for landmark selection."""
        self._require(node)
        return len(self._out[node]) + len(self._in[node])

    # -- whole-graph operations ------------------------------------------------
    def copy(self) -> "Graph":
        """An independent copy: same nodes, edges and labels.

        Node order and every out-adjacency order are kept. In-adjacency
        is rebuilt from the out rows, in out order, so a node whose
        predecessors arrived in another order lists them differently
        than the original (and so does its bi-directed
        :meth:`neighbors` row). Simulations run on copies, so this order
        is part of their output; ``tests/test_graph_digraph.py`` pins it.
        """
        clone = Graph()
        clone._out = {node: dict(succs) for node, succs in self._out.items()}
        into: Dict[NodeId, Dict[NodeId, Label]] = {node: {} for node in self._out}
        for u, succs in self._out.items():
            for v, label in succs.items():
                into[v][u] = label
        clone._in = into
        labels = self._node_labels
        if labels:
            clone._node_labels = {
                node: labels[node] for node in self._out
                if labels.get(node) is not None
            }
        clone._num_edges = self._num_edges
        return clone

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """Induced subgraph on ``nodes`` (labels preserved)."""
        keep = set(nodes)
        sub = Graph()
        for node in keep:
            if node in self._out:
                sub.add_node(node, self._node_labels.get(node))
        for u in keep:
            if u not in self._out:
                continue
            for v, label in self._out[u].items():
                if v in keep:
                    sub.add_edge(u, v, label)
        return sub

    def _require(self, node: NodeId) -> None:
        if node not in self._out:
            raise GraphError(f"no such node: {node}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges})"
