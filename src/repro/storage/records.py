"""Adjacency-record codec: the graph's key-value representation (§2.1).

Every node is one record: key = node id, value = its outgoing and incoming
neighbor lists with optional labels (Figure 3 of the paper). Records encode
to a compact binary layout so that byte sizes — which drive cache capacity,
network transfer and storage utilization — are real numbers, not guesses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, Tuple

from ..graph.digraph import Graph

_HEADER = struct.Struct("<qII")  # node id, #out entries, #in entries
_ENTRY = struct.Struct("<qH")  # neighbor id, label byte-length


@dataclass
class AdjacencyRecord:
    """One node's stored value: out- and in-adjacency with labels."""

    node_id: int
    out_edges: List[Tuple[int, Optional[str]]] = field(default_factory=list)
    in_edges: List[Tuple[int, Optional[str]]] = field(default_factory=list)
    node_label: Optional[str] = None

    # -- codec -------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize to the compact binary layout."""
        parts = [
            _HEADER.pack(self.node_id, len(self.out_edges), len(self.in_edges))
        ]
        label_bytes = (self.node_label or "").encode("utf-8")
        parts.append(struct.pack("<H", len(label_bytes)))
        parts.append(label_bytes)
        for edges in (self.out_edges, self.in_edges):
            for neighbor, label in edges:
                encoded = (label or "").encode("utf-8")
                parts.append(_ENTRY.pack(neighbor, len(encoded)))
                parts.append(encoded)
        return b"".join(parts)


def record_for_node(graph: Graph, node: int) -> AdjacencyRecord:
    """Build the adjacency record of ``node`` from a graph."""
    out_edges = [(v, graph.edge_label(node, v)) for v in graph.out_neighbors(node)]
    in_edges = [(u, graph.edge_label(u, node)) for u in graph.in_neighbors(node)]
    label = graph.node_label(node)
    return AdjacencyRecord(
        node_id=node,
        out_edges=out_edges,
        in_edges=in_edges,
        node_label=label if isinstance(label, str) or label is None else str(label),
    )


def record_size(graph: Graph, node: int) -> int:
    """``len(record_for_node(graph, node).encode())`` without building it.

    Sizing every record is part of every service set-up and of every live
    update, so it reads the adjacency dicts directly instead of
    materialising two tuple lists per node.
    """
    out_labels, in_labels = graph.out_labels(node), graph.in_labels(node)
    size = _HEADER.size + 2 + _ENTRY.size * (len(out_labels) + len(in_labels))
    node_label = graph.node_label(node)
    if node_label is not None:
        size += len(str(node_label).encode("utf-8"))
    for label in chain(out_labels, in_labels):
        if label:
            size += len(label.encode("utf-8"))
    return size
