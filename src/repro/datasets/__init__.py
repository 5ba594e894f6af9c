"""Synthetic analogues of the paper's four evaluation datasets (Table 1).

The real datasets (uk-2007-05 WebGraph, Friendster, Memetracker, Freebase)
total hundreds of millions of nodes and are not redistributable here, so
each gets a seeded generator reproducing the *structural properties* the
evaluation depends on, at a scale an in-process simulation can sweep:

=============  ==========================  =================================
dataset        generator                    property preserved
=============  ==========================  =================================
webgraph       community graph (site-      power-law in-degree + strong
               sized preferential-          2-hop overlap between related
               attachment communities)      pages (hotspot caching works)
friendster     uniform random (Erdos-      large, tree-like 2-hop
               Renyi)                       neighbourhoods with low hotspot
                                           overlap (caching is less
                                           effective — Fig 16b)
memetracker    community graph (story-     skewed, sparse hyperlink graph
               sized communities, more     with many cross links
               cross links)
freebase       low-density R-MAT           near-forest knowledge graph
=============  ==========================  =================================

``scale=1.0`` yields graphs in the tens of thousands of nodes; the paper's
relative comparisons (which routing wins, where curves bend) are preserved
while absolute numbers shrink with the hardware.

A graph is fixed by its seed down to insertion order: node order and the
order of every out- and in-adjacency row. ``Graph.neighbors``, the CSR
builds and landmark relaxation read rows in that order, so it feeds every
simulated value. The generators draw in bulk and build adjacency in one
:meth:`~repro.graph.Graph.add_edges` pass, but consume the same random
stream as one numpy call per draw and insert edges in the same order;
``tests/test_datasets.py::TestPinnedLayouts`` pins each graph tier-1 and
``perf/`` load by sha256.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..graph import Graph, community_graph, erdos_renyi, rmat


@dataclass(frozen=True)
class DatasetInfo:
    """Row of the reproduction's Table 1."""

    name: str
    num_nodes: int
    num_edges: int
    record_bytes: int  # size of the graph in adjacency-record form


def webgraph_like(scale: float = 1.0, seed: int = 0) -> Graph:
    """UK-web-style graph: site-sized communities, strong 2-hop overlap.

    2-hop neighbourhoods are ~0.3% of the graph and queries from one
    hotspot share roughly half their neighbourhoods — the regime in which
    the paper's WebGraph results live.
    """
    _check_scale(scale)
    communities = max(10, int(200 * scale))
    return community_graph(
        communities, community_size=150, intra_degree=10, inter_degree=0.25,
        seed=seed,
    )


def friendster_like(scale: float = 1.0, seed: int = 0) -> Graph:
    """Social-network-style graph: large neighbourhoods, weak overlap.

    A high-girth uniform random graph: 2-hop neighbourhoods are ~3% of the
    graph (an order of magnitude larger, relatively, than the webgraph
    analogue) but tree-like and weakly overlapping even within a hotspot —
    reproducing Fig 16(b), where caching helps Friendster least because
    "the overlap across 2-hop neighborhoods for queries from the same
    hotspot region is lower".
    """
    _check_scale(scale)
    num_nodes = max(600, int(28_000 * scale))
    return erdos_renyi(num_nodes, num_edges=4 * num_nodes, seed=seed)


def memetracker_like(scale: float = 1.0, seed: int = 0) -> Graph:
    """News/blog hyperlink-style graph: story-sized communities with many
    cross links (stories reference each other across sites)."""
    _check_scale(scale)
    communities = max(12, int(300 * scale))
    return community_graph(
        communities, community_size=90, intra_degree=6, inter_degree=0.5,
        seed=seed,
    )


def freebase_like(scale: float = 1.0, seed: int = 0) -> Graph:
    """Knowledge-graph-style: average degree near 1 (near-forest)."""
    exponent = max(8, round(14 + _log2_scale(scale)))
    num_nodes = 1 << exponent
    return rmat(exponent, num_edges=int(0.95 * num_nodes), a=0.45, b=0.25,
                c=0.2, seed=seed)


def _check_scale(scale: float) -> None:
    if scale <= 0:
        raise ValueError("scale must be positive")


def _log2_scale(scale: float) -> float:
    _check_scale(scale)
    from math import log2

    return log2(scale)


#: Registry mapping dataset name to generator.
DATASETS: Dict[str, Callable[..., Graph]] = {
    "webgraph": webgraph_like,
    "friendster": friendster_like,
    "memetracker": memetracker_like,
    "freebase": freebase_like,
}


def load_dataset(name: str, scale: float = 1.0, seed: int = 0) -> Graph:
    """Build a dataset analogue by name."""
    try:
        generator = DATASETS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(DATASETS)}"
        ) from None
    return generator(scale=scale, seed=seed)


def dataset_info(name: str, graph: Graph) -> DatasetInfo:
    """Table 1 row for a built graph (record bytes computed exactly)."""
    from ..storage.records import record_size

    record_bytes = sum(record_size(graph, node) for node in graph.nodes())
    return DatasetInfo(
        name=name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        record_bytes=record_bytes,
    )


def dataset_table(scale: float = 1.0, seed: int = 0) -> List[DatasetInfo]:
    """Build all four analogues and return their Table 1 rows."""
    return [
        dataset_info(name, load_dataset(name, scale=scale, seed=seed))
        for name in sorted(DATASETS)
    ]


__all__ = [
    "DATASETS",
    "DatasetInfo",
    "dataset_info",
    "dataset_table",
    "freebase_like",
    "friendster_like",
    "load_dataset",
    "memetracker_like",
    "webgraph_like",
]
