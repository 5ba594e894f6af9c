"""Frontier-expanding traversal operators.

``aggregation`` and ``reachability`` are the paper's h-hop traversal types
(§2.2), moved here verbatim from the old monolithic ``engine.py``.
``k_reach`` is the batched multi-source variant motivated by distributed
reachability work (Fan et al.): one label-propagating BFS answers "which
of these k sources reach the target?" for the whole batch, touching the
union of the k neighborhoods once instead of k times.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..metrics import QueryStats
from ..queries import (
    KSourceReachabilityQuery,
    NeighborAggregationQuery,
    ReachabilityQuery,
)
from .gather import gather_nodes

if TYPE_CHECKING:  # pragma: no cover
    from ..processor import QueryProcessor


def execute_aggregation(processor: "QueryProcessor",
                        query: NeighborAggregationQuery):
    """h-hop neighbor aggregation: fetch every record within h hops."""
    env = processor.env
    csr = processor.assets.csr_both
    stats = QueryStats()
    source = processor.assets.compact[query.node]

    visited = np.zeros(csr.num_nodes, dtype=bool)
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    yield from gather_nodes(processor, frontier, stats,
                            count_in_stats=False)

    total = 0
    for _hop in range(query.hops):
        neighbors = csr.gather_neighbors(frontier)
        if neighbors.size == 0:
            break
        fresh = np.unique(neighbors[~visited[neighbors]])
        if fresh.size == 0:
            break
        visited[fresh] = True
        total += int(fresh.size)
        yield from gather_nodes(processor, fresh, stats)
        compute = processor.costs.compute.per_node * fresh.size
        if compute > 0:
            yield env.timeout(compute)
        frontier = fresh

    stats.result = total
    return stats


def execute_reachability(processor: "QueryProcessor",
                         query: ReachabilityQuery):
    """h-hop reachability via bidirectional BFS (forward out / backward in)."""
    env = processor.env
    assets = processor.assets
    stats = QueryStats()
    source = assets.compact[query.node]
    target = assets.compact.get(query.target)
    if target is None:
        stats.result = False
        return stats
    if source == target:
        stats.result = True
        return stats

    csr_out, csr_in = assets.csr_out, assets.csr_in
    n = csr_out.num_nodes
    fwd_visited = np.zeros(n, dtype=bool)
    bwd_visited = np.zeros(n, dtype=bool)
    fwd_visited[source] = True
    bwd_visited[target] = True
    fwd_frontier = np.array([source], dtype=np.int64)
    bwd_frontier = np.array([target], dtype=np.int64)

    forward_budget = (query.hops + 1) // 2
    backward_budget = query.hops // 2
    found = False

    yield from gather_nodes(processor, fwd_frontier, stats,
                            count_in_stats=False)
    yield from gather_nodes(processor, bwd_frontier, stats)

    while (forward_budget or backward_budget) and not found:
        # Expand the cheaper side first (classic bidirectional heuristic).
        expand_forward = forward_budget > 0 and (
            backward_budget == 0 or fwd_frontier.size <= bwd_frontier.size
        )
        if expand_forward:
            csr, frontier, visited, other = (
                csr_out, fwd_frontier, fwd_visited, bwd_visited,
            )
            forward_budget -= 1
        else:
            csr, frontier, visited, other = (
                csr_in, bwd_frontier, bwd_visited, fwd_visited,
            )
            backward_budget -= 1

        neighbors = csr.gather_neighbors(frontier)
        fresh = (
            np.unique(neighbors[~visited[neighbors]])
            if neighbors.size
            else np.empty(0, dtype=np.int64)
        )
        if fresh.size:
            visited[fresh] = True
            if other[fresh].any():
                found = True
            yield from gather_nodes(processor, fresh, stats)
            compute = processor.costs.compute.per_node * fresh.size
            if compute > 0:
                yield env.timeout(compute)
        if expand_forward:
            fwd_frontier = fresh
        else:
            bwd_frontier = fresh
        if fresh.size == 0 and (
            (expand_forward and backward_budget == 0)
            or (not expand_forward and forward_budget == 0)
        ):
            break

    stats.result = found
    return stats


def execute_k_source_reachability(processor: "QueryProcessor",
                                  query: KSourceReachabilityQuery):
    """Batched k-source reachability via uint64 label propagation.

    Every source owns one label bit; a forward BFS over the out-adjacency
    ORs labels along edges for ``hops`` levels. Each node's record is
    fetched once — when the traversal first reaches it — so the batch
    shares the overlapping parts of the k neighborhoods instead of
    re-fetching them per source. The result is how many of the k sources
    reach ``target`` within ``hops`` directed hops.
    """
    env = processor.env
    assets = processor.assets
    stats = QueryStats()
    csr = assets.csr_out
    sources = [
        idx for idx in (
            assets.compact.get(node) for node in query.all_sources()
        ) if idx is not None
    ]
    target = assets.compact.get(query.target)
    if not sources or target is None:
        stats.result = 0
        return stats

    labels = np.zeros(csr.num_nodes, dtype=np.uint64)
    for bit, src in enumerate(sources):
        labels[src] |= np.uint64(1 << bit)
    full = np.uint64((1 << len(sources)) - 1)
    visited = np.zeros(csr.num_nodes, dtype=bool)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    visited[frontier] = True
    yield from gather_nodes(processor, frontier, stats,
                            count_in_stats=False)

    for _hop in range(query.hops):
        if labels[target] == full:
            break  # every source already reaches the target
        # Propagate from a snapshot of the hop-start labels: updating in
        # place would let a bit travel two edges in one hop (a frontier
        # node enriched earlier in the same sweep re-propagates the new
        # bits), overstating reachability.
        hop_labels = labels[frontier].copy()
        changed = []
        for u, u_labels in zip(frontier, hop_labels, strict=True):
            row = csr.neighbors_of(int(u))
            if row.size == 0:
                continue
            merged = labels[row] | u_labels
            updates = merged != labels[row]
            if updates.any():
                touched = row[updates]
                labels[touched] = merged[updates]
                changed.append(touched)
        if not changed:
            break
        frontier = np.unique(np.concatenate(changed))
        fresh = frontier[~visited[frontier]]
        if fresh.size:
            visited[fresh] = True
            yield from gather_nodes(processor, fresh, stats)
        compute = processor.costs.compute.per_node * frontier.size
        if compute > 0:
            yield env.timeout(compute)

    stats.result = int(bin(int(labels[target])).count("1"))
    return stats


# -- workload factories -------------------------------------------------------
def make_aggregation(node: int, query_id: int, hops: int,
                     ball: np.ndarray, rng: np.random.Generator) -> "NeighborAggregationQuery":
    del ball, rng  # single-anchor, parameter-free beyond depth
    return NeighborAggregationQuery(node=node, query_id=query_id, hops=hops)


def make_reachability(node: int, query_id: int, hops: int,
                      ball: np.ndarray, rng: np.random.Generator) -> "ReachabilityQuery":
    # Target drawn from the same hotspot ball: realistic "is my nearby
    # contact reachable" probes that keep the traversal local.
    target = int(ball[rng.integers(0, len(ball))])
    return ReachabilityQuery(node=node, query_id=query_id,
                             target=target, hops=hops)


#: Additional sources batched with ``node`` by the k_reach factory.
K_REACH_EXTRA_SOURCES = 3


def make_k_source_reachability(
    node: int, query_id: int, hops: int,
    ball: np.ndarray, rng: np.random.Generator,
) -> "KSourceReachabilityQuery":
    # Batch nearby anchors (same ball) so the k traversals overlap — the
    # regime where batching beats k independent probes.
    extras = tuple(
        int(ball[rng.integers(0, len(ball))])
        for _ in range(K_REACH_EXTRA_SOURCES)
    )
    target = int(ball[rng.integers(0, len(ball))])
    return KSourceReachabilityQuery(node=node, query_id=query_id,
                                    sources=extras, target=target, hops=hops)
