"""Dedicated workload streams for the extended operator families.

The generic :mod:`~repro.workloads.hotspot` streams accept any registered
operator in their ``mix``; these generators shape traffic the way each
new family is actually used in production:

* :func:`ppr_stream` — zipf-skewed seeds (PPR is recomputed for the same
  hot users over and over: recommendation refresh traffic);
* :func:`k_reach_stream` — per-query source batches drawn from one
  radius-ball (the "can my nearby contacts reach this account" shape
  where batching overlapping neighborhoods pays);
* :func:`sample_stream` — uniformly random seeds (GNN minibatch sampling
  visits training nodes in shuffled order, no locality).

Each follows the repo-wide stream contract: eager argument validation,
lazy generation, ids drawn from the allocator captured at creation time
(see :func:`repro.core.queries.current_query_id_allocator`).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from ..core.queries import (
    KSourceReachabilityQuery,
    NeighborhoodSampleQuery,
    PersonalizedPageRankQuery,
    Query,
    current_query_id_allocator,
)
from ..graph.csr import CSRGraph
from ..graph.digraph import Graph
from .hotspot import _bidirected_csr


def _eligible_nodes(graph: Graph, csr: Optional[CSRGraph]) -> tuple:
    csr = _bidirected_csr(graph, csr)
    eligible = csr.node_ids[csr.degrees() > 0]
    if eligible.size == 0:
        raise ValueError("graph has no connected nodes to query")
    return csr, eligible


def ppr_stream(
    graph: Graph,
    num_queries: int = 1000,
    walks: int = 4,
    steps: int = 4,
    restart_prob: float = 0.15,
    skew: float = 1.5,
    seed: int = 0,
    csr: Optional[CSRGraph] = None,
) -> Iterator[Query]:
    """Stream personalized-PageRank queries with zipf-skewed seed nodes."""
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    if walks < 1 or steps < 1:
        raise ValueError("walks and steps must be >= 1")
    if skew <= 1.0:
        raise ValueError("skew must exceed 1.0 for a proper Zipf law")
    _, eligible = _eligible_nodes(graph, csr)

    ids = current_query_id_allocator()

    def generate() -> Iterator[Query]:
        rng = np.random.default_rng(seed)
        order = rng.permutation(eligible)
        for _ in range(num_queries):
            rank = min(int(rng.zipf(skew)) - 1, order.size - 1)
            yield PersonalizedPageRankQuery(
                node=int(order[rank]), query_id=ids.allocate(),
                walks=walks, steps=steps, restart_prob=restart_prob,
                seed=int(rng.integers(0, 2**31)),
            )

    return generate()


def k_reach_stream(
    graph: Graph,
    num_queries: int = 500,
    num_sources: int = 4,
    hops: int = 3,
    radius: int = 2,
    seed: int = 0,
    csr: Optional[CSRGraph] = None,
) -> Iterator[Query]:
    """Stream batched k-source reachability queries with local batches.

    Each query picks a random center, materialises its ``radius``-hop
    ball, and draws ``num_sources`` sources plus the target from it — the
    overlapping-neighborhood regime where one batched traversal beats
    ``k`` independent probes.
    """
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    if not 1 <= num_sources <= 64:
        raise ValueError("num_sources must be in [1, 64]")
    if radius < 0 or hops < 1:
        raise ValueError("radius must be >= 0 and hops >= 1")
    csr, _ = _eligible_nodes(graph, csr)
    degrees = csr.degrees()
    eligible_idx = np.flatnonzero(degrees > 0)

    ids = current_query_id_allocator()

    def generate() -> Iterator[Query]:
        rng = np.random.default_rng(seed)
        for _ in range(num_queries):
            center = int(eligible_idx[rng.integers(0, eligible_idx.size)])
            dist = csr.bfs_distances([center], max_hops=radius)
            ball = csr.node_ids[np.flatnonzero(dist >= 0)]
            anchors = [
                int(ball[rng.integers(0, ball.size)])
                for _ in range(num_sources)
            ]
            target = int(ball[rng.integers(0, ball.size)])
            yield KSourceReachabilityQuery(
                node=anchors[0], query_id=ids.allocate(),
                sources=tuple(anchors[1:]), target=target, hops=hops,
            )

    return generate()


def sample_stream(
    graph: Graph,
    num_queries: int = 1000,
    fanouts: Sequence[int] = (8, 4),
    seed: int = 0,
    csr: Optional[CSRGraph] = None,
) -> Iterator[Query]:
    """Stream neighborhood-sampling queries on uniformly random seeds."""
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    fanouts = tuple(fanouts)
    if not fanouts or any(f < 1 for f in fanouts):
        raise ValueError("fanouts must be a non-empty tuple of >= 1")
    _, eligible = _eligible_nodes(graph, csr)

    ids = current_query_id_allocator()

    def generate() -> Iterator[Query]:
        rng = np.random.default_rng(seed)
        for _ in range(num_queries):
            node = int(eligible[rng.integers(0, eligible.size)])
            yield NeighborhoodSampleQuery(
                node=node, query_id=ids.allocate(), fanouts=fanouts,
                seed=int(rng.integers(0, 2**31)),
            )

    return generate()
