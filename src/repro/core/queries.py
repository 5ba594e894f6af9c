"""The built-in query families: the paper's three h-hop traversal types
(§2.2) plus the multi-walk / multi-anchor / sampling extensions.

Every query carries the anchor node it starts from (``node``) plus
per-type parameters; multi-anchor queries expose further anchors through
their operator's routing-key extractor (see
:mod:`repro.core.operators.registry`). Queries are frozen dataclasses so
they can be hashed, logged and replayed. This module only *defines* the
dataclasses — execution, classification and routing-key extraction are
registered per type in :mod:`repro.core.operators`, which is what keeps
the operator set open to new families.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple


class QueryIdAllocator:
    """Deterministic query-id source.

    Query ids must be unique *within a router's lifetime* (they key the
    router's in-flight bookkeeping) and deterministic across replays so
    recorded workloads compare record-for-record. A module-global counter
    gives neither: ids depend on everything constructed earlier in the
    process, and two parallel sessions generating queries interleave
    unpredictably. Instead, each stream of queries can own an allocator —
    ``start``/``stride`` carve out disjoint id lattices for parallel
    generators (e.g. session *k* of *n* uses ``start=k, stride=n``).
    """

    def __init__(self, start: int = 0, stride: int = 1) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if start < 0:
            raise ValueError("start must be >= 0")
        self._next = start
        self._stride = stride

    def allocate(self) -> int:
        value = self._next
        self._next += self._stride
        return value


#: Process-default allocator, used when no scoped allocator is active.
_default_allocator = QueryIdAllocator()
_active_allocator = _default_allocator


def _next_query_id() -> int:
    return _active_allocator.allocate()


def current_query_id_allocator() -> QueryIdAllocator:
    """The allocator active right now (for capture at creation time).

    Lazy workload generators snapshot this when they are *created*, so a
    ``*_stream`` built inside a :func:`query_ids_from` scope keeps drawing
    from that scope's allocator even when consumed after the scope exits.
    """
    return _active_allocator


@contextmanager
def query_ids_from(allocator: QueryIdAllocator) -> Iterator[QueryIdAllocator]:
    """Scope query-id allocation to ``allocator`` within the block.

    Queries constructed inside the ``with`` draw their default ids from
    ``allocator`` instead of the process-wide counter, so parallel
    workload generators get non-colliding, replay-deterministic ids::

        with query_ids_from(QueryIdAllocator(start=1, stride=2)):
            queries = list(zipfian_stream(graph, num_queries=100))  # odd ids
    """
    global _active_allocator
    previous = _active_allocator
    _active_allocator = allocator
    try:
        yield allocator
    finally:
        _active_allocator = previous


@dataclass(frozen=True)
class Query:
    """Base class: an online query anchored at ``node``."""

    node: int
    query_id: int = field(default_factory=_next_query_id)


@dataclass(frozen=True)
class NeighborAggregationQuery(Query):
    """h-hop Neighbor Aggregation: count h-hop neighbors (optionally
    only those carrying ``label``)."""

    hops: int = 2
    label: Optional[str] = None


@dataclass(frozen=True)
class RandomWalkQuery(Query):
    """h-step Random Walk with Restart from ``node``."""

    steps: int = 2
    restart_prob: float = 0.15
    seed: int = 0


@dataclass(frozen=True)
class ReachabilityQuery(Query):
    """h-hop Reachability: is ``target`` reachable from ``node``
    within ``hops`` directed hops?"""

    target: int = 0
    hops: int = 2


@dataclass(frozen=True)
class PersonalizedPageRankQuery(Query):
    """Personalized PageRank support estimate for seed ``node``.

    Monte-Carlo estimator: ``walks`` independent ``steps``-step random
    walks with restart from the seed; the visit support approximates the
    node's PPR mass distribution (the multi-walk sibling of
    :class:`RandomWalkQuery`)."""

    walks: int = 8
    steps: int = 4
    restart_prob: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.walks < 1 or self.steps < 1:
            raise ValueError("walks and steps must be >= 1")


@dataclass(frozen=True)
class KSourceReachabilityQuery(Query):
    """Batched k-source reachability: how many of the k sources —
    ``node`` plus ``sources`` — reach ``target`` within ``hops`` directed
    hops? One label-propagating BFS answers the whole batch, and the
    batch's routing key exposes *all* k anchors to the router."""

    sources: Tuple[int, ...] = ()
    target: int = 0
    hops: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        if len(self.all_sources()) > 64:
            raise ValueError(
                "at most 64 distinct sources per batch "
                "(one uint64 label bit each)"
            )

    def all_sources(self) -> Tuple[int, ...]:
        """The full deduplicated anchor set, primary anchor first."""
        seen = {self.node}
        anchors = [self.node]
        for source in self.sources:
            if source not in seen:
                seen.add(source)
                anchors.append(source)
        return tuple(anchors)


@dataclass(frozen=True)
class NeighborhoodSampleQuery(Query):
    """GNN-style layered neighborhood sample around ``node``: per layer
    ``i``, up to ``fanouts[i]`` sampled neighbors of each frontier node
    (the GraphSAGE minibatch access pattern)."""

    fanouts: Tuple[int, ...] = (10, 5)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "fanouts", tuple(self.fanouts))
        if not self.fanouts or any(f < 1 for f in self.fanouts):
            raise ValueError("fanouts must be a non-empty tuple of >= 1")


#: The query-class "traffic light" tiers used by adaptive routing and the
#: per-class metrics: cheap single-record probes, step-bounded walks, and
#: frontier-expanding traversals.
QUERY_CLASSES = ("point", "walk", "traversal")


def query_class(query: Query) -> str:
    """Coarse cost class of a query, resolved through the operator registry.

    * ``point`` — touches O(degree) records at most: 0/1-hop aggregations
      (and any unregistered query type).
    * ``walk`` — one record per step, locality limited to the walk path.
    * ``traversal`` — frontier expansion over h hops (multi-hop
      aggregations, reachability probes, neighborhood samples), the
      cache-hungry class.

    Each operator registers its class (or a callable deriving it from the
    query's parameters) — see :mod:`repro.core.operators`.
    """
    # Imported lazily: the operators package imports this module for the
    # query dataclasses, so a top-level import here would be circular.
    from .operators.registry import default_registry

    return default_registry.classify(query)
