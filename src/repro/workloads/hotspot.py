"""Hotspot query workloads (§4.1, Online Query Workloads).

The paper's workload: pick ``num_hotspots`` center nodes uniformly at
random; around each center pick ``queries_per_hotspot`` query nodes within
``radius`` hops (so any two nodes of one hotspot are within ``2 * radius``
hops of each other); group all of one hotspot's queries consecutively. The
queries themselves are a uniform mixture over ``mix``, whose entries name
registered query operators (default: the paper's three h-hop types;
any operator registered with a workload factory — including custom ones —
is a valid mix entry).

Every workload is a ``*_stream`` generator — the unit the session API
consumes, yielding queries lazily so a
:class:`~repro.core.service.QuerySession` can pipeline waves without ever
materialising the full workload; wrap it in ``list(...)`` to replay one
workload against several clusters. :func:`interleave` composes finite
streams into one mixed arrival order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ..core.operators import default_registry
from ..core.queries import Query, current_query_id_allocator
from ..graph.csr import CSRGraph
from ..graph.digraph import Graph

#: The paper's uniform mixture of its three h-hop types.
DEFAULT_MIX = ("aggregation", "walk", "reachability")

#: Every built-in operator, original three first (see
#: :mod:`repro.core.operators` for the catalog).
FULL_MIX = ("aggregation", "walk", "reachability", "ppr", "k_reach", "sample")


def _make_query(kind: str, node: int, hops: int, ball: np.ndarray,
                rng: np.random.Generator, query_id: int) -> Query:
    # Ids are passed explicitly: lazy streams allocate from the allocator
    # captured at stream-creation time, so a stream built inside a
    # ``query_ids_from`` scope keeps its scoped ids even when consumed
    # after the scope exits (generators run late). Construction itself is
    # the operator's registered workload factory, so ``mix`` accepts any
    # registered operator name — including ones added at runtime.
    return default_registry.make(
        kind, node=node, query_id=query_id, hops=hops, ball=ball, rng=rng,
    )


def _validate_mix(mix: Sequence[str]) -> None:
    """Reject empty or unregistered mixes eagerly (before any generation)."""
    if not mix:
        raise ValueError("query mix cannot be empty")
    for kind in mix:
        # get() raises UnknownOperatorError (a ValueError) for unknown names.
        if default_registry.get(kind).workload_factory is None:
            raise ValueError(
                f"operator {kind!r} has no workload factory; register one "
                "to use it in a mix"
            )


def _bidirected_csr(graph: Graph, csr: Optional[CSRGraph]) -> CSRGraph:
    """Reuse the caller's prebuilt bi-directed CSR view or build one."""
    if csr is None:
        csr = CSRGraph.from_graph(graph, direction="both")
    return csr


def hotspot_stream(
    graph: Graph,
    num_hotspots: int = 100,
    queries_per_hotspot: int = 10,
    radius: int = 2,
    hops: int = 2,
    mix: Sequence[str] = DEFAULT_MIX,
    seed: int = 0,
    csr: Optional[CSRGraph] = None,
) -> Iterator[Query]:
    """Stream the paper's hotspot workload over ``graph``.

    Yields ``num_hotspots * queries_per_hotspot`` queries, hotspot-grouped
    in order, one hotspot ball materialised at a time. Pass a prebuilt
    bi-directed ``csr`` to skip rebuilding it. Arguments are validated
    eagerly; generation is lazy.
    """
    if num_hotspots < 1 or queries_per_hotspot < 1:
        raise ValueError("hotspot counts must be positive")
    if radius < 0 or hops < 1:
        raise ValueError("radius must be >= 0 and hops >= 1")
    _validate_mix(mix)
    csr = _bidirected_csr(graph, csr)
    degrees = csr.degrees()
    eligible = np.flatnonzero(degrees > 0)
    if eligible.size == 0:
        raise ValueError("graph has no connected nodes to query")

    ids = current_query_id_allocator()

    def generate() -> Iterator[Query]:
        rng = np.random.default_rng(seed)
        for _ in range(num_hotspots):
            center = int(eligible[rng.integers(0, eligible.size)])
            dist = csr.bfs_distances([center], max_hops=radius)
            ball_idx = np.flatnonzero(dist >= 0)  # includes the center
            ball_ids = csr.node_ids[ball_idx]
            for i in range(queries_per_hotspot):
                query_node = int(ball_ids[rng.integers(0, ball_ids.size)])
                kind = mix[i % len(mix)]
                yield _make_query(kind, query_node, hops, ball_ids, rng,
                                  ids.allocate())

    return generate()


def uniform_stream(
    graph: Graph,
    num_queries: int = 1000,
    hops: int = 2,
    mix: Sequence[str] = DEFAULT_MIX,
    seed: int = 0,
    csr: Optional[CSRGraph] = None,
) -> Iterator[Query]:
    """Stream queries on uniformly random nodes — no locality at all."""
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    _validate_mix(mix)
    csr = _bidirected_csr(graph, csr)
    degrees = csr.degrees()
    eligible = csr.node_ids[degrees > 0]

    ids = current_query_id_allocator()

    def generate() -> Iterator[Query]:
        rng = np.random.default_rng(seed)
        for i in range(num_queries):
            node = int(eligible[rng.integers(0, eligible.size)])
            yield _make_query(mix[i % len(mix)], node, hops, eligible, rng,
                              ids.allocate())

    return generate()


def zipfian_stream(
    graph: Graph,
    num_queries: int = 1000,
    hops: int = 2,
    skew: float = 1.2,
    mix: Sequence[str] = DEFAULT_MIX,
    seed: int = 0,
    csr: Optional[CSRGraph] = None,
) -> Iterator[Query]:
    """Stream queries whose nodes follow a Zipf popularity distribution.

    Models repeat-heavy production traffic: a few nodes are queried over
    and over (where hash routing's repeat locality shines).
    """
    if num_queries < 1:
        raise ValueError("num_queries must be positive")
    if skew <= 1.0:
        raise ValueError("skew must exceed 1.0 for a proper Zipf law")
    _validate_mix(mix)
    csr = _bidirected_csr(graph, csr)
    degrees = csr.degrees()
    eligible = csr.node_ids[degrees > 0]

    ids = current_query_id_allocator()

    def generate() -> Iterator[Query]:
        rng = np.random.default_rng(seed)
        # Rank nodes in a fixed shuffled order; rank r is queried ∝ r^-skew.
        order = rng.permutation(eligible)
        for i in range(num_queries):
            rank = min(int(rng.zipf(skew)) - 1, order.size - 1)
            node = int(order[rank])
            yield _make_query(mix[i % len(mix)], node, hops, eligible, rng,
                              ids.allocate())

    return generate()


def shifting_hotspot_stream(
    graph: Graph,
    num_phases: int = 8,
    queries_per_phase: int = 120,
    radius: int = 2,
    hops: int = 2,
    mix: Sequence[str] = DEFAULT_MIX,
    hot_fraction: float = 0.9,
    skew: float = 1.1,
    seed: int = 0,
    csr: Optional[CSRGraph] = None,
) -> Iterator[Query]:
    """Stream a *shifting*-hotspot workload: one hot ball that relocates.

    The dynamic-placement benchmark's traffic shape: in each of
    ``num_phases`` phases a fresh center is drawn and ``hot_fraction`` of
    that phase's queries anchor inside its ``radius``-hop ball (the rest
    are uniform background noise). Within the ball, anchors follow a
    power law with exponent ``skew`` over a fixed per-phase ranking, so a
    few records in the current ball carry most of the load — skewed
    enough that hash partitioning leaves some storage server holding a
    disproportionate share of the *hot* records, and shifting often
    enough that no static placement (or static routing table) stays
    right for long. ``skew=0`` anchors uniformly in the ball.

    Determinism contract (same as :func:`repro.workloads.churn_stream`):
    generation reads only the initial graph/CSR snapshot and the seeded
    RNG — never live cluster state — so every scheme/service replays an
    identical stream and comparisons measure the cluster, not workload
    drift.
    """
    if num_phases < 1 or queries_per_phase < 1:
        raise ValueError("phase counts must be positive")
    if radius < 0 or hops < 1:
        raise ValueError("radius must be >= 0 and hops >= 1")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in [0, 1]")
    if skew < 0:
        raise ValueError("skew must be >= 0")
    _validate_mix(mix)
    csr = _bidirected_csr(graph, csr)
    degrees = csr.degrees()
    eligible = np.flatnonzero(degrees > 0)
    if eligible.size == 0:
        raise ValueError("graph has no connected nodes to query")
    eligible_ids = csr.node_ids[eligible]

    ids = current_query_id_allocator()

    def generate() -> Iterator[Query]:
        rng = np.random.default_rng(seed)
        count = 0
        for _phase in range(num_phases):
            center = int(eligible[rng.integers(0, eligible.size)])
            dist = csr.bfs_distances([center], max_hops=radius)
            ball_idx = np.flatnonzero(dist >= 0)  # includes the center
            ball_ids = csr.node_ids[rng.permutation(ball_idx)]
            weights = (1.0 + np.arange(ball_ids.size)) ** -skew
            cumulative = np.cumsum(weights / weights.sum())
            for _ in range(queries_per_phase):
                if rng.random() < hot_fraction:
                    rank = int(np.searchsorted(cumulative, rng.random()))
                    node = int(ball_ids[min(rank, ball_ids.size - 1)])
                    ball = ball_ids
                else:
                    node = int(
                        eligible_ids[rng.integers(0, eligible_ids.size)]
                    )
                    ball = eligible_ids
                kind = mix[count % len(mix)]
                count += 1
                yield _make_query(kind, node, hops, ball, rng,
                                  ids.allocate())

    return generate()


def interleave(
    streams: Sequence[Iterable[Query]], seed: int = 0
) -> Iterator[Query]:
    """Randomly interleave finite query streams into one arrival order.

    Each next query is drawn from a uniformly random still-live stream, so
    the mixture stays mixed to the end (round-robin would let the longest
    stream run pure once the others drain... it still does at the tail,
    but without the deterministic phase structure). Deterministic for a
    fixed ``seed``. All input streams are exhausted.
    """
    if not streams:
        raise ValueError("need at least one stream to interleave")

    def generate() -> Iterator[Query]:
        rng = np.random.default_rng(seed)
        live = [iter(stream) for stream in streams]
        while live:
            index = int(rng.integers(len(live)))
            try:
                yield next(live[index])
            except StopIteration:
                live.pop(index)

    return generate()
