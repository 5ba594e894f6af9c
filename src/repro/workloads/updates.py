"""Update-stream workloads: query traffic interleaved with graph churn.

Production graphs change while they serve: new accounts appear and wire
into existing communities, links form and break — and the churn lands
where the traffic is (new content is created by, and immediately queried
from, the hot regions, which stay hot). :func:`churn_stream` models
exactly that: a fixed set of hotspot balls (the paper's §4.1 workload
shape) visited round-robin over several rounds, with bursts of
:class:`~repro.graph.updates.GraphUpdate` deltas injected at each visit —
mutations targeting the visited ball — and a share of each ball's queries
anchored at the nodes churn added there earlier. Because traffic keeps
returning to the same churning regions, the freshness of their routing
info compounds: this is the regime where periodic incremental refresh
visibly beats letting staleness accumulate (the live Fig 10 experiment).

The stream yields a mixture of :class:`~repro.core.queries.Query` and
:class:`GraphUpdate` items; :meth:`repro.core.service.QuerySession.stream`
consumes it directly, applying each update burst in stream order (so a
query behind an update sees the mutated graph) while earlier queries keep
executing concurrently with the update's storage writes.

Determinism matters here more than in the static families: the
live-update benchmark replays one stream against several routing
configurations, so generation reads only the *initial* topology snapshot
(the prebuilt CSR) plus the stream's own bookkeeping — never the evolving
graph — making the emitted sequence a pure function of ``(snapshot,
seed)``.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core.queries import Query, current_query_id_allocator
from ..graph.csr import CSRGraph
from ..graph.digraph import Graph
from ..graph.updates import GraphUpdate
from .hotspot import DEFAULT_MIX, _bidirected_csr, _make_query, _validate_mix

ChurnItem = Union[Query, GraphUpdate]


def churn_stream(
    graph: Graph,
    num_hotspots: int = 25,
    rounds: int = 4,
    queries_per_visit: int = 10,
    radius: int = 2,
    hops: int = 2,
    mix: Sequence[str] = DEFAULT_MIX,
    update_every: int = 5,
    updates_per_burst: int = 3,
    new_node_prob: float = 0.5,
    remove_prob: float = 0.2,
    attach_degree: int = 3,
    query_new_prob: float = 0.35,
    seed: int = 0,
    csr: Optional[CSRGraph] = None,
) -> Iterator[ChurnItem]:
    """Stream hotspot queries interleaved with hotspot-targeted churn.

    ``num_hotspots`` balls are fixed up front; traffic cycles through
    them for ``rounds`` rounds, ``queries_per_visit`` queries per visit
    (``num_hotspots * rounds * queries_per_visit`` queries total). Every
    ``update_every`` queries within a visit — starting with the first, so
    each visit arrives with fresh churn — a burst of
    ``updates_per_burst`` mutations is emitted ahead of the next query:

    * with probability ``new_node_prob`` — a brand-new node (fresh id
      above the snapshot's maximum) wired to ``attach_degree`` nodes of
      the visited ball, alternating edge direction;
    * with probability ``remove_prob`` — removal of one edge this stream
      previously added *between originally non-adjacent endpoints*
      (streams never remove seed-graph edges — a drawn pair that was
      already adjacent in the snapshot is upserted but never marked
      removable — so every emitted removal is valid regardless of the
      replaying cluster, and the seed topology never erodes);
    * otherwise — a new edge between two distinct nodes of the ball.

    Each query anchors, with probability ``query_new_prob``, at a node
    churn previously added *to the visited ball* (new content keeps
    drawing traffic on every later visit), else at a ball node. Arguments
    are validated eagerly; generation is lazy; ids come from the
    allocator captured at creation time.
    """
    if num_hotspots < 1 or rounds < 1 or queries_per_visit < 1:
        raise ValueError("hotspot, round and visit counts must be positive")
    if radius < 0 or hops < 1:
        raise ValueError("radius must be >= 0 and hops >= 1")
    if update_every < 1:
        raise ValueError("update_every must be >= 1")
    if updates_per_burst < 1:
        raise ValueError("updates_per_burst must be >= 1")
    if attach_degree < 1:
        raise ValueError("attach_degree must be >= 1")
    if not 0.0 <= new_node_prob <= 1.0 or not 0.0 <= remove_prob <= 1.0:
        raise ValueError("probabilities must lie in [0, 1]")
    if new_node_prob + remove_prob > 1.0:
        raise ValueError("new_node_prob + remove_prob must not exceed 1")
    if not 0.0 <= query_new_prob <= 1.0:
        raise ValueError("query_new_prob must lie in [0, 1]")
    _validate_mix(mix)
    csr = _bidirected_csr(graph, csr)
    degrees = csr.degrees()
    eligible = np.flatnonzero(degrees > 0)
    if eligible.size == 0:
        raise ValueError("graph has no connected nodes to query")

    ids = current_query_id_allocator()

    def generate() -> Iterator[ChurnItem]:
        rng = np.random.default_rng(seed)
        # The hot set, fixed for the stream's lifetime (hot regions stay
        # hot), from the initial snapshot.
        balls: List[np.ndarray] = []
        for _ in range(num_hotspots):
            center = int(eligible[rng.integers(0, eligible.size)])
            dist = csr.bfs_distances([center], max_hops=radius)
            balls.append(csr.node_ids[np.flatnonzero(dist >= 0)])
        next_node = int(csr.node_ids.max()) + 1
        grown: List[List[int]] = [[] for _ in range(num_hotspots)]
        owned: Set[Tuple[int, int]] = set()  # stream-added edges still live
        removable: List[Tuple[int, int]] = []

        def claim(u: int, v: int) -> None:
            if (u, v) not in owned:
                owned.add((u, v))
                removable.append((u, v))

        def burst(ball: np.ndarray, ball_grown: List[int]) -> Iterator[GraphUpdate]:
            nonlocal next_node
            for _ in range(updates_per_burst):
                draw = rng.random()
                if draw < new_node_prob:
                    node = next_node
                    next_node += 1
                    yield GraphUpdate.add_node(node)
                    attach = min(attach_degree, int(ball.size))
                    targets = rng.choice(ball, size=attach, replace=False)
                    for j, target in enumerate(targets):
                        edge = (
                            (int(target), node) if j % 2
                            else (node, int(target))
                        )
                        yield GraphUpdate.add_edge(*edge)
                        claim(*edge)
                    ball_grown.append(node)
                elif draw < new_node_prob + remove_prob and removable:
                    pick = int(rng.integers(0, len(removable)))
                    u, v = removable.pop(pick)
                    owned.discard((u, v))
                    yield GraphUpdate.remove_edge(u, v)
                else:
                    u = int(ball[rng.integers(0, ball.size)])
                    v = int(ball[rng.integers(0, ball.size)])
                    if u == v:
                        continue  # skip degenerate self-loop draws
                    yield GraphUpdate.add_edge(u, v)
                    # Only claim (-> make removable) edges between
                    # originally non-adjacent endpoints: a pair already
                    # adjacent in the snapshot may carry a seed edge in
                    # this direction, and removing it would erode the
                    # seed topology the stream promises to preserve.
                    row = csr.neighbors_of(csr.index_of(u))
                    if not (row == csr.index_of(v)).any():
                        claim(u, v)

        for _round in range(rounds):
            for hotspot, ball in enumerate(balls):
                ball_grown = grown[hotspot]
                for i in range(queries_per_visit):
                    if i % update_every == 0:
                        yield from burst(ball, ball_grown)
                    if ball_grown and rng.random() < query_new_prob:
                        node = ball_grown[
                            int(rng.integers(0, len(ball_grown)))
                        ]
                    else:
                        node = int(ball[rng.integers(0, ball.size)])
                    yield _make_query(mix[i % len(mix)], node, hops, ball,
                                      rng, ids.allocate())

    return generate()

