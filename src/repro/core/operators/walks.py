"""Step-bounded walk operators.

``walk`` is the paper's h-step random walk with restart (§2.2), moved here
verbatim from the old monolithic ``engine.py``. ``ppr`` is the multi-walk
personalized-PageRank estimator built on the same step mechanics: many
short restarting walks from one seed node, whose visit support
approximates the node's PPR mass — the classic random-surfer Monte Carlo.
Both touch one record per step, so their cache locality is the walk path
itself (the ``walk`` cost class).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

import numpy as np

from ..metrics import QueryStats
from ..queries import PersonalizedPageRankQuery, RandomWalkQuery
from .gather import gather_nodes

if TYPE_CHECKING:  # pragma: no cover
    from ..processor import QueryProcessor


def execute_random_walk(processor: "QueryProcessor", query: RandomWalkQuery):
    """h-step random walk with restart; touches one record per step."""
    env = processor.env
    csr = processor.assets.csr_both
    stats = QueryStats()
    source = processor.assets.compact[query.node]
    rng = np.random.default_rng((query.seed, query.node))

    current = source
    path_length = 0
    restart_prob = query.restart_prob
    walk_cost = processor.costs.compute.per_walk_step
    yield from gather_nodes(
        processor, np.array([source], dtype=np.int64), stats,
        count_in_stats=False,
    )
    for _step in range(query.steps):
        row = csr.neighbors_of(current)
        if row.size == 0 or rng.random() < restart_prob:
            current = source
        else:
            current = int(row[rng.integers(0, row.size)])
            yield from gather_nodes(
                processor, np.array([current], dtype=np.int64), stats,
            )
        path_length += 1
        if walk_cost > 0:
            yield env.timeout(walk_cost)

    stats.result = path_length
    return stats


def execute_ppr(processor: "QueryProcessor",
                query: PersonalizedPageRankQuery):
    """Monte-Carlo personalized PageRank: ``walks`` restarting walks.

    Result is the support size of the visit-count estimate (how many
    distinct nodes carry PPR mass for this seed). Each step pays the
    per-step compute cost and gathers the stepped-to record, exactly like
    a single random walk — the multi-walk structure is what concentrates
    repeat visits (and therefore cache hits) around the seed.
    """
    env = processor.env
    csr = processor.assets.csr_both
    stats = QueryStats()
    source = processor.assets.compact[query.node]
    rng = np.random.default_rng((query.seed, query.node))

    yield from gather_nodes(
        processor, np.array([source], dtype=np.int64), stats,
        count_in_stats=False,
    )
    visits: Dict[int, int] = {}
    walk_cost = processor.costs.compute.per_walk_step
    for _walk in range(query.walks):
        current = source
        for _step in range(query.steps):
            row = csr.neighbors_of(current)
            if row.size == 0 or rng.random() < query.restart_prob:
                current = source
            else:
                current = int(row[rng.integers(0, row.size)])
                visits[current] = visits.get(current, 0) + 1
                yield from gather_nodes(
                    processor, np.array([current], dtype=np.int64), stats,
                )
            if walk_cost > 0:
                yield env.timeout(walk_cost)

    stats.result = len(visits)
    return stats


# -- workload factories -------------------------------------------------------
def make_walk(node: int, query_id: int, hops: int,
              ball: np.ndarray, rng: np.random.Generator) -> RandomWalkQuery:
    del ball  # walks wander; no second anchor to draw
    return RandomWalkQuery(node=node, query_id=query_id, steps=hops,
                           seed=int(rng.integers(0, 2**31)))


#: Walks per PPR query materialised by the workload factory.
PPR_FACTORY_WALKS = 4


def make_ppr(node: int, query_id: int, hops: int,
             ball: np.ndarray, rng: np.random.Generator) -> PersonalizedPageRankQuery:
    del ball
    return PersonalizedPageRankQuery(
        node=node, query_id=query_id, walks=PPR_FACTORY_WALKS,
        steps=max(1, hops), seed=int(rng.integers(0, 2**31)),
    )
