"""Open-loop arrival processes: production traffic does not wait.

Everything up to PR 5 submits work *closed-loop*: the next wave enters the
router only when the previous one drains, so offered load can never exceed
service capacity. Production traffic from millions of users is the
opposite — arrivals are an exogenous point process that keeps coming
whether or not the cluster keeps up, and overload is a regime the system
must survive, not an impossibility. This module turns any query stream
(``hotspot_stream``, ``zipfian_stream``, the family streams, ...) into a
timed arrival stream a :meth:`~repro.core.service.QuerySession.serve`
call injects at absolute simulated timestamps:

* :func:`poisson_arrivals` — homogeneous Poisson process at ``rate``
  queries per simulated second (memoryless inter-arrival gaps, the
  classic open-loop model);
* :func:`merge_arrivals` — multiplex per-tenant streams into one
  time-ordered arrival sequence (the multi-tenant front door).

Determinism contract (the same one ``churn_stream`` honours): generation
reads only the underlying query stream and its own seeded RNG — never
live cluster state — so a seeded arrival stream replays identically
across routing schemes, admission configs and across two
``GraphService.open`` sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import isfinite
from typing import Iterable, Iterator

import numpy as np

from ..core.queries import Query

__all__ = [
    "Arrival",
    "merge_arrivals",
    "poisson_arrivals",
]


@dataclass(frozen=True)
class Arrival:
    """One open-loop arrival: ``query`` from ``tenant`` at time ``at``.

    ``at`` is an offset in simulated seconds from the moment the serving
    loop starts (sessions may open at a nonzero clock), non-decreasing
    within a stream.
    """

    at: float
    tenant: str
    query: Query


def poisson_arrivals(
    queries: Iterable[Query],
    rate: float,
    tenant: str = "default",
    seed: int = 0,
    start: float = 0.0,
) -> Iterator[Arrival]:
    """Timestamp ``queries`` as a homogeneous Poisson process.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate``; the
    stream ends when ``queries`` does. Lazy, deterministic for a fixed
    ``seed`` and query stream; changing only ``rate`` rescales the same
    arrival pattern in time (identical queries, gaps ∝ ``1/rate``), which
    is what lets an offered-load sweep replay one workload at many loads.
    """
    if not isfinite(rate) or rate <= 0:
        raise ValueError("rate must be a positive, finite "
                         f"queries-per-second value, got {rate!r}")
    if start < 0:
        raise ValueError("start must be >= 0")

    def generate() -> Iterator[Arrival]:
        rng = np.random.default_rng(seed)
        at = start
        for query in queries:
            at += rng.exponential(1.0 / rate)
            yield Arrival(at=at, tenant=tenant, query=query)

    return generate()


def merge_arrivals(*streams: Iterable[Arrival]) -> Iterator[Arrival]:
    """Multiplex per-tenant arrival streams into one time-ordered stream.

    A lazy k-way merge on ``at`` (ties break by argument position, so the
    merge is deterministic); each input must itself be time-ordered, which
    :func:`poisson_arrivals` guarantees. This is the multi-tenant
    front door: one serving loop consumes the merged stream and the
    admission layer sees every tenant's pressure at once.
    """
    if not streams:
        raise ValueError("need at least one arrival stream to merge")

    def generate() -> Iterator[Arrival]:
        iterators = [iter(stream) for stream in streams]
        heap: list = []
        for index, iterator in enumerate(iterators):
            first = next(iterator, None)
            if first is not None:
                heappush(heap, (first.at, index, first))
        while heap:
            _, index, arrival = heappop(heap)
            yield arrival
            following = next(iterators[index], None)
            if following is not None:
                heappush(heap, (following.at, index, following))

    return generate()
