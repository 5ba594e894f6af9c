"""The four fixed workloads of the perf ledger, as literals.

Every cluster config and input size the benchmark uses is written out
here (nothing is read from ``repro.bench`` or from the environment), so
the numbers in the ledger can only move when the program under test
moves. The names are fixed; later issues cite them.

A *rep* is ``GraphService.open`` -> drive the whole input ->
``session.report()`` -> aggregate -> close, on a fresh service: the
modelled caches start **empty** on every rep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import (
    AdmissionConfig,
    ChaosEvent,
    ClusterConfig,
    PlacementConfig,
    QueryIdAllocator,
    TopologyConfig,
    query_ids_from,
)
from repro.graph import GraphUpdate
from repro.workloads import (
    churn_stream,
    hotspot_stream,
    interleave,
    k_reach_stream,
    merge_arrivals,
    poisson_arrivals,
    ppr_stream,
    sample_stream,
    uniform_stream,
    zipfian_stream,
)

DATASET = "webgraph"
GRAPH_SEED = 1
FULL_SCALE = 1.0
SMOKE_SCALE = 0.05
#: ``--smoke`` divides every input count by this.
SMOKE_SHRINK = 10
#: A driver run draws several inputs from its seed, this far apart, so
#: that draw 0 of seed ``s`` is the ledger's input for ``s``.
DRAW_STRIDE = 1000

#: Simulated sojourn limit of the serving SLO; shed and rejected
#: arrivals count as misses.
SLO_LIMIT_S = 500e-6
#: Windows the worst-window p90 sojourn is taken over.
NUM_WINDOWS = 8

SLO_RATE_QPS = 200_000.0
SLO_OVERLOAD_RATE_QPS = 270_000.0
CHURN_RATE_QPS = 41_000.0


def cluster(**deltas) -> ClusterConfig:
    """The cluster literal every workload starts from (paper §4.1)."""
    return ClusterConfig(
        num_processors=7,
        num_storage_servers=4,
        num_landmarks=96,
        min_separation=3,
        dim=10,
        load_factor=20.0,
        alpha=0.5,
        embed_method="lmds",
        **deltas,
    )


@dataclass
class Inputs:
    """Generated input of one workload for one seed."""

    #: Closed loop: queries in submission order. Open loop: time-ordered
    #: ``Arrival`` items (queries and, on ``churn_failover``, updates).
    items: List[object]
    #: Operations a rep attempts: queries offered + updates emitted.
    num_queries: int
    num_updates: int
    #: query_id -> query, for the oracle sample.
    queries: Dict[int, object]
    #: Second arrival list at the overload rate (``slo_open`` only).
    overload_items: Optional[List[object]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "closed" | "open"
    why: str
    config: Callable[[Inputs], ClusterConfig]
    generate: Callable[[object, object, int, int], Inputs]
    #: Drives one session to completion; ``overload`` selects the
    #: 270k-qps arrival list on ``slo_open``.
    drive: Callable[[object, Inputs, bool], None]
    #: The graph mutates, so each rep needs a fresh copy + assets.
    mutates_graph: bool = False
    #: Chaos schedule installed after open (``churn_failover`` only).
    chaos: Optional[Callable[[Inputs], List[ChaosEvent]]] = None


def _n(count: int, shrink: int) -> int:
    return max(1, count // shrink)


def _by_id(queries) -> Dict[int, object]:
    return {query.query_id: query for query in queries}


def _stream(session, inputs: Inputs, _overload: bool) -> None:
    session.stream(inputs.items)


# -- mix_closed ---------------------------------------------------------------
def _mix_inputs(graph, csr, s: int, shrink: int) -> Inputs:
    def hotspots(hops, mix, seed):
        return hotspot_stream(
            graph, num_hotspots=_n(120, shrink), queries_per_hotspot=10,
            radius=2, hops=hops, mix=mix, seed=seed, csr=csr)

    with query_ids_from(QueryIdAllocator(start=1_000_000)):
        queries = list(interleave([
            hotspots(2, ("aggregation",), s),
            uniform_stream(graph, num_queries=_n(1500, shrink), hops=1,
                           mix=("aggregation",), seed=s + 7, csr=csr),
            zipfian_stream(graph, num_queries=_n(2700, shrink), hops=4,
                           skew=2.0, mix=("walk",), seed=s + 1, csr=csr),
            hotspots(3, ("reachability",), s + 2),
            ppr_stream(graph, num_queries=_n(1500, shrink), walks=4, steps=4,
                       skew=2.0, seed=s + 3, csr=csr),
            k_reach_stream(graph, num_queries=_n(900, shrink), num_sources=4,
                           hops=3, radius=2, seed=s + 4, csr=csr),
            sample_stream(graph, num_queries=_n(1200, shrink), fanouts=(8, 4),
                          seed=s + 5, csr=csr),
        ], seed=s + 6))
    return Inputs(queries, len(queries), 0, _by_id(queries))


MIX_CLOSED = Workload(
    name="mix_closed",
    loop="closed",
    why=("10,200-query six-operator mix, adaptive routing, 16 MiB caches "
         "(graph fits): large frontiers, multi-server fan-out, learned "
         "routing; stresses operators/gather/routing"),
    config=lambda _inputs: cluster(
        routing="adaptive", cache_capacity_bytes=16 << 20, submit_batch=64),
    generate=_mix_inputs,
    drive=_stream,
)


# -- point_cold ---------------------------------------------------------------
def _point_inputs(graph, csr, s: int, shrink: int) -> Inputs:
    with query_ids_from(QueryIdAllocator(start=2_000_000)):
        queries = list(interleave([
            uniform_stream(graph, num_queries=_n(12_000, shrink), hops=1,
                           mix=("aggregation",), seed=s, csr=csr),
            zipfian_stream(graph, num_queries=_n(12_000, shrink), hops=2,
                           skew=1.2, mix=("walk",), seed=s + 1, csr=csr),
        ], seed=s + 2))
    return Inputs(queries, len(queries), 0, _by_id(queries))


POINT_COLD = Workload(
    name="point_cold",
    loop="closed",
    why=("24,000 one/two-wave queries, hash routing, 64 KiB caches (1.6% "
         "of graph, constant LRU eviction): per-query fixed costs; "
         "bypasses routing assets and traversal batching"),
    config=lambda _inputs: cluster(
        routing="hash", cache_capacity_bytes=64 << 10, submit_batch=64),
    generate=_point_inputs,
    drive=_stream,
)


# -- slo_open -----------------------------------------------------------------
SLO_ADMISSION = AdmissionConfig(tenant_queue_limit=32)


def _slo_inputs(graph, csr, s: int, shrink: int) -> Inputs:
    analytics_each = _n(1800, shrink)
    with query_ids_from(QueryIdAllocator(start=5_000_000)):
        interactive = list(zipfian_stream(
            graph, num_queries=_n(8400, shrink), hops=1,
            mix=("aggregation", "walk"), skew=1.2, seed=s, csr=csr))
        analytics = list(interleave([
            ppr_stream(graph, num_queries=analytics_each, walks=4, steps=4,
                       seed=s + 4, csr=csr),
            k_reach_stream(graph, num_queries=analytics_each, num_sources=4,
                           hops=2, seed=s + 6, csr=csr),
        ], seed=s + 10))
    total = len(interactive) + len(analytics)

    def arrivals(rate: float) -> List[object]:
        return list(merge_arrivals(
            poisson_arrivals(interactive, rate=rate * len(interactive) / total,
                             tenant="interactive", seed=s + 18),
            poisson_arrivals(analytics, rate=rate * len(analytics) / total,
                             tenant="analytics", seed=s + 24),
        ))

    return Inputs(
        arrivals(SLO_RATE_QPS), total, 0, _by_id(interactive + analytics),
        overload_items=arrivals(SLO_OVERLOAD_RATE_QPS),
    )


def _slo_drive(session, inputs: Inputs, overload: bool) -> None:
    session.serve(inputs.overload_items if overload else inputs.items,
                  admission=SLO_ADMISSION)


SLO_OPEN = Workload(
    name="slo_open",
    loop="open",
    why=("12,000 two-tenant Poisson arrivals at a fixed 200,000 sim qps "
         "behind admission (queue limit 32), adaptive routing: per-arrival "
         "timeouts, offer/pump, DRR release, shedding"),
    config=lambda _inputs: cluster(
        routing="adaptive", cache_capacity_bytes=16 << 20),
    generate=_slo_inputs,
    drive=_slo_drive,
)


# -- churn_failover -----------------------------------------------------------
def _churn_inputs(graph, csr, s: int, shrink: int) -> Inputs:
    with query_ids_from(QueryIdAllocator(start=8_000_000)):
        items = list(churn_stream(
            graph, num_hotspots=_n(32, shrink), rounds=4,
            queries_per_visit=10, radius=2, hops=2, update_every=5,
            updates_per_burst=3, new_node_prob=0.5, remove_prob=0.2,
            attach_degree=3, query_new_prob=0.35, seed=s, csr=csr))
    queries = [item for item in items if not isinstance(item, GraphUpdate)]
    arrivals = list(poisson_arrivals(
        items, rate=CHURN_RATE_QPS, tenant="clients", seed=s + 2))
    return Inputs(arrivals, len(queries), len(items) - len(queries),
                  _by_id(queries))


def _churn_span(inputs: Inputs) -> float:
    return inputs.num_queries / CHURN_RATE_QPS


def _churn_config(inputs: Inputs) -> ClusterConfig:
    span = _churn_span(inputs)
    return cluster(
        routing="hash",
        steal=False,
        cache_capacity_bytes=8 << 10,
        topology=TopologyConfig(
            failover=True,
            replication=1,
            repair_interval_s=0.25 * span / 800,
            repair_byte_budget=2 << 10,
            retry_limit=4096,
            retry_backoff_s=20e-6,
            retry_backoff_cap_s=500e-6,
        ),
        placement=PlacementConfig(
            interval_s=span / 40,
            half_life_s=span / 16,
            heat_threshold=6,
            replicate_threshold=6,
            replicas=2,
            top_k=16,
            round_byte_budget=32 << 10,
            migrate_margin=0.5,
            release_fraction=0.1,
        ),
    )


def _churn_chaos(inputs: Inputs) -> List[ChaosEvent]:
    span = _churn_span(inputs)
    return [
        ChaosEvent(at=0.20 * span, action="fail_server", target=0),
        ChaosEvent(at=0.45 * span, action="recover_server", target=0),
        ChaosEvent(at=0.60 * span, action="add_processor"),
    ]


def _churn_drive(session, inputs: Inputs, _overload: bool) -> None:
    session.serve(inputs.items)


CHURN_FAILOVER = Workload(
    name="churn_failover",
    loop="open",
    why=("1,280 hotspot queries + ~1,930 graph updates at a fixed 41,000 "
         "sim qps, hash routing, 8 KiB caches, server kill/recover + "
         "processor join: update writes, repair and placement beside reads"),
    config=_churn_config,
    generate=_churn_inputs,
    drive=_churn_drive,
    mutates_graph=True,
    chaos=_churn_chaos,
)


WORKLOADS: Tuple[Workload, ...] = (
    MIX_CLOSED, POINT_COLD, SLO_OPEN, CHURN_FAILOVER,
)
BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
