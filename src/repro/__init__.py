"""gRouting reproduction: smart query routing for distributed graph
querying with decoupled storage.

Public API tour
---------------
- :mod:`repro.graph` — graph model, generators, traversal.
- :mod:`repro.datasets` — the four synthetic dataset analogues.
- :mod:`repro.workloads` — hotspot query workload generator (§4.1).
- :mod:`repro.core` — the decoupled cluster: storage tier, processors with
  caches, router with next-ready / hash / landmark / embed routing.
- :mod:`repro.baselines` — SEDGE/Giraph-like and PowerGraph-like coupled
  systems for Figure 7 comparisons.
- :mod:`repro.bench` — the per-figure/table experiment harness.

Quickstart::

    from repro import ClusterConfig, GraphService
    from repro.datasets import memetracker_like
    from repro.workloads import hotspot_stream

    graph = memetracker_like(scale=0.3, seed=1)
    with GraphService.open(graph, ClusterConfig(routing="adaptive")) as service:
        with service.session() as session:
            session.stream(hotspot_stream(graph, num_hotspots=20))
            print(session.report().summary())
        # caches stay warm: the next session continues where this left off

:func:`run_workload` is the one-shot form (open, one session, report,
close): the cold-cache run the paper's figures are defined over.
"""

from .core import (
    ChaosEvent,
    ClusterConfig,
    GraphAssets,
    GraphService,
    KSourceReachabilityQuery,
    NeighborAggregationQuery,
    NeighborhoodSampleQuery,
    PersonalizedPageRankQuery,
    QueryIdAllocator,
    QueryOperator,
    QuerySession,
    RandomWalkQuery,
    ReachabilityQuery,
    TopologyConfig,
    UpdateReport,
    WorkloadReport,
    query_ids_from,
    run_workload,
)
from .costs import (
    DEFAULT_COSTS,
    ETHERNET,
    ETHERNET_COSTS,
    INFINIBAND,
    CostModel,
    NetworkModel,
)
from .graph import GraphUpdate

__version__ = "1.18.0"

__all__ = [
    "ChaosEvent",
    "ClusterConfig",
    "CostModel",
    "DEFAULT_COSTS",
    "ETHERNET",
    "ETHERNET_COSTS",
    "GraphAssets",
    "GraphService",
    "GraphUpdate",
    "INFINIBAND",
    "KSourceReachabilityQuery",
    "NeighborAggregationQuery",
    "NeighborhoodSampleQuery",
    "NetworkModel",
    "PersonalizedPageRankQuery",
    "QueryIdAllocator",
    "QueryOperator",
    "QuerySession",
    "RandomWalkQuery",
    "ReachabilityQuery",
    "TopologyConfig",
    "UpdateReport",
    "WorkloadReport",
    "query_ids_from",
    "run_workload",
    "__version__",
]
