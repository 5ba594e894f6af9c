"""gRouting core: decoupled cluster, router, processors, smart routing,
and the open query-operator registry."""

from .admission import (
    ADMITTED,
    REJECTED,
    SHED,
    AdmissionConfig,
    AdmissionController,
    AdmissionStats,
    TenantAdmissionStats,
)
from .assets import GraphAssets
from .cache import CacheStats, ProcessorCache
from .metrics import QueryRecord, QueryStats, WorkloadReport
from .operators import (
    OperatorRegistry,
    QueryOperator,
    UnknownOperatorError,
    UnknownQueryTypeError,
    default_registry,
    gather_nodes,
)
from .placement import PlacementConfig, PlacementManager
from .processor import QueryProcessor
from .topology import ChaosEvent, ClusterTopology, TopologyConfig
from .queries import (
    QUERY_CLASSES,
    KSourceReachabilityQuery,
    NeighborAggregationQuery,
    NeighborhoodSampleQuery,
    PersonalizedPageRankQuery,
    Query,
    QueryIdAllocator,
    RandomWalkQuery,
    ReachabilityQuery,
    query_class,
    query_ids_from,
)
from .router import Router
from .service import (
    ROUTING_CHOICES,
    ClusterConfig,
    GraphService,
    QuerySession,
    run_workload,
)
from .updates import LiveUpdateManager, UpdateReport
from .routing import (
    AdaptiveRouting,
    EmbedRouting,
    HashRouting,
    LandmarkRouting,
    NextReadyRouting,
    RoutingFeedback,
    RoutingStrategy,
)

__all__ = [
    "ADMITTED",
    "REJECTED",
    "SHED",
    "AdaptiveRouting",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStats",
    "CacheStats",
    "ChaosEvent",
    "ClusterConfig",
    "ClusterTopology",
    "EmbedRouting",
    "GraphAssets",
    "GraphService",
    "HashRouting",
    "KSourceReachabilityQuery",
    "LandmarkRouting",
    "LiveUpdateManager",
    "NeighborAggregationQuery",
    "NeighborhoodSampleQuery",
    "NextReadyRouting",
    "OperatorRegistry",
    "PersonalizedPageRankQuery",
    "PlacementConfig",
    "PlacementManager",
    "ProcessorCache",
    "QUERY_CLASSES",
    "Query",
    "QueryIdAllocator",
    "QueryOperator",
    "QueryProcessor",
    "QueryRecord",
    "QuerySession",
    "QueryStats",
    "ROUTING_CHOICES",
    "RandomWalkQuery",
    "ReachabilityQuery",
    "Router",
    "RoutingFeedback",
    "RoutingStrategy",
    "TenantAdmissionStats",
    "TopologyConfig",
    "UnknownOperatorError",
    "UpdateReport",
    "UnknownQueryTypeError",
    "WorkloadReport",
    "default_registry",
    "gather_nodes",
    "query_class",
    "query_ids_from",
    "run_workload",
]
