"""The public surface, pinned: every exported name and every config knob.

Adding a name to a package ``__all__``, a field to ``ClusterConfig`` or
``AdmissionConfig``, a parameter to ``AdaptiveRouting`` or a key to its
``snapshot()`` fails here until the literal below grows by one line — which is the
point: a new name or knob should be a visible diff, and ROADMAP aim 2
asks what it lets us delete.
"""

import inspect
from dataclasses import fields

import repro
import repro.core
import repro.storage
import repro.workloads
from repro import ClusterConfig, GraphService, run_workload
from repro.core import AdaptiveRouting, AdmissionConfig
from repro.graph import ring_of_cliques
from repro.workloads import uniform_stream

REPRO = """
ChaosEvent ClusterConfig CostModel DEFAULT_COSTS ETHERNET ETHERNET_COSTS
GraphAssets GraphService GraphUpdate INFINIBAND KSourceReachabilityQuery
NeighborAggregationQuery NeighborhoodSampleQuery NetworkModel
PersonalizedPageRankQuery QueryIdAllocator QueryOperator QuerySession
RandomWalkQuery ReachabilityQuery TopologyConfig UpdateReport
WorkloadReport __version__ query_ids_from run_workload
"""

CORE = """
ADMITTED AdaptiveRouting AdmissionConfig AdmissionController
AdmissionStats CacheStats ChaosEvent ClusterConfig ClusterTopology
EmbedRouting GraphAssets GraphService HashRouting
KSourceReachabilityQuery LandmarkRouting LiveUpdateManager
NeighborAggregationQuery NeighborhoodSampleQuery NextReadyRouting
OperatorRegistry PersonalizedPageRankQuery PlacementConfig
PlacementManager ProcessorCache QUERY_CLASSES Query QueryIdAllocator
QueryOperator QueryProcessor QueryRecord QuerySession QueryStats
REJECTED ROUTING_CHOICES RandomWalkQuery ReachabilityQuery Router
RoutingFeedback RoutingStrategy SHED TenantAdmissionStats TopologyConfig
UnknownOperatorError UnknownQueryTypeError UpdateReport WorkloadReport
default_registry gather_nodes query_class query_ids_from run_workload
"""

WORKLOADS = """
Arrival DEFAULT_MIX FULL_MIX churn_stream hotspot_stream interleave
k_reach_stream merge_arrivals poisson_arrivals ppr_stream sample_stream
shifting_hotspot_stream uniform_stream zipfian_stream
"""

STORAGE = """
AdjacencyRecord HOME HeatTracker Move Placement PlacementDirectory
StorageServer StorageServerDown StorageTier UNCHANGED hash_node_id
hash_node_ids heat_by_server murmur3_32 pick_read_replica record_for_node
record_size
"""

CONFIG_FIELDS = """
num_processors num_storage_servers routing cache_capacity_bytes
cache_policy costs load_factor alpha dim num_landmarks min_separation
embed_method steal seed adaptive_epoch submit_batch
update_refresh_interval placement topology
"""


def _exported(module):
    names = list(module.__all__)
    assert len(names) == len(set(names)), "duplicate name in __all__"
    for name in names:
        assert hasattr(module, name), f"{module.__name__}.{name} is missing"
    return sorted(names)


def test_repro_exports():
    assert _exported(repro) == sorted(REPRO.split())


def test_core_exports():
    assert _exported(repro.core) == sorted(CORE.split())


def test_workloads_exports():
    assert _exported(repro.workloads) == sorted(WORKLOADS.split())


def test_storage_exports():
    assert _exported(repro.storage) == sorted(STORAGE.split())


def test_cluster_config_fields():
    # In declaration order, so a moved field shows up as well as a new one.
    assert [f.name for f in fields(ClusterConfig)] == CONFIG_FIELDS.split()


def test_admission_config_fields():
    # The one knob the workloads set; the rest are module constants.
    assert [f.name for f in fields(AdmissionConfig)] == ["tenant_queue_limit"]


ADAPTIVE_SNAPSHOT = "mode auditions committed pulls miss_ratio_ewma"


def test_adaptive_routing_parameters():
    # The service sets all three; tuning values are module constants.
    assert tuple(inspect.signature(AdaptiveRouting).parameters) == (
        "arms", "epoch", "seed",
    )


def test_adaptive_snapshot_keys():
    graph = ring_of_cliques(6, 5)
    config = ClusterConfig(
        routing="adaptive", num_processors=3, num_storage_servers=2,
        num_landmarks=6, min_separation=1, dim=3, embed_method="lmds",
    )
    with GraphService.open(graph, config) as service:
        strategy = service.strategy
        assert set(strategy.snapshot()) == set(ADAPTIVE_SNAPSHOT.split())
        with service.session() as session:
            session.stream(uniform_stream(graph, num_queries=40, seed=3))
        assert set(strategy.snapshot()) == set(ADAPTIVE_SNAPSHOT.split())


def test_run_workload_is_cold_per_call():
    graph = ring_of_cliques(6, 5)
    queries = list(uniform_stream(graph, num_queries=40, seed=3))
    config = ClusterConfig(
        routing="embed", num_processors=3, num_storage_servers=2,
        num_landmarks=6, min_separation=1, dim=3, embed_method="lmds",
    )
    first = run_workload(graph, queries, config)
    second = run_workload(graph, queries, config)
    assert first == second
    assert first.total_cache_misses() > 0
