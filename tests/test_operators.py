"""Operator registry + the three new query families.

Covers the tentpole surfaces: registry registration/lookup/errors, the
registry-driven engine dispatch (including the catalog-listing error for
unregistered types), multi-source routing keys in every strategy, and
ground-truth correctness of the ppr / k_reach / sample executors."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro import ClusterConfig, GraphAssets, run_workload
from repro.core import (
    KSourceReachabilityQuery,
    NeighborAggregationQuery,
    NeighborhoodSampleQuery,
    PersonalizedPageRankQuery,
    Query,
    QueryStats,
    default_registry,
    gather_nodes,
    query_class,
)
from repro.core.operators import (
    OperatorRegistry,
    QueryOperator,
    UnknownOperatorError,
    UnknownQueryTypeError,
    routing_keys,
)
from repro.core.routing.hashing import HashRouting
from repro.core.routing.landmark import LandmarkRouting
from repro.graph import (
    bidirectional_reachability,
    erdos_renyi,
    k_hop_neighborhood,
    ring_of_cliques,
)
from repro.workloads import (
    interleave,
    k_reach_stream,
    ppr_stream,
    sample_stream,
)


@pytest.fixture(scope="module")
def random_graph():
    return erdos_renyi(300, 1200, seed=7)


@pytest.fixture(scope="module")
def random_assets(random_graph):
    return GraphAssets(random_graph)


def _run_single(graph, assets, query, **config_kwargs):
    params = dict(
        num_processors=2,
        num_storage_servers=2,
        routing="hash",
        cache_capacity_bytes=1 << 20,
    )
    params.update(config_kwargs)
    config = ClusterConfig(**params)
    report = run_workload(graph, [query], config, assets=assets)
    assert len(report.records) == 1
    return report.records[0]


# -- registry mechanics -------------------------------------------------------
@dataclass(frozen=True)
class _ToyQuery(Query):
    pass


def _toy_executor(processor, query):
    stats = QueryStats()
    yield processor.env.process(gather_nodes(
        processor,
        np.array([processor.assets.compact[query.node]], dtype=np.int64),
        stats,
    ))
    stats.result = "toy"
    return stats


def _toy_operator(**overrides):
    params = dict(
        name="toy",
        query_type=_ToyQuery,
        executor=_toy_executor,
        cost_class="point",
    )
    params.update(overrides)
    return QueryOperator(**params)


class TestRegistry:
    def test_builtin_catalog(self):
        assert default_registry.names() == (
            "aggregation", "walk", "reachability", "ppr", "k_reach", "sample",
        )

    def test_register_lookup_unregister(self):
        registry = OperatorRegistry()
        registry.register(_toy_operator())
        assert registry.names() == ("toy",)
        assert registry.get("toy").query_type is _ToyQuery
        assert registry.for_query(_ToyQuery(node=1)).name == "toy"
        assert registry.classify(_ToyQuery(node=1)) == "point"
        registry.unregister("toy")
        assert registry.names() == ()

    def test_duplicate_name_and_type_rejected(self):
        registry = OperatorRegistry()
        registry.register(_toy_operator())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(_toy_operator())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(_toy_operator(name="toy2"))
        # replace=True swaps both keys without leaving stale entries.
        registry.register(_toy_operator(name="toy2", cost_class="walk"),
                          replace=True)
        assert registry.names() == ("toy2",)
        assert registry.classify(_ToyQuery(node=0)) == "walk"

    def test_invalid_registrations_rejected(self):
        registry = OperatorRegistry()
        with pytest.raises(ValueError, match="non-empty"):
            registry.register(_toy_operator(name=""))
        with pytest.raises(ValueError, match="cost_class"):
            registry.register(_toy_operator(cost_class="epic"))
        with pytest.raises(ValueError, match="Query subclass"):
            registry.register(_toy_operator(query_type=int))

    def test_unknown_name_error_lists_catalog(self):
        with pytest.raises(UnknownOperatorError) as excinfo:
            default_registry.get("teleport")
        message = str(excinfo.value)
        for name in default_registry.names():
            assert name in message
        assert isinstance(excinfo.value, ValueError)

    def test_unknown_query_type_error_lists_catalog(self):
        with pytest.raises(UnknownQueryTypeError) as excinfo:
            default_registry.for_query(_ToyQuery(node=0))
        message = str(excinfo.value)
        assert "_ToyQuery" in message
        for name in default_registry.names():
            assert name in message
        assert isinstance(excinfo.value, TypeError)

    def test_subclass_resolves_through_mro(self):
        @dataclass(frozen=True)
        class DeeperAggregation(NeighborAggregationQuery):
            pass

        operator = default_registry.for_query(DeeperAggregation(node=0, hops=3))
        assert operator.name == "aggregation"
        assert query_class(DeeperAggregation(node=0, hops=3)) == "traversal"

    def test_classify_falls_back_to_point(self):
        assert query_class(_ToyQuery(node=5)) == "point"

    def test_routing_keys_default_and_custom(self):
        assert routing_keys(NeighborAggregationQuery(node=9)) == (9,)
        query = KSourceReachabilityQuery(node=3, sources=(8, 5), target=1)
        assert routing_keys(query) == (3, 8, 5)
        # Unregistered types fall back to the single classic anchor.
        assert routing_keys(_ToyQuery(node=4)) == (4,)

    def test_custom_operator_runs_through_cluster(self, random_graph,
                                                  random_assets):
        default_registry.register(_toy_operator())
        try:
            record = _run_single(random_graph, random_assets,
                                 _ToyQuery(node=10))
            assert record.stats.result == "toy"
            assert record.operator == "toy"
            assert record.query_class == "point"
        finally:
            default_registry.unregister("toy")

    def test_unregistered_query_fails_at_submit(self, random_graph,
                                                random_assets):
        # The registry-driven error path: synchronous, catalog-listing —
        # not the old opaque simulation deadlock.
        with pytest.raises(UnknownQueryTypeError, match="aggregation"):
            _run_single(random_graph, random_assets, _ToyQuery(node=0))


# -- query dataclass validation -----------------------------------------------
class TestNewQueryValidation:
    def test_ppr_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            PersonalizedPageRankQuery(node=0, walks=0)
        with pytest.raises(ValueError):
            PersonalizedPageRankQuery(node=0, steps=0)

    def test_k_reach_all_sources_dedupes_primary_first(self):
        query = KSourceReachabilityQuery(node=3, sources=(5, 3, 5, 8),
                                         target=1)
        assert query.all_sources() == (3, 5, 8)

    def test_k_reach_accepts_list_sources(self):
        query = KSourceReachabilityQuery(node=3, sources=[5, 8], target=1)
        assert query.sources == (5, 8)
        assert hash(query)  # still hashable after normalisation

    def test_k_reach_rejects_over_64_sources(self):
        with pytest.raises(ValueError, match="64"):
            KSourceReachabilityQuery(node=0, sources=tuple(range(1, 65)),
                                     target=1)

    def test_sample_rejects_bad_fanouts(self):
        with pytest.raises(ValueError):
            NeighborhoodSampleQuery(node=0, fanouts=())
        with pytest.raises(ValueError):
            NeighborhoodSampleQuery(node=0, fanouts=(4, 0))

    def test_sample_accepts_list_fanouts(self):
        query = NeighborhoodSampleQuery(node=0, fanouts=[4, 2])
        assert query.fanouts == (4, 2)
        assert hash(query)


# -- executor correctness -----------------------------------------------------
class TestPPRCorrectness:
    def test_support_bounded_and_deterministic(self, random_graph,
                                               random_assets):
        query = PersonalizedPageRankQuery(node=13, walks=4, steps=5, seed=3)
        first = _run_single(random_graph, random_assets, query)
        again = _run_single(random_graph, random_assets, query)
        assert first.stats.result == again.stats.result
        assert 0 < first.stats.result <= 4 * 5
        # Every step's record is probed: touches <= walks * steps.
        assert first.stats.nodes_touched <= 4 * 5

    def test_restart_prob_one_never_leaves_seed(self, random_graph,
                                                random_assets):
        record = _run_single(
            random_graph, random_assets,
            PersonalizedPageRankQuery(node=13, walks=3, steps=4,
                                      restart_prob=1.0, seed=1),
        )
        assert record.stats.result == 0
        assert record.stats.nodes_touched == 0

    def test_multi_walk_revisits_hit_cache(self, random_graph, random_assets):
        # Many walks from one seed revisit the same neighborhood: hits.
        record = _run_single(
            random_graph, random_assets,
            PersonalizedPageRankQuery(node=13, walks=16, steps=6, seed=2),
            num_processors=1,
        )
        assert record.stats.cache_hits > 0


class TestKSourceReachabilityCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_source_ground_truth(self, random_graph,
                                             random_assets, seed):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            anchors = [int(n) for n in rng.choice(300, size=4, replace=False)]
            target = int(rng.integers(0, 300))
            hops = int(rng.integers(1, 5))
            query = KSourceReachabilityQuery(
                node=anchors[0], sources=tuple(anchors[1:]),
                target=target, hops=hops,
            )
            record = _run_single(random_graph, random_assets, query)
            expected = sum(
                bidirectional_reachability(random_graph, s, target, hops)
                for s in query.all_sources()
            )
            assert record.stats.result == expected, (anchors, target, hops)

    def test_missing_target_reaches_zero(self, random_graph, random_assets):
        record = _run_single(
            random_graph, random_assets,
            KSourceReachabilityQuery(node=1, sources=(2,), target=999999,
                                     hops=3),
        )
        assert record.stats.result == 0

    def test_target_among_sources_counts_itself(self, random_graph,
                                                random_assets):
        record = _run_single(
            random_graph, random_assets,
            KSourceReachabilityQuery(node=7, sources=(7,), target=7, hops=1),
        )
        assert record.stats.result == 1

    def test_batch_touches_union_not_sum(self):
        # Overlapping sources (one clique) share their frontier records:
        # the batch touches the union once, well under k independent BFS.
        graph = ring_of_cliques(6, 6)
        assets = GraphAssets(graph)
        batched = _run_single(
            graph, assets,
            KSourceReachabilityQuery(node=0, sources=(1, 2, 3), target=13,
                                     hops=3),
            num_processors=1,
        )
        singles = sum(
            _run_single(
                graph, assets,
                KSourceReachabilityQuery(node=s, target=13, hops=3),
                num_processors=1,
            ).stats.nodes_touched
            for s in (0, 1, 2, 3)
        )
        assert batched.stats.nodes_touched < singles


class TestNeighborhoodSampleCorrectness:
    def test_unbounded_fanout_equals_full_neighborhood(self, random_graph,
                                                       random_assets):
        # Fanouts larger than any degree degrade to exact BFS layers.
        huge = 10 ** 6
        for node, layers in ((13, 1), (77, 2)):
            record = _run_single(
                random_graph, random_assets,
                NeighborhoodSampleQuery(node=node, fanouts=(huge,) * layers,
                                        seed=5),
            )
            expected = len(
                k_hop_neighborhood(random_graph, node, layers, "both")
            )
            assert record.stats.result == expected

    def test_sample_is_bounded_by_fanout_budget(self, random_graph,
                                                random_assets):
        record = _run_single(
            random_graph, random_assets,
            NeighborhoodSampleQuery(node=13, fanouts=(3, 2), seed=1),
        )
        # Layer 1 <= 3 nodes; layer 2 <= 3 * 2 nodes.
        assert 0 < record.stats.result <= 3 + 3 * 2
        assert record.stats.result <= record.stats.nodes_touched + 3 + 6

    def test_deterministic_per_seed(self, random_graph, random_assets):
        query = NeighborhoodSampleQuery(node=77, fanouts=(4, 2), seed=9)
        first = _run_single(random_graph, random_assets, query)
        again = _run_single(random_graph, random_assets, query)
        assert first.stats.result == again.stats.result
        assert first.stats.nodes_touched == again.stats.nodes_touched


# -- multi-source routing keys ------------------------------------------------
class TestMultiSourceRouting:
    def test_hash_single_key_unchanged(self):
        strategy = HashRouting(num_processors=3)
        assert strategy.choose(NeighborAggregationQuery(node=7), [0, 0, 0]) == 1

    def test_hash_plurality_vote(self):
        strategy = HashRouting(num_processors=2)
        # Keys 1, 3, 2 -> slots 1, 1, 0: plurality picks processor 1.
        query = KSourceReachabilityQuery(node=1, sources=(3, 2), target=0)
        assert strategy.choose(query, [0, 0]) == 1
        # Tie (one key each) breaks to the lowest processor index.
        tied = KSourceReachabilityQuery(node=1, sources=(2,), target=0)
        assert strategy.choose(tied, [0, 0]) == 0

    def test_landmark_multi_anchor_averages(self, random_graph,
                                            random_assets):
        index = random_assets.landmark_index(3, 24, 2)
        strategy = LandmarkRouting(index)
        loads = [0, 0, 0]
        query = KSourceReachabilityQuery(node=10, sources=(11, 12), target=0)
        choice = strategy.choose(query, loads)
        assert 0 <= choice < 3
        rows = [index.processor_distances(k) for k in (10, 11, 12)]
        mean = np.mean(np.stack(rows), axis=0)
        assert choice == int(np.argmin(mean))

    def test_landmark_unknown_anchors_fall_back_to_hash(self, random_graph,
                                                        random_assets):
        index = random_assets.landmark_index(3, 24, 2)
        strategy = LandmarkRouting(index)
        query = KSourceReachabilityQuery(node=10 ** 9, sources=(10 ** 9 + 1,),
                                         target=0)
        assert strategy.choose(query, [0, 0, 0]) == (10 ** 9) % 3
        assert strategy.fallbacks == 1


# -- session-API support ------------------------------------------------------
class TestNewFamiliesThroughSessions:
    def test_mixed_family_stream_through_adaptive_service(self, random_graph,
                                                          random_assets):
        workload = interleave([
            ppr_stream(random_graph, num_queries=12, walks=2, steps=3,
                       seed=1, csr=random_assets.csr_both),
            k_reach_stream(random_graph, num_queries=8, num_sources=3,
                           hops=2, seed=2, csr=random_assets.csr_both),
            sample_stream(random_graph, num_queries=10, fanouts=(4, 2),
                          seed=3, csr=random_assets.csr_both),
        ], seed=4)
        config = ClusterConfig(
            num_processors=3, num_storage_servers=2, routing="adaptive",
            cache_capacity_bytes=1 << 20, embed_method="lmds",
            adaptive_epoch=4, submit_batch=8,
        )
        report = run_workload(random_graph, workload, config,
                              assets=random_assets)
        stats = report.per_operator_stats()
        assert stats["ppr"]["queries"] == 12
        assert stats["k_reach"]["queries"] == 8
        assert stats["sample"]["queries"] == 10
        classes = {r.operator: r.query_class for r in report.records}
        assert classes["ppr"] == "walk"
        assert classes["k_reach"] == "traversal"
        assert classes["sample"] == "traversal"
