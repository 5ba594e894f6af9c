"""Engine correctness: simulated query results must match ground truth."""

import numpy as np
import pytest

from repro import ClusterConfig, GraphAssets, run_workload
from repro.core import (
    NeighborAggregationQuery,
    RandomWalkQuery,
    ReachabilityQuery,
)
from repro.graph import (
    bidirectional_reachability,
    erdos_renyi,
    k_hop_neighborhood,
    ring_of_cliques,
)
from repro.workloads import hotspot_stream


@pytest.fixture(scope="module")
def random_graph():
    return erdos_renyi(300, 1200, seed=7)


@pytest.fixture(scope="module")
def random_assets(random_graph):
    return GraphAssets(random_graph)


def _run_single(graph, assets, query, **config_kwargs):
    config = ClusterConfig(
        num_processors=2,
        num_storage_servers=2,
        routing="hash",
        cache_capacity_bytes=1 << 20,
        **config_kwargs,
    )
    report = run_workload(graph, [query], config, assets=assets)
    assert len(report.records) == 1
    return report.records[0]


class TestAggregationCorrectness:
    @pytest.mark.parametrize("node", [0, 13, 77, 250])
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_count_matches_ground_truth(self, random_graph, random_assets,
                                        node, hops):
        record = _run_single(
            random_graph, random_assets,
            NeighborAggregationQuery(node=node, hops=hops),
        )
        expected = len(k_hop_neighborhood(random_graph, node, hops, "both"))
        assert record.stats.result == expected

    def test_eq8_invariant_hits_plus_misses_is_neighborhood(
        self, random_graph, random_assets
    ):
        # Eq. 8/9: per aggregation query, hits + misses == |N_h(q)|.
        query = NeighborAggregationQuery(node=42, hops=2)
        record = _run_single(random_graph, random_assets, query)
        expected = len(k_hop_neighborhood(random_graph, 42, 2, "both"))
        assert record.stats.cache_hits + record.stats.cache_misses == expected

    def test_isolated_node_counts_zero(self):
        from repro.graph import Graph

        g = Graph()
        g.add_edge(0, 1)
        g.add_node(5)
        assets = GraphAssets(g)
        record = _run_single(g, assets, NeighborAggregationQuery(node=5, hops=2))
        assert record.stats.result == 0
        assert record.stats.nodes_touched == 0


class TestRandomWalkCorrectness:
    def test_walk_takes_requested_steps(self, random_graph, random_assets):
        record = _run_single(
            random_graph, random_assets,
            RandomWalkQuery(node=3, steps=5, seed=11),
        )
        assert record.stats.result == 5

    def test_walk_touches_at_most_steps_records(self, random_graph,
                                                 random_assets):
        record = _run_single(
            random_graph, random_assets,
            RandomWalkQuery(node=3, steps=8, seed=2),
        )
        assert record.stats.nodes_touched <= 8

    def test_restart_prob_one_touches_nothing(self, random_graph,
                                              random_assets):
        record = _run_single(
            random_graph, random_assets,
            RandomWalkQuery(node=3, steps=6, restart_prob=1.0, seed=1),
        )
        # Every step restarts to the source; no neighbor records needed.
        assert record.stats.nodes_touched == 0


class TestReachabilityCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_bidirectional_ground_truth(self, random_graph,
                                                random_assets, seed):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            s, t = rng.integers(0, 300, size=2)
            hops = int(rng.integers(1, 5))
            record = _run_single(
                random_graph, random_assets,
                ReachabilityQuery(node=int(s), target=int(t), hops=hops),
            )
            expected = bidirectional_reachability(
                random_graph, int(s), int(t), hops
            )
            assert record.stats.result == expected, (s, t, hops)

    def test_same_node_reachable(self, random_graph, random_assets):
        record = _run_single(
            random_graph, random_assets,
            ReachabilityQuery(node=9, target=9, hops=0),
        )
        assert record.stats.result is True

    def test_missing_target_unreachable(self, random_graph, random_assets):
        record = _run_single(
            random_graph, random_assets,
            ReachabilityQuery(node=9, target=123456, hops=3),
        )
        assert record.stats.result is False

    def test_clique_ring_distances(self):
        g = ring_of_cliques(4, 5)
        assets = GraphAssets(g)
        # Bridgeheads 0 and 5 are adjacent; interior nodes need more hops.
        r = _run_single(g, assets, ReachabilityQuery(node=0, target=5, hops=1))
        assert r.stats.result is True
        r = _run_single(g, assets, ReachabilityQuery(node=1, target=6, hops=2))
        assert r.stats.result is False
        r = _run_single(g, assets, ReachabilityQuery(node=1, target=6, hops=3))
        assert r.stats.result is True


class TestCacheInteraction:
    def test_repeat_query_hits_cache(self, random_graph, random_assets):
        config = ClusterConfig(num_processors=1, num_storage_servers=1,
                               routing="hash", cache_capacity_bytes=1 << 20)
        q1 = NeighborAggregationQuery(node=10, hops=2)
        q2 = NeighborAggregationQuery(node=10, hops=2)
        report = run_workload(random_graph, [q1, q2], config,
                              assets=random_assets)
        first, second = report.records
        assert first.stats.cache_misses > 0
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hits == first.stats.cache_hits + first.stats.cache_misses

    def test_second_query_faster_with_cache(self, random_graph, random_assets):
        config = ClusterConfig(num_processors=1, num_storage_servers=1,
                               routing="hash", cache_capacity_bytes=1 << 20)
        q1 = NeighborAggregationQuery(node=10, hops=2)
        q2 = NeighborAggregationQuery(node=10, hops=2)
        report = run_workload(random_graph, [q1, q2], config,
                              assets=random_assets)
        first, second = report.records
        assert second.response_time < first.response_time

    def test_no_cache_mode_never_hits(self, random_graph, random_assets):
        config = ClusterConfig(num_processors=1, num_storage_servers=1,
                               routing="no_cache", cache_capacity_bytes=1 << 20)
        q1 = NeighborAggregationQuery(node=10, hops=2)
        q2 = NeighborAggregationQuery(node=10, hops=2)
        report = run_workload(random_graph, [q1, q2], config,
                              assets=random_assets)
        assert report.total_cache_hits() == 0
        assert report.records[0].response_time == pytest.approx(
            report.records[1].response_time, rel=0.2
        )


class TestWorkloadExecution:
    def test_mixed_workload_all_complete(self, random_graph, random_assets):
        queries = list(hotspot_stream(random_graph, num_hotspots=6,
                                      queries_per_hotspot=6, radius=1, hops=2,
                                      seed=5, csr=random_assets.csr_both))
        config = ClusterConfig(num_processors=3, num_storage_servers=2,
                               routing="hash", cache_capacity_bytes=1 << 20)
        report = run_workload(random_graph, queries, config,
                              assets=random_assets)
        assert len(report.records) == 36
        kinds = {r.kind for r in report.records}
        assert kinds == {
            "NeighborAggregationQuery",
            "RandomWalkQuery",
            "ReachabilityQuery",
        }
