"""Tests for the SEDGE/Giraph-like and PowerGraph-like coupled systems."""

import pytest

from repro import ClusterConfig, ETHERNET_COSTS, GraphAssets, run_workload
from repro.baselines import PowerGraphSystem, SedgeSystem
from repro.core import NeighborAggregationQuery
from repro.datasets import memetracker_like
from repro.graph import k_hop_neighborhood
from repro.workloads import hotspot_stream


@pytest.fixture(scope="module")
def setup():
    graph = memetracker_like(scale=0.05, seed=2)
    assets = GraphAssets(graph)
    queries = list(hotspot_stream(graph, num_hotspots=8, queries_per_hotspot=10,
                                  radius=2, hops=2, seed=1, csr=assets.csr_both))
    return graph, assets, queries


class TestSedgeSystem:
    def test_runs_workload(self, setup):
        _graph, assets, queries = setup
        report = SedgeSystem(assets, num_servers=6).run(queries)
        assert len(report.records) == len(queries)
        assert report.routing == "sedge"
        assert report.makespan > 0

    def test_aggregation_results_match_ground_truth(self, setup):
        graph, assets, _queries = setup
        node = next(iter(graph.nodes()))
        query = NeighborAggregationQuery(node=node, hops=2)
        report = SedgeSystem(assets, num_servers=4).run([query])
        expected = len(k_hop_neighborhood(graph, node, 2, "both"))
        assert report.records[0].stats.result == expected

    def test_jobs_serialize(self, setup):
        _graph, assets, queries = setup
        report = SedgeSystem(assets, num_servers=4).run(queries[:10])
        spans = sorted((r.started_at, r.finished_at) for r in report.records)
        for (_s1, f1), (s2, _f2) in zip(spans, spans[1:]):
            assert s2 >= f1

    def test_barrier_cost_scales_with_servers(self, setup):
        _graph, assets, queries = setup
        small = SedgeSystem(assets, num_servers=2).run(queries[:20])
        large = SedgeSystem(assets, num_servers=12).run(queries[:20])
        assert large.mean_response_time() > small.mean_response_time()

    def test_good_partitioning_beats_hash_partitioning(self, setup):
        _graph, assets, queries = setup
        from repro.baselines import hash_partition

        metis = SedgeSystem(assets, num_servers=4).run(queries)
        hashed = SedgeSystem(
            assets, num_servers=4,
            partition_labels=hash_partition(assets.csr_both, 4),
        ).run(queries)
        assert metis.mean_response_time() < hashed.mean_response_time()

    def test_invalid_server_count(self, setup):
        _graph, assets, _queries = setup
        with pytest.raises(ValueError):
            SedgeSystem(assets, num_servers=0)


class TestPowerGraphSystem:
    def test_runs_workload(self, setup):
        _graph, assets, queries = setup
        report = PowerGraphSystem(assets, num_servers=6).run(queries)
        assert len(report.records) == len(queries)
        assert report.routing == "powergraph"

    def test_results_match_ground_truth(self, setup):
        graph, assets, _queries = setup
        node = next(iter(graph.nodes()))
        query = NeighborAggregationQuery(node=node, hops=2)
        report = PowerGraphSystem(assets, num_servers=4).run([query])
        expected = len(k_hop_neighborhood(graph, node, 2, "both"))
        assert report.records[0].stats.result == expected

    def test_faster_than_sedge(self, setup):
        # The paper's Fig 7: PowerGraph outperforms SEDGE/Giraph (async GAS
        # beats BSP barriers) but both lose to gRouting.
        _graph, assets, queries = setup
        sedge = SedgeSystem(assets, num_servers=6).run(queries)
        powergraph = PowerGraphSystem(assets, num_servers=6).run(queries)
        assert powergraph.throughput() > sedge.throughput()


class TestSystemComparison:
    def test_grouting_beats_coupled_systems(self, setup):
        # The headline claim (Fig 7): decoupled gRouting with plain hash
        # partitioning beats both coupled systems — even over Ethernet.
        graph, assets, queries = setup
        config = ClusterConfig(
            num_processors=7, num_storage_servers=4, routing="embed",
            cache_capacity_bytes=8 << 20, num_landmarks=16, min_separation=2,
            dim=6, embed_method="lmds", costs=ETHERNET_COSTS,
        )
        grouting = run_workload(graph, queries, config, assets=assets)
        sedge = SedgeSystem(assets, num_servers=12).run(queries)
        powergraph = PowerGraphSystem(assets, num_servers=12).run(queries)
        assert grouting.throughput() > 2 * powergraph.throughput()
        assert grouting.throughput() > 3 * sedge.throughput()
