"""Tests for the workload generators (§4.1)."""

import pytest

from repro.core import (
    KSourceReachabilityQuery,
    NeighborAggregationQuery,
    NeighborhoodSampleQuery,
    PersonalizedPageRankQuery,
    RandomWalkQuery,
    ReachabilityQuery,
)
from repro.graph import CSRGraph, Graph, bfs_distances, ring_of_cliques
from repro.workloads import (
    FULL_MIX,
    hotspot_stream,
    interleave,
    k_reach_stream,
    ppr_stream,
    sample_stream,
    uniform_stream,
    zipfian_stream,
)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(10, 8)


class TestHotspotWorkload:
    def test_count_and_grouping(self, graph):
        queries = list(hotspot_stream(graph, num_hotspots=5,
                                      queries_per_hotspot=10, seed=1))
        assert len(queries) == 50

    def test_uniform_mix_of_query_types(self, graph):
        queries = list(hotspot_stream(graph, num_hotspots=6,
                                      queries_per_hotspot=9, seed=1))
        kinds = {
            NeighborAggregationQuery: 0,
            RandomWalkQuery: 0,
            ReachabilityQuery: 0,
        }
        for query in queries:
            kinds[type(query)] += 1
        assert set(kinds.values()) == {18}  # 54 queries / 3 kinds

    def test_hotspot_queries_are_local(self, graph):
        # Any two query nodes of one hotspot lie within 2r hops (§4.1).
        radius = 2
        queries = list(hotspot_stream(graph, num_hotspots=8,
                                      queries_per_hotspot=5, radius=radius,
                                      seed=3))
        for h in range(8):
            group = [q.node for q in queries[h * 5:(h + 1) * 5]]
            anchor = group[0]
            dist = bfs_distances(graph, anchor, max_hops=2 * radius)
            for node in group[1:]:
                assert node in dist

    def test_reachability_targets_in_same_hotspot(self, graph):
        radius = 1
        queries = list(hotspot_stream(graph, num_hotspots=10,
                                      queries_per_hotspot=3, radius=radius,
                                      seed=5))
        for query in queries:
            if isinstance(query, ReachabilityQuery):
                dist = bfs_distances(graph, query.node, max_hops=4 * radius)
                assert query.target in dist

    def test_deterministic(self, graph):
        a = list(hotspot_stream(graph, 4, 4, seed=9))
        b = list(hotspot_stream(graph, 4, 4, seed=9))
        assert [(type(q), q.node) for q in a] == [(type(q), q.node) for q in b]

    def test_respects_prebuilt_csr(self, graph):
        csr = CSRGraph.from_graph(graph, direction="both")
        queries = list(hotspot_stream(graph, 3, 3, seed=2, csr=csr))
        assert len(queries) == 9

    def test_custom_mix(self, graph):
        queries = list(hotspot_stream(graph, 2, 4, mix=("walk",), seed=1))
        assert all(isinstance(q, RandomWalkQuery) for q in queries)

    def test_invalid_parameters(self, graph):
        with pytest.raises(ValueError):
            list(hotspot_stream(graph, 0, 5))
        with pytest.raises(ValueError):
            list(hotspot_stream(graph, 5, 5, radius=-1))
        with pytest.raises(ValueError):
            list(hotspot_stream(graph, 5, 5, mix=()))
        with pytest.raises(ValueError):
            list(hotspot_stream(graph, 5, 5, mix=("teleport",)))

    def test_graph_without_edges_rejected(self):
        g = Graph()
        g.add_node(1)
        with pytest.raises(ValueError):
            list(hotspot_stream(g, 1, 1))


class TestUniformWorkload:
    def test_count(self, graph):
        assert len(list(uniform_stream(graph, num_queries=33, seed=1))) == 33

    def test_spreads_over_graph(self, graph):
        queries = list(uniform_stream(graph, num_queries=200, seed=1))
        # Uniform sampling should touch most cliques.
        cliques = {q.node // 8 for q in queries}
        assert len(cliques) >= 8

    def test_invalid_count(self, graph):
        with pytest.raises(ValueError):
            list(uniform_stream(graph, num_queries=0))


class TestStreams:
    def test_streams_are_lazy_but_match_lists(self, graph):
        for stream_fn, kwargs in (
            (hotspot_stream,
             dict(num_hotspots=4, queries_per_hotspot=5, seed=3)),
            (uniform_stream, dict(num_queries=25, seed=3)),
            (zipfian_stream, dict(num_queries=25, skew=1.5, seed=3)),
        ):
            stream = stream_fn(graph, **kwargs)
            assert iter(stream) is stream  # a true generator, no len()
            streamed = [(type(q), q.node) for q in stream]
            # list(...) of a second stream is the materialised form.
            listed = list(stream_fn(graph, **kwargs))
            assert streamed == [(type(q), q.node) for q in listed]
            assert list(stream) == []  # single pass: now exhausted

    def test_stream_validation_is_eager(self, graph):
        # Bad arguments must fail at call time, not at first consumption.
        with pytest.raises(ValueError):
            hotspot_stream(graph, num_hotspots=0, queries_per_hotspot=5)
        with pytest.raises(ValueError):
            zipfian_stream(graph, skew=0.5)
        with pytest.raises(ValueError):
            uniform_stream(graph, num_queries=0)

    def test_interleave_exhausts_all_streams(self, graph):
        mixed = list(interleave([
            uniform_stream(graph, num_queries=20, mix=("aggregation",),
                           seed=1),
            zipfian_stream(graph, num_queries=30, skew=1.5, mix=("walk",),
                           seed=2),
        ], seed=5))
        assert len(mixed) == 50
        kinds = {type(q) for q in mixed}
        assert kinds == {NeighborAggregationQuery, RandomWalkQuery}
        # Deterministic for a fixed seed.
        again = list(interleave([
            uniform_stream(graph, num_queries=20, mix=("aggregation",),
                           seed=1),
            zipfian_stream(graph, num_queries=30, skew=1.5, mix=("walk",),
                           seed=2),
        ], seed=5))
        assert [(type(q), q.node) for q in mixed] == [
            (type(q), q.node) for q in again
        ]

    def test_interleave_rejects_empty(self):
        with pytest.raises(ValueError):
            interleave([])


class TestFullMixAndRegistryKinds:
    def test_full_mix_yields_all_six_operators(self, graph):
        queries = list(uniform_stream(graph, num_queries=60, mix=FULL_MIX,
                                      seed=2))
        kinds = {type(q) for q in queries}
        assert kinds == {
            NeighborAggregationQuery, RandomWalkQuery, ReachabilityQuery,
            PersonalizedPageRankQuery, KSourceReachabilityQuery,
            NeighborhoodSampleQuery,
        }

    def test_hotspot_full_mix_sources_stay_in_ball(self, graph):
        radius = 1
        queries = list(hotspot_stream(graph, num_hotspots=6,
                                      queries_per_hotspot=6, radius=radius,
                                      mix=("k_reach",), seed=4))
        for query in queries:
            dist = bfs_distances(graph, query.node, max_hops=4 * radius)
            for anchor in query.all_sources():
                assert anchor in dist
            assert query.target in dist

    def test_unknown_mix_entry_fails_eagerly_in_streams(self, graph):
        # Registry-driven validation happens at stream *creation* (lazy
        # generation must not defer the error to first consumption).
        with pytest.raises(ValueError, match="teleport"):
            uniform_stream(graph, num_queries=5, mix=("teleport",))
        with pytest.raises(ValueError, match="workload fact"):
            # Registered operators without factories are refused too.
            from repro.core import QueryOperator, QueryStats, default_registry
            from repro.core.queries import Query
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class _NoFactory(Query):
                pass

            def _noop(processor, query):
                yield processor.env.timeout(0)
                return QueryStats()

            default_registry.register(QueryOperator(
                name="nofactory", query_type=_NoFactory, executor=_noop,
                cost_class="point",
            ))
            try:
                uniform_stream(graph, num_queries=5, mix=("nofactory",))
            finally:
                default_registry.unregister("nofactory")


class TestFamilyStreams:
    def test_streams_match_workload_lists(self, graph):
        for stream_fn, kwargs in (
            (ppr_stream, dict(num_queries=15, walks=2, steps=3, seed=3)),
            (k_reach_stream, dict(num_queries=15, num_sources=3, seed=3)),
            (sample_stream, dict(num_queries=15, fanouts=(4, 2), seed=3)),
        ):
            stream = stream_fn(graph, **kwargs)
            assert iter(stream) is stream  # a true generator, no len()
            streamed = [(type(q), q.node) for q in stream]
            listed = list(stream_fn(graph, **kwargs))
            assert streamed == [(type(q), q.node) for q in listed]

    def test_validation_is_eager(self, graph):
        with pytest.raises(ValueError):
            ppr_stream(graph, num_queries=0)
        with pytest.raises(ValueError):
            ppr_stream(graph, num_queries=5, walks=0)
        with pytest.raises(ValueError):
            ppr_stream(graph, num_queries=5, skew=1.0)
        with pytest.raises(ValueError):
            k_reach_stream(graph, num_queries=5, num_sources=0)
        with pytest.raises(ValueError):
            k_reach_stream(graph, num_queries=5, num_sources=65)
        with pytest.raises(ValueError):
            sample_stream(graph, num_queries=5, fanouts=())

    def test_k_reach_batches_draw_from_one_ball(self, graph):
        radius = 1
        for query in list(k_reach_stream(graph, num_queries=10, num_sources=4,
                                         radius=radius, seed=7)):
            assert len(query.all_sources()) <= 4
            # All anchors + target lie within 2*radius of the primary.
            dist = bfs_distances(graph, query.node, max_hops=4 * radius)
            for anchor in query.all_sources():
                assert anchor in dist
            assert query.target in dist

    def test_ppr_zipf_seeds_repeat(self, graph):
        queries = list(ppr_stream(graph, num_queries=200, skew=2.0, seed=1))
        counts = {}
        for query in queries:
            counts[query.node] = counts.get(query.node, 0) + 1
        assert max(counts.values()) > 20  # hot seeds dominate

    def test_deterministic(self, graph):
        a = [(q.node, q.seed) for q in list(ppr_stream(graph, num_queries=20,
                                                       seed=9))]
        b = [(q.node, q.seed) for q in list(ppr_stream(graph, num_queries=20,
                                                       seed=9))]
        assert a == b


class TestZipfianWorkload:
    def test_repeats_hot_nodes(self, graph):
        queries = list(zipfian_stream(graph, num_queries=300, skew=1.5, seed=1))
        counts = {}
        for query in queries:
            counts[query.node] = counts.get(query.node, 0) + 1
        top = max(counts.values())
        assert top > 20  # the hottest node dominates

    def test_invalid_skew(self, graph):
        with pytest.raises(ValueError):
            list(zipfian_stream(graph, skew=1.0))
