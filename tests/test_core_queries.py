"""Query-id allocation: determinism, scoping, parallel-stream disjointness."""

import pytest

from repro import QueryIdAllocator, query_ids_from
from repro.core import NeighborAggregationQuery


class TestQueryIdAllocator:
    def test_sequential_allocation(self):
        allocator = QueryIdAllocator()
        assert [allocator.allocate() for _ in range(3)] == [0, 1, 2]

    def test_start_and_stride_carve_disjoint_lattices(self):
        evens = QueryIdAllocator(start=0, stride=2)
        odds = QueryIdAllocator(start=1, stride=2)
        a = {evens.allocate() for _ in range(100)}
        b = {odds.allocate() for _ in range(100)}
        assert not a & b

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            QueryIdAllocator(stride=0)
        with pytest.raises(ValueError):
            QueryIdAllocator(start=-1)


class TestScopedAllocation:
    def test_query_ids_from_scopes_defaults(self):
        with query_ids_from(QueryIdAllocator(start=500)):
            inside = [NeighborAggregationQuery(node=n) for n in range(3)]
        outside = NeighborAggregationQuery(node=0)
        assert [q.query_id for q in inside] == [500, 501, 502]
        assert outside.query_id not in {500, 501, 502}

    def test_scope_restores_previous_allocator_on_error(self):
        before = NeighborAggregationQuery(node=0).query_id
        with pytest.raises(RuntimeError):
            with query_ids_from(QueryIdAllocator(start=10_000)):
                raise RuntimeError("boom")
        after = NeighborAggregationQuery(node=0).query_id
        assert after == before + 1

    def test_parallel_generators_never_collide(self):
        streams = []
        for k in range(3):
            with query_ids_from(QueryIdAllocator(start=k, stride=3)):
                streams.append(
                    [NeighborAggregationQuery(node=n) for n in range(20)]
                )
        ids = [q.query_id for stream in streams for q in stream]
        assert len(ids) == len(set(ids))

    def test_nested_scopes_restore_level_by_level(self):
        # Nesting documented in query_ids_from: the inner scope shadows
        # the outer one, and exiting it resumes the outer allocator
        # exactly where it left off (not at the process default).
        outer = QueryIdAllocator(start=100)
        inner = QueryIdAllocator(start=200)
        with query_ids_from(outer):
            first = NeighborAggregationQuery(node=0)
            with query_ids_from(inner):
                shadowed = NeighborAggregationQuery(node=0)
                with query_ids_from(outer):
                    # Re-entering an allocator continues its sequence.
                    reentered = NeighborAggregationQuery(node=0)
            resumed = NeighborAggregationQuery(node=0)
        assert [q.query_id for q in (first, shadowed, reentered, resumed)] \
            == [100, 200, 101, 102]

    def test_nested_scope_unwinds_to_outer_on_error(self):
        outer = QueryIdAllocator(start=300)
        with query_ids_from(outer):
            with pytest.raises(RuntimeError):
                with query_ids_from(QueryIdAllocator(start=900)):
                    raise RuntimeError("boom")
            assert NeighborAggregationQuery(node=0).query_id == 300

    def test_lazy_streams_capture_allocator_at_creation(self):
        # A *_stream built inside a scope keeps the scope's ids even when
        # consumed after the scope exits (generators run late).
        from repro.graph import ring_of_cliques
        from repro.workloads import uniform_stream

        graph = ring_of_cliques(4, 5)
        with query_ids_from(QueryIdAllocator(start=1, stride=2)):
            odds = uniform_stream(graph, num_queries=10, seed=1)
        with query_ids_from(QueryIdAllocator(start=0, stride=2)):
            evens = uniform_stream(graph, num_queries=10, seed=2)
        odd_ids = [q.query_id for q in odds]      # consumed outside scopes
        even_ids = [q.query_id for q in evens]
        assert odd_ids == list(range(1, 21, 2))
        assert even_ids == list(range(0, 20, 2))

    @pytest.mark.parametrize("stream_name,kwargs", [
        ("hotspot_stream", dict(num_hotspots=2, queries_per_hotspot=5)),
        ("zipfian_stream", dict(num_queries=10, skew=1.5)),
        ("ppr_stream", dict(num_queries=10, walks=2, steps=2)),
        ("k_reach_stream", dict(num_queries=10, num_sources=3)),
        ("sample_stream", dict(num_queries=10, fanouts=(3, 2))),
    ])
    def test_every_stream_family_captures_scope_allocator(self, stream_name,
                                                          kwargs):
        # The documented contract holds for *every* generator family,
        # including the new operator streams: the allocator is captured at
        # stream creation, not at (late) consumption.
        import repro.workloads as workloads
        from repro.graph import ring_of_cliques

        graph = ring_of_cliques(4, 5)
        stream_fn = getattr(workloads, stream_name)
        default_next = NeighborAggregationQuery(node=0).query_id + 1
        with query_ids_from(QueryIdAllocator(start=1000)):
            stream = stream_fn(graph, seed=3, **kwargs)
        consumed_outside = [q.query_id for q in stream]
        assert consumed_outside == list(range(1000, 1010))
        # The process-default allocator never advanced on the stream's
        # behalf.
        assert NeighborAggregationQuery(node=0).query_id == default_next
