"""Live graph updates end-to-end: deltas through graph, assets, storage,
caches and routing staleness/refresh; churn streams through sessions."""

import numpy as np
import pytest

from repro import ClusterConfig, GraphService, GraphUpdate
from repro.core import GraphAssets, NeighborAggregationQuery
from repro.graph import CSRGraph, Graph, GraphError
from repro.graph.updates import apply_updates, validate_updates
from repro.workloads import churn_stream


def ring_graph(n=12):
    graph = Graph()
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    return graph


def csr_rows(csr):
    """Every row through the public API, order included — walks sample
    ``row[rng]``, so row order is part of the contract."""
    return [csr.neighbors_of(i).tolist() for i in range(csr.num_nodes)]


def _config(routing="hash", **kwargs):
    defaults = dict(
        num_processors=3,
        num_storage_servers=2,
        cache_capacity_bytes=1 << 20,
        num_landmarks=6,
        min_separation=1,
        dim=3,
        embed_method="lmds",
    )
    defaults.update(kwargs)
    return ClusterConfig(routing=routing, **defaults)


# ---------------------------------------------------------------------------
# The delta type and graph-layer application
# ---------------------------------------------------------------------------

class TestGraphUpdateType:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown update kind"):
            GraphUpdate(kind="upsert", u=1)
        with pytest.raises(ValueError, match="both endpoints"):
            GraphUpdate(kind="add_edge", u=1)
        with pytest.raises(ValueError, match="single node"):
            GraphUpdate(kind="add_node", u=1, v=2)

    def test_constructors_and_touched(self):
        assert GraphUpdate.add_edge(1, 2).touched() == (1, 2)
        assert GraphUpdate.remove_edge(3, 3).touched() == (3,)
        assert GraphUpdate.add_node(7).touched() == (7,)

    def test_apply_updates_returns_dirty_and_new(self):
        graph = ring_graph(4)
        dirty, new = apply_updates(graph, [
            GraphUpdate.add_node(100),
            GraphUpdate.add_edge(100, 0),
            GraphUpdate.add_edge(1, 2),   # already exists: no-op upsert
            GraphUpdate.remove_edge(2, 3),
        ])
        assert new == {100}
        # The no-op upsert dirties nothing: 1 is clean, 2 only via removal.
        assert dirty == {100, 0, 2, 3}
        assert graph.has_edge(100, 0)
        assert not graph.has_edge(2, 3)

    def test_noop_upserts_dirty_nothing(self):
        # Code-review regression: re-adding an existing edge (or node)
        # without a label change must not trigger rewrites/invalidation/
        # staleness for records whose bytes did not change.
        graph = ring_graph(4)
        assert apply_updates(graph, [GraphUpdate.add_edge(0, 1)]) == (set(), set())
        assert apply_updates(graph, [GraphUpdate.add_node(2)]) == (set(), set())
        # A label change does change the record bytes: dirty.
        dirty, new = apply_updates(graph, [GraphUpdate.add_edge(0, 1, label="x")])
        assert dirty == {0, 1} and new == set()
        dirty, new = apply_updates(graph, [GraphUpdate.add_node(2, label="y")])
        assert dirty == {2} and new == set()

    def test_batch_validation_is_atomic(self):
        graph = ring_graph(4)
        before = set(graph.edges())
        with pytest.raises(GraphError, match="non-existent edge"):
            apply_updates(graph, [
                GraphUpdate.add_edge(0, 2),
                GraphUpdate.remove_edge(5, 6),  # invalid: nothing applied
            ])
        assert set(graph.edges()) == before

    def test_validation_tracks_batch_local_edges(self):
        graph = ring_graph(4)
        # Removing an edge the same batch adds is valid...
        validate_updates(graph, [
            GraphUpdate.add_edge(0, 2), GraphUpdate.remove_edge(0, 2),
        ])
        # ...and removing it twice is not.
        with pytest.raises(GraphError):
            validate_updates(graph, [
                GraphUpdate.add_edge(0, 2),
                GraphUpdate.remove_edge(0, 2),
                GraphUpdate.remove_edge(0, 2),
            ])
        with pytest.raises(TypeError, match="not GraphUpdate"):
            validate_updates(graph, [object()])


# ---------------------------------------------------------------------------
# Assets: append-stable compact indices, CSR splicing
# ---------------------------------------------------------------------------

class TestAssetsLiveUpdate:
    def test_compact_indices_stable_and_appended(self):
        graph = ring_graph(6)
        assets = GraphAssets(graph)
        before = dict(assets.compact)
        sizes_before = assets.record_sizes.copy()
        owners_before = assets.owner_array(2).copy()
        dirty, new = apply_updates(graph, [
            GraphUpdate.add_edge(100, 0), GraphUpdate.add_edge(100, 3),
        ])
        assets.apply_graph_updates(dirty, new)
        for node, idx in before.items():
            assert assets.compact[node] == idx
        assert assets.compact[100] == 6
        assert assets.num_nodes == 7
        # Untouched nodes keep sizes/owners; dirty ones re-sized.
        untouched = [n for n in before if n not in dirty]
        for node in untouched:
            assert assets.record_sizes[before[node]] == sizes_before[before[node]]
            assert assets.owner_array(2)[before[node]] == owners_before[before[node]]
        assert assets.record_sizes[6] > 0

    def test_csr_views_match_full_rebuild(self):
        rng = np.random.default_rng(3)
        graph = ring_graph(10)
        assets = GraphAssets(graph)
        _ = assets.csr_out, assets.csr_in  # materialise all three views
        for step in range(15):
            kind = rng.integers(0, 3)
            if kind == 0:
                u, v = int(rng.integers(0, 10)), int(rng.integers(0, 10))
                updates = [GraphUpdate.add_edge(u, v)]
            elif kind == 1:
                edges = list(graph.edges())
                u, v = edges[int(rng.integers(0, len(edges)))]
                updates = [GraphUpdate.remove_edge(u, v)]
            else:
                updates = [GraphUpdate.add_edge(200 + step, int(rng.integers(0, 10)))]
            dirty, new = apply_updates(graph, updates)
            assets.apply_graph_updates(dirty, new)
            for direction, view in (
                ("both", assets.csr_both),
                ("out", assets.csr_out),
                ("in", assets.csr_in),
            ):
                rebuilt = CSRGraph.from_graph(
                    graph, direction=direction, node_ids=assets.node_ids
                )
                assert csr_rows(view) == csr_rows(rebuilt)
                assert np.array_equal(view.node_ids, rebuilt.node_ids)

    def test_record_sizes_track_adjacency_growth(self):
        graph = ring_graph(6)
        assets = GraphAssets(graph)
        idx = assets.compact[0]
        before = int(assets.record_sizes[idx])
        dirty, new = apply_updates(graph, [GraphUpdate.add_edge(3, 0)])
        assets.apply_graph_updates(dirty, new)
        assert int(assets.record_sizes[idx]) > before


# ---------------------------------------------------------------------------
# Service end-to-end: storage writes, cache invalidation, staleness
# ---------------------------------------------------------------------------

class TestServiceLiveUpdates:
    def test_new_node_is_queryable_and_results_reflect_updates(self):
        graph = ring_graph(12)
        with GraphService.open(graph, _config("hash")) as service:
            with service.session() as session:
                # 2-hop aggregation around node 0 on the ring: {1,2,11,10}.
                q1 = session.submit(NeighborAggregationQuery(node=0, hops=2))
                session.drain()
                assert session.records[-1].stats.result == 4
                session.apply_updates([GraphUpdate.add_edge(50, 0)])
                q2 = session.submit(NeighborAggregationQuery(node=0, hops=2))
                session.drain()
                # The new neighbor joins the 2-hop set.
                assert session.records[-1].stats.result == 5
                q3 = session.submit(NeighborAggregationQuery(node=50, hops=1))
                session.drain()
                assert session.records[-1].stats.result == 1
                session.apply_updates([GraphUpdate.remove_edge(50, 0)])
                session.submit(NeighborAggregationQuery(node=0, hops=2))
                session.drain()
                assert session.records[-1].stats.result == 4
                assert {q1.query_id, q2.query_id, q3.query_id} <= {
                    r.query_id for r in session.records
                }

    def test_query_in_flight_across_update_answers_its_start_graph(self):
        # Executors capture the CSR views once, size their visited arrays
        # from them and keep them across yields: a view that changed
        # under a running query would change its answer (or index out of
        # range once a node is appended).
        graph = ring_graph(12)
        with GraphService.open(graph, _config("hash")) as service:
            with service.session() as session:
                session.submit(NeighborAggregationQuery(node=0, hops=3))
                while sum(s.keys_served for s in service.tier.servers) == 0:
                    service.env.step()  # until its first fetch was served
                session.apply_updates([
                    GraphUpdate.add_edge(0, 6), GraphUpdate.add_edge(50, 1),
                ])
                assert session.completed == 0  # still running
                session.drain()
                # The ring as of its start: {1, 2, 3, 9, 10, 11}.
                assert session.records[-1].stats.result == 6
                session.submit(NeighborAggregationQuery(node=0, hops=3))
                session.drain()
                # Everyone but 0 itself, the new node 50 included.
                assert session.records[-1].stats.result == 12

    def test_update_report_and_cumulative_counters(self):
        graph = ring_graph(12)
        with GraphService.open(graph, _config("hash")) as service:
            report = service.apply_updates([
                GraphUpdate.add_node(99),
                GraphUpdate.add_edge(99, 0),
                GraphUpdate.add_edge(3, 99),
            ])
            assert report.updates_applied == 3
            assert report.nodes_added == 1
            # Dirty records: 99, 0, 3.
            assert report.records_written == 3
            assert report.bytes_written > 0
            assert report.stale_nodes == 3
            assert not report.refreshed
            assert report.elapsed_s > 0
            assert service.updates.updates_applied == 3
            assert service.updates.records_written == 3

    def test_writes_advance_simulated_time_and_hit_servers(self):
        graph = ring_graph(12)
        with GraphService.open(graph, _config("hash")) as service:
            before = service.env.now
            service.apply_updates([GraphUpdate.add_edge(0, 6)])
            assert service.env.now > before
            assert sum(s.writes_served for s in service.tier.servers) >= 1
            assert sum(s.records_written for s in service.tier.servers) == 2

    def test_caches_are_invalidated(self):
        graph = ring_graph(12)
        with GraphService.open(graph, _config("hash")) as service:
            with service.session() as session:
                session.submit(NeighborAggregationQuery(node=0, hops=2))
                session.drain()
                cached_before = sum(len(p.cache) for p in service.processors)
                assert cached_before > 0
                report = session.apply_updates([GraphUpdate.add_edge(1, 11)])
                assert report.cache_entries_invalidated >= 1
                invalidations = sum(
                    p.cache.stats.invalidations for p in service.processors
                )
                assert invalidations == report.cache_entries_invalidated
                # A re-query fetches the invalidated records again.
                stats = service.tier.servers
                fetched_before = sum(s.keys_served for s in stats)
                session.submit(NeighborAggregationQuery(node=0, hops=2))
                session.drain()
                assert sum(s.keys_served for s in stats) > fetched_before

    def test_closed_service_refuses_updates(self):
        graph = ring_graph(8)
        service = GraphService.open(graph, _config("hash"))
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.apply_updates([GraphUpdate.add_node(99)])
        with pytest.raises(RuntimeError, match="closed"):
            service.refresh_routing()


# ---------------------------------------------------------------------------
# Routing staleness and incremental refresh
# ---------------------------------------------------------------------------

class TestStalenessAndRefresh:
    def test_stale_nodes_fall_back_until_refresh(self):
        graph = ring_graph(24)
        with GraphService.open(graph, _config("embed")) as service:
            strategy = service.strategy
            assert strategy.staleness is service.updates.stale
            service.apply_updates([GraphUpdate.add_edge(0, 12)])
            fallbacks_before = strategy.fallbacks
            with service.session() as session:
                session.submit(NeighborAggregationQuery(node=0, hops=1))
                session.drain()
            assert strategy.fallbacks == fallbacks_before + 1
            refreshed = service.refresh_routing()
            assert refreshed == 2  # both endpoints were stale
            assert not service.updates.stale
            with service.session() as session:
                session.submit(NeighborAggregationQuery(node=0, hops=1))
                session.drain()
            assert strategy.fallbacks == fallbacks_before + 1  # no new fallback

    def test_refresh_resolves_new_node_chains_in_embedding(self):
        # Code-review regression: a new node whose only neighbor is itself
        # new must get a real neighborhood placement (via the deferred
        # second pass), not the landmark-centroid fallback forever.
        graph = ring_graph(24)
        with GraphService.open(graph, _config("embed")) as service:
            embedding = service.strategy.embedding
            service.apply_updates([
                GraphUpdate.add_edge(201, 0),   # 201 touches the old graph
                GraphUpdate.add_edge(200, 201),  # 200 only touches 201
            ])
            service.refresh_routing()
            c201 = embedding.coordinates_of(201)
            c200 = embedding.coordinates_of(200)
            np.testing.assert_allclose(
                c201,
                np.mean(np.stack([
                    embedding.coordinates_of(0), c200,
                ]), axis=0),
            )
            # 200's only neighbor is 201: placed at 201's first-pass
            # coordinates, not at the landmark centroid.
            fallback = embedding.landmark_coords.mean(axis=0)
            assert not np.allclose(c200, fallback)

    @pytest.mark.parametrize("interval", [0, -5])
    def test_refresh_interval_below_one_rejected(self, interval):
        # 0 and negative intervals used to mean "refresh after every
        # batch, even an empty one" without saying so; None is manual.
        config = _config("hash", update_refresh_interval=interval)
        with pytest.raises(ValueError, match="update_refresh_interval"):
            GraphService.open(ring_graph(8), config)

    def test_auto_refresh_reports_false_when_nothing_refreshable(self):
        # Code-review regression: report.refreshed must not claim a
        # refresh happened when nothing could be refreshed.
        graph = ring_graph(8)
        config = _config("hash", update_refresh_interval=1)
        with GraphService.open(graph, config) as service:
            report = service.apply_updates([GraphUpdate.add_node(50)])
            assert not report.refreshed
            assert service.updates.stale == {50}

    def test_failed_write_reports_surviving_server_totals(self):
        # Code-review regression: manager totals must count what the
        # surviving servers actually wrote, matching per-server counters.
        from repro.storage import StorageServerDown

        graph = ring_graph(12)
        with GraphService.open(graph, _config("hash")) as service:
            # Dirty nodes 0 and 6 land on different servers under murmur
            # for this config; find a split by failing exactly one owner.
            owner = service.assets.owner_array(service.tier.num_servers)
            a, b = 0, next(
                n for n in range(1, 12)
                if owner[service.assets.compact[n]]
                != owner[service.assets.compact[0]]
            )
            service.tier.servers[owner[service.assets.compact[a]]].fail()
            with pytest.raises(StorageServerDown):
                service.apply_updates([GraphUpdate.add_edge(a, b)])
            written = sum(s.records_written for s in service.tier.servers)
            assert service.updates.records_written == written
            assert written == 1  # b's record landed, a's did not

    def test_new_node_embedded_by_refresh(self):
        graph = ring_graph(24)
        with GraphService.open(graph, _config("embed")) as service:
            embedding = service.strategy.embedding
            service.apply_updates([
                GraphUpdate.add_edge(100, 0), GraphUpdate.add_edge(100, 1),
            ])
            assert embedding.coordinates_of(100) is None
            service.refresh_routing()
            coords = embedding.coordinates_of(100)
            assert coords is not None
            # Neighbor-centroid placement: between its two neighbors.
            expected = np.mean(np.stack([
                embedding.coordinates_of(0), embedding.coordinates_of(1),
            ]), axis=0)
            np.testing.assert_allclose(coords, expected)

    def test_landmark_index_refreshed_incrementally(self):
        graph = ring_graph(24)
        with GraphService.open(graph, _config("landmark")) as service:
            index = service.strategy.index
            service.apply_updates([GraphUpdate.add_edge(100, 0)])
            assert not index.knows(100)
            service.refresh_routing()
            assert index.knows(100)
            vector = index.landmark_vector(100)
            neighbor = index.landmark_vector(0)
            finite = np.isfinite(neighbor)
            assert np.allclose(vector[finite], neighbor[finite] + 1.0)

    def test_auto_refresh_interval(self):
        graph = ring_graph(24)
        config = _config("embed", update_refresh_interval=2)
        with GraphService.open(graph, config) as service:
            first = service.apply_updates([GraphUpdate.add_node(50)])
            assert not first.refreshed
            second = service.apply_updates([GraphUpdate.add_node(51)])
            assert second.refreshed
            assert service.updates.refreshes == 1
            assert not service.updates.stale

    def test_adaptive_arm_strategies_share_staleness_and_refresh(self):
        graph = ring_graph(24)
        with GraphService.open(graph, _config("adaptive")) as service:
            arms = service.strategy.arms
            service.apply_updates([GraphUpdate.add_edge(100, 0)])
            assert 100 in arms["embed"].staleness
            assert 100 in arms["landmark"].staleness
            service.refresh_routing()
            assert arms["embed"].embedding.coordinates_of(100) is not None
            assert arms["landmark"].index.knows(100)

    def test_refresh_without_staleness_is_noop(self):
        graph = ring_graph(8)
        with GraphService.open(graph, _config("embed")) as service:
            assert service.refresh_routing() == 0
            assert service.updates.refreshes == 0

    def test_refresh_covers_memoized_assets_after_routing_swap(self):
        # Code-review regression: a memoized embedding must be refreshed
        # (and staleness only then cleared) even by a hash service — the
        # memo lives on the shared assets, and any embed service opened on
        # them later is handed that exact object.
        assets = GraphAssets(ring_graph(24))
        with GraphService.open(
            assets.graph, _config("embed"), assets=assets
        ) as service:
            embedding = service.strategy.embedding
        with GraphService.open(
            assets.graph, _config("hash"), assets=assets
        ) as service:
            service.apply_updates([GraphUpdate.add_edge(100, 0)])
            assert service.refresh_routing() == 2
            assert not service.updates.stale
            assert embedding.coordinates_of(100) is not None
        with GraphService.open(
            assets.graph, _config("embed"), assets=assets
        ) as service:
            assert service.strategy.embedding is embedding

    def test_refresh_keeps_staleness_when_nothing_refreshable(self):
        # Hash-only service, no smart preprocessing built: refresh cannot
        # make anything fresh, so the staleness set must survive.
        graph = ring_graph(8)
        with GraphService.open(graph, _config("hash")) as service:
            service.apply_updates([GraphUpdate.add_edge(100, 0)])
            assert service.refresh_routing() == 0
            assert service.updates.stale == {100, 0}

    def test_failed_server_write_keeps_layers_coherent(self):
        # Code-review regression: a StorageServerDown mid-write must not
        # leave caches serving the old record or skip staleness marking.
        import pytest as _pytest

        from repro.storage import StorageServerDown

        graph = ring_graph(12)
        with GraphService.open(graph, _config("hash")) as service:
            with service.session() as session:
                session.submit(NeighborAggregationQuery(node=0, hops=2))
                session.drain()
                for server in service.tier.servers:
                    server.fail()
                with _pytest.raises(StorageServerDown):
                    session.apply_updates([GraphUpdate.add_edge(1, 11)])
                # The graph half applied, caches dropped the dirty keys,
                # staleness is marked, and the batch counted as applied.
                assert graph.has_edge(1, 11)
                assert sum(
                    p.cache.stats.invalidations for p in service.processors
                ) >= 1
                assert service.updates.stale == {1, 11}
                assert service.updates.updates_applied == 1
                for server in service.tier.servers:
                    server.recover()
                session.submit(NeighborAggregationQuery(node=11, hops=1))
                session.drain()
                assert session.records[-1].stats.result == 3  # 10, 0 and 1


# ---------------------------------------------------------------------------
# Churn streams through sessions
# ---------------------------------------------------------------------------

class TestChurnStream:
    def test_stream_is_deterministic_and_typed(self):
        graph = ring_graph(30)
        kwargs = dict(num_hotspots=3, rounds=2, queries_per_visit=5,
                      radius=1, update_every=2, seed=5)
        first = list(churn_stream(graph, **kwargs))
        second = list(churn_stream(graph, **kwargs))
        assert [type(i).__name__ for i in first] == [
            type(i).__name__ for i in second
        ]
        pairs = [
            (a.kind, a.u, a.v) for a in first if isinstance(a, GraphUpdate)
        ]
        assert pairs == [
            (b.kind, b.u, b.v) for b in second if isinstance(b, GraphUpdate)
        ]
        queries = [i for i in first if not isinstance(i, GraphUpdate)]
        assert len(queries) == 3 * 2 * 5
        assert any(isinstance(i, GraphUpdate) for i in first)

    def test_generation_does_not_mutate_graph(self):
        graph = ring_graph(30)
        edges_before = set(graph.edges())
        list(churn_stream(graph, num_hotspots=2, rounds=2, queries_per_visit=4,
                          radius=1, seed=1))
        assert set(graph.edges()) == edges_before

    def test_session_stream_applies_updates_in_order(self):
        graph = ring_graph(30)
        workload = list(churn_stream(
            graph.copy(), num_hotspots=3, rounds=2, queries_per_visit=5,
            radius=1, update_every=2, new_node_prob=0.6, seed=5,
        ))
        num_queries = sum(
            1 for i in workload if not isinstance(i, GraphUpdate)
        )
        num_updates = len(workload) - num_queries
        config = _config("hash", submit_batch=8)
        with GraphService.open(graph, config) as service:
            with service.session() as session:
                submitted = session.stream(workload)
                report = session.report()
            assert submitted == num_queries
            assert len(report.records) == num_queries
            assert service.updates.updates_applied == num_updates
            assert service.updates.nodes_added > 0

    def test_churn_replays_identically_across_schemes(self):
        base = ring_graph(40)
        results = {}
        for routing in ("hash", "embed"):
            graph = base.copy()
            workload = list(churn_stream(
                graph, num_hotspots=3, rounds=2, queries_per_visit=5,
                radius=1, seed=9,
            ))
            config = _config(routing, submit_batch=8)
            with GraphService.open(graph, config) as service:
                with service.session() as session:
                    session.stream(workload)
                    report = session.report()
                results[routing] = (
                    len(report.records),
                    service.updates.updates_applied,
                    sorted(graph.nodes()),
                )
        assert results["hash"] == results["embed"]

    def test_removals_never_target_seed_edges(self):
        # Code-review regression: a drawn ball pair that is already
        # adjacent in the snapshot is upserted but never claimed, so no
        # removal can erode the seed topology.
        from repro.graph import ring_of_cliques

        graph = ring_of_cliques(6, 6)  # dense balls: adjacent draws likely
        seed_edges = set(graph.edges())
        removed = [
            (item.u, item.v)
            for item in churn_stream(
                graph, num_hotspots=4, rounds=3, queries_per_visit=8,
                radius=1, update_every=2, new_node_prob=0.2,
                remove_prob=0.5, seed=11,
            )
            if isinstance(item, GraphUpdate) and item.kind == "remove_edge"
        ]
        assert removed  # the shape actually exercised removals
        assert not (set(removed) & seed_edges)

    def test_invalid_parameters_rejected_eagerly(self):
        graph = ring_graph(12)
        with pytest.raises(ValueError, match="update_every"):
            churn_stream(graph, update_every=0)
        with pytest.raises(ValueError, match="must not exceed 1"):
            churn_stream(graph, new_node_prob=0.9, remove_prob=0.3)
        with pytest.raises(ValueError, match="query_new_prob"):
            churn_stream(graph, query_new_prob=1.5)
