"""Dynamic placement subsystem: heat tracking, the placement directory,
replica-aware read/write routing, the manager's plan/execute loop,
replica coherence under failure injection, and empty-directory parity."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, GraphService, GraphUpdate
from repro.core import NeighborAggregationQuery, PlacementConfig, QueryStats
from repro.core import gather_nodes
from repro.core.queries import QueryIdAllocator, query_ids_from
from repro.graph import Graph
from repro.storage import (
    HeatTracker,
    PlacementDirectory,
    StorageServerDown,
    pick_read_replica,
    record_for_node,
)
from repro.workloads import shifting_hotspot_stream


def ring_graph(n=12):
    graph = Graph()
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    return graph


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


#: A manager that exists (directory + heat attached, loop running) but
#: whose thresholds can never fire — the inert half of the parity tests.
INERT = PlacementConfig(
    interval_s=1e-4,
    half_life_s=1e-3,
    heat_threshold=float("inf"),
    replicate_threshold=float("inf"),
    release_fraction=0.0,
)


# ---------------------------------------------------------------------------
# Heat tracking
# ---------------------------------------------------------------------------

class TestPlacementConfig:
    @pytest.mark.parametrize("interval_s", [0.0, -1e-3])
    def test_non_positive_interval_rejected(self, interval_s):
        # A zero interval used to reschedule the planner at the same
        # instant forever, so drain() never returned.
        with pytest.raises(ValueError, match="interval_s"):
            PlacementConfig(interval_s=interval_s)


class TestHeatTracker:
    def test_half_life_decay(self):
        heat = HeatTracker(half_life_s=2.0, size=8)
        heat.touch(np.array([3]), now=0.0)
        assert heat.heat_of(3, 0.0) == pytest.approx(1.0)
        assert heat.heat_of(3, 2.0) == pytest.approx(0.5)
        assert heat.heat_of(3, 4.0) == pytest.approx(0.25)
        assert heat.heat_of(5, 4.0) == 0.0

    def test_touch_decays_then_accumulates(self):
        heat = HeatTracker(half_life_s=1.0, size=4)
        heat.touch(np.array([1]), now=0.0)
        heat.touch(np.array([1]), now=1.0, weight=2.0)
        # 1.0 decayed one half-life (0.5), plus the new weight.
        assert heat.heat_of(1, 1.0) == pytest.approx(2.5)
        assert heat.touches == 2

    def test_grows_to_fit_new_keys(self):
        heat = HeatTracker(half_life_s=1.0, size=2)
        heat.touch(np.array([0]), now=0.0)
        heat.touch(np.array([100]), now=0.0)
        assert len(heat) >= 101
        assert heat.heat_of(0, 0.0) == pytest.approx(1.0)
        assert heat.heat_of(100, 0.0) == pytest.approx(1.0)

    def test_top_k_orders_and_thresholds(self):
        heat = HeatTracker(half_life_s=10.0, size=8)
        heat.touch(np.array([2]), now=0.0, weight=5.0)
        heat.touch(np.array([4]), now=0.0, weight=9.0)
        heat.touch(np.array([6]), now=0.0, weight=1.0)
        idx, heats = heat.top_k(2, now=0.0)
        assert idx.tolist() == [4, 2]
        assert heats.tolist() == pytest.approx([9.0, 5.0])
        idx, _ = heat.top_k(8, now=0.0, threshold=4.0)
        assert set(idx.tolist()) == {2, 4}
        idx, _ = heat.top_k(8, now=0.0, threshold=float("inf"))
        assert idx.size == 0

    def test_snapshot_is_read_only(self):
        heat = HeatTracker(half_life_s=1.0, size=4)
        heat.touch(np.array([1]), now=0.0)
        snap = heat.snapshot(3.0)
        assert snap[1] == pytest.approx(0.125)
        # Stamps untouched: the same read later decays from t=0, not t=3.
        assert heat.heat_of(1, 3.0) == pytest.approx(0.125)

    def test_rejects_bad_half_life(self):
        with pytest.raises(ValueError, match="half-life"):
            HeatTracker(half_life_s=0.0)


# ---------------------------------------------------------------------------
# The placement directory
# ---------------------------------------------------------------------------

class TestPlacementDirectory:
    def test_place_get_and_dual_keying(self):
        directory = PlacementDirectory()
        assert not directory and len(directory) == 0
        entry = directory.place(key=70, cache_key=7, home=1, replicas=(1, 0))
        assert directory and len(directory) == 1
        assert directory.get(70) is entry
        assert directory.by_cache_key[7] is entry
        assert directory.version == 1

    def test_place_validates_replicas(self):
        directory = PlacementDirectory()
        with pytest.raises(ValueError, match="at least one replica"):
            directory.place(1, 1, 0, ())
        with pytest.raises(ValueError, match="duplicate"):
            directory.place(1, 1, 0, (0, 0))

    def test_place_updates_existing_entry_in_place(self):
        directory = PlacementDirectory()
        entry = directory.place(70, 7, 1, (1,))
        again = directory.place(70, 7, 1, (1, 0))
        assert again is entry
        assert entry.replicas == (1, 0)
        assert len(directory) == 1

    def test_drop_reverts_to_home(self):
        directory = PlacementDirectory()
        directory.place(70, 7, 1, (0,))
        assert directory.replicas_for(70, home=1) == (0,)
        directory.drop(70)
        assert directory.replicas_for(70, home=1) == (1,)
        assert not directory.by_cache_key
        assert directory.drop(70) is None

    def test_drop_replica_never_drops_the_last(self):
        directory = PlacementDirectory()
        directory.place(70, 7, 1, (1, 0))
        assert directory.drop_replica(70, 0)
        assert directory.get(70).replicas == (1,)
        # The last copy stays, even if its server is gone: reads must
        # surface the failure, not silently reroute to an empty home.
        assert not directory.drop_replica(70, 1)
        assert directory.get(70).replicas == (1,)
        assert not directory.drop_replica(99, 1)

    def test_exception_census(self):
        directory = PlacementDirectory()
        directory.place(70, 7, 1, (1, 0))   # replicated (home retained)
        directory.place(80, 8, 0, (1,))     # migrated (home left)
        assert directory.replicated_keys() == 1
        assert directory.migrated_keys() == 1

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["place", "drop", "drop_replica"]),
        st.integers(min_value=0, max_value=9),
        st.permutations(range(4)),
        st.integers(min_value=1, max_value=4),
    ), max_size=50))
    def test_holding_equals_a_sweep_of_entries(self, ops):
        # The per-server index against its definition: the entries that
        # list any of the servers, in directory order, after every
        # mix of places, overwrites, drops and replica drops.
        directory = PlacementDirectory()
        drops = 0
        for op, key, servers, count in ops:
            if op == "place":
                directory.place(key, key + 100, key % 4, servers[:count])
            elif op == "drop":
                drops += directory.drop(key) is not None
            else:
                directory.drop_replica(key, servers[0])
            for sids in ([], [0], [3], [1, 2], [0, 1, 2, 3]):
                assert directory.holding(sids) == [
                    entry for entry in directory.entries()
                    if set(entry.replicas) & set(sids)
                ]
        assert directory.drops == drops


class TestPickReadReplica:
    @staticmethod
    def _server(alive=True, in_use=0, queued=0):
        return SimpleNamespace(
            alive=alive,
            pipeline=SimpleNamespace(in_use=in_use, queue_length=queued),
        )

    def test_least_loaded_wins(self):
        servers = [self._server(in_use=2), self._server(in_use=0),
                   self._server(queued=1)]
        assert pick_read_replica((0, 1, 2), servers) == 1

    def test_ties_break_by_directory_order(self):
        servers = [self._server(), self._server()]
        assert pick_read_replica((1, 0), servers) == 1

    def test_dead_replicas_skipped(self):
        servers = [self._server(alive=False), self._server(in_use=9)]
        assert pick_read_replica((0, 1), servers) == 1

    def test_all_dead_falls_back_to_first(self):
        servers = [self._server(alive=False), self._server(alive=False)]
        assert pick_read_replica((1, 0), servers) == 1


# ---------------------------------------------------------------------------
# Tier routing through the directory
# ---------------------------------------------------------------------------

def _gather(service, node):
    """Fetch ``node``'s record through processor 0's gather path."""
    processor = service.processors[0]
    stats = QueryStats()
    nodes = np.array([service.assets.compact[node]], dtype=np.int64)

    def read():
        yield from gather_nodes(processor, nodes, stats)

    service.env.run(until=service.env.process(read()))
    return stats


class TestTierReplicaRouting:
    def _attached(self, service):
        service.tier.heat = HeatTracker(
            half_life_s=1.0, size=service.assets.num_nodes
        )
        return service.tier.directory

    def test_locate_and_plan_follow_the_directory(self):
        with GraphService.open(ring_graph(), _config()) as service:
            tier = service.tier
            node = 0
            home = tier.home(node)
            other = 1 - home
            assert tier.locate(node) is tier.servers[home]
            directory = self._attached(service)
            assert tier.locate(node) is tier.servers[home]  # still empty
            directory.place(node, service.assets.compact[node], home, (other,))
            assert tier.locate(node) is tier.servers[other]
            assert tier.replica_sids(node) == (other,)
            # The gather path reads from the directory's server too.
            _gather(service, node)
            assert tier.servers[other].requests_served == 1
            assert tier.servers[home].requests_served == 0

    def test_read_fails_over_to_live_replica(self):
        with GraphService.open(ring_graph(), _config()) as service:
            tier = service.tier
            directory = self._attached(service)
            node = 0
            home = tier.home(node)
            other = 1 - home
            directory.place(node, service.assets.compact[node], home,
                            (home, other))
            tier.servers[home].fail()
            stats = _gather(service, node)
            assert stats.storage_requests == 1
            assert stats.bytes_fetched == len(
                record_for_node(service.assets.graph, node).encode())
            assert tier.servers[other].requests_served == 1
            assert tier.servers[home].requests_served == 0
            tier.servers[home].recover()


# ---------------------------------------------------------------------------
# Write-all-or-invalidate: replica coherence under failure injection
# ---------------------------------------------------------------------------

class TestReplicaCoherenceUnderFailure:
    def _replicate(self, service, node):
        """Place ``node`` on both servers and materialise both copies."""
        tier = service.tier
        directory = tier.directory
        tier.heat = HeatTracker(
            half_life_s=1.0, size=service.assets.num_nodes
        )
        home = tier.home(node)
        directory.place(node, service.assets.compact[node], home,
                        (home, 1 - home))
        return directory, home

    def test_write_all_updates_every_replica(self):
        with GraphService.open(ring_graph(), _config()) as service:
            directory, home = self._replicate(service, 0)
            service.apply_updates([GraphUpdate.add_edge(0, 6)])
            tier = service.tier
            # Both copies carry the new edge: the rewritten record of
            # node 0 lands on both replicas, node 6's on its hash home.
            graph = service.assets.graph
            size = {n: len(record_for_node(graph, n).encode()) for n in (0, 6)}
            for sid in (home, 1 - home):
                expected = [0] + ([6] if tier.home(6) == sid else [])
                server = tier.servers[sid]
                assert server.records_written == len(expected)
                assert server.bytes_written == sum(size[n] for n in expected)
            assert directory.get(0).replicas == (home, 1 - home)

    def test_mid_write_failure_survivor_covers_and_replica_dropped(self):
        # The PR 5 mid-write regression, extended to replica sets: one
        # server dies mid write-all. The dirty key has a live copy, so
        # the batch *succeeds*; the dead replica leaves the directory at
        # the failure-known instant; caches and staleness behave as for
        # any applied update.
        with GraphService.open(ring_graph(), _config()) as service:
            tier = service.tier
            directory, home = self._replicate(service, 0)
            survivor = 1 - home
            # A second dirty node owned by the survivor keeps every key
            # coverable with the home server down.
            other = next(
                n for n in range(1, 12)
                if tier.home(n) == survivor
            )
            with service.session() as session:
                session.submit(NeighborAggregationQuery(node=0, hops=1))
                session.drain()
                tier.servers[home].fail()
                session.apply_updates([GraphUpdate.add_edge(0, other)])
                assert service.updates.updates_applied == 1
                assert {0, other} <= service.updates.stale
                assert sum(
                    p.cache.stats.invalidations for p in service.processors
                ) >= 1
                # The failed copy is gone; reads now route to the survivor.
                assert directory.get(0).replicas == (survivor,)
                assert tier.locate(0) is tier.servers[survivor]
                tier.servers[home].recover()
                session.submit(NeighborAggregationQuery(node=other, hops=1))
                session.drain()
                assert session.records[-1].stats.result is not None

    def test_all_replicas_down_still_raises(self):
        # Losing every copy of a dirty key is still a failed write: the
        # legacy StorageServerDown surfaces and the replica set is kept
        # (dead), so later reads surface the loss too.
        with GraphService.open(ring_graph(), _config()) as service:
            directory, home = self._replicate(service, 0)
            for server in service.tier.servers:
                server.fail()
            with pytest.raises(StorageServerDown):
                service.apply_updates([GraphUpdate.add_edge(0, 6)])
            assert directory.get(0).replicas == (home, 1 - home)
            assert service.updates.stale >= {0, 6}


# ---------------------------------------------------------------------------
# The manager: plan + timed execution
# ---------------------------------------------------------------------------

class TestPlacementManager:
    def _service(self, **placement_kw):
        placement = PlacementConfig(**{
            "interval_s": 100.0,  # never fires on its own in these tests
            "half_life_s": 10.0,
            **placement_kw,
        })
        return GraphService.open(ring_graph(), _config(placement=placement))

    def test_replication_plans_execute_and_land_copies(self):
        with self._service(heat_threshold=2.0, replicate_threshold=2.0,
                           replicas=2) as service:
            manager = service.placement
            tier = service.tier
            node, idx = 0, service.assets.compact[0]
            home = tier.home(node)
            manager.heat.touch(np.array([idx]), service.env.now, weight=5.0)
            moves = manager.plan()
            assert [m.kind for m in moves] == ["replicate"]
            proc = service.env.process(manager._execute(moves))
            before = service.env.now
            service.env.run(until=proc)
            assert service.env.now > before  # copies took simulated time
            assert manager.replications == 1
            assert manager.directory.get(node).replicas == (home, 1 - home)
            assert tier.replica_sids(node) == (home, 1 - home)
            assert manager.migration_bytes > 0
            assert tier.servers[1 - home].records_written == 1

    def test_target_dying_mid_copy_fails_the_move_under_sanitize(self):
        # Two legs; the second target dies after planning. Its leg fails
        # while the first is still in service — counted in failed_moves,
        # never an unhandled failure (sanitize x dead-write regression).
        placement = PlacementConfig(
            interval_s=100.0, half_life_s=10.0, heat_threshold=2.0,
            replicate_threshold=2.0, replicas=3,
        )
        config = _config(num_storage_servers=3, placement=placement)
        with GraphService.open(ring_graph(), config, sanitize=True) as service:
            manager = service.placement
            idx = service.assets.compact[0]
            manager.heat.touch(np.array([idx]), service.env.now, weight=5.0)
            moves = manager.plan()
            assert [m.kind for m in moves] == ["replicate"]
            first, second = moves[0].write_to
            service.tier.servers[second].fail()
            service.env.run(until=service.env.process(manager._execute(moves)))
            assert manager.failed_moves == 1
            assert manager.replications == 0
            assert manager.directory.get(0) is None
            assert service.tier.servers[first].records_written == 1

    def test_migration_moves_record_and_deletes_old_copy(self):
        with self._service(heat_threshold=2.0, replicate_threshold=1e9,
                           migrate_margin=0.25) as service:
            manager = service.placement
            tier = service.tier
            node, idx = 0, service.assets.compact[0]
            home = tier.home(node)
            target = 1 - home
            manager.heat.touch(np.array([idx]), service.env.now, weight=5.0)
            # Skew the load proxy: the holder served everything lately.
            tier.servers[home].requests_served += 100
            moves = manager.plan()
            assert [m.kind for m in moves] == ["migrate"]
            proc = service.env.process(manager._execute(moves))
            service.env.run(until=proc)
            assert manager.migrations == 1
            assert manager.directory.get(node).replicas == (target,)
            assert manager.directory.migrated_keys() == 1
            assert tier.replica_sids(node) == (target,)
            assert tier.locate(node) is tier.servers[target]

    def test_cooled_records_are_released(self):
        # interval_s large enough that the manager's own loop never fires
        # inside the 1000 s idle window — this test drives plan() by hand.
        with self._service(interval_s=1e9, heat_threshold=2.0,
                           replicate_threshold=2.0, replicas=2,
                           release_fraction=0.5) as service:
            manager = service.placement
            node, idx = 0, service.assets.compact[0]
            manager.heat.touch(np.array([idx]), service.env.now, weight=5.0)
            proc = service.env.process(manager._execute(manager.plan()))
            service.env.run(until=proc)
            assert manager.directory.get(node) is not None
            # Long idle: heat decays below the release floor...
            timeout = service.env.timeout(1000.0)
            service.env.run(until=timeout)
            moves = manager.plan()
            assert [m.kind for m in moves] == ["release"]
            proc = service.env.process(manager._execute(moves))
            service.env.run(until=proc)
            # ...and the record reverts to hash-home-only.
            assert manager.directory.get(node) is None
            assert manager.releases == 1
            home = service.tier.home(node)
            assert service.tier.replica_sids(node) == (home,)
            assert service.tier.locate(node) is service.tier.servers[home]

    def test_round_byte_budget_bounds_a_round(self):
        with self._service(heat_threshold=1.0, replicate_threshold=1.0,
                           replicas=2, top_k=16,
                           round_byte_budget=1) as service:
            manager = service.placement
            idxs = np.array([service.assets.compact[n] for n in range(6)])
            manager.heat.touch(idxs, service.env.now, weight=5.0)
            assert manager.plan() == []  # nothing affordable this round

    def test_manager_runs_inside_a_serving_session(self):
        # End to end: a skewed session drives heat through the gather
        # path, the periodic loop replicates, and the report carries the
        # subsystem's stats.
        placement = PlacementConfig(
            interval_s=5e-5, half_life_s=5e-4, heat_threshold=2.0,
            replicate_threshold=2.0, replicas=2, release_fraction=0.0,
        )
        config = _config(cache_capacity_bytes=1 << 10, placement=placement)
        with GraphService.open(ring_graph(24), config) as service:
            with service.session() as session:
                for _ in range(60):
                    session.submit(NeighborAggregationQuery(node=0, hops=2))
                session.drain()
                report = session.report()
            manager = service.placement
            assert manager.rounds > 0
            assert manager.heat.touches > 0
            assert manager.replications > 0
            assert report.placement["replications"] == manager.replications
            assert report.migration_bytes() == manager.migration_bytes > 0
            per_server = report.per_server_stats()
            assert len(per_server) == 2
            assert sum(s["bytes_written"] for s in per_server) >= (
                report.migration_bytes()
            )
            summary = report.summary()
            assert summary["migration_bytes"] == report.migration_bytes()
            assert "storage_request_imbalance" in summary
            assert any(s["top_heat"] for s in per_server)


# ---------------------------------------------------------------------------
# Empty-directory parity: the subsystem is provably zero-cost when unused
# ---------------------------------------------------------------------------

class TestEmptyDirectoryParity:
    @staticmethod
    def _run(graph, placement):
        config = _config(placement=placement)
        with query_ids_from(QueryIdAllocator(start=9_000_000)):
            queries = list(shifting_hotspot_stream(
                graph, num_phases=2, queries_per_phase=40, radius=1,
                hops=2, seed=3,
            ))
        with GraphService.open(graph, config) as service:
            with service.session() as session:
                for query in queries:
                    session.submit(query)
                session.drain()
                return session.report()

    def test_inert_manager_is_bit_identical_to_disabled(self):
        # A manager whose thresholds never fire leaves the directory
        # empty; every overlay guard short-circuits, heat bookkeeping
        # spends zero simulated time, and the full per-query timing
        # stream is *exactly* the placement=None stream.
        disabled = self._run(ring_graph(32), None)
        inert = self._run(ring_graph(32), INERT)
        def key(r):
            return (r.query_id, r.processor, r.decision_time, r.enqueued_at,
                    r.started_at, r.finished_at, r.stats.cache_hits,
                    r.stats.cache_misses, r.stats.bytes_fetched,
                    r.stats.storage_requests, r.stats.result)

        assert [key(r) for r in disabled.records] == [
            key(r) for r in inert.records
        ]
        assert inert.placement is not None
        assert inert.placement["active_placements"] == 0
        assert inert.placement["migration_bytes"] == 0
        assert inert.placement["rounds"] > 0
        assert inert.placement["heat_touches"] > 0
        assert disabled.placement is None
