"""Elastic cluster topology: membership epochs, bounded-movement
rebalancing, join/leave mid-session, chaos schedules, inert-topology
parity, and property-based totality/replay invariants."""

import hashlib
import json

import pytest

from repro import ClusterConfig, GraphService, TopologyConfig
from repro.core import ChaosEvent, NeighborAggregationQuery, PlacementConfig
from repro.core.queries import QueryIdAllocator, query_ids_from
from repro.core.routing import HashRouting
from repro.core.topology import CHAOS_ACTIONS
from repro.datasets import webgraph_like
from repro.graph import GraphUpdate, ring_of_cliques
from repro.workloads import churn_stream, poisson_arrivals, shifting_hotspot_stream


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(8, 5)


def _config(routing="hash", **kwargs):
    defaults = dict(
        num_processors=3,
        num_storage_servers=2,
        cache_capacity_bytes=1 << 20,
        num_landmarks=6,
        min_separation=1,
        dim=3,
        embed_method="lmds",
        topology=TopologyConfig(),
    )
    defaults.update(kwargs)
    return ClusterConfig(routing=routing, **defaults)


def _queries(nodes, hops=2):
    return [NeighborAggregationQuery(node=n, hops=hops) for n in nodes]


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

class TestConfig:
    def test_chaos_event_validation(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosEvent(at=0.0, action="explode", target=0)
        with pytest.raises(ValueError, match="needs a target"):
            ChaosEvent(at=0.0, action="fail_server")
        with pytest.raises(ValueError, match="non-negative"):
            ChaosEvent(at=-1.0, action="add_processor")
        for action in CHAOS_ACTIONS:
            ChaosEvent(at=0.0, action=action, target=0)

    @pytest.mark.parametrize("replication", [0, -1])
    def test_replication_below_one_rejected(self, replication):
        # Used to be clamped to one copy without a word.
        with pytest.raises(ValueError, match="replication"):
            TopologyConfig(replication=replication)

    def test_negative_repair_interval_rejected(self):
        # Used to kill the repair process on a negative timeout that
        # nobody observed; queries then failed with an unrelated error.
        with pytest.raises(ValueError, match="repair_interval_s"):
            TopologyConfig(repair_interval_s=-1)

    def test_negative_retry_limit_rejected(self):
        # Used to behave as 0 (fail fast) without a word.
        with pytest.raises(ValueError, match="retry_limit"):
            TopologyConfig(retry_limit=-1)

    def test_no_topology_by_default(self, graph):
        with GraphService.open(graph, ClusterConfig(
            num_processors=2, num_storage_servers=2, routing="hash",
        )) as service:
            assert service.topology is None
            assert len(service.tier.directory) == 0


# ---------------------------------------------------------------------------
# Join / leave through the topology layer
# ---------------------------------------------------------------------------

class TestMembership:
    def test_join_adds_dense_id_and_serves_traffic(self, graph):
        with GraphService.open(graph, _config()) as service:
            topology = service.topology
            with service.session() as session:
                session.submit_many(_queries(range(10)))
                session.drain()
                pid = topology.add_processor()
                assert pid == 3
                assert service.router.num_processors == 4
                assert topology.epoch == 1
                session.submit_many(_queries(range(40)))
                session.drain()
                report = session.report()
            by_processor = report.per_processor_counts()
            assert by_processor.get(3, 0) > 0  # the joiner earns traffic
            warmup = topology.warmup_stats()
            assert warmup[0]["processor"] == 3
            assert warmup[0]["queries_executed"] == by_processor[3]
            # The report reflects the live membership, not the config.
            assert report.num_processors == 4

    def test_joiner_is_built_like_the_founders(self):
        # One factory: a joiner after a live update carries the founders'
        # cache settings and routes storage reads by the *current* owner
        # array (grown by the update), armed with the topology's retries.
        private = ring_of_cliques(6, 5)  # the update mutates the graph
        config = _config(cache_policy="fifo", cache_capacity_bytes=4096)
        with GraphService.open(private, config) as service:
            service.apply_updates([GraphUpdate.add_node(10_000)])
            pid = service.topology.add_processor()
            joiner, founder = service.processors[pid], service.processors[0]
            assert joiner.cache.policy == founder.cache.policy == "fifo"
            assert joiner.cache.capacity_bytes == founder.cache.capacity_bytes
            assert joiner.use_cache == founder.use_cache
            assert joiner.costs == founder.costs
            assert joiner.owner_of is founder.owner_of
            assert len(joiner.owner_of) == private.num_nodes
            assert joiner.storage_retry_limit == founder.storage_retry_limit > 0

    def test_join_moves_bounded_hash_share(self, graph):
        with GraphService.open(graph, _config(routing="hash")) as service:
            topology = service.topology
            strategy = service.strategy
            assert isinstance(strategy, HashRouting)
            before = list(strategy.owner_table())
            topology.add_processor()
            after = strategy.owner_table()
            moved = sum(1 for a, b in zip(before, after) if a != b)
            # A joiner takes ~1/(P+1) of the slots and nothing else moves.
            assert moved == topology.moved_entries
            assert 0 < moved <= -(-len(after) // 4) + 3
            assert sorted(set(after)) == [0, 1, 2, 3]

    def test_leave_reassigns_only_the_leaver(self, graph):
        with GraphService.open(graph, _config(routing="hash")) as service:
            topology = service.topology
            strategy = service.strategy
            before = list(strategy.owner_table())
            topology.remove_processor(1)
            after = strategy.owner_table()
            assert all(owner != 1 for owner in after)
            # Only the leaver's slots moved.
            assert all(
                a == b for a, b in zip(before, after) if a != 1
            )
            assert topology.epoch == 1
            assert topology.events[0]["action"] == "remove_processor"

    def test_leave_requeues_backlog_to_survivors(self, graph):
        with GraphService.open(
            graph, _config(routing="hash", steal=False)
        ) as service:
            topology = service.topology
            router = service.router
            with service.session() as session:
                nodes = [n for n in range(0, 30, 3) if graph.has_node(n)]
                session.submit_many(_queries(nodes))  # hash -> processor 0
                requeued = topology.remove_processor(0)
                assert requeued == topology.events[0]["requeued"]
                session.drain()
                report = session.report()
            finished_by_0 = [r for r in report.records if r.processor == 0]
            assert len(finished_by_0) <= 1  # at most its in-flight query
            assert len(report.records) == len(nodes)

    def test_removing_last_alive_processor_with_backlog_refuses(self, graph):
        with GraphService.open(
            graph, _config(routing="hash", steal=False)
        ) as service:
            topology = service.topology
            topology.remove_processor(1)
            topology.remove_processor(2)
            with service.session() as session:
                session.submit_many(_queries(range(5)))
                # Queued + pooled work would strand with nobody left.
                with pytest.raises(RuntimeError, match="last alive"):
                    topology.remove_processor(0)
                session.drain()
                # Drained: the same removal is now legal.
                topology.remove_processor(0)
                assert sum(service.router.alive_mask()) == 0
            assert topology.epoch == 3

    def test_session_survives_join_and_leave_mid_serve(self, graph):
        # Membership changes while an open-loop serve is in flight: the
        # chaos schedule joins one processor and removes another while
        # arrivals keep landing; every query completes exactly once.
        with GraphService.open(graph, _config(routing="hash")) as service:
            with query_ids_from(QueryIdAllocator(start=7_500_000)):
                queries = _queries([n for n in range(40) if graph.has_node(n)])
            arrivals = poisson_arrivals(
                queries, rate=150_000.0, tenant="t", seed=5
            )
            service.topology.schedule([
                ChaosEvent(at=5e-5, action="add_processor"),
                ChaosEvent(at=1e-4, action="remove_processor", target=0),
            ])
            with service.session() as session:
                session.serve(arrivals)
                report = session.report()
            assert len(report.records) == len(queries)
            assert len({r.query_id for r in report.records}) == len(queries)
            assert service.topology.epoch == 2

    def test_adaptive_arm_state_survives_membership_change(self, graph):
        config = _config(routing="adaptive", adaptive_epoch=8)
        with GraphService.open(graph, config) as service:
            with service.session() as session:
                session.submit_many(_queries(range(30)))
                session.drain()
                strategy = service.strategy
                state_before = strategy.snapshot()
                assert state_before["pulls"]  # something was learned
                service.topology.add_processor()
                # Learned per-(class, arm) state is keyed by arm name and
                # survives the rebalance untouched.
                state_after = strategy.snapshot()
                for key in ("pulls", "committed", "miss_ratio_ewma"):
                    assert state_after[key] == state_before[key]
                session.submit_many(_queries(
                    n for n in range(30, 60) if graph.has_node(n)
                ))
                session.drain()


# ---------------------------------------------------------------------------
# Inert-topology parity (the bit-identical guardrail)
# ---------------------------------------------------------------------------

class TestInertTopologyParity:
    @staticmethod
    def _run(graph, topology):
        config = _config(routing="embed", topology=topology)
        with query_ids_from(QueryIdAllocator(start=9_500_000)):
            queries = list(shifting_hotspot_stream(
                graph, num_phases=2, queries_per_phase=40, radius=1,
                hops=2, seed=3,
            ))
        with GraphService.open(graph, config) as service:
            if service.topology is not None:
                service.topology.schedule([])  # empty schedule: no process
            with service.session() as session:
                session.stream(queries)
                session.drain()
                return session.report()

    def test_idle_topology_is_bit_identical_to_none(self, graph):
        plain = self._run(graph, None)
        idle = self._run(graph, TopologyConfig())

        def key(r):
            return (r.query_id, r.processor, r.decision_time, r.enqueued_at,
                    r.started_at, r.finished_at, r.stats.cache_hits,
                    r.stats.cache_misses, r.stats.bytes_fetched,
                    r.stats.storage_requests, r.stats.result)

        assert [key(r) for r in plain.records] == [
            key(r) for r in idle.records
        ]

    def test_idle_topology_summary_has_no_downtime_keys(self, graph):
        summary = self._run(graph, TopologyConfig()).summary()
        assert "storage_downtime_s" not in summary
        assert "storage_outages" not in summary


# ---------------------------------------------------------------------------
# Property-based: random interleavings keep the tables total & replayable
# ---------------------------------------------------------------------------

class TestMembershipProperties:
    @staticmethod
    def _chaos_walk(seed):
        """One deterministic random interleaving of membership ops plus
        traffic; returns (record keys, epoch, owner tables per epoch)."""
        import numpy as np

        rng = np.random.default_rng(seed)
        graph = ring_of_cliques(6, 4)
        config = _config(routing="hash", num_processors=3)
        tables = []
        with GraphService.open(graph, config) as service:
            topology = service.topology
            router = service.router
            with query_ids_from(QueryIdAllocator(start=1_000_000)):
                waves = [
                    _queries([int(n) for n in rng.integers(0, 24, size=6)])
                    for _ in range(8)
                ]
            with service.session() as session:
                for wave in waves:
                    op = int(rng.integers(0, 4))
                    alive = router.alive_mask()
                    if op == 0 and sum(alive) >= 2:
                        victims = [
                            p for p, up in enumerate(alive) if up
                        ]
                        topology.remove_processor(
                            victims[int(rng.integers(0, len(victims)))]
                        )
                    elif op == 1 and router.num_processors < 6:
                        topology.add_processor()
                    elif op == 2:
                        topology.fail_server(
                            int(rng.integers(0, service.tier.num_servers))
                        )
                    else:
                        for server in service.tier.servers:
                            if not server.alive:
                                topology.recover_server(server.server_id)
                                break
                    strategy = service.strategy
                    tables.append(
                        (topology.epoch, list(strategy.owner_table()))
                    )
                    session.submit_many(wave)
                    session.drain()
                report = session.report()
            keys = [
                (r.query_id, r.processor, r.started_at, r.finished_at)
                for r in report.records
            ]
            return keys, topology.epoch, tables, router.alive_mask()

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_interleavings_keep_totality_and_replay(self, seed):
        keys, epoch, tables, alive = self._chaos_walk(seed)
        # Totality: after every step, each slot names exactly one
        # processor, and the final table routes only to alive ones.
        for _epoch, table in tables:
            assert all(isinstance(owner, int) for owner in table)
        final_alive = {p for p, up in enumerate(alive) if up}
        assert set(tables[-1][1]) <= final_alive
        # Determinism: the identical walk replays bit-identically.
        keys2, epoch2, tables2, alive2 = self._chaos_walk(seed)
        assert keys == keys2
        assert epoch == epoch2
        assert tables == tables2
        assert alive == alive2


# ---------------------------------------------------------------------------
# Chaos schedules
# ---------------------------------------------------------------------------

class TestChaosSchedule:
    def test_events_fire_at_their_instants(self, graph):
        with GraphService.open(graph, _config()) as service:
            topology = service.topology
            topology.schedule([
                ChaosEvent(at=2e-4, action="fail_server", target=0),
                ChaosEvent(at=5e-4, action="recover_server", target=0),
                ChaosEvent(at=6e-4, action="add_processor"),
            ])
            service.env.run(until=1e-3)
            recorded = [
                (e["action"], e["at"]) for e in topology.events
            ]
            assert recorded == [
                ("fail_server", 2e-4),
                ("recover_server", 5e-4),
                ("add_processor", 6e-4),
            ]
            assert topology.epoch == 3
            windows = service.tier.servers[0].downtime_windows()
            assert windows == [(2e-4, 5e-4)]

    def test_redundant_fail_and_recover_are_idempotent(self, graph):
        with GraphService.open(graph, _config()) as service:
            topology = service.topology
            topology.fail_server(0)
            topology.fail_server(0)   # no-op
            topology.recover_server(0)
            topology.recover_server(0)  # no-op
            assert topology.epoch == 2
            assert len(topology.events) == 2


# ---------------------------------------------------------------------------
# What a repair round may skip
# ---------------------------------------------------------------------------

class TestRepairRoundVisits:
    """Directed rounds on a 2-server outage with a 1-byte budget (so each
    round admits exactly its first item), driven one round at a time.
    A round skips lost keys a previous round found covered and fail-back
    keys whose home is down; these pin when it must look again."""

    def _open(self, graph):
        config = _config(topology=TopologyConfig(
            repair_interval_s=1.0, repair_byte_budget=1))
        service = GraphService.open(graph, config)
        owners = service.assets.owner_array(2).tolist()
        lost = [idx for idx, owner in enumerate(owners) if owner == 0]
        rounds = []
        land = {"on": True}
        mover = service.tier.move_process

        def recording(moves, network=None):
            rounds[-1].extend((move.kind, move.cache_key) for move in moves)
            if land["on"]:
                return (yield from mover(moves, network))
            yield service.env.timeout(0)  # nothing lands: every leg lost
            return {}

        service.tier.move_process = recording
        service.topology.fail_server(0)

        def run_round():
            rounds.append([])
            env = service.env
            env.run(until=env.process(service.topology._repair_round()))
            return rounds[-1]

        return service, lost, land, run_round

    def test_a_lost_key_whose_move_failed_is_planned_again(self, graph):
        service, lost, land, run_round = self._open(graph)
        with service:
            land["on"] = False
            assert run_round() == [("repair", lost[0])]
            land["on"] = True
            assert run_round() == [("repair", lost[0])]
            assert run_round() == [("repair", lost[1])]

    def test_a_dropped_entry_is_seen_again(self, graph):
        # Nothing drops the entry of a record whose home is down today
        # (placement defers releases, fail-back needs the home); if
        # something did, the record is lost again and its fail-back key
        # is stale, and the next rounds must notice both.
        service, lost, _land, run_round = self._open(graph)
        with service:
            topology = service.topology
            node_ids = service.assets.node_ids
            first, second, other = lost[0], lost[1], lost[-1]
            assert run_round() == [("repair", first)]
            assert run_round() == [("repair", second)]  # scan is past first
            keys = {int(node_ids[idx]) for idx in (first, second)}
            assert set(topology._failover_keys) == keys
            service.tier.directory.drop(int(node_ids[first]))
            topology._note_read_failure([other])
            assert run_round() == [("demand", other)]
            keys = {int(node_ids[idx]) for idx in (second, other)}
            assert set(topology._failover_keys) == keys
            assert run_round() == [("repair", first)]


# ---------------------------------------------------------------------------
# Pinned repair plans
# ---------------------------------------------------------------------------

class TestPinnedRepairPlans:
    """Every record move of a churn-plus-chaos run on webgraph (scale
    0.05, seed 1), by sha256.

    Live updates, dynamic placement and failover share one record mover;
    the run kills two storage servers, recovers both and joins a
    processor while updates land. The digest covers every mover call in
    order -- each move's ``(kind, key, write_to, replicas, landed)`` --
    plus the final directory and ``topology.snapshot()``. A repair round
    that visits its candidates in another order, admits a different
    record or skips a fail-back changes it, so any rewrite of the repair
    planner must keep it. Recorded on the per-round full-scan planner.
    """

    PINNED = "78754e5355ab1ddd0ca7ce0acd8fca8200b16bc43fd2bd8dc4095d3bdbfa470b"

    def _run(self):
        rate = 41_000.0
        graph = webgraph_like(scale=0.05, seed=1)
        with query_ids_from(QueryIdAllocator(start=8_000_000)):
            items = list(churn_stream(
                graph, num_hotspots=8, rounds=3, queries_per_visit=10,
                radius=2, hops=2, update_every=5, updates_per_burst=3,
                new_node_prob=0.5, remove_prob=0.2, attach_degree=3,
                query_new_prob=0.35, seed=5))
        span = sum(1 for item in items if not isinstance(item, GraphUpdate)) / rate
        config = ClusterConfig(
            num_processors=4, num_storage_servers=4, routing="hash",
            steal=False, cache_capacity_bytes=2 << 10,
            topology=TopologyConfig(
                repair_interval_s=span / 1600, repair_byte_budget=1 << 10,
                retry_limit=4096),
            placement=PlacementConfig(
                interval_s=span / 40, half_life_s=span / 16,
                heat_threshold=3, replicate_threshold=3, replicas=2,
                top_k=16, round_byte_budget=8 << 10, migrate_margin=0.5,
                release_fraction=0.1),
        )
        waves = []
        with GraphService.open(graph, config) as service:
            tier = service.tier
            move_process = tier.move_process

            def recording(moves, network=None):
                down = yield from move_process(moves, network)
                waves.append([
                    (m.kind, m.key, m.write_to, m.replicas, m.landed)
                    for m in moves
                ])
                return down

            tier.move_process = recording
            service.topology.schedule([
                ChaosEvent(at=0.15 * span, action="fail_server", target=0),
                ChaosEvent(at=0.30 * span, action="fail_server", target=2),
                ChaosEvent(at=0.45 * span, action="recover_server", target=0),
                ChaosEvent(at=0.55 * span, action="add_processor"),
                ChaosEvent(at=0.65 * span, action="recover_server", target=2),
            ])
            with service.session() as session:
                session.serve(poisson_arrivals(items, rate=rate, tenant="c", seed=7))
                session.report()
            directory = [
                (e.key, e.cache_key, e.home, e.replicas)
                for e in tier.directory.entries()
            ]
            snapshot = service.topology.snapshot()
        return waves, directory, snapshot

    def test_repair_plans_are_unchanged(self):
        waves, directory, snapshot = self._run()
        kinds = {move[0] for wave in waves for move in wave}
        # The run exercises every planner the digest is meant to pin.
        assert {"repair", "demand", "failback", "rewrite"} <= kinds
        assert {"replicate", "release", "update"} <= kinds
        assert any(not move[4] for wave in waves for move in wave)
        assert (snapshot["repair_bytes"], snapshot["failbacks"],
                snapshot["demand_repairs"]) == (109_868, 255, 151)
        blob = json.dumps([waves, directory, snapshot], default=str)
        assert hashlib.sha256(blob.encode()).hexdigest() == self.PINNED
