"""Storage failover end-to-end: retry-through-outage, repair /
re-replication, fail-back convergence, downtime metrics, tolerated
update writes and replica-aware reads under failure."""

import numpy as np
import pytest

from repro import ClusterConfig, GraphService, TopologyConfig
from repro.core import ChaosEvent, NeighborAggregationQuery, QueryStats
from repro.core import gather_nodes
from repro.core.queries import QueryIdAllocator, query_ids_from
from repro.graph import GraphUpdate, ring_of_cliques
from repro.storage import StorageServerDown, pick_read_replica
from repro.workloads import poisson_arrivals


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(8, 5)


def _config(**kwargs):
    defaults = dict(
        num_processors=3,
        num_storage_servers=2,
        routing="hash",
        cache_capacity_bytes=1 << 20,
        topology=TopologyConfig(repair_interval_s=5e-5),
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


def _queries(nodes, hops=2):
    return [NeighborAggregationQuery(node=n, hops=hops) for n in nodes]


def _serve_through_outage(graph, config, fail_at=5e-5, recover_at=6e-4):
    """Open-loop serve across a scheduled outage; returns
    (service report, topology snapshot)."""
    with GraphService.open(graph, config) as service:
        with query_ids_from(QueryIdAllocator(start=4_000_000)):
            queries = _queries(
                [n for n in range(80) if graph.has_node(n)] * 2
            )
        arrivals = poisson_arrivals(
            queries, rate=120_000.0, tenant="t", seed=9
        )
        service.topology.schedule([
            ChaosEvent(at=fail_at, action="fail_server", target=0),
            ChaosEvent(at=recover_at, action="recover_server", target=0),
        ])
        with service.session() as session:
            session.serve(arrivals)
            report = session.report()
        return report, service.topology.snapshot()


class TestFailover:
    def test_queries_survive_an_outage(self, graph):
        report, snap = _serve_through_outage(graph, _config())
        # Every query completed despite the dead server: a mix of
        # retry-until-repair and directory-redirected reads.
        assert len(report.records) == 80
        assert snap["repair_records"] > 0
        assert snap["storage_retries"] > 0

    def test_failback_converges_to_hash_placement(self, graph):
        with GraphService.open(graph, _config()) as service:
            topology = service.topology
            with service.session() as session:
                session.submit_many(_queries(range(10)))
                session.drain()
                topology.fail_server(0)
                # Let repair re-home the dead server's records.
                service.env.run(until=service.env.now + 2e-3)
                assert len(topology.directory) > 0
                assert topology.snapshot()["failover_keys"] > 0
                topology.recover_server(0)
                service.env.run(until=service.env.now + 5e-3)
                # Fail-back drained every exception: pure hash again.
                assert len(topology.directory) == 0
                assert topology.snapshot()["failover_keys"] == 0
                assert topology.failbacks > 0
                session.submit_many(_queries(range(10, 20)))
                session.drain()

    def test_no_failover_ablation_surfaces_the_error(self, graph):
        config = _config(topology=TopologyConfig(failover=False))
        with pytest.raises(StorageServerDown):
            _serve_through_outage(graph, config, recover_at=1.0)

    def test_downtime_windows_in_report(self, graph):
        report, _snap = _serve_through_outage(graph, _config())
        summary = report.summary()
        assert summary["storage_outages"] == 1
        assert summary["storage_recoveries"] == 1
        assert summary["storage_downtime_s"] == pytest.approx(
            6e-4 - 5e-5
        )
        assert summary["mean_recovery_s"] == pytest.approx(6e-4 - 5e-5)
        assert report.recovery_times_s() == [pytest.approx(6e-4 - 5e-5)]
        stats = report.per_server_stats()
        assert stats[0]["downtime_windows"] == [[5e-5, 6e-4]]
        assert stats[0]["recovered"] is True
        assert "downtime_windows" not in stats[1]  # never failed

    def test_repair_respects_byte_budget(self, graph):
        tiny = _config(topology=TopologyConfig(
            repair_interval_s=5e-5, repair_byte_budget=64,
        ))
        big = _config()
        with GraphService.open(graph, tiny) as service:
            service.topology.fail_server(0)
            service.env.run(until=2e-4)
            few = service.topology.repair_records
        with GraphService.open(graph, big) as service:
            service.topology.fail_server(0)
            service.env.run(until=2e-4)
            many = service.topology.repair_records
        assert 0 < few < many


def _split_pair(service):
    """Two non-adjacent nodes ``u < v`` homed on different servers, so a
    batch touching both writes ``u``'s leg first and ``v``'s second."""
    tier = service.tier
    return next(
        (u, v) for u in range(5) for v in range(15, 20)
        if tier.home(u) != tier.home(v)
    )


class TestEveryServerDead:
    def test_repair_parks_and_drain_raises(self, graph):
        """With failover on and no live server, repair has nowhere to
        write: the loop parks instead of rescheduling itself forever, so
        drain() surfaces the reader's error instead of hanging."""
        self._drill(graph, sanitize=False)

    def test_sanitized_run_surfaces_the_crash_at_drain_too(self, graph):
        # The crashed worker is observed, so the sanitizer's trap does
        # not fire mid-run: the error surfaces at drain() as above.
        self._drill(graph, sanitize=True)

    @staticmethod
    def _drill(graph, sanitize):
        config = _config(topology=TopologyConfig(retry_limit=0))
        with GraphService.open(graph, config, sanitize=sanitize) as service:
            topology = service.topology
            session = service.session()
            topology.fail_server(0)
            topology.fail_server(1)
            session.submit_many(_queries([0]))
            # Bounded in simulated time, so a loop that keeps spinning
            # fails here instead of hanging in drain().
            service.env.run(until=1.0)
            assert topology._repair_process is None
            assert topology.repair_rounds == 1
            with pytest.raises(StorageServerDown):
                session.drain()
            # The recover that revives a server restarts repair.
            topology.recover_server(0)
            assert topology._repair_process is not None
            service.close(drain=False)


class TestSanitizedMoverFailures:
    """The sanitize x tolerated-dead-write trap: a write leg that fails
    while the mover still waits on an *earlier* leg has no waiter at its
    failure instant. Tolerated failures must not trip the sanitizer's
    unhandled-failure trap; untolerated ones must still raise."""

    def test_dead_second_leg_is_counted_not_trapped(self):
        graph = ring_of_cliques(8, 5)
        with GraphService.open(graph, _config(), sanitize=True) as service:
            topology = service.topology
            u, v = _split_pair(service)
            dead = service.tier.home(v)
            topology.fail_server(dead)
            report = service.apply_updates([GraphUpdate.add_edge(u, v)])
            assert report.records_written == 1  # u's leg landed
            assert topology.write_failures == 1
            assert topology.snapshot()["suspect_writes"] == 2
            topology.recover_server(dead)
            service.env.run(until=service.env.now + 5e-3)
            assert topology.snapshot()["suspect_writes"] == 0

    def test_static_cluster_still_raises_after_its_bookkeeping(self):
        graph = ring_of_cliques(8, 5)
        config = _config(topology=None)
        with GraphService.open(graph, config, sanitize=True) as service:
            u, v = _split_pair(service)
            service.tier.servers[service.tier.home(v)].fail()
            with pytest.raises(StorageServerDown):
                service.apply_updates([GraphUpdate.add_edge(u, v)])
            # The error surfaced from the update manager, after the
            # coherence layers ran — not from the sanitizer mid-write.
            assert service.updates.records_written == 1
            assert {u, v} <= service.updates.stale
            service.close(drain=False)

    def test_repair_target_dying_mid_round_is_retried(self, graph):
        config = ClusterConfig(
            num_processors=2, num_storage_servers=3, routing="hash",
            topology=TopologyConfig(repair_interval_s=5e-5, replication=2),
        )
        with GraphService.open(graph, config, sanitize=True) as service:
            topology, tier = service.topology, service.tier
            topology.fail_server(0)
            # The first round (t = 5e-5) writes every lost record to
            # servers 1 and 2; server 2 dies while those legs are on the
            # wire, so its leg fails with server 1's still in service.
            topology.schedule([
                ChaosEvent(at=5e-5 + 1e-9, action="fail_server", target=2),
            ])
            service.env.run(until=1e-3)
            assert topology.repair_rounds >= 2
            assert topology.repair_records > 0
            # The retry re-homed everything onto the lone survivor.
            assert all(
                tier.locate(key).server_id == 1 for key in graph.nodes()
            )
            service.close(drain=False)


class TestToleratedWrites:
    def test_update_write_failure_is_counted_not_fatal(self):
        graph = ring_of_cliques(8, 5)  # private: updates mutate the graph
        with GraphService.open(graph, _config()) as service:
            topology = service.topology
            topology.fail_server(0)
            # A batch touching the dead server's records: without
            # failover this raises; with it the loss is counted and
            # healed by repair once the server returns.
            report = service.apply_updates(
                [GraphUpdate(kind="add_edge", u=0, v=7)]
            )
            assert report.updates_applied == 1
            assert topology.write_failures >= 1
            assert topology.snapshot()["suspect_writes"] > 0
            topology.recover_server(0)
            service.env.run(until=service.env.now + 5e-3)
            assert topology.snapshot()["suspect_writes"] == 0

    def test_without_failover_the_loss_is_counted_but_not_healed(self):
        graph = ring_of_cliques(8, 5)
        config = _config(topology=TopologyConfig(failover=False))
        with GraphService.open(graph, config) as service:
            topology = service.topology
            topology.fail_server(0)
            report = service.apply_updates(
                [GraphUpdate(kind="add_edge", u=0, v=7)]
            )
            assert report.updates_applied == 1
            assert topology.write_failures >= 1
            # No repair without failover: nothing becomes a suspect and
            # the recovered server keeps whatever bytes it had.
            assert topology.snapshot()["suspect_writes"] == 0
            topology.recover_server(0)
            service.env.run(until=service.env.now + 2e-3)
            assert topology.repair_records == 0

    def test_static_cluster_still_raises_on_write_failure(self):
        # topology=None keeps the historical contract: a dead server in
        # the write path is a hard error.
        graph = ring_of_cliques(8, 5)
        config = _config(topology=None)
        with GraphService.open(graph, config) as service:
            service.tier.servers[0].fail()
            with pytest.raises(StorageServerDown):
                service.apply_updates(
                    [GraphUpdate(kind="add_edge", u=0, v=7)]
                )
            service.close(drain=False)


class TestReplicaReadsUnderFailure:
    """Satellite coverage for pick_read_replica's failure paths, driven
    through a real tier rather than stubs."""

    def test_least_loaded_live_replica_serves_the_read(self, graph):
        with GraphService.open(graph, _config()) as service:
            topology = service.topology
            tier = service.tier
            key = next(
                k for k in sorted(graph.nodes())
                if tier.home(k) == 0
            )
            idx = int(service.assets.compact[key])
            topology.directory.place(key, idx, 0, (0, 1))
            # Both replicas alive: deterministic tie-break = directory
            # order (server 0 first).
            assert tier.locate(key).server_id == 0
            # Kill the first: reads fail over to the live copy.
            topology.fail_server(0)
            assert tier.locate(key).server_id == 1
            # All dead: the first replica surfaces the error.
            topology.fail_server(1)
            assert tier.locate(key).server_id == 0
            processor = service.processors[0]

            def read():
                yield from gather_nodes(
                    processor, np.array([idx], dtype=np.int64), QueryStats())

            with pytest.raises(StorageServerDown):
                service.env.run(until=service.env.process(read()))
            service.close(drain=False)

    def test_pick_read_replica_prefers_shorter_pipeline(self, graph):
        with GraphService.open(graph, _config()) as service:
            tier = service.tier
            # Occupy server 0's pipeline so 1 is strictly less loaded.
            request = tier.servers[0].pipeline.request()
            assert pick_read_replica((0, 1), tier.servers) == 1
            tier.servers[0].pipeline.release(request)
            assert pick_read_replica((0, 1), tier.servers) == 0
            service.close(drain=False)
