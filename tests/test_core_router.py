"""Router mechanics: ack-driven dispatch, queues, stealing, fault drain."""

import random

import pytest

from repro import ClusterConfig, GraphAssets, GraphService
from repro.core import NeighborAggregationQuery
from repro.core import router as router_module
from repro.core.routing import AdaptiveRouting, HashRouting
from repro.graph import ring_of_cliques


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(8, 5)


@pytest.fixture(scope="module")
def assets(graph):
    return GraphAssets(graph)


def _cluster(graph, assets, routing="hash", processors=3, steal=True,
             **kwargs):
    config = ClusterConfig(
        num_processors=processors,
        num_storage_servers=2,
        routing=routing,
        cache_capacity_bytes=1 << 20,
        steal=steal,
        **kwargs,
    )
    return GraphService(graph, config, assets=assets)


def _run(cluster, queries):
    with cluster.session() as session:
        session.stream(queries)
        return session.report()


def _queries(nodes, hops=2):
    return [NeighborAggregationQuery(node=n, hops=hops) for n in nodes]


class TestDispatch:
    def test_all_queries_complete_exactly_once(self, graph, assets):
        cluster = _cluster(graph, assets)
        queries = _queries(range(30))
        report = _run(cluster, queries)
        assert len(report.records) == 30
        assert len({r.query_id for r in report.records}) == 30

    def test_one_outstanding_query_per_processor(self, graph, assets):
        # With 1 processor, executions must be strictly sequential.
        cluster = _cluster(graph, assets, processors=1)
        report = _run(cluster, _queries(range(10)))
        spans = sorted((r.started_at, r.finished_at) for r in report.records)
        for (_s1, f1), (s2, _f2) in zip(spans, spans[1:], strict=False):
            assert s2 >= f1

    def test_empty_workload(self, graph, assets):
        cluster = _cluster(graph, assets)
        report = _run(cluster, [])
        assert report.records == []
        assert report.makespan == 0.0

    def test_hash_routing_respects_intended_processor(self, graph, assets):
        cluster = _cluster(graph, assets, routing="hash", processors=3,
                           steal=False)
        report = _run(cluster, _queries(range(12)))
        for record in report.records:
            assert record.processor == record.node % 3
            assert record.intended_processor == record.node % 3
            assert not record.stolen


class TestStealing:
    def test_skewed_load_triggers_stealing(self, graph, assets):
        # All queries hash to processor 0 (nodes all ≡ 0 mod 3): with
        # stealing on, other processors must take some of them.
        cluster = _cluster(graph, assets, routing="hash", processors=3)
        nodes = [n for n in range(0, 40) if n % 3 == 0 and graph.has_node(n)]
        report = _run(cluster, _queries(nodes))
        used = {r.processor for r in report.records}
        assert len(used) > 1
        assert report.stolen_count() > 0

    def test_no_steal_keeps_skew(self, graph, assets):
        cluster = _cluster(graph, assets, routing="hash", processors=3,
                           steal=False)
        nodes = [n for n in range(0, 40) if n % 3 == 0 and graph.has_node(n)]
        report = _run(cluster, _queries(nodes))
        assert {r.processor for r in report.records} == {0}

    def test_stealing_improves_makespan(self, graph, assets):
        nodes = [n for n in range(0, 40) if n % 3 == 0 and graph.has_node(n)]
        with_steal = _run(_cluster(graph, assets, processors=3),
                          _queries(nodes))
        without = _run(_cluster(graph, assets, processors=3, steal=False),
                       _queries(nodes))
        assert with_steal.makespan < without.makespan

    def test_next_ready_never_marks_stolen(self, graph, assets):
        cluster = _cluster(graph, assets, routing="next_ready", processors=3)
        report = _run(cluster, _queries(range(20)))
        assert report.stolen_count() == 0


class TestLoadTracking:
    def test_loads_reflect_queue_and_outstanding(self, graph, assets):
        cluster = _cluster(graph, assets, routing="hash", processors=2,
                           steal=False)
        router = cluster.router
        queries = _queries([0, 2, 4, 6])  # all hash to processor 0
        router.submit(queries)
        # One query dispatched (outstanding), three queued.
        assert router.loads()[0] == 4
        assert router.loads()[1] == 0

    def test_invalid_strategy_target_rejected(self, graph, assets):
        cluster = _cluster(graph, assets, routing="hash", processors=2)
        cluster.strategy.num_processors = 99  # corrupt deliberately
        with pytest.raises(ValueError):
            cluster.router.submit(_queries([97]))

    def test_refused_target_leaves_no_phantom_pending(self, graph, assets):
        # A refused target must leave no pending entry behind: one that
        # nothing ever acks keeps ``done`` from firing, and the next run
        # to ``done`` runs out of events.
        cluster = _cluster(graph, assets, routing="hash", processors=2)
        router = cluster.router
        cluster.strategy.choose = lambda _query, _loads: 99
        with pytest.raises(ValueError, match="invalid processor 99"):
            router.submit(_queries([3]))
        assert router.backlog() == 0
        del cluster.strategy.choose
        router.submit(_queries([4]))
        cluster.env.run(until=router.done)
        assert [r.node for r in router.records] == [4]
        assert router.backlog() == 0

    def test_loads_stay_correct_under_random_interleavings(self, graph,
                                                            assets):
        # The load vector is maintained incrementally; after every step
        # (and after every ack, via a completion callback) it must equal
        # the vector rebuilt from the queues and the outstanding slots,
        # and the list handed out must be a copy.
        rng = random.Random(2024)
        cluster = _cluster(graph, assets, routing="hash", processors=4)
        router = cluster.router
        env = cluster.env
        requeues = []
        on_requeue = router.on_requeue

        def counting_requeue(processor_id, query):
            requeues.append(query.query_id)
            on_requeue(processor_id, query)

        router.on_requeue = counting_requeue

        def check():
            expected = [
                len(queue) + (busy is not None)
                for queue, busy in zip(router.queues, router.outstanding,
                                       strict=True)
            ]
            handed_out = router.loads()
            assert handed_out == expected
            handed_out[0] += 5
            handed_out.append(1)
            assert router.loads() == expected

        router.add_completion_callback(check)
        nodes = sorted(graph.nodes())
        submitted = 0

        def submit(batch):
            nonlocal submitted
            router.submit(_queries(batch, hops=rng.choice([1, 2])))
            submitted += len(batch)
            check()

        def run_a_little():
            env.run(until=env.now + rng.uniform(1e-6, 4e-5))
            check()

        for step in range(40):
            if step == 12:
                # Kill an idle processor right after a query was put in
                # its inbox: the worker hands it back via ``on_requeue``.
                env.run(until=router.done)
                check()
                submit([n for n in nodes if n % 4 == 1][:3])
                cluster.processors[1].kill()
                run_a_little()
            elif step == 20:
                router.remove_processor(2)
                check()
            elif step == 28:
                pid = router.num_processors
                joiner = cluster.build_processor(pid)
                cluster.processors.append(joiner)
                router.add_processor(joiner)
                cluster.strategy.on_membership_change(
                    router.num_processors, router.alive_mask())
                check()
            elif rng.random() < 0.4:
                # Every node of one hash class: one deep queue to steal from.
                owner = rng.randrange(4)
                submit([n for n in nodes if n % 4 == owner][:10])
            elif rng.random() < 0.5:
                submit(rng.sample(nodes, rng.randint(1, 6)))
            else:
                run_a_little()
        env.run(until=router.done)
        check()
        assert len(router.records) == submitted
        assert requeues
        assert any(record.stolen for record in router.records)
        assert router.loads() == [0] * router.num_processors


class TestEdgeCases:
    def test_single_processor_with_steal_enabled(self, graph, assets):
        # Stealing with no victims: max() over an empty candidate set must
        # not blow up, and nothing can ever be marked stolen.
        cluster = _cluster(graph, assets, processors=1, steal=True)
        report = _run(cluster, _queries(range(15)))
        assert len(report.records) == 15
        assert report.stolen_count() == 0
        assert {r.processor for r in report.records} == {0}

    def test_steal_disabled_empty_pool_idles_processor(self, graph, assets):
        # All queries target processor 0; with stealing off and an empty
        # pool, processor 1 must execute nothing at all.
        cluster = _cluster(graph, assets, routing="hash", processors=2,
                           steal=False)
        nodes = [n for n in range(0, 30, 2) if graph.has_node(n)]  # all even
        report = _run(cluster, _queries(nodes))
        assert {r.processor for r in report.records} == {0}
        assert cluster.processors[1].queries_executed == 0

    def test_steal_from_pool_when_own_queue_empty(self, graph, assets):
        # next_ready keeps everything in the shared pool: every processor
        # pulls from it without any record being marked stolen.
        cluster = _cluster(graph, assets, routing="next_ready", processors=3)
        report = _run(cluster, _queries(range(12)))
        assert report.stolen_count() == 0
        assert len({r.processor for r in report.records}) > 1

    def test_backlog_tracks_incomplete_queries(self, graph, assets):
        cluster = _cluster(graph, assets, routing="hash", processors=2)
        router = cluster.router
        assert router.backlog() == 0
        router.submit(_queries(range(6)))
        assert router.backlog() == 6
        cluster.env.run(until=router.done)
        assert router.backlog() == 0

    def test_when_backlog_at_most_already_satisfied(self, graph, assets):
        cluster = _cluster(graph, assets, routing="hash", processors=2)
        event = cluster.router.when_backlog_at_most(5)
        assert event.triggered

    def test_when_backlog_at_most_fires_on_drain(self, graph, assets):
        cluster = _cluster(graph, assets, routing="hash", processors=2)
        router = cluster.router
        router.submit(_queries(range(8)))
        event = router.when_backlog_at_most(3)
        assert not event.triggered
        cluster.env.run(until=event)
        assert router.backlog() <= 3
        cluster.env.run(until=router.done)

    def test_repeated_submission_rearms_done(self, graph, assets):
        # Wave-based submission: done fires per drained wave and re-arms.
        cluster = _cluster(graph, assets, routing="hash", processors=2)
        router = cluster.router
        router.submit(_queries(range(4)))
        cluster.env.run(until=router.done)
        assert len(router.records) == 4
        router.submit(_queries(range(10, 14)))
        cluster.env.run(until=router.done)
        assert len(router.records) == 8

    def test_submit_batch_waves_complete_all_queries(self, graph, assets):
        cluster = _cluster(graph, assets, routing="hash", processors=3,
                           submit_batch=4)
        report = _run(cluster, _queries(range(19)))
        assert len(report.records) == 19
        assert len({r.query_id for r in report.records}) == 19

    def test_invalid_submit_batch_rejected(self, graph, assets):
        # Checked when the service is built, so an open-loop serve() (which
        # never asks for a wave size) cannot run on a bad config either.
        for bad in (0, -4):
            with pytest.raises(ValueError, match="submit_batch"):
                _cluster(graph, assets, routing="hash", processors=2,
                         submit_batch=bad)


class TestLifecycleGuards:
    def test_submit_after_shutdown_raises(self, graph, assets):
        cluster = _cluster(graph, assets)
        cluster.router.shutdown()
        assert cluster.router.closed
        with pytest.raises(RuntimeError, match="shut down"):
            cluster.router.submit(_queries([0]))

    def test_shutdown_is_idempotent(self, graph, assets):
        cluster = _cluster(graph, assets)
        cluster.router.shutdown()
        cluster.router.shutdown()
        assert cluster.router.closed

    def test_submit_with_all_processors_dead_raises(self, graph, assets):
        # Mid-reconfig / post-failure: an empty effective processor set
        # must be a clear error, not queries stranded in queues forever.
        cluster = _cluster(graph, assets, processors=2)
        cluster.router.remove_processor(0)
        cluster.router.remove_processor(1)
        with pytest.raises(RuntimeError, match="no alive processors"):
            cluster.router.submit(_queries([0]))

    def test_submit_to_dead_processor_redistributes(self, graph, assets):
        # With steal off, a query routed to a removed processor's queue
        # would strand forever; submit must pool it instead (the same
        # redistribution remove_processor applies to queued work).
        cluster = _cluster(graph, assets, routing="hash", processors=2,
                           steal=False)
        router = cluster.router
        router.remove_processor(0)
        nodes = [n for n in range(0, 12, 2) if graph.has_node(n)]  # hash -> 0
        router.submit(_queries(nodes))
        cluster.env.run(until=router.done)
        assert len(router.records) == len(nodes)
        assert all(r.processor == 1 for r in router.records)
        assert all(r.intended_processor == 0 for r in router.records)


class TestRoutingFeedback:
    def test_feedback_delivered_per_ack(self, graph, assets):
        cluster = _cluster(graph, assets, routing="hash", processors=2)
        received = []
        cluster.strategy.on_feedback = received.append
        _run(cluster, _queries(range(9)))
        assert len(received) == 9
        for fb in received:
            assert fb.response_time > 0
            # Sojourn (arrival to completion) covers at least the
            # processing span; response additionally counts decision time.
            assert fb.sojourn_time > 0
            assert len(fb.loads) == 2
            assert 0.0 <= fb.processor_hit_rate <= 1.0

    @pytest.fixture
    def feedback_count(self, monkeypatch):
        built = []
        real = router_module.RoutingFeedback

        def counting(**fields):
            feedback = real(**fields)
            built.append(feedback)
            return feedback

        monkeypatch.setattr(router_module, "RoutingFeedback", counting)
        return built

    @pytest.mark.parametrize("routing", ["hash", "next_ready", "landmark",
                                         "embed"])
    def test_static_strategies_get_no_feedback_built(
            self, graph, assets, feedback_count, routing):
        cluster = _cluster(graph, assets, routing=routing, processors=3,
                           embed_method="lmds", num_landmarks=8,
                           min_separation=2)
        report = _run(cluster, _queries(range(12)))
        assert len(report.records) == 12
        assert feedback_count == []

    def test_adaptive_gets_one_feedback_per_ack(self, graph, assets,
                                                feedback_count, monkeypatch):
        delivered = []
        on_feedback = AdaptiveRouting.on_feedback

        def recording(strategy, feedback):
            delivered.append(feedback)
            on_feedback(strategy, feedback)

        monkeypatch.setattr(AdaptiveRouting, "on_feedback", recording)
        cluster = _cluster(graph, assets, routing="adaptive", processors=3,
                           embed_method="lmds", num_landmarks=8,
                           min_separation=2)
        report = _run(cluster, _queries(range(12)))
        assert len(feedback_count) == len(report.records) == 12
        assert delivered == feedback_count
        self._assert_fields(cluster, report, delivered)

    def test_overriding_subclass_gets_one_feedback_per_ack(
            self, graph, assets, feedback_count):
        cluster = _cluster(graph, assets, routing="hash", processors=2)
        delivered = []

        class Listening(HashRouting):
            def on_feedback(self, feedback):
                delivered.append(feedback)

        # The service builds its own hash strategy; re-class it in place.
        cluster.strategy.__class__ = Listening
        report = _run(cluster, _queries(range(9)))
        assert len(feedback_count) == len(report.records) == 9
        assert delivered == feedback_count
        self._assert_fields(cluster, report, delivered)

    @staticmethod
    def _assert_fields(cluster, report, delivered):
        # The fields the ack used to fill unconditionally: per query, the
        # record's times, its cache counts, and the loads at completion.
        by_id = {record.query_id: record for record in report.records}
        num = cluster.router.num_processors
        for feedback in delivered:
            record = by_id[feedback.query.query_id]
            assert feedback.processor == record.processor
            assert feedback.response_time == record.response_time
            assert feedback.sojourn_time == record.sojourn_time
            assert feedback.stolen == record.stolen
            assert feedback.cache_hits == record.stats.cache_hits
            assert feedback.cache_misses == record.stats.cache_misses
            assert 0.0 <= feedback.processor_hit_rate <= 1.0
            assert len(feedback.loads) == num
            # The acked query has left its processor's slot.
            assert sum(feedback.loads) < len(report.records)

    def test_records_carry_routing_labels(self, graph, assets):
        cluster = _cluster(graph, assets, routing="hash", processors=2)
        report = _run(cluster, _queries(range(6)))
        assert all(r.routed_via == "hash" for r in report.records)
        assert all(r.query_class == "traversal" for r in report.records)
        assert report.per_arm_counts() == {"hash": 6}


class TestFaultDrain:
    def test_removed_processor_work_is_redistributed(self, graph, assets):
        cluster = _cluster(graph, assets, routing="hash", processors=3,
                           steal=False)
        router = cluster.router
        nodes = [n for n in range(0, 40) if n % 3 == 0 and graph.has_node(n)]
        router.submit(_queries(nodes))
        moved = router.remove_processor(0)
        assert moved > 0
        cluster.env.run(until=router.done)
        report_processors = {
            record.processor for record in router.records[1:]
        }
        # Processor 0 finishes at most its in-flight query; the rest of the
        # work lands on the survivors.
        assert report_processors <= {0, 1, 2}
        survivors = [r for r in router.records if r.processor != 0]
        assert len(survivors) >= len(nodes) - 1

    def test_all_queries_still_complete_after_removal(self, graph, assets):
        cluster = _cluster(graph, assets, routing="embed", processors=3,
                           embed_method="lmds", num_landmarks=8,
                           min_separation=2)
        router = cluster.router
        queries = _queries(range(20))
        router.submit(queries)
        router.remove_processor(1)
        cluster.env.run(until=router.done)
        assert len(router.records) == 20
