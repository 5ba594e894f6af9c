"""GraphService / QuerySession: sessions, streaming, warm continuation,
windowed reports, live reconfiguration, lifecycle errors."""

import pytest

from repro import ClusterConfig, GraphService, run_workload
from repro.core import GraphAssets
from repro.datasets import memetracker_like
from repro.workloads import hotspot_stream, zipfian_stream


@pytest.fixture(scope="module")
def setup():
    graph = memetracker_like(scale=0.05, seed=2)
    assets = GraphAssets(graph)
    queries = list(hotspot_stream(graph, num_hotspots=10, queries_per_hotspot=10,
                                  radius=2, hops=2, seed=1, csr=assets.csr_both))
    return graph, assets, queries


def _config(routing="hash", **kwargs):
    defaults = dict(
        num_processors=4,
        num_storage_servers=2,
        cache_capacity_bytes=4 << 20,
        num_landmarks=16,
        min_separation=2,
        dim=6,
        embed_method="lmds",
    )
    defaults.update(kwargs)
    return ClusterConfig(routing=routing, **defaults)


def _service(graph, assets, routing="hash", **kwargs):
    return GraphService.open(graph, _config(routing, **kwargs), assets=assets)


class TestSessions:
    def test_submit_many_and_report(self, setup):
        graph, assets, queries = setup
        with _service(graph, assets) as service:
            with service.session() as session:
                session.submit_many(queries)
                report = session.report()
        assert len(report.records) == len(queries)
        assert report.makespan > 0
        assert report.routing == "hash"

    def test_incremental_submit_and_results(self, setup):
        graph, assets, queries = setup
        with _service(graph, assets) as service:
            session = service.session()
            seen = []
            iterator = session.results()
            for query in queries[:5]:
                session.submit(query)
            seen.extend(r.query_id for r in iterator)
            assert sorted(seen) == sorted(q.query_id for q in queries[:5])
            # The iterator picks up work submitted after it was exhausted.
            session.submit(queries[5])
            assert [r.query_id for r in session.results()] == [
                queries[5].query_id
            ]
            session.close()

    def test_stream_accepts_generator(self, setup):
        graph, assets, _queries = setup
        with _service(graph, assets, submit_batch=16) as service:
            with service.session() as session:
                submitted = session.stream(
                    zipfian_stream(graph, num_queries=60, skew=2.0,
                                   csr=assets.csr_both),
                )
                report = session.report()
        assert submitted == 60
        assert len(report.records) == 60

    def test_sessions_are_exclusive(self, setup):
        graph, assets, _queries = setup
        with _service(graph, assets) as service:
            first = service.session()
            with pytest.raises(RuntimeError, match="already active"):
                service.session()
            first.close()
            service.session().close()  # fine once the first is closed

    def test_closed_session_refuses_submission(self, setup):
        graph, assets, queries = setup
        with _service(graph, assets) as service:
            session = service.session()
            session.close()
            with pytest.raises(RuntimeError, match="closed"):
                session.submit(queries[0])

    def test_session_report_isolated_per_session(self, setup):
        graph, assets, queries = setup
        with _service(graph, assets) as service:
            with service.session() as first:
                first.stream(queries[:30])
                first_report = first.report()
            with service.session() as second:
                second.stream(queries[30:50])
                second_report = second.report()
        assert len(first_report.records) == 30
        assert len(second_report.records) == 20
        first_ids = {r.query_id for r in first_report.records}
        second_ids = {r.query_id for r in second_report.records}
        assert not first_ids & second_ids


class TestWarmContinuation:
    def test_second_session_hit_ratio_strictly_higher(self, setup):
        """The satellite claim: repeat traffic finds the caches warm."""
        graph, assets, _queries = setup
        workload = list(zipfian_stream(graph, num_queries=150, skew=2.0, seed=5,
                                       csr=assets.csr_both))
        with _service(graph, assets) as service:
            with service.session() as first:
                first.stream(workload)
                cold = first.report()
            # Replaying the identical queries is legal — ids only have to
            # be unique among *in-flight* queries — and isolates cache
            # warmth: same work, same routing, warmer caches.
            with service.session() as second:
                second.stream(workload)
                warm = second.report()
        assert warm.cache_hit_rate() > cold.cache_hit_rate()
        assert warm.mean_response_time() < cold.mean_response_time()

    def test_simulated_clock_continues_across_sessions(self, setup):
        graph, assets, queries = setup
        with _service(graph, assets) as service:
            with service.session() as first:
                first.stream(queries[:10])
            first_end = service.env.now
            with service.session() as second:
                assert second.started_at == first_end
                second.stream(queries[10:20])
            assert service.env.now > first_end

    def test_adaptive_state_survives_session_boundary(self, setup):
        graph, assets, _queries = setup
        workload = list(zipfian_stream(graph, num_queries=400, skew=2.0, seed=6,
                                       csr=assets.csr_both))
        with _service(graph, assets, routing="adaptive",
                      adaptive_epoch=8) as service:
            with service.session() as first:
                first.stream(workload[:300])
                first.report()
            assert service.strategy.mode == "committed"
            pulls_before = dict(service.strategy.snapshot()["pulls"])
            with service.session() as second:
                second.stream(workload[300:])
                second.report()
            snapshot = service.strategy.snapshot()
        # Still committed (no cold restart), and the pull counts kept
        # growing from the first session's totals.
        assert snapshot["mode"] == "committed"
        assert sum(snapshot["pulls"].values()) > sum(pulls_before.values())


class TestWindowedReports:
    def test_windows_partition_counts_exactly(self, setup):
        """The satellite claim: windows partition the run, nothing lost."""
        graph, assets, queries = setup
        with _service(graph, assets) as service:
            with service.session() as session:
                session.stream(queries)
                report = session.report()
        for count in (1, 2, 3, 7):
            windows = report.windows(count)
            assert len(windows) == count
            assert sum(len(w.records) for w in windows) == len(report.records)
            assert sum(w.total_cache_hits() for w in windows) == (
                report.total_cache_hits()
            )
            assert sum(w.total_cache_misses() for w in windows) == (
                report.total_cache_misses()
            )
            seen = [r.query_id for w in windows for r in w.records]
            assert sorted(seen) == sorted(r.query_id for r in report.records)

    def test_window_is_half_open(self, setup):
        graph, assets, queries = setup
        with _service(graph, assets) as service:
            with service.session() as session:
                session.stream(queries[:20])
                report = session.report()
        cut = report.records[10].finished_at
        t0, t1 = report.time_bounds()
        early = report.window(t0, cut)
        late = report.window(cut, t1 + 1.0)
        assert all(r.finished_at < cut for r in early.records)
        assert all(r.finished_at >= cut for r in late.records)
        assert len(early.records) + len(late.records) == 20

    def test_report_since_measures_the_tail(self, setup):
        graph, assets, queries = setup
        with _service(graph, assets) as service:
            with service.session() as session:
                session.stream(queries[:25])
                session.drain()
                midpoint = (session.started_at + service.env.now) / 2
                full = session.report()
                tail = session.report(since=midpoint)
        assert 0 < len(tail.records) < len(full.records)
        assert all(r.finished_at >= midpoint for r in tail.records)

    def test_per_window_stats_shape(self, setup):
        graph, assets, queries = setup
        with _service(graph, assets) as service:
            with service.session() as session:
                session.stream(queries)
                report = session.report()
        stats = report.per_window_stats(4)
        assert [s["window"] for s in stats] == [0, 1, 2, 3]
        assert sum(s["queries"] for s in stats) == len(report.records)
        for entry in stats:
            assert set(entry["per_class"]) <= {"point", "walk", "traversal"}

    def test_degenerate_windows(self, setup):
        graph, assets, _queries = setup
        with _service(graph, assets) as service:
            with service.session() as session:
                report = session.report()  # empty session
        assert report.windows(3)[0].records == []
        with pytest.raises(ValueError):
            report.windows(0)
        with pytest.raises(ValueError):
            report.window(2.0, 1.0)


class TestLifecycleErrors:
    def test_submit_after_service_close_raises(self, setup):
        graph, assets, queries = setup
        service = _service(graph, assets)
        session = service.session()
        session.submit_many(queries[:5])
        service.close()
        assert session.closed  # close() drained and sealed the session
        with pytest.raises(RuntimeError, match="shut down"):
            service.router.submit(queries[5:6])
        with pytest.raises(RuntimeError, match="closed"):
            service.session()

    def test_submit_with_no_alive_processors_raises(self, setup):
        graph, assets, queries = setup
        service = _service(graph, assets, num_processors=2)
        session = service.session()
        for processor_id in range(2):
            service.router.remove_processor(processor_id)
        with pytest.raises(RuntimeError, match="no alive processors"):
            session.submit(queries[0])
        # With one processor restored, submission works again.
        service.processors[1].alive = True
        session.submit(queries[0])
        session.close()
        service.close()

    def test_exception_unwind_abandons_inflight_work(self, setup):
        # Raising inside the with-block must not run the abandoned
        # workload during unwind (or mask the error with a drain failure):
        # close(drain=False) seals the session immediately.
        graph, assets, queries = setup
        with pytest.raises(KeyError, match="user error"):
            with GraphService.open(graph, _config(), assets=assets) as service:
                with service.session() as session:
                    session.submit_many(queries[:10])
                    raise KeyError("user error")
        assert session.closed
        assert service.closed
        assert session.completed < 10  # in-flight work was not executed

    def test_abandoned_session_does_not_contaminate_next(self, setup):
        # An exception seals the session without draining; the next
        # session must not inherit the leftover completions.
        graph, assets, queries = setup
        with GraphService.open(graph, _config(), assets=assets) as service:
            try:
                with service.session() as first:
                    first.submit_many(queries[:50])
                    raise KeyError("boom")
            except KeyError:
                pass
            assert first.closed
            with service.session() as second:
                second.submit_many(queries[50:60])
                report = second.report()
            assert len(report.records) == 10
            leaked = {q.query_id for q in queries[:50]}
            assert not leaked & {r.query_id for r in report.records}

    def test_close_is_idempotent(self, setup):
        graph, assets, queries = setup
        service = _service(graph, assets)
        session = service.session()
        session.submit_many(queries[:3])
        service.close()
        service.close()
        assert len(session.records) == 3

    def test_duplicate_inflight_query_id_rejected(self, setup):
        graph, assets, queries = setup
        with _service(graph, assets) as service:
            session = service.session()
            session.submit(queries[0])
            with pytest.raises(ValueError, match="already in flight"):
                session.submit(queries[0])
            session.close()


class TestCompatWrapper:
    def test_cluster_run_equals_service_session(self, setup):
        """``run_workload`` is exactly one session on a fresh service."""
        graph, assets, queries = setup
        cluster_report = run_workload(
            graph, queries, _config("embed"), assets=assets
        )
        with _service(graph, assets, routing="embed") as service:
            with service.session() as session:
                session.stream(queries)
                session_report = session.report()
        assert cluster_report.makespan == session_report.makespan
        assert [r.processor for r in cluster_report.records] == [
            r.processor for r in session_report.records
        ]
        assert (
            cluster_report.total_cache_hits()
            == session_report.total_cache_hits()
        )
