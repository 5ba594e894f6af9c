"""Open-loop arrival processes: validation, determinism, serving.

The determinism contract mirrors ``churn_stream``'s: a seeded arrival
stream reads only the underlying query stream and its own RNG, so it
replays identically across routing schemes, admission configs, and across
two ``GraphService.open`` sessions.
"""

import pytest

from repro.core import (
    AdmissionConfig,
    ClusterConfig,
    GraphService,
    QueryIdAllocator,
    query_ids_from,
)
from repro.datasets import load_dataset
from repro.workloads import (
    hotspot_stream,
    merge_arrivals,
    poisson_arrivals,
    uniform_stream,
    zipfian_stream,
)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("webgraph", scale=0.05, seed=1)


def queries(graph, n=60, seed=3):
    return list(uniform_stream(graph, num_queries=n, hops=1, seed=seed))


def as_tuples(arrivals):
    return [(a.at, a.tenant, a.query) for a in arrivals]


class TestValidation:
    def test_rejects_bad_rates(self, graph):
        qs = queries(graph, 5)
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="positive, finite"):
                poisson_arrivals(qs, rate=bad)

    def test_rejects_bad_shapes(self, graph):
        qs = queries(graph, 5)
        with pytest.raises(ValueError, match="start"):
            poisson_arrivals(qs, rate=10, start=-1.0)

    def test_merge_requires_streams(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_arrivals()

    def test_validation_is_eager_generation_lazy(self, graph):
        # Errors surface at call time, before any query is consumed.
        with pytest.raises(ValueError):
            poisson_arrivals(iter(queries(graph, 5)), rate=-1)


class TestArrivalShapes:
    def test_poisson_times_nondecreasing_and_tagged(self, graph):
        arrivals = list(poisson_arrivals(
            queries(graph), rate=100.0, tenant="t0", seed=5,
        ))
        assert len(arrivals) == 60
        assert all(a.tenant == "t0" for a in arrivals)
        times = [a.at for a in arrivals]
        assert all(
            t1 >= t0 for t0, t1 in zip(times, times[1:], strict=False)
        )
        assert times[0] > 0

    def test_poisson_rate_rescales_same_pattern(self, graph):
        """Doubling the rate compresses the identical arrival pattern 2x —
        the property an offered-load sweep relies on."""
        qs = queries(graph)
        slow = list(poisson_arrivals(qs, rate=50.0, seed=5))
        fast = list(poisson_arrivals(qs, rate=100.0, seed=5))
        assert [a.query for a in slow] == [a.query for a in fast]
        for s, f in zip(slow, fast, strict=True):
            assert s.at == pytest.approx(2.0 * f.at)

    def test_merge_is_time_ordered_and_complete(self, graph):
        a = list(poisson_arrivals(queries(graph, 30, seed=3), rate=40.0,
                                  tenant="a", seed=1))
        b = list(poisson_arrivals(queries(graph, 20, seed=4), rate=60.0,
                                  tenant="b", seed=2))
        merged = list(merge_arrivals(a, b))
        assert len(merged) == 50
        times = [m.at for m in merged]
        assert times == sorted(times)
        # Per-tenant order within the merge is each stream's own order.
        assert [m for m in merged if m.tenant == "a"] == a
        assert [m for m in merged if m.tenant == "b"] == b


class TestDeterminism:
    """Seeded streams replay identically (the churn_stream contract)."""

    @pytest.mark.parametrize("factory", [
        lambda qs: poisson_arrivals(qs, rate=80.0, tenant="t", seed=9),
    ], ids=["poisson"])
    def test_stream_replays_identically(self, graph, factory):
        def build():
            # Scoped ids so both replays mint the same query objects.
            with query_ids_from(QueryIdAllocator(start=10_000)):
                return as_tuples(factory(queries(graph, seed=3)))

        assert build() == build()

    def test_merged_multi_tenant_replay(self, graph):
        def build():
            with query_ids_from(QueryIdAllocator(start=20_000)):
                return as_tuples(merge_arrivals(
                    poisson_arrivals(
                        zipfian_stream(graph, num_queries=40, hops=2,
                                       skew=1.5, seed=3),
                        rate=100.0, tenant="interactive", seed=1,
                    ),
                    poisson_arrivals(
                        hotspot_stream(graph, num_hotspots=4,
                                       queries_per_hotspot=5, seed=4),
                        rate=40.0, tenant="analytics", seed=2,
                    ),
                ))
        assert build() == build()

    @pytest.mark.parametrize("admission", [None, AdmissionConfig()],
                             ids=["naive", "admission"])
    def test_replays_across_routing_schemes_and_services(
        self, graph, admission,
    ):
        """The same seeded arrival stream, served through two separately
        opened services with different routing schemes, executes the
        identical query population — generation never reads cluster
        state."""
        def build():
            with query_ids_from(QueryIdAllocator(start=30_000)):
                return list(merge_arrivals(
                    poisson_arrivals(
                        uniform_stream(graph, num_queries=50, hops=1, seed=3),
                        rate=2000.0, tenant="a", seed=1,
                    ),
                    poisson_arrivals(
                        uniform_stream(graph, num_queries=30, hops=2, seed=4),
                        rate=3000.0, tenant="b", seed=2,
                    ),
                ))

        populations = []
        for routing in ("hash", "embed"):
            with GraphService.open(
                graph, ClusterConfig(routing=routing)
            ) as service:
                with service.session() as session:
                    stats = session.serve(build(), admission=admission)
                    report = session.report()
            assert stats.offered == 80
            populations.append(sorted(
                (r.query_id, r.kind, r.node, r.tenant)
                for r in report.records
            ))
        assert populations[0] == populations[1]

    def test_serve_rejects_unordered_arrivals(self, graph):
        a, b = list(poisson_arrivals(queries(graph, 2), rate=10.0, seed=1))
        with GraphService.open(graph, ClusterConfig(routing="hash")) as svc:
            with svc.session() as session:
                with pytest.raises(ValueError, match="time-ordered"):
                    session.serve([b, a])


class TestServe:
    def test_open_loop_timestamps_drive_injection(self, graph):
        """Arrivals enter at their absolute timestamps: the makespan of a
        slow arrival stream is its arrival span, not the service time."""
        arrivals = list(poisson_arrivals(
            queries(graph, 40), rate=100.0, seed=7,
        ))
        with GraphService.open(graph, ClusterConfig(routing="hash")) as svc:
            with svc.session() as session:
                session.serve(arrivals)
                report = session.report()
        assert len(report.records) == 40
        # enqueue instants must match the arrival offsets exactly.
        enqueued = sorted(r.enqueued_at for r in report.records)
        expected = sorted(a.at for a in arrivals)
        assert enqueued == pytest.approx(expected)

    def test_naive_serve_admission_stats_are_passthrough(self, graph):
        arrivals = list(poisson_arrivals(queries(graph, 25), rate=500.0,
                                         tenant="t", seed=7))
        with GraphService.open(graph, ClusterConfig(routing="hash")) as svc:
            with svc.session() as session:
                stats = session.serve(arrivals)
                report = session.report()
        assert stats.offered == stats.admitted == 25
        assert stats.shed == stats.rejected == 0
        assert report.admission is stats
        assert report.offered() == 25
        assert report.goodput() == report.throughput()
        assert report.per_tenant_stats()["t"]["queries"] == 25

    def test_serve_then_closed_loop_session_still_works(self, graph):
        """serve() leaves the session usable for closed-loop submission."""
        with GraphService.open(graph, ClusterConfig(routing="hash")) as svc:
            with svc.session() as session:
                session.serve(poisson_arrivals(
                    queries(graph, 10), rate=100.0, seed=7,
                ))
                session.submit_many(queries(graph, 5, seed=8))
                session.drain()
                report = session.report()
        assert len(report.records) == 15
