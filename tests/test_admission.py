"""Admission control, DRR fair queueing, load shedding, backpressure."""

import pytest

from repro.core import (
    ADMITTED,
    REJECTED,
    SHED,
    AdmissionConfig,
    AdmissionController,
    ClusterConfig,
    GraphService,
    NeighborAggregationQuery,
    PersonalizedPageRankQuery,
    RandomWalkQuery,
    ReachabilityQuery,
)
from repro.core import admission
from repro.core.queries import KSourceReachabilityQuery
from repro.datasets import load_dataset
from repro.sim import Environment
from repro.workloads import merge_arrivals, poisson_arrivals


def point(n=0):
    return NeighborAggregationQuery(node=n, hops=1)


def walk(n=0):
    return RandomWalkQuery(node=n)


def traversal(n=0):
    return ReachabilityQuery(node=n, target=n + 1)


def ppr(n=0):
    return PersonalizedPageRankQuery(node=n)


def k_reach(n=0):
    return KSourceReachabilityQuery(node=n, sources=(n, n + 1))


def overloaded(controller):
    return controller._overload_level > 0


def set_watermarks(monkeypatch, high, low, severe):
    monkeypatch.setattr(admission, "OVERLOAD_HIGH", high)
    monkeypatch.setattr(admission, "OVERLOAD_LOW", low)
    monkeypatch.setattr(admission, "SEVERE_HIGH", severe)


class FakeRouter:
    """Just enough router surface for the admission layer: a backlog
    counter, a release log, and completion callbacks."""

    def __init__(self, num_processors=2):
        self.env = Environment()
        self.num_processors = num_processors
        self.released = []  # (tenant, query) in release order
        self._backlog = 0
        self._callbacks = []

    def backlog(self):
        return self._backlog

    def submit(self, queries, tenant=""):
        for query in queries:
            self.released.append((tenant, query))
            self._backlog += 1

    def add_completion_callback(self, callback):
        self._callbacks.append(callback)

    def remove_completion_callback(self, callback):
        if callback in self._callbacks:
            self._callbacks.remove(callback)

    def complete(self, n=1):
        for _ in range(n):
            self._backlog -= 1
            for callback in list(self._callbacks):
                callback()


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="tenant_queue_limit"):
            AdmissionConfig(tenant_queue_limit=0)


class TestPassthrough:
    def test_no_config_submits_directly_and_counts(self):
        router = FakeRouter()
        controller = AdmissionController(router)
        assert controller.config is None
        # Unbounded and never shed: a heavy flood is admitted offer by offer.
        for i in range(100):
            assert controller.offer(ppr(i), tenant="t") == ADMITTED
        # Everything went straight to the router.
        assert router.backlog() == 100
        assert controller.queued() == 0
        assert controller.pump() == 0
        assert not overloaded(controller)
        stats = controller.stats()
        assert stats.overload_windows == []
        assert stats.tenants["t"].offered == 100
        assert stats.tenants["t"].admitted == 100
        assert stats.shed == stats.rejected == 0
        assert stats.delivery_ratio() == 1.0


class TestBoundedQueues:
    def controller(self, router, monkeypatch):
        # Watermarks high enough that these tests never shed.
        set_watermarks(monkeypatch, high=10.0, low=5.0, severe=20.0)
        controller = AdmissionController(
            router, AdmissionConfig(tenant_queue_limit=4)
        )
        # A depth-1 router (the service keeps two per processor).
        controller._depth = 1
        return controller

    def test_full_queue_rejects_and_signals_backpressure(self, monkeypatch):
        router = FakeRouter()
        controller = self.controller(router, monkeypatch)
        # First offer is pumped straight into the (depth-1) router...
        assert controller.offer(point(0), "t") == ADMITTED
        assert router.backlog() == 1
        # ...the next 4 fill the tenant queue...
        for i in range(1, 5):
            assert controller.offer(point(i), "t") == ADMITTED
            assert controller.queued("t") == i
        # ...and the 6th is rejected (bounded queue = backpressure).
        assert controller.offer(point(5), "t") == REJECTED
        stats = controller.stats()
        assert stats.tenants["t"].offered == 6
        assert stats.tenants["t"].admitted == 5
        assert stats.tenants["t"].rejected == 1
        assert stats.tenants["t"].max_queue_depth == 4
        assert stats.delivery_ratio() == pytest.approx(5 / 6)

    def test_rejection_is_per_tenant(self, monkeypatch):
        router = FakeRouter()
        controller = self.controller(router, monkeypatch)
        decisions = [controller.offer(point(i), "greedy") for i in range(6)]
        assert decisions == [ADMITTED] * 5 + [REJECTED]
        assert controller.queued("greedy") == 4
        # Another tenant's queue is unaffected by greedy's pressure.
        assert controller.queued("quiet") == 0
        assert controller.offer(point(99), "quiet") == ADMITTED
        assert controller.offer(point(7), "greedy") == REJECTED

    def test_completion_callback_pulls_queued_work(self, monkeypatch):
        router = FakeRouter()
        controller = self.controller(router, monkeypatch).attach()
        for i in range(5):
            controller.offer(point(i), "t")
        assert router.backlog() == 1
        assert controller.queued("t") == 4
        # Each completion frees a slot; the callback pumps the next query.
        for remaining in (3, 2, 1, 0):
            router.complete()
            assert controller.queued("t") == remaining
            assert router.backlog() == 1
        controller.detach()
        # Detached: completions no longer pull (nothing queued anyway).
        controller.offer(point(9), "t")
        controller.offer(point(10), "t")
        queued = controller.queued("t")
        router.complete()
        assert controller.queued("t") == queued


class TestDeficitRoundRobin:
    @pytest.fixture
    def controller(self, monkeypatch):
        monkeypatch.setattr(admission, "QUANTUM", 16.0)
        set_watermarks(monkeypatch, high=10.0, low=5.0, severe=20.0)
        # 50 processors: the router holds up to 100 released queries.
        router = FakeRouter(num_processors=50)
        return AdmissionController(
            router, AdmissionConfig(tenant_queue_limit=64)
        )

    def test_release_order_equalises_cost_not_count(self, controller):
        """A flood of cheap points and a flood of expensive traversals
        share release bandwidth by *cost*: 16 points per traversal."""
        router = controller.router
        # Hold the router "full" so offers queue instead of releasing.
        router._backlog = 100
        for i in range(32):
            controller.offer(point(i), "cheap")
        for i in range(8):
            controller.offer(traversal(i), "heavy")
        assert controller.queued() == 40
        # Open the floodgates and release in DRR order.
        router._backlog = 0
        controller.pump()
        order = [tenant for tenant, _ in router.released]
        assert len(order) == 40
        # One quantum (16.0) buys 16 points or one traversal per visit.
        assert order[:34] == (
            ["cheap"] * 16 + ["heavy"] + ["cheap"] * 16 + ["heavy"]
        )
        # Once "cheap" drains, "heavy" gets every visit.
        assert order[34:] == ["heavy"] * 6

    def test_idle_tenant_banks_no_deficit(self, controller):
        router = controller.router
        router._backlog = 100
        controller.offer(point(0), "a")
        router._backlog = 0
        controller.pump()  # "a" drains; its leftover deficit is forfeit
        router._backlog = 100
        for i in range(2):
            controller.offer(traversal(i), "a")
        router._backlog = 0
        controller.pump()
        # Each traversal still costs a fresh visit's quantum: had the
        # drained deficit carried over, both would release on one visit.
        assert [t for t, _ in router.released] == ["a", "a", "a"]
        assert controller.queued() == 0


class TestLoadShedding:
    @pytest.fixture
    def controller(self, monkeypatch):
        # One tenant, limit 10 -> capacity 10: overload at pending >= 5,
        # severe at >= 8.5, exit at <= 2.5.
        set_watermarks(monkeypatch, high=0.5, low=0.25, severe=0.85)
        # Two processors: the router holds up to 4 released queries.
        router = FakeRouter(num_processors=2)
        return AdmissionController(
            router, AdmissionConfig(tenant_queue_limit=10)
        )

    def test_heavy_operators_shed_first(self, controller):
        router = controller.router
        router._backlog = 6  # pending 6 >= 5 -> overload level 1
        assert controller.offer(point(0), "t") == ADMITTED
        assert overloaded(controller)
        assert controller.offer(ppr(1), "t") == SHED
        assert controller.offer(k_reach(2), "t") == SHED
        # Level 1 sheds only the heavy operators; walks still enter.
        assert controller.offer(walk(3), "t") == ADMITTED
        stats = controller.stats()
        assert stats.tenants["t"].shed == 2
        assert stats.tenants["t"].shed_by_operator == {"ppr": 1, "k_reach": 1}

    def test_severe_overload_sheds_all_but_point(self, controller):
        router = controller.router
        router._backlog = 9  # pending 9 >= 8.5 -> severe (level 2)
        assert controller.offer(point(0), "t") == ADMITTED
        assert controller.offer(walk(1), "t") == SHED
        assert controller.offer(traversal(2), "t") == SHED
        assert controller.offer(ppr(3), "t") == SHED
        # Point lookups are never shed, at any level.
        assert controller.offer(point(4), "t") == ADMITTED

    def test_hysteresis_exits_only_below_low_watermark(self, controller):
        router = controller.router
        router._backlog = 6
        controller.offer(point(0), "t")
        assert overloaded(controller)
        # Dropping below high but above low stays overloaded (no chatter).
        router._backlog = 4
        controller.offer(point(1), "t")
        assert overloaded(controller)
        # Below the low watermark the window closes.
        router._backlog = 0
        controller.offer(point(2), "t")
        assert not overloaded(controller)
        assert len(controller.stats().overload_windows) == 1

    def test_stats_snapshot_closes_open_window(self, controller):
        router = controller.router
        router._backlog = 6
        controller.offer(point(0), "t")
        assert overloaded(controller)
        stats = controller.stats(now=5.0)
        assert stats.overload_windows == [(0.0, 5.0)]
        assert stats.time_in_overload() == 5.0
        # Snapshotting must not close the live window.
        assert overloaded(controller)
        assert controller.stats(now=6.0).overload_windows == [(0.0, 6.0)]


class TestEndToEndOverload:
    def test_flood_sheds_heavy_and_records_overload(self):
        """A flash flood far past capacity: the admission layer sheds and
        rejects rather than queueing unboundedly, records time in
        overload, and never sheds point-class queries."""
        graph = load_dataset("webgraph", scale=0.05, seed=1)
        n = graph.num_nodes
        interactive = [
            NeighborAggregationQuery(node=i % n, hops=1) for i in range(300)
        ]
        analytics = [
            PersonalizedPageRankQuery(node=(7 * i) % n, walks=8)
            for i in range(150)
        ]
        arrivals = merge_arrivals(
            poisson_arrivals(interactive, rate=400_000.0,
                             tenant="interactive", seed=1),
            poisson_arrivals(analytics, rate=200_000.0,
                             tenant="analytics", seed=2),
        )
        admission = AdmissionConfig(tenant_queue_limit=8)
        with GraphService.open(
            graph, ClusterConfig(routing="adaptive")
        ) as service:
            with service.session() as session:
                stats = session.serve(arrivals, admission=admission)
                report = session.report()

        assert stats.offered == 450
        dropped = stats.shed + stats.rejected
        assert dropped > 0
        assert stats.admitted == 450 - dropped
        assert len(report.records) == stats.admitted
        assert stats.time_in_overload() > 0
        # Point-class interactive traffic is never shed (only rejected
        # once its own queue fills).
        assert stats.tenants["interactive"].shed == 0
        for tenant_stats in stats.tenants.values():
            assert "aggregation" not in tenant_stats.shed_by_operator

        summary = report.summary()
        assert summary["offered"] == 450
        assert summary["shed"] == stats.shed
        assert summary["rejected"] == stats.rejected
        assert summary["delivery_ratio"] == pytest.approx(
            stats.admitted / 450
        )
        assert summary["time_in_overload_s"] == pytest.approx(
            stats.time_in_overload()
        )
        per_tenant = report.per_tenant_stats()
        assert per_tenant["analytics"]["shed"] == stats.tenants["analytics"].shed
        assert per_tenant["interactive"]["queries"] > 0
        assert per_tenant["interactive"]["p99_sojourn_ms"] > 0
