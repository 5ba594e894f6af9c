"""Unit tests for the adaptive routing strategy (audition, commit, drift)."""

import pytest

from repro.core import (
    ClusterConfig,
    GraphAssets,
    NeighborAggregationQuery,
    RandomWalkQuery,
    ReachabilityQuery,
    query_class,
    run_workload,
)
from repro.core.routing import AdaptiveRouting, RoutingFeedback, RoutingStrategy
from repro.core.routing import adaptive
from repro.graph import ring_of_cliques


class StubArm(RoutingStrategy):
    """Deterministic arm: always picks one processor, counts calls."""

    def __init__(self, name, processor=0):
        self.name = name
        self.processor = processor
        self.chosen = 0
        self.dispatches = 0
        self.feedbacks = 0

    def choose(self, _query, _loads):
        self.chosen += 1
        return self.processor

    def on_dispatch(self, _query, _processor):
        self.dispatches += 1

    def on_feedback(self, _feedback):
        self.feedbacks += 1


def make_strategy(monkeypatch, **constants):
    """Three stub arms, one audition round, no probes unless asked.

    ``constants`` override the module's tuning values (e.g.
    ``DRIFT_PATIENCE=3``). The default priors name arms the stubs lack,
    so every class starts on the first arm, ``a``.
    """
    settings = dict(AUDITION_ROUNDS=1, EPSILON=0.0, EPSILON_MIN=0.0)
    settings.update(constants)
    for name, value in settings.items():
        monkeypatch.setattr(adaptive, name, value)  # raises on a typo
    arms = {name: StubArm(name) for name in ("a", "b", "c")}
    return AdaptiveRouting(arms, epoch=2, seed=7), arms


def agg(node, hops=2):
    return NeighborAggregationQuery(node=node, hops=hops)


def feedback(query, response=10e-6, hits=8, misses=8, processor=0,
             loads=(1, 1, 1)):
    return RoutingFeedback(
        query=query,
        processor=processor,
        response_time=response,
        sojourn_time=response,
        stolen=False,
        cache_hits=hits,
        cache_misses=misses,
        processor_hit_rate=0.5,
        loads=tuple(loads),
    )


def run_query(strategy, query, response=10e-6, hits=8, misses=8):
    """Route one query and immediately deliver its feedback."""
    strategy.choose(query, [0, 0, 0])
    label = strategy.decision_label(query)
    strategy.on_feedback(feedback(query, response=response, hits=hits,
                                  misses=misses))
    return label


class TestQueryClass:
    def test_classes(self):
        assert query_class(agg(0, hops=1)) == "point"
        assert query_class(agg(0, hops=3)) == "traversal"
        assert query_class(RandomWalkQuery(node=0)) == "walk"
        assert query_class(ReachabilityQuery(node=0, target=1)) == "traversal"


class TestValidation:
    def test_rejects_empty_arms(self):
        with pytest.raises(ValueError):
            AdaptiveRouting({})

    @pytest.mark.parametrize("kwargs", [
        {"epoch": 0},
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveRouting({"a": StubArm("a")}, **kwargs)


class TestAudition:
    def test_audition_cycles_arms_palindromically(self, monkeypatch):
        strategy, arms = make_strategy(monkeypatch, AUDITION_ROUNDS=2)
        labels = [run_query(strategy, agg(i)) for i in range(12)]
        arms_seen = [label.split(":")[1] for label in labels]
        # Two rounds over three arms, 2 queries per epoch, second round
        # reversed: a a b b c c | c c b b a a
        assert arms_seen == list("aabbcc" + "ccbbaa")

    def test_mode_transitions_to_committed(self, monkeypatch):
        strategy, _ = make_strategy(monkeypatch)
        assert strategy.mode == "audition"
        for i in range(6):
            run_query(strategy, agg(i))
        assert strategy.mode == "committed"

    def test_single_arm_skips_audition(self):
        strategy = AdaptiveRouting({"only": StubArm("only")})
        assert strategy.mode == "committed"
        assert strategy.choose(agg(0), [0]) == 0

    def test_audition_extends_until_arms_measured(self, monkeypatch):
        # Feedback withheld entirely: after the scheduled epochs the
        # strategy keeps auditioning (starved arms) instead of committing.
        strategy, _ = make_strategy(monkeypatch)
        for i in range(10):
            strategy.choose(agg(i), [0, 0, 0])
        assert strategy.mode == "audition"


class TestCommit:
    def test_commits_to_lowest_miss_ratio_arm(self, monkeypatch):
        strategy, arms = make_strategy(monkeypatch)
        # Audition: arm 'b' shows far fewer misses than 'a' and 'c'.
        ratios = {"a": 12, "b": 1, "c": 12}
        for i in range(6):
            query = agg(i)
            strategy.choose(query, [0, 0, 0])
            arm = strategy.decision_label(query).split(":")[1]
            strategy.on_feedback(feedback(query, misses=ratios[arm],
                                          hits=16 - ratios[arm]))
        assert strategy.mode == "committed"
        label = run_query(strategy, agg(100))
        assert label == "adaptive:b"

    def test_decision_label_defaults_to_name(self, monkeypatch):
        strategy, _ = make_strategy(monkeypatch)
        assert strategy.decision_label(agg(0)) == "adaptive"

    def test_commit_is_sticky_between_auditions(self, monkeypatch):
        strategy, _ = make_strategy(monkeypatch)
        # 'b' wins the audition decisively.
        ratios = {"a": 10, "b": 4, "c": 10}
        for i in range(6):
            query = agg(i)
            strategy.choose(query, [0, 0, 0])
            arm = strategy.decision_label(query).split(":")[1]
            strategy.on_feedback(feedback(query, misses=ratios[arm],
                                          hits=16 - ratios[arm]))
        assert run_query(strategy, agg(10)) == "adaptive:b"
        # Probe-style score updates cannot overturn the commitment
        # mid-generation, even with a decisive-looking gap.
        strategy._classes["traversal"].arms["a"].score = 0.01
        assert run_query(strategy, agg(11)) == "adaptive:b"

    def test_reaudition_switches_on_decisive_gap(self, monkeypatch):
        strategy, _ = make_strategy(monkeypatch, SWITCH_MARGIN=0.1)
        ratios = {"a": 10, "b": 4, "c": 10}
        for i in range(6):
            query = agg(i)
            strategy.choose(query, [0, 0, 0])
            arm = strategy.decision_label(query).split(":")[1]
            strategy.on_feedback(feedback(query, misses=ratios[arm],
                                          hits=16 - ratios[arm]))
        assert run_query(strategy, agg(10)) == "adaptive:b"
        # A fresh audition where 'a' now clearly wins flips the commitment.
        strategy.trigger_audition()
        ratios = {"a": 1, "b": 12, "c": 12}
        for i in range(20, 26):
            query = agg(i)
            strategy.choose(query, [0, 0, 0])
            arm = strategy.decision_label(query).split(":")[1]
            strategy.on_feedback(feedback(query, misses=ratios[arm],
                                          hits=16 - ratios[arm]))
        assert run_query(strategy, agg(30)) == "adaptive:a"
        assert strategy.switches.get("traversal", 0) >= 1

    def test_feedback_forwarded_to_arms(self, monkeypatch):
        strategy, arms = make_strategy(monkeypatch)
        run_query(strategy, agg(0))
        assert sum(arm.feedbacks for arm in arms.values()) == 3

    def test_dispatch_forwarded_to_all_arms(self, monkeypatch):
        strategy, arms = make_strategy(monkeypatch)
        strategy.on_dispatch(agg(0), 1)
        assert all(arm.dispatches == 1 for arm in arms.values())


class TestDrift:
    def _committed_strategy(self, monkeypatch):
        strategy, arms = make_strategy(
            monkeypatch,
            MIN_DRIFT_SAMPLES=4, DRIFT_PATIENCE=3, DRIFT_THRESHOLD=0.5,
        )
        for i in range(6):
            run_query(strategy, agg(i), response=10e-6)
        assert strategy.mode == "committed"
        # Establish the committed-phase latency baseline.
        for i in range(50, 70):
            run_query(strategy, agg(i), response=10e-6)
        return strategy

    def test_sustained_latency_spike_triggers_reaudition(self, monkeypatch):
        strategy = self._committed_strategy(monkeypatch)
        assert strategy.auditions == 1
        # Committed arm latency jumps 10x and stays there.
        for i in range(100, 140):
            run_query(strategy, agg(i), response=100e-6)
        assert strategy.auditions == 2

    def test_stable_latency_never_reauditions(self, monkeypatch):
        strategy = self._committed_strategy(monkeypatch)
        for i in range(100, 160):
            run_query(strategy, agg(i), response=10e-6)
        assert strategy.auditions == 1

    def test_class_hit_rate_collapse_triggers_reaudition(self, monkeypatch):
        strategy, _ = make_strategy(
            monkeypatch, MIN_DRIFT_SAMPLES=4, HIT_RATE_DROP=0.2,
        )
        # Warm audition + committed phase: high hit ratio.
        for i in range(20):
            run_query(strategy, agg(i), hits=15, misses=1)
        assert strategy.mode == "committed"
        assert strategy.auditions == 1
        # The hotspot moves: the class's hit ratio collapses.
        for i in range(100, 200):
            run_query(strategy, agg(i), hits=0, misses=16)
            if strategy.mode == "audition":
                break
        assert strategy.auditions == 2

    def test_reaudition_recommits_to_new_best_arm(self, monkeypatch):
        # Shifting-hotspot scenario: 'a' wins the first audition, the world
        # changes (a's latency and hit ratio degrade), and after the
        # triggered re-audition the strategy commits to 'b'.
        strategy, _ = make_strategy(
            monkeypatch,
            MIN_DRIFT_SAMPLES=4, DRIFT_PATIENCE=3, DRIFT_THRESHOLD=0.5,
        )
        ratios = {"a": 1, "b": 6, "c": 12}
        for i in range(6):
            query = agg(i)
            strategy.choose(query, [0, 0, 0])
            arm = strategy.decision_label(query).split(":")[1]
            strategy.on_feedback(feedback(query, misses=ratios[arm],
                                          hits=16 - ratios[arm]))
        assert run_query(strategy, agg(10), misses=1, hits=15) == "adaptive:a"
        # Hotspot shift: 'a' degrades badly (latency spike + cold cache).
        for i in range(100, 160):
            query = agg(i)
            strategy.choose(query, [0, 0, 0])
            arm = strategy.decision_label(query).split(":")[1]
            if arm == "a":
                strategy.on_feedback(feedback(query, response=200e-6,
                                              misses=16, hits=0))
            else:
                strategy.on_feedback(feedback(query, response=10e-6,
                                              misses=2, hits=14))
            if strategy.mode == "committed" and strategy.auditions >= 2:
                break
        assert strategy.auditions >= 2
        # Post-shift greedy choice lands on an arm that is not 'a'.
        label = run_query(strategy, agg(500), misses=2, hits=14)
        assert label != "adaptive:a"


class TestExploration:
    def test_epsilon_probes_refresh_other_arms(self, monkeypatch):
        strategy, arms = make_strategy(
            monkeypatch, EPSILON=1.0, EPSILON_MIN=1.0, EPSILON_DECAY=0.0,
        )
        for i in range(6):
            run_query(strategy, agg(i))
        # With epsilon pinned at 1, every committed decision is a probe.
        before = strategy.explorations
        for i in range(10, 20):
            run_query(strategy, agg(i))
        assert strategy.explorations - before == 10

    def test_exploration_rate_decays(self, monkeypatch):
        strategy, _ = make_strategy(
            monkeypatch, EPSILON=0.5, EPSILON_MIN=0.01, EPSILON_DECAY=1.0,
        )
        early = strategy.exploration_rate("traversal")
        for i in range(6):
            run_query(strategy, agg(i))
        for i in range(50):
            run_query(strategy, agg(100 + i))
        assert strategy.exploration_rate("traversal") < early


class TestClusterIntegration:
    @pytest.fixture(scope="class")
    def graph(self):
        return ring_of_cliques(8, 5)

    @pytest.fixture(scope="class")
    def assets(self, graph):
        return GraphAssets(graph)

    def test_adaptive_cluster_run(self, graph, assets):
        config = ClusterConfig(
            num_processors=3,
            num_storage_servers=2,
            routing="adaptive",
            cache_capacity_bytes=1 << 20,
            num_landmarks=8,
            min_separation=2,
            embed_method="lmds",
            adaptive_epoch=8,
        )
        queries = [NeighborAggregationQuery(node=n % 40, hops=2)
                   for n in range(120)]
        report = run_workload(graph, queries, config, assets=assets)
        assert len(report.records) == 120
        labels = {r.routed_via for r in report.records}
        assert labels <= {"adaptive:hash", "adaptive:landmark",
                          "adaptive:embed"}
        assert len(labels) >= 2  # audition used several arms
        assert all(r.query_class == "traversal" for r in report.records)
        counts = report.per_arm_counts()
        assert sum(counts.values()) == 120
