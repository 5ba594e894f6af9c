"""``run_workload`` suite: one cold-cache run per call — schemes, report
invariants, determinism, scheme ordering, service-argument pass-through."""

import pytest

from repro import (
    ClusterConfig,
    ETHERNET_COSTS,
    GraphAssets,
    GraphService,
    run_workload,
)
from repro.core import ROUTING_CHOICES
from repro.datasets import memetracker_like
from repro.embedding import GraphEmbedding
from repro.landmarks import LandmarkIndex
from repro.workloads import hotspot_stream


@pytest.fixture(scope="module")
def setup():
    graph = memetracker_like(scale=0.05, seed=2)
    assets = GraphAssets(graph)
    queries = list(hotspot_stream(
        graph, num_hotspots=10, queries_per_hotspot=10, radius=2, hops=2,
        seed=1, csr=assets.csr_both,
    ))
    return graph, assets, queries


def _config(routing, **kwargs):
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


def _run(setup, routing, **kwargs):
    graph, assets, queries = setup
    return run_workload(graph, queries, _config(routing, **kwargs),
                        assets=assets)


def _trace(report):
    return (
        report.makespan,
        report.total_cache_hits(),
        [r.processor for r in report.records],
    )


class TestAllSchemesRun:
    @pytest.mark.parametrize("routing", ROUTING_CHOICES)
    def test_scheme_completes_workload(self, setup, routing):
        report = _run(setup, routing)
        assert len(report.records) == len(setup[2])
        assert report.makespan > 0
        assert report.throughput() > 0
        assert report.routing == routing

    def test_unknown_scheme_rejected(self, setup):
        with pytest.raises(ValueError):
            _run(setup, "telepathy")

    def test_zero_processors_rejected(self, setup):
        with pytest.raises(ValueError):
            _run(setup, "hash", num_processors=0)

    def test_negative_cache_capacity_rejected(self, setup):
        # A negative capacity used to switch caches off silently under a
        # caching scheme's label; zero stays valid (the Fig 9 sweeps use it).
        with pytest.raises(ValueError, match="cache_capacity_bytes"):
            _run(setup, "hash", cache_capacity_bytes=-1)
        report = _run(setup, "hash", cache_capacity_bytes=0)
        assert len(report.records) == len(setup[2])
        assert report.total_cache_hits() == 0


class TestReportInvariants:
    def test_response_le_sojourn_plus_decision(self, setup):
        report = _run(setup, "hash")
        for record in report.records:
            # Sojourn covers queueing; response adds the routing decision.
            assert (
                record.response_time
                <= record.sojourn_time + record.decision_time + 1e-12
            )

    def test_per_processor_counts_sum(self, setup):
        report = _run(setup, "embed")
        assert sum(report.per_processor_counts().values()) == len(setup[2])

    def test_summary_keys_stable(self, setup):
        summary = _run(setup, "hash").summary()
        for key in ("throughput_qps", "mean_response_ms", "cache_hit_rate",
                    "stolen", "load_imbalance"):
            assert key in summary

    def test_percentiles_monotone(self, setup):
        report = _run(setup, "hash")
        assert (
            report.percentile_response_time(50)
            <= report.percentile_response_time(95)
            <= report.percentile_response_time(100)
        )

    def test_utilizations_in_unit_interval(self, setup):
        graph, assets, queries = setup
        with GraphService.open(graph, _config("hash"), assets=assets) as service:
            with service.session() as session:
                session.stream(queries)
                session.drain()
            for u in service.processor_utilizations():
                assert 0.0 <= u <= 1.0
            for u in service.storage_utilizations():
                assert 0.0 <= u <= 1.0


class TestDeterminism:
    def test_same_config_same_report(self, setup):
        assert _trace(_run(setup, "embed")) == _trace(_run(setup, "embed"))

    def test_every_call_starts_cold(self, setup):
        # A second call on the same graph/assets/queries is a new cluster:
        # empty caches and simulated time zero, so the compulsory misses
        # (and the first query's start time) repeat exactly.
        first, second = _run(setup, "hash"), _run(setup, "hash")
        assert first.total_cache_misses() == second.total_cache_misses() > 0
        assert min(r.enqueued_at for r in second.records) == 0.0

    def test_accepts_a_generator(self, setup):
        graph, assets, queries = setup
        config = _config("hash", submit_batch=16)
        listed = run_workload(graph, queries, config, assets=assets)
        streamed = run_workload(graph, iter(queries), config, assets=assets)
        assert _trace(listed) == _trace(streamed)


class TestExpectedBehaviours:
    def test_smart_routing_beats_baseline_on_hits(self, setup):
        hash_report = _run(setup, "hash")
        embed_report = _run(setup, "embed")
        assert embed_report.total_cache_hits() >= hash_report.total_cache_hits()

    def test_infiniband_faster_than_ethernet(self, setup):
        fast = _run(setup, "hash")
        slow = _run(setup, "hash", costs=ETHERNET_COSTS)
        assert slow.mean_response_time() > fast.mean_response_time()

    def test_more_processors_more_throughput(self, setup):
        one = _run(setup, "embed", num_processors=1)
        four = _run(setup, "embed", num_processors=4)
        assert four.throughput() > one.throughput()

    def test_tiny_cache_worse_than_no_cache(self, setup):
        tiny = _run(setup, "next_ready", cache_capacity_bytes=2048)
        nocache = _run(setup, "no_cache")
        assert tiny.mean_response_time() > nocache.mean_response_time()

    def test_run_workload_convenience(self, setup):
        graph, assets, queries = setup
        report = run_workload(graph, queries[:10], _config("hash"),
                              assets=assets)
        assert len(report.records) == 10


class TestServiceArgumentPassThrough:
    """``landmark_index=`` / ``embedding=`` reach the strategy (Fig 10 runs
    routing on preprocessing the config would not have built)."""

    COARSE = dict(num_landmarks=4, min_separation=1)

    def test_landmark_index_override_is_used(self, setup):
        graph, assets, queries = setup
        index = LandmarkIndex.build(
            graph, num_processors=4, csr=assets.csr_both, **self.COARSE
        )
        overridden = run_workload(graph, queries, _config("landmark"),
                                  assets=assets, landmark_index=index)
        assert _trace(overridden) == _trace(
            _run(setup, "landmark", **self.COARSE)
        )
        assert _trace(overridden) != _trace(_run(setup, "landmark"))

    def test_embedding_override_is_used(self, setup):
        graph, assets, queries = setup
        embedding = GraphEmbedding.embed(
            assets.csr_both, dim=6, method="lmds", **self.COARSE
        )
        overridden = run_workload(graph, queries, _config("embed"),
                                  assets=assets, embedding=embedding)
        assert _trace(overridden) == _trace(
            _run(setup, "embed", **self.COARSE)
        )
        assert _trace(overridden) != _trace(_run(setup, "embed"))

    def test_unknown_service_argument_rejected(self, setup):
        graph, assets, queries = setup
        with pytest.raises(TypeError):
            run_workload(graph, queries, _config("hash"), assets=assets,
                         warm=True)
