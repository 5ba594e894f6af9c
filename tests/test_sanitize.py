"""Runtime sanitizer: every trap provoked, plus sanitize-on/off parity."""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro import ClusterConfig, GraphService
from repro.analysis.sanitize import (
    UnseededRandomError,
    audit_tie_sensitivity,
    rng_trap,
)
from repro.core import GraphAssets, QueryStats, gather_nodes
from repro.core.processor import QueryProcessor
from repro.costs import DEFAULT_COSTS, CacheCostModel, NetworkModel
from repro.datasets import memetracker_like
from repro.graph import erdos_renyi
from repro.sim import Environment, SimulationError
from repro.storage import StorageTier
from repro.workloads import hotspot_stream


class TestPooledTimeoutRetention:
    def test_value_read_after_next_yield_trips(self):
        env = Environment(sanitize=True)

        def retainer(env):
            t = env.timeout(1.0)
            yield t
            yield env.timeout(1.0)  # t is retired here
            return t.value  # reuse-after-free

        env.process(retainer(env))
        with pytest.raises(SimulationError, match="recycled bare Timeout"):
            env.run()

    def test_re_yield_after_next_yield_trips(self):
        env = Environment(sanitize=True)

        def re_yielder(env):
            t = env.timeout(1.0)
            yield t
            yield env.timeout(1.0)
            yield t  # single-waiter contract violation

        env.process(re_yielder(env))
        with pytest.raises(SimulationError, match="recycled bare Timeout"):
            env.run()

    def test_unsanitized_run_recycles_silently(self):
        # The bug the trap exists for: without sanitize the retained
        # reference aliases a *recycled* timeout and misreads state.
        env = Environment(sanitize=False)

        def retainer(env):
            t = env.timeout(1.0)
            yield t
            yield env.timeout(1.0)

        env.process(retainer(env))
        env.run()
        # recycled (into the one-slot spare lane or the free list),
        # not retired
        assert env._spare is not None or len(env._timeout_pool) >= 1

    def test_valued_timeouts_are_exempt(self):
        env = Environment(sanitize=True)
        seen = []

        def keeper(env):
            t = env.timeout(1.0, value="payload")
            yield t
            yield env.timeout(1.0)
            seen.append(t.value)  # explicit value= opts out of pooling

        env.process(keeper(env))
        env.run()
        assert seen == ["payload"]


class TestUnhandledFailureTrap:
    def test_unobserved_process_failure_surfaces(self):
        env = Environment(sanitize=True)

        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        env.process(failing(env))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_handled_failure_is_not_trapped(self):
        env = Environment(sanitize=True)

        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        def watcher(env):
            try:
                yield env.process(failing(env))
            except ValueError:
                return "caught"

        p = env.process(watcher(env))
        assert env.run(until=p) == "caught"

    def test_non_worker_failure_is_trapped_beside_observed_workers(self):
        # Processor workers carry an observer (their crash surfaces at
        # drain()); any other process that fails unobserved still trips
        # the trap.
        config = ClusterConfig(
            num_processors=2, num_storage_servers=2, routing="hash",
            num_landmarks=4, min_separation=1, dim=3, embed_method="lmds",
        )
        graph = erdos_renyi(40, 80, seed=3)
        with GraphService.open(graph, config, sanitize=True) as service:
            env = service.env

            def failing(env):
                yield env.timeout(1.0)
                raise ValueError("boom")

            env.process(failing(env))
            with pytest.raises(ValueError, match="boom"):
                env.run()
            service.close(drain=False)

    def test_unsanitized_failure_stays_silent(self):
        # Documents the default (simpy-like) behavior the trap tightens.
        env = Environment(sanitize=False)

        def failing(env):
            yield env.timeout(1.0)
            raise ValueError("boom")

        env.process(failing(env))
        env.run()  # completes; the exception sits on the process event


class TestRngTrap:
    def test_random_call_inside_sanitized_run_raises(self):
        env = Environment(sanitize=True)

        def gambler(env):
            yield env.timeout(1.0)
            random.random()

        env.process(gambler(env))
        with pytest.raises(UnseededRandomError, match="random.random"):
            env.run()
        # The trap uninstalls even though run() raised.
        assert 0.0 <= random.random() <= 1.0

    def test_numpy_global_call_raises(self):
        env = Environment(sanitize=True)

        def gambler(env):
            yield env.timeout(1.0)
            np.random.rand()

        env.process(gambler(env))
        with pytest.raises(UnseededRandomError, match="np.random.rand"):
            env.run()
        assert 0.0 <= float(np.random.rand()) <= 1.0

    def test_seeded_generators_pass(self):
        env = Environment(sanitize=True)
        drawn = []

        def principled(env):
            rng = random.Random(7)
            nrng = np.random.default_rng(7)
            yield env.timeout(1.0)
            drawn.append(rng.random())
            drawn.append(float(nrng.random()))

        env.process(principled(env))
        env.run()
        assert len(drawn) == 2

    def test_trap_is_refcounted(self):
        with rng_trap():
            with rng_trap():
                with pytest.raises(UnseededRandomError):
                    random.random()
            # still installed: outer context holds it
            with pytest.raises(UnseededRandomError):
                random.shuffle([1, 2])
        assert 0.0 <= random.random() <= 1.0

    def test_unsanitized_run_leaves_rng_alone(self):
        env = Environment(sanitize=False)
        drawn = []

        def gambler(env):
            yield env.timeout(1.0)
            drawn.append(random.random())

        env.process(gambler(env))
        env.run()
        assert len(drawn) == 1


class TestTieAudit:
    def test_sensitive_program_is_flagged(self):
        def build(env):
            out = []

            def proc(tag):
                out.append(tag)  # runs at Initialize dispatch: tie-ordered
                yield env.timeout(1.0)

            env.process(proc("a"))
            env.process(proc("b"))
            return lambda: list(out)

        result = audit_tie_sensitivity(build)
        assert result.sensitive
        assert result.fifo_result == ["a", "b"]
        assert result.lifo_result == ["b", "a"]
        assert "SENSITIVE" in result.describe()

    def test_insensitive_program_passes(self):
        def build(env):
            out = []

            def proc(tag):
                out.append(tag)
                yield env.timeout(1.0)

            env.process(proc("a"))
            env.process(proc("b"))
            return lambda: sorted(out)  # order-insensitive extraction

        result = audit_tie_sensitivity(build)
        assert not result.sensitive
        assert "insensitive" in result.describe()

    def test_one_sided_crash_counts_as_sensitive(self):
        def build(env):
            def chooser(env):
                yield env.timeout(1.0)

            def crasher(_env):
                raise SimulationError("lifo goes first and dies")
                yield  # pragma: no cover - unreachable

            # LIFO initializes crasher's cohort peer first.
            env.process(chooser(env))
            if env._seq_step < 0:
                env.process(crasher(env))
            return lambda: "finished"

        result = audit_tie_sensitivity(build)
        assert result.sensitive
        assert "lifo" in result.errors

    def test_build_must_return_extractor(self):
        with pytest.raises(TypeError, match="extractor"):
            audit_tie_sensitivity(lambda env: None)

    def test_invalid_tie_break_rejected(self):
        with pytest.raises(SimulationError, match="tie_break"):
            Environment(tie_break="random")


class TestTieAuditGather:
    """Tie audit over the batched gather transaction (PR 9 hot path).

    ``gather_nodes`` issues one fused ``RoundTrip`` callback chain per
    touched server. The audit must (a) certify that a single batched
    gather's result-visible state is order-insensitive, (b) still *see*
    genuine sensitivity through the callback-chain path — same-instant
    contention on a server pipeline is attributed differently under FIFO
    vs LIFO — and (c) certify overlapping-but-staggered gathers, where
    shared-cache interleaving is timing-determined rather than
    tie-determined.
    """

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(120, 480, seed=11)

    @staticmethod
    def _processor(env, graph):
        assets = GraphAssets(graph)
        tier = StorageTier(env, num_servers=3)
        # Capacity far above the working set: evictions would make
        # shared-cache hit counts legitimately order-dependent.
        return QueryProcessor(env, 0, tier, assets, DEFAULT_COSTS,
                              cache_capacity_bytes=4 << 20)

    @staticmethod
    def _stats_tuple(stats):
        return (stats.cache_hits, stats.cache_misses, stats.nodes_touched,
                stats.bytes_fetched, stats.storage_requests)

    def test_single_batched_gather_insensitive(self, graph):
        def build(env):
            processor = self._processor(env, graph)
            stats = QueryStats()
            done = []

            def wave():
                # Multi-server frontier, then a refetch mixing hits with
                # a single-owner miss (the direct-yield fetch path).
                yield from gather_nodes(
                    processor, np.arange(0, 48, dtype=np.int64), stats)
                yield from gather_nodes(
                    processor, np.arange(40, 49, dtype=np.int64), stats)
                done.append(env.now)

            env.process(wave())
            return lambda: (done, self._stats_tuple(stats))

        result = audit_tie_sensitivity(build)
        assert not result.sensitive, result.describe()

    def test_same_instant_contention_is_flagged(self, graph):
        # Two identical frontiers issued at the same instant tie on every
        # server pipeline; which query's fetch is granted first — and so
        # each query's completion time — is pure tie-break. The audit
        # must flag that through the fused callback chain.
        def build(env):
            processor = self._processor(env, graph)
            stats = [QueryStats(), QueryStats()]
            done = []

            def wave(idx):
                yield from gather_nodes(
                    processor, np.arange(0, 48, dtype=np.int64), stats[idx])
                done.append((idx, env.now))

            env.process(wave(0))
            env.process(wave(1))
            return lambda: sorted(done)

        result = audit_tie_sensitivity(build)
        assert result.sensitive

    def test_staggered_overlap_insensitive(self, graph):
        # Overlapping frontiers through the shared cache, but arrivals
        # staggered so no fetch events tie: the second wave's hit/miss
        # split depends on simulated admission *times*, not on tie order.
        def build(env):
            processor = self._processor(env, graph)
            stats = [QueryStats(), QueryStats()]
            done = []

            def wave(idx, start, lo, hi):
                if start:
                    yield env.timeout(start)
                yield from gather_nodes(
                    processor,
                    np.arange(lo, hi, dtype=np.int64), stats[idx])
                done.append((idx, env.now))

            env.process(wave(0, 0.0, 0, 48))
            env.process(wave(1, 0.0917, 24, 72))
            return lambda: (sorted(done),
                            [self._stats_tuple(s) for s in stats])

        result = audit_tie_sensitivity(build)
        assert not result.sensitive, result.describe()


class TestTieAuditWriteLeg:
    """Tie audit over a record-mover write leg beside a read.

    A write leg is the same ``RoundTrip`` a fetch is, on the same server
    pipelines. With free network and cache costs, a gather and a
    multiput issued at one instant reach the servers together, and which
    one each pipeline grants first is pure tie-break: the audit must flag
    it. Issued while the read already holds the pipelines, the write
    queues behind it by time alone: the audit must certify that.
    """

    FREE = replace(
        DEFAULT_COSTS,
        network=NetworkModel(name="zero", latency=0.0, bandwidth=float("inf")),
        cache=CacheCostModel(lookup=0.0, insert=0.0),
    )

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(120, 480, seed=11)

    def _build(self, graph, write_at):
        costs = self.FREE

        def build(env):
            tier = StorageTier(env, num_servers=3)
            processor = QueryProcessor(env, 0, tier, GraphAssets(graph), costs,
                                       cache_capacity_bytes=4 << 20)
            done = []

            def read():
                yield from gather_nodes(
                    processor, np.arange(0, 48, dtype=np.int64), QueryStats())
                done.append(("read", env.now))

            def write():
                if write_at:
                    yield env.timeout(write_at)
                yield from tier.multiput_process(
                    [(node, 64) for node in range(0, 48, 4)], costs.network)
                done.append(("write", env.now))

            env.process(read())
            env.process(write())
            return lambda: (sorted(done), [
                (server.requests_served, server.writes_served)
                for server in tier.servers
            ])

        return build

    def test_staggered_write_insensitive(self, graph):
        # Every read service takes >= 3 us: the write arrives mid-service.
        result = audit_tie_sensitivity(self._build(graph, 1.37e-6))
        assert not result.sensitive, result.describe()

    def test_same_instant_write_is_flagged(self, graph):
        result = audit_tie_sensitivity(self._build(graph, 0.0))
        assert result.sensitive


class TestTieTallies:
    def test_cohorts_counted_under_sanitize(self):
        env = Environment(sanitize=True)

        def ticker(env):
            yield env.timeout(1.0)

        env.process(ticker(env))
        env.process(ticker(env))
        env.run()
        report = env.sanitize_report()
        assert report["sanitize"] is True
        assert report["reports"] == []
        # Two multi-event cohorts: the t=0 Initialize pair, and at t=1 the
        # two timeouts plus both process-completion events (cohort of 4).
        assert report["tie_cohorts_multi"] == 2
        assert report["max_tie_cohort"] == 4

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        env = Environment()
        assert env.sanitize is False
        report = env.sanitize_report()
        assert report["tie_cohorts_multi"] == 0

    def test_queue_depth_and_distinct_times(self):
        env = Environment(sanitize=True)

        def ticker(env, delay):
            yield env.timeout(delay)

        for delay in (1.0, 1.0, 2.0):
            env.process(ticker(env, delay))
        env.run(until=1.5)
        env.run()  # the tallies carry across run() calls
        report = env.sanitize_report()
        # t=0: three Initialize events pending at once, nothing deeper.
        assert report["max_queue_depth"] == 3
        assert report["distinct_times"] == 3  # t = 0, 1, 2
        assert env.events_processed == 9

    def test_traffic_shape_tallies_free_when_off(self):
        env = Environment(sanitize=False)
        env.timeout(1.0)
        env.run()
        report = env.sanitize_report()
        assert report["max_queue_depth"] == 0
        assert report["distinct_times"] == 0

    def test_env_var_arms_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Environment().sanitize is True
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert Environment().sanitize is False
        # Explicit argument beats the environment.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert Environment(sanitize=False).sanitize is False


class TestTrafficShape:
    """The traffic shape the single binary-heap scheduler rests on.

    A heap costs O(log pending) per event and gains nothing from
    same-instant batching; that is the right trade only while few events
    are pending and few share a timestamp. If a later change (e.g.
    frontier-batched execution) makes cohorts deep or the queue long,
    this fails and the scheduler choice is due for re-measurement on the
    perf ledger.
    """

    def test_smoke_operator_mix_is_shallow_and_sparse(self):
        from dataclasses import replace

        from repro.bench.adaptive import SUBMIT_BATCH
        from repro.bench.experiments import scheme_config
        from repro.bench.harness import get_context
        from repro.bench.operator_mix import operator_mix_workload

        ctx = get_context("webgraph", scale=0.05)
        config = replace(scheme_config("adaptive"),
                         submit_batch=SUBMIT_BATCH)
        with GraphService.open(ctx.graph, config, assets=ctx.assets,
                               sanitize=True) as service:
            with service.session() as session:
                session.stream(operator_mix_workload(ctx))
                session.report()
            shape = service.env.sanitize_report()
            events = service.env.events_processed
        assert events / shape["distinct_times"] < 4
        assert shape["max_queue_depth"] < 64


class TestSanitizeParity:
    """Sanitize mode must never change simulated results — only failure
    behavior. A small end-to-end service run must be bit-identical."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = memetracker_like(scale=0.03, seed=3)
        assets = GraphAssets(graph)
        queries = list(hotspot_stream(graph, num_hotspots=5,
                                      queries_per_hotspot=8, radius=2, hops=2,
                                      seed=1, csr=assets.csr_both))
        return graph, assets, queries

    @staticmethod
    def _run(graph, assets, queries, sanitize):
        config = ClusterConfig(routing="embed", num_processors=3,
                               num_storage_servers=2,
                               cache_capacity_bytes=2 << 20,
                               num_landmarks=12, min_separation=2, dim=6,
                               embed_method="lmds")
        with GraphService.open(graph, config, assets=assets,
                               sanitize=sanitize) as service:
            with service.session() as session:
                session.submit_many(queries)
                report = session.report()
            sanitize_report = service.env.sanitize_report()
        return report, sanitize_report

    def test_results_identical_and_zero_reports(self, workload):
        graph, assets, queries = workload
        plain, _ = self._run(graph, assets, queries, sanitize=False)
        sanitized, sreport = self._run(graph, assets, queries, sanitize=True)
        assert sreport["sanitize"] is True
        assert sreport["reports"] == []
        assert sanitized.makespan == plain.makespan
        assert len(sanitized.records) == len(plain.records)
        for a, b in zip(plain.records, sanitized.records):
            assert a == b  # full per-query records, dataclass equality
