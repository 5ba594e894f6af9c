"""Storage server and tier tests on the simulation kernel.

Reads go through the one read path every query takes —
``gather_nodes`` on a bare :class:`QueryProcessor` — and writes through
the tier's record mover (``StorageTier.multiput_process`` /
``move_process``); both are :class:`RoundTrip` requests on the servers'
FIFO pipelines. The tier holds no record bytes: sizes drive timing, and
where a record lives is its hash home plus the placement directory.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import GraphAssets, QueryStats, gather_nodes
from repro.core.processor import QueryProcessor
from repro.costs import (
    DEFAULT_COSTS,
    CacheCostModel,
    NetworkModel,
    StorageServiceModel,
)
from repro.graph import GraphUpdate, erdos_renyi, ring_of_cliques
from repro.sim import Environment
from repro.storage import (
    HOME,
    UNCHANGED,
    Move,
    StorageServer,
    StorageServerDown,
    StorageTier,
)
from repro.storage import tier as tier_module
from repro.storage.records import record_for_node
from repro.storage.server import RoundTrip

#: Free network transfers and cache upkeep: a gather's simulated time is
#: then exactly the storage pipeline's.
_PIPELINE_ONLY = replace(
    DEFAULT_COSTS,
    network=NetworkModel(name="zero", latency=0.0, bandwidth=float("inf")),
    cache=CacheCostModel(lookup=0.0, insert=0.0),
)
_FREE_NETWORK = _PIPELINE_ONLY.network


@pytest.fixture
def env():
    return Environment()


@pytest.fixture(scope="module")
def graph():
    # Nodes 0..19: compact index == node id.
    return ring_of_cliques(4, 5)


def _reader(tier, graph, cache_capacity_bytes=0):
    """A bare processor reading ``graph``'s records from ``tier``."""
    return QueryProcessor(tier.env, 0, tier, GraphAssets(graph),
                          _PIPELINE_ONLY,
                          cache_capacity_bytes=cache_capacity_bytes)


def _read(processor, nodes, stats=None):
    """Simulation process: one gather of ``nodes`` (compact indices)."""
    yield from gather_nodes(processor, np.array(nodes, dtype=np.int64),
                            stats if stats is not None else QueryStats())


def _homed_on(tier, sid, count=1):
    """The ``count`` smallest keys whose hash home is server ``sid``."""
    keys = [k for k in range(1000) if tier.home(k) == sid]
    return keys[:count]


def _size(graph, node):
    return len(record_for_node(graph, node).encode())


class TestStorageServer:
    def test_multiget_returns_values_and_takes_time(self, env, graph):
        model = StorageServiceModel(per_request=1e-6, per_key=1e-6, per_byte=0)
        tier = StorageTier(env, num_servers=1, service_model=model)
        processor = _reader(tier, graph, cache_capacity_bytes=1 << 20)
        stats = QueryStats()
        env.run(until=env.process(_read(processor, [1, 2], stats)))
        assert env.now == pytest.approx(3e-6)  # 1 request + 2 keys
        # The records are now local: admitted to the processor cache.
        assert 1 in processor.cache and 2 in processor.cache
        assert stats.bytes_fetched == _size(graph, 1) + _size(graph, 2)

    def test_requests_queue_fifo(self, env, graph):
        model = StorageServiceModel(per_request=10e-6, per_key=0, per_byte=0)
        tier = StorageTier(env, num_servers=1, service_model=model)
        processor = _reader(tier, graph)
        finish_times = []

        def client(name):
            yield from _read(processor, [1])
            finish_times.append((name, env.now))

        env.process(client("a"))
        env.process(client("b"))
        env.run()
        assert finish_times == [
            ("a", pytest.approx(10e-6)),
            ("b", pytest.approx(20e-6)),
        ]

    def test_failed_server_raises(self, env, graph):
        tier = StorageTier(env, num_servers=1)
        processor = _reader(tier, graph)
        tier.servers[0].fail()

        def client(caught):
            try:
                yield from _read(processor, [1])
            except StorageServerDown:
                caught.append(True)

        caught = []
        env.process(client(caught))
        env.run()
        assert caught == [True]
        assert tier.servers[0].requests_served == 0

    def test_recovered_server_serves_again(self, env, graph):
        tier = StorageTier(env, num_servers=1)
        processor = _reader(tier, graph)
        server = tier.servers[0]
        server.fail()
        server.recover()
        env.run(until=env.process(_read(processor, [1])))
        assert server.requests_served == 1
        assert server.alive_transitions == [(0.0, False), (0.0, True)]

    def test_counters(self, env, graph):
        tier = StorageTier(env, num_servers=1)
        processor = _reader(tier, graph)
        env.run(until=env.process(_read(processor, [1])))
        server = tier.servers[0]
        assert server.requests_served == 1
        assert server.keys_served == 1
        assert server.bytes_served == _size(graph, 1)
        assert server.writes_served == 0


class TestStorageTier:
    def test_rejects_zero_servers(self, env):
        with pytest.raises(ValueError):
            StorageTier(env, num_servers=0)

    def test_murmur_partitioning_is_balanced(self, env):
        tier = StorageTier(env, num_servers=4)
        graph = erdos_renyi(2000, 4000, seed=1)
        counts = np.bincount([tier.home(n) for n in graph.nodes()],
                             minlength=4)
        assert counts.sum() == graph.num_nodes
        assert min(counts) > 0.8 * (2000 / 4)

    def test_fetch_hits_servers_in_parallel(self, env, graph):
        # Two keys on two servers: elapsed time equals one service time,
        # not two, because multigets are issued concurrently.
        model = StorageServiceModel(per_request=10e-6, per_key=0, per_byte=0)
        tier = StorageTier(env, num_servers=2, service_model=model)
        processor = _reader(tier, graph)
        (a,), (b,) = _homed_on(tier, 0), _homed_on(tier, 1)
        stats = QueryStats()
        env.run(until=env.process(_read(processor, [a, b], stats)))
        assert env.now == pytest.approx(10e-6)
        assert stats.storage_requests == 2
        assert [s.requests_served for s in tier.servers] == [1, 1]

    def test_gather_groups_misses_by_home_server(self, env, graph):
        tier = StorageTier(env, num_servers=3)
        processor = _reader(tier, graph)
        nodes = [0, 3, 4, 6, 9]
        env.run(until=env.process(_read(processor, nodes)))
        homes = [tier.home(n) for n in nodes]
        for server in tier.servers:
            mine = [n for n, h in zip(nodes, homes) if h == server.server_id]
            assert server.requests_served == (1 if mine else 0)
            assert server.keys_served == len(mine)
            assert server.bytes_served == sum(_size(graph, n) for n in mine)

    def test_home_matches_owner_array_including_appended_nodes(self):
        from repro import ClusterConfig, GraphService

        config = ClusterConfig(
            num_processors=1, num_storage_servers=3, routing="hash",
            num_landmarks=4, min_separation=1, dim=3, embed_method="lmds",
        )
        with GraphService.open(ring_of_cliques(4, 5), config) as service:
            service.apply_updates([
                GraphUpdate.add_edge(0, 100), GraphUpdate.add_edge(101, 7),
                GraphUpdate.add_node(102),
            ])
            assets, tier = service.assets, service.tier
            owners = assets.owner_array(tier.num_servers)
            assert {100, 101, 102} <= set(assets.node_ids.tolist())
            assert len(owners) == len(assets.node_ids)
            for node in assets.node_ids.tolist():
                assert tier.home(node) == owners[assets.compact[node]]


class TestRoundTrip:
    def test_wire_sizes_per_kind(self, env):
        # One byte costs one microsecond on the wire; service is free.
        network = NetworkModel(name="bytes", latency=0.0, bandwidth=1e6)
        free = StorageServiceModel(
            per_request=0, per_key=0, per_byte=0,
            write_per_request=0, write_per_key=0, write_per_byte=0,
        )
        server = StorageServer(env, 0, free)
        env.run(until=RoundTrip(server, network, 3, 100))
        # 24 + 8 per key out, 16 + the records back.
        assert env.now == pytest.approx((24 + 8 * 3 + 16 + 100) * 1e-6)
        start = env.now
        env.run(until=RoundTrip(server, network, 3, 100, write=True))
        # 24 + 12 per record + the records out, a 16-byte ack back.
        assert env.now - start == pytest.approx(
            (24 + 12 * 3 + 100 + 16) * 1e-6)

    def test_reads_and_writes_share_one_fifo_pipeline(self, env):
        model = StorageServiceModel(
            per_request=TICK, per_key=0, per_byte=0,
            write_per_request=2 * TICK, write_per_key=0, write_per_byte=0,
        )
        server = StorageServer(env, 0, model)
        done = []

        def client(name, trip):
            yield trip
            done.append((name, env.now, server.requests_served,
                         server.writes_served))

        # Arrival order read, write, read: one pipeline serves them in it.
        env.process(client("read", RoundTrip(server, _FREE_NETWORK, 3, 24)))
        env.process(client("write", RoundTrip(
            server, _FREE_NETWORK, 2, 16, write=True)))
        env.process(client("again", RoundTrip(server, _FREE_NETWORK, 1, 8)))
        env.run()
        assert done == [
            ("read", pytest.approx(TICK), 1, 0),
            ("write", pytest.approx(3 * TICK), 1, 1),
            ("again", pytest.approx(4 * TICK), 2, 1),
        ]
        assert (server.keys_served, server.bytes_served) == (4, 32)
        assert (server.records_written, server.bytes_written) == (2, 16)


class TestWritePath:
    def test_multiput_takes_write_time_and_stores(self, env):
        model = StorageServiceModel(
            write_per_request=5e-6, write_per_key=1e-6, write_per_byte=0,
        )
        tier = StorageTier(env, num_servers=1, service_model=model)
        proc = env.process(tier.multiput_process([(1, 2), (2, 3)],
                                                 _FREE_NETWORK))
        assert env.run(until=proc) == (2, 5, None)
        assert env.now == pytest.approx(7e-6)  # 1 request + 2 records
        server = tier.servers[0]
        assert server.writes_served == 1
        assert server.records_written == 2
        assert server.bytes_written == 5
        # Read counters untouched by writes.
        assert server.requests_served == 0 and server.bytes_served == 0

    def test_multiput_accounting_mode_stores_nothing(self, env):
        tier = StorageTier(env, num_servers=1)
        env.run(until=env.process(
            tier.multiput_process([(1, 32), (2, 32)], _FREE_NETWORK)))
        server = tier.servers[0]
        assert server.records_written == 2
        assert server.bytes_written == 64
        assert not hasattr(server, "store")  # sizes only, no record bytes

    def test_multiput_on_failed_server_raises(self, env):
        # The dead server's leg raises StorageServerDown; the tier hands
        # it back instead of raising, with nothing counted as written.
        tier = StorageTier(env, num_servers=1)
        tier.servers[0].fail()
        proc = env.process(tier.multiput_process([(1, 1)], _FREE_NETWORK))
        records, nbytes, error = env.run(until=proc)
        assert isinstance(error, StorageServerDown)
        assert (records, nbytes) == (0, 0)
        assert tier.servers[0].records_written == 0
        assert tier.servers[0].writes_served == 0

    def test_writes_queue_behind_reads_on_the_pipeline(self, env, graph):
        model = StorageServiceModel(
            per_request=10e-6, per_key=0, per_byte=0,
            write_per_request=10e-6, write_per_key=0, write_per_byte=0,
        )
        tier = StorageTier(env, num_servers=1, service_model=model)
        processor = _reader(tier, graph)

        def writer(times):
            yield from tier.multiput_process([(1, 1)], _FREE_NETWORK)
            times.append(env.now)

        times = []
        env.process(_read(processor, [1]))
        env.run(until=5e-6)  # the read holds the pipeline
        env.process(writer(times))
        env.run()
        assert times == [pytest.approx(20e-6)]  # write waited for the read

    def test_tier_multiput_groups_and_runs_in_parallel(self, env):
        model = StorageServiceModel(
            write_per_request=10e-6, write_per_key=0, write_per_byte=0,
        )
        tier = StorageTier(env, num_servers=2, service_model=model)
        first, second = _homed_on(tier, 0, count=2)
        (third,) = _homed_on(tier, 1)
        proc = env.process(tier.multiput_process([
            (first, 8), (third, 8), (second, 8),
        ], _FREE_NETWORK))
        written = env.run(until=proc)
        assert written == (3, 24, None)
        # One multiput per server, concurrently: one write service time.
        assert env.now == pytest.approx(10e-6)
        assert [s.writes_served for s in tier.servers] == [1, 1]
        assert tier.servers[0].records_written == 2
        assert tier.servers[1].records_written == 1
        assert tier.servers[0].bytes_written == 16

    def test_tier_multiput_charges_network_when_given(self, env):
        model = StorageServiceModel(
            write_per_request=10e-6, write_per_key=0, write_per_byte=0,
        )
        network = NetworkModel(name="test", latency=5e-6, bandwidth=1e12)
        tier = StorageTier(env, num_servers=1, service_model=model)
        proc = env.process(tier.multiput_process([(0, 4)], network))
        env.run(until=proc)
        # request transfer + write + ack transfer (~latency-dominated).
        assert env.now == pytest.approx(20e-6, rel=0.01)

    def test_tier_multiput_empty_batch_is_noop(self, env):
        tier = StorageTier(env, num_servers=2)
        proc = env.process(tier.multiput_process([], _FREE_NETWORK))
        assert env.run(until=proc) == (0, 0, None)
        assert env.now == 0.0

    def test_tier_multiput_partial_failure_reports_survivors(self, env):
        # One server down: the other's leg still completes, totals count
        # it, and the first error is returned instead of raised.
        model = StorageServiceModel(
            write_per_request=10e-6, write_per_key=0, write_per_byte=0,
        )
        tier = StorageTier(env, num_servers=2, service_model=model)
        tier.servers[0].fail()
        (on_dead,), (on_live,) = _homed_on(tier, 0), _homed_on(tier, 1)
        proc = env.process(tier.multiput_process([
            (on_dead, 8), (on_live, 8),
        ], _FREE_NETWORK))
        records, nbytes, error = env.run(until=proc)
        assert isinstance(error, StorageServerDown)
        assert (records, nbytes) == (1, 8)
        assert tier.servers[1].records_written == 1
        assert tier.servers[1].bytes_written == 8
        assert tier.servers[0].records_written == 0


# ---------------------------------------------------------------------------
# The record mover: timed write -> directory flip
# ---------------------------------------------------------------------------

#: One read or one write batch occupies a pipeline for exactly this long.
TICK = 10e-6


def _slow_tier(env, num_servers=2):
    model = StorageServiceModel(
        per_request=TICK, per_key=0, per_byte=0,
        write_per_request=TICK, write_per_key=0, write_per_byte=0,
    )
    return StorageTier(env, num_servers=num_servers, service_model=model)


def _move(tier, kind, key, write_to, replicas, size=8):
    """A move for ``key`` whose cache key is the key itself."""
    return Move(kind, key, key, tier.home(key), size, tuple(write_to),
                replicas)


class TestRecordMover:
    def test_legs_spawn_in_first_appearance_order_on_the_read_pipeline(
            self, env, graph, monkeypatch):
        tier = _slow_tier(env)
        spawned = []

        def recording(server, network, num_keys, nbytes, write=False):
            spawned.append((server.server_id, num_keys, nbytes, write))
            return RoundTrip(server, network, num_keys, nbytes, write)

        monkeypatch.setattr(tier_module, "RoundTrip", recording)
        # A read already occupies server 1 when the wave arrives.
        (read_key,) = _homed_on(tier, 1)
        env.process(_read(_reader(tier, graph), [read_key]))
        env.run(until=TICK / 2)
        moves = [
            _move(tier, "update", 1, (1,), UNCHANGED),
            _move(tier, "update", 0, (0,), UNCHANGED),
            _move(tier, "update", 3, (1,), UNCHANGED),
        ]
        down = env.run(until=env.process(tier.move_process(moves,
                                                           _FREE_NETWORK)))
        assert down == {}
        assert spawned == [(1, 2, 16, True), (0, 1, 8, True)]
        # Server 1's leg queued behind the read (FIFO); server 0's did
        # not, and the wave ends when its slowest leg does.
        assert env.now == pytest.approx(2 * TICK)
        assert tier.servers[1].requests_served == 1
        assert tier.servers[1].writes_served == 1
        assert tier.servers[1].records_written == 2
        assert all(move.landed for move in moves)

    def test_dead_target_fails_its_moves_only(self, env):
        tier = _slow_tier(env)
        tier.servers[0].fail()
        to_dead = _move(tier, "migrate", 1, (0,), (0,))
        to_live = _move(tier, "migrate", 2, (1,), (1,))
        to_both = _move(tier, "replicate", 4, (0, 1), (0, 1))
        down = env.run(until=env.process(
            tier.move_process([to_dead, to_live, to_both], _FREE_NETWORK)
        ))
        assert list(down) == [0]
        assert isinstance(down[0], StorageServerDown)
        assert [m.landed for m in (to_dead, to_live, to_both)] == [
            False, True, False,
        ]
        # The live server's leg ran to completion, carrying both records.
        assert tier.servers[1].records_written == 2
        assert env.now == pytest.approx(TICK)
        # Only the landed move flipped the directory.
        assert sorted(tier.directory.by_key) == [2]

    def test_accounting_mode_writes_sizes_only(self, env):
        tier = _slow_tier(env)
        (key,) = _homed_on(tier, 0)
        move = _move(tier, "migrate", key, (1,), (1,), size=64)
        env.run(until=env.process(tier.move_process([move], _FREE_NETWORK)))
        assert move.landed and tier.replica_sids(key) == (1,)
        assert tier.servers[1].records_written == 1
        assert tier.servers[1].bytes_written == 64
        assert tier.servers[0].records_written == 0

    def test_migrate_one_copy_replicate_two(self, env):
        tier = _slow_tier(env, num_servers=3)
        (moved,) = _homed_on(tier, 0)
        (copied,) = _homed_on(tier, 2)
        migrate = _move(tier, "migrate", moved, (1,), (1,))
        replicate = _move(tier, "replicate", copied, (0,), (2, 0))
        env.run(until=env.process(tier.move_process([migrate, replicate], _FREE_NETWORK)))
        assert tier.replica_sids(moved) == (1,)
        assert tier.locate(moved) is tier.servers[1]
        assert tier.replica_sids(copied) == (2, 0)
        assert tier.directory.get(copied).home == 2
        # Both started from the hash home: no exception was replaced.
        assert migrate.replaced is None and replicate.replaced is None

    def test_directory_flips_at_the_landing_instant(self, env):
        tier = _slow_tier(env)
        (key,) = _homed_on(tier, 0)
        proc = env.process(
            tier.move_process([_move(tier, "migrate", key, (1,), (1,))], _FREE_NETWORK)
        )
        env.run(until=TICK / 2)  # copy in flight
        assert tier.replica_sids(key) == (0,)
        assert tier.locate(key) is tier.servers[0]
        assert tier.directory.get(key) is None
        env.run(until=proc)
        assert env.now == pytest.approx(TICK)
        assert tier.locate(key) is tier.servers[1]
        assert tier.replica_sids(key) == (1,)

    def test_revert_home_drops_substitutes_after_the_home_copy_lands(self, env):
        tier = _slow_tier(env, num_servers=3)
        (key,) = _homed_on(tier, 0)
        env.run(until=env.process(
            tier.move_process([_move(tier, "migrate", key, (1,), (1,))], _FREE_NETWORK)
        ))
        restore = _move(tier, "restore", key, (0,), HOME)
        proc = env.process(tier.move_process([restore], _FREE_NETWORK))
        env.run(until=env.now + TICK / 2)  # home copy in flight
        assert tier.replica_sids(key) == (1,)
        assert tier.locate(key) is tier.servers[1]
        env.run(until=proc)
        assert restore.landed and restore.replaced == (1,)
        assert tier.replica_sids(key) == (0,)
        assert tier.locate(key) is tier.servers[0]
        assert len(tier.directory) == 0

    def test_failed_revert_keeps_the_substitute(self, env):
        tier = _slow_tier(env, num_servers=3)
        (key,) = _homed_on(tier, 0)
        env.run(until=env.process(
            tier.move_process([_move(tier, "migrate", key, (1,), (1,))], _FREE_NETWORK)
        ))
        tier.servers[0].fail()
        restore = _move(tier, "restore", key, (0,), HOME)
        env.run(until=env.process(tier.move_process([restore], _FREE_NETWORK)))
        assert not restore.landed
        assert tier.replica_sids(key) == (1,)
        assert tier.locate(key) is tier.servers[1]

    def test_writeless_release_flips_without_simulated_time(self, env):
        tier = _slow_tier(env, num_servers=3)
        (key,) = _homed_on(tier, 0)
        env.run(until=env.process(
            tier.move_process([_move(tier, "replicate", key, (2,), (0, 2))], _FREE_NETWORK)
        ))
        landed_at = env.now
        release = _move(tier, "release", key, (), HOME)
        env.run(until=env.process(tier.move_process([release], _FREE_NETWORK)))
        assert env.now == landed_at
        assert release.landed and release.replaced == (0, 2)
        assert tier.replica_sids(key) == (0,)
        assert tier.directory.get(key) is None

    def test_a_live_wave_costs_five_events_per_leg(self, env):
        # A fixed two-server, three-record wave (two records on the first
        # leg): the mover process's start and end plus five events per
        # leg (request arrival, grant, service end, ack arrival, done).
        # Awaiting the legs costs no Condition and no observer event.
        network = NetworkModel(name="test", latency=5e-6, bandwidth=1e12)
        events = 2 + 2 * 5
        tier = _slow_tier(env)
        first, second = _homed_on(tier, 0, count=2)
        (third,) = _homed_on(tier, 1)
        proc = env.process(tier.multiput_process(
            [(first, 8), (third, 8), (second, 8)], network,
        ))
        env.run(until=proc)
        assert env.events_processed == events
        env.run()
        assert env.events_processed == events

    @pytest.mark.parametrize("front_servers_up, events", [(False, 14), (True, 18)])
    def test_a_wave_adds_no_event_beyond_its_legs(self, env, front_servers_up, events):
        # A four-server, five-record wave (two records on the first leg)
        # with servers 2 and 3 down, and servers 0 and 1 down too unless
        # ``front_servers_up``: the mover's start and end, five events per
        # live leg and three per dead one (request arrival, grant,
        # failure). Failed legs cost no Condition and no observer event:
        # 2 + 4 * 3 = 14 with every leg dead, 2 + 2 * 5 + 2 * 3 = 18 with
        # two of the four alive.
        network = NetworkModel(name="test", latency=5e-6, bandwidth=1e12)
        tier = _slow_tier(env, num_servers=4)
        first, second = _homed_on(tier, 0, count=2)
        items = [(first, 8)]
        for sid in (1, 2, 3):
            (key,) = _homed_on(tier, sid)
            items.append((key, 8))
        items.append((second, 8))
        down = (2, 3) if front_servers_up else (0, 1, 2, 3)
        for sid in down:
            tier.servers[sid].fail()
        proc = env.process(tier.multiput_process(items, network))
        env.run(until=proc)
        records, _, error = proc.value
        assert records == (3 if front_servers_up else 0)
        assert isinstance(error, StorageServerDown)
        assert env.events_processed == events
        env.run()
        assert env.events_processed == events
