"""Storage server and tier tests on the simulation kernel."""

import pytest

from repro.costs import StorageServiceModel
from repro.graph import erdos_renyi, ring_of_cliques
from repro.sim import Environment
from repro.storage import (
    HOME,
    UNCHANGED,
    Move,
    StorageServer,
    StorageServerDown,
    StorageTier,
    modulo_partitioner,
)
from repro.storage.records import record_for_node


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def loaded_tier(env):
    tier = StorageTier(env, num_servers=3, partitioner=modulo_partitioner)
    graph = ring_of_cliques(4, 5)
    tier.load_graph(graph)
    return tier, graph


class TestStorageServer:
    def test_multiget_returns_values_and_takes_time(self, env):
        model = StorageServiceModel(per_request=1e-6, per_key=1e-6, per_byte=0)
        server = StorageServer(env, 0, model)
        server.load(1, b"abc")
        server.load(2, b"de")

        proc = env.process(server.multiget_process([1, 2]))
        values = env.run(until=proc)
        assert values == {1: b"abc", 2: b"de"}
        assert env.now == pytest.approx(3e-6)  # 1 request + 2 keys

    def test_requests_queue_fifo(self, env):
        model = StorageServiceModel(per_request=10e-6, per_key=0, per_byte=0)
        server = StorageServer(env, 0, model)
        server.load(1, b"x")
        finish_times = []

        def client(name):
            yield env.process(server.multiget_process([1]))
            finish_times.append((name, env.now))

        env.process(client("a"))
        env.process(client("b"))
        env.run()
        assert finish_times == [
            ("a", pytest.approx(10e-6)),
            ("b", pytest.approx(20e-6)),
        ]

    def test_pipeline_width_allows_parallel_service(self, env):
        model = StorageServiceModel(per_request=10e-6, per_key=0, per_byte=0)
        server = StorageServer(env, 0, model, pipeline_width=2)
        server.load(1, b"x")

        def client():
            yield env.process(server.multiget_process([1]))

        env.process(client())
        env.process(client())
        env.run()
        assert env.now == pytest.approx(10e-6)  # both served concurrently

    def test_failed_server_raises(self, env):
        server = StorageServer(env, 0, StorageServiceModel())
        server.load(1, b"x")
        server.fail()

        def client(caught):
            try:
                yield env.process(server.multiget_process([1]))
            except StorageServerDown:
                caught.append(True)

        caught = []
        env.process(client(caught))
        env.run()
        assert caught == [True]

    def test_recovered_server_serves_again(self, env):
        server = StorageServer(env, 0, StorageServiceModel())
        server.load(1, b"x")
        server.fail()
        server.recover()
        proc = env.process(server.multiget_process([1]))
        assert env.run(until=proc) == {1: b"x"}

    def test_counters(self, env):
        server = StorageServer(env, 0, StorageServiceModel())
        server.load(1, b"abc")
        proc = env.process(server.multiget_process([1]))
        env.run(until=proc)
        assert server.requests_served == 1
        assert server.keys_served == 1
        assert server.bytes_served == 3


class TestStorageTier:
    def test_rejects_zero_servers(self, env):
        with pytest.raises(ValueError):
            StorageTier(env, num_servers=0)

    def test_modulo_partitioner_places_predictably(self, loaded_tier):
        tier, _graph = loaded_tier
        assert tier.locate(0) is tier.servers[0]
        assert tier.locate(4) is tier.servers[1]
        assert tier.locate(5) is tier.servers[2]

    def test_load_graph_places_every_node(self, loaded_tier):
        tier, graph = loaded_tier
        assert sum(tier.load_distribution()) == graph.num_nodes

    def test_murmur_partitioning_is_balanced(self, env):
        tier = StorageTier(env, num_servers=4)
        graph = erdos_renyi(2000, 4000, seed=1)
        tier.load_graph(graph)
        counts = tier.load_distribution()
        assert min(counts) > 0.8 * (2000 / 4)

    def test_fetch_decodes_records(self, env, loaded_tier):
        tier, graph = loaded_tier
        proc = env.process(tier.fetch_process([0, 1, 7]))
        records = env.run(until=proc)
        assert set(records) == {0, 1, 7}
        for node, record in records.items():
            expected = record_for_node(graph, node)
            assert record == expected

    def test_fetch_missing_keys_skipped(self, env, loaded_tier):
        tier, _graph = loaded_tier
        proc = env.process(tier.fetch_process([0, 99999]))
        records = env.run(until=proc)
        assert set(records) == {0}

    def test_fetch_hits_servers_in_parallel(self, env):
        # Two keys on two servers: elapsed time equals one service time,
        # not two, because multigets are issued concurrently.
        model = StorageServiceModel(per_request=10e-6, per_key=0, per_byte=0)
        tier = StorageTier(
            env, num_servers=2, service_model=model, partitioner=modulo_partitioner
        )
        from repro.storage import AdjacencyRecord

        tier.servers[0].load(0, AdjacencyRecord(0).encode())
        tier.servers[1].load(1, AdjacencyRecord(1).encode())
        proc = env.process(tier.fetch_process([0, 1]))
        env.run(until=proc)
        assert env.now == pytest.approx(10e-6)

    def test_partition_plan_groups_by_server(self, loaded_tier):
        tier, _graph = loaded_tier
        plan = tier.partition_plan([0, 3, 4, 6])
        assert plan == {0: [0, 3, 6], 1: [4]}

    def test_store_record_upserts(self, env, loaded_tier):
        tier, graph = loaded_tier
        record = record_for_node(graph, 0)
        record.out_edges.append((99, None))
        tier.store_record(record)
        proc = env.process(tier.fetch_process([0]))
        fetched = env.run(until=proc)
        assert 99 in fetched[0].out_neighbors()

    def test_total_live_bytes_positive_after_load(self, loaded_tier):
        tier, _graph = loaded_tier
        assert tier.total_live_bytes() > 0


class TestWritePath:
    def test_multiput_takes_write_time_and_stores(self, env):
        model = StorageServiceModel(
            write_per_request=5e-6, write_per_key=1e-6, write_per_byte=0,
        )
        server = StorageServer(env, 0, model)
        proc = env.process(
            server.multiput_process([(1, b"abc"), (2, b"de")], nbytes=5)
        )
        env.run(until=proc)
        assert env.now == pytest.approx(7e-6)  # 1 request + 2 records
        assert server.store.get(1) == b"abc"
        assert server.store.get(2) == b"de"
        assert server.writes_served == 1
        assert server.records_written == 2
        assert server.bytes_written == 5
        # Read counters untouched by writes.
        assert server.requests_served == 0 and server.bytes_served == 0

    def test_multiput_accounting_mode_stores_nothing(self, env):
        server = StorageServer(env, 0, StorageServiceModel())
        proc = env.process(
            server.multiput_process([(1, None), (2, None)], nbytes=64)
        )
        env.run(until=proc)
        assert len(server.store) == 0
        assert server.records_written == 2
        assert server.bytes_written == 64

    def test_multiput_on_failed_server_raises(self, env):
        server = StorageServer(env, 0, StorageServiceModel())
        server.fail()

        def client(caught):
            try:
                yield env.process(server.multiput_process([(1, b"x")], 1))
            except StorageServerDown:
                caught.append(True)

        caught = []
        env.process(client(caught))
        env.run()
        assert caught == [True]

    def test_writes_queue_behind_reads_on_the_pipeline(self, env):
        model = StorageServiceModel(
            per_request=10e-6, per_key=0, per_byte=0,
            write_per_request=10e-6, write_per_key=0, write_per_byte=0,
        )
        server = StorageServer(env, 0, model)
        server.load(1, b"x")

        def reader():
            yield env.process(server.multiget_process([1]))

        def writer(times):
            yield env.process(server.multiput_process([(2, b"y")], 1))
            times.append(env.now)

        times = []
        env.process(reader())
        env.process(writer(times))
        env.run()
        assert times == [pytest.approx(20e-6)]  # write waited for the read

    def test_tier_multiput_groups_and_runs_in_parallel(self, env):
        model = StorageServiceModel(
            write_per_request=10e-6, write_per_key=0, write_per_byte=0,
        )
        tier = StorageTier(
            env, num_servers=2, service_model=model,
            partitioner=modulo_partitioner,
        )
        proc = env.process(tier.multiput_process([
            (0, 8, b"a"), (1, 8, b"b"), (2, 8, b"c"),
        ]))
        written = env.run(until=proc)
        assert written == (3, 24, None)
        # One multiput per server, concurrently: one write service time.
        assert env.now == pytest.approx(10e-6)
        assert tier.servers[0].records_written == 2  # keys 0 and 2
        assert tier.servers[1].records_written == 1
        assert tier.servers[0].store.get(0) == b"a"

    def test_tier_multiput_charges_network_when_given(self, env):
        from repro.costs import NetworkModel

        model = StorageServiceModel(
            write_per_request=10e-6, write_per_key=0, write_per_byte=0,
        )
        network = NetworkModel(name="test", latency=5e-6, bandwidth=1e12)
        tier = StorageTier(
            env, num_servers=1, service_model=model,
            partitioner=modulo_partitioner,
        )
        proc = env.process(tier.multiput_process([(0, 4, None)], network))
        env.run(until=proc)
        # request transfer + write + ack transfer (~latency-dominated).
        assert env.now == pytest.approx(20e-6, rel=0.01)

    def test_tier_multiput_empty_batch_is_noop(self, env):
        tier = StorageTier(env, num_servers=2)
        proc = env.process(tier.multiput_process([]))
        assert env.run(until=proc) == (0, 0, None)
        assert env.now == 0.0

    def test_tier_multiput_partial_failure_reports_survivors(self, env):
        # One server down: the other's leg still completes, totals count
        # it, and the first error is returned instead of raised.
        model = StorageServiceModel(
            write_per_request=10e-6, write_per_key=0, write_per_byte=0,
        )
        tier = StorageTier(
            env, num_servers=2, service_model=model,
            partitioner=modulo_partitioner,
        )
        tier.servers[0].fail()
        proc = env.process(tier.multiput_process([
            (0, 8, b"a"), (1, 8, b"b"),
        ]))
        records, nbytes, error = env.run(until=proc)
        assert isinstance(error, StorageServerDown)
        assert (records, nbytes) == (1, 8)
        assert tier.servers[1].store.get(1) == b"b"
        assert tier.servers[0].records_written == 0


# ---------------------------------------------------------------------------
# The record mover: timed write -> directory flip -> stale-copy clean-up
# ---------------------------------------------------------------------------

#: One read or one write batch occupies a pipeline for exactly this long.
TICK = 10e-6


def _slow_tier(env, num_servers=2, graph=None):
    model = StorageServiceModel(
        per_request=TICK, per_key=0, per_byte=0,
        write_per_request=TICK, write_per_key=0, write_per_byte=0,
    )
    tier = StorageTier(
        env, num_servers=num_servers, service_model=model,
        partitioner=modulo_partitioner,
    )
    if graph is not None:
        tier.load_graph(graph)
    return tier


def _move(tier, kind, key, write_to, replicas, size=8):
    """A move for ``key`` whose cache key is the key itself."""
    home = tier.partitioner(key, tier.num_servers)
    return Move(kind, key, key, home, size, tuple(write_to), replicas)


def _holders(tier, key):
    return [s.server_id for s in tier.servers if key in s.store]


class TestRecordMover:
    def test_legs_spawn_in_first_appearance_order_on_the_read_pipeline(self, env):
        tier = _slow_tier(env)
        tier.servers[1].load(9, b"x")
        spawned = []
        write_leg = tier._server_write_process

        def recording(server, entries, nbytes, network):
            spawned.append((server.server_id, [k for k, _p in entries], nbytes))
            return write_leg(server, entries, nbytes, network)

        tier._server_write_process = recording
        # A read already occupies server 1 when the wave arrives.
        env.process(tier.servers[1].multiget_process([9]))
        moves = [
            _move(tier, "update", 1, (1,), UNCHANGED),
            _move(tier, "update", 0, (0,), UNCHANGED),
            _move(tier, "update", 3, (1,), UNCHANGED),
        ]
        down = env.run(until=env.process(tier.move_process(moves)))
        assert down == {}
        assert spawned == [(1, [1, 3], 16), (0, [0], 8)]
        # Server 1's leg queued behind the read (FIFO); server 0's did
        # not, and the wave ends when its slowest leg does.
        assert env.now == pytest.approx(2 * TICK)
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
            tier.move_process([to_dead, to_live, to_both])
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
        move = _move(tier, "migrate", 0, (1,), (1,), size=64)
        env.run(until=env.process(tier.move_process([move])))
        assert move.landed and tier.replica_sids(0) == (1,)
        assert tier.servers[1].bytes_written == 64
        assert all(len(server.store) == 0 for server in tier.servers)

    def test_bulk_loaded_tier_lands_real_bytes(self, env):
        graph = ring_of_cliques(4, 5)
        tier = _slow_tier(env, graph=graph)
        env.run(until=env.process(
            tier.move_process([_move(tier, "migrate", 0, (1,), (1,))])
        ))
        expected = record_for_node(graph, 0).encode()
        assert tier.servers[1].store.get(0) == expected
        # An explicit payload wins over the tier's own encoding.
        move = Move("update", 2, 2, 0, 8, (0,), UNCHANGED, payload=b"raw")
        env.run(until=env.process(tier.move_process([move])))
        assert tier.servers[0].store.get(2) == b"raw"

    def test_migrate_one_copy_replicate_two(self, env):
        tier = _slow_tier(env, num_servers=3, graph=ring_of_cliques(4, 5))
        migrate = _move(tier, "migrate", 0, (1,), (1,))
        replicate = _move(tier, "replicate", 3, (2,), (0, 2))
        env.run(until=env.process(tier.move_process([migrate, replicate])))
        assert _holders(tier, 0) == [1]
        assert tier.replica_sids(0) == (1,)
        assert _holders(tier, 3) == [0, 2]
        assert tier.replica_sids(3) == (0, 2)
        # Both started from the hash home: no exception was replaced.
        assert migrate.replaced is None and replicate.replaced is None

    def test_directory_flips_at_the_landing_instant(self, env):
        tier = _slow_tier(env, graph=ring_of_cliques(4, 5))
        proc = env.process(
            tier.move_process([_move(tier, "migrate", 0, (1,), (1,))])
        )
        env.run(until=TICK / 2)  # copy in flight
        assert tier.replica_sids(0) == (0,)
        assert tier.locate(0) is tier.servers[0]
        assert _holders(tier, 0) == [0]
        env.run(until=proc)
        assert env.now == pytest.approx(TICK)
        assert tier.locate(0) is tier.servers[1]
        assert _holders(tier, 0) == [1]

    def test_revert_home_drops_substitutes_after_the_home_copy_lands(self, env):
        tier = _slow_tier(env, num_servers=3, graph=ring_of_cliques(4, 5))
        env.run(until=env.process(
            tier.move_process([_move(tier, "migrate", 0, (1,), (1,))])
        ))
        restore = _move(tier, "restore", 0, (0,), HOME)
        proc = env.process(tier.move_process([restore]))
        env.run(until=env.now + TICK / 2)  # home copy in flight
        assert _holders(tier, 0) == [1]
        assert tier.replica_sids(0) == (1,)
        env.run(until=proc)
        assert restore.landed and restore.replaced == (1,)
        assert _holders(tier, 0) == [0]
        assert len(tier.directory) == 0

    def test_failed_revert_keeps_the_substitute(self, env):
        tier = _slow_tier(env, num_servers=3, graph=ring_of_cliques(4, 5))
        env.run(until=env.process(
            tier.move_process([_move(tier, "migrate", 0, (1,), (1,))])
        ))
        tier.servers[0].fail()
        restore = _move(tier, "restore", 0, (0,), HOME)
        env.run(until=env.process(tier.move_process([restore])))
        assert not restore.landed
        assert _holders(tier, 0) == [1]
        assert tier.replica_sids(0) == (1,)

    def test_writeless_release_flips_without_simulated_time(self, env):
        tier = _slow_tier(env, num_servers=3, graph=ring_of_cliques(4, 5))
        env.run(until=env.process(
            tier.move_process([_move(tier, "replicate", 3, (2,), (0, 2))])
        ))
        landed_at = env.now
        release = _move(tier, "release", 3, (), HOME)
        env.run(until=env.process(tier.move_process([release])))
        assert env.now == landed_at
        assert release.landed and release.replaced == (0, 2)
        assert _holders(tier, 3) == [0]

    @pytest.mark.parametrize("with_network, events", [(False, 14), (True, 18)])
    def test_a_wave_adds_no_event_beyond_its_legs(self, env, with_network, events):
        # Event counts of the pre-mover write loop for this fixed
        # two-server, three-record wave (measured at the parent commit):
        # awaiting the legs costs no Condition and no observer event.
        from repro.costs import NetworkModel

        network = (
            NetworkModel(name="test", latency=5e-6, bandwidth=1e12)
            if with_network else None
        )
        tier = _slow_tier(env)
        proc = env.process(tier.multiput_process(
            [(0, 8, None), (1, 8, None), (2, 8, None)], network,
        ))
        env.run(until=proc)
        assert env.events_processed == events
        env.run()
        assert env.events_processed == events
