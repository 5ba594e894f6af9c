"""The storage tier: graph records hash-partitioned across storage servers.

The paper's storage tier (§2.3, §4.1) is RAMCloud with its default
MurmurHash3 key partitioning — deliberately *inexpensive* partitioning,
because smart routing at the processing tier is what recovers locality.

The tier also owns *where a record lives right now* — the hash
partitioner plus its :class:`~repro.storage.placement.PlacementDirectory`
of exceptions (empty ⇔ pure hash placement) — and the one way a record
moves: :meth:`StorageTier.move_process`, the timed write → directory flip
→ stale-copy clean-up path that update writes, placement rounds and
repair rounds all plan :class:`Move` lists for.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..costs import NetworkModel, StorageServiceModel
from ..graph.digraph import Graph
from ..sim import Environment, Event
from .murmur import hash_node_id
from .placement import HeatTracker, PlacementDirectory, pick_read_replica
from .records import AdjacencyRecord, graph_to_records, record_for_node
from .server import StorageServer, StorageServerDown

Partitioner = Callable[[int, int], int]

#: Wire framing of a multiput request/ack (mirrors the gather constants).
_WRITE_HEADER_BYTES = 24
_PER_RECORD_WRITE_BYTES = 12  # key + length prefix per record
_WRITE_ACK_BYTES = 16

#: :attr:`Move.replicas` values besides a new replica tuple.
HOME: Tuple[int, ...] = ()  # drop the directory exception: back to the hash home
UNCHANGED = None  # fresh bytes only; the directory is not touched


def murmur_partitioner(key: int, num_servers: int) -> int:
    """RAMCloud-style placement: MurmurHash3 of the key, mod servers."""
    return hash_node_id(key) % num_servers


def modulo_partitioner(key: int, num_servers: int) -> int:
    """Plain modulo placement (useful in tests for predictable layouts)."""
    return key % num_servers


class Move:
    """One record's planned move, executed by :meth:`StorageTier.move_process`.

    ``write_to`` are the servers that need fresh bytes; ``replicas`` is
    the record's directory entry afterwards — a new replica tuple,
    :data:`HOME` or :data:`UNCHANGED`. ``kind`` is the planner's own label
    (the mover never reads it); ``payload`` overrides the bytes a
    bulk-loaded tier would encode itself. ``cache_key`` and ``home`` are
    only consulted when the directory flips.

    The mover fills ``landed`` (every ``write_to`` leg was acknowledged,
    so the directory flipped) and ``replaced`` (the directory exception
    the flip overwrote or dropped; ``None`` if the record was at its hash
    home) at the landing instant.
    """

    __slots__ = ("kind", "key", "cache_key", "home", "size", "write_to",
                 "replicas", "payload", "landed", "replaced")

    def __init__(self, kind: str, key: int, cache_key: Optional[int],
                 home: int, size: int, write_to: Tuple[int, ...],
                 replicas: Optional[Tuple[int, ...]],
                 payload: Optional[bytes] = None) -> None:
        self.kind = kind
        self.key = key
        self.cache_key = cache_key
        self.home = home
        self.size = size
        self.write_to = write_to
        self.replicas = replicas
        self.payload = payload
        self.landed = False
        self.replaced: Optional[Tuple[int, ...]] = None


def _observe_leg(_leg: Event) -> None:
    """Write-leg observer, attached at spawn.

    The mover awaits its legs one by one, so a leg that fails while an
    earlier one is still queued has no waiter at its failure instant;
    this callback is what marks the failure as *handled* from that
    instant (the mover collects it when its turn comes), keeping the
    sanitizer's unhandled-failure trap for failures nobody awaits.
    """


class StorageTier:
    """A set of storage servers holding one partitioned graph."""

    def __init__(
        self,
        env: Environment,
        num_servers: int,
        service_model: Optional[StorageServiceModel] = None,
        partitioner: Partitioner = murmur_partitioner,
        pipeline_width: int = 1,
        segment_bytes: int = 1 << 20,
    ) -> None:
        if num_servers < 1:
            raise ValueError("storage tier needs at least one server")
        self.env = env
        self.partitioner = partitioner
        self.servers: List[StorageServer] = [
            StorageServer(
                env,
                server_id=i,
                service_model=service_model or StorageServiceModel(),
                pipeline_width=pipeline_width,
                segment_bytes=segment_bytes,
            )
            for i in range(num_servers)
        ]
        #: Where records live beyond the hash partitioner: exceptions only,
        #: so an empty directory is exactly the hash-partitioned tier.
        self.directory = PlacementDirectory()
        #: The bulk-loaded graph (None = accounting mode: sizes drive
        #: timing, nothing lands in the stores). The mover encodes fresh
        #: payloads from it.
        self.graph: Optional[Graph] = None
        # Optional hooks, None unless a manager installs them — the read
        # path then stays bit-identical to the hookless tier. ``heat``:
        # decayed per-record access counts (dynamic placement).
        # ``on_read_failure``: called with the cache keys of a read wave
        # about to hit a dead server, so the repair loop can re-home
        # exactly what live traffic is blocked on (elastic topology).
        self.heat: Optional[HeatTracker] = None
        self.on_read_failure: Optional[Callable[[List[int]], None]] = None

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    def locate(self, key: int) -> StorageServer:
        """The server owning ``key`` (read-any across directory replicas)."""
        entry = self.directory.by_key.get(key)
        if entry is not None:
            return self.servers[pick_read_replica(entry.replicas, self.servers)]
        return self.servers[self.partitioner(key, self.num_servers)]

    def replica_sids(self, key: int) -> Tuple[int, ...]:
        """Every server currently holding ``key`` (write-all targets)."""
        return self.directory.replicas_for(
            key, self.partitioner(key, self.num_servers)
        )

    def load_graph(self, graph: Graph) -> int:
        """Bulk-load every adjacency record; returns total bytes stored.

        Loading happens outside simulated time (the paper's experiments
        start with the graph already resident in the storage tier).
        """
        self.graph = graph
        total = 0
        for record in graph_to_records(graph):
            payload = record.encode()
            self.locate(record.node_id).load(record.node_id, payload)
            total += len(payload)
        return total

    def store_record(self, record: AdjacencyRecord) -> None:
        """Untimed single-record upsert (used by graph-update handling).

        Write-all: a record with directory replicas is upserted on every
        replica, so read-any stays coherent.
        """
        payload = record.encode()
        for sid in self.replica_sids(record.node_id):
            self.servers[sid].load(record.node_id, payload)

    def partition_plan(self, keys: Iterable[int]) -> Dict[int, List[int]]:
        """Group ``keys`` by the server a read should go to.

        With an empty directory this is exactly the hash partition;
        directory exceptions route read-any to the least-loaded live
        replica at this simulated instant.
        """
        overlay = self.directory.by_key
        plan: Dict[int, List[int]] = {}
        for key in keys:
            entry = overlay.get(key)
            if entry is not None:
                sid = pick_read_replica(entry.replicas, self.servers)
            else:
                sid = self.partitioner(key, self.num_servers)
            plan.setdefault(sid, []).append(key)
        return plan

    def fetch_process(self, keys: Iterable[int]):
        """Simulation process fetching records for ``keys`` in parallel.

        Issues one multiget per involved server concurrently (server-side
        queueing applies) and yields ``{key: AdjacencyRecord}``. Network
        cost is the *caller's* concern: the query processor knows which
        interconnect it is on.
        """
        plan = self.partition_plan(keys)
        pending = [
            self.env.process(self.servers[sid].multiget_process(server_keys))
            for sid, server_keys in plan.items()
        ]
        value_maps = yield self.env.all_of(pending)
        records: Dict[int, AdjacencyRecord] = {}
        for values in value_maps:
            for key, payload in values.items():
                records[key] = AdjacencyRecord.decode(payload)
        return records

    def _server_write_process(
        self,
        server: StorageServer,
        entries: List[Tuple[int, Optional[bytes]]],
        nbytes: int,
        network: Optional[NetworkModel],
    ):
        """One server's leg of a multiput: request transfer, write, ack."""
        if network is not None:
            request_bytes = (
                _WRITE_HEADER_BYTES
                + _PER_RECORD_WRITE_BYTES * len(entries)
                + nbytes
            )
            yield self.env.timeout(network.transfer_time(request_bytes))
        yield self.env.process(server.multiput_process(entries, nbytes))
        if network is not None:
            yield self.env.timeout(network.transfer_time(_WRITE_ACK_BYTES))
        return len(entries), nbytes

    def move_process(
        self, moves: Sequence[Move], network: Optional[NetworkModel] = None
    ):
        """The record mover: timed writes, directory flip, stale-copy
        clean-up — the one path by which records change servers or bytes.

        Every move's fresh copy is written to its ``write_to`` servers
        through the same FIFO pipelines queries fetch from, one batched
        leg per server (first-appearance order), all legs in flight at
        once; ``network``, when given, charges each leg's request/ack
        transfers. Payloads are encoded here iff the tier was bulk-loaded
        (accounting mode writes sizes only). Every leg runs to completion
        — a dead server fails its own leg, never the others'.

        At the instant the last leg finishes, each move whose legs all
        landed flips the directory to its ``replicas`` and only then
        loses the copies outside that set, so no read ever routes to a
        server lacking the record; a move with a failed leg changes
        nothing (its planner retries or gives up). Returns ``{server id:
        StorageServerDown}`` for the failed legs, in leg order; per-move
        outcomes are left on the moves (``landed`` / ``replaced``).
        """
        graph = self.graph
        legs: Dict[int, List[Tuple[int, Optional[bytes]]]] = {}
        leg_bytes: Dict[int, int] = {}
        for move in moves:
            if not move.write_to:
                continue
            payload = move.payload
            if payload is None and graph is not None:
                payload = record_for_node(graph, move.key).encode()
            for sid in move.write_to:
                legs.setdefault(sid, []).append((move.key, payload))
                leg_bytes[sid] = leg_bytes.get(sid, 0) + move.size
        pending = []
        for sid, entries in legs.items():
            leg = self.env.process(self._server_write_process(
                self.servers[sid], entries, leg_bytes[sid], network,
            ))
            leg.callbacks.append(_observe_leg)
            pending.append((sid, leg))
        down: Dict[int, StorageServerDown] = {}
        for sid, leg in pending:
            try:
                yield leg
            except StorageServerDown as error:
                down[sid] = error

        directory = self.directory
        for move in moves:
            move.landed = not any(sid in down for sid in move.write_to)
            if not move.landed or move.replicas is UNCHANGED:
                continue
            entry = directory.by_key.get(move.key)
            move.replaced = entry.replicas if entry is not None else None
            if move.replicas:
                directory.place(
                    move.key, move.cache_key, move.home, move.replicas
                )
            else:
                directory.drop(move.key)
            stale = set(move.replaced or (move.home,))
            stale.difference_update(move.replicas or (move.home,))
            for sid in sorted(stale):
                store = self.servers[sid].store
                if move.key in store:
                    store.delete(move.key)
        return down

    def multiput_process(
        self,
        items: Iterable[Tuple[int, int, Optional[bytes]]],
        network: Optional[NetworkModel] = None,
    ):
        """Simulation process writing updated records in place (the write
        twin of :meth:`fetch_process`): one :data:`UNCHANGED` move per
        item through :meth:`move_process`.

        ``items`` are ``(key, size_bytes, payload)`` triples; a ``None``
        payload is encoded by a bulk-loaded tier and stays ``None`` in
        accounting mode.

        Returns ``(records_written, bytes_written, error)``: the totals
        count what actually landed, and ``error`` carries the first
        :class:`StorageServerDown` (or ``None``) instead of raising — the
        caller decides how a partial write surfaces, with accurate
        counters in hand either way.

        Directory replicas get **write-all-or-invalidate** semantics:
        a replicated key is written on every replica server, and a
        replica whose leg failed is *dropped from the directory* at the
        simulated instant the failure is known (the surviving replicas
        stay coherent, so read-any remains sound). ``error`` then
        reports only keys that landed on **no** server — with an empty
        directory every key lives on exactly one leg, so this reduces to
        any-leg-failed.
        """
        directory = self.directory
        replicated = bool(directory)
        moves = []
        for key, size, payload in items:
            home = self.partitioner(key, self.num_servers)
            moves.append(Move(
                "update", key, None, home, size,
                directory.replicas_for(key, home), UNCHANGED, payload,
            ))
        down = yield from self.move_process(moves, network)
        total_records = 0
        total_bytes = 0
        for move in moves:
            for sid in move.write_to:
                if sid not in down:
                    total_records += 1
                    total_bytes += move.size
        error = next(iter(down.values()), None)
        if down and replicated:
            # Coverage check: a key is lost only if *every* holder failed.
            any_lost = False
            for move in moves:
                if move.landed:
                    continue
                holders = directory.replicas_for(move.key, move.home)
                if all(sid in down for sid in holders):
                    any_lost = True
                    continue
                # Invalidate the failed copies; survivors carry on.
                for sid in move.write_to:
                    if sid in down:
                        directory.drop_replica(move.key, sid)
            if not any_lost:
                error = None
        return total_records, total_bytes, error

    def total_live_bytes(self) -> int:
        return sum(server.store.live_bytes() for server in self.servers)

    def load_distribution(self) -> List[int]:
        """Records held per server — partition-balance diagnostics."""
        return [len(server.store) for server in self.servers]
