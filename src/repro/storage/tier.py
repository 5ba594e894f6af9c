"""The storage tier: graph records hash-partitioned across storage servers.

The paper's storage tier (§2.3, §4.1) is RAMCloud with its default
MurmurHash3 key partitioning — deliberately *inexpensive* partitioning,
because smart routing at the processing tier is what recovers locality.

A processor sees the tier only as partitioned records, each costing a
multiget round trip; so the tier models time from record *sizes*
(``GraphAssets.record_sizes``) and holds no record bytes. It owns *where
a record lives right now* — its hash home (:meth:`StorageTier.home`,
the same MurmurHash3 the read path's ``GraphAssets.owner_array`` uses)
plus the :class:`~repro.storage.placement.PlacementDirectory` of
exceptions (empty ⇔ pure hash placement) — and the one way a record
moves: :meth:`StorageTier.move_process`, the timed write → directory
flip path that update writes, placement rounds and repair rounds all
plan :class:`Move` lists for. Each write leg is a
:class:`~repro.storage.server.RoundTrip`, the same request a query's
fetch is, so writes queue on the read pipelines in arrival order.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..costs import NetworkModel, StorageServiceModel
from ..sim import Environment, Event
from .murmur import hash_node_id
from .placement import HeatTracker, PlacementDirectory, pick_read_replica
from .server import RoundTrip, StorageServer, StorageServerDown

#: :attr:`Move.replicas` values besides a new replica tuple.
HOME: Tuple[int, ...] = ()  # drop the directory exception: back to the hash home
UNCHANGED = None  # fresh bytes only; the directory is not touched


class Move:
    """One record's planned move, executed by :meth:`StorageTier.move_process`.

    ``write_to`` are the servers that need fresh bytes; ``replicas`` is
    the record's directory entry afterwards — a new replica tuple,
    :data:`HOME` or :data:`UNCHANGED`. ``kind`` is the planner's own label
    (the mover never reads it); ``size`` is the record's encoded size.
    ``cache_key`` and ``home`` are only consulted when the directory
    flips.

    The mover fills ``landed`` (every ``write_to`` leg was acknowledged,
    so the directory flipped) and ``replaced`` (the directory exception
    the flip overwrote or dropped; ``None`` if the record was at its hash
    home) at the landing instant.
    """

    __slots__ = ("kind", "key", "cache_key", "home", "size", "write_to",
                 "replicas", "landed", "replaced")

    def __init__(self, kind: str, key: int, cache_key: Optional[int],
                 home: int, size: int, write_to: Tuple[int, ...],
                 replicas: Optional[Tuple[int, ...]]) -> None:
        self.kind = kind
        self.key = key
        self.cache_key = cache_key
        self.home = home
        self.size = size
        self.write_to = write_to
        self.replicas = replicas
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
    ) -> None:
        if num_servers < 1:
            raise ValueError("storage tier needs at least one server")
        self.env = env
        self.servers: List[StorageServer] = [
            StorageServer(
                env,
                server_id=i,
                service_model=service_model or StorageServiceModel(),
            )
            for i in range(num_servers)
        ]
        #: Where records live beyond the hash partitioner: exceptions only,
        #: so an empty directory is exactly the hash-partitioned tier.
        self.directory = PlacementDirectory()
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

    def home(self, key: int) -> int:
        """``key``'s hash home: MurmurHash3 of the key, mod servers — the
        server ``GraphAssets.owner_array`` assigns it on the read path."""
        return hash_node_id(key) % len(self.servers)

    def locate(self, key: int) -> StorageServer:
        """The server owning ``key`` (read-any across directory replicas)."""
        entry = self.directory.by_key.get(key)
        if entry is not None:
            return self.servers[pick_read_replica(entry.replicas, self.servers)]
        return self.servers[self.home(key)]

    def replica_sids(self, key: int) -> Tuple[int, ...]:
        """Every server currently holding ``key`` (write-all targets)."""
        return self.directory.replicas_for(key, self.home(key))

    def move_process(self, moves: Sequence[Move], network: NetworkModel):
        """The record mover: timed writes, then the directory flip — the
        one path by which records change servers or bytes.

        Every move's fresh copy (``size`` bytes) is written to its
        ``write_to`` servers through the same FIFO pipelines queries
        fetch from, one batched multiput :class:`RoundTrip` per server
        (first-appearance order), all legs in flight at once, each paying
        its request/ack transfers on ``network``. Every leg runs to
        completion — a dead server fails its own leg, never the others'.

        At the instant the last leg finishes, each move whose legs all
        landed flips the directory to its ``replicas``, so no read ever
        routes to a server lacking the record; a move with a failed leg
        changes nothing (its planner retries or gives up). Returns
        ``{server id: StorageServerDown}`` for the failed legs, in leg
        order; per-move outcomes are left on the moves (``landed`` /
        ``replaced``).
        """
        leg_records: Dict[int, int] = {}
        leg_bytes: Dict[int, int] = {}
        for move in moves:
            for sid in move.write_to:
                leg_records[sid] = leg_records.get(sid, 0) + 1
                leg_bytes[sid] = leg_bytes.get(sid, 0) + move.size
        pending = []
        for sid, records in leg_records.items():
            leg = RoundTrip(self.servers[sid], network, records,
                            leg_bytes[sid], write=True)
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
        return down

    def multiput_process(
        self, items: Iterable[Tuple[int, int]], network: NetworkModel
    ):
        """Simulation process writing updated records in place: one
        :data:`UNCHANGED` move per ``(key, size_bytes)`` item through
        :meth:`move_process`.

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
        for key, size in items:
            home = self.home(key)
            moves.append(Move(
                "update", key, None, home, size,
                directory.replicas_for(key, home), UNCHANGED,
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
