"""Storage-side placement primitives: record heat and the placement directory.

The paper keeps storage placement deliberately dumb — MurmurHash3 of the
key, mod servers (§2.3/§4.1) — and recovers locality purely by routing
queries toward data. PHD-Store and Peng et al.'s workload-based
fragmentation (PAPERS.md) make the complementary move: *move data toward
queries*. This module holds the two data structures that move needs,
kept storage-side so the tier can consult them on every read and write:

:class:`HeatTracker`
    A decayed access-frequency counter per record, keyed by *compact
    node index* (the cache/gather key space — dense, append-stable under
    live updates). Touches are vectorised over the miss arrays the
    gather path already produces; decay is lazy (applied on touch and on
    read), with a half-life measured in **simulated** seconds, so heat
    reflects the workload the simulation actually served, at any scale.

:class:`PlacementDirectory`
    A mutable overlay on the hash partitioner that stores only
    *exceptions*: records that were migrated away from their hash home
    or replicated onto extra servers. Every ``StorageTier`` owns one; an
    empty directory is bit-identical to plain hash placement
    (:meth:`StorageTier.home`). Entries are dual-keyed, by storage key (original node id
    — the key space ``StorageTier`` partitions and writes with) and by
    cache key (compact index — what the gather hot path routes with),
    because both paths must agree on where a record lives at every
    simulated instant.

Read-any / write-all-or-invalidate:
:func:`pick_read_replica` implements read-any (least-loaded live replica
by pipeline occupancy, deterministic tie-break); the write side lives in
:meth:`StorageTier.multiput_process`, which expands directory entries to
every replica and drops replicas whose server failed mid-write. Entries
are placed and dropped by :meth:`StorageTier.move_process` alone, at the
instant a move's copies have landed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .server import StorageServer


class HeatTracker:
    """Exponentially-decayed access counts per record (compact index).

    ``heat[i]`` halves every ``half_life_s`` simulated seconds of
    inactivity; a touch at time ``t`` first decays the stored value from
    its last-touch stamp, then adds the touch weight. Decay is lazy, so
    idle records cost nothing; :meth:`snapshot` applies the decay
    read-only, leaving the stamps in place.
    """

    __slots__ = ("half_life_s", "_heat", "_stamp", "touches")

    def __init__(self, half_life_s: float, size: int = 0) -> None:
        if half_life_s <= 0:
            raise ValueError("heat half-life must be positive")
        self.half_life_s = half_life_s
        self._heat = np.zeros(max(size, 1), dtype=np.float64)
        self._stamp = np.zeros(max(size, 1), dtype=np.float64)
        self.touches = 0

    def __len__(self) -> int:
        return self._heat.shape[0]

    def _ensure(self, size: int) -> None:
        if size > self._heat.shape[0]:
            grown = max(size, 2 * self._heat.shape[0])
            heat = np.zeros(grown, dtype=np.float64)
            stamp = np.zeros(grown, dtype=np.float64)
            heat[: self._heat.shape[0]] = self._heat
            stamp[: self._stamp.shape[0]] = self._stamp
            self._heat = heat
            self._stamp = stamp

    def touch(self, keys: np.ndarray, now: float, weight: float = 1.0) -> None:
        """Record accesses to ``keys`` (distinct compact indices) at ``now``.

        Vectorised: one call per gather/write batch. ``keys`` must be
        deduplicated (the gather miss array and the dirty-index array
        both are); duplicated keys would each decay from the same stamp
        and lose all but one weight.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        self._ensure(int(keys.max()) + 1)
        decay = np.exp2((self._stamp[keys] - now) / self.half_life_s)
        self._heat[keys] = self._heat[keys] * decay + weight
        self._stamp[keys] = now
        self.touches += keys.size

    def heat_of(self, key: int, now: float) -> float:
        """Decayed heat of one compact index at ``now``."""
        if key >= self._heat.shape[0]:
            return 0.0
        decay = 2.0 ** ((self._stamp[key] - now) / self.half_life_s)
        return float(self._heat[key] * decay)

    def snapshot(self, now: float) -> np.ndarray:
        """Decayed heat of every record at ``now`` (read-only; stamps stay)."""
        decay = np.exp2((self._stamp - now) / self.half_life_s)
        return self._heat * decay

    def top_k(self, k: int, now: float,
              threshold: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` hottest records above ``threshold``, hottest first.

        Returns ``(indices, heats)`` — both possibly shorter than ``k``.
        """
        heats = self.snapshot(now)
        hot = np.flatnonzero(heats >= threshold) if threshold > 0 else (
            np.flatnonzero(heats > 0)
        )
        if hot.size == 0:
            return hot, heats[hot]
        if hot.size > k:
            part = np.argpartition(heats[hot], hot.size - k)[-k:]
            hot = hot[part]
        order = np.argsort(heats[hot], kind="stable")[::-1]
        hot = hot[order]
        return hot, heats[hot]


class Placement:
    """One directory exception: where a record *actually* lives.

    ``replicas`` is an ordered tuple of server ids currently holding the
    record; ``home`` is the hash owner the record reverts to when the
    exception is dropped. A replicated record keeps its home in the
    replica set; a migrated record's set does not contain its home.
    """

    __slots__ = ("key", "cache_key", "home", "replicas", "seq")

    def __init__(self, key: int, cache_key: int, home: int,
                 replicas: Tuple[int, ...], seq: int) -> None:
        self.key = key
        self.cache_key = cache_key
        self.home = home
        self.replicas = replicas
        #: Insertion rank in the directory: entries sort by it into
        #: :meth:`PlacementDirectory.entries` order.
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Placement(key={self.key}, cache_key={self.cache_key}, "
                f"home={self.home}, replicas={self.replicas})")


class PlacementDirectory:
    """Exception-only overlay on the hash partitioner.

    Empty ⇒ pure hash placement: lookups fall through to the
    partitioner, and the gather hot path skips the overlay on
    ``by_cache_key`` truthiness, so an empty directory takes exactly the
    pre-placement code paths (the parity regression tests pin this).
    Mutations (``place`` / ``drop`` / ``drop_replica``) happen at the
    simulated instant the corresponding copies landed or were lost.
    A per-server index answers "which entries list a replica on these
    servers" (:meth:`holding`) in time proportional to the answer, so a
    repair round need not sweep the whole directory.
    """

    def __init__(self) -> None:
        #: storage key (original node id) -> Placement; the write/fetch paths.
        self.by_key: Dict[int, Placement] = {}
        #: cache key (compact index) -> the same Placement; the gather path.
        self.by_cache_key: Dict[int, Placement] = {}
        #: Monotonic edit counter (diagnostics; bumped on every mutation).
        self.version = 0
        #: Entries dropped so far (a dropped key is back on its hash home).
        self.drops = 0
        #: server id -> {key: Placement} of the entries listing that server.
        self._on_server: Dict[int, Dict[int, Placement]] = {}
        self._next_seq = 0

    def _index(self, entry: Placement, sids: Iterable[int]) -> None:
        for sid in sids:
            self._on_server.setdefault(sid, {})[entry.key] = entry

    def _unindex(self, entry: Placement, sids: Iterable[int]) -> None:
        for sid in sids:
            del self._on_server[sid][entry.key]

    def __len__(self) -> int:
        return len(self.by_key)

    def __bool__(self) -> bool:
        return bool(self.by_key)

    def entries(self) -> List[Placement]:
        return list(self.by_key.values())

    def holding(self, server_ids: Iterable[int]) -> List[Placement]:
        """Entries with a replica on any of ``server_ids``, in
        :meth:`entries` order."""
        found: Dict[int, Placement] = {}
        for sid in server_ids:
            found.update(self._on_server.get(sid, {}))
        return sorted(found.values(), key=lambda entry: entry.seq)

    def get(self, key: int) -> Optional[Placement]:
        return self.by_key.get(key)

    def place(self, key: int, cache_key: int, home: int,
              replicas: Sequence[int]) -> Placement:
        """Install/overwrite the exception for ``key``.

        ``replicas`` must be non-empty and duplicate-free; order is
        meaningful (deterministic tie-breaks scan it in order).
        """
        replica_tuple = tuple(int(s) for s in replicas)
        if not replica_tuple:
            raise ValueError("a placement needs at least one replica")
        if len(set(replica_tuple)) != len(replica_tuple):
            raise ValueError(f"duplicate replicas in {replica_tuple}")
        entry = self.by_key.get(key)
        if entry is None:
            entry = Placement(int(key), int(cache_key), int(home),
                              replica_tuple, self._next_seq)
            self._next_seq += 1
            self.by_key[int(key)] = entry
            self.by_cache_key[int(cache_key)] = entry
            self._index(entry, replica_tuple)
        else:
            old = entry.replicas
            self._unindex(entry, [sid for sid in old if sid not in replica_tuple])
            self._index(entry, [sid for sid in replica_tuple if sid not in old])
            entry.replicas = replica_tuple
        self.version += 1
        return entry

    def drop(self, key: int) -> Optional[Placement]:
        """Remove the exception: ``key`` reverts to its hash home."""
        entry = self.by_key.pop(key, None)
        if entry is not None:
            self.by_cache_key.pop(entry.cache_key, None)
            self._unindex(entry, entry.replicas)
            self.version += 1
            self.drops += 1
        return entry

    def drop_replica(self, key: int, server_id: int) -> bool:
        """Remove one replica (a failed copy) from ``key``'s set.

        Returns True if the replica was removed. The *last* replica is
        never removed this way — a fully-lost record keeps its (dead)
        location so reads surface :class:`StorageServerDown` instead of
        silently routing to a hash home that no longer holds the bytes.
        """
        entry = self.by_key.get(key)
        if entry is None or server_id not in entry.replicas:
            return False
        remaining = tuple(s for s in entry.replicas if s != server_id)
        if not remaining:
            return False
        self._unindex(entry, (server_id,))
        entry.replicas = remaining
        self.version += 1
        return True

    def replicas_for(self, key: int, home: int) -> Tuple[int, ...]:
        """Where ``key`` lives: its exception's replicas, or ``(home,)``."""
        entry = self.by_key.get(key)
        if entry is None:
            return (home,)
        return entry.replicas

    def replicated_keys(self) -> int:
        return sum(1 for e in self.by_key.values() if len(e.replicas) > 1)

    def migrated_keys(self) -> int:
        return sum(
            1 for e in self.by_key.values()
            if e.home not in e.replicas
        )


def pick_read_replica(replicas: Tuple[int, ...],
                      servers: Sequence["StorageServer"]) -> int:
    """Read-any: the least-loaded *live* replica (ties → directory order).

    Load is instantaneous pipeline occupancy (in-service + queued), the
    same signal adaptive routing's feedback reads. Dead replicas are
    skipped — replication doubles as read failover — falling back to the
    first replica (whose :class:`StorageServerDown` then surfaces
    normally) only when every copy is on a dead server.
    """
    best = -1
    best_load = None
    for sid in replicas:
        server = servers[sid]
        if not server.alive:
            continue
        pipeline = server.pipeline
        load = pipeline.in_use + pipeline.queue_length
        if best_load is None or load < best_load:
            best, best_load = sid, load
    return best if best >= 0 else replicas[0]


def heat_by_server(
    heat: HeatTracker,
    directory: PlacementDirectory,
    owner_of: np.ndarray,
    node_ids: np.ndarray,
    num_servers: int,
    now: float,
    k: int = 5,
) -> List[List[Tuple[int, float]]]:
    """Top-``k`` hottest records per server, as ``(node_id, heat)`` pairs.

    A record counts toward every server in its replica set (directory
    exceptions), or toward its hash owner. Observability helper for
    ``WorkloadReport.per_server_stats``; never on a hot path.
    """
    per_server: List[List[Tuple[float, int]]] = [[] for _ in range(num_servers)]
    hot_idx, heats = heat.top_k(max(k * num_servers, k), now)
    by_cache_key = directory.by_cache_key
    for idx, h in zip(hot_idx.tolist(), heats.tolist(), strict=True):
        entry = by_cache_key.get(idx)
        sids: Iterable[int] = (
            entry.replicas if entry is not None
            else (int(owner_of[idx]),) if idx < owner_of.shape[0]
            else ()
        )
        for sid in sids:
            per_server[sid].append((h, int(node_ids[idx])))
    return [
        [(node, round(h, 3)) for h, node in sorted(bucket, reverse=True)[:k]]
        for bucket in per_server
    ]
