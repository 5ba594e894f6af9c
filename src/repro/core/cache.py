"""Query-processor cache with byte capacity and pluggable eviction.

The paper uses LRU ("usually implemented as the default cache replacement
policy, and it favors recent queries", §2.3). FIFO and LFU are provided for
the eviction-policy ablation. The cache is an *accounting* cache: the
simulation tracks which adjacency records are resident and how many bytes
they occupy; values themselves are optional.

Hot-path design
---------------

``get_many``/``put_many`` accept ``int64`` ndarrays directly — the gather
path hands over the frontier array it already has, and gets the missed
keys back as an array, with exactly one C-level ``tolist()`` conversion in
between (plain ``int`` keys hash several times faster than numpy scalars).
Per-policy probe loops are specialised so the LRU case is a dict-membership
test plus a hoisted ``move_to_end`` per hit, with statistics updated once
per batch rather than once per key. A one-key ndarray probe (every anchor
and walk step) skips the conversions altogether: it is one membership
test, and a miss hands back the input array itself.

Admission mirrors the probe: under LRU and FIFO, ``put_many`` runs one
loop over locals that admits and evicts exactly as per-key :meth:`put`
calls would, in the same order, and writes ``_bytes`` and the statistics
back once per batch. LFU keeps the per-key :meth:`put` (its heap push and
compaction are per admission anyway).

LFU keeps its classic lazy min-heap of ``(count, tick, key)`` snapshots,
but the hot *hit* path never touches the heap: a hit only updates the
``key -> (count, tick)`` table. A heap snapshot is valid iff it equals the
key's current ``(count, tick)``; eviction lazily re-pushes a fresh snapshot
whenever it pops a stale one for a still-resident key. Because stale
snapshots can never validate again, the heap can be *compacted* — rebuilt
from the live table — whenever stale entries dominate
(:data:`LFU_COMPACT_FACTOR`), which bounds heap growth under churn at
``O(len(cache))`` instead of ``O(total hits)``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple, Union

import numpy as np

POLICIES = ("lru", "fifo", "lfu")

#: Compact the LFU heap once it exceeds this multiple of the live entries
#: (plus a small constant so tiny caches never bother).
LFU_COMPACT_FACTOR = 3
LFU_COMPACT_SLACK = 64

_INT64 = np.dtype(np.int64)


@dataclass
class CacheStats:
    """Cumulative counters (Eq. 8/9 style hit/miss accounting)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected: int = 0  # records too large to ever fit
    invalidations: int = 0  # entries dropped because their record changed

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ProcessorCache:
    """Byte-bounded cache keyed by node id.

    ``capacity_bytes == 0`` models the paper's *no-cache* mode: every probe
    misses and nothing is admitted.
    """

    __slots__ = ("capacity_bytes", "policy", "stats", "_entries", "_bytes",
                 "_freq", "_heap", "_tick")

    def __init__(self, capacity_bytes: int, policy: str = "lru") -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Tuple[int, Any]]" = OrderedDict()
        self._bytes = 0
        # LFU bookkeeping: key -> (access count, tick of last access) plus a
        # lazy min-heap of (count, tick, key) snapshots; a snapshot is valid
        # iff it matches the key's current (count, tick) exactly.
        self._freq: Dict[Hashable, Tuple[int, int]] = {}
        self._heap: List[Tuple[int, int, Hashable]] = []
        self._tick = 0

    # -- probes ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size_bytes(self) -> int:
        return self._bytes

    def __contains__(self, key: Hashable) -> bool:
        """Presence check without statistics or recency side effects."""
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """Probe for ``key``; returns the stored value or None on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._touch(key)
        return entry[1]

    def get_many(
        self, keys: Union[np.ndarray, Iterable[Hashable]]
    ) -> Union[np.ndarray, List[Hashable]]:
        """Probe many keys; returns the *missed* keys, in probe order.

        An ``int64`` ndarray input returns an ``int64`` ndarray of misses
        (the gather hot path); any other iterable returns a list, matching
        the input's key objects. A one-key ``int64`` array that misses is
        returned as is, so callers must not write into the result.

        Probe semantics are **per distinct key**: a key repeated within one
        batch counts one hit or one miss (first occurrence) and appears at
        most once in the missed output — a batch is one logical probe of
        its key set, and the repeat cannot have been fetched in between.
        Without this, duplicated frontier entries would inflate hit/miss
        statistics and trigger duplicate storage fetches downstream. The
        gather path always passes ``np.unique``-deduplicated (strictly
        increasing) frontiers, for which the duplicate check is one
        vectorised comparison.
        """
        array_in = isinstance(keys, np.ndarray)
        if array_in and len(keys) == 1 and keys.dtype is _INT64:
            key = keys.item(0)
            if key in self._entries:
                self.stats.hits += 1
                self._touch(key)
                return keys[:0]
            self.stats.misses += 1
            return keys
        if array_in:
            key_list = keys.tolist()
            n = len(key_list)
            if n <= 1:
                unique = True
            elif n <= 64:
                # Small batches dominate the gather path; one C-level set
                # build beats numpy's fixed dispatch overhead there.
                unique = len(set(key_list)) == n
            else:
                # Large frontiers come from np.unique (strictly
                # increasing): one vectorised comparison confirms it.
                unique = bool((keys[1:] > keys[:-1]).all())
            if not unique:
                # Keep the first occurrence of each key, in probe order.
                seen = set()
                key_list = [
                    key for key in key_list
                    if key not in seen and not seen.add(key)
                ]
        else:
            key_list = []
            seen = set()
            for key in keys:
                if key not in seen:
                    seen.add(key)
                    key_list.append(key)
        entries = self._entries
        missed: List[Hashable] = []
        append = missed.append
        hits = 0
        policy = self.policy
        if policy == "lru":
            move = entries.move_to_end
            for key in key_list:
                if key in entries:
                    hits += 1
                    move(key)
                else:
                    append(key)
        elif policy == "fifo":
            for key in key_list:
                if key in entries:
                    hits += 1
                else:
                    append(key)
        else:  # lfu: bump (count, tick); the heap is untouched on hits
            freq = self._freq
            tick = self._tick
            for key in key_list:
                if key in entries:
                    hits += 1
                    tick += 1
                    freq[key] = (freq[key][0] + 1, tick)
                else:
                    append(key)
            self._tick = tick
        stats = self.stats
        stats.hits += hits
        stats.misses += len(missed)
        if array_in:
            return np.array(missed, dtype=np.int64)
        return missed

    # -- admissions -------------------------------------------------------
    def put(self, key: Hashable, size: int, value: Any = True) -> None:
        """Admit ``key`` occupying ``size`` bytes, evicting as needed."""
        if size < 0:
            raise ValueError("size must be >= 0")
        if size > self.capacity_bytes or self.capacity_bytes == 0:
            # The explicit zero-capacity check keeps the documented
            # no-cache contract for zero-size records too: with
            # capacity 0, ``size > capacity`` is false for ``size == 0``
            # and the record used to slip in.
            self.stats.rejected += 1
            return
        entries = self._entries
        if key in entries:
            old_size, _ = entries[key]
            self._bytes -= old_size
            del entries[key]
        while self._bytes + size > self.capacity_bytes and entries:
            self._evict_one()
        entries[key] = (size, value)
        self._bytes += size
        self.stats.insertions += 1
        if self.policy == "lfu":
            freq = self._freq
            entry = freq.get(key)
            count = 1 if entry is None else entry[0] + 1
            self._tick += 1
            tick = self._tick
            freq[key] = (count, tick)
            heappush(self._heap, (count, tick, key))
            self._maybe_compact()

    def put_many(
        self,
        items: Union[np.ndarray, Iterable[Tuple[Hashable, int]]],
        sizes: Optional[np.ndarray] = None,
    ) -> None:
        """Admit a batch.

        Either ``put_many(keys_array, sizes_array)`` with two aligned
        ndarrays (the gather hot path), or ``put_many(iterable_of_pairs)``.
        """
        if sizes is not None:
            if not isinstance(items, np.ndarray) or not isinstance(
                sizes, np.ndarray
            ):
                raise ValueError(
                    "put_many with sizes= takes two aligned ndarrays: "
                    "put_many(keys_array, sizes_array); for Python "
                    "iterables use put_many(iterable_of_(key, size)_pairs)"
                )
            if len(items) != len(sizes):
                raise ValueError(
                    f"put_many keys/sizes length mismatch: {len(items)} "
                    f"keys vs {len(sizes)} sizes"
                )
            if len(items) == 1:
                pairs: Iterable[Tuple[Hashable, int]] = (
                    (items.item(0), sizes.item(0)),
                )
            else:
                pairs = zip(items.tolist(), sizes.tolist(), strict=True)
        else:
            if isinstance(items, np.ndarray):
                raise ValueError(
                    "put_many(keys_array) is missing its sizes array; call "
                    "either put_many(keys_array, sizes_array) with aligned "
                    "ndarrays or put_many(iterable_of_(key, size)_pairs)"
                )
            pairs = items
        if self.policy == "lfu":
            put = self.put
            for key, size in pairs:
                put(key, size)
            return
        # LRU / FIFO: per-key ``put`` semantics, inlined over locals.
        entries = self._entries
        evict = entries.popitem
        capacity = self.capacity_bytes
        used = self._bytes
        inserted = evicted = rejected = 0
        try:
            for key, size in pairs:
                if size < 0:
                    raise ValueError("size must be >= 0")
                if size > capacity or capacity == 0:
                    rejected += 1
                    continue
                old = entries.pop(key, None)
                if old is not None:
                    used -= old[0]
                while used + size > capacity and entries:
                    used -= evict(last=False)[1][0]
                    evicted += 1
                entries[key] = (size, True)
                used += size
                inserted += 1
        finally:
            # Also on a mid-batch error: the keys before it stay admitted,
            # as they would after the same per-key ``put`` calls.
            self._bytes = used
            stats = self.stats
            stats.insertions += inserted
            stats.evictions += evicted
            stats.rejected += rejected

    # -- invalidation ------------------------------------------------------
    def invalidate_many(
        self, keys: Union[np.ndarray, Iterable[Hashable]]
    ) -> int:
        """Drop ``keys`` whose records changed (graph updates); returns the
        number of resident entries removed.

        Not an eviction (the entries aren't being displaced by capacity
        pressure) and not a miss (nothing probed) — invalidations get
        their own counter. Works for all policies; under LFU the
        frequency table entry is dropped too, so a later re-admission
        restarts the key's count, while any stale heap snapshots are
        skipped lazily at eviction time exactly like snapshots of evicted
        keys (and bounded by compaction).
        """
        key_list = keys.tolist() if isinstance(keys, np.ndarray) else keys
        entries = self._entries
        lfu = self.policy == "lfu"
        freq = self._freq
        removed = 0
        for key in key_list:
            entry = entries.pop(key, None)
            if entry is None:
                continue
            self._bytes -= entry[0]
            removed += 1
            if lfu:
                freq.pop(key, None)
        if removed:
            self.stats.invalidations += removed
            if lfu:
                self._maybe_compact()
        return removed

    def clear(self) -> None:
        self._entries.clear()
        self._freq.clear()
        self._heap.clear()
        self._bytes = 0

    # -- internals ----------------------------------------------------------
    def _touch(self, key: Hashable) -> None:
        if self.policy == "lru":
            self._entries.move_to_end(key)
        elif self.policy == "lfu":
            self._tick += 1
            self._freq[key] = (self._freq[key][0] + 1, self._tick)
        # FIFO: access order never changes.

    def _evict_one(self) -> None:
        if self.policy in ("lru", "fifo"):
            key, (size, _) = self._entries.popitem(last=False)
            self._bytes -= size
        else:  # lfu with lazy heap
            entries = self._entries
            freq = self._freq
            heap = self._heap
            while True:
                count, tick, key = heappop(heap)
                current = freq.get(key)
                if current is None or key not in entries:
                    continue  # snapshot of an evicted key: drop it
                if current[0] == count and current[1] == tick:
                    size, _ = entries.pop(key)
                    self._bytes -= size
                    del freq[key]
                    break
                # Stale snapshot of a live key (it was hit since): lazily
                # restore its current snapshot so the key stays evictable.
                heappush(heap, (current[0], current[1], key))
        self.stats.evictions += 1

    def _maybe_compact(self) -> None:
        """Rebuild the LFU heap when stale snapshots dominate.

        Only current ``(count, tick)`` snapshots can ever validate, so a
        rebuild from the live table is semantics-preserving; it bounds the
        heap at ``O(len(cache))`` across arbitrarily long hit/evict cycles.
        """
        heap = self._heap
        if len(heap) > LFU_COMPACT_FACTOR * len(self._entries) + LFU_COMPACT_SLACK:
            self._heap = [
                (count, tick, key)
                for key, (count, tick) in self._freq.items()
            ]
            heapify(self._heap)
