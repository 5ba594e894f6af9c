"""Processor cache tests: LRU/FIFO/LFU policies, capacity, statistics."""

import dataclasses

import numpy as np
import pytest

from repro.core import ProcessorCache
from repro.core.cache import LFU_COMPACT_FACTOR, LFU_COMPACT_SLACK, POLICIES


class TestBasics:
    def test_miss_then_hit(self):
        cache = ProcessorCache(100)
        assert cache.get("a") is None
        cache.put("a", 10)
        assert cache.get("a") is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_contains_has_no_side_effects(self):
        cache = ProcessorCache(100)
        cache.put("a", 10)
        assert "a" in cache
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_size_accounting(self):
        cache = ProcessorCache(100)
        cache.put("a", 30)
        cache.put("b", 20)
        assert cache.size_bytes == 50
        assert len(cache) == 2

    def test_reput_updates_size(self):
        cache = ProcessorCache(100)
        cache.put("a", 30)
        cache.put("a", 50)
        assert cache.size_bytes == 50
        assert len(cache) == 1

    def test_get_many_returns_missed_in_order(self):
        cache = ProcessorCache(100)
        cache.put("b", 5)
        missed = cache.get_many(["a", "b", "c"])
        assert missed == ["a", "c"]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2

    def test_put_many(self):
        cache = ProcessorCache(100)
        cache.put_many([("a", 10), ("b", 20)])
        assert cache.size_bytes == 30

    def test_clear(self):
        cache = ProcessorCache(100)
        cache.put("a", 10)
        cache.clear()
        assert len(cache) == 0
        assert cache.size_bytes == 0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ProcessorCache(-1)
        with pytest.raises(ValueError):
            ProcessorCache(10, policy="random")

    def test_negative_size_rejected(self):
        cache = ProcessorCache(10)
        with pytest.raises(ValueError):
            cache.put("a", -5)


class TestZeroCapacityRegression:
    # Satellite regression: with capacity_bytes == 0, "nothing is admitted"
    # must hold for zero-size records too — ``size > capacity_bytes`` is
    # false for size == 0 and the record used to slip in.
    @pytest.mark.parametrize("policy", ["lru", "fifo", "lfu"])
    def test_zero_size_record_rejected_at_zero_capacity(self, policy):
        cache = ProcessorCache(0, policy=policy)
        cache.put("a", 0)
        assert "a" not in cache
        assert len(cache) == 0
        assert cache.stats.insertions == 0
        assert cache.stats.rejected == 1
        assert cache.get("a") is None  # every probe misses

    @pytest.mark.parametrize("policy", ["lru", "fifo", "lfu"])
    def test_positive_size_record_rejected_at_zero_capacity(self, policy):
        cache = ProcessorCache(0, policy=policy)
        cache.put("a", 8)
        assert "a" not in cache
        assert cache.stats.rejected == 1
        assert cache.size_bytes == 0

    def test_zero_size_records_admitted_with_capacity(self):
        cache = ProcessorCache(10)
        cache.put("a", 0)
        assert "a" in cache
        assert cache.size_bytes == 0


class TestPutManyValidationRegression:
    # Satellite regression: put_many(keys_array) without sizes used to die
    # unpacking int64 scalars with an opaque TypeError.
    def test_array_without_sizes_raises_clear_error(self):
        cache = ProcessorCache(100)
        with pytest.raises(ValueError, match="sizes"):
            cache.put_many(np.array([1, 2, 3], dtype=np.int64))
        assert len(cache) == 0

    def test_error_names_both_conventions(self):
        cache = ProcessorCache(100)
        with pytest.raises(ValueError, match=r"\(key, size\)"):
            cache.put_many(np.array([1], dtype=np.int64))

    def test_sizes_with_non_array_keys_raises(self):
        cache = ProcessorCache(100)
        with pytest.raises(ValueError, match="aligned ndarrays"):
            cache.put_many([1, 2], sizes=np.array([3, 4], dtype=np.int64))

    def test_mismatched_lengths_raise(self):
        cache = ProcessorCache(100)
        with pytest.raises(ValueError, match="length mismatch"):
            cache.put_many(np.array([1, 2], dtype=np.int64),
                           np.array([3], dtype=np.int64))


class TestDuplicateProbeRegression:
    # Satellite regression: duplicate keys within one probe batch used to
    # double-count hits/misses and re-emit the duplicate into the missed
    # output, triggering duplicate downstream storage fetches.
    @pytest.mark.parametrize("policy", ["lru", "fifo", "lfu"])
    def test_duplicates_count_once_per_batch_array(self, policy):
        cache = ProcessorCache(100, policy=policy)
        cache.put(2, 5)
        keys = np.array([3, 2, 3, 2, 1], dtype=np.int64)
        missed = cache.get_many(keys)
        assert missed.tolist() == [3, 1]  # first-occurrence order, deduped
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2

    @pytest.mark.parametrize("policy", ["lru", "fifo", "lfu"])
    def test_duplicates_count_once_per_batch_list(self, policy):
        cache = ProcessorCache(100, policy=policy)
        cache.put("b", 5)
        missed = cache.get_many(["a", "b", "a", "b"])
        assert missed == ["a"]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lfu_duplicate_hits_bump_count_once(self):
        cache = ProcessorCache(30, policy="lfu")
        cache.put("a", 10)
        cache.put("b", 10)
        cache.put("c", 10)
        cache.get_many(["b", "b", "b"])  # one logical probe of {b}
        cache.get_many(["c"])
        cache.get_many(["c"])
        cache.put("d", 10)  # a: 1, b: 2, c: 3 -> a evicts
        assert "a" not in cache
        assert "b" in cache and "c" in cache

    def test_duplicate_frontier_fetches_each_record_once(self):
        # The gather-path consequence: put_many on the deduped missed set
        # admits (and the storage tier fetches) each record once.
        cache = ProcessorCache(100)
        missed = cache.get_many(np.array([7, 7, 9], dtype=np.int64))
        assert missed.tolist() == [7, 9]
        cache.put_many(missed, np.full(missed.size, 10, dtype=np.int64))
        assert cache.stats.insertions == 2
        assert cache.size_bytes == 20


class TestInvalidateMany:
    @pytest.mark.parametrize("policy", ["lru", "fifo", "lfu"])
    def test_removes_entries_and_bytes(self, policy):
        cache = ProcessorCache(100, policy=policy)
        for key in range(5):
            cache.put(key, 10)
        removed = cache.invalidate_many(np.array([1, 3, 99], dtype=np.int64))
        assert removed == 2
        assert cache.stats.invalidations == 2
        assert cache.size_bytes == 30
        assert 1 not in cache and 3 not in cache
        assert 0 in cache and 2 in cache and 4 in cache

    @pytest.mark.parametrize("policy", ["lru", "fifo", "lfu"])
    def test_not_counted_as_eviction_or_miss(self, policy):
        cache = ProcessorCache(100, policy=policy)
        cache.put("a", 10)
        cache.invalidate_many(["a"])
        assert cache.stats.evictions == 0
        assert cache.stats.misses == 0
        assert cache.stats.invalidations == 1

    def test_lfu_survives_invalidate_readmit_evict_cycle(self):
        # The heap may hold snapshots of invalidated keys; they must be
        # skipped at eviction and the freq restart must not resurrect the
        # old count.
        cache = ProcessorCache(30, policy="lfu")
        cache.put("a", 10)
        for _ in range(5):
            cache.get("a")  # a's count climbs to 6
        cache.put("b", 10)
        cache.put("c", 10)
        cache.invalidate_many(["a"])
        cache.put("a", 10)  # readmitted: count restarts at 1
        cache.get("b")
        cache.get("c")
        cache.put("d", 10)  # a (count 1) must evict despite old snapshots
        assert "a" not in cache
        assert "b" in cache and "c" in cache and "d" in cache

    def test_lfu_heap_compacts_after_mass_invalidation(self):
        cache = ProcessorCache(10_000, policy="lfu")
        for key in range(500):
            cache.put(key, 10)
        for _ in range(3):
            cache.get_many(list(range(500)))
        cache.invalidate_many(list(range(495)))
        bound = LFU_COMPACT_FACTOR * len(cache) + LFU_COMPACT_SLACK
        assert len(cache._heap) <= bound

    def test_invalidate_on_empty_cache_is_noop(self):
        cache = ProcessorCache(100)
        assert cache.invalidate_many([1, 2, 3]) == 0
        assert cache.stats.invalidations == 0


class TestCapacityAndEviction:
    def test_eviction_keeps_within_capacity(self):
        cache = ProcessorCache(100)
        for i in range(20):
            cache.put(i, 10)
        assert cache.size_bytes <= 100
        assert len(cache) == 10
        assert cache.stats.evictions == 10

    def test_zero_capacity_is_no_cache(self):
        cache = ProcessorCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.stats.rejected == 1

    def test_oversized_record_rejected_without_flushing(self):
        cache = ProcessorCache(100)
        cache.put("small", 50)
        cache.put("huge", 500)
        assert "small" in cache
        assert "huge" not in cache
        assert cache.stats.rejected == 1

    def test_lru_evicts_least_recently_used(self):
        cache = ProcessorCache(30, policy="lru")
        cache.put("a", 10)
        cache.put("b", 10)
        cache.put("c", 10)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("d", 10)
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache

    def test_fifo_ignores_recency(self):
        cache = ProcessorCache(30, policy="fifo")
        cache.put("a", 10)
        cache.put("b", 10)
        cache.put("c", 10)
        cache.get("a")  # access does not save "a" under FIFO
        cache.put("d", 10)
        assert "a" not in cache

    def test_lfu_evicts_least_frequent(self):
        cache = ProcessorCache(30, policy="lfu")
        cache.put("a", 10)
        cache.put("b", 10)
        cache.put("c", 10)
        cache.get("a")
        cache.get("a")
        cache.get("c")
        cache.put("d", 10)  # b has the lowest frequency
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache

    def test_eviction_cascade_for_large_insert(self):
        cache = ProcessorCache(100)
        for key in ("a", "b", "c", "d"):
            cache.put(key, 25)
        cache.put("big", 80)
        assert "big" in cache
        assert cache.size_bytes <= 100

    def test_hit_rate(self):
        cache = ProcessorCache(100)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("zzz")
        assert cache.stats.hit_rate() == pytest.approx(2 / 3)

    def test_empty_hit_rate_zero(self):
        assert ProcessorCache(10).stats.hit_rate() == 0.0


class TestArrayNativeProbes:
    def test_get_many_ndarray_returns_ndarray_missed_in_order(self):
        cache = ProcessorCache(100)
        cache.put(2, 5)
        missed = cache.get_many(np.array([1, 2, 3], dtype=np.int64))
        assert isinstance(missed, np.ndarray)
        assert missed.dtype == np.int64
        assert missed.tolist() == [1, 3]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2

    def test_get_many_empty_ndarray(self):
        cache = ProcessorCache(100)
        missed = cache.get_many(np.empty(0, dtype=np.int64))
        assert isinstance(missed, np.ndarray)
        assert missed.size == 0

    def test_put_many_array_form(self):
        cache = ProcessorCache(100)
        cache.put_many(np.array([7, 8], dtype=np.int64),
                       np.array([10, 20], dtype=np.int64))
        assert cache.size_bytes == 30
        # Array-admitted keys are plain ints: probing by int hits.
        assert cache.get_many([7, 8]) == []

    def test_array_and_scalar_probes_share_keys(self):
        cache = ProcessorCache(100)
        cache.put(5, 10)
        assert cache.get_many(np.array([5], dtype=np.int64)).size == 0
        cache.put_many(np.array([6], dtype=np.int64),
                       np.array([10], dtype=np.int64))
        assert cache.get(6) is True

    def test_get_many_recency_matches_scalar_gets(self):
        batched = ProcessorCache(30, policy="lru")
        scalar = ProcessorCache(30, policy="lru")
        for cache in (batched, scalar):
            for key in ("a", "b", "c"):
                cache.put(key, 10)
        batched.get_many(["a", "b"])
        scalar.get("a")
        scalar.get("b")
        for cache in (batched, scalar):
            cache.put("d", 10)
        assert ("c" in batched) == ("c" in scalar)
        assert "c" not in batched  # c was the only untouched key


class TestLfuHeapBound:
    def test_heap_bounded_across_long_hit_evict_cycle(self):
        # Satellite regression: the LFU snapshot heap must stay O(entries)
        # under sustained churn, not O(total hits).
        cache = ProcessorCache(100, policy="lfu")
        bound = LFU_COMPACT_FACTOR * 10 + LFU_COMPACT_SLACK + 10
        for round_ in range(200):
            for key in range(10):
                cache.put((round_, key), 10)  # forces steady eviction
            for _ in range(20):
                cache.get_many([(round_, key) for key in range(10)])
            assert len(cache._heap) <= bound, f"heap grew at round {round_}"
        assert cache.stats.evictions > 0

    def test_hot_hits_do_not_touch_heap(self):
        cache = ProcessorCache(100, policy="lfu")
        for key in range(5):
            cache.put(key, 10)
        heap_size = len(cache._heap)
        for _ in range(50):
            cache.get_many(list(range(5)))
        assert len(cache._heap) == heap_size

    def test_eviction_respects_frequencies_after_push_free_hits(self):
        cache = ProcessorCache(30, policy="lfu")
        cache.put("a", 10)
        cache.put("b", 10)
        cache.put("c", 10)
        cache.get_many(["a", "a", "c"])  # b stays at count 1
        cache.put("d", 10)
        assert "b" not in cache
        assert "a" in cache and "c" in cache and "d" in cache

    def test_lfu_survives_evict_readmit_cycles(self):
        cache = ProcessorCache(20, policy="lfu")
        cache.put("hot", 10)
        for _ in range(5):
            cache.get("hot")
        for i in range(10):
            cache.put(("cold", i), 10)  # each churns the second slot
        assert "hot" in cache  # high count protects it throughout
        assert cache.stats.evictions == 9


class TestLruOrderProperty:
    def test_eviction_order_matches_access_order(self):
        cache = ProcessorCache(50, policy="lru")
        for i in range(5):
            cache.put(i, 10)
        # Touch in scrambled order; eviction must follow it.
        for key in (3, 1, 4, 0, 2):
            cache.get(key)
        evicted = []
        for new in range(100, 105):
            cache.put(new, 10)
            for old in (3, 1, 4, 0, 2):
                if old not in cache and old not in evicted:
                    evicted.append(old)
        assert evicted == [3, 1, 4, 0, 2]


def _state(cache):
    return (list(cache._entries.items()), cache.size_bytes,
            dataclasses.astuple(cache.stats), dict(cache._freq))


class TestBatchFastPaths:
    """``put_many`` / size-1 ``get_many`` equal the per-key reference."""

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    @pytest.mark.parametrize("capacity", [0, 40, 150])
    @pytest.mark.parametrize("seed", range(4))
    def test_put_many_matches_per_key_put(self, policy, capacity, seed):
        rng = np.random.default_rng(seed)
        batched = ProcessorCache(capacity, policy=policy)
        per_key = ProcessorCache(capacity, policy=policy)
        for round_ in range(60):
            # Few distinct keys, so batches repeat keys and re-admit
            # resident ones; sizes up to 2x capacity include oversized
            # records.
            n = int(rng.integers(1, 9))
            keys = rng.integers(0, 12, n).astype(np.int64)
            sizes = rng.integers(0, 2 * capacity + 2, n).astype(np.int64)
            if round_ % 2:
                batched.put_many(keys, sizes)
            else:
                batched.put_many(zip(keys.tolist(), sizes.tolist(),
                                     strict=True))
            for key, size in zip(keys.tolist(), sizes.tolist(), strict=True):
                per_key.put(key, size)
            assert _state(batched) == _state(per_key)
            probe = rng.integers(0, 12, 3).astype(np.int64)
            assert (batched.get_many(probe).tolist()
                    == per_key.get_many(probe).tolist())
        assert batched.stats.evictions or capacity < 40
        assert batched.stats.rejected

    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_put_many_error_keeps_the_admitted_prefix(self, policy):
        batched = ProcessorCache(100, policy=policy)
        per_key = ProcessorCache(100, policy=policy)
        keys = np.array([1, 2, 3], dtype=np.int64)
        sizes = np.array([10, -1, 10], dtype=np.int64)
        with pytest.raises(ValueError, match="size must be >= 0"):
            batched.put_many(keys, sizes)
        with pytest.raises(ValueError, match="size must be >= 0"):
            for key, size in zip(keys.tolist(), sizes.tolist(), strict=True):
                per_key.put(key, size)
        assert _state(batched) == _state(per_key)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_size_one_get_many_matches_general_path(self, policy, seed):
        # A one-element list takes the general probe loop; a one-element
        # int64 array takes the fast path.
        rng = np.random.default_rng(seed)
        fast = ProcessorCache(60, policy=policy)
        general = ProcessorCache(60, policy=policy)
        for _ in range(80):
            key = int(rng.integers(0, 10))
            missed_fast = fast.get_many(np.array([key], dtype=np.int64))
            missed_general = general.get_many([key])
            assert isinstance(missed_fast, np.ndarray)
            assert missed_fast.dtype == np.int64
            assert missed_fast.tolist() == missed_general
            if missed_general:
                size = int(rng.integers(5, 25))
                fast.put_many(missed_fast, np.array([size], dtype=np.int64))
                general.put(key, size)
            assert _state(fast) == _state(general)
        assert fast.stats.hits and fast.stats.misses
