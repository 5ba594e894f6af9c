"""Shared record-gathering machinery every operator executor builds on.

An executor is a simulation process combining:

1. **cache probes** over the nodes the traversal touches (lookup cost),
2. **storage fetches** for misses — one multiget per owning storage server,
   issued in parallel, each paying network round-trip + server queueing,
3. **cache admission** of fetched records (insert cost),
4. **compute** proportional to the records scanned.

Topology comes from the shared read-only CSR views in
:class:`~repro.core.assets.GraphAssets`; which records are cached, and all
timing, is per-processor simulated state. :func:`gather_nodes` is the one
primitive custom operators need — everything else is plain numpy over the
CSR views.

Hot-path design
---------------

Each per-server fetch is one :class:`~repro.storage.server.RoundTrip`:
the storage server's fused callback chain (request arrival → pipeline
grant → service end → response arrival), which is its own completion
event — no generator trampoline, ``Process`` or ``Initialize`` event per
fetch. The record mover's write legs are the same class, so reads and
writes share one FIFO pipeline, one liveness check and one set of
counters per server.
Record sizes (``GraphAssets.record_sizes``) and owners
(``GraphAssets.owner_array``, the tier's hash homes) come from
precomputed arrays: the storage tier holds no record bytes.

``gather_nodes`` itself is array-native end-to-end: the frontier ndarray
flows into :meth:`ProcessorCache.get_many`, the missed keys come back as
an ``int64`` ndarray used directly for owner lookup, per-server bincounts
and admission — no ``tolist()``/``asarray`` round-trips at the interfaces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...storage.placement import pick_read_replica
from ...storage.server import RoundTrip
from ..metrics import QueryStats

if TYPE_CHECKING:  # pragma: no cover
    from ..processor import QueryProcessor

def gather_nodes(processor: "QueryProcessor", nodes: np.ndarray,
                 stats: QueryStats, count_in_stats: bool = True):
    """Make the records of ``nodes`` (compact indices) locally available.

    Probes the processor cache, fetches misses from the storage tier
    (grouped per owning server, in parallel) and admits them. Updates
    ``stats`` unless ``count_in_stats`` is False (used for the query node
    itself, which Eq. 8 excludes from hit/miss accounting).

    ``nodes`` is expected deduplicated (every built-in executor passes
    ``np.unique`` output or a single node). The cache itself probes per
    distinct key, so a duplicated frontier entry costs one fetch, not
    two — but the ``len(nodes) - len(missed)`` hit accounting here would
    overstate hits for it.

    Executors consume it with ``yield from`` — it runs inline in the
    calling process, so a sequential gather costs no extra ``Process``.
    Wrap it in ``env.process(...)`` only to overlap several gathers.
    """
    env = processor.env
    costs = processor.costs
    cache = processor.cache
    sizes = processor.assets.record_sizes
    use_cache = processor.use_cache
    num_nodes = len(nodes)

    if use_cache:
        missed = cache.get_many(nodes)
        lookup_time = costs.cache.lookup * num_nodes
        if lookup_time > 0:
            yield env.timeout(lookup_time)
    else:
        missed = nodes

    num_missed = len(missed)
    if count_in_stats:
        stats.cache_hits += num_nodes - num_missed
        stats.cache_misses += num_missed
        stats.nodes_touched += num_nodes

    if num_missed:
        tier = processor.tier
        servers = tier.servers
        network = costs.network
        if tier.heat is not None:
            # Decayed access-frequency tracking for dynamic placement.
            # Pure bookkeeping — no simulated time passes, so runs with
            # heat tracking on but no directory exceptions stay
            # bit-identical to runs without the subsystem.
            tier.heat.touch(missed, env.now)
        # Directory exceptions, or None when there are none (pure hash
        # placement) — plain dict truthiness, this is the hot path.
        overlay = tier.directory.by_cache_key or None
        if num_missed == 1:
            # Walk steps and point probes miss one record at a time; skip
            # the per-server grouping machinery for the single fetch.
            node = missed.item(0)
            miss_sizes = sizes[node:node + 1]
            total_bytes = int(miss_sizes[0])
            sid = int(processor.owner_of[node])
            if overlay is not None:
                entry = overlay.get(node)
                if entry is not None:
                    sid = pick_read_replica(entry.replicas, servers)
            if tier.on_read_failure is not None \
                    and not servers[sid].alive:
                # Demand repair: tell the topology layer which key this
                # (about-to-fail) probe is blocked on.
                tier.on_read_failure([node])
            fetches = [RoundTrip(servers[sid], network, 1, total_bytes)]
        else:
            owners = processor.owner_of[missed]
            if overlay is not None:
                # Read-any: migrated/replicated misses go to the
                # least-loaded live replica instead of the hash owner.
                owners = owners.copy()
                for pos, cache_key in enumerate(missed.tolist()):
                    entry = overlay.get(cache_key)
                    if entry is not None:
                        owners[pos] = pick_read_replica(
                            entry.replicas, servers
                        )
            miss_sizes = sizes[missed]
            num_servers = tier.num_servers
            counts = np.bincount(owners, minlength=num_servers)
            byte_sums = np.bincount(owners, weights=miss_sizes,
                                    minlength=num_servers)
            touched = np.nonzero(counts)[0]
            if tier.on_read_failure is not None:
                for sid in touched.tolist():
                    if not servers[sid].alive:
                        tier.on_read_failure(
                            missed[owners == sid].tolist()
                        )
            fetches = [
                RoundTrip(servers[sid], network, count, int(nbytes))
                for sid, count, nbytes in zip(
                    touched.tolist(), counts[touched].tolist(),
                    byte_sums[touched].tolist(), strict=True)
            ]
            total_bytes = int(byte_sums.sum())
        if count_in_stats:
            stats.bytes_fetched += total_bytes
            stats.storage_requests += len(fetches)
        if len(fetches) == 1:
            # One touched server (every point probe and walk step, plus
            # any frontier that happens to land on a single owner): wait
            # on the fetch itself. An AllOf wrapper here would add a
            # condition allocation *and* an extra same-instant event
            # dispatch per wave for nothing — the fetch is already the
            # completion event.
            yield fetches[0]
        else:
            yield env.all_of(fetches)

        if use_cache:
            cache.put_many(missed, miss_sizes)
            insert_time = costs.cache.insert * num_missed
            if insert_time > 0:
                yield env.timeout(insert_time)
