"""Live graph updates through every layer of a running service.

The paper's Fig 10 studies how smart routing degrades when preprocessing
saw only part of the graph; dynamic distributed stores (PHD-Store's
incremental placement, Peng et al.'s workload-driven re-fragmentation)
show the production version of the problem: graphs churn *while serving
queries*, and every auxiliary structure must adapt incrementally. This
module is that adaptation loop for the reproduction. One
:class:`LiveUpdateManager` per :class:`~repro.core.service.GraphService`
drives each applied :class:`~repro.graph.updates.GraphUpdate` batch
through four layers, in simulated time where time is owed:

1. **graph + assets** — the mutation lands in the
   :class:`~repro.graph.digraph.Graph`; compact indices stay append-stable
   and each CSR view moves to a new version holding just the dirty rows,
   O(dirty) per batch — queries in flight keep the version they captured
   (:meth:`~repro.core.assets.GraphAssets.apply_graph_updates`);
2. **storage** — every dirty node's record, at its new encoded size
   (``GraphAssets.record_sizes``), is rewritten through
   the storage tier's write path (one multiput per owning server, paying
   :meth:`~repro.costs.StorageServiceModel.write_time` on the same FIFO
   pipeline queries fetch from — churn contends with traffic);
3. **caches** — once the writes land, the dirty keys are invalidated in
   every processor cache (:meth:`~repro.core.cache.ProcessorCache.invalidate_many`),
   so the next query re-fetches current bytes instead of serving stale
   adjacency;
4. **routing** — dirty nodes join the shared *staleness set*: landmark and
   embed routing treat them as unknown (hash fallback) until
   :meth:`LiveUpdateManager.refresh` re-assigns/re-embeds just the dirty
   region — neighbor relaxation on the landmark index, neighbor-centroid
   placement in the embedding — instead of re-running preprocessing.

Refresh runs on demand or automatically every
``ClusterConfig.update_refresh_interval`` applied updates. The trade-off
it controls is the live-update benchmark's subject: never refreshing
drives an ever-growing share of traffic onto hash fallback, erasing smart
routing's advantage; refreshing each batch pays incremental work the
moment churn happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..graph.updates import GraphUpdate, apply_updates, validate_updates
from .routing import AdaptiveRouting, EmbedRouting, LandmarkRouting
from .routing.base import RoutingStrategy

if TYPE_CHECKING:  # pragma: no cover
    from .service import GraphService


@dataclass(frozen=True)
class UpdateReport:
    """Outcome of one applied update batch."""

    updates_applied: int
    nodes_added: int
    records_written: int
    bytes_written: int
    cache_entries_invalidated: int
    stale_nodes: int  # staleness-set size after this batch
    refreshed: bool  # whether this batch triggered an automatic refresh
    elapsed_s: float  # simulated seconds the write path took


class LiveUpdateManager:
    """Applies update batches to a live service and tracks staleness."""

    def __init__(self, service: "GraphService", staleness: Set[int]) -> None:
        self.service = service
        #: Node ids with stale routing info; shared by reference with the
        #: landmark/embed strategies, so membership changes are visible to
        #: routing immediately. refresh() must clear() it, never rebind it.
        self.stale = staleness
        self._since_refresh = 0
        # Cumulative totals across the service lifetime.
        self.updates_applied = 0
        self.nodes_added = 0
        self.records_written = 0
        self.bytes_written = 0
        self.cache_entries_invalidated = 0
        self.refreshes = 0
        self.nodes_refreshed = 0

    # -- applying batches ----------------------------------------------------
    def apply(self, updates: Sequence[GraphUpdate]) -> UpdateReport:
        """Apply a batch through graph, storage, caches and routing.

        Advances simulated time while the storage writes are in flight
        (in-flight queries keep executing concurrently and contend for
        the same storage pipelines). Validates the whole batch first —
        an inapplicable batch changes nothing anywhere.
        """
        prepared = self._prepare(updates)
        if prepared is None:
            return self._report(0, 0, 0, 0, 0, False, 0.0)
        updates, dirty_ids, dirty_idx, new_ids = prepared
        # Timed write path + cache invalidation, then bookkeeping.
        env = self.service.env
        started = env.now
        records, nbytes, invalidated, write_error = env.run(
            until=env.process(self._write_and_invalidate(dirty_ids, dirty_idx))
        )
        return self._finish(
            updates, dirty_ids, new_ids, records, nbytes, invalidated,
            write_error, env.now - started,
        )

    def apply_process(self, updates: Sequence[GraphUpdate]):
        """Generator twin of :meth:`apply` for callers already *inside* a
        simulation process (the open-loop arrival driver): :meth:`apply`
        must own the event loop via ``env.run`` and would deadlock there.
        Yields through the same write/invalidate path; returns the same
        :class:`UpdateReport`."""
        prepared = self._prepare(updates)
        if prepared is None:
            return self._report(0, 0, 0, 0, 0, False, 0.0)
        updates, dirty_ids, dirty_idx, new_ids = prepared
        env = self.service.env
        started = env.now
        records, nbytes, invalidated, write_error = yield from (
            self._write_and_invalidate(dirty_ids, dirty_idx)
        )
        return self._finish(
            updates, dirty_ids, new_ids, records, nbytes, invalidated,
            write_error, env.now - started,
        )

    def _prepare(self, updates: Sequence[GraphUpdate]):
        """Validate and land the batch in graph + assets (untimed part)."""
        service = self.service
        updates = list(updates)
        assets = service.assets
        if not updates:
            validate_updates(assets.graph, updates)
            return None
        dirty_ids, new_ids = apply_updates(assets.graph, updates)
        dirty_idx = assets.apply_graph_updates(dirty_ids, new_ids)
        # Processors cache the owner array by reference; re-point them at
        # the (possibly grown) current one.
        owner_of = assets.owner_array(service.tier.num_servers)
        for processor in service.processors:
            processor.owner_of = owner_of
        return updates, dirty_ids, dirty_idx, new_ids

    def _finish(
        self,
        updates: List[GraphUpdate],
        dirty_ids: Set[int],
        new_ids: Sequence[int],
        records: int,
        nbytes: int,
        invalidated: int,
        write_error: Optional[BaseException],
        elapsed: float,
    ) -> UpdateReport:
        """Bookkeeping after the write path landed (shared by both modes)."""
        service = self.service
        self.stale.update(dirty_ids)
        self.updates_applied += len(updates)
        self.nodes_added += len(new_ids)
        self.records_written += records
        self.bytes_written += nbytes
        self.cache_entries_invalidated += invalidated
        self._since_refresh += len(updates)

        if write_error is not None:
            # A storage server was down. The graph/assets mutation has
            # happened and cannot be unwound, so the layers that keep the
            # cluster *coherent* — cache invalidation (done above, in the
            # write process) and staleness marking — are completed before
            # the failure surfaces, and the totals above count exactly
            # what the surviving servers wrote (every leg runs to
            # completion); only the failed server's log misses its bytes,
            # like any other write lost to the injected failure.
            topology = service.topology
            if topology is not None:
                # A topology-managed cluster absorbs the loss (with
                # failover on, the repair loop re-writes lost records
                # from the authoritative graph), so a batch that lost
                # every copy of some key is counted, not fatal. The whole
                # batch becomes suspect — the error doesn't say which
                # keys lost all copies.
                compact = service.assets.compact
                topology.note_write_failure({
                    int(node): int(compact[node])
                    for node in sorted(dirty_ids)
                })
            else:
                # Re-applying the batch would double-apply it; recover
                # the storage side by re-writing (recover() + a touching
                # batch) instead.
                raise write_error

        interval = service.config.update_refresh_interval
        refreshed = False
        if interval is not None and self._since_refresh >= interval:
            refreshed = self.refresh() > 0
        return self._report(
            len(updates), len(new_ids), records, nbytes, invalidated,
            refreshed, elapsed,
        )

    def _write_and_invalidate(self, dirty_ids: Set[int], dirty_idx: np.ndarray):
        """Simulation process: rewrite dirty records, then invalidate.

        Invalidation happens at the simulated instant the writes have
        landed — queries completing while the writes queue still hit the
        old cached records, exactly like a real cluster whose
        invalidations ride behind the write acknowledgements. A failed
        storage server does not skip invalidation: the caches must stop
        serving the old records regardless, so the error is captured,
        invalidation runs, and the caller re-raises after its own
        bookkeeping.
        """
        service = self.service
        assets = service.assets
        sizes = assets.record_sizes
        # Storage keys are *original* node ids (the key space the tier
        # hashes); cache keys are compact indices (what the gather path
        # probes with).
        items = [
            (node, int(sizes[assets.compact[node]]))
            for node in sorted(dirty_ids)
        ]
        records, nbytes, write_error = yield from service.tier.multiput_process(
            items, network=service.config.costs.network
        )
        if service.tier.heat is not None:
            # Writes are accesses too: updated records heat up, so churny
            # regions become placement candidates like read-hot ones.
            service.tier.heat.touch(dirty_idx, service.env.now)
        invalidated = 0
        for processor in service.processors:
            if processor.use_cache:
                invalidated += processor.cache.invalidate_many(dirty_idx)
        return records, nbytes, invalidated, write_error

    # -- incremental routing refresh -----------------------------------------
    def _leaf_strategies(self) -> Iterable[RoutingStrategy]:
        strategy = self.service.strategy
        if isinstance(strategy, AdaptiveRouting):
            return strategy.arms.values()
        return (strategy,)

    def _routing_assets(self) -> Tuple[list, list]:
        """Every landmark index and embedding this service can route with.

        Covers the *active* strategy (and adaptive arms), the
        construction-time overrides, and the assets' memoized artifacts.
        The memo belongs to the :class:`~repro.core.assets.GraphAssets`,
        which several services may share: any service opened on them
        later is handed exactly these objects for the graph this update
        mutated, so all of them must refresh before staleness may clear.
        """
        service = self.service
        indexes: list = []
        embeddings: list = []

        def add_index(index) -> None:
            if index is not None and all(index is not i for i in indexes):
                indexes.append(index)

        def add_embedding(embedding) -> None:
            if embedding is not None and all(
                embedding is not e for e in embeddings
            ):
                embeddings.append(embedding)

        for strategy in self._leaf_strategies():
            if isinstance(strategy, LandmarkRouting):
                add_index(strategy.index)
            elif isinstance(strategy, EmbedRouting):
                add_embedding(strategy.embedding)
        add_index(service._landmark_index_override)
        add_embedding(service._embedding_override)
        for index in service.assets._landmark_indexes.values():
            add_index(index)
        for embedding in service.assets._embeddings.values():
            add_embedding(embedding)
        return indexes, embeddings

    def refresh(self) -> int:
        """Re-index/re-embed only the stale region; clears the stale set.

        Landmark indexes refresh by neighbor relaxation
        (:meth:`~repro.landmarks.index.LandmarkIndex.refresh_nodes`);
        embeddings by neighbor-centroid placement
        (:meth:`~repro.embedding.embedder.GraphEmbedding.refresh_node`),
        in two passes so chains of new nodes resolve. Every index and
        embedding the service can route with — the active strategy's (and
        adaptive arms'), the construction-time overrides, and the assets'
        memoized artifacts that any service sharing these assets is
        handed — is refreshed together, so clearing the shared staleness
        set is sound for all of them. When no such artifact exists yet
        (e.g. a hash-only service whose smart preprocessing is still
        unbuilt), the staleness set is deliberately *kept*: nothing was refreshed,
        so nothing is fresh. Runs outside simulated time, like the
        preprocessing it incrementally patches (§4.1 starts experiments
        with preprocessing already done); the *routing* consequences of
        deferring it are what the staleness set models. Returns the
        number of stale nodes refreshed.
        """
        stale = sorted(self.stale)
        if not stale:
            self._since_refresh = 0  # fully fresh already
            return 0
        graph = self.service.assets.graph
        indexes, embeddings = self._routing_assets()
        if not indexes and not embeddings:
            return 0
        for index in indexes:
            index.refresh_nodes(graph, stale)
        present = [node for node in stale if node in graph]
        for embedding in embeddings:
            self._refresh_embedding(embedding, graph, present)
        self.stale.clear()
        self._since_refresh = 0
        self.refreshes += 1
        self.nodes_refreshed += len(stale)
        return len(stale)

    def _refresh_embedding(self, embedding, graph, stale: List[int]) -> None:
        """Place one embedding's unplaced stale nodes.

        Already-embedded nodes keep their coordinates: edge churn barely
        moves true hop distances, so refresh only clears their staleness.
        *Unplaced* nodes are placed from their embedded neighbors'
        centroid, deferring any node with no embedded neighbor yet to a
        second pass so chains of new nodes resolve in dependency order;
        only nodes still isolated after both passes fall back to the
        landmark centroid.
        """
        unplaced = [node for node in stale if not embedding.knows(node)]
        for _sweep in range(2):
            if not unplaced:
                return
            deferred = []
            for node in unplaced:
                points = [
                    embedding.coordinates_of(neighbor)
                    for neighbor in graph.neighbors(node)
                ]
                if any(point is not None for point in points):
                    embedding.refresh_node(node, points)
                else:
                    deferred.append(node)
            unplaced = deferred
        for node in unplaced:
            embedding.refresh_node(node, [])  # landmark-centroid fallback

    # -- reporting -------------------------------------------------------------
    def _report(
        self,
        applied: int,
        added: int,
        records: int,
        nbytes: int,
        invalidated: int,
        refreshed: bool,
        elapsed: float,
    ) -> UpdateReport:
        return UpdateReport(
            updates_applied=applied,
            nodes_added=added,
            records_written=records,
            bytes_written=nbytes,
            cache_entries_invalidated=invalidated,
            stale_nodes=len(self.stale),
            refreshed=refreshed,
            elapsed_s=elapsed,
        )
