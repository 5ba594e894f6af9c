"""The query processor: a stateless worker with a cache (§2.3).

Processors receive queries from the router over a FIFO inbox, execute them
against their cache plus the shared storage tier, and acknowledge the
router on completion — the ack is what triggers the next dispatch, which is
how the router implements query stealing (§3.2, Requirement 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..costs import CostModel
from ..sim import Environment, Store
from ..storage.server import StorageServerDown
from ..storage.tier import StorageTier
from .assets import GraphAssets
from .cache import ProcessorCache
from .operators import execute_query

if TYPE_CHECKING:  # pragma: no cover
    from .router import Router

#: Inbox sentinel that shuts a processor down.
POISON = object()


def _observe_worker(_worker) -> None:
    """Worker-process observer, attached at start.

    Nothing awaits a worker, so a crash (e.g. :class:`StorageServerDown`
    with failover off) has no waiter at its failure instant. This
    callback marks it *handled*: the service surfaces the stored failure
    when the run stalls (``GraphService._raise_worker_crash``), sanitized
    or not, and the sanitizer's unhandled-failure trap stays armed for
    every other process.
    """


class QueryProcessor:
    """One processing-tier server."""

    def __init__(
        self,
        env: Environment,
        processor_id: int,
        tier: StorageTier,
        assets: GraphAssets,
        costs: CostModel,
        cache_capacity_bytes: int,
        cache_policy: str = "lru",
    ) -> None:
        self.env = env
        self.processor_id = processor_id
        self.tier = tier
        self.assets = assets
        self.costs = costs
        self.use_cache = cache_capacity_bytes > 0
        self.cache = ProcessorCache(cache_capacity_bytes, policy=cache_policy)
        self.owner_of = assets.owner_array(tier.num_servers)
        self.queries_executed = 0
        self.busy_time = 0.0
        self.alive = True
        self.inbox: Store = Store(env)
        self._process = None
        # Storage failover: retries against a down storage server. The
        # default (0) preserves the historical fail-fast behaviour; the
        # cluster topology layer raises it so in-flight queries ride out
        # an outage by backing off until a replica surfaces or the server
        # recovers.
        self.storage_retry_limit = 0
        self.storage_retry_backoff_s = 20.0e-6
        self.storage_retry_backoff_cap_s = 500.0e-6
        self.storage_retries = 0

    def start(self, router: "Router") -> None:
        """Begin the worker loop (idempotent per processor)."""
        if self._process is not None:
            raise RuntimeError("processor already started")
        self._process = self.env.process(self._run(router))
        self._process.callbacks.append(_observe_worker)

    @property
    def failure(self) -> Optional[BaseException]:
        """The exception that killed this worker, if it crashed."""
        if self._process is None:
            return None
        return self._process.failure

    def kill(self) -> None:
        """Fail the processor: it finishes nothing more (failure injection)."""
        self.alive = False
        self.inbox.put(POISON)

    def _run(self, router: "Router"):
        inbox = self.inbox
        while True:
            query = yield inbox.get()
            if query is POISON:
                break
            if not self.alive:
                # Dispatched before the failure but never started: hand the
                # query back so another processor picks it up.
                router.on_requeue(self.processor_id, query)
                break
            started = self.env.now
            # Inline the executor generator: no sub-Process per query.
            # Under failover (storage_retry_limit > 0) a fetch that hits a
            # down server backs off exponentially and re-executes: the
            # directory may have flipped to a live replica, or the server
            # may have recovered, by the next attempt.
            attempts = 0
            while True:
                try:
                    stats = yield from execute_query(self, query)
                    break
                except StorageServerDown:
                    attempts += 1
                    if attempts > self.storage_retry_limit:
                        raise
                    self.storage_retries += 1
                    backoff = min(
                        self.storage_retry_backoff_s * (2.0 ** (attempts - 1)),
                        self.storage_retry_backoff_cap_s,
                    )
                    yield self.env.timeout(backoff)
            finished = self.env.now
            self.queries_executed += 1
            self.busy_time += finished - started
            router.on_ack(self.processor_id, query, stats, started, finished)

    def cache_hit_rate(self) -> float:
        """Cumulative cache hit rate — the warmth signal in RoutingFeedback."""
        return self.cache.stats.hit_rate()

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
