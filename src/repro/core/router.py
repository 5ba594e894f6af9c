"""The query router: per-processor queues, ack-driven dispatch, stealing.

Mechanics follow §2.3/§3.2 of the paper: the router keeps one connection
(and one FIFO queue) per processor, sends a processor its next query only
after receiving the acknowledgement for the previous one, and lets an idle
processor *steal* a queued query intended for another processor, so no
processor idles while work remains. Queue lengths double as the load
estimate in the load-balanced distances (Eq. 3/7).

Hot-path design
---------------

Per query the router does O(1) bookkeeping plus what its consumers read.
The load vector ``_loads`` (queued + in-flight per processor) is kept
current at every queue or ``outstanding`` change — enqueue, each of the
three dispatch sources (own queue, pool, steal), ack, requeue, removal
and join — so :meth:`Router.loads` is one list copy, not a rebuild. The
operator is resolved once, at submit, and its name and cost class ride
on the pending entry to the ack. A :class:`RoutingFeedback` (with its
loads tuple and the processor's hit rate) is built on an ack only when
the strategy overrides :meth:`RoutingStrategy.on_feedback`; the check
runs per ack, so a hook attached later (to an instance or to the base
class) is honoured.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..sim import Environment, Event
from .metrics import QueryRecord, QueryStats
from .operators.registry import default_registry
from .processor import QueryProcessor
from .queries import Query
from .routing.base import RoutingFeedback, RoutingStrategy


@dataclass(slots=True)
class _PendingInfo:
    intended: Optional[int]
    decision_time: float
    enqueued_at: float
    routed_via: str
    tenant: str
    operator: str
    query_class: str


class Router:
    """Routes a workload across the processing tier."""

    def __init__(
        self,
        env: Environment,
        strategy: RoutingStrategy,
        processors: Sequence[QueryProcessor],
        steal: bool = True,
    ) -> None:
        if not processors:
            raise ValueError("router needs at least one processor")
        self.env = env
        self.strategy = strategy
        self.processors = list(processors)
        self.steal = steal
        num = len(self.processors)
        self.queues: List[Deque[Query]] = [deque() for _ in range(num)]
        self.pool: Deque[Query] = deque()
        self.outstanding: List[Optional[Tuple[Query, bool]]] = [None] * num
        #: Queued + in-flight queries per processor, kept incrementally.
        self._loads: List[int] = [0] * num
        self.records: List[QueryRecord] = []
        self.done: Event = env.event()
        self._pending: Dict[int, _PendingInfo] = {}
        self._submitted = 0
        self._completed = 0
        self._backlog_waits: List[Tuple[int, Event]] = []
        self._completion_callbacks: List = []
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self) -> None:
        """Refuse all further submissions (the owning service is closing).

        Idempotent. In-flight queries are unaffected — the caller drains
        them first if it wants a clean completion count.
        """
        self._closed = True

    # -- submission ---------------------------------------------------------
    @property
    def num_processors(self) -> int:
        return len(self.processors)

    def loads(self) -> List[int]:
        """Queued + in-flight queries per processor (the Eq. 3/7 load).

        A copy: the caller may keep or mutate it.
        """
        return self._loads.copy()

    def backlog(self) -> int:
        """Submitted-but-incomplete queries across the cluster."""
        return self._submitted - self._completed

    def when_backlog_at_most(self, threshold: int) -> Event:
        """Event triggered once the backlog drains to ``threshold``.

        Drives pipelined (wave-based) submission: the caller refills the
        router when the outstanding work drops below a watermark, instead
        of waiting for a full barrier.
        """
        event = self.env.event()
        if self.backlog() <= threshold:
            event.succeed(self.backlog())
        else:
            self._backlog_waits.append((threshold, event))
        return event

    def add_completion_callback(self, callback) -> None:
        """Call ``callback()`` after every query completion (ack).

        This is how the admission layer learns that capacity freed: each
        completion pulls the next queued query in fair-queueing order.
        Callbacks run after the router's own dispatch bookkeeping, so they
        observe the post-ack backlog and may themselves ``submit``.
        """
        self._completion_callbacks.append(callback)

    def remove_completion_callback(self, callback) -> None:
        """Detach a completion callback (missing callbacks are ignored)."""
        try:
            self._completion_callbacks.remove(callback)
        except ValueError:
            pass

    def submit(self, queries: Sequence[Query], tenant: str = "") -> None:
        """Route a batch of queries and kick every idle processor.

        May be called repeatedly (wave-based submission): the ``done`` event
        is re-armed whenever new work arrives after a completed batch.
        ``tenant`` labels every query of the batch on its eventual
        :class:`~repro.core.metrics.QueryRecord` (multi-tenant serving);
        the default empty label keeps single-tenant submission unchanged.

        Raises ``RuntimeError`` (rather than hanging silently) when the
        router has been shut down or no alive processor remains to execute
        anything — both used to strand queries in queues forever.
        """
        if self._closed:
            raise RuntimeError(
                "cannot submit: router is shut down "
                "(the owning GraphService was closed; open a new one)"
            )
        if not any(processor.alive for processor in self.processors):
            raise RuntimeError(
                "cannot submit: no alive processors remain "
                "(all were removed or killed); queries would queue forever"
            )
        # Validate the whole batch before routing any of it: a mid-batch
        # failure would leave submit() partially applied, and the caller's
        # natural recovery (re-id and resubmit) would then run the already
        # routed prefix twice.
        queries = list(queries)
        batch_ids = set()
        operators = []
        for query in queries:
            if query.query_id in self._pending or query.query_id in batch_ids:
                raise ValueError(
                    f"query id {query.query_id} is already in flight; "
                    "replays need fresh ids (see QueryIdAllocator / "
                    "query_ids_from)"
                )
            batch_ids.add(query.query_id)
            # Unregistered query types fail *here*, synchronously, with the
            # operator catalog in the message — inside a processor they
            # would kill the worker process and surface as an opaque
            # simulation deadlock.
            operators.append(default_registry.for_query(query))
        if self.done.triggered:
            self.done = self.env.event()
        strategy = self.strategy
        num = self.num_processors
        for query, operator in zip(queries, operators):
            target = strategy.choose(query, self._loads.copy())
            # Refuse a bad target before any bookkeeping: a pending entry
            # nothing will ever ack would keep ``done`` from firing.
            if target is not None and not 0 <= target < num:
                raise ValueError(
                    f"strategy chose invalid processor {target}"
                )
            self._submitted += 1
            self._pending[query.query_id] = _PendingInfo(
                intended=target,
                decision_time=strategy.decision_time(num),
                enqueued_at=self.env.now,
                routed_via=strategy.decision_label(query),
                tenant=tenant,
                operator=operator.name,
                query_class=operator.classify(query),
            )
            if target is not None and not self.processors[target].alive:
                # A drained/dead processor takes no new work; decoupling
                # lets the shared pool serve it (the same redistribution
                # remove_processor applies to already-queued work).
                # Without this, steal=False would strand the query in a
                # queue nothing ever dispatches from.
                target = None
            if target is None:
                self.pool.append(query)
            else:
                strategy.on_dispatch(query, target)
                self.queues[target].append(query)
                self._loads[target] += 1
        outstanding = self.outstanding
        for processor_id in range(num):
            if outstanding[processor_id] is None:
                self._dispatch(processor_id)

    # -- dispatch & stealing ------------------------------------------------
    def _take_next(self, processor_id: int) -> Optional[Tuple[Query, bool]]:
        """Next query for an idle processor; keeps ``_loads`` current."""
        own = self.queues[processor_id]
        if own:
            # Queued -> in flight on the same processor: its load holds.
            return own.popleft(), False
        if self.pool:
            self._loads[processor_id] += 1
            return self.pool.popleft(), False
        if self.steal:
            # The first deepest queue is the victim (own is empty here).
            victim = None
            deepest = 0
            for other, queue in enumerate(self.queues):
                if len(queue) > deepest:
                    victim, deepest = other, len(queue)
            if victim is not None:
                loads = self._loads
                loads[victim] -= 1
                loads[processor_id] += 1
                # Steal the most recently enqueued query: the victim keeps
                # the head entries, which fit its cache best.
                return self.queues[victim].pop(), True
        return None

    def _dispatch(self, processor_id: int) -> None:
        processor = self.processors[processor_id]
        if not processor.alive:
            return
        item = self._take_next(processor_id)
        if item is None:
            return
        self.outstanding[processor_id] = item
        processor.inbox.put(item[0])

    # -- completion ----------------------------------------------------------
    def on_ack(
        self,
        processor_id: int,
        query: Query,
        stats: QueryStats,
        started: float,
        finished: float,
    ) -> None:
        """Completion callback from a processor; triggers the next dispatch."""
        entry = self.outstanding[processor_id]
        if entry is None or entry[0].query_id != query.query_id:
            raise RuntimeError("ack for a query that was not outstanding")
        _, stolen = entry
        self.outstanding[processor_id] = None
        self._loads[processor_id] -= 1
        info = self._pending.pop(query.query_id)
        record = QueryRecord(
            query_id=query.query_id,
            kind=type(query).__name__,
            node=query.node,
            intended_processor=info.intended,
            processor=processor_id,
            stolen=stolen,
            decision_time=info.decision_time,
            enqueued_at=info.enqueued_at,
            started_at=started,
            finished_at=finished,
            stats=stats,
            routed_via=info.routed_via,
            query_class=info.query_class,
            operator=info.operator,
            tenant=info.tenant,
        )
        self.records.append(record)
        strategy = self.strategy
        # Only a strategy that overrides the no-op hook reads feedback.
        if getattr(strategy.on_feedback, "__func__", None) \
                is not RoutingStrategy.on_feedback:
            strategy.on_feedback(
                RoutingFeedback(
                    query=query,
                    processor=processor_id,
                    response_time=record.response_time,
                    sojourn_time=record.sojourn_time,
                    stolen=stolen,
                    cache_hits=stats.cache_hits,
                    cache_misses=stats.cache_misses,
                    processor_hit_rate=(
                        self.processors[processor_id].cache_hit_rate()),
                    loads=tuple(self._loads),
                )
            )
        self._completed += 1
        if self._backlog_waits:
            backlog = self.backlog()
            matured = [e for t, e in self._backlog_waits if backlog <= t]
            if matured:
                self._backlog_waits = [
                    (t, e) for t, e in self._backlog_waits if backlog > t
                ]
                for event in matured:
                    event.succeed(backlog)
        if self._completed == self._submitted and not self.done.triggered:
            self.done.succeed(self._completed)
        else:
            self._dispatch(processor_id)
        # Completion callbacks run last (on *every* ack, including the one
        # completing a batch): they see the settled backlog and may submit
        # further work, which re-arms ``done`` as usual.
        for callback in self._completion_callbacks:
            callback()

    def on_requeue(self, processor_id: int, query: Query) -> None:
        """A dead processor returned a query it never started executing."""
        entry = self.outstanding[processor_id]
        if entry is None or entry[0].query_id != query.query_id:
            raise RuntimeError("requeue for a query that was not outstanding")
        self.outstanding[processor_id] = None
        self._loads[processor_id] -= 1
        self.pool.appendleft(query)
        for other in range(self.num_processors):
            if self.outstanding[other] is None:
                self._dispatch(other)

    # -- fault tolerance & elasticity ------------------------------------------
    def alive_mask(self) -> List[bool]:
        """Per-processor liveness, indexed like :attr:`processors`."""
        return [processor.alive for processor in self.processors]

    def add_processor(self, processor: QueryProcessor) -> int:
        """Join a new processor: grow the queue/outstanding tables, start
        its worker loop, and put it to work immediately.

        The mechanical mirror of :meth:`remove_processor` — ids are
        assigned densely and never reused, so the joiner must carry the
        next id. Routing-table rebalance (bounded key movement) is the
        *strategy's* job, driven by the topology layer via
        :meth:`RoutingStrategy.on_membership_change`; without it the
        joiner still drains the shared pool and steals, it just owns no
        keys. Returns the joiner's processor id.
        """
        if self._closed:
            raise RuntimeError(
                "cannot add a processor: router is shut down"
            )
        if processor.processor_id != self.num_processors:
            raise ValueError(
                f"joining processor must take the next id "
                f"{self.num_processors}, got {processor.processor_id}"
            )
        self.processors.append(processor)
        self.queues.append(deque())
        self.outstanding.append(None)
        self._loads.append(0)
        processor.start(self)
        # A joiner is idle by construction: give it queued work now.
        self._dispatch(processor.processor_id)
        return processor.processor_id

    def remove_processor(self, processor_id: int) -> int:
        """Drain a processor: no new dispatches; its queue redistributes.

        Decoupling makes this safe — any processor can serve any query — so
        the queued work simply moves to the shared pool. Returns how many
        queries were redistributed. An in-flight query finishes normally
        (graceful removal).

        Removing the *last alive* processor while work is still pending
        is refused loudly: the queued and pooled queries would otherwise
        strand forever behind the submit-time liveness guard, with
        nothing left to dispatch them.
        """
        processor = self.processors[processor_id]
        if processor.alive and self.backlog() > 0 and not any(
            other.alive
            for other in self.processors
            if other.processor_id != processor_id
        ):
            raise RuntimeError(
                f"refusing to remove processor {processor_id}: it is the "
                f"last alive processor and {self.backlog()} queries are "
                "still pending; drain first or add a replacement"
            )
        processor.alive = False
        moved = len(self.queues[processor_id])
        self._loads[processor_id] -= moved
        while self.queues[processor_id]:
            self.pool.append(self.queues[processor_id].popleft())
        for other in range(self.num_processors):
            if other != processor_id and self.outstanding[other] is None:
                self._dispatch(other)
        return moved
