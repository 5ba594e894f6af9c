"""Routing strategy interface (§3) and the routing feedback channel.

A strategy inspects a query and the router's per-processor load estimates
(queue length + outstanding query) and either names a target processor or
returns ``None`` to place the query in the router's shared pool (pure
next-ready dispatch). Smart strategies combine their distance signal with
the load via the paper's load-balanced distance (Eq. 3 / Eq. 7):

    d_LB(u, p) = d(u, p) + load(p) / load_factor

On every acknowledgement the router also pushes a :class:`RoutingFeedback`
back into the strategy — measured response time, the executing processor's
cache behaviour, and the queue depths at completion. Static strategies
inherit the no-op :meth:`RoutingStrategy.on_feedback`, and the router
builds no feedback for them; adaptive strategies override it to re-rank
their choices online.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..queries import Query

#: Fixed overhead of any routing decision (table lookup, queue push).
BASE_DECISION_TIME = 0.2e-6
#: Incremental cost per processor-distance entry scanned (O(P) or O(PD)).
PER_ENTRY_DECISION_TIME = 0.01e-6


@dataclass(frozen=True)
class RoutingFeedback:
    """One completed query's outcome, reported back to the strategy.

    Carries everything already flowing through the router's ack path:
    measured latency, the executing processor's per-query and cumulative
    cache behaviour, and the cluster-wide queue depths at completion time.
    """

    query: Query
    processor: int
    #: Processing time plus routing decision time (the §4.1 response time).
    response_time: float
    #: Arrival-to-completion time, including queueing delay.
    sojourn_time: float
    #: Whether an idle processor stole this query from another's queue.
    stolen: bool
    #: Result-set cache hits / misses for this query (Eq. 8/9).
    cache_hits: int
    cache_misses: int
    #: The executing processor's *cumulative* cache hit rate so far.
    processor_hit_rate: float
    #: Per-processor queue depths (queued + in-flight) at completion.
    loads: Tuple[int, ...]


class RoutingStrategy(ABC):
    """Chooses a processor for each query."""

    name: str = "abstract"

    @abstractmethod
    def choose(self, query: Query, loads: Sequence[int]) -> Optional[int]:
        """Target processor index, or None for the shared next-ready pool.

        ``loads`` is the router's per-processor busyness estimate (queued
        plus in-flight queries).
        """

    def on_dispatch(self, query: Query, processor: int) -> None:
        """Hook invoked when the routing decision is recorded (EMA updates)."""

    def on_feedback(self, feedback: RoutingFeedback) -> None:
        """Hook invoked when a routed query completes (adaptive updates)."""

    def decision_label(self, _query: Query) -> str:
        """Which concrete scheme decided this query (for per-arm metrics).

        Composite strategies override this to name the sub-strategy that
        actually routed the query; the router records it per query right
        after :meth:`choose`.
        """
        return self.name

    def decision_time(self, _num_processors: int) -> float:
        """Simulated router time to make one decision."""
        return BASE_DECISION_TIME

    def on_membership_change(
        self, num_processors: int, alive: Sequence[bool]
    ) -> int:
        """The processing tier changed shape: rebalance routing state.

        ``num_processors`` is the new processor count (monotonically
        non-decreasing — removed processors keep their slot with
        ``alive[p]`` False). Strategies with per-processor tables move
        the *bounded minimum* of keys: only keys whose owner departed, or
        the fair share handed to a joiner. Returns how many table entries
        (hash slots, landmark-index nodes) changed owner, so the caller
        can report bounded key movement. The default is a no-op: a
        strategy with no per-processor state (next-ready pooling) routes
        correctly by construction — the router never dispatches to a dead
        processor and pools work for unknown targets.
        """
        return 0
