"""Per-tenant admission control, DRR fair queueing, and load shedding.

The :class:`~repro.core.router.Router` is a closed-loop dispatcher: it
assumes whoever submits is willing to wait, so under open-loop arrivals
(:mod:`repro.workloads.open_loop`) its queues — and every query's sojourn
time — grow without bound the moment offered load crosses capacity. This
module is the front door that makes overload survivable:

* **bounded per-tenant queues** — each tenant owns a FIFO of at most
  ``tenant_queue_limit`` queries; a full queue *rejects* new arrivals,
  which is the backpressure signal to that tenant (and only that tenant);
* **deficit round-robin release** — queued queries enter the router in
  DRR order with per-cost-class weights, so one tenant's heavy analytics
  cannot starve another tenant's point lookups, and the router itself is
  kept shallow (two queries per processor) so queueing happens where
  fairness is enforceable;
* **load shedding** — past the overload watermark the controller drops
  the *heavy* operators first (``k_reach``, ``ppr``); past the
  severe watermark everything but point-class queries sheds. Shedding is
  cheaper than rejecting at the queue: a shed query never occupies a
  slot a cheap query could have used;
* **overload accounting** — entry/exit of the overload regime is
  recorded as ``(start, end)`` windows of simulated time, with hysteresis
  so the boundary doesn't chatter.

Decisions happen at *offer* time against live pressure (queued work plus
router backlog); everything admitted is eventually served. The
:class:`AdmissionStats` the controller produces ride on the
:class:`~repro.core.metrics.WorkloadReport` so goodput-vs-offered-load
and per-tenant shed/reject counts land next to the latency percentiles
they explain.

The only knob is :attr:`AdmissionConfig.tenant_queue_limit`. The DRR
quantum, the class weights, the heavy operators, the router depth and
the overload watermarks are module constants, read where they are used.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from .operators.registry import default_registry
from .queries import Query

#: Admission decisions returned by :meth:`AdmissionController.offer`.
ADMITTED = "admitted"
REJECTED = "rejected"
SHED = "shed"

#: DRR cost weights per query class: releasing one traversal spends as
#: much of a tenant's deficit as sixteen point lookups (the same coarse
#: cost ordering the operator registry's classes encode).
DEFAULT_CLASS_WEIGHTS: Mapping[str, float] = {
    "point": 1.0,
    "walk": 4.0,
    "traversal": 16.0,
}

#: Operators shed first under overload: the two whose service demand
#: dwarfs the rest of the catalog (multi-walk PPR, batched reachability).
DEFAULT_HEAVY_OPERATORS = frozenset({"k_reach", "ppr"})

#: DRR deficit granted per tenant visit: one traversal or sixteen points.
QUANTUM = 16.0

#: Overload watermarks, as *fractions of aggregate tenant queue capacity*
#: (``tenants_seen * tenant_queue_limit``) measured against total pending
#: work (queued + router backlog): ``OVERLOAD_HIGH`` enters overload,
#: ``OVERLOAD_LOW`` exits it (hysteresis), and ``SEVERE_HIGH`` escalates
#: shedding from the heavy operators to every non-point query.
OVERLOAD_HIGH = 0.5
OVERLOAD_LOW = 0.25
SEVERE_HIGH = 0.85


@dataclass(frozen=True)
class AdmissionConfig:
    """The admission layer's one knob: each tenant's queue bound."""

    tenant_queue_limit: int = 64

    def __post_init__(self) -> None:
        if self.tenant_queue_limit < 1:
            raise ValueError("tenant_queue_limit must be >= 1")


@dataclass
class TenantAdmissionStats:
    """Offer-time outcome counters for one tenant."""

    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    shed_by_operator: Dict[str, int] = field(default_factory=dict)
    max_queue_depth: int = 0


@dataclass
class AdmissionStats:
    """What the admission layer did over one serving run."""

    tenants: Dict[str, TenantAdmissionStats] = field(default_factory=dict)
    #: Closed ``[start, end)`` overload windows, in simulated seconds.
    overload_windows: List[Tuple[float, float]] = field(default_factory=list)

    # -- aggregates -----------------------------------------------------------
    @property
    def offered(self) -> int:
        return sum(t.offered for t in self.tenants.values())

    @property
    def admitted(self) -> int:
        return sum(t.admitted for t in self.tenants.values())

    @property
    def rejected(self) -> int:
        return sum(t.rejected for t in self.tenants.values())

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants.values())

    def delivery_ratio(self) -> float:
        """Admitted / offered — 1.0 means nothing was dropped."""
        offered = self.offered
        return self.admitted / offered if offered else 1.0

    def time_in_overload(self) -> float:
        """Total simulated seconds spent inside overload windows."""
        return sum(end - start for start, end in self.overload_windows)


class _TenantState:
    """One tenant's bounded FIFO and DRR deficit counter.

    The FIFO holds ``(query, DRR cost)`` pairs: the cost is classified once,
    at offer, not on every pump visit to the head.
    """

    __slots__ = ("queue", "deficit", "stats")

    def __init__(self) -> None:
        self.queue: Deque[Tuple[Query, float]] = deque()
        self.deficit = 0.0
        self.stats = TenantAdmissionStats()


class AdmissionController:
    """Admission + DRR fair-queueing front end for one :class:`Router`.

    ``config=None`` builds a *passthrough* controller: every offer goes
    straight to the router (unbounded queueing, no shedding) while the
    per-tenant offered/admitted counters still accumulate — the naive
    baseline an SLO benchmark compares against.

    The controller registers a router completion callback while
    :meth:`attach`-ed, so freed capacity pulls queued work in DRR order
    without any polling process.
    """

    def __init__(self, router, config: Optional[AdmissionConfig] = None) -> None:
        self.router = router
        self.env = router.env
        self.config = config
        self._tenants: Dict[str, _TenantState] = {}
        self._order: List[str] = []
        self._cursor = 0
        self._queued = 0
        self._overload_level = 0
        self._overload_since: Optional[float] = None
        self._windows: List[Tuple[float, float]] = []
        self._attached = False
        #: Max router backlog the DRR pump maintains.
        self._depth = 2 * router.num_processors

    # -- lifecycle ------------------------------------------------------------
    def attach(self) -> "AdmissionController":
        """Start pulling queued work on every router completion."""
        if not self._attached:
            self.router.add_completion_callback(self._on_completion)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.router.remove_completion_callback(self._on_completion)
            self._attached = False

    def _on_completion(self) -> None:
        self.pump()

    # -- introspection ---------------------------------------------------------
    def queued(self, tenant: Optional[str] = None) -> int:
        """Queries waiting in tenant queues (one tenant, or all)."""
        if tenant is None:
            return self._queued
        state = self._tenants.get(tenant)
        return len(state.queue) if state is not None else 0

    # -- admission -------------------------------------------------------------
    def _tenant(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState()
            self._tenants[tenant] = state
            self._order.append(tenant)
        return state

    def _cost(self, query: Query) -> float:
        weights = DEFAULT_CLASS_WEIGHTS
        query_class = default_registry.classify(query)
        return weights.get(query_class, max(weights.values()))

    def _update_overload(self) -> None:
        config = self.config
        assert config is not None
        capacity = max(1, len(self._tenants)) * config.tenant_queue_limit
        # Total un-finished work the controller sees: queued + in router.
        pending = self._queued + self.router.backlog()
        if self._overload_level == 0:
            if pending >= OVERLOAD_HIGH * capacity:
                self._overload_level = 1
                self._overload_since = self.env.now
        elif pending <= OVERLOAD_LOW * capacity:
            self._overload_level = 0
            if self._overload_since is not None:
                self._windows.append((self._overload_since, self.env.now))
                self._overload_since = None
        if self._overload_level:
            severe = pending >= SEVERE_HIGH * capacity
            self._overload_level = 2 if severe else 1


    def _should_shed(self, query: Query) -> bool:
        if self._overload_level == 0:
            return False
        name = default_registry.operator_name(query)
        if name in DEFAULT_HEAVY_OPERATORS:
            return True
        if self._overload_level >= 2:
            return default_registry.classify(query) != "point"
        return False

    def offer(self, query: Query, tenant: str = "default") -> str:
        """Offer one open-loop arrival; returns the admission decision.

        ``ADMITTED`` queries are queued (and released to the router in
        DRR order); ``SHED`` and ``REJECTED`` queries are dropped on the
        floor — in an open-loop system the arrival already happened, so
        dropping, not blocking, is the only backpressure available.
        """
        state = self._tenant(tenant)
        state.stats.offered += 1
        if self.config is None:
            state.stats.admitted += 1
            self.router.submit([query], tenant=tenant)
            return ADMITTED
        self._update_overload()
        if self._should_shed(query):
            state.stats.shed += 1
            name = default_registry.operator_name(query)
            state.stats.shed_by_operator[name] = (
                state.stats.shed_by_operator.get(name, 0) + 1
            )
            return SHED
        if len(state.queue) >= self.config.tenant_queue_limit:
            state.stats.rejected += 1
            return REJECTED
        state.queue.append((query, self._cost(query)))
        self._queued += 1
        state.stats.admitted += 1
        if len(state.queue) > state.stats.max_queue_depth:
            state.stats.max_queue_depth = len(state.queue)
        self.pump()
        return ADMITTED

    # -- DRR release ------------------------------------------------------------
    def pump(self) -> int:
        """Release queued queries into the router in DRR order.

        Runs until the router backlog reaches two queries per processor
        or the tenant queues drain; returns how many queries were
        released. Each DRR visit grants one :data:`QUANTUM` of deficit, a
        release spends the query's class weight, and a tenant that empties
        its queue forfeits its remaining deficit (idle tenants bank no
        credit — standard DRR).
        """
        if self.config is None:
            return 0
        released = 0
        router = self.router
        depth = self._depth
        quantum = QUANTUM
        while self._queued > 0 and router.backlog() < depth:
            # Advance the cursor to the next tenant with queued work.
            num = len(self._order)
            for _ in range(num):
                name = self._order[self._cursor % num]
                self._cursor += 1
                state = self._tenants[name]
                if state.queue:
                    break
            state.deficit += quantum
            while state.queue and router.backlog() < depth:
                query, cost = state.queue[0]
                if state.deficit < cost:
                    break
                state.queue.popleft()
                self._queued -= 1
                state.deficit -= cost
                router.submit([query], tenant=name)
                released += 1
            if not state.queue:
                state.deficit = 0.0
        if released:
            self._update_overload()
        return released

    # -- reporting ---------------------------------------------------------------
    def stats(self, now: Optional[float] = None) -> AdmissionStats:
        """Snapshot the admission outcome (open overload window closed at
        ``now``, default the current simulated time)."""
        end = self.env.now if now is None else now
        windows = list(self._windows)
        if self._overload_since is not None:
            windows.append((self._overload_since, end))
        return AdmissionStats(
            tenants={
                name: TenantAdmissionStats(
                    offered=s.stats.offered,
                    admitted=s.stats.admitted,
                    rejected=s.stats.rejected,
                    shed=s.stats.shed,
                    shed_by_operator=dict(s.stats.shed_by_operator),
                    max_queue_depth=s.stats.max_queue_depth,
                )
                for name, s in self._tenants.items()
            },
            overload_windows=windows,
        )
