"""Long-lived service facade: one decoupled cluster, many query sessions.

The paper's architecture exists to serve *online* queries arriving
continuously, and a decoupled processor "is equally capable of handling
any request" (§2.3), so there is one serving path.
:class:`GraphService` is its entry point:

* **build once** — graph assets, storage tier, processors (and their
  caches), routing strategy and router are constructed when the service
  opens and live until it closes;
* **sessions** — a :class:`QuerySession` scopes one stream of queries:
  incremental :meth:`~QuerySession.submit`, batched
  :meth:`~QuerySession.submit_many`, or a generator-driven
  :meth:`~QuerySession.stream` that feeds the router's pipelined
  wave/backlog machinery; results come back as an iterator of
  :class:`~repro.core.metrics.QueryRecord`;
* **warm continuation** — closing a session leaves caches (and any
  adaptive routing state) warm; the next session starts where traffic
  left off, which is what lets benchmarks separate warm-up from steady
  state via windowed :meth:`~QuerySession.report`;
* **live graph updates** — :meth:`~QuerySession.apply_updates` mutates the
  served graph in place: dirty records are rewritten through the storage
  tier, invalidated from every processor cache, and routed by hash
  fallback until the incremental refresh re-indexes the dirty region
  (see :mod:`repro.core.updates`); :meth:`~QuerySession.stream` accepts
  workloads that interleave :class:`~repro.graph.updates.GraphUpdate`
  items with queries.

One service admits one active session at a time: the simulated router is
a single dispatch loop, and interleaving two id-spaces through it would
make every record ambiguous. Parallel sessions belong to parallel
services (one simulated cluster each), with
:class:`~repro.core.queries.QueryIdAllocator` strides keeping their query
ids disjoint.

The paper's figures are defined over cold-cache runs (§4.1):
:func:`run_workload` is that one-shot form — open, one session, report,
close — for anything that does not need the live service afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import inf, nextafter
from typing import Iterable, Iterator, List, Optional

from typing import TYPE_CHECKING

from ..costs import DEFAULT_COSTS, CostModel
from ..graph.digraph import Graph
from ..graph.updates import GraphUpdate
from ..sim import Environment, SimulationError
from ..storage.tier import StorageTier
from .admission import AdmissionConfig, AdmissionController, AdmissionStats
from .assets import GraphAssets
from .metrics import QueryRecord, WorkloadReport
from .placement import PlacementConfig, PlacementManager
from .topology import ClusterTopology, TopologyConfig

if TYPE_CHECKING:  # annotation only: workloads imports core, not vice versa
    from ..workloads.open_loop import Arrival
from .processor import QueryProcessor
from .queries import Query
from .router import Router
from .updates import LiveUpdateManager, UpdateReport
from .routing import (
    AdaptiveRouting,
    EmbedRouting,
    HashRouting,
    LandmarkRouting,
    NextReadyRouting,
    RoutingStrategy,
)

ROUTING_CHOICES = (
    "next_ready", "hash", "landmark", "embed", "no_cache", "adaptive",
)

#: Static arms the adaptive strategy picks between per query class.
ADAPTIVE_ARMS = ("hash", "landmark", "embed")


@dataclass(frozen=True)
class ClusterConfig:
    """Deployment + algorithm knobs (defaults follow §4.1 Parameter Setting)."""

    num_processors: int = 7
    num_storage_servers: int = 4
    routing: str = "embed"
    cache_capacity_bytes: int = 16 << 20
    cache_policy: str = "lru"
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    load_factor: float = 20.0
    alpha: float = 0.5
    dim: int = 10
    num_landmarks: int = 96
    min_separation: int = 3
    embed_method: str = "simplex"
    steal: bool = True
    seed: int = 0
    # -- adaptive-routing knobs ----------------------------------------------
    #: Queries per audition epoch (each arm owns all traffic for one epoch).
    adaptive_epoch: int = 32
    #: Queries routed per submission wave. None = auto: everything at once
    #: for static strategies (decisions don't depend on feedback), small
    #: waves for adaptive so routing feedback informs later decisions.
    submit_batch: Optional[int] = None
    # -- live graph-update knobs ----------------------------------------------
    #: Automatically run the incremental routing refresh after this many
    #: applied updates, >= 1 (None = manual: staleness accumulates until
    #: ``refresh_routing()`` is called). See :mod:`repro.core.updates`.
    update_refresh_interval: Optional[int] = None
    # -- dynamic-placement knobs -----------------------------------------------
    #: Enable the dynamic-placement subsystem (heat tracking + periodic
    #: hot-record migration/replication — see :mod:`repro.core.placement`).
    #: None (the default) builds none of it: the storage tier behaves
    #: exactly as plain MurmurHash partitioning, bit-for-bit.
    placement: Optional[PlacementConfig] = None
    # -- elastic-topology knobs --------------------------------------------------
    #: Enable the elastic-topology layer (live join/leave, storage
    #: failover + repair, chaos schedules — see :mod:`repro.core.topology`).
    #: None builds none of it; an attached-but-idle topology is inert
    #: (bit-identical to a service without one).
    topology: Optional[TopologyConfig] = None


class GraphService:
    """A long-lived decoupled graph-querying cluster serving sessions."""

    #: Default wave size for adaptive routing (see ClusterConfig.submit_batch):
    #: deep enough that the Eq. 3/7 load term still sees real queue depths,
    #: shallow enough that feedback reaches the strategy while it matters.
    ADAPTIVE_BATCH = 128
    #: Default wave size when streaming a workload of unknown length.
    STREAM_BATCH = 256

    def __init__(
        self,
        graph: Graph,
        config: Optional[ClusterConfig] = None,
        assets: Optional[GraphAssets] = None,
        landmark_index=None,
        embedding=None,
        sanitize: Optional[bool] = None,
    ) -> None:
        """``landmark_index`` / ``embedding`` override the assets-built
        artifacts — used by the graph-update experiments, where routing
        must run on *stale* preprocessing (Fig 10). ``sanitize`` arms the
        runtime sanitizer on the service's environment (default: the
        ``REPRO_SANITIZE`` environment variable)."""
        self._landmark_index_override = landmark_index
        self._embedding_override = embedding
        self.config = config or ClusterConfig()
        if self.config.routing not in ROUTING_CHOICES:
            raise ValueError(
                f"unknown routing {self.config.routing!r}; "
                f"choose from {ROUTING_CHOICES}"
            )
        if self.config.num_processors < 1:
            raise ValueError("need at least one query processor")
        if self.config.cache_capacity_bytes < 0:
            raise ValueError("cache_capacity_bytes must be >= 0")
        batch = self.config.submit_batch
        if batch is not None and batch < 1:
            raise ValueError("submit_batch must be >= 1")
        refresh = self.config.update_refresh_interval
        if refresh is not None and refresh < 1:
            raise ValueError("update_refresh_interval must be >= 1 (or None)")
        self.assets = assets if assets is not None else GraphAssets(graph)
        # Shared staleness set: nodes whose routing info predates a graph
        # update. Created before the strategies so they can hold it by
        # reference; owned (and cleared) by the LiveUpdateManager.
        self._stale: set = set()
        self.env = Environment(sanitize=sanitize)
        self.tier = StorageTier(
            self.env,
            num_servers=self.config.num_storage_servers,
            service_model=self.config.costs.storage,
        )
        self.processors: List[QueryProcessor] = [
            self.build_processor(i)
            for i in range(self.config.num_processors)
        ]
        self.strategy = self._build_strategy(self.config.routing)
        self.router = Router(
            self.env, self.strategy, self.processors, steal=self.config.steal
        )
        for processor in self.processors:
            processor.start(self.router)
        self.updates = LiveUpdateManager(self, self._stale)
        # Dynamic placement: heat tracking + periodic migration/replication.
        # Constructed (and its periodic process started) only when the
        # config opts in — a None config leaves the tier's directory empty
        # and its heat hook None, i.e. the exact pre-placement behaviour.
        self.placement: Optional[PlacementManager] = None
        if self.config.placement is not None:
            self.placement = PlacementManager(self, self.config.placement)
            self.placement.start()
        # Elastic topology: membership epochs, failover + repair, chaos
        # schedules. An attached-but-idle topology is inert (the parity
        # tests pin bit-identical replay against a service without one).
        self.topology: Optional[ClusterTopology] = None
        if self.config.topology is not None:
            self.topology = ClusterTopology(self, self.config.topology)
        self._active_session: Optional["QuerySession"] = None
        self._closed = False

    def build_processor(self, processor_id: int) -> QueryProcessor:
        """The one :class:`QueryProcessor` factory — founders here, joiners
        via :meth:`ClusterTopology.add_processor` — so a joiner cannot
        drift from the founders. The worker is built cold and not yet
        started.
        """
        cfg = self.config
        return QueryProcessor(
            self.env,
            processor_id=processor_id,
            tier=self.tier,
            assets=self.assets,
            costs=cfg.costs,
            cache_capacity_bytes=(
                0 if cfg.routing == "no_cache" else cfg.cache_capacity_bytes
            ),
            cache_policy=cfg.cache_policy,
        )

    @classmethod
    def open(
        cls,
        graph: Graph,
        config: Optional[ClusterConfig] = None,
        assets: Optional[GraphAssets] = None,
        **overrides,
    ) -> "GraphService":
        """Build assets and tiers once; serve sessions until :meth:`close`."""
        return cls(graph, config, assets=assets, **overrides)

    # -- strategy construction ----------------------------------------------
    def _build_strategy(self, routing: str) -> RoutingStrategy:
        cfg = self.config
        if routing in ("next_ready", "no_cache"):
            return NextReadyRouting()
        if routing == "hash":
            return HashRouting(cfg.num_processors)
        if routing == "landmark":
            index = self._landmark_index_override
            if index is None:
                index = self.assets.landmark_index(
                    cfg.num_processors, cfg.num_landmarks, cfg.min_separation
                )
            return LandmarkRouting(
                index, load_factor=cfg.load_factor, staleness=self._stale
            )
        if routing == "adaptive":
            return AdaptiveRouting(
                {arm: self._build_strategy(arm) for arm in ADAPTIVE_ARMS},
                epoch=cfg.adaptive_epoch,
                seed=cfg.seed,
            )
        # embed
        embedding = self._embedding_override
        if embedding is None:
            embedding = self.assets.embedding(
                dim=cfg.dim,
                num_landmarks=cfg.num_landmarks,
                min_separation=cfg.min_separation,
                method=cfg.embed_method,
            )
        return EmbedRouting(
            embedding,
            num_processors=cfg.num_processors,
            alpha=cfg.alpha,
            load_factor=cfg.load_factor,
            seed=cfg.seed,
            staleness=self._stale,
        )

    # -- sessions ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def session(self) -> "QuerySession":
        """Open a query session (one active per service)."""
        if self._closed:
            raise RuntimeError(
                "GraphService is closed; open a new one to serve queries"
            )
        if self._active_session is not None and not self._active_session.closed:
            raise RuntimeError(
                "a session is already active on this service; close it "
                "first (one router serves one query stream at a time)"
            )
        if self.router.backlog() > 0:
            # An abandoned session (exception unwind seals without
            # draining) left queries in flight. Finish them now,
            # unattributed, so their completions can't land inside the new
            # session's record range.
            self.drain()
        session = QuerySession(self)
        self._active_session = session
        return session

    def _session_closed(self, session: "QuerySession") -> None:
        if self._active_session is session:
            self._active_session = None

    # -- live graph updates -----------------------------------------------------
    def apply_updates(self, updates: Iterable[GraphUpdate]) -> UpdateReport:
        """Apply a batch of graph mutations through every layer.

        The deltas land in the graph and assets, the dirty adjacency
        records are rewritten through the storage tier (advancing
        simulated time; concurrent queries contend with the writes), the
        dirty keys are invalidated in every processor cache, and the
        dirty nodes are marked routing-stale until the next incremental
        refresh (automatic every ``config.update_refresh_interval``
        applied updates, or on :meth:`refresh_routing`). See
        :mod:`repro.core.updates` for the full model.
        """
        if self._closed:
            raise RuntimeError("GraphService is closed")
        return self.updates.apply(list(updates))

    def refresh_routing(self) -> int:
        """Incrementally refresh routing info for the stale region.

        Re-assigns dirty nodes in any landmark index and re-embeds them
        in any embedding the current strategy (or its adaptive arms)
        routes with, then clears the staleness set; returns how many
        nodes were refreshed.
        """
        if self._closed:
            raise RuntimeError("GraphService is closed")
        return self.updates.refresh()

    # -- lifecycle -------------------------------------------------------------
    def drain(self) -> None:
        """Run the simulation until no submitted query remains in flight."""
        while self.router.backlog() > 0:
            try:
                self.env.run(until=self.router.done)
            except SimulationError as exc:
                self._raise_worker_crash(exc)

    def _raise_worker_crash(self, cause: SimulationError) -> None:
        """Re-raise a crashed worker's root cause instead of a deadlock.

        A processor worker that dies (e.g. :class:`StorageServerDown`
        with failover off) has no waiter, so its exception is stored on
        the process and the event loop simply runs dry. Surface the real
        error; if no worker crashed, the stall is genuine — re-raise it.
        """
        for processor in self.processors:
            failure = processor.failure
            if failure is not None:
                raise failure from cause
        raise cause

    def close(self, drain: bool = True) -> None:
        """Drain outstanding work, then refuse all further submissions.

        ``drain=False`` abandons in-flight work instead (used when
        unwinding an exception — finishing a workload the caller gave up
        on would be wrong, and a deadlocked drain would mask the original
        error).
        """
        if self._closed:
            return
        if self._active_session is not None and not self._active_session.closed:
            self._active_session.close(drain=drain)
        if drain:
            self.drain()
        self.router.shutdown()
        self._closed = True

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.close(drain=exc_type is None)

    # -- submission defaults ---------------------------------------------------
    def _default_batch(self, workload) -> int:
        batch = self.config.submit_batch
        if batch is not None:
            return batch
        if self.config.routing == "adaptive":
            return self.ADAPTIVE_BATCH
        try:
            return max(1, len(workload))
        except TypeError:  # a generator: stream in bounded waves
            return self.STREAM_BATCH

    # -- diagnostics -----------------------------------------------------------
    def processor_utilizations(self) -> List[float]:
        return [p.utilization(self.env.now) for p in self.processors]

    def storage_utilizations(self) -> List[float]:
        return [s.utilization(self.env.now) for s in self.tier.servers]

    def server_stats(self, top_heat: int = 5) -> List[dict]:
        """Per-storage-server counters + top-k record heat (one dict per
        server, cumulative over the service lifetime).

        This is what makes placement decisions explainable from any
        run's report: which servers served/wrote how much, how busy
        their pipelines were, and — when the placement subsystem is on —
        which records are currently hottest on each. Heat pairs are
        ``(node_id, decayed_heat)``; the list is empty when placement is
        disabled.

        Servers that failed at any point additionally report their
        downtime windows and recovery state (keys present only when a
        transition happened, so fault-free runs keep their historical
        dict shape bit-for-bit).
        """
        elapsed = self.env.now
        heat = (
            self.placement.top_heat_by_server(top_heat)
            if self.placement is not None
            else [[] for _ in self.tier.servers]
        )
        stats = []
        for server in self.tier.servers:
            row = {
                "server": server.server_id,
                "requests_served": server.requests_served,
                "keys_served": server.keys_served,
                "bytes_served": server.bytes_served,
                "writes_served": server.writes_served,
                "records_written": server.records_written,
                "bytes_written": server.bytes_written,
                "utilization": server.utilization(elapsed),
                "top_heat": heat[server.server_id],
            }
            if server.alive_transitions:
                windows = server.downtime_windows()
                row["downtime_windows"] = [
                    [down, up] for down, up in windows
                ]
                row["downtime_s"] = sum(
                    (elapsed if up is None else up) - down
                    for down, up in windows
                )
                row["recovered"] = bool(
                    windows and windows[-1][1] is not None
                ) or not windows
            stats.append(row)
        return stats


class QuerySession:
    """One scoped stream of queries through a :class:`GraphService`.

    Sessions delimit reporting windows, not cluster state: caches and
    routing state deliberately survive session boundaries (warm
    continuation). Obtain one via :meth:`GraphService.session`, preferably
    as a context manager; :meth:`close` drains in-flight work so the next
    session starts from an idle, warm cluster.
    """

    def __init__(self, service: GraphService) -> None:
        self.service = service
        self.env = service.env
        self.router = service.router
        self.started_at = self.env.now
        self._start_index = len(self.router.records)
        self._end_index: Optional[int] = None
        self._cursor = self._start_index
        self.submitted = 0
        self._admission_stats: Optional[AdmissionStats] = None

    # -- state ----------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._end_index is not None

    def _end(self) -> int:
        """End of this session's slice of the router's record log."""
        if self._end_index is not None:
            return self._end_index
        return len(self.router.records)

    def backlog(self) -> int:
        """This session's submitted-but-incomplete query count."""
        return 0 if self.closed else self.router.backlog()

    @property
    def completed(self) -> int:
        """How many of this session's queries have completed (O(1) —
        safe to poll from simulation processes)."""
        return self._end() - self._start_index

    @property
    def records(self) -> List[QueryRecord]:
        """Records completed so far, in completion order (non-blocking).

        Copies the session's slice of the record log; poll
        :attr:`completed` instead when only the count is needed.
        """
        return self.router.records[self._start_index:self._end()]

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(
                "session is closed; open a new one on the service"
            )

    # -- submission ------------------------------------------------------------
    def submit(self, query: Query) -> Query:
        """Route one query immediately; returns it.

        Submission alone does not advance simulated time — interleave with
        :meth:`results`, :meth:`drain` or :meth:`report` to execute.
        """
        self._check_open()
        self.router.submit([query])
        self.submitted += 1
        return query

    def submit_many(self, queries: Iterable[Query]) -> List[Query]:
        """Route a batch in one wave; returns the submitted queries."""
        self._check_open()
        batch = list(queries)
        self.router.submit(batch)
        self.submitted += len(batch)
        return batch

    def stream(self, workload: Iterable[Query]) -> int:
        """Feed a workload — any iterable, generators included — through
        the router's pipelined wave/backlog machinery.

        Waves of ``config.submit_batch`` queries (see :class:`ClusterConfig`
        for the default) are topped up whenever the cluster backlog drains
        below half a wave, so processors never idle at a wave boundary and
        feedback-driven strategies decide later waves with earlier acks
        already absorbed.
        Returns the number of queries submitted; completion is awaited by
        :meth:`drain` / :meth:`report` / :meth:`results`.

        The workload may interleave :class:`~repro.graph.updates.GraphUpdate`
        items with queries (e.g. :func:`repro.workloads.churn_stream`):
        each contiguous run of updates is applied — in stream order, so a
        query behind an update sees the mutated graph — via
        :meth:`apply_updates`, while queries already submitted keep
        executing concurrently with the update's storage writes. Updates
        do not count toward the returned submission total.
        """
        self._check_open()
        batch = self.service._default_batch(workload)
        refill = max(1, batch // 2)
        iterator = iter(workload)
        submitted = 0
        wave = list(islice(iterator, batch))
        while wave:
            if submitted:
                self.env.run(until=self.router.when_backlog_at_most(refill))
            if any(isinstance(item, GraphUpdate) for item in wave):
                submitted += self._mixed_wave(wave)
            else:
                self.submit_many(wave)
                submitted += len(wave)
            wave = list(islice(iterator, batch))
        return submitted

    def _mixed_wave(self, wave: List[object]) -> int:
        """Submit one wave containing both queries and graph updates.

        Stream order is preserved: queries ahead of an update are
        submitted (and may execute) first, then the update batch is
        applied, then the remainder follows. Consecutive updates coalesce
        into one applied batch (one storage write round per burst).
        """
        submitted = 0
        queries: List[Query] = []
        updates: List[GraphUpdate] = []
        for item in wave:
            if isinstance(item, GraphUpdate):
                if queries:
                    self.submit_many(queries)
                    submitted += len(queries)
                    queries = []
                updates.append(item)
            else:
                if updates:
                    self.apply_updates(updates)
                    updates = []
                queries.append(item)
        if updates:
            self.apply_updates(updates)
        if queries:
            self.submit_many(queries)
            submitted += len(queries)
        return submitted

    # -- open-loop serving --------------------------------------------------------
    def serve(
        self,
        arrivals: Iterable["Arrival"],
        admission: Optional[AdmissionConfig] = None,
    ) -> AdmissionStats:
        """Serve an open-loop arrival stream to completion.

        ``arrivals`` is any time-ordered iterable of
        :class:`~repro.workloads.open_loop.Arrival` items (use
        :func:`~repro.workloads.open_loop.merge_arrivals` to multiplex
        tenants); each query is *injected at its absolute simulated
        timestamp* (offset from the moment this call starts), whether or
        not earlier queries have completed — the opposite of
        :meth:`stream`'s closed-loop waves, and the regime where offered
        load can exceed capacity.

        ``admission`` enables the per-tenant admission-control /
        fair-queueing layer (see :mod:`repro.core.admission`): bounded
        tenant queues whose overflow *rejects* (per-tenant backpressure),
        DRR release into the router, and load shedding that drops heavy
        operators first under overload. ``None`` serves naively — every
        arrival goes straight to the router FIFO, so past saturation the
        backlog (and every sojourn time) grows without bound; that is the
        baseline the SLO benchmark collapses.

        Runs until every arrival has been offered and every admitted
        query completed; returns the :class:`AdmissionStats` (also
        attached to this session's :meth:`report` as ``report.admission``,
        lighting up the per-tenant p99/p999 and goodput-vs-offered SLO
        metrics). Shed and rejected queries produce no records.
        """
        self._check_open()
        env = self.env
        router = self.router
        controller = AdmissionController(router, admission).attach()
        origin = env.now
        updates = self.service.updates

        def drive():
            last = None
            for arrival in arrivals:
                at = arrival.at
                if last is not None and at < last:
                    raise ValueError(
                        "arrival stream is not time-ordered "
                        f"({at} after {last}); merge per-tenant streams "
                        "with repro.workloads.merge_arrivals"
                    )
                last = at
                delay = origin + at - env.now
                if delay > 0:
                    yield env.timeout(delay)
                if isinstance(arrival.query, GraphUpdate):
                    # Mixed open-loop streams (e.g. churn_stream through
                    # poisson_arrivals) carry graph mutations between
                    # queries. Updates bypass admission — they are not
                    # sheddable work — and apply inline, so the driver
                    # back-pressures on the write path exactly as stream()
                    # does in closed loop.
                    yield from updates.apply_process([arrival.query])
                    continue
                controller.offer(arrival.query, arrival.tenant)

        try:
            driver = env.process(drive())
            env.run(until=driver)
            controller.pump()
            while router.backlog() > 0 or controller.queued() > 0:
                if router.backlog() == 0 and controller.pump() == 0:
                    break  # defensive: nothing in flight, nothing releasable
                env.run(until=router.done)
        except SimulationError as exc:
            self.service._raise_worker_crash(exc)
        finally:
            controller.detach()
        stats = controller.stats()
        self._admission_stats = stats
        self.submitted += stats.admitted
        return stats

    # -- completion --------------------------------------------------------------
    def results(self) -> Iterator[QueryRecord]:
        """Yield this session's records in completion order, advancing the
        simulation as needed until the session's backlog is drained.

        Safe to interleave with further :meth:`submit` calls: newly
        submitted queries extend the iteration.
        """
        while True:
            end = self._end()
            while self._cursor < end:
                record = self.router.records[self._cursor]
                self._cursor += 1
                yield record
            if self.closed or self.router.backlog() == 0:
                return
            self.env.run(
                until=self.router.when_backlog_at_most(self.router.backlog() - 1)
            )

    def drain(self) -> None:
        """Run the simulation until every submitted query has completed."""
        if not self.closed:
            self.service.drain()

    # -- live graph updates -------------------------------------------------------
    def apply_updates(self, updates: Iterable[GraphUpdate]) -> UpdateReport:
        """Apply graph mutations mid-session (see
        :meth:`GraphService.apply_updates`). Advances simulated time while
        the storage writes are in flight; this session's submitted queries
        keep executing (and completing) concurrently."""
        self._check_open()
        return self.service.apply_updates(updates)

    def refresh_routing(self) -> int:
        """Run the incremental routing refresh now (see
        :meth:`GraphService.refresh_routing`)."""
        self._check_open()
        return self.service.refresh_routing()

    # -- reporting ---------------------------------------------------------------
    def report(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> WorkloadReport:
        """Workload report over this session's queries (drains first).

        ``since``/``until`` (simulated seconds) clip the report to the
        queries completing in ``[since, until)`` — e.g.
        ``report(since=warmup_end)`` measures steady state only. Defaults
        cover the whole session. Finer segmentation is on the report
        itself: :meth:`WorkloadReport.window`, :meth:`WorkloadReport.windows`
        and :meth:`WorkloadReport.per_window_stats`.
        """
        if not self.closed:
            self.drain()
        records = sorted(
            self.router.records[self._start_index:self._end()],
            key=lambda r: r.query_id,
        )
        ended_at = max(
            (r.finished_at for r in records), default=self.started_at
        )
        config = self.service.config
        placement = self.service.placement
        report = WorkloadReport(
            records=records,
            makespan=ended_at - self.started_at,
            # The router's live count, not the config's: join/leave can
            # change membership mid-session (identical when it didn't).
            num_processors=self.router.num_processors,
            num_storage_servers=config.num_storage_servers,
            routing=config.routing,
            # Admission outcome of this session's open-loop serve, if any
            # (the latest serve's — one serve per session is the intended
            # shape). Enables the per-tenant / goodput SLO metrics.
            admission=self._admission_stats,
            # Per-server observability + placement itemization, snapshotted
            # at report time (cumulative over the service lifetime).
            per_server=self.service.server_stats(),
            placement=placement.stats() if placement is not None else None,
        )
        if since is not None or until is not None:
            t0 = self.started_at if since is None else since
            t1 = nextafter(ended_at, inf) if until is None else until
            report = report.window(t0, t1)
        return report

    # -- lifecycle ----------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Drain in-flight work and seal the session's record range.

        ``drain=False`` seals immediately, abandoning in-flight work
        (exception unwind — see :meth:`GraphService.close`).
        """
        if self.closed:
            return
        if drain:
            self.drain()
        self._end_index = len(self.router.records)
        self.service._session_closed(self)

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        self.close(drain=exc_type is None)


def run_workload(
    graph: Graph,
    queries: Iterable[Query],
    config: Optional[ClusterConfig] = None,
    assets: Optional[GraphAssets] = None,
    **service_kwargs,
) -> WorkloadReport:
    """One cold run: open a service, stream ``queries`` through one
    session, report, close. Caches start empty and simulated time at zero
    on every call (§4.1); ``service_kwargs`` go to :class:`GraphService`.
    """
    with GraphService.open(
        graph, config, assets=assets, **service_kwargs
    ) as service:
        with service.session() as session:
            session.stream(queries)
            return session.report()
