"""Elastic cluster topology: membership epochs, failover and repair.

The paper's experiments fix the deployment before any query runs (§4.1:
7 query processors, 4 storage servers); the *point* of separating compute
from storage (§2.3) is that either tier can grow, shrink or fail
independently of the other. This module is the one place that changes
membership on a **live** service:

* **processing tier** — :meth:`ClusterTopology.add_processor` joins a
  cold-cache worker built by the service's own processor factory,
  registers it with the router and drives the routing strategy's
  :meth:`~repro.core.routing.base.RoutingStrategy.on_membership_change`
  hook, which rebalances ownership tables with *bounded key movement*.
  :meth:`remove_processor` is the mirror: the router re-queues the
  departed worker's backlog and the strategy stops routing to it.

* **storage tier** — :meth:`fail_server` / :meth:`recover_server` flip a
  server's liveness and, when ``failover`` is on, run a **repair loop**
  in simulated time. Each round is a *planner*: it decides which records
  to re-write from the authoritative graph (suspect update casualties,
  fail-backs to a recovered home, what live reads are blocked on, fully
  lost records) within a byte budget, and hands the moves to the tier's
  record mover (:meth:`~repro.storage.tier.StorageTier.move_process`).
  Reads meanwhile serve from any live replica and in-flight queries that
  hit a dead server back off and retry (retry knobs armed by this
  layer). A healed cluster converges back to plain hash placement.

Every membership operation bumps :attr:`ClusterTopology.epoch` and logs
an event — the chaos benchmark's provenance trail. A topology that never
changes is inert by construction: the tier's directory stays empty, the
repair loop is never spawned, and an empty :meth:`schedule` starts no
process, so a service with an idle topology replays **bit-identically**
to one without.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..storage.tier import HOME, UNCHANGED, Move
from .processor import QueryProcessor

if TYPE_CHECKING:  # pragma: no cover
    from .service import GraphService

#: Chaos-schedule actions understood by :meth:`ClusterTopology.schedule`.
CHAOS_ACTIONS = (
    "add_processor", "remove_processor", "fail_server", "recover_server",
)


@dataclass(frozen=True)
class TopologyConfig:
    """Knobs of the elastic-topology layer.

    Attaching a ``TopologyConfig`` to a :class:`ClusterConfig` builds the
    topology manager but changes nothing until a membership operation
    runs — the defaults are calibrated to the storage service times (µs
    scale), like every other simulated cost in the repo.
    """

    #: Re-replicate lost records and fail back after recovery. Off = the
    #: ablation: failures surface as errors and nothing heals.
    failover: bool = True
    #: Live copies the repair loop restores per lost record.
    replication: int = 1
    #: Simulated seconds between repair rounds.
    repair_interval_s: float = 0.002
    #: Copied bytes allowed per repair round (bounded, like placement's
    #: round budget — repair traffic queues behind live queries).
    repair_byte_budget: int = 256 << 10
    #: Storage retries per query before StorageServerDown surfaces
    #: (armed on every processor when ``failover`` is on; 0 = fail fast).
    retry_limit: int = 8
    #: Initial retry backoff (doubles per attempt, simulated seconds).
    retry_backoff_s: float = 20.0e-6
    #: Backoff ceiling.
    retry_backoff_cap_s: float = 500.0e-6

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.repair_interval_s < 0:
            raise ValueError("repair_interval_s must be >= 0")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled membership change at an absolute simulated instant.

    ``target`` is a server id for ``fail_server`` / ``recover_server``, a
    processor id for ``remove_processor``, and ignored for
    ``add_processor`` (ids are dense — the joiner takes the next one).
    """

    at: float
    action: str
    target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in CHAOS_ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r}; "
                f"choose from {CHAOS_ACTIONS}"
            )
        if self.at < 0:
            raise ValueError("chaos events need a non-negative time")
        if self.action != "add_processor" and self.target is None:
            raise ValueError(f"{self.action} needs a target id")


class ClusterTopology:
    """Membership-epoch manager for one live :class:`GraphService`."""

    def __init__(
        self, service: "GraphService", config: Optional[TopologyConfig] = None
    ) -> None:
        self.service = service
        self.config = config or TopologyConfig()
        self.env = service.env
        self.tier = service.tier
        #: Monotonic membership epoch; bumped by every join/leave/fail/
        #: recover. Strategies rebalance against the epoch's alive set.
        self.epoch = 0
        #: Event log: one dict per membership change (provenance for the
        #: chaos benchmark's artifacts).
        self.events: List[Dict[str, object]] = []
        # Cumulative counters.
        self.moved_entries = 0
        self.write_failures = 0
        self.repair_rounds = 0
        self.repair_records = 0
        self.repair_bytes = 0
        self.failbacks = 0
        #: Keys the repair loop placed onto substitutes because their hash
        #: home died: ``key -> home``. Failed back (and removed) once the
        #: home recovers. Placement-directory entries that predate the
        #: failure stay owned by the placement loop.
        self._failover_keys: Dict[int, int] = {}
        #: Join-time baselines for cold-cache warmup accounting.
        self._joined: Dict[int, float] = {}
        #: Keys whose update write may have lost every copy to a dead
        #: server (``key -> cache_key``): re-written from the
        #: authoritative graph by the next repair rounds.
        self._suspect_writes: Dict[int, int] = {}
        #: Demand-repair queue (cache keys, insertion-ordered): what live
        #: reads are blocked on *right now*, fed by the gather path via
        #: :attr:`StorageTier.on_read_failure`. Serviced ahead of the
        #: linear lost-key scan — at full scale a dead server holds far
        #: more records than one outage's repair bandwidth, and repairing
        #: them in index order would leave hot keys stalled for the whole
        #: outage.
        self._demand: Dict[int, bool] = {}
        self.demand_repairs = 0
        #: Lost-key scan state, kept across rounds (see :meth:`_lost_scan`).
        self._lost_alive: Optional[List[bool]] = None
        self._lost: List[int] = []
        self._lost_scanned = 0
        self._lost_cursor = 0
        self._lost_drops = 0
        self._repair_process = None
        #: The tier's directory: the one source of truth for "where does
        #: a key live right now", shared with dynamic placement.
        self.directory = self.tier.directory
        for processor in service.processors:
            self._arm_retries(processor)
        if self.config.failover:
            self.tier.on_read_failure = self._note_read_failure

    def _note_read_failure(self, cache_keys: List[int]) -> None:
        """A read wave is about to hit a dead server: queue its keys for
        priority repair (the reader meanwhile backs off and retries)."""
        demand = self._demand
        before = len(demand)
        for idx in cache_keys:
            demand[int(idx)] = True
        if len(demand) != before:
            self._ensure_repair()

    # -- retry arming ---------------------------------------------------------
    def _arm_retries(self, processor: QueryProcessor) -> None:
        """Apply the config's retry knobs (topology present = armed).

        Retries are orthogonal to ``failover``: the no-failover ablation
        still backs off and re-attempts — it just never gets a repaired
        replica to land on, so it stalls until the server itself returns
        (or exhausts ``retry_limit`` and surfaces the error).
        """
        cfg = self.config
        processor.storage_retry_limit = cfg.retry_limit
        processor.storage_retry_backoff_s = cfg.retry_backoff_s
        processor.storage_retry_backoff_cap_s = cfg.retry_backoff_cap_s

    # -- processing-tier membership ------------------------------------------
    def add_processor(self) -> int:
        """Join a cold-cache processor at the next dense id; returns the id.

        The joiner comes from :meth:`GraphService.build_processor`, the
        founders' factory. The routing strategy rebalances immediately —
        bounded movement, so only the joiner's share of keys moves — but
        the joiner earns traffic with an empty cache: the warmup cost is
        visible in :meth:`warmup_stats` and in the chaos benchmark's
        post-join window.
        """
        service = self.service
        router = service.router
        pid = router.num_processors
        processor = service.build_processor(pid)
        self._arm_retries(processor)
        service.processors.append(processor)
        router.add_processor(processor)
        moved = service.strategy.on_membership_change(
            router.num_processors, router.alive_mask()
        )
        self._joined[pid] = self.env.now
        self._record("add_processor", pid, moved)
        return pid

    def remove_processor(self, processor_id: int) -> int:
        """Leave/kill a processor; its backlog re-queues to the survivors.

        Returns how many queued queries moved to the shared pool (the
        router's count). Refuses to strand work: removing the last alive
        processor with a backlog raises (see
        :meth:`~repro.core.router.Router.remove_processor`).
        """
        service = self.service
        router = service.router
        requeued = router.remove_processor(processor_id)
        moved = service.strategy.on_membership_change(
            router.num_processors, router.alive_mask()
        )
        self._record("remove_processor", processor_id, moved, requeued=requeued)
        return requeued

    # -- storage-tier membership ----------------------------------------------
    def fail_server(self, server_id: int) -> None:
        """Kill a storage server; with failover on, start repairing."""
        server = self.tier.servers[server_id]
        if not server.alive:
            return
        server.fail()
        self._record("fail_server", server_id, 0)
        if self.config.failover:
            self._ensure_repair()

    def recover_server(self, server_id: int) -> None:
        """Revive a storage server; with failover on, fail back to it."""
        server = self.tier.servers[server_id]
        if server.alive:
            return
        server.recover()
        self._record("recover_server", server_id, 0)
        if self.config.failover:
            self._ensure_repair()

    # -- chaos schedules -------------------------------------------------------
    def schedule(self, events: Sequence[ChaosEvent]) -> None:
        """Run a deterministic fault/join schedule at absolute sim times.

        An **empty** schedule starts no process and leaves the simulation
        event stream untouched — the bit-identical baseline the parity
        tests pin. Events at equal instants apply in the given order.
        """
        pending = sorted(events, key=lambda event: event.at)
        if not pending:
            return
        self.env.process(self._run_schedule(pending))

    def _run_schedule(self, events: List[ChaosEvent]):
        for event in events:
            delay = event.at - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self.apply_event(event)

    def apply_event(self, event: ChaosEvent) -> None:
        """Apply one chaos event now (the schedule runner's dispatcher)."""
        if event.action == "add_processor":
            self.add_processor()
        elif event.action == "remove_processor":
            self.remove_processor(int(event.target))  # type: ignore[arg-type]
        elif event.action == "fail_server":
            self.fail_server(int(event.target))  # type: ignore[arg-type]
        else:  # recover_server (validated in ChaosEvent)
            self.recover_server(int(event.target))  # type: ignore[arg-type]

    # -- repair / re-replication ----------------------------------------------
    def _ensure_repair(self) -> None:
        if self._repair_process is None:
            self._repair_process = self.env.process(self._repair_loop())

    def _repair_loop(self):
        """Periodic repair rounds until a round finds nothing to do.

        New work only arises from fail/recover events, and those re-spawn
        the loop — so exiting on an idle round never strands work. A
        round with no live server to write to also ends the loop (the
        recover that revives one restarts it), so a cluster whose every
        server is dead runs dry and surfaces the readers' errors.
        """
        while True:
            yield self.env.timeout(self.config.repair_interval_s)
            self.repair_rounds += 1
            worked = yield from self._repair_round()
            if not worked:
                break
        self._repair_process = None

    def _repair_round(self):
        """One bounded round: prune dead replicas, plan what to re-write
        within the byte budget, run the moves through the tier's record
        mover. Returns whether any work was done or remains to do now.

        Five passes, in priority order: suspect update casualties,
        fail-backs, demand repairs, directory entries holding a dead
        replica, then records hash-homed on a dead server with no entry.
        A round visits only what can still need work, so its host cost
        follows what it admits rather than how much the outage has
        already repaired: fail-back candidates whose home is alive (or
        whose entry vanished), the directory entries listing a dead
        server (:meth:`PlacementDirectory.holding`, in directory order),
        and the lost-key scan resumed from the first index a previous
        round found uncovered (:meth:`_lost_scan`). Each skipped visit is
        one the full sweep made without effect, so the plans — which
        records, in which order, with which ``admit`` outcomes — are
        those of a full sweep.
        """
        tier = self.tier
        directory = self.directory
        alive = [server.alive for server in tier.servers]
        live_sids = [sid for sid, up in enumerate(alive) if up]
        if not live_sids:
            return False  # nowhere to write; recover_server restarts us
        dead_sids = [sid for sid, up in enumerate(alive) if not up]
        assets = self.service.assets
        sizes = assets.record_sizes
        node_ids = assets.node_ids
        owner_of = assets.owner_array(tier.num_servers)
        copies = min(self.config.replication, len(live_sids))
        budget = self.config.repair_byte_budget
        rewrites: List[Move] = []
        failbacks: List[Move] = []
        #: Re-replications in planning order (``_pick_targets`` rotates by
        #: position); kind "demand" ones ride the priority wave.
        plan: List[Move] = []

        def admit(cost: int) -> bool:
            """Charge ``cost`` bytes to the round if they fit. The first
            item of a round is always admitted (even over budget), so a
            budget below one record still makes progress."""
            nonlocal budget
            if budget < cost and (rewrites or failbacks or plan):
                return False
            budget -= cost
            return True

        # 0. Re-write suspect update casualties wherever they live now:
        # a tolerated write failure may have left a (now-recovered)
        # holder with pre-update bytes; the graph is authoritative.
        for key in sorted(self._suspect_writes):
            idx = self._suspect_writes[key]
            holders = tuple(
                sid for sid in tier.replica_sids(key) if alive[sid]
            )
            if not holders:
                continue  # still homeless; the lost-key pass covers it
            size = int(sizes[idx])
            if not admit(size * len(holders)):
                break
            rewrites.append(Move(
                "rewrite", key, idx, int(owner_of[idx]), size, holders,
                UNCHANGED,
            ))

        # 1. Fail back repair-placed keys whose hash home returned. An
        # entry's home is always its key's hash owner, which is the home
        # recorded here: a key whose home is down and whose entry stands
        # would be skipped below, so it is not visited.
        by_key = directory.by_key
        failover_keys = self._failover_keys
        candidates = sorted([
            key for key, home in failover_keys.items()
            if alive[home] or key not in by_key
        ])
        for key in candidates:
            entry = by_key.get(key)
            if entry is None:
                del failover_keys[key]  # released elsewhere meanwhile
                continue
            if not alive[entry.home]:
                continue
            size = int(sizes[entry.cache_key])
            if not admit(size):
                break
            failbacks.append(Move(
                "failback", key, entry.cache_key, entry.home, size,
                (entry.home,), HOME,
            ))

        # 2. Demand repairs: the cache keys live reads are blocked on
        # *right now* (fed by the gather path). Serviced before the
        # directory sweep and the linear scan — a dead server can hold
        # far more records than one outage's repair bandwidth, and
        # index-order repair would leave exactly the hot ones stalled.
        planned_keys = {move.key for move in failbacks}
        for idx in list(self._demand):
            if idx >= len(node_ids):
                del self._demand[idx]  # node vanished from the asset map
                continue
            key = int(node_ids[idx])
            entry = by_key.get(key)
            if entry is not None:
                if any(alive[sid] for sid in entry.replicas):
                    del self._demand[idx]  # a live replica surfaced
                    continue
                home = entry.home
            else:
                home = int(owner_of[idx])
                if alive[home]:
                    del self._demand[idx]  # its server recovered
                    continue
            if key in planned_keys:
                del self._demand[idx]
                continue
            size = int(sizes[idx])
            if not admit(size * copies):
                break  # key stays queued for the next round
            del self._demand[idx]
            targets = self._pick_targets(live_sids, copies, len(plan))
            plan.append(Move("demand", key, idx, home, size, targets, targets))
            planned_keys.add(key)
            self.demand_repairs += 1

        # 3. Directory entries holding a dead replica: prune the dead
        # replicas; fully-lost entries get fresh copies (placement-made
        # entries stay placement-owned afterwards — only their liveness
        # is restored here). An entry whose replicas all live needs
        # nothing, so only the entries listing a dead server are visited.
        for entry in directory.holding(dead_sids):
            if any(alive[sid] for sid in entry.replicas):
                for sid in entry.replicas:
                    if not alive[sid]:
                        directory.drop_replica(entry.key, sid)
                continue
            if entry.key in planned_keys:
                continue
            size = int(sizes[entry.cache_key])
            if not admit(size * copies):
                continue
            targets = self._pick_targets(live_sids, copies, len(plan))
            plan.append(Move(
                "repair", entry.key, entry.cache_key, entry.home, size,
                targets, targets,
            ))
            planned_keys.add(entry.key)

        # 4. Hash-homed records on dead servers with no directory entry:
        # every copy is lost; re-write onto substitutes. Ascending compact
        # index — deterministic, and the budget bounds each round.
        if dead_sids:
            lost, start = self._lost_scan(alive, owner_of)
            uncovered = len(lost)
            for pos in range(start, len(lost)):
                idx = lost[pos]
                key = int(node_ids[idx])
                if key in by_key:
                    continue
                if uncovered > pos:
                    uncovered = pos
                if key in planned_keys:
                    continue
                size = int(sizes[idx])
                if not admit(size * copies):
                    break
                targets = self._pick_targets(live_sids, copies, len(plan))
                plan.append(Move(
                    "repair", key, idx, int(owner_of[idx]), size,
                    targets, targets,
                ))
            self._lost_cursor = uncovered

        if not plan and not failbacks and not rewrites:
            return bool(self._suspect_writes)

        # Two waves through the mover (repair traffic contends with
        # queries on the shared write pipelines): demand-planned keys
        # first in their own (small) legs — readers are actively blocked
        # on them, and batching them into the round's bulk legs would
        # delay their flip by the whole leg's service time.
        network = self.service.config.costs.network
        priority = [move for move in plan if move.kind == "demand"]
        bulk = [move for move in plan if move.kind != "demand"]
        for wave in (priority, bulk + failbacks + rewrites):
            yield from tier.move_process(wave, network)
            for move in wave:
                if move.landed:  # else: died mid-round; next round retries
                    # Booked at the record's size as of landing: an update
                    # may have resized it in place since it was planned.
                    self._note_landed(move, int(sizes[move.cache_key]))
        return True

    def _lost_scan(
        self, alive: List[bool], owner_of: np.ndarray
    ) -> Tuple[List[int], int]:
        """The compact indices hash-homed on a dead server (ascending) and
        the position the lost-key pass resumes from.

        Every index before that position had a directory entry when the
        last round looked, and only a dropped entry uncovers one again,
        so those are skipped until the directory drops an entry or the
        alive set changes (both restart the scan from the first index).
        Nodes appended by live updates extend the list: their indices
        exceed every listed one.
        """
        if self._lost_alive != alive:
            self._lost_alive = alive
            self._lost = []
            self._lost_scanned = 0
            self._lost_cursor = 0
        drops = self.directory.drops
        if self._lost_drops != drops:
            self._lost_drops = drops
            self._lost_cursor = 0
        scanned = self._lost_scanned
        if owner_of.shape[0] > scanned:
            on_dead = ~np.asarray(alive, dtype=bool)[owner_of[scanned:]]
            self._lost.extend((np.flatnonzero(on_dead) + scanned).tolist())
            self._lost_scanned = owner_of.shape[0]
        return self._lost, self._lost_cursor

    def _note_landed(self, move: Move, size: int) -> None:
        """Book one repair move whose fresh bytes all landed."""
        self._suspect_writes.pop(move.key, None)
        self.repair_records += len(move.write_to)
        self.repair_bytes += size * len(move.write_to)
        if move.kind == "failback":
            self._failover_keys.pop(move.key, None)
            self.failbacks += 1
        elif move.kind != "rewrite" and move.replaced is None:
            # Repair made this exception (placement-made ones stay
            # placement-owned): fail it back once the home recovers.
            self._failover_keys[move.key] = move.home

    def _pick_targets(
        self, live_sids: List[int], copies: int, offset: int
    ) -> Tuple[int, ...]:
        """``copies`` live servers, rotated by plan position — spreads one
        round's repair writes across the survivors deterministically."""
        start = offset % len(live_sids)
        rotated = live_sids[start:] + live_sids[:start]
        return tuple(rotated[:copies])

    # -- write-failure accounting ----------------------------------------------
    def note_write_failure(
        self, dirty: Optional[Dict[int, int]] = None
    ) -> None:
        """Record a tolerated update-write failure: any topology-managed
        cluster absorbs the loss (a static cluster — ``topology=None`` —
        still raises). ``dirty`` maps the batch's storage keys to cache
        keys; all of them become *suspects* (some lost every copy — the
        error does not say which). Only ``failover`` *heals* them: the
        repair loop re-writes suspects from the authoritative graph;
        without it the recovered server serves stale bytes."""
        self.write_failures += 1
        if self.config.failover:
            if dirty:
                self._suspect_writes.update(dirty)
            self._ensure_repair()

    # -- observability ----------------------------------------------------------
    def _record(
        self, action: str, target: int, moved: int, **extra: object
    ) -> None:
        self.epoch += 1
        self.moved_entries += moved
        event: Dict[str, object] = {
            "at": self.env.now,
            "epoch": self.epoch,
            "action": action,
            "target": target,
            "moved_entries": moved,
        }
        event.update(extra)
        self.events.append(event)

    def warmup_stats(self) -> List[Dict[str, object]]:
        """Cold-cache warmup accounting per joined processor: how much
        traffic the joiner absorbed and how warm it got since joining."""
        processors = self.service.processors
        return [
            {
                "processor": pid,
                "joined_at": joined_at,
                "queries_executed": processors[pid].queries_executed,
                "cache_hit_rate": processors[pid].cache_hit_rate(),
                "busy_time": processors[pid].busy_time,
            }
            for pid, joined_at in sorted(self._joined.items())
        ]

    def snapshot(self) -> Dict[str, object]:
        """Topology state + counters for reports/artifacts."""
        router = self.service.router
        return {
            "epoch": self.epoch,
            "num_processors": router.num_processors,
            "alive_processors": sum(router.alive_mask()),
            "num_storage_servers": self.tier.num_servers,
            "alive_servers": sum(
                1 for server in self.tier.servers if server.alive
            ),
            "moved_entries": self.moved_entries,
            "repair_rounds": self.repair_rounds,
            "repair_records": self.repair_records,
            "repair_bytes": self.repair_bytes,
            "failbacks": self.failbacks,
            "demand_repairs": self.demand_repairs,
            "demand_pending": len(self._demand),
            "failover_keys": len(self._failover_keys),
            "suspect_writes": len(self._suspect_writes),
            "write_failures": self.write_failures,
            "storage_retries": sum(
                processor.storage_retries
                for processor in self.service.processors
            ),
            "events": list(self.events),
            "warmup": self.warmup_stats(),
        }
