"""Dynamic placement: periodic hot-record migration and replication.

The storage-side primitives (``repro.storage.placement``) track decayed
per-record heat and hold the exception-only directory; this module is the
control loop that *uses* them. A :class:`PlacementManager` runs as a
periodic simulation process inside a live :class:`~repro.core.service.GraphService`:

1. every ``interval_s`` simulated seconds it snapshots decayed heats and
   plans a bounded batch of moves — the top-k records above
   ``heat_threshold``, within ``round_byte_budget`` copied bytes:

   * records above ``replicate_threshold`` are **replicated** up to
     ``replicas`` copies (read-any then splits their fetch load across
     the least-loaded servers, and survives a replica's server failing);
   * merely-hot records on an overloaded server are **migrated** to the
     least-loaded server (hysteresis: only when the current holder's
     recent load exceeds the target's by ``migrate_margin``);
   * records whose heat decayed below ``release_fraction`` of the
     threshold are **released** — extra copies dropped, migrated records
     copied back home first — so the directory stays a small set of
     true exceptions;

2. the round's moves go to the tier's record mover
   (:meth:`~repro.storage.tier.StorageTier.move_process`): copies are
   written *in simulated time* through the same storage pipelines queries
   fetch from, so rebalancing traffic queues behind — and delays — live
   queries (the cost the fig_repartition ablation makes visible: an
   over-aggressive configuration churns records faster than the queries
   it helps), and the directory flips at the instant a move's copies
   have all landed.

Everything is deterministic: heat is a pure function of served traffic,
the load proxy is served-request deltas, ties break by server id, and the
plan iterates in heat order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..storage.placement import HeatTracker, heat_by_server
from ..storage.tier import HOME, Move

if TYPE_CHECKING:  # pragma: no cover
    from .service import GraphService


@dataclass(frozen=True)
class PlacementConfig:
    """Knobs of the dynamic-placement control loop.

    Defaults suit the benchmark graphs' simulated time scale (query
    response times of tens of microseconds to milliseconds); the
    repartition benchmark derives ``interval_s`` / ``half_life_s`` from
    calibrated capacity so the loop means the same thing at smoke scale
    and full scale.
    """

    #: Planning cadence in simulated seconds.
    interval_s: float = 0.005
    #: Heat decay half-life in simulated seconds.
    half_life_s: float = 0.02
    #: Decayed heat at which a record becomes a migration candidate.
    heat_threshold: float = 3.0
    #: Decayed heat at which a record is worth replicating.
    replicate_threshold: float = 9.0
    #: Target copy count for records above ``replicate_threshold``.
    replicas: int = 2
    #: Hottest records considered per round.
    top_k: int = 64
    #: Copied bytes allowed per round (migration + replication + restore).
    round_byte_budget: int = 256 << 10
    #: A migration needs the holder's recent load to exceed the target's
    #: by this fraction — hysteresis against ping-ponging records.
    migrate_margin: float = 0.25
    #: Placements are released once heat falls below
    #: ``heat_threshold * release_fraction`` (0 disables release).
    release_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")


class PlacementManager:
    """Periodic planner/executor of hot-record migrations & replications."""

    def __init__(self, service: "GraphService", config: PlacementConfig) -> None:
        self.service = service
        self.config = config
        self.env = service.env
        self.tier = service.tier
        self.heat = HeatTracker(
            half_life_s=config.half_life_s, size=service.assets.num_nodes
        )
        self.tier.heat = self.heat
        self.directory = self.tier.directory
        self._last_served = np.zeros(self.tier.num_servers, dtype=np.float64)
        self._process = None
        # Cumulative counters (itemized in WorkloadReport summaries).
        self.rounds = 0
        self.migrations = 0
        self.replications = 0
        self.releases = 0
        self.restores = 0
        self.failed_moves = 0
        self.migration_records = 0
        self.migration_bytes = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError("placement manager already started")
        self._process = self.env.process(self._run())

    def _run(self):
        while True:
            yield self.env.timeout(self.config.interval_s)
            moves = self.plan()
            if moves:
                yield from self._execute(moves)
            self.rounds += 1

    # -- planning -------------------------------------------------------------
    def _served_delta(self) -> np.ndarray:
        """Requests served per server since the previous round — the load
        proxy migrations balance (deterministic, unlike instantaneous
        queue depths sampled at one instant)."""
        served = np.array(
            [s.requests_served + s.writes_served for s in self.tier.servers],
            dtype=np.float64,
        )
        delta = served - self._last_served
        self._last_served = served
        return delta

    def plan(self) -> List[Move]:
        """One bounded round of moves, hottest records first.

        Plans against the *current* cluster epoch: departed (dead)
        servers are never chosen as replication/migration targets, and
        releases/restores whose hash home is down are deferred until it
        recovers — the replicas keep serving reads meanwhile. With every
        server alive the masking is a no-op and the plan is bit-identical
        to the static-topology one.
        """
        cfg = self.config
        now = self.env.now
        assets = self.service.assets
        owner_of = assets.owner_array(self.tier.num_servers)
        node_ids = assets.node_ids
        sizes = assets.record_sizes
        budget = cfg.round_byte_budget
        alive = [server.alive for server in self.tier.servers]
        load = self._served_delta()
        if not all(alive):
            # Dead servers are infinitely loaded: argmin/argsort below
            # never place a copy there, and a dead current holder always
            # clears the migrate hysteresis (move the record off it).
            load = np.where(np.asarray(alive), load, np.inf)
        moves: List[Move] = []

        hot_idx, heats = self.heat.top_k(cfg.top_k, now, cfg.heat_threshold)
        for idx, heat in zip(hot_idx.tolist(), heats.tolist(), strict=True):
            if idx >= node_ids.shape[0]:
                continue  # heat array can outgrow a mid-update snapshot
            key = int(node_ids[idx])
            home = int(owner_of[idx])
            size = int(sizes[idx])
            entry = self.directory.by_key.get(key)
            current = entry.replicas if entry is not None else (home,)
            if heat >= cfg.replicate_threshold and len(current) < cfg.replicas:
                want = min(cfg.replicas, self.tier.num_servers) - len(current)
                order = np.argsort(load, kind="stable")
                new = tuple(
                    int(sid) for sid in order
                    if int(sid) not in current and alive[int(sid)]
                )[:want]
                if new and budget >= size * len(new):
                    budget -= size * len(new)
                    share = heat / (len(current) + len(new))
                    for sid in new:
                        load[sid] += share
                    moves.append(Move(
                        "replicate", key, idx, home, size,
                        new, tuple(current) + new,
                    ))
            elif len(current) == 1:
                holder = current[0]
                best = int(np.argmin(load))
                if (
                    best != holder
                    and alive[best]
                    and budget >= size
                    and load[holder] > (1.0 + cfg.migrate_margin) * load[best]
                ):
                    budget -= size
                    load[best] += heat
                    load[holder] -= min(heat, load[holder])
                    moves.append(Move(
                        "migrate", key, idx, home, size, (best,), (best,),
                    ))

        if cfg.release_fraction > 0 and self.directory:
            floor = cfg.heat_threshold * cfg.release_fraction
            planned = {m.key for m in moves}
            for entry in self.directory.entries():
                if entry.key in planned:
                    continue
                if self.heat.heat_of(entry.cache_key, now) >= floor:
                    continue
                if not alive[entry.home]:
                    # The hash home is down: dropping the entry would
                    # point reads at a dead server. Defer until recovery.
                    continue
                size = int(sizes[entry.cache_key])
                if entry.home in entry.replicas:
                    # Extra copies only: dropping them costs no write.
                    moves.append(Move(
                        "release", entry.key, entry.cache_key, entry.home,
                        size, (), HOME,
                    ))
                elif budget >= size:
                    # Migrated away: copy back home, then drop the entry.
                    budget -= size
                    moves.append(Move(
                        "restore", entry.key, entry.cache_key, entry.home,
                        size, (entry.home,), HOME,
                    ))
        return moves

    # -- execution ------------------------------------------------------------
    def _execute(self, moves: List[Move]):
        """Run the moves through the tier's record mover, then count what
        landed (a move whose target died mid-copy is dropped; the next
        round re-plans it if the record is still hot)."""
        yield from self.tier.move_process(
            moves, self.service.config.costs.network
        )
        for move in moves:
            if not move.landed:
                self.failed_moves += 1
                continue
            self.migration_records += len(move.write_to)
            self.migration_bytes += move.size * len(move.write_to)
            if move.kind == "migrate":
                self.migrations += 1
            elif move.kind == "replicate":
                self.replications += 1
            elif move.kind == "restore":
                self.restores += 1
            else:
                self.releases += 1

    # -- observability ---------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Snapshot of the placement subsystem for reports/artifacts."""
        return {
            "rounds": self.rounds,
            "migrations": self.migrations,
            "replications": self.replications,
            "releases": self.releases,
            "restores": self.restores,
            "failed_moves": self.failed_moves,
            "migration_records": self.migration_records,
            "migration_bytes": self.migration_bytes,
            "active_placements": len(self.directory),
            "replicated_keys": self.directory.replicated_keys(),
            "migrated_keys": self.directory.migrated_keys(),
            "heat_touches": self.heat.touches,
        }

    def top_heat_by_server(self, k: int = 5) -> List[List[Tuple[int, float]]]:
        """Top-k hottest records per server (see
        :func:`repro.storage.placement.heat_by_server`)."""
        assets = self.service.assets
        return heat_by_server(
            self.heat,
            self.directory,
            assets.owner_array(self.tier.num_servers),
            assets.node_ids,
            self.tier.num_servers,
            self.env.now,
            k=k,
        )
