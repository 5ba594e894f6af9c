"""Coupled (non-decoupled) distributed graph systems for Figure 7.

Both comparison systems colocate query processing with graph storage
(Figure 1 of the paper): each server owns one partition and a fixed routing
table maps a query to the server owning its query node. Queries execute as
cluster-wide jobs, one at a time — the execution model of Giraph-style BSP
and PowerGraph-style GAS engines, and the reason their online-query
throughput is low despite sophisticated partitioning.

* :class:`SedgeSystem` — SEDGE/Giraph: vertex-centric bulk-synchronous
  supersteps (one per hop) with a global barrier each, cross-partition
  messages along cut edges, METIS-style partitioning (+ optional
  workload-driven re-partitioning).
* :class:`PowerGraphSystem` — PowerGraph: asynchronous gather-apply-scatter
  over a greedy vertex cut; communication follows the replication factor,
  no global barrier.

Execution produces the same :class:`~repro.core.metrics.WorkloadReport` as
:func:`~repro.core.service.run_workload`, so benchmark tables treat all
systems uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.assets import GraphAssets
from ..core.metrics import QueryRecord, QueryStats, WorkloadReport
from ..core.queries import (
    NeighborAggregationQuery,
    Query,
    RandomWalkQuery,
    ReachabilityQuery,
    query_class,
)
from ..costs import ETHERNET, NetworkModel
from .metis_like import multilevel_partition
from .vertex_cut import VertexCut, greedy_vertex_cut


@dataclass(frozen=True)
class CoupledCosts:
    """Timing knobs for the coupled systems (same time unit: seconds).

    Calibrated so per-query times sit a small factor above gRouting's —
    the paper's throughput gap (5-10x over Ethernet) comes mostly from the
    coupled systems executing queries as serialized cluster-wide jobs.
    """

    per_node_compute: float = 0.5e-6  # same CPU model as the query processors
    message_bytes: int = 64  # per cross-partition edge message
    job_setup: float = 30.0e-6  # job injection + scheduling
    barrier_base: float = 30.0e-6  # BSP: global superstep barrier
    barrier_per_server: float = 2.0e-6  # BSP: barrier grows with cluster
    gas_hop_overhead: float = 12.0e-6  # GAS: async coordination per hop
    replica_sync_bytes: int = 32  # GAS: per extra replica per touched node
    network: NetworkModel = ETHERNET


class _CoupledBase:
    """Shared machinery: fixed owner routing + per-hop frontier walk."""

    name = "coupled"

    def __init__(self, assets: GraphAssets, num_servers: int,
                 costs: Optional[CoupledCosts] = None) -> None:
        if num_servers < 1:
            raise ValueError("need at least one server")
        self.assets = assets
        self.num_servers = num_servers
        self.costs = costs or CoupledCosts()

    # -- subclass hooks ----------------------------------------------------
    def _hop_cost(self, frontier: np.ndarray, neighbors: np.ndarray,
                  neighbor_sources: np.ndarray) -> float:
        raise NotImplementedError

    def _setup_cost(self) -> float:
        return self.costs.job_setup

    # -- query execution ------------------------------------------------------
    def _frontier_walk(self, source: int, hops: int, csr) -> tuple[float, int]:
        """Time and nodes for an h-hop frontier expansion from ``source``."""
        elapsed = self._setup_cost()
        visited = np.zeros(csr.num_nodes, dtype=bool)
        visited[source] = True
        frontier = np.array([source], dtype=np.int64)
        total = 0
        for _hop in range(hops):
            if frontier.size == 0:
                break
            counts = csr.degrees_of(frontier)
            neighbors = csr.gather_neighbors(frontier)
            neighbor_sources = np.repeat(frontier, counts)
            elapsed += self._hop_cost(frontier, neighbors, neighbor_sources)
            if neighbors.size == 0:
                break
            fresh = np.unique(neighbors[~visited[neighbors]])
            visited[fresh] = True
            total += int(fresh.size)
            elapsed += self.costs.per_node_compute * fresh.size
            frontier = fresh
        return elapsed, total

    def _execute(self, query: Query) -> tuple[float, QueryStats]:
        assets = self.assets
        stats = QueryStats()
        source = assets.compact.get(query.node)
        if source is None:
            return self._setup_cost(), stats
        if isinstance(query, NeighborAggregationQuery):
            elapsed, total = self._frontier_walk(source, query.hops,
                                                 assets.csr_both)
            stats.nodes_touched = total
            stats.result = total
        elif isinstance(query, RandomWalkQuery):
            # Vertex-centric engines pay a full coordination round per step.
            rng = np.random.default_rng((query.seed, query.node))
            csr = assets.csr_both
            elapsed = self._setup_cost()
            current = source
            for _step in range(query.steps):
                row = csr.neighbors_of(current)
                one = np.array([current], dtype=np.int64)
                elapsed += self._hop_cost(one, row, np.repeat(one, row.size))
                elapsed += self.costs.per_node_compute
                if row.size == 0 or rng.random() < query.restart_prob:
                    current = source
                else:
                    current = int(row[rng.integers(0, row.size)])
                stats.nodes_touched += 1
            stats.result = query.steps
        elif isinstance(query, ReachabilityQuery):
            # Forward-only BFS: vertex-centric traversal activates out-
            # neighbors until the target is seen or the budget runs out.
            target = assets.compact.get(query.target)
            csr = assets.csr_out
            elapsed = self._setup_cost()
            found = target == source
            if target is not None and not found:
                visited = np.zeros(csr.num_nodes, dtype=bool)
                visited[source] = True
                frontier = np.array([source], dtype=np.int64)
                for _hop in range(query.hops):
                    if frontier.size == 0 or found:
                        break
                    counts = csr.degrees_of(frontier)
                    neighbors = csr.gather_neighbors(frontier)
                    sources = np.repeat(frontier, counts)
                    elapsed += self._hop_cost(frontier, neighbors, sources)
                    if neighbors.size == 0:
                        break
                    fresh = np.unique(neighbors[~visited[neighbors]])
                    visited[fresh] = True
                    stats.nodes_touched += int(fresh.size)
                    elapsed += self.costs.per_node_compute * fresh.size
                    if fresh.size and visited[target]:
                        found = True
                    frontier = fresh
            stats.result = bool(found)
        else:
            raise TypeError(f"unsupported query type: {type(query).__name__}")
        return elapsed, stats

    def run(self, queries: Sequence[Query]) -> WorkloadReport:
        """Execute ``queries`` as serialized cluster-wide jobs."""
        records: List[QueryRecord] = []
        now = 0.0
        for query in queries:
            elapsed, stats = self._execute(query)
            records.append(
                QueryRecord(
                    query_id=query.query_id,
                    kind=type(query).__name__,
                    node=query.node,
                    intended_processor=self._owner(query.node),
                    processor=self._owner(query.node),
                    stolen=False,
                    decision_time=0.0,
                    enqueued_at=0.0,
                    started_at=now,
                    finished_at=now + elapsed,
                    stats=stats,
                    routed_via=self.name,
                    query_class=query_class(query),
                )
            )
            now += elapsed
        return WorkloadReport(
            records=records,
            makespan=now,
            num_processors=self.num_servers,
            num_storage_servers=self.num_servers,
            routing=self.name,
        )

    def _owner(self, node: int) -> int:
        raise NotImplementedError


class SedgeSystem(_CoupledBase):
    """SEDGE/Giraph-like BSP system over a METIS-style partitioning."""

    name = "sedge"

    def __init__(
        self,
        assets: GraphAssets,
        num_servers: int = 12,
        costs: Optional[CoupledCosts] = None,
        partition_labels: Optional[np.ndarray] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(assets, num_servers, costs)
        if partition_labels is None:
            partition_labels = multilevel_partition(
                assets.graph, num_servers, seed=seed, csr=assets.csr_both
            )
        self.labels = partition_labels

    def _owner(self, node: int) -> int:
        idx = self.assets.compact.get(node)
        if idx is None:
            return node % self.num_servers
        return int(self.labels[idx])

    def _hop_cost(self, _frontier: np.ndarray, neighbors: np.ndarray,
                  neighbor_sources: np.ndarray) -> float:
        costs = self.costs
        barrier = costs.barrier_base + costs.barrier_per_server * self.num_servers
        if neighbors.size == 0:
            return barrier
        crossing = int(
            (self.labels[neighbor_sources] != self.labels[neighbors]).sum()
        )
        message_time = costs.network.transfer_time(
            crossing * costs.message_bytes
        ) if crossing else 0.0
        return barrier + message_time


class PowerGraphSystem(_CoupledBase):
    """PowerGraph-like asynchronous GAS system over a greedy vertex cut."""

    name = "powergraph"

    def __init__(
        self,
        assets: GraphAssets,
        num_servers: int = 12,
        costs: Optional[CoupledCosts] = None,
        cut: Optional[VertexCut] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(assets, num_servers, costs)
        if cut is None:
            cut = greedy_vertex_cut(assets.graph, num_servers, seed=seed)
        self.cut = cut
        # Per-compact-node replica counts drive sync volume.
        self.replica_counts = np.array(
            [
                len(cut.replicas.get(int(nid), (0,)))
                for nid in assets.node_ids
            ],
            dtype=np.int64,
        )

    def _owner(self, node: int) -> int:
        return self.cut.master_of(node) % self.num_servers

    def _hop_cost(self, frontier: np.ndarray, _neighbors: np.ndarray,
                  _neighbor_sources: np.ndarray) -> float:
        costs = self.costs
        extra_replicas = int(
            np.maximum(self.replica_counts[frontier] - 1, 0).sum()
        )
        sync_time = costs.network.transfer_time(
            extra_replicas * costs.replica_sync_bytes
        ) if extra_replicas else 0.0
        return costs.gas_hop_overhead + sync_time
