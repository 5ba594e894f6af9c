#!/usr/bin/env python
"""Dynamic placement end-to-end: heat -> replicate -> route-to-replica.

The storage tier normally places every record with a murmur hash,
forever. The dynamic placement subsystem overlays that with a small
directory of *exceptions*: records hot enough to earn extra copies (or a
better home), found by decayed heat counters and moved through the same
storage write pipelines live queries fetch from.

This example walks the full lifecycle twice:

1. **Serving path** — a skewed, phase-shifting workload drives heat
   through the gather path; the periodic planner replicates the hot
   head; reads fan out to the least-loaded replica (read-any); the
   report itemizes every byte the subsystem copied.
2. **Manual path** — a tiny ring service where we stuff heat and skew
   the load proxy by hand, so one `plan()` round visibly *migrates* a
   record off an overloaded server, and a later round — after the heat
   has decayed — *releases* it back to its hash home.

Run:  python examples/hot_replication.py
(REPRO_BENCH_SCALE scales the graph, e.g. 0.05 for a CI smoke run.)
"""

import numpy as np

from repro import ClusterConfig, GraphService
from repro.bench import bench_scale
from repro.core import PlacementConfig
from repro.datasets import webgraph_like
from repro.graph import Graph
from repro.workloads import shifting_hotspot_stream


def serving_lifecycle() -> None:
    """Heat tracked from live queries; the loop replicates; reads follow."""
    graph = webgraph_like(scale=bench_scale(default=0.2), seed=1)
    print(f"Graph: {graph.num_nodes:,} nodes, {graph.num_edges:,} edges")

    # A hair-trigger loop so the lifecycle is visible in a short run;
    # fig_repartition tunes these against calibrated capacity instead.
    placement = PlacementConfig(
        interval_s=2e-4,
        half_life_s=2e-3,
        heat_threshold=3.0,
        replicate_threshold=3.0,
        replicas=2,
        top_k=16,
        round_byte_budget=64 << 10,
        release_fraction=0.05,
    )
    config = ClusterConfig(
        routing="hash", num_processors=4, num_storage_servers=4,
        cache_capacity_bytes=4 << 10,  # starved: storage sees the skew
        embed_method="lmds", placement=placement,
    )

    workload = list(shifting_hotspot_stream(
        graph, num_phases=3, queries_per_phase=200, radius=2, hops=2,
        hot_fraction=0.9, skew=1.2, seed=7,
    ))

    with GraphService.open(graph, config) as service:
        with service.session() as session:
            for query in workload:
                session.submit(query)
            session.drain()
            report = session.report()
        manager = service.placement
        replicated = [
            entry for entry in manager.directory.entries()
            if len(entry.replicas) > 1
        ]

    stats = report.placement
    print("\nPlacement loop after serving a shifting hotspot:")
    print(f"  planning rounds:    {stats['rounds']}")
    print(f"  heat touches:       {stats['heat_touches']:,}")
    print(f"  replications:       {stats['replications']}")
    print(f"  releases:           {stats['releases']}")
    print(f"  copied bytes:       {report.migration_bytes():,}")
    print(f"  active exceptions:  {stats['active_placements']}")

    print("\nPer-server write/read counters (copies are accounted, not free):")
    for row in report.per_server_stats():
        top = ", ".join(f"{key}:{heat:.1f}" for key, heat in row["top_heat"])
        print(f"  server {row['server']}: {row['requests_served']:>5} reads, "
              f"{row['bytes_written']:>8,} bytes written   hot: [{top}]")

    assert stats["replications"] > 0, "hot head must earn extra copies"
    assert report.migration_bytes() > 0
    assert replicated, "directory must hold replicated entries"
    sample = replicated[0]
    print(f"\nRead-any: record {sample.key} now lives on servers "
          f"{list(sample.replicas)} (home {sample.home}); gathers pick the "
          "least-loaded live copy per request.")


def manual_lifecycle() -> None:
    """One record migrated off an overloaded server, then released."""
    graph = Graph()
    for i in range(16):
        graph.add_edge(i, (i + 1) % 16)

    placement = PlacementConfig(
        interval_s=1e9,  # the loop stays quiet; we drive plan() by hand
        half_life_s=5.0, heat_threshold=2.0, replicate_threshold=1e9,
        migrate_margin=0.25, release_fraction=0.5,
    )
    config = ClusterConfig(
        routing="hash", num_processors=2, num_storage_servers=2,
        cache_capacity_bytes=1 << 20, num_landmarks=6, min_separation=1,
        dim=3, embed_method="lmds", placement=placement,
    )
    with GraphService.open(graph, config) as service:
        manager = service.placement
        tier = service.tier
        node = 0
        home = tier.home(node)
        print(f"\nManual lifecycle: record {node} hash-homes on server {home}")

        # Make the record hot and its holder look overloaded.
        manager.heat.touch(
            np.array([service.assets.compact[node]]), service.env.now,
            weight=5.0,
        )
        tier.servers[home].requests_served += 100
        moves = manager.plan()
        assert [m.kind for m in moves] == ["migrate"]
        proc = service.env.process(manager._execute(moves))
        service.env.run(until=proc)
        target = manager.directory.get(node).replicas[0]
        print(f"  migrated -> server {target} at t={service.env.now:.6f}s "
              "(copied through the storage write pipeline)")
        assert tier.locate(node) is tier.servers[target]
        assert tier.replica_sids(node) == (target,)
        assert manager.directory.migrated_keys() == 1

        # Long idle: heat decays below the release floor, the planner
        # copies the record back home and drops the directory entry.
        idle = service.env.timeout(100.0)
        service.env.run(until=idle)
        moves = manager.plan()
        assert [m.kind for m in moves] == ["restore"]
        proc = service.env.process(manager._execute(moves))
        service.env.run(until=proc)
        assert manager.directory.get(node) is None
        assert tier.replica_sids(node) == (home,)
        assert tier.locate(node) is tier.servers[home]
        print(f"  cooled -> restored to server {home}; directory empty again "
              f"({manager.restores} restore, {manager.migrations} migration)")


def main() -> None:
    serving_lifecycle()
    manual_lifecycle()
    print("\nOK: heat -> replicate/migrate -> route-to-replica -> release, "
          "end-to-end.")


if __name__ == "__main__":
    main()
