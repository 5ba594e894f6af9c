#!/usr/bin/env python
"""Quickstart: compare routing strategies, then keep a service warm.

Builds a web-graph analogue and runs the paper's hotspot workload cold
(:func:`run_workload`: 1 router + 7 query processors + 4 storage servers,
empty caches) under each routing scheme. A long-lived
:class:`GraphService` then shows what a cold run cannot: caches stay warm
across sessions, so steady-state traffic runs faster than the cold start.

Run:  python examples/quickstart.py
(REPRO_BENCH_SCALE scales the graph, e.g. 0.05 for a CI smoke run.)
"""

from repro import ClusterConfig, GraphService, run_workload
from repro.bench import bench_scale
from repro.core import GraphAssets
from repro.datasets import webgraph_like
from repro.workloads import hotspot_stream

SCHEMES = ("no_cache", "next_ready", "hash", "landmark", "embed", "adaptive")


def _config(scheme: str) -> ClusterConfig:
    return ClusterConfig(
        routing=scheme,
        num_processors=7,
        num_storage_servers=4,
        cache_capacity_bytes=8 << 20,
        embed_method="lmds",
    )


def main() -> None:
    print("Building the WebGraph analogue ...")
    graph = webgraph_like(scale=bench_scale(default=0.3), seed=1)
    assets = GraphAssets(graph)  # shared, reusable preprocessing
    print(f"  {graph.num_nodes:,} nodes, {graph.num_edges:,} edges")

    print("Generating the hotspot workload (40 hotspots x 10 queries) ...")
    queries = list(hotspot_stream(
        graph,
        num_hotspots=40,
        queries_per_hotspot=10,
        radius=2,
        hops=2,
        seed=7,
        csr=assets.csr_both,
    ))

    print(f"Serving {len(queries)} queries under each routing scheme:\n")
    header = (f"{'scheme':>12} | {'throughput':>12} | {'response':>10} | "
              f"{'hit rate':>8} | {'stolen':>6}")
    print(header)
    print("-" * len(header))
    for scheme in SCHEMES:
        report = run_workload(graph, queries, _config(scheme), assets=assets)
        print(
            f"{scheme:>12} | {report.throughput():>10.0f}/s | "
            f"{report.mean_response_time() * 1e6:>8.1f}us | "
            f"{report.cache_hit_rate():>8.3f} | "
            f"{report.stolen_count():>6}"
        )

    print(
        "\nSmart routing (landmark/embed) sends queries on nearby nodes to "
        "the same\nprocessor, so its cache already holds most of each "
        "neighbourhood — fewer\nstorage-tier round trips, lower response "
        "time, higher throughput."
    )

    # A service is long-lived: its second session reuses warm caches (and
    # the adaptive strategy's learned per-class commitments).
    with GraphService.open(graph, _config("adaptive"), assets=assets) as service:
        for _ in ("cold", "warm"):
            with service.session() as session:
                session.stream(queries)
                warm = session.report()
    print(
        f"\nWarm continuation (adaptive, second session on the same "
        f"service):\n  mean response {warm.mean_response_time() * 1e6:.1f}us, "
        f"hit rate {warm.cache_hit_rate():.3f} — "
        "no cold start, no re-audition."
    )


if __name__ == "__main__":
    main()
