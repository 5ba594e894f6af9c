#!/usr/bin/env python
"""Label-constrained exploration of a knowledge graph + fault tolerance.

Two parts:

1. A miniature Freebase-style labeled knowledge graph as key-value
   records (one adjacency record per node, labels included, with the
   encoded sizes the storage tier charges for), demonstrating the paper's
   Figure 3 data model and the h-hop reachability query.
2. A processor-failure drill on the decoupled cluster: one query processor
   is removed mid-workload and the router redistributes its queued work —
   no routing table to rebuild, no partition to migrate (§2.3).

Run:  python examples/knowledge_graph_reachability.py
"""


from repro import ClusterConfig, GraphAssets, GraphService
from repro.datasets import freebase_like
from repro.graph import Graph, bidirectional_reachability
from repro.storage import record_for_node
from repro.workloads import hotspot_stream


def figure3_graph() -> Graph:
    """The paper's Figure 3 example: Jerry Yang / Yahoo! / Stanford."""
    g = Graph()
    names = {0: "Jerry Yang", 1: "Yahoo!", 2: "Stanford", 3: "Sunnyvale",
             4: "California"}
    for node, name in names.items():
        g.add_node(node, label=name)
    g.add_edge(0, 1, label="founded")
    g.add_edge(0, 2, label="education")
    g.add_edge(0, 3, label="places lived")
    g.add_edge(1, 3, label="headquarters in")
    g.add_edge(3, 4, label="part of")
    return g


def demo_storage_records() -> None:
    print("Part 1: key-value storage of a labeled knowledge graph")
    graph = figure3_graph()
    for node in graph.nodes():
        record = record_for_node(graph, node)
        print(f"  record[{record.node_label}] ({len(record.encode())} B): "
              f"out={[(v, l) for v, l in record.out_edges]} "
              f"in={[(v, l) for v, l in record.in_edges]}")
    print("  (reverse edges are stored too, per Figure 3)")
    # Reachability uses both directions: California from Jerry Yang.
    print(f"  'Jerry Yang' -> 'California' within 2 hops: "
          f"{bidirectional_reachability(graph, 0, 4, 2)}")
    print(f"  'Jerry Yang' -> 'California' within 3 hops: "
          f"{bidirectional_reachability(graph, 0, 4, 3)}\n")


def demo_fault_tolerance() -> None:
    print("Part 2: processor failure during a reachability workload")
    graph = freebase_like(scale=0.5, seed=4)
    assets = GraphAssets(graph)
    print(f"  knowledge graph: {graph.num_nodes:,} entities, "
          f"{graph.num_edges:,} relations")
    queries = list(hotspot_stream(
        graph, num_hotspots=30, queries_per_hotspot=10, radius=2, hops=3,
        mix=("reachability",), seed=9, csr=assets.csr_both,
    ))
    config = ClusterConfig(
        routing="landmark", num_processors=4, num_storage_servers=2,
        cache_capacity_bytes=4 << 20, num_landmarks=32, min_separation=2,
    )
    service = GraphService.open(graph, config, assets=assets)
    session = service.session()
    session.submit_many(queries)

    # Let a third of the workload finish, then lose processor 0.
    target = len(queries) // 3
    router = service.router

    def failure_injector():
        while session.completed < target:
            yield service.env.timeout(1e-4)
        moved = router.remove_processor(0)
        print(f"  processor 0 removed after {session.completed} queries; "
              f"{moved} queued queries redistributed")

    service.env.process(failure_injector())
    session.drain()
    report = session.report()
    service.close()

    done_by = {p: 0 for p in range(4)}
    for record in report.records:
        done_by[record.processor] += 1
    reachable = sum(1 for r in report.records if r.stats.result)
    print(f"  all {len(report.records)} queries completed; "
          f"{reachable} targets reachable")
    print(f"  queries per processor after failure: {done_by}")
    print(
        "  Decoupling at work: survivors served every remaining query "
        "without\n  any repartitioning, because no processor owns any part "
        "of the graph."
    )


def main() -> None:
    demo_storage_records()
    demo_fault_tolerance()


if __name__ == "__main__":
    main()
