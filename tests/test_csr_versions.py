"""Versioned CSR views under live updates: every version, current or
earlier, equals a from-scratch rebuild of the graph as of its own step."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import GraphUpdate
from repro.core import GraphAssets
from repro.graph import CSRGraph, Graph
from repro.graph.updates import apply_updates
from repro.storage import hash_node_id, record_for_node

DIRECTIONS = ("both", "out", "in")


def ring_graph(n):
    graph = Graph()
    for i in range(n):
        graph.add_edge(i, (i + 1) % n)
    return graph


def snapshot(csr):
    """Everything a reader can see of one version, as plain data. Row
    order is included: walks sample ``row[rng]``."""
    everyone = np.arange(csr.num_nodes)
    return (
        csr.node_ids.tolist(),
        [csr.neighbors_of(i).tolist() for i in range(csr.num_nodes)],
        csr.degrees().tolist(),
        csr.degrees_of(everyone[::2]).tolist(),
        csr.gather_neighbors(everyone).tolist(),
        csr.bfs_distances([0]).tolist(),
        csr.num_edges,
    )


def views(assets):
    return assets.csr_both, assets.csr_out, assets.csr_in


def update_for(graph, nodes, step, kind, a, b):
    if kind == "add_edge":
        return GraphUpdate.add_edge(nodes[a % len(nodes)], nodes[b % len(nodes)])
    if kind == "remove_edge":
        edges = list(graph.edges())
        if edges:
            return GraphUpdate.remove_edge(*edges[a % len(edges)])
        return GraphUpdate.add_node(nodes[0])  # nothing to remove: a no-op
    if b % 2:
        return GraphUpdate.add_node(1000 + step, label="fresh")
    return GraphUpdate.add_edge(1000 + step, nodes[a % len(nodes)], label="née")


steps = st.lists(
    st.tuples(
        st.sampled_from(["add_edge", "remove_edge", "add_node"]),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),  # read the views after this step, or let batches fold
    ),
    min_size=1,
    max_size=40,
)

# Adds and removes edge 0 -> 3 thirty times over: ~6 entries appended per
# step to views holding 6-14 live ones, so each view's pool fills and is
# laid out afresh (grown, its dead rows dropped) every few steps.
FLAPPING = [("add_edge", 0, 3, True), ("remove_edge", 1, 0, True)] * 30


class TestVersionedViews:
    @settings(max_examples=60, deadline=None)
    @given(program=steps, lazy=st.booleans())
    @example(program=FLAPPING, lazy=False)
    def test_every_version_equals_the_rebuild_of_its_step(self, program, lazy):
        # ``lazy``: csr_out / csr_in are first built at the first read,
        # after updates, instead of before them. A step that reads no view
        # leaves its batch pending, so runs of batches fold into one
        # version at the next read.
        graph = ring_graph(6)
        assets = GraphAssets(graph)
        _ = assets.record_sizes, assets.owner_array(3)  # materialise both
        read = (lambda: (assets.csr_both,)) if lazy else (lambda: views(assets))
        history = [(read(), [snapshot(view) for view in read()])]
        for step, (kind, a, b, reads) in enumerate(program):
            update = update_for(graph, assets.node_ids.tolist(), step, kind, a, b)
            dirty, new = apply_updates(graph, [update])
            assets.apply_graph_updates(dirty, new)

            node_ids = assets.node_ids.tolist()
            assert sorted(node_ids) == sorted(graph.nodes())
            assert [assets.compact[n] for n in node_ids] == list(range(len(node_ids)))
            assert assets.num_nodes == len(node_ids)
            assert assets.record_sizes.tolist() == [
                len(record_for_node(graph, n).encode()) for n in node_ids
            ]
            assert assets.owner_array(3).tolist() == [
                hash_node_id(n) % 3 for n in node_ids
            ]
            if not reads:
                continue
            rebuilt = [
                snapshot(CSRGraph.from_graph(graph, d, node_ids=assets.node_ids))
                for d in DIRECTIONS
            ]
            history.append((views(assets), rebuilt))
            # Snapshot isolation: the versions handed out at every earlier
            # read still read as the graph did then.
            for versions, expected in history:
                assert [snapshot(v) for v in versions] == expected[:len(versions)]


class TestDerivedOnRead:
    def test_batches_fold_into_one_derivation_per_read_view(self, monkeypatch):
        # White box: k batches without a read cost nothing per view; the
        # next read of a materialised view derives once, from the union of
        # the dirty rows, and a view never built is built, not derived.
        calls = []
        derive = CSRGraph.with_updated_rows

        def counting(csr, rows, node_ids=None):
            calls.append(sorted(rows))
            return derive(csr, rows, node_ids=node_ids)

        monkeypatch.setattr(CSRGraph, "with_updated_rows", counting)
        graph = ring_graph(8)
        assets = GraphAssets(graph)
        out_before = assets.csr_out
        batches = [
            [GraphUpdate.add_edge(0, 4)],
            [GraphUpdate.add_edge(100, 2)],
            [GraphUpdate.remove_edge(0, 4), GraphUpdate.add_edge(5, 1)],
        ]
        dirty_rows = set()
        for batch in batches:
            dirty, new = apply_updates(graph, batch)
            dirty_rows.update(assets.apply_graph_updates(dirty, new).tolist())
        assert calls == []
        both, out = assets.csr_both, assets.csr_out
        assert calls == [sorted(dirty_rows)] * 2
        assert (assets.csr_both, assets.csr_out) == (both, out)  # nothing pending
        into = assets.csr_in
        assert len(calls) == 2
        for direction, view in zip(DIRECTIONS, (both, out, into), strict=True):
            rebuilt = CSRGraph.from_graph(graph, direction, node_ids=assets.node_ids)
            assert snapshot(view) == snapshot(rebuilt)
        assert out_before.num_nodes == 8 and out.num_nodes == 9
