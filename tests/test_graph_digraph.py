"""Unit tests for the labeled directed graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import webgraph_like
from repro.graph import Graph, GraphError


@pytest.fixture
def triangle():
    g = Graph()
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    return g


class TestNodes:
    def test_add_node(self):
        g = Graph()
        g.add_node(5)
        assert g.has_node(5)
        assert 5 in g
        assert g.num_nodes == 1

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node(1)
        g.add_node(1)
        assert g.num_nodes == 1

    def test_node_label(self):
        g = Graph()
        g.add_node(1, label="person")
        assert g.node_label(1) == "person"

    def test_node_label_default_none(self):
        g = Graph()
        g.add_node(1)
        assert g.node_label(1) is None

    def test_set_node_label(self):
        g = Graph()
        g.add_node(1)
        g.set_node_label(1, "company")
        assert g.node_label(1) == "company"

    def test_relabel_via_add(self):
        g = Graph()
        g.add_node(1, label="a")
        g.add_node(1, label="b")
        assert g.node_label(1) == "b"

    def test_missing_node_raises(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.node_label(99)

    def test_remove_node_drops_incident_edges(self, triangle):
        triangle.remove_node(1)
        assert not triangle.has_node(1)
        assert triangle.num_edges == 1  # only 2 -> 0 remains
        assert triangle.has_edge(2, 0)

    def test_remove_missing_node_raises(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.remove_node(3)


class TestEdges:
    def test_add_edge_creates_endpoints(self):
        g = Graph()
        assert g.add_edge(1, 2) is True
        assert g.has_node(1) and g.has_node(2)
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)

    def test_duplicate_edge_not_counted(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.add_edge(1, 2) is False
        assert g.num_edges == 1

    def test_edge_label(self):
        g = Graph()
        g.add_edge(1, 2, label="founded")
        assert g.edge_label(1, 2) == "founded"

    def test_duplicate_edge_updates_label(self):
        g = Graph()
        g.add_edge(1, 2, label="old")
        g.add_edge(1, 2, label="new")
        assert g.edge_label(1, 2) == "new"

    def test_edge_label_missing_edge_raises(self):
        g = Graph()
        g.add_node(1)
        g.add_node(2)
        with pytest.raises(GraphError):
            g.edge_label(1, 2)

    def test_remove_edge(self, triangle):
        triangle.remove_edge(0, 1)
        assert not triangle.has_edge(0, 1)
        assert triangle.num_edges == 2

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.remove_edge(0, 2)

    def test_edges_iterates_all(self, triangle):
        assert sorted(triangle.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_self_loop_allowed(self):
        g = Graph()
        g.add_edge(1, 1)
        assert g.has_edge(1, 1)
        assert g.degree(1) == 2  # counted once in, once out


class TestAdjacency:
    def test_out_and_in_neighbors(self, triangle):
        assert list(triangle.out_neighbors(0)) == [1]
        assert list(triangle.in_neighbors(0)) == [2]

    def test_bidirected_neighbors_deduplicated(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert sorted(g.neighbors(1)) == [2]

    def test_bidirected_neighbors_union(self, triangle):
        assert sorted(triangle.neighbors(0)) == [1, 2]

    def test_degrees(self, triangle):
        assert triangle.out_degree(0) == 1
        assert triangle.in_degree(0) == 1
        assert triangle.degree(0) == 2

    def test_adjacency_rows_follow_the_neighbor_orders(self):
        g = Graph()
        g.add_edge(1, 0)
        g.add_edge(0, 2, label="x")
        g.add_edge(2, 0)
        for direction, walk in (("out", g.out_neighbors), ("in", g.in_neighbors),
                                ("both", g.neighbors)):
            rows = g.adjacency_rows([0, 2, 1], direction)
            assert [list(row) for row in rows] == [list(walk(n)) for n in (0, 2, 1)]
        with pytest.raises(GraphError, match="no such node: 9"):
            g.adjacency_rows([0, 9], "out")
        with pytest.raises(ValueError, match="bad direction"):
            g.adjacency_rows([0], "up")

    def test_degree_of_missing_node_raises(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.degree(7)


class TestWholeGraph:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.add_edge(0, 2)
        assert not triangle.has_edge(0, 2)
        assert clone.num_edges == triangle.num_edges + 1

    def test_copy_preserves_labels(self):
        g = Graph()
        g.add_node(1, label="x")
        g.add_edge(1, 2, label="rel")
        clone = g.copy()
        assert clone.node_label(1) == "x"
        assert clone.edge_label(1, 2) == "rel"

    def test_subgraph_induced(self, triangle):
        sub = triangle.subgraph([0, 1])
        assert sub.num_nodes == 2
        assert sub.has_edge(0, 1)
        assert not sub.has_edge(1, 2)

    def test_subgraph_ignores_missing_nodes(self, triangle):
        sub = triangle.subgraph([0, 999])
        assert sub.num_nodes == 1

    def test_counts(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3


def replay_copy(graph):
    """The edge-replay copy (node by node, then every out-edge through
    ``add_edge``): the reference :meth:`Graph.copy` must reproduce."""
    clone = Graph()
    for node in graph.nodes():
        clone.add_node(node, graph.node_label(node))
    for u, v in graph.edges():
        clone.add_edge(u, v, graph.edge_label(u, v))
    return clone


def layout(graph):
    """Everything order-sensitive a reader can see of a graph."""
    return [
        (node, graph.node_label(node),
         list(graph.out_neighbors(node)), list(graph.out_labels(node)),
         list(graph.in_neighbors(node)), list(graph.in_labels(node)),
         list(graph.neighbors(node)))
        for node in graph.nodes()
    ] + [graph.num_nodes, graph.num_edges]


class TestCopyLayout:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["add", "remove", "label"]),
        st.integers(min_value=-5, max_value=12),
        st.integers(min_value=-5, max_value=12),
        st.sampled_from([None, "x", 2]),
    ), max_size=60))
    def test_equals_the_edge_replay(self, ops):
        g = Graph()
        for op, u, v, label in ops:
            if op == "add":
                g.add_edge(u, v, label)
            elif op == "remove" and g.has_edge(u, v):
                g.remove_edge(u, v)
            elif op == "label" and g.has_node(u):
                g.set_node_label(u, label)
        clone = g.copy()
        assert layout(clone) == layout(replay_copy(g))
        clone.add_edge(99, -5)
        assert not g.has_node(99)

    def test_in_order_follows_out_order_not_arrival(self):
        # The quirk the simulations depend on: 1's predecessors arrived
        # as 2 then 0, but the copy lists them in node order.
        g = Graph()
        for node in (0, 1, 2):
            g.add_node(node)
        g.add_edge(2, 1)
        g.add_edge(0, 1)
        clone = g.copy()
        assert list(g.in_neighbors(1)) == [2, 0]
        assert list(clone.in_neighbors(1)) == [0, 2]
        assert list(clone.neighbors(1)) == [0, 2]

    def test_webgraph_copy_equals_the_edge_replay(self):
        g = webgraph_like(scale=0.05, seed=1)
        clone = g.copy()
        assert layout(clone) == layout(replay_copy(g))
        moved = sum(
            list(g.in_neighbors(n)) != list(clone.in_neighbors(n))
            for n in g.nodes()
        )
        assert moved > 0  # the quirk shows on the benchmark graph family


node_ids = st.integers(min_value=-6, max_value=12) | st.sampled_from([10**6, -(10**9)])


class TestAddEdges:
    @settings(max_examples=150, deadline=None)
    @given(
        prior_nodes=st.lists(
            st.tuples(node_ids, st.sampled_from([None, "n"])), max_size=6),
        prior_edges=st.lists(
            st.tuples(node_ids, node_ids, st.sampled_from([None, "x"])),
            max_size=12),
        edges=st.lists(st.tuples(node_ids, node_ids), max_size=40),
    )
    def test_equals_the_add_edge_replay(self, prior_nodes, prior_edges, edges):
        built, replayed = Graph(), Graph()
        for g in (built, replayed):
            for node, label in prior_nodes:
                g.add_node(node, label)
            for u, v, label in prior_edges:
                g.add_edge(u, v, label)
        added = built.add_edges([u for u, _ in edges], [v for _, v in edges])
        assert added == sum(replayed.add_edge(u, v) for u, v in edges)
        assert layout(built) == layout(replayed)

    def test_lengths_must_match(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edges([0, 1], [1])
        assert g.num_nodes == 0
