"""Adjacency-record codec tests."""

import pytest

from repro.graph import Graph
from repro.storage import AdjacencyRecord, record_for_node


@pytest.fixture
def knowledge_graph():
    """The paper's Figure 3 example graph (Jerry Yang / Yahoo!)."""
    g = Graph()
    g.add_node(0, label="Jerry Yang")
    g.add_node(1, label="Yahoo!")
    g.add_node(2, label="Stanford")
    g.add_node(3, label="Sunnyvale")
    g.add_node(4, label="California")
    g.add_edge(0, 1, label="founded")
    g.add_edge(0, 2, label="education")
    g.add_edge(0, 3, label="places lived")
    g.add_edge(1, 3, label="headquarters in")
    g.add_edge(3, 4, label="part of")
    return g


class TestCodec:
    def test_size_grows_with_degree(self):
        small = AdjacencyRecord(0, out_edges=[(1, None)])
        large = AdjacencyRecord(0, out_edges=[(i, None) for i in range(100)])
        assert len(large.encode()) > len(small.encode())


def _records(graph):
    return [record_for_node(graph, node) for node in graph.nodes()]


class TestGraphToRecords:
    def test_one_record_per_node(self, knowledge_graph):
        records = _records(knowledge_graph)
        assert len(records) == knowledge_graph.num_nodes
        assert {r.node_id for r in records} == set(knowledge_graph.nodes())

    def test_every_edge_appears_twice(self, knowledge_graph):
        # Each directed edge appears once as out-edge, once as in-edge.
        records = {r.node_id: r for r in _records(knowledge_graph)}
        out_total = sum(len(r.out_edges) for r in records.values())
        in_total = sum(len(r.in_edges) for r in records.values())
        assert out_total == knowledge_graph.num_edges
        assert in_total == knowledge_graph.num_edges
