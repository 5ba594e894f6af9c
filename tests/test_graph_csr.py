"""Tests for the CSR view: cross-checked against pure-Python traversal."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import (
    CSRGraph,
    Graph,
    GraphError,
    barabasi_albert,
    bfs_distances,
    erdos_renyi,
    k_hop_neighborhood,
    ring_of_cliques,
)


@pytest.fixture(scope="module")
def random_graph():
    return erdos_renyi(200, 800, seed=42)


class TestConstruction:
    def test_out_direction_row_contents(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(2, 1)
        csr = CSRGraph.from_graph(g, direction="out")
        assert sorted(csr.neighbors_of(csr.index_of(0)).tolist()) == [
            csr.index_of(1),
            csr.index_of(2),
        ]
        assert csr.neighbors_of(csr.index_of(1)).size == 0

    def test_in_direction_row_contents(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 1)
        csr = CSRGraph.from_graph(g, direction="in")
        row = csr.neighbors_of(csr.index_of(1))
        assert sorted(row.tolist()) == sorted(
            [csr.index_of(0), csr.index_of(2)]
        )

    def test_both_direction_deduplicates(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        csr = CSRGraph.from_graph(g, direction="both")
        assert csr.neighbors_of(csr.index_of(0)).tolist() == [csr.index_of(1)]

    def test_noncontiguous_node_ids(self):
        g = Graph()
        g.add_edge(100, 7)
        g.add_edge(7, 55)
        csr = CSRGraph.from_graph(g)
        assert csr.num_nodes == 3
        assert set(csr.node_ids.tolist()) == {7, 55, 100}
        # Compact ids map back consistently.
        for nid in (7, 55, 100):
            assert csr.node_ids[csr.index_of(nid)] == nid

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_graph(Graph(), direction="up")

    def test_degrees_match_graph(self, random_graph):
        csr = CSRGraph.from_graph(random_graph, direction="out")
        degrees = csr.degrees()
        for node in random_graph.nodes():
            assert degrees[csr.index_of(node)] == random_graph.out_degree(node)


class TestBfs:
    def test_matches_python_bfs_on_random_graph(self, random_graph):
        csr = CSRGraph.from_graph(random_graph, direction="both")
        for source in (0, 17, 123):
            expected = bfs_distances(random_graph, source, direction="both")
            dist = csr.bfs_distances([csr.index_of(source)])
            for i, nid in enumerate(csr.node_ids):
                want = expected.get(int(nid), -1)
                assert dist[i] == want

    def test_max_hops_cuts_off(self, random_graph):
        csr = CSRGraph.from_graph(random_graph, direction="both")
        dist = csr.bfs_distances([0], max_hops=2)
        assert dist.max() <= 2

    def test_multi_source(self):
        g = ring_of_cliques(4, 4)
        csr = CSRGraph.from_graph(g, direction="both")
        sources = [csr.index_of(0), csr.index_of(8)]
        dist = csr.bfs_distances(sources)
        assert dist[csr.index_of(0)] == 0
        assert dist[csr.index_of(8)] == 0
        # Every node reached (ring is connected).
        assert (dist >= 0).all()

    def test_empty_sources(self):
        g = ring_of_cliques(2, 3)
        csr = CSRGraph.from_graph(g)
        dist = csr.bfs_distances([])
        assert (dist == -1).all()

    def test_unreachable_marked(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_node(9)
        csr = CSRGraph.from_graph(g, direction="both")
        dist = csr.bfs_distances([csr.index_of(0)])
        assert dist[csr.index_of(9)] == -1

    def test_directed_bfs_respects_direction(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        csr = CSRGraph.from_graph(g, direction="out")
        dist = csr.bfs_distances([csr.index_of(2)])
        assert dist[csr.index_of(0)] == -1


def python_distances(graph, csr, source, direction, max_hops=None):
    """Row of hop distances from the pure-Python reference BFS."""
    reached = bfs_distances(
        graph, int(csr.node_ids[source]), max_hops=max_hops, direction=direction
    )
    return [reached.get(nid, -1) for nid in csr.node_ids.tolist()]


def sparse_digraph(num_nodes, edges, isolated):
    """Nodes ``0..num_nodes-1``; edges touching ``isolated`` are dropped,
    so empty rows can sit first, last and in runs."""
    graph = Graph()
    for node in range(num_nodes):
        graph.add_node(node)
    for u, v in edges:
        u, v = u % num_nodes, v % num_nodes
        if u != v and u not in isolated and v not in isolated:
            graph.add_edge(u, v)
    return graph


digraphs = st.builds(
    sparse_digraph,
    st.integers(min_value=1, max_value=24),
    st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=40),
    st.sets(st.integers(0, 23), max_size=12),
)


class TestMultiSourceDistances:
    @settings(max_examples=120, deadline=None)
    @given(
        graph=digraphs,
        direction=st.sampled_from(["out", "in", "both"]),
        picks=st.lists(st.integers(0, 23), max_size=5),
        count=st.sampled_from([None, 1, 63, 64, 65, 130]),
    )
    # Two components between isolated runs; first and last rows empty.
    @example(
        graph=sparse_digraph(10, [(2, 3), (3, 2), (6, 7)], {0, 1, 4, 5, 8, 9}),
        direction="out", picks=[2, 7, 0, 2], count=65,
    )
    @example(graph=sparse_digraph(3, [], set()), direction="both",
             picks=[1], count=64)
    def test_equals_one_bfs_per_source(self, graph, direction, picks, count):
        csr = CSRGraph.from_graph(graph, direction=direction)
        sources = [p % csr.num_nodes for p in picks]
        if count is not None and sources:  # duplicates fill the words
            sources = [sources[i % len(sources)] for i in range(count)]
        got = csr.multi_source_distances(sources)
        assert got.dtype == np.int32
        assert got.shape == (len(sources), csr.num_nodes)
        for row, source in zip(got, sources, strict=True):
            assert row.tolist() == csr.bfs_distances([source]).tolist()
            assert row.tolist() == python_distances(graph, csr, source, direction)

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 130])
    def test_word_boundaries_with_distinct_sources(self, random_graph, count):
        csr = CSRGraph.from_graph(random_graph, direction="out")
        sources = list(range(count))
        got = csr.multi_source_distances(sources)
        want = np.stack([csr.bfs_distances([s]) for s in sources])
        assert np.array_equal(got, want)

    def test_more_levels_than_a_uint8_tally_holds(self):
        chain = Graph()
        for node in range(600):
            chain.add_edge(node, node + 1)
        csr = CSRGraph.from_graph(chain, direction="out")
        got = csr.multi_source_distances([0, 300, 600])
        assert got[0].tolist() == list(range(601))
        assert got[1].tolist() == [-1] * 300 + list(range(301))
        assert got[2].tolist() == [-1] * 600 + [0]

    def test_on_a_version_after_a_pool_relay(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_node(3)
        first = CSRGraph.from_graph(g, direction="out")
        # 2 pooled entries; three more force a re-lay, then rows 0 and 3
        # live behind the canonical block, out of row order.
        relaid = first.with_updated_rows({3: [0], 0: [2, 1]})
        newest = relaid.with_updated_rows(
            {1: []}, node_ids=np.append(relaid.node_ids, [9, 8])
        )
        for version, rows in (
            (first, [[1], [2], [], []]),
            (relaid, [[2, 1], [2], [], [0]]),
            (newest, [[2, 1], [], [], [0], [], []]),
        ):
            assert rows_of(version) == rows
            everyone = list(range(version.num_nodes))
            got = version.multi_source_distances(everyone)
            want = np.stack([version.bfs_distances([s]) for s in everyone])
            assert np.array_equal(got, want)
        assert newest.multi_source_distances([3]).tolist() == [[1, 2, 2, 0, -1, -1]]

    def test_no_sources(self, random_graph):
        csr = CSRGraph.from_graph(random_graph, direction="both")
        got = csr.multi_source_distances([])
        assert got.shape == (0, csr.num_nodes) and got.dtype == np.int32

    def test_source_out_of_range(self, random_graph):
        csr = CSRGraph.from_graph(random_graph, direction="both")
        with pytest.raises(IndexError):
            csr.multi_source_distances([csr.num_nodes])


class TestMaskedBfs:
    @settings(max_examples=80, deadline=None)
    @given(
        graph=digraphs,
        direction=st.sampled_from(["out", "in", "both"]),
        pick=st.integers(0, 23),
    )
    def test_every_hop_bound_matches_python_bfs(self, graph, direction, pick):
        csr = CSRGraph.from_graph(graph, direction=direction)
        source = pick % csr.num_nodes
        for max_hops in (None, *range(csr.num_nodes + 1)):
            got = csr.bfs_distances([source], max_hops=max_hops)
            assert got.tolist() == python_distances(
                graph, csr, source, direction, max_hops
            )


class TestFrontiers:
    def test_k_hop_frontiers_match_neighborhood(self, random_graph):
        csr = CSRGraph.from_graph(random_graph, direction="both")
        source = 5
        frontiers = csr.k_hop_frontiers(csr.index_of(source), 2)
        got = {
            int(csr.node_ids[i]) for layer in frontiers for i in layer
        }
        assert got == k_hop_neighborhood(random_graph, source, 2)

    def test_frontier_layers_disjoint(self, random_graph):
        csr = CSRGraph.from_graph(random_graph, direction="both")
        frontiers = csr.k_hop_frontiers(3, 3)
        seen = set()
        for layer in frontiers:
            layer_set = set(layer.tolist())
            assert not (layer_set & seen)
            seen |= layer_set

    def test_neighborhood_size(self, random_graph):
        csr = CSRGraph.from_graph(random_graph, direction="both")
        for source in (0, 9, 42):
            expected = len(k_hop_neighborhood(random_graph, source, 2))
            assert csr.neighborhood_size(csr.index_of(source), 2) == expected

    def test_on_scale_free_graph(self):
        g = barabasi_albert(300, 3, seed=1)
        csr = CSRGraph.from_graph(g, direction="both")
        expected = len(k_hop_neighborhood(g, 0, 2))
        assert csr.neighborhood_size(csr.index_of(0), 2) == expected


def rows_of(csr):
    return [csr.neighbors_of(i).tolist() for i in range(csr.num_nodes)]


class TestVersions:
    @pytest.fixture
    def path(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        return CSRGraph.from_graph(g, direction="out")

    def test_with_rows_leaves_the_old_version_alone(self, path):
        newer = path.with_updated_rows({0: [1, 2], 2: [0]})
        assert rows_of(path) == [[1], [2], []]
        assert rows_of(newer) == [[1, 2], [2], [0]]
        assert (path.num_edges, newer.num_edges) == (2, 4)
        assert newer.degrees().tolist() == [2, 1, 1]
        assert newer.degrees_of(np.array([2, 0])).tolist() == [1, 2]
        assert newer.gather_neighbors(np.array([2, 0])).tolist() == [0, 1, 2]

    def test_one_node_frontier_gathers_its_row(self, path):
        # The one-node branch returns the row itself; it must agree with
        # the multi-slice gather, empty rows included, on every version.
        newer = path.with_updated_rows({0: [1, 2], 2: [0]})
        for csr in (path, newer):
            for node in range(csr.num_nodes):
                one = csr.gather_neighbors(np.array([node], dtype=np.int64))
                pair = csr.gather_neighbors(np.array([node, node]))
                assert one.dtype == np.int64
                assert one.tolist() == csr.neighbors_of(node).tolist()
                assert pair.tolist() == 2 * one.tolist()
        # The row is a view of the shared pool: it must not be writable.
        with pytest.raises(ValueError, match="read-only"):
            path.gather_neighbors(np.array([0]))[0] = 2

    def test_appended_nodes_get_empty_rows_unless_named(self, path):
        node_ids = np.append(path.node_ids, [7, 9])
        newer = path.with_updated_rows({3: [0]}, node_ids=node_ids)
        assert rows_of(newer) == [[1], [2], [], [0], []]
        assert (newer.index_of(7), newer.index_of(9)) == (3, 4)
        assert newer.bfs_distances([3]).tolist() == [1, 2, 3, 0, -1]
        # The id map is shared and append-only, but a version only
        # answers for the nodes it has.
        assert path.num_nodes == 3
        with pytest.raises(KeyError):
            path.index_of(7)

    def test_with_rows_validation(self, path):
        with pytest.raises(ValueError, match="row 3 out of range for 3 nodes"):
            path.with_updated_rows({3: [0]})
        with pytest.raises(ValueError, match="fewer than the 3 nodes"):
            path.with_updated_rows({}, node_ids=path.node_ids[:2])
        with pytest.raises(ValueError, match="node 0 is indexed at another row"):
            path.with_updated_rows({}, node_ids=np.append(path.node_ids, 0))

    def test_reads_cannot_write_into_a_version(self, path):
        with pytest.raises(ValueError, match="read-only"):
            path.neighbors_of(0)[0] = 2
        with pytest.raises(ValueError, match="read-only"):
            path.degrees()[0] = 5

    def test_versions_share_the_pool_until_it_is_full(self, path):
        # White box: the first update finds the exact-fit pool full and
        # lays the rows out into one twice as large; later versions append
        # to it, each behind everything any version wrote — so deriving
        # twice from one version cannot clobber the first derivation.
        second = path.with_updated_rows({0: [2]})
        assert second._pool is not path._pool
        assert len(second._pool.data) == 2 * (2 + 1)
        third = second.with_updated_rows({1: [0]})
        sibling = second.with_updated_rows({1: [1]})
        assert third._pool is second._pool is sibling._pool
        assert rows_of(second) == [[2], [2], []]
        assert rows_of(third) == [[2], [0], []]
        assert rows_of(sibling) == [[2], [1], []]
        full = sibling.with_updated_rows({2: [0, 1]})
        assert full._pool is not second._pool
        assert rows_of(full) == [[2], [1], [0, 1]]
        assert rows_of(path) == [[1], [2], []]


def reference_rows(graph, direction, node_ids):
    """The per-node construction: one adjacency walk and one dict lookup
    per neighbor (what :meth:`CSRGraph.from_graph` did before its bulk
    pass), as lists of compact indices."""
    index = {nid: i for i, nid in enumerate(node_ids)}
    adjacency = {
        "out": graph.out_neighbors,
        "in": graph.in_neighbors,
        "both": graph.neighbors,
    }[direction]
    return [[index[v] for v in adjacency(node)] for node in node_ids]


@st.composite
def labelled_graphs(draw):
    """Sparse, negative and isolated ids, labelled edges, and an
    append-stable ``node_ids`` order: sorted seed nodes, then nodes that
    arrived later, each batch sorted (the order live updates produce)."""
    ids = draw(st.lists(
        st.integers(min_value=-(10**9), max_value=10**9),
        min_size=1, max_size=24, unique=True,
    ))
    seeds = draw(st.integers(min_value=1, max_value=len(ids)))
    graph = Graph()
    for node in ids:
        graph.add_node(node, draw(st.sampled_from([None, "page", 7])))
    edges = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                  st.sampled_from([None, "link", 3])),
        max_size=60,
    ))
    for u, v, label in edges:
        graph.add_edge(u, v, label)
    later = ids[seeds:]
    cut = draw(st.integers(min_value=0, max_value=len(later)))
    order = sorted(ids[:seeds]) + sorted(later[:cut]) + sorted(later[cut:])
    return graph, np.array(order, dtype=np.int64)


class TestBulkBuild:
    @settings(max_examples=80, deadline=None)
    @given(case=labelled_graphs(), direction=st.sampled_from(["out", "in", "both"]))
    def test_matches_the_per_node_construction(self, case, direction):
        graph, node_ids = case
        expected = reference_rows(graph, direction, node_ids.tolist())
        for csr in (
            CSRGraph.from_graph(graph, direction, node_ids=node_ids),
            CSRGraph.from_graph(graph, direction),  # default: sorted ids
        ):
            order = csr.node_ids.tolist()
            want = (expected if order == node_ids.tolist()
                    else reference_rows(graph, direction, order))
            assert rows_of(csr) == want
            assert csr.num_edges == sum(map(len, want))
            assert csr.degrees().tolist() == [len(row) for row in want]
            assert csr.neighbors_of(0).dtype == np.int64
            # Readers see a read-only pool.
            assert not csr._data.flags.writeable
            if csr.num_edges:
                row = max(range(csr.num_nodes), key=lambda i: len(want[i]))
                with pytest.raises(ValueError, match="read-only"):
                    csr.neighbors_of(row)[0] = 0

    def test_node_ids_must_list_every_node(self):
        g = Graph()
        g.add_edge(5, -3)
        g.add_node(8)
        with pytest.raises(ValueError, match="does not list every node"):
            CSRGraph.from_graph(g, node_ids=np.array([5, 8, 8]))

    def test_ids_outside_the_graph_are_rejected(self):
        g = Graph()
        g.add_edge(5, -3)
        with pytest.raises(GraphError, match="no such node: 4"):
            CSRGraph.from_graph(g, node_ids=np.array([5, 4]))

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(Graph())
        assert (csr.num_nodes, csr.num_edges) == (0, 0)
