"""Tests for landmark selection, distances, assignment and the index."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GraphAssets
from repro.datasets import webgraph_like
from repro.graph import CSRGraph, Graph, barabasi_albert, ring_of_cliques
from repro.graph.traversal import bfs_distances
from repro.landmarks import (
    LandmarkDistances,
    LandmarkIndex,
    UNREACHABLE,
    assign_landmarks_to_processors,
    node_processor_distances,
    select_landmarks,
)


@pytest.fixture(scope="module")
def clique_ring():
    graph = ring_of_cliques(6, 6)
    csr = CSRGraph.from_graph(graph, direction="both")
    return graph, csr


@pytest.fixture(scope="module")
def scale_free():
    graph = barabasi_albert(400, 3, seed=2)
    csr = CSRGraph.from_graph(graph, direction="both")
    return graph, csr


class TestSelection:
    def test_selects_requested_count(self, scale_free):
        _graph, csr = scale_free
        landmarks = select_landmarks(csr, 10, min_separation=2)
        assert len(landmarks) == 10

    def test_landmarks_respect_separation(self, scale_free):
        graph, csr = scale_free
        separation = 3
        landmarks = select_landmarks(csr, 8, min_separation=separation)
        ids = [int(csr.node_ids[l]) for l in landmarks]
        for i, a in enumerate(ids):
            dist = bfs_distances(graph, a, max_hops=separation - 1)
            for b in ids[i + 1:]:
                assert b not in dist, f"{a} and {b} closer than {separation}"

    def test_prefers_high_degree(self, scale_free):
        _graph, csr = scale_free
        landmarks = select_landmarks(csr, 5, min_separation=1)
        degrees = csr.degrees()
        # With separation 1 nothing is discarded: exactly the top-5 degrees.
        top5 = set(np.argsort(-degrees, kind="stable")[:5].tolist())
        assert set(landmarks) == top5

    def test_returns_fewer_when_exhausted(self, clique_ring):
        _graph, csr = clique_ring
        # With a huge separation the whole ring supports only ~1-2 landmarks.
        landmarks = select_landmarks(csr, 30, min_separation=50)
        assert 1 <= len(landmarks) < 30

    def test_isolated_nodes_never_selected(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_node(99)
        csr = CSRGraph.from_graph(g, direction="both")
        landmarks = select_landmarks(csr, 5, min_separation=1)
        assert csr.index_of(99) not in landmarks

    def test_bad_parameters(self, clique_ring):
        _graph, csr = clique_ring
        with pytest.raises(ValueError):
            select_landmarks(csr, 0)
        with pytest.raises(ValueError):
            select_landmarks(csr, 3, min_separation=0)


class TestLandmarkDistances:
    def test_matrix_matches_python_bfs(self, clique_ring):
        graph, csr = clique_ring
        landmarks = select_landmarks(csr, 4, min_separation=2)
        table = LandmarkDistances.compute(csr, landmarks)
        for row, landmark in enumerate(landmarks):
            source = int(csr.node_ids[landmark])
            expected = bfs_distances(graph, source, direction="both")
            for i, nid in enumerate(csr.node_ids):
                assert table.matrix[row, i] == expected.get(int(nid), -1)

    def test_pair_matrix_diagonal_zero(self, clique_ring):
        _graph, csr = clique_ring
        landmarks = select_landmarks(csr, 4, min_separation=2)
        table = LandmarkDistances.compute(csr, landmarks)
        assert (np.diag(table.pair_matrix()) == 0).all()

    def test_triangle_bounds_hold(self, scale_free):
        graph, csr = scale_free
        landmarks = select_landmarks(csr, 6, min_separation=2)
        table = LandmarkDistances.compute(csr, landmarks)
        rng = np.random.default_rng(0)
        for _ in range(30):
            u, v = rng.integers(0, csr.num_nodes, size=2)
            if u == v:
                continue
            lower, upper = table.triangle_bounds(int(u), int(v))
            true = bfs_distances(
                graph, int(csr.node_ids[u]), direction="both"
            ).get(int(csr.node_ids[v]))
            if true is None:
                continue
            assert lower <= true <= upper

    @settings(max_examples=40, deadline=None)
    @given(
        num_nodes=st.integers(min_value=2, max_value=30),
        edges=st.lists(
            st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=45
        ),
        num_landmarks=st.integers(min_value=1, max_value=8),
    )
    def test_matrix_and_eq2_bounds_against_true_distances(
        self, num_nodes, edges, num_landmarks
    ):
        """|d(u,l) - d(v,l)| <= d(u,v) <= d(u,l) + d(l,v) (paper Eq. 2) on
        graphs with isolated nodes and several components."""
        graph = Graph()
        for node in range(num_nodes):
            graph.add_node(node)
        for u, v in edges:
            if u % num_nodes != v % num_nodes:
                graph.add_edge(u % num_nodes, v % num_nodes)
        csr = CSRGraph.from_graph(graph, direction="both")
        landmarks = select_landmarks(csr, num_landmarks, min_separation=1)
        table = LandmarkDistances.compute(csr, landmarks)
        true = [
            bfs_distances(graph, u, direction="both") for u in range(num_nodes)
        ]
        for row, landmark in enumerate(landmarks):
            assert table.matrix[row].tolist() == [
                true[landmark].get(v, UNREACHABLE) for v in range(num_nodes)
            ]
        for u in range(num_nodes):
            for v in range(num_nodes):
                lower, upper = table.triangle_bounds(u, v)
                if v in true[u]:
                    assert lower <= true[u][v]
                    assert upper == UNREACHABLE or true[u][v] <= upper
                else:  # no landmark can reach both sides of a cut
                    assert (lower, upper) == (0, UNREACHABLE)

    def test_storage_bytes_linear_in_nodes(self, scale_free):
        _graph, csr = scale_free
        landmarks = select_landmarks(csr, 4, min_separation=2)
        table = LandmarkDistances.compute(csr, landmarks)
        assert table.storage_bytes() == 4 * csr.num_nodes * 4  # int32

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LandmarkDistances([0, 1], np.zeros((3, 5), dtype=np.int32))


class TestAssignment:
    def test_every_landmark_assigned_once(self):
        rng = np.random.default_rng(1)
        pair = rng.integers(1, 10, size=(12, 12))
        pair = (pair + pair.T) // 2
        np.fill_diagonal(pair, 0)
        groups = assign_landmarks_to_processors(pair, 4)
        flat = [l for g in groups for l in g]
        assert sorted(flat) == list(range(12))

    def test_first_two_pivots_are_farthest_pair(self):
        pair = np.array(
            [
                [0, 1, 9, 2],
                [1, 0, 3, 2],
                [9, 3, 0, 4],
                [2, 2, 4, 0],
            ]
        )
        groups = assign_landmarks_to_processors(pair, 2)
        pivots = {groups[0][0], groups[1][0]}
        assert pivots == {0, 2}

    def test_more_processors_than_landmarks(self):
        pair = np.array([[0, 2], [2, 0]])
        groups = assign_landmarks_to_processors(pair, 5)
        assert len(groups) == 5
        assert sum(len(g) for g in groups) == 2
        assert groups[2] == [] and groups[4] == []

    def test_single_landmark(self):
        groups = assign_landmarks_to_processors(np.zeros((1, 1)), 3)
        assert groups[0] == [0]

    def test_unreachable_pairs_attract_pivots(self):
        # Landmarks 0-1 connected; landmark 2 in another component.
        pair = np.array(
            [
                [0, 1, UNREACHABLE],
                [1, 0, UNREACHABLE],
                [UNREACHABLE, UNREACHABLE, 0],
            ]
        )
        groups = assign_landmarks_to_processors(pair, 2)
        # The isolated landmark must be a pivot (it is "farthest").
        pivots = {g[0] for g in groups if g}
        assert 2 in pivots

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            assign_landmarks_to_processors(np.zeros((2, 2)), 0)
        with pytest.raises(ValueError):
            assign_landmarks_to_processors(np.zeros((0, 0)), 2)
        with pytest.raises(ValueError):
            assign_landmarks_to_processors(np.zeros((2, 3)), 2)

    def test_node_processor_distances_min_over_group(self):
        matrix = np.array(
            [
                [0, 1, 2],
                [5, 0, 1],
                [3, 3, 0],
            ],
            dtype=np.int32,
        )
        groups = [[0, 2], [1]]
        table = node_processor_distances(matrix, groups)
        assert table.shape == (3, 2)
        assert table[0, 0] == 0  # min(matrix[0,0], matrix[2,0])
        assert table[0, 1] == 5
        assert table[2, 0] == 0  # min(2, 0)

    def test_node_processor_distances_empty_group_inf(self):
        matrix = np.array([[0, 1]], dtype=np.int32)
        table = node_processor_distances(matrix, [[0], []])
        assert np.isinf(table[:, 1]).all()

    def test_unreachable_becomes_inf(self):
        matrix = np.array([[UNREACHABLE, 2]], dtype=np.int32)
        table = node_processor_distances(matrix, [[0]])
        assert np.isinf(table[0, 0])
        assert table[1, 0] == 2


class TestLandmarkIndex:
    def test_build_produces_table_for_all_nodes(self, clique_ring):
        graph, _csr = clique_ring
        index = LandmarkIndex.build(graph, num_processors=3, num_landmarks=6,
                                    min_separation=2)
        for node in graph.nodes():
            dists = index.processor_distances(node)
            assert dists is not None
            assert dists.shape == (3,)
            assert np.isfinite(dists).any()

    def test_nearby_nodes_prefer_same_processor(self, clique_ring):
        graph, _csr = clique_ring
        index = LandmarkIndex.build(graph, num_processors=3, num_landmarks=6,
                                    min_separation=2)
        # Nodes of one clique should mostly agree on their best processor.
        agreements = 0
        for clique in range(6):
            base = clique * 6
            choices = {
                int(np.argmin(index.processor_distances(base + i)))
                for i in range(6)
            }
            if len(choices) == 1:
                agreements += 1
        assert agreements >= 4  # most cliques route as a unit

    def test_unknown_node_returns_none(self, clique_ring):
        graph, _csr = clique_ring
        index = LandmarkIndex.build(graph, num_processors=2, num_landmarks=4,
                                    min_separation=2)
        assert index.processor_distances(10_000) is None
        assert not index.knows(10_000)

    def test_add_node_uses_neighbor_relaxation(self, clique_ring):
        graph, _csr = clique_ring
        index = LandmarkIndex.build(graph, num_processors=3, num_landmarks=6,
                                    min_separation=2)
        neighbor = 0
        new_node = 999
        index.add_node(new_node, [neighbor])
        new_vec = index.landmark_vector(new_node)
        old_vec = index.landmark_vector(neighbor)
        assert np.allclose(new_vec, old_vec + 1.0)
        # Table row is consistent with the vector.
        assert index.processor_distances(new_node) is not None

    def test_add_node_without_known_neighbors_is_unroutable(self, clique_ring):
        graph, _csr = clique_ring
        index = LandmarkIndex.build(graph, num_processors=2, num_landmarks=4,
                                    min_separation=2)
        index.add_node(777, [111111])
        assert np.isinf(index.processor_distances(777)).all()

    def test_add_duplicate_node_rejected(self, clique_ring):
        graph, _csr = clique_ring
        index = LandmarkIndex.build(graph, num_processors=2, num_landmarks=4,
                                    min_separation=2)
        with pytest.raises(ValueError):
            index.add_node(0, [1])

    def test_build_from_shared_distances(self, scale_free):
        graph, csr = scale_free
        built = LandmarkIndex.build(graph, num_processors=3, num_landmarks=9,
                                    min_separation=2)
        distances = LandmarkDistances.compute(
            csr, select_landmarks(csr, 9, min_separation=2)
        )
        shared = LandmarkIndex.build(graph, num_processors=3, csr=csr,
                                     distances=distances)
        assert shared.landmark_node_ids == built.landmark_node_ids
        assert shared.groups == built.groups
        for node in (0, 7, 399):
            assert np.array_equal(shared.processor_distances(node),
                                  built.processor_distances(node))
            assert np.array_equal(shared.landmark_vector(node),
                                  built.landmark_vector(node))

    def test_row_map_does_not_grow_with_the_assets_id_map(self):
        g = Graph()
        for u in range(6):
            g.add_edge(u, u + 1)
        assets = GraphAssets(g)
        index = assets.landmark_index(num_processors=2, num_landmarks=2,
                                      min_separation=2)
        g.add_edge(6, 50)
        assets.apply_graph_updates({6, 50}, {50})
        assert 50 in assets.compact
        assert not index.knows(50)

    def test_storage_bytes_counts_table(self, clique_ring):
        graph, _csr = clique_ring
        index = LandmarkIndex.build(graph, num_processors=4, num_landmarks=6,
                                    min_separation=2)
        assert index.storage_bytes() == graph.num_nodes * 4 * 4  # float32 x P


class TestRefreshAndClone:
    def _path_graph(self, n=12):
        g = Graph()
        for u in range(n - 1):
            g.add_edge(u, u + 1)
            g.add_edge(u + 1, u)
        return g

    def test_refresh_nodes_recomputes_changed_region(self):
        g = self._path_graph()
        index = LandmarkIndex.build(g, num_processors=2, num_landmarks=2,
                                    min_separation=2)
        far = 11
        before = index.landmark_vector(far).copy()
        g.add_edge(0, 11)
        g.add_edge(11, 0)
        assert index.refresh_nodes(g, [0, 11]) == 2
        after = index.landmark_vector(far)
        assert (after <= before).all()
        assert (after < before).any()

    def test_refresh_nodes_handles_new_node_chains(self):
        # A new node whose only neighbor is itself new resolves on the
        # second relaxation pass.
        g = self._path_graph()
        index = LandmarkIndex.build(g, num_processors=2, num_landmarks=2,
                                    min_separation=2)
        g.add_edge(100, 0)
        g.add_edge(101, 100)
        index.refresh_nodes(g, [100, 101])
        v0 = index.landmark_vector(0)
        v100 = index.landmark_vector(100)
        v101 = index.landmark_vector(101)
        finite = np.isfinite(v0)
        assert np.allclose(v100[finite], v0[finite] + 1.0)
        assert np.allclose(v101[finite], v0[finite] + 2.0)

    def test_refresh_keeps_landmark_self_distance_zero(self):
        g = self._path_graph()
        index = LandmarkIndex.build(g, num_processors=2, num_landmarks=2,
                                    min_separation=2)
        landmark = index.landmark_node_ids[0]
        row = index.landmark_node_ids.index(landmark)
        g.add_edge(landmark, 200)
        index.refresh_nodes(g, [landmark, 200])
        assert index.landmark_vector(landmark)[row] == 0.0

    def test_refresh_preserves_vector_when_no_information(self):
        g = self._path_graph()
        index = LandmarkIndex.build(g, num_processors=2, num_landmarks=2,
                                    min_separation=2)
        before = index.landmark_vector(5).copy()
        # Isolate node 5's neighbors from the index's point of view by
        # refreshing it against unknown-only neighbors: simulate by a
        # detached pair of brand-new nodes.
        g.add_edge(300, 301)
        index.refresh_nodes(g, [300, 301])
        # 300/301 have no indexed neighbor: all-inf relaxation; new nodes
        # still get indexed (as unreachable), old nodes keep information.
        assert index.knows(300) and index.knows(301)
        assert np.array_equal(index.landmark_vector(5), before)

    def test_refresh_skips_nodes_missing_from_graph(self):
        g = self._path_graph()
        index = LandmarkIndex.build(g, num_processors=2, num_landmarks=2,
                                    min_separation=2)
        assert index.refresh_nodes(g, [99999]) == 0

    def test_clone_is_independent(self):
        g = self._path_graph()
        index = LandmarkIndex.build(g, num_processors=2, num_landmarks=2,
                                    min_separation=2)
        copy = index.clone()
        g.add_edge(500, 0)
        copy.refresh_nodes(g, [500])
        assert copy.knows(500)
        assert not index.knows(500)
        g.add_edge(0, 11)
        g.add_edge(11, 0)
        before = index.landmark_vector(11).copy()
        copy.refresh_nodes(g, [0, 11])
        assert np.array_equal(index.landmark_vector(11), before)
        assert copy.processor_distances(500) is not None


def _sha256(values) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.int64).tobytes()
    ).hexdigest()


class TestPinnedRoutingInputs:
    """What routing sees of webgraph (scale 0.05, seed 1), by sha256.

    Recorded at 06f290d, before preprocessing became one bit-parallel
    pass. Integers only — embedding floats depend on the BLAS build — so
    an "optimisation" that changes a landmark, a hop distance, a
    processor group or a record's home server fails here, in seconds.
    """

    PINNED = {
        "landmark_node_ids":
            "7bbeaf2cdbe74400512bf702ec2ea77ab8edd7084d51939679e0d7bf65762529",
        "distance_matrix":
            "9a9f17fb2746aa6669919ee0e53157c8dff4491724529dfe2a00c9215431c718",
        "processor_groups":
            "95ea0c943e83b87d665683f52d589b5ba79dc18ea830635247171f1f45933a0b",
        "owner_array_4":
            "0536d330473825f845e9dacc7963f75715780d2388d9262f21f273d4b0d1bdb7",
    }

    def test_preprocessing_outputs_are_unchanged(self):
        assets = GraphAssets(webgraph_like(scale=0.05, seed=1))
        index = assets.landmark_index(num_processors=7)
        matrix = assets.landmark_distances().matrix
        assert matrix.dtype == np.int32 and matrix.shape == (17, 1654)
        groups = [[p, l] for p, group in enumerate(index.groups) for l in group]
        assert {
            "landmark_node_ids": _sha256(index.landmark_node_ids),
            "distance_matrix": _sha256(matrix),
            "processor_groups": _sha256(groups),
            "owner_array_4": _sha256(assets.owner_array(4)),
        } == self.PINNED
