"""Tests for graph embedding and the EMA tracker."""

import numpy as np
import pytest

from repro.embedding import (
    GraphEmbedding,
    ProcessorEMATracker,
    classical_mds,
    embed_landmarks,
    lmds_triangulate,
)
from repro.graph import CSRGraph, ring_of_cliques, watts_strogatz
from repro.landmarks import LandmarkDistances, select_landmarks


@pytest.fixture(scope="module")
def ring_setup():
    graph = ring_of_cliques(8, 5)
    csr = CSRGraph.from_graph(graph, direction="both")
    landmarks = select_landmarks(csr, 8, min_separation=2)
    dists = LandmarkDistances.compute(csr, landmarks)
    return graph, csr, dists


class TestClassicalMds:
    def test_recovers_triangle(self):
        # Equilateral triangle with unit sides (paper Fig 6).
        pair = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.int32)
        coords = classical_mds(pair, 2)
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(coords[i] - coords[j])
                assert d == pytest.approx(1.0, abs=1e-6)

    def test_recovers_line(self):
        pair = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int32)
        coords = classical_mds(pair, 1)
        d01 = np.linalg.norm(coords[0] - coords[1])
        d02 = np.linalg.norm(coords[0] - coords[2])
        assert d01 == pytest.approx(1.0, abs=1e-6)
        assert d02 == pytest.approx(2.0, abs=1e-6)

    def test_pads_when_rank_deficient(self):
        pair = np.array([[0, 1], [1, 0]], dtype=np.int32)
        coords = classical_mds(pair, 5)
        assert coords.shape == (2, 5)


class TestEmbedLandmarks:
    def test_improves_or_matches_mds(self, ring_setup):
        _graph, _csr, dists = ring_setup
        pair = dists.pair_matrix()
        target = pair.astype(np.float64)

        def mean_rel_error(coords):
            diff = coords[:, None, :] - coords[None, :, :]
            eu = np.sqrt((diff**2).sum(axis=2))
            mask = ~np.eye(len(coords), dtype=bool)
            return (np.abs(target - eu)[mask] / target[mask]).mean()

        mds = classical_mds(pair, 4)
        refined = embed_landmarks(pair, 4, rounds=2)
        assert mean_rel_error(refined) <= mean_rel_error(mds) + 1e-9

    def test_single_landmark(self):
        coords = embed_landmarks(np.zeros((1, 1), dtype=np.int32), 3)
        assert coords.shape == (1, 3)


class TestLmdsTriangulate:
    def test_places_nodes_near_true_positions(self):
        # Landmarks on a square; a node equidistant from all sits at center.
        landmark_coords = np.array(
            [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]
        )
        d_center = np.sqrt(2.0)
        node_dists = np.array([[d_center], [d_center], [d_center], [d_center]])
        coords = lmds_triangulate(landmark_coords, node_dists)
        assert np.allclose(coords[0], [1.0, 1.0], atol=1e-6)

    def test_handles_unreachable_entries(self):
        landmark_coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        node_dists = np.array([[1], [-1], [1]], dtype=np.int32)  # -1 unreachable
        coords = lmds_triangulate(landmark_coords, node_dists)
        assert np.isfinite(coords).all()


class TestGraphEmbedding:
    def test_embeds_all_nodes(self, ring_setup):
        _graph, csr, dists = ring_setup
        emb = GraphEmbedding.embed(csr, dim=4, landmark_distances=dists,
                                   nm_iterations=40)
        assert emb.coords.shape == (csr.num_nodes, 4)
        assert np.isfinite(emb.coords).all()

    def test_nearby_nodes_closer_than_far_nodes(self, ring_setup):
        _graph, csr, dists = ring_setup
        emb = GraphEmbedding.embed(csr, dim=6, landmark_distances=dists,
                                   nm_iterations=60)
        # Same-clique distance must typically be below cross-ring distance.
        same = [emb.euclidean(0, i) for i in range(1, 5)]
        across = [emb.euclidean(0, 20 + i) for i in range(5)]
        assert np.mean(same) < np.mean(across)

    def test_simplex_refines_lmds(self, ring_setup):
        _graph, csr, dists = ring_setup
        rng = np.random.default_rng(0)
        pairs = []
        nodes = csr.node_ids
        for _ in range(60):
            a, b = rng.choice(nodes, size=2, replace=False)
            pairs.append((int(a), int(b)))
        lmds = GraphEmbedding.embed(csr, dim=6, landmark_distances=dists,
                                    method="lmds")
        simplex = GraphEmbedding.embed(csr, dim=6, landmark_distances=dists,
                                       method="simplex", nm_iterations=80)
        err_lmds = lmds.relative_errors(csr, pairs).mean()
        err_simplex = simplex.relative_errors(csr, pairs).mean()
        assert err_simplex <= err_lmds * 1.05

    def test_higher_dimensions_reduce_error(self):
        graph = watts_strogatz(300, 6, 0.05, seed=1)
        csr = CSRGraph.from_graph(graph, direction="both")
        landmarks = select_landmarks(csr, 12, min_separation=2)
        dists = LandmarkDistances.compute(csr, landmarks)
        rng = np.random.default_rng(1)
        pairs = [
            tuple(int(x) for x in rng.choice(csr.node_ids, 2, replace=False))
            for _ in range(80)
        ]
        errors = {}
        for dim in (2, 10):
            emb = GraphEmbedding.embed(csr, dim=dim, landmark_distances=dists,
                                       nm_iterations=60)
            errors[dim] = emb.relative_errors(csr, pairs, max_hops=12).mean()
        assert errors[10] < errors[2]

    def test_unknown_method_rejected(self, ring_setup):
        _graph, csr, dists = ring_setup
        with pytest.raises(ValueError):
            GraphEmbedding.embed(csr, method="magic", landmark_distances=dists)

    def test_storage_linear_in_nodes_and_dim(self, ring_setup):
        _graph, csr, dists = ring_setup
        emb = GraphEmbedding.embed(csr, dim=4, landmark_distances=dists,
                                   method="lmds")
        assert emb.storage_bytes() == csr.num_nodes * 4 * 8  # float64

    def test_euclidean_unknown_node_raises(self, ring_setup):
        _graph, csr, dists = ring_setup
        emb = GraphEmbedding.embed(csr, dim=3, landmark_distances=dists,
                                   method="lmds")
        with pytest.raises(KeyError):
            emb.euclidean(0, 31337)


class TestProcessorEMATracker:
    def test_update_moves_mean_toward_query(self):
        tracker = ProcessorEMATracker(2, 3, alpha=0.5, seed=0)
        target = np.array([10.0, 10.0, 10.0])
        before = np.linalg.norm(tracker.means[0] - target)
        tracker.update(0, target)
        after = np.linalg.norm(tracker.means[0] - target)
        assert after < before

    def test_alpha_zero_jumps_to_last_query(self):
        tracker = ProcessorEMATracker(1, 2, alpha=0.0, seed=0)
        tracker.update(0, np.array([3.0, 4.0]))
        assert np.allclose(tracker.means[0], [3.0, 4.0])

    def test_alpha_one_never_moves(self):
        tracker = ProcessorEMATracker(1, 2, alpha=1.0, seed=0)
        initial = tracker.means[0].copy()
        tracker.update(0, np.array([100.0, 100.0]))
        assert np.allclose(tracker.means[0], initial)

    def test_distances_shape_and_ordering(self):
        tracker = ProcessorEMATracker(3, 2, alpha=0.5, seed=1)
        tracker.means = np.array([[0.0, 0.0], [5.0, 0.0], [100.0, 0.0]])
        dists = tracker.distances(np.array([1.0, 0.0]))
        assert dists.shape == (3,)
        assert np.argmin(dists) == 0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            ProcessorEMATracker(2, 2, alpha=1.5)

    def test_for_embedding_initialises_in_bounding_box(self):
        coords = np.array([[0.0, 0.0], [10.0, 5.0], [2.0, 8.0]])
        tracker = ProcessorEMATracker.for_embedding(coords, 4, seed=2)
        assert tracker.means.shape == (4, 2)
        assert (tracker.means[:, 0] >= 0).all() and (tracker.means[:, 0] <= 10).all()
        assert (tracker.means[:, 1] >= 0).all() and (tracker.means[:, 1] <= 8).all()

    def test_deterministic_with_seed(self):
        a = ProcessorEMATracker(3, 4, seed=9)
        b = ProcessorEMATracker(3, 4, seed=9)
        assert np.allclose(a.means, b.means)


class TestRefreshAndClone:
    def _embedding(self):
        csr = CSRGraph.from_graph(ring_of_cliques(6, 5), direction="both")
        return GraphEmbedding.embed(csr, dim=3, num_landmarks=6,
                                    min_separation=1, method="lmds")

    def test_refresh_places_new_node_at_neighbor_centroid(self):
        embedding = self._embedding()
        a = embedding.coordinates_of(0)
        b = embedding.coordinates_of(1)
        embedding.refresh_node(999, [a, b])
        np.testing.assert_allclose(
            embedding.coordinates_of(999), (a + b) / 2.0
        )

    def test_refresh_new_node_without_neighbors_uses_landmark_centroid(self):
        embedding = self._embedding()
        embedding.refresh_node(999, [None, None])
        np.testing.assert_allclose(
            embedding.coordinates_of(999),
            embedding.landmark_coords.mean(axis=0),
        )

    def test_refresh_existing_node_blends(self):
        embedding = self._embedding()
        old = embedding.coordinates_of(0).copy()
        target = embedding.coordinates_of(1)
        embedding.refresh_node(0, [target], blend=0.5)
        np.testing.assert_allclose(
            embedding.coordinates_of(0), 0.5 * old + 0.5 * target
        )
        # blend=0 keeps coordinates untouched.
        frozen = embedding.coordinates_of(0).copy()
        embedding.refresh_node(0, [target], blend=0.0)
        np.testing.assert_allclose(embedding.coordinates_of(0), frozen)

    def test_refresh_existing_node_without_info_keeps_coords(self):
        embedding = self._embedding()
        old = embedding.coordinates_of(0).copy()
        embedding.refresh_node(0, [])
        np.testing.assert_allclose(embedding.coordinates_of(0), old)

    def test_refresh_rejects_bad_blend(self):
        embedding = self._embedding()
        with pytest.raises(ValueError):
            embedding.refresh_node(0, [], blend=1.5)

    def test_clone_is_independent(self):
        embedding = self._embedding()
        copy = embedding.clone()
        old = embedding.coordinates_of(0).copy()
        copy.refresh_node(0, [embedding.coordinates_of(1)], blend=1.0)
        np.testing.assert_allclose(embedding.coordinates_of(0), old)
        copy.refresh_node(777, [old])
        assert copy.knows(777)
        assert not embedding.knows(777)
