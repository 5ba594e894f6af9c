"""Tests for the synthetic dataset analogues (Table 1)."""

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    DATASETS,
    dataset_info,
    dataset_table,
    freebase_like,
    friendster_like,
    load_dataset,
    memetracker_like,
    webgraph_like,
)
from repro.graph import CSRGraph


SCALE = 0.05  # tiny graphs: structure checks, not benchmarks


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_builds_and_is_deterministic(self, name):
        a = load_dataset(name, scale=SCALE, seed=3)
        b = load_dataset(name, scale=SCALE, seed=3)
        assert a.num_nodes == b.num_nodes
        assert sorted(a.edges()) == sorted(b.edges())

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_seed_changes_graph(self, name):
        a = load_dataset(name, scale=SCALE, seed=1)
        b = load_dataset(name, scale=SCALE, seed=2)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            load_dataset("twitter")

    def test_scale_grows_graph(self):
        small = webgraph_like(scale=0.05, seed=1)
        large = webgraph_like(scale=0.1, seed=1)
        assert large.num_nodes > small.num_nodes

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            memetracker_like(scale=0.0)

    def test_freebase_is_sparsest(self):
        freebase = freebase_like(scale=SCALE, seed=1)
        meme = memetracker_like(scale=SCALE, seed=1)
        assert (freebase.num_edges / freebase.num_nodes
                < meme.num_edges / meme.num_nodes)

    def test_friendster_has_weaker_hotspot_overlap(self):
        # The property behind Fig 16(b): 2-hop neighbourhoods of queries
        # from one hotspot overlap much less on Friendster than on
        # WebGraph, so caching helps it least. Overlap is measured as
        # union / sum over 5 query nodes per hotspot (1.0 = disjoint).
        def mean_disjointness(graph, hotspots=8, per_hotspot=5):
            csr = CSRGraph.from_graph(graph, direction="both")
            rng = np.random.default_rng(0)
            eligible = np.flatnonzero(csr.degrees() > 0)
            ratios = []
            for _ in range(hotspots):
                center = int(eligible[rng.integers(0, eligible.size)])
                ball = np.flatnonzero(
                    csr.bfs_distances([center], max_hops=2) >= 0
                )
                union, total = set(), 0
                for _ in range(per_hotspot):
                    node = int(ball[rng.integers(0, ball.size)])
                    hood = np.flatnonzero(
                        csr.bfs_distances([node], max_hops=2) >= 0
                    )
                    union.update(hood.tolist())
                    total += hood.size
                ratios.append(len(union) / total)
            return np.mean(ratios)

        web = mean_disjointness(webgraph_like(scale=0.25, seed=1))
        friend = mean_disjointness(friendster_like(scale=0.25, seed=1))
        assert friend > 1.2 * web


class TestDatasetInfo:
    def test_info_counts_match_graph(self):
        graph = freebase_like(scale=SCALE, seed=1)
        info = dataset_info("freebase", graph)
        assert info.num_nodes == graph.num_nodes
        assert info.num_edges == graph.num_edges
        assert info.record_bytes > 0

    def test_table_covers_all_datasets(self):
        rows = dataset_table(scale=SCALE, seed=1)
        assert {r.name for r in rows} == set(DATASETS)


def layout_sha256(graph) -> str:
    """sha256 of node order, every out and in row (insertion order), edges."""
    flat = [graph.num_nodes, graph.num_edges]
    for node in graph.nodes():
        out = list(graph.out_neighbors(node))
        into = list(graph.in_neighbors(node))
        flat += [node, len(out), *out, len(into), *into]
    return hashlib.sha256(np.asarray(flat, dtype=np.int64).tobytes()).hexdigest()


class TestPinnedLayouts:
    """Every graph tier-1 and ``perf/`` load, by sha256 of its layout.

    Recorded at dee7d1d, before the generators drew in batches and built
    adjacency in one pass. Insertion order is part of the pin:
    ``Graph.neighbors``, the CSR builds and landmark relaxation read rows
    in that order, so a generator that builds the same edge set in
    another order moves every simulated value. A change to the random
    stream or to the adjacency build fails here first.
    """

    PINNED = {
        ("freebase", 0.05, 1):
            "99c4d7ab63f0f7f00f470fa4e14860483309c8f916f0ad770aa5bc140ef49392",
        ("freebase", 0.05, 2):
            "9f9f7e62fefc973e1ae4e264ddf586f3924910a27f1eda1eaa1c62e65d03066e",
        ("freebase", 0.05, 3):
            "9bc59ccbdf187c43f146313ce8f678026741ccfef5df49ba235b71411638f81a",
        ("friendster", 0.05, 1):
            "46fd5f147c1a21e25d94b1fc1ed1578b7826b6ad04eaaa5e7295d8ed4a8d6908",
        ("friendster", 0.05, 2):
            "6910476c375c4125ece05984f4b4c5684efdbd9257fc9b185152e6dca15e08ee",
        ("friendster", 0.05, 3):
            "ed5cfbea7f897d5dde4e54f04af005efac85eb548bdc2067cefacd42caaf73ec",
        ("memetracker", 0.05, 1):
            "864e1add757f36eca3908696bf5d3df50dc608ea6af2f43a19737e5a8b82cbb8",
        ("memetracker", 0.05, 2):
            "f59d959b431f8aed0031ccef866ea960174e89fa89698c3fb71c5ba006204a45",
        ("memetracker", 0.05, 3):
            "6320166b1a9c65b9532c0f1c3d929843c97691218c3ea66f16e2d43d1fc23fbd",
        ("webgraph", 0.05, 1):
            "955f31c0d35021ee76b01a102b2f69063c76ea9c447b80ac84143149bf674340",
        ("webgraph", 0.05, 2):
            "8ee05c78ef4f5333be5e6c509dd62e10608101fb9d537c4a8d395f1f0d3c756a",
        ("webgraph", 0.05, 3):
            "18df7fdad736eee0ff83614190ea819bcc48ebe70ac7da5c482ae4e6ae2a3d0b",
        ("webgraph", 0.25, 1):
            "790cfebf0e7130c237a105e9765b04c00bd668c07fccc288f18df4a8f8554ce0",
        ("webgraph", 1.0, 1):
            "cb60418c6614abcdefd28635ae827e06dbfccfec0de818e7509f0543c2c16294",
        ("friendster", 0.25, 1):
            "5d886e209442d3765d4d749fb3515f1b28d5648ac3c0cf83d6e866d9973521b3",
    }

    @pytest.mark.parametrize("case", sorted(PINNED), ids=str)
    def test_layout_is_unchanged(self, case):
        assert layout_sha256(load_dataset(*case)) == self.PINNED[case]
