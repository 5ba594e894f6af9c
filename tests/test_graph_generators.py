"""Tests for the random-graph generators."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    barabasi_albert,
    community_graph,
    copying_model,
    erdos_renyi,
    ring_of_cliques,
    rmat,
    watts_strogatz,
)
from repro.graph.generators import _BoundedDraws

STREAM = (
    "numpy {} no longer draws this like numpy 2.4.6, where the bulk dataset "
    "generators were checked to consume the per-call random stream: every "
    "dataset graph (tests/test_datasets.py::TestPinnedLayouts) will move"
).format(np.__version__)


class TestNumpyStream:
    """What the generators assume of numpy's random stream, checked directly,
    so a numpy upgrade that breaks it names the cause, not only a hash."""

    @pytest.mark.parametrize("m", [1, 2, 5, 6])
    @pytest.mark.parametrize("n", [3, 42, 1_000_003, 3 << 30])
    def test_batched_bounded_draws_equal_scalar_draws(self, m, n):
        batched, scalar = np.random.default_rng(m * n), np.random.default_rng(m * n)
        drawn = batched.integers(0, n, size=m).tolist() + [int(batched.integers(0, n))]
        assert drawn == [int(scalar.integers(0, n)) for _ in range(m + 1)], STREAM

    def test_cdf_searchsorted_equals_weighted_choice(self):
        popularity = 1.0 / np.arange(1, 201) ** 0.8
        popularity /= popularity.sum()
        cdf = popularity.cumsum()
        cdf /= cdf[-1]
        hoisted, choice = np.random.default_rng(5), np.random.default_rng(5)
        drawn = [int(cdf.searchsorted(hoisted.random(), side="right"))
                 for _ in range(5_000)]
        assert drawn == [int(choice.choice(200, p=popularity))
                         for _ in range(5_000)], STREAM

    # 3 << 30 and 2**31 + 1 reject about a quarter / half of all words.
    @pytest.mark.parametrize("n", [2, 7, 4_000, 2**31 + 1, 3 << 30])
    @pytest.mark.parametrize("m", [1, 2, 6])
    def test_replayed_picks_equal_scalar_draws(self, n, m):
        replayed, scalar = np.random.default_rng(n + m), np.random.default_rng(n + m)
        for rng in (replayed, scalar):
            # Start mid-stream, with half a 64-bit word buffered.
            rng.random()
            rng.integers(0, 10)
        draws, picks, expected = _BoundedDraws(replayed), [], []
        for _node in range(300):
            pool = range(n)
            picks.append(list(draws.distinct(pool, min(m, n))))
            chosen: set[int] = set()
            while len(chosen) < min(m, n):
                chosen.add(pool[int(scalar.integers(0, n))])
            expected.append(list(chosen))
        draws.close()
        assert picks == expected, STREAM
        # The generator continues exactly where the scalar calls left it,
        # including numpy's buffered half of a 64-bit word.
        assert int(replayed.integers(0, 1000)) == int(scalar.integers(0, 1000)), STREAM
        assert replayed.random() == scalar.random(), STREAM


def adjacency(graph):
    return [(node, list(graph.out_neighbors(node)), list(graph.in_neighbors(node)))
            for node in graph.nodes()] + [graph.num_edges]


def one_call_per_draw_erdos_renyi(num_nodes, num_edges, seed):
    rng = np.random.default_rng(seed)
    graph = Graph()
    for node in range(num_nodes):
        graph.add_node(node)
    placed = 0
    while placed < num_edges:
        batch = max(1024, num_edges - placed)
        us = rng.integers(0, num_nodes, size=batch).tolist()
        vs = rng.integers(0, num_nodes, size=batch).tolist()
        for u, v in zip(us, vs, strict=True):
            if u != v and graph.add_edge(u, v):
                placed += 1
                if placed == num_edges:
                    break
    return graph


def one_call_per_draw_community_graph(k, size, intra, inter, spread, seed):
    rng = np.random.default_rng(seed)
    graph = Graph()
    sizes = np.maximum(3, (size * rng.lognormal(0.0, spread, k)).astype(np.int64))
    members, base = [], 0
    for n in sizes.tolist():
        members.append(list(range(base, base + n)))
        m = min(intra // 2 + 1, n - 1)
        repeated = []
        for u in range(1, m + 1):
            for v in range(u):
                graph.add_edge(base + u, base + v)
                repeated += (base + u, base + v)
        for u in range(m + 1, n):
            targets = set()
            while len(targets) < m:
                targets.add(repeated[rng.integers(0, len(repeated))])
            for v in targets:
                graph.add_edge(base + u, v)
                repeated += (base + u, v)
        base += n
    popularity = 1.0 / np.arange(1, k + 1) ** 0.8
    popularity /= popularity.sum()
    for c, ids in enumerate(members):
        for _ in range(rng.poisson(inter * len(ids))):
            u = ids[rng.integers(0, len(ids))]
            other = int(rng.choice(k, p=popularity))
            if other != c:
                graph.add_edge(u, members[other][rng.integers(0, len(members[other]))])
    return graph


class TestBulkBuildsEqualOneCallPerDraw:
    """The bulk generators against their one-numpy-call, one-add_edge
    reference: same nodes, rows and row order, for every parameter."""

    # (5, 20) is complete and (40, 1200) dense, so duplicates force
    # several batches and the stop lands partway through one.
    @pytest.mark.parametrize("n,e", [(2, 2), (5, 20), (40, 1200), (300, 2000)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_erdos_renyi(self, n, e, seed):
        assert adjacency(erdos_renyi(n, e, seed=seed)) == adjacency(
            one_call_per_draw_erdos_renyi(n, e, seed))

    @pytest.mark.parametrize("params", [
        (2, 3, 1, 0.0, 0.0), (3, 4, 2, 2.0, 1.0), (5, 20, 5, 0.5, 0.35),
        (13, 20, 10, 2.0, 0.35), (4, 60, 12, 0.25, 0.0),
    ])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_community_graph(self, params, seed):
        assert adjacency(community_graph(*params, seed=seed)) == adjacency(
            one_call_per_draw_community_graph(*params, seed))

    # rmat draws as it did; only its build moved onto add_edges. Scale 1
    # and 2 saturate, so the generator stops short of num_edges.
    @pytest.mark.parametrize("scale,e", [(1, 5), (2, 50), (6, 3000), (10, 4000)])
    def test_rmat(self, scale, e, monkeypatch):
        bulk = adjacency(rmat(scale, e, seed=3))
        monkeypatch.setattr(Graph, "add_edges", lambda graph, us, vs: sum(
            graph.add_edge(u, v) for u, v in zip(us, vs, strict=True)))
        assert bulk == adjacency(rmat(scale, e, seed=3))


class TestErdosRenyi:
    def test_exact_edge_count(self):
        g = erdos_renyi(50, 120, seed=0)
        assert g.num_nodes == 50
        assert g.num_edges == 120

    def test_deterministic(self):
        a = erdos_renyi(40, 80, seed=9)
        b = erdos_renyi(40, 80, seed=9)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_different_seeds_differ(self):
        a = erdos_renyi(40, 80, seed=1)
        b = erdos_renyi(40, 80, seed=2)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_no_self_loops(self):
        g = erdos_renyi(30, 100, seed=3)
        assert all(u != v for u, v in g.edges())

    def test_rejects_impossible(self):
        with pytest.raises(ValueError):
            erdos_renyi(1, 5)


class TestBarabasiAlbert:
    def test_node_and_edge_counts(self):
        m = 3
        n = 100
        g = barabasi_albert(n, m, seed=0)
        assert g.num_nodes == n
        # Seed clique has m(m+1)/2 edges; each later node adds exactly m.
        assert g.num_edges == m * (m + 1) // 2 + (n - m - 1) * m

    def test_power_law_hubs_exist(self):
        g = barabasi_albert(2000, 2, seed=1)
        degrees = sorted((g.degree(u) for u in g.nodes()), reverse=True)
        # The top hub should be far above the average degree (heavy tail).
        average = 2 * g.num_edges / g.num_nodes
        assert degrees[0] > 8 * average

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            barabasi_albert(3, 3)

    def test_deterministic(self):
        a = barabasi_albert(200, 4, seed=5)
        b = barabasi_albert(200, 4, seed=5)
        assert sorted(a.edges()) == sorted(b.edges())


class TestRmat:
    def test_counts_close_to_requested(self):
        g = rmat(10, 4000, seed=0)
        assert g.num_nodes == 1024
        assert g.num_edges == 4000

    def test_skewed_degree_distribution(self):
        g = rmat(11, 10000, seed=2)
        degrees = np.array([g.degree(u) for u in g.nodes()])
        # R-MAT with Graph500 params is highly skewed: max >> mean.
        assert degrees.max() > 10 * degrees.mean()

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            rmat(5, 10, a=0.5, b=0.3, c=0.3)

    def test_deterministic(self):
        a = rmat(8, 500, seed=4)
        b = rmat(8, 500, seed=4)
        assert sorted(a.edges()) == sorted(b.edges())


class TestWattsStrogatz:
    def test_no_rewire_is_ring_lattice(self):
        g = watts_strogatz(10, 4, rewire_prob=0.0, seed=0)
        for u in range(10):
            assert g.has_edge(u, (u + 1) % 10)
            assert g.has_edge(u, (u + 2) % 10)

    def test_edge_count_constant_under_rewiring(self):
        lattice = watts_strogatz(50, 6, 0.0, seed=0)
        rewired = watts_strogatz(50, 6, 0.3, seed=0)
        assert lattice.num_edges == rewired.num_edges

    def test_odd_nearest_rejected(self):
        with pytest.raises(ValueError):
            watts_strogatz(10, 3, 0.1)


class TestCopyingModel:
    def test_node_count_and_out_degree_bound(self):
        g = copying_model(300, 5, seed=0)
        assert g.num_nodes == 300
        for u in range(6, 300):
            assert g.out_degree(u) <= 5

    def test_copying_creates_popular_pages(self):
        g = copying_model(2000, 5, copy_prob=0.8, seed=1)
        in_degrees = sorted((g.in_degree(u) for u in g.nodes()), reverse=True)
        mean_in = g.num_edges / g.num_nodes
        assert in_degrees[0] > 10 * mean_in

    def test_neighborhood_overlap_is_high(self):
        # The property the WebGraph analogue needs: pages linked to by a
        # common prototype share much of their out-neighborhood.
        g = copying_model(1000, 8, copy_prob=0.9, seed=3)
        overlaps = []
        for u in range(500, 520):
            for v in range(u + 1, u + 3):
                a = set(g.out_neighbors(u))
                b = set(g.out_neighbors(v))
                if a and b:
                    overlaps.append(len(a & b) / min(len(a), len(b)))
        # Some pairs must overlap strongly (copied prototypes).
        assert max(overlaps) > 0.4

    def test_rejects_zero_out_degree(self):
        with pytest.raises(ValueError):
            copying_model(10, 0)


class TestRingOfCliques:
    def test_structure(self):
        g = ring_of_cliques(3, 4)
        assert g.num_nodes == 12
        # Each clique: 4*3 directed edges; 3 bridges of 2 directed edges.
        assert g.num_edges == 3 * 12 + 3 * 2

    def test_single_clique_no_bridges(self):
        g = ring_of_cliques(1, 3)
        assert g.num_nodes == 3
        assert g.num_edges == 6
