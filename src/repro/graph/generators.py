"""Seeded random-graph generators.

The paper evaluates on four real graphs (WebGraph, Friendster, Memetracker,
Freebase) that are far too large for an in-process Python reproduction and
not redistributable here. These generators produce the *classes* of graph
the evaluation depends on:

* power-law degree distributions (preferential attachment, R-MAT),
* web-like locality and neighbourhood overlap (copying model),
* sparse hyperlink-style graphs (R-MAT with low edge density),
* near-tree knowledge-graph sparsity (low-degree R-MAT / random).

All generators are deterministic for a fixed seed and return a
:class:`~repro.graph.digraph.Graph`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .digraph import Graph


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


class _BoundedDraws:
    """``rng.integers(0, n)`` calls (``n < 2**32``) replayed in bulk.

    numpy draws such an integer by Lemire's method on the generator's
    next 32-bit word: ``word * n >> 32``, drawing again while the low 32
    bits of the product fall below ``2**32 % n``. This replays that
    arithmetic on words fetched a chunk at a time, so a draw costs a few
    Python operations instead of a numpy call (~10 us); :meth:`close`
    rewinds the generator and skips exactly the words used, leaving it
    where the scalar calls would have. ``tests/test_graph_generators.py``
    checks the replay against numpy's own draws.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._start = rng.bit_generator.state
        self._words: list[int] = []
        self._used = 0

    def _fetch(self, count: int) -> list[int]:
        return self._rng.integers(0, 1 << 32, size=count, dtype=np.uint32).tolist()

    def distinct(self, pool: Sequence[int], m: int) -> set[int]:
        """The set ``while len(s) < m: s.add(pool[rng.integers(0, len(pool))])``
        builds, in the same insertion (hence iteration) order."""
        n = len(pool)
        words, used = self._words, self._used
        picked: set[int] = set()
        while len(picked) < m:
            if used == len(words):
                words += self._fetch(1 << 14)
            product = words[used] * n
            used += 1
            low = product & 0xFFFFFFFF
            if low >= n or low >= (0x100000000 - n) % n:
                picked.add(pool[product >> 32])
        self._used = used
        return picked

    def close(self) -> None:
        """Leave the generator just past the words the draws used."""
        self._rng.bit_generator.state = self._start
        self._fetch(self._used)


def erdos_renyi(num_nodes: int, num_edges: int, seed=0) -> Graph:
    """Uniform random directed graph with ``num_edges`` distinct edges."""
    if num_nodes < 2 and num_edges > 0:
        raise ValueError("need at least two nodes to place edges")
    rng = _rng(seed)
    graph = Graph()
    for node in range(num_nodes):
        graph.add_node(node)
    # Each batch keeps what one add_edge per draw would: the first draw
    # of every new pair that is not a self-loop, in draw order, up to
    # exactly ``num_edges``.
    placed_keys = np.empty(0, dtype=np.int64)
    sources: list[int] = []
    targets: list[int] = []
    while len(sources) < num_edges:
        batch = max(1024, num_edges - len(sources))
        us = rng.integers(0, num_nodes, size=batch)
        vs = rng.integers(0, num_nodes, size=batch)
        keys = us * num_nodes + vs
        first = np.sort(np.unique(keys, return_index=True)[1])
        first = first[(us[first] != vs[first]) & ~np.isin(keys[first], placed_keys)]
        first = first[: num_edges - len(sources)]
        placed_keys = np.concatenate((placed_keys, keys[first]))
        sources += us[first].tolist()
        targets += vs[first].tolist()
    graph.add_edges(sources, targets)
    return graph


def barabasi_albert(num_nodes: int, edges_per_node: int, seed=0) -> Graph:
    """Preferential-attachment graph (directed: new node -> chosen targets).

    Produces the heavy-tailed degree distribution typical of social
    networks; used for the Friendster analogue.
    """
    m = edges_per_node
    if num_nodes < m + 1:
        raise ValueError("num_nodes must exceed edges_per_node")
    rng = _rng(seed)
    graph = Graph()
    # Repeated-nodes list: each endpoint appearance is one lottery ticket,
    # which realises preferential attachment without degree bookkeeping.
    repeated: list[int] = []
    for node in range(m + 1):
        graph.add_node(node)
    for u in range(1, m + 1):
        for v in range(u):
            graph.add_edge(u, v)
            repeated.extend((u, v))
    for u in range(m + 1, num_nodes):
        targets: set[int] = set()
        while len(targets) < m:
            pick = int(repeated[rng.integers(0, len(repeated))])
            if pick != u:
                targets.add(pick)
        for v in targets:
            graph.add_edge(u, v)
            repeated.extend((u, v))
    return graph


def rmat(
    scale: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed=0,
) -> Graph:
    """R-MAT recursive-matrix generator (2^scale nodes).

    The (a, b, c, d) quadrant probabilities control skew; the defaults are
    the Graph500 parameters, giving a power-law graph with community
    structure. Self-loops and duplicate edges are dropped, so the realised
    edge count can fall slightly below ``num_edges``.
    """
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("rmat probabilities exceed 1")
    rng = _rng(seed)
    n = 1 << scale
    graph = Graph()
    for node in range(n):
        graph.add_node(node)
    # Vectorised bit construction: each of `scale` levels picks a quadrant.
    remaining = num_edges
    while remaining > 0:
        batch = remaining
        us = np.zeros(batch, dtype=np.int64)
        vs = np.zeros(batch, dtype=np.int64)
        for _level in range(scale):
            r = rng.random(batch)
            right = (r >= a) & (r < a + b)
            down = (r >= a + b) & (r < a + b + c)
            diag = r >= a + b + c
            us = (us << 1) | (down | diag)
            vs = (vs << 1) | (right | diag)
        loops = us == vs
        added = graph.add_edges(us[~loops].tolist(), vs[~loops].tolist())
        if added == 0:
            # Saturated (tiny graphs): accept fewer edges than asked.
            break
        remaining -= added
    return graph


def watts_strogatz(num_nodes: int, nearest: int, rewire_prob: float, seed=0) -> Graph:
    """Ring lattice with random rewiring — high locality, used in tests.

    ``nearest`` must be even; each node connects to ``nearest/2`` clockwise
    neighbors (directed), then each edge rewires with ``rewire_prob``.
    """
    if nearest % 2 != 0:
        raise ValueError("nearest must be even")
    rng = _rng(seed)
    graph = Graph()
    for node in range(num_nodes):
        graph.add_node(node)
    half = nearest // 2
    for u in range(num_nodes):
        for offset in range(1, half + 1):
            v = (u + offset) % num_nodes
            if rng.random() < rewire_prob:
                v = int(rng.integers(0, num_nodes))
                while v == u or graph.has_edge(u, v):
                    v = int(rng.integers(0, num_nodes))
            if u != v:
                graph.add_edge(u, v)
    return graph


def copying_model(
    num_nodes: int,
    out_degree: int,
    copy_prob: float = 0.7,
    seed=0,
) -> Graph:
    """Kleinberg copying model — web-graph-like structure.

    Each new page links to ``out_degree`` targets; with ``copy_prob`` each
    link copies the corresponding link of a random earlier "prototype"
    page, otherwise it points to a uniform earlier page. Copying yields
    both power-law in-degrees and the strong neighbourhood overlap between
    related pages that the WebGraph experiments rely on.
    """
    if out_degree < 1:
        raise ValueError("out_degree must be >= 1")
    rng = _rng(seed)
    graph = Graph()
    seed_size = out_degree + 1
    for node in range(seed_size):
        graph.add_node(node)
    for u in range(1, seed_size):
        for v in range(u):
            graph.add_edge(u, v)
    out_lists: list[list[int]] = [
        list(graph.out_neighbors(node)) for node in range(seed_size)
    ]
    for u in range(seed_size, num_nodes):
        prototype = out_lists[int(rng.integers(0, u))]
        targets: set[int] = set()
        for _slot in range(out_degree):
            if prototype and rng.random() < copy_prob:
                v = prototype[int(rng.integers(0, len(prototype)))]
            else:
                v = int(rng.integers(0, u))
            if v != u:
                targets.add(v)
        for v in targets:
            graph.add_edge(u, v)
        out_lists.append(sorted(targets))
    return graph


def community_graph(
    num_communities: int,
    community_size: int,
    intra_degree: int = 6,
    inter_degree: float = 1.0,
    size_spread: float = 0.35,
    seed=0,
) -> Graph:
    """Power-law communities with sparse cross links (web/social-like).

    Real web graphs are locally dense: pages of one site link heavily to
    each other and sparsely elsewhere, so 2-hop neighbourhoods of nearby
    pages overlap strongly — the *topology-aware locality* smart routing
    exploits. This generator plants ``num_communities`` preferential-
    attachment communities (sizes lognormal around ``community_size``) and
    adds ``inter_degree`` expected cross-community edges per node, with
    popular communities attracting more of them.

    The random stream is the one ``rng.integers`` / ``rng.choice`` calls
    per draw would consume, drawn in bulk: preferential picks are
    replayed from raw words (:class:`_BoundedDraws`), and each cross link
    draws its community by ``searchsorted`` on one CDF, the arithmetic
    of ``choice(k, p=popularity)``. Edges are collected in insertion
    order and built by one :meth:`Graph.add_edges`, so node order and
    every adjacency row keep the order the per-edge build gave them
    (``tests/test_datasets.py`` pins them by sha256).
    """
    if num_communities < 2 or community_size < 3:
        raise ValueError("need >= 2 communities of >= 3 nodes")
    if intra_degree < 1:
        raise ValueError("intra_degree must be >= 1")
    rng = _rng(seed)
    sizes = np.maximum(
        3,
        (community_size * rng.lognormal(0.0, size_spread, num_communities))
        .astype(np.int64),
    ).tolist()
    starts: list[int] = []
    sources: list[int] = []
    targets: list[int] = []
    draws = _BoundedDraws(rng)
    base = 0
    for size in sizes:
        starts.append(base)
        # Preferential attachment inside the community: power-law degrees
        # at community scale without global hubs. `repeated` holds every
        # edge as (u, v): each endpoint appearance is one lottery ticket.
        m = min(intra_degree // 2 + 1, size - 1)
        repeated: list[int] = []
        for u in range(base + 1, base + m + 1):
            for v in range(base, u):
                repeated.append(u)
                repeated.append(v)
        for u in range(base + m + 1, base + size):
            # u is not in `repeated` yet, so it never picks itself.
            for v in draws.distinct(repeated, m):
                repeated.append(u)
                repeated.append(v)
        sources += repeated[0::2]
        targets += repeated[1::2]
        base += size
    draws.close()
    # Cross links: communities get popularity weights (Zipf-ish), nodes
    # link out to a random node in a popularity-weighted other community.
    popularity = 1.0 / np.arange(1, num_communities + 1) ** 0.8
    popularity /= popularity.sum()
    # The CDF rng.choice(num_communities, p=popularity) rebuilds per call.
    cdf = popularity.cumsum()
    cdf /= cdf[-1]
    for c, (start, size) in enumerate(zip(starts, sizes, strict=True)):
        num_links = rng.poisson(inter_degree * size)
        for _ in range(num_links):
            u = start + int(rng.integers(0, size))
            other = int(cdf.searchsorted(rng.random(), side="right"))
            if other == c:
                continue
            sources.append(u)
            targets.append(starts[other] + int(rng.integers(0, sizes[other])))
    graph = Graph()
    graph.add_edges(sources, targets)
    return graph


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """Deterministic test graph: cliques joined in a ring.

    Handy for traversal/partitioning tests because hop distances and
    community structure are known in closed form.
    """
    graph = Graph()
    for c in range(num_cliques):
        base = c * clique_size
        members = range(base, base + clique_size)
        for u in members:
            graph.add_node(u)
        for u in members:
            for v in members:
                if u < v:
                    graph.add_edge(u, v)
                    graph.add_edge(v, u)
    for c in range(num_cliques):
        u = c * clique_size
        v = ((c + 1) % num_cliques) * clique_size
        if u != v:
            graph.add_edge(u, v)
            graph.add_edge(v, u)
    return graph
