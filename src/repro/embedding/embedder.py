"""Graph embedding into a low-dimensional Euclidean space (§3.4.2).

Pipeline (exactly the paper's): select landmarks, BFS their distances,
place the landmarks by minimizing pairwise *relative* distance error
(Eq. 4) with Simplex Downhill, then place every other node by minimizing
its relative error against all landmarks. Node placement uses the
vectorised batch Nelder–Mead so whole graphs embed in seconds; a
Landmark-MDS linear triangulation provides both the initial guess and a
fast-path alternative (``method="lmds"``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..landmarks.distances import UNREACHABLE, LandmarkDistances
from ..landmarks.selection import select_landmarks
from .simplex import batch_nelder_mead, nelder_mead

_CHUNK = 4096  # nodes embedded per batch (bounds peak memory)


def _finite_distances(hop_distances: np.ndarray) -> np.ndarray:
    """Float copy with UNREACHABLE mapped to (max finite + 2)."""
    out = hop_distances.astype(np.float64)
    # UNREACHABLE sits below every hop distance: max() is the finite max.
    finite_max = out.max(initial=UNREACHABLE)
    if finite_max == UNREACHABLE:
        finite_max = 1.0
    out[out == UNREACHABLE] = finite_max + 2.0
    return out


def classical_mds(pair_matrix: np.ndarray, dim: int) -> np.ndarray:
    """Classical (Torgerson) MDS of a distance matrix — ``(L, dim)``."""
    d = _finite_distances(pair_matrix)
    num = d.shape[0]
    squared = d**2
    centering = np.eye(num) - np.full((num, num), 1.0 / num)
    b = -0.5 * centering @ squared @ centering
    eigenvalues, eigenvectors = np.linalg.eigh(b)
    order = np.argsort(eigenvalues)[::-1][:dim]
    values = np.clip(eigenvalues[order], 0.0, None)
    coords = eigenvectors[:, order] * np.sqrt(values)[None, :]
    if coords.shape[1] < dim:  # rank-deficient: pad with zeros
        pad = np.zeros((num, dim - coords.shape[1]))
        coords = np.hstack([coords, pad])
    return coords


def embed_landmarks(
    pair_matrix: np.ndarray,
    dim: int,
    rounds: int = 3,
    nm_iterations: int = 60,
) -> np.ndarray:
    """Place landmarks: MDS initialisation + Simplex Downhill refinement.

    Refinement is coordinate descent: each round re-optimises every
    landmark's ``dim`` coordinates against the others with Nelder–Mead,
    minimizing the summed relative error of Eq. 4.
    """
    target = _finite_distances(pair_matrix)
    np.fill_diagonal(target, 1.0)  # placeholder; diagonal never used
    coords = classical_mds(pair_matrix, dim)
    num = coords.shape[0]
    if num < 2:
        return coords

    others_mask = ~np.eye(num, dtype=bool)
    for _ in range(rounds):
        for i in range(num):
            other_coords = coords[others_mask[i]]
            other_target = target[i, others_mask[i]]

            def objective(x: np.ndarray) -> float:
                dist = np.sqrt(((other_coords - x) ** 2).sum(axis=1))
                return float(
                    (np.abs(other_target - dist) / other_target).sum()
                )

            best, _value = nelder_mead(
                objective, coords[i], max_iter=nm_iterations, step=0.25
            )
            coords[i] = best
    return coords


def lmds_triangulate(
    landmark_coords: np.ndarray,
    node_landmark_dists: np.ndarray,
) -> np.ndarray:
    """Landmark-MDS placement of all nodes at once (least squares).

    ``node_landmark_dists`` is ``(L, n)`` hop distances (UNREACHABLE
    allowed). Linearises ``||x - l_i||^2 - ||x - l_0||^2`` into a common
    ``(L-1, dim)`` system solved for every node simultaneously.
    """
    dists = _finite_distances(node_landmark_dists)

    l0 = landmark_coords[0]
    rest = landmark_coords[1:]
    a = 2.0 * (rest - l0)  # (L-1, dim)
    norms = (rest**2).sum(axis=1) - (l0**2).sum()  # (L-1,)
    b = norms[:, None] - (dists[1:] ** 2 - dists[0] ** 2)  # (L-1, n)
    # Truncated-SVD solve: when the landmark configuration is nearly rank
    # deficient (few landmarks, or an intrinsically low-dimensional metric),
    # unregularised least squares amplifies noise into huge coordinates.
    solution, *_ = np.linalg.lstsq(a, b, rcond=0.05)  # (dim, n)
    coords = solution.T
    # Nodes live among the landmarks; clamp to a padded bounding box so a
    # badly conditioned node cannot start the refinement at infinity.
    low = landmark_coords.min(axis=0)
    high = landmark_coords.max(axis=0)
    margin = 0.5 * (high - low) + 1.0
    return np.clip(coords, low - margin, high + margin)


def _node_objective_factory(
    landmark_coords: np.ndarray,
    dists_chunk: np.ndarray,
    valid_chunk: np.ndarray,
):
    """Batch objective: mean relative error of a chunk of nodes.

    ``dists_chunk`` is ``(N, L)`` float; ``valid_chunk`` ``(N, L)`` bool
    marking landmark distances that exist and are nonzero.
    """
    safe = np.where(valid_chunk, dists_chunk, 1.0)
    weight = valid_chunk.astype(np.float64)
    denom = np.maximum(weight.sum(axis=1), 1.0)

    def objective(points: np.ndarray) -> np.ndarray:
        diff = points[:, None, :] - landmark_coords[None, :, :]
        euclidean = np.sqrt((diff**2).sum(axis=2))  # (N, L)
        err = np.abs(safe - euclidean) / safe * weight
        return err.sum(axis=1) / denom

    return objective


class GraphEmbedding:
    """Node coordinates preserving hop distances (approximately)."""

    def __init__(
        self,
        node_ids: np.ndarray,
        coords: np.ndarray,
        landmark_node_ids: List[int],
        landmark_coords: np.ndarray,
    ) -> None:
        self.node_ids = node_ids
        self.coords = coords.astype(np.float64)
        self.landmark_node_ids = landmark_node_ids
        self.landmark_coords = landmark_coords.astype(np.float64)
        self._row: Dict[int, int] = {n: i for i, n in enumerate(node_ids.tolist())}
        self._extra: Dict[int, np.ndarray] = {}

    # -- construction -------------------------------------------------------
    @classmethod
    def embed(
        cls,
        csr: CSRGraph,
        dim: int = 10,
        num_landmarks: int = 96,
        min_separation: int = 3,
        method: str = "simplex",
        landmark_distances: Optional[LandmarkDistances] = None,
        nm_iterations: int = 120,
    ) -> "GraphEmbedding":
        """Embed every node of ``csr`` (bi-directed view expected).

        ``method="simplex"`` refines the Landmark-MDS initialisation with
        batch Nelder–Mead (the paper's algorithm); ``method="lmds"`` stops
        at the linear triangulation (fast path, used for ablation).
        """
        if method not in ("simplex", "lmds"):
            raise ValueError(f"unknown embedding method: {method!r}")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if landmark_distances is None:
            landmarks = select_landmarks(csr, num_landmarks, min_separation)
            landmark_distances = LandmarkDistances.compute(csr, landmarks)
        ld = landmark_distances
        landmark_coords = embed_landmarks(ld.pair_matrix(), dim)
        coords = lmds_triangulate(landmark_coords, ld.matrix)

        if method == "simplex":
            dists = ld.matrix.T.astype(np.float64)  # (n, L)
            valid = (dists != UNREACHABLE) & (dists > 0)
            for start in range(0, coords.shape[0], _CHUNK):
                stop = min(start + _CHUNK, coords.shape[0])
                objective = _node_objective_factory(
                    landmark_coords, dists[start:stop], valid[start:stop]
                )
                refined, _values = batch_nelder_mead(
                    objective, coords[start:stop], max_iter=nm_iterations
                )
                coords[start:stop] = refined
        # Landmarks sit exactly at their optimised positions.
        for row, landmark in enumerate(ld.landmarks):
            coords[landmark] = landmark_coords[row]

        landmark_node_ids = [int(csr.node_ids[l]) for l in ld.landmarks]
        return cls(csr.node_ids, coords, landmark_node_ids, landmark_coords)

    # -- lookups ------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def knows(self, node_id: int) -> bool:
        return node_id in self._row or node_id in self._extra

    def coordinates_of(self, node_id: int) -> Optional[np.ndarray]:
        row = self._row.get(node_id)
        if row is not None:
            return self.coords[row]
        return self._extra.get(node_id)

    def euclidean(self, node_a: int, node_b: int) -> float:
        """Embedded distance between two nodes (Eq. 6's norm)."""
        a = self.coordinates_of(node_a)
        b = self.coordinates_of(node_b)
        if a is None or b is None:
            raise KeyError("node not embedded")
        return float(np.linalg.norm(a - b))

    def storage_bytes(self) -> int:
        """Router-side footprint: O(nD) coordinates."""
        extra = sum(v.nbytes for v in self._extra.values())
        return self.coords.nbytes + extra

    # -- incremental maintenance ---------------------------------------------
    def add_nodes_lmds(self, node_ids: Sequence[int],
                       vectors: np.ndarray) -> None:
        """Batch-embed new nodes via LMDS triangulation.

        ``vectors`` is ``(len(node_ids), L)`` landmark distances (inf or
        UNREACHABLE allowed). One linear solve for the whole batch, no
        per-node optimisation; used when thousands of nodes arrive
        between offline re-embeddings (the Fig 10 robustness experiment).
        """
        if len(node_ids) == 0:
            return
        dists = np.asarray(vectors, dtype=np.float64).T.copy()  # (L, n_new)
        dists[~np.isfinite(dists)] = UNREACHABLE
        coords = lmds_triangulate(self.landmark_coords, dists)
        for node_id, point in zip(node_ids, coords, strict=True):
            if self.knows(node_id):
                raise ValueError(f"node {node_id} already embedded")
            self._extra[int(node_id)] = point

    def refresh_node(
        self,
        node_id: int,
        neighbor_coords: Sequence[np.ndarray],
        blend: float = 0.5,
    ) -> None:
        """Incrementally (re-)place one node from its neighbors' coordinates.

        The live-update refresh path: a node is (approximately) one hop
        from each neighbor, so the centroid of the embedded neighbors is
        the least-squares one-hop placement — one Jacobi relaxation step
        in embedding space, no landmark BFS required. New nodes take the
        centroid outright (falling back to the landmark centroid when no
        neighbor is embedded yet); already-embedded nodes blend
        ``blend`` of the centroid into their existing coordinates, which
        damps oscillation when a whole dirty region refreshes at once.
        Drift against true hop distances accumulates across refreshes;
        only a fresh :meth:`embed` clears it, as only a fresh
        ``LandmarkIndex.build`` clears the landmark index's.
        """
        if not 0.0 <= blend <= 1.0:
            raise ValueError("blend must lie in [0, 1]")
        points = [c for c in neighbor_coords if c is not None]
        centroid = (
            np.mean(np.stack(points), axis=0) if points else None
        )
        row = self._row.get(node_id)
        if row is None and node_id not in self._extra:
            if centroid is None:
                centroid = self.landmark_coords.mean(axis=0)
            self._extra[node_id] = centroid
            return
        if centroid is None:
            return  # no information; keep the existing placement
        old = self.coords[row] if row is not None else self._extra[node_id]
        updated = (1.0 - blend) * old + blend * centroid
        if row is not None:
            self.coords[row] = updated
        else:
            self._extra[node_id] = updated

    def clone(self) -> "GraphEmbedding":
        """Independent copy (shared immutable node ids, copied coords).

        The live-update experiments run several services from identical
        starting preprocessing; cloning skips re-running the embedding.
        """
        copy = GraphEmbedding(
            self.node_ids,
            self.coords,  # the constructor astype() call copies
            list(self.landmark_node_ids),
            self.landmark_coords,
        )
        copy._extra = {
            node: vec.copy() for node, vec in self._extra.items()
        }
        return copy

    # -- evaluation -------------------------------------------------------------
    def relative_errors(
        self,
        csr: CSRGraph,
        pairs: Sequence[Tuple[int, int]],
        max_hops: int = 8,
    ) -> np.ndarray:
        """Eq. 4 relative error for sampled node-id pairs (Fig 12a).

        Pairs whose true distance is 0 or exceeds ``max_hops`` are skipped.
        """
        errors: List[float] = []
        by_source: Dict[int, List[int]] = {}
        for a, b in pairs:
            by_source.setdefault(a, []).append(b)
        for a, targets in by_source.items():
            dist = csr.bfs_distances([csr.index_of(a)], max_hops=max_hops)
            for b in targets:
                true = int(dist[csr.index_of(b)])
                if true <= 0:
                    continue
                embedded = self.euclidean(a, b)
                errors.append(abs(true - embedded) / true)
        return np.array(errors)
