"""Landmark-to-node BFS distance tables.

The |L| x n matrix of hop distances from every landmark over the
bi-directed graph is what both smart-routing schemes build on: landmark
routing derives its node-to-processor distances from it, and embed routing
uses it as the target metric for the embedding. The paper prices it at one
BFS per landmark, O(|L| * e) (§3.4.1); here the landmarks share one sweep,
ceil(|L| / 64) passes over the edges per level — same matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..graph.csr import CSRGraph

#: Sentinel for "no path" in distance matrices.
UNREACHABLE = -1


class LandmarkDistances:
    """Distance matrix ``matrix[l, u]`` = hops from landmark ``l`` to node ``u``."""

    def __init__(self, landmarks: Sequence[int], matrix: np.ndarray) -> None:
        if matrix.shape[0] != len(landmarks):
            raise ValueError("matrix rows must match landmark count")
        self.landmarks = list(landmarks)
        self.matrix = matrix

    @classmethod
    def compute(cls, csr: CSRGraph, landmarks: Sequence[int]) -> "LandmarkDistances":
        """Full BFS distances from every landmark, in one bit-parallel sweep."""
        return cls(landmarks, csr.multi_source_distances(landmarks))

    @property
    def num_landmarks(self) -> int:
        return len(self.landmarks)

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[1]

    def to_node(self, node_index: int) -> np.ndarray:
        """Distances from every landmark to one node (length |L|)."""
        return self.matrix[:, node_index]

    def pair_matrix(self) -> np.ndarray:
        """|L| x |L| landmark-to-landmark hop distances."""
        columns = np.array(self.landmarks, dtype=np.int64)
        return self.matrix[:, columns]

    def triangle_bounds(self, u: int, v: int) -> tuple[int, int]:
        """Landmark bounds on d(u, v) (paper Eq. 2).

        Returns ``(lower, upper)`` over all landmarks reaching both nodes;
        ``(0, UNREACHABLE)`` if no landmark reaches both.
        """
        du = self.matrix[:, u].astype(np.int64)
        dv = self.matrix[:, v].astype(np.int64)
        mask = (du >= 0) & (dv >= 0)
        if not mask.any():
            return (0, UNREACHABLE)
        upper = int((du[mask] + dv[mask]).min())
        lower = int(np.abs(du[mask] - dv[mask]).max())
        return (lower, upper)

    def storage_bytes(self) -> int:
        """Router-side footprint of the raw landmark table."""
        return self.matrix.nbytes
