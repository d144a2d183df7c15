"""Similarity matrices and the spatial neighborhood graph.

These two structures are the only inputs the generative model sees: a
per-modality Fisher-Z transformed similarity matrix (diagonal retained,
it feeds the new-domain proposal) and a binary adjacency graph over the
tissue coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError
from .features import Embedding

FISHER_CLIP = 0.9999
FISHER_BOUND = float(np.arctanh(FISHER_CLIP))


def cosine_similarity(emb: Embedding | np.ndarray, validate: bool = True) -> np.ndarray:
    """Scaled dot-product similarity of standardized embedding rows.

    R[i, j] = row_i . row_j / d, diagonal included.  Rows are expected to
    be cell-wise z-scored (zero rows from degenerate cells are allowed).
    """
    E = emb.values if isinstance(emb, Embedding) else np.asarray(emb, dtype=float)
    n, d = E.shape
    if validate:
        mu = E.mean(axis=1)
        sd = E.std(axis=1, ddof=1)
        bad = (np.abs(mu) > 1e-6) | ((np.abs(sd - 1.0) > 1e-6) & (sd != 0.0))
        if bad.any():
            raise ValueError(
                f"embedding row {int(np.flatnonzero(bad)[0])} is not cell-standardized"
            )
    R = (E @ E.T) / d
    return (R + R.T) / 2.0


def fisher_z(R: np.ndarray, clip: float = FISHER_CLIP) -> np.ndarray:
    """arctanh of similarities clipped to (-clip, clip); diagonal retained."""
    R = np.asarray(R, dtype=float)
    if not np.isfinite(R).all():
        i, j = np.argwhere(~np.isfinite(R))[0]
        raise DataError(f"non-finite similarity at cell pair ({int(i)}, {int(j)})")
    if not np.allclose(R, R.T, atol=1e-12):
        raise DataError("similarity matrix is not symmetric")
    return np.arctanh(np.clip(R, -clip, clip))


def check_similarity_matrix(A: np.ndarray) -> np.ndarray:
    """Validate a Fisher-Z similarity matrix (finite, symmetric, bounded)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError("similarity matrix must be square")
    if not np.isfinite(A).all():
        i, j = np.argwhere(~np.isfinite(A))[0]
        raise DataError(f"non-finite similarity at cell pair ({int(i)}, {int(j)})")
    if not np.allclose(A, A.T, atol=1e-12):
        raise DataError("similarity matrix is not symmetric")
    if np.abs(A).max() > FISHER_BOUND + 1e-9:
        raise DataError("similarity entries exceed the Fisher-Z clipping bound")
    return A


@dataclass
class NeighborhoodGraph:
    """Binary spatial adjacency with neighbor lists and the radius used."""

    adjacency: np.ndarray
    delta: float
    neighbor_lists: list[np.ndarray] = field(repr=False, default_factory=list)

    def __post_init__(self) -> None:
        self.adjacency = np.asarray(self.adjacency, dtype=float)
        if not self.neighbor_lists:
            self.neighbor_lists = [
                np.flatnonzero(self.adjacency[i]) for i in range(self.n_cells)
            ]

    @property
    def n_cells(self) -> int:
        return self.adjacency.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.adjacency.sum())

    @property
    def avg_degree(self) -> float:
        return self.total_weight / self.n_cells


def build_neighborhood(coords: np.ndarray, delta: float) -> NeighborhoodGraph:
    """Adjacency W[i, j] = 1 iff i != j and ||s_i - s_j|| <= delta.

    Pairs at exactly distance delta are included.  Distinct cells with
    identical coordinates are neighbors.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    P = np.asarray(coords, dtype=float)
    if P.ndim != 2 or P.shape[1] != 2:
        raise DataError("coordinates must be an n x 2 array")
    if not np.isfinite(P).all():
        raise DataError("coordinates contain non-finite entries")
    W = (cdist(P, P, "sqeuclidean") <= delta * delta).astype(float)
    np.fill_diagonal(W, 0.0)
    return NeighborhoodGraph(adjacency=W, delta=float(delta))
