"""Similarity matrices and the spatial neighborhood graph.

These two structures are the only inputs the generative model sees: a
per-modality Fisher-Z transformed similarity matrix (diagonal retained,
it feeds the new-domain proposal) and a binary adjacency graph over the
tissue coordinates, stored as one sparse CSR matrix.  The similarity
checks run in blocks of rows and build no n x n temporary, and the
Fisher-Z transform works in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .errors import DataError
from .features import Embedding

FISHER_CLIP = 0.9999
FISHER_BOUND = float(np.arctanh(FISHER_CLIP))
# Rows per block of the similarity checks: 256 rows of a 4,356-cell
# matrix are 9 MB per temporary.
ROW_BLOCK = 256


def cosine_similarity(emb: Embedding | np.ndarray) -> np.ndarray:
    """Scaled dot-product similarity of standardized embedding rows.

    R[i, j] = row_i . row_j / d, diagonal included.  Rows must be
    cell-wise z-scored (zero rows from degenerate cells are allowed).
    ``E @ E.T`` is one symmetric product, so R is exactly symmetric.
    """
    E = emb.values if isinstance(emb, Embedding) else np.asarray(emb, dtype=float)
    n, d = E.shape
    mu = E.mean(axis=1)
    sd = E.std(axis=1, ddof=1)
    bad = (np.abs(mu) > 1e-6) | ((np.abs(sd - 1.0) > 1e-6) & (sd != 0.0))
    if bad.any():
        raise ValueError(
            f"embedding row {int(np.flatnonzero(bad)[0])} is not cell-standardized"
        )
    R = E @ E.T
    R /= d
    return R


def _check_finite_symmetric(A: np.ndarray) -> float:
    """Raise DataError unless A is square, finite (checked first; the first
    bad pair in row-major order is named) and ``np.allclose(A, A.T,
    atol=1e-12)``, in blocks of ROW_BLOCK rows and square tiles.
    Returns max |A|."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DataError("similarity matrix must be square")
    top = 0.0
    for s in range(0, len(A), ROW_BLOCK):
        # max propagates nan, so a finite block maximum means a finite block.
        m = float(np.abs(A[s : s + ROW_BLOCK]).max())
        if not np.isfinite(m):
            i, j = np.argwhere(~np.isfinite(A[s : s + ROW_BLOCK]))[0]
            raise DataError(f"non-finite similarity at cell pair ({int(s + i)}, {int(j)})")
        top = max(top, m)
    # Tile (r, c) against the transpose of tile (c, r), r <= c: each pair
    # is compared once, so the tolerance takes the smaller of |A[i, j]|
    # and |A[j, i]| to cover both of allclose's directions.  A tile equal
    # to its mirror passes that test, so its arithmetic is skipped.
    for r in range(0, len(A), ROW_BLOCK):
        for c in range(r, len(A), ROW_BLOCK):
            upper = A[r : r + ROW_BLOCK, c : c + ROW_BLOCK]
            lower = A[c : c + ROW_BLOCK, r : r + ROW_BLOCK].T
            if np.array_equal(upper, lower):
                continue
            scale = np.minimum(np.abs(upper), np.abs(lower))
            if not (np.abs(upper - lower) <= 1e-12 + 1e-5 * scale).all():
                raise DataError("similarity matrix is not symmetric")
    return top


def fisher_z(R: np.ndarray, clip: float = FISHER_CLIP) -> np.ndarray:
    """arctanh of similarities clipped to (-clip, clip); diagonal retained.

    Works in place: a float64 array R is clipped and transformed in its
    own buffer, and R itself is returned, so no second n x n array is
    made (any other input is first converted to a new float64 array).
    R is checked before it is touched, so a rejected R is left as it was.
    """
    R = np.asarray(R, dtype=float)
    _check_finite_symmetric(R)
    np.clip(R, -clip, clip, out=R)
    return np.arctanh(R, out=R)


def check_similarity_matrix(A: np.ndarray) -> np.ndarray:
    """Validate a Fisher-Z similarity matrix (finite, symmetric, bounded)."""
    A = np.asarray(A, dtype=float)
    if _check_finite_symmetric(A) > FISHER_BOUND + 1e-9:
        raise DataError("similarity entries exceed the Fisher-Z clipping bound")
    return A


@dataclass
class NeighborhoodGraph:
    """Binary spatial adjacency ``W`` and the radius it was built with.

    ``W`` is an n x n CSR matrix with 1.0 at (i, j) iff distinct cells i
    and j are neighbours, and sorted indices.  ``adjacency`` (an O(n^2)
    dense copy built on each access) and ``neighbor_lists`` are derived
    read-only views that the package itself does not use.
    """

    W: sparse.csr_array
    delta: float

    @property
    def n_cells(self) -> int:
        return self.W.shape[0]

    @property
    def total_weight(self) -> float:
        return float(self.W.nnz)

    @property
    def avg_degree(self) -> float:
        return self.total_weight / self.n_cells

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbour indices of cell i (a view into ``W.indices``)."""
        return self.W.indices[self.W.indptr[i] : self.W.indptr[i + 1]]

    @property
    def adjacency(self) -> np.ndarray:
        return self.W.toarray()

    @property
    def neighbor_lists(self) -> list[np.ndarray]:
        return [self.neighbors(i) for i in range(self.n_cells)]


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
    # The margin covers the tree's rounding; the exact rule is the next line.
    i, j = cKDTree(P).query_pairs(delta * (1 + 1e-9), output_type="ndarray").T
    keep = ((P[i] - P[j]) ** 2).sum(axis=1) <= delta * delta
    i, j = i[keep], j[keep]
    W = sparse.csr_array((np.ones(2 * i.size), (np.r_[i, j], np.r_[j, i])), shape=(len(P), len(P)))
    W.sort_indices()
    return NeighborhoodGraph(W=W, delta=float(delta))
