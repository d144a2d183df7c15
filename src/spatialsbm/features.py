"""Per-modality feature frontends.

Raw count matrices are reduced to low-dimensional embeddings with a
deterministic pipeline per modality kind:

* ``rna``  -- library-size normalization, log1p, feature z-score, PCA
* ``atac`` -- binarization, TF-IDF, truncated SVD with the first
  (depth-dominated) component removed
* ``adt``  -- centered log-ratio transform, PCA

All decompositions are deterministic (symmetric eigendecomposition /
full SVD) with the sign of each component fixed so its largest-magnitude
loading is positive.  ``standardize_cells`` applies the row-wise z-score
that every embedding receives before similarity construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

MODALITY_KINDS = ("rna", "atac", "adt")

DEFAULT_COMPONENTS = {"rna": 50, "atac": 50, "adt": 30}


@dataclass
class CountMatrix:
    """A dense cells x features count matrix tagged with its modality kind."""

    values: np.ndarray
    modality_kind: str

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.modality_kind not in MODALITY_KINDS:
            raise ValueError(f"unknown modality kind {self.modality_kind!r}")
        if self.values.ndim != 2:
            raise DataError("count matrix must be 2-dimensional")
        n, p = self.values.shape
        if n < 2 or p < 2:
            raise DataError(f"count matrix too small: {n} cells x {p} features")
        if not np.isfinite(self.values).all():
            raise DataError("count matrix contains non-finite entries")
        if (self.values < 0).any():
            raise DataError("count matrix contains negative entries")

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]


@dataclass
class Embedding:
    """A dense cells x dimensions embedding plus frontend metadata.

    ``explained_variance`` is populated by the PCA frontends,
    ``dropped_columns`` counts all-zero features removed by the ATAC
    frontend, and ``degenerate_cells`` lists rows that had zero variance
    when ``standardize_cells`` was applied (they are set to all zeros).
    """

    values: np.ndarray
    explained_variance: np.ndarray | None = None
    dropped_columns: int = 0
    degenerate_cells: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DataError("embedding must be 2-dimensional")
        if not np.isfinite(self.values).all():
            raise DataError("embedding contains non-finite entries")

    @property
    def n_cells(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _as_counts(counts: CountMatrix | np.ndarray, kind: str) -> np.ndarray:
    if isinstance(counts, CountMatrix):
        if counts.modality_kind != kind:
            raise ValueError(
                f"expected modality kind {kind!r}, got {counts.modality_kind!r}"
            )
        return counts.values
    return CountMatrix(np.asarray(counts, dtype=float), kind).values


def _check_components(n_components: int, limit: int) -> None:
    if n_components < 1:
        raise ValueError("n_components must be a positive integer")
    if n_components > limit:
        raise ValueError(f"n_components={n_components} exceeds limit {limit}")


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    for j in range(components.shape[1]):
        k = int(np.argmax(np.abs(components[:, j])))
        if components[k, j] < 0:
            components[:, j] = -components[:, j]
    return components


def pca_scores(X: np.ndarray, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    """PCA scores via eigendecomposition of the feature covariance matrix.

    Returns (scores, eigenvalues) with components ordered by descending
    eigenvalue and sign-fixed so each component's largest-magnitude
    loading is positive.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    cov = (Xc.T @ Xc) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:n_components]
    comps = _fix_signs(evecs[:, order].copy())
    return Xc @ comps, evals[order]


def rna_frontend(counts: CountMatrix | np.ndarray, n_components: int) -> Embedding:
    """Embed an RNA count matrix.

    Rows are scaled to the median total count, log1p-transformed,
    z-scored per feature (ddof=1), and projected on the top principal
    components.  Zero-variance features stay centered at zero.
    """
    X = _as_counts(counts, "rna")
    n, p = X.shape
    _check_components(n_components, min(n - 1, p))
    Z = _normalize_log_zscore(X)
    scores, evals = pca_scores(Z, n_components)
    return Embedding(values=scores, explained_variance=evals)


def _normalize_log_zscore(X: np.ndarray) -> np.ndarray:
    """Shared RNA preprocessing: depth-normalize, log1p, feature z-score."""
    sums = X.sum(axis=1)
    zero = np.flatnonzero(sums == 0)
    if zero.size:
        raise DataError(f"empty cell: row {zero[0]} has zero total count")
    Y = np.log1p(X * (np.median(sums) / sums)[:, None])
    mu = Y.mean(axis=0)
    sd = Y.std(axis=0, ddof=1)
    sd = np.where(sd > 0, sd, 1.0)
    return (Y - mu) / sd


def atac_frontend(counts: CountMatrix | np.ndarray, n_components: int) -> Embedding:
    """Embed an ATAC count matrix.

    Counts are binarized and TF-IDF weighted (tf = row-normalized binary
    value, idf = log(1 + n / (1 + column document frequency))).  The
    embedding keeps n_components singular directions after discarding
    the first, which tracks sequencing depth.  All-zero features are
    dropped; the drop count is reported in the result metadata.
    """
    X = _as_counts(counts, "atac")
    n, p = X.shape
    B = (X > 0).astype(float)
    df = B.sum(axis=0)
    keep = df > 0
    dropped = int(p - keep.sum())
    if dropped == p:
        raise DataError("all-zero count matrix")
    B = B[:, keep]
    df = df[keep]
    rowsums = B.sum(axis=1)
    zero = np.flatnonzero(rowsums == 0)
    if zero.size:
        raise DataError(f"empty cell: row {zero[0]} has no nonzero features")
    M = (B / rowsums[:, None]) * np.log(1.0 + n / (1.0 + df))
    _check_components(n_components, min(n, M.shape[1]) - 1)
    r = n_components + 1
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    for j in range(r):
        k = int(np.argmax(np.abs(Vt[j])))
        if Vt[j, k] < 0:
            Vt[j] = -Vt[j]
            U[:, j] = -U[:, j]
    scores = U[:, :r] * s[:r]
    return Embedding(values=scores[:, 1:], dropped_columns=dropped)


def adt_frontend(counts: CountMatrix | np.ndarray, n_components: int) -> Embedding:
    """Embed an ADT (protein) count matrix via CLR transform followed by PCA."""
    X = _as_counts(counts, "adt")
    n, p = X.shape
    _check_components(n_components, min(n - 1, p))
    sums = X.sum(axis=1)
    zero = np.flatnonzero(sums == 0)
    if zero.size:
        raise DataError(f"empty cell: row {zero[0]} has zero total count")
    Y = np.log1p(X)
    Y -= Y.mean(axis=1, keepdims=True)
    scores, evals = pca_scores(Y, n_components)
    return Embedding(values=scores, explained_variance=evals)


def standardize_cells(emb: Embedding | np.ndarray) -> Embedding:
    """Row-wise z-score (ddof=1) of an embedding.

    Rows with zero variance are set to all zeros and flagged in
    ``degenerate_cells`` so downstream cell indexing stays stable.
    """
    V = emb.values if isinstance(emb, Embedding) else np.asarray(emb, dtype=float)
    if V.ndim != 2 or V.shape[1] < 2:
        raise ValueError("standardize_cells requires at least 2 dimensions per cell")
    mu = V.mean(axis=1, keepdims=True)
    sd = V.std(axis=1, ddof=1, keepdims=True)
    degenerate = np.flatnonzero(sd[:, 0] == 0.0)
    safe = np.where(sd > 0, sd, 1.0)
    Z = (V - mu) / safe
    if degenerate.size:
        Z[degenerate] = 0.0
    return Embedding(values=Z, degenerate_cells=degenerate)


FRONTENDS = {
    "rna": rna_frontend,
    "atac": atac_frontend,
    "adt": adt_frontend,
}
