"""Posterior summarization: co-membership, point estimate, uncertainty.

Label switching never touches co-membership, so the chain is summarized
through the binary co-membership matrices B_t of its samples.  The point
estimate is the recorded sample whose co-membership matrix is closest
(squared Frobenius distance) to the posterior mean matrix B-bar; per-cell
uncertainty is one minus the cell's best mean co-membership affinity
over the point estimate's domains.

No n x n matrix is needed for either.  With G_t the one-hot matrix of
sample t, <B_s, B_t> = ||G_s' G_t||_F^2 is the sum of the squared
entries of the two samples' contingency table, so

    ||B_s - B-bar||^2 = <B_s, B_s> - (2 / M) sum_t <B_s, B_t> + const,

exact in integers, and B-bar @ G_point = (1 / M) sum_t G_t (G_t' G_point)
is a sum of contingency-table rows.  Identical samples are compared once.
The dense mean matrix is built only on request
(:attr:`PosteriorSummary.mean_comembership`, :func:`mean_comembership`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .partition import Partition, as_labels, one_hot


def comembership(labels) -> np.ndarray:
    """Binary matrix B[i, j] = 1 iff cells i and j share a label (diagonal 1)."""
    labels = as_labels(labels)
    return (labels[:, None] == labels[None, :]).astype(float)


def mean_comembership(samples: Sequence) -> np.ndarray:
    """Entrywise mean of the samples' co-membership matrices."""
    if len(samples) == 0:
        raise ValueError("empty sample list")
    acc = comembership(samples[0])
    for s in samples[1:]:
        acc += comembership(s)
    return acc / len(samples)


def _distinct_partitions(samples: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct partitions among the samples.

    Returns their labels renumbered 0..K-1 in order of first appearance
    (one row per distinct partition), the index of the first sample
    holding each, and how many samples hold each.
    """
    rows = []
    for s in samples:
        labels = as_labels(s)
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        rows.append(rank[inverse])
    parts, first, counts = np.unique(
        np.stack(rows), axis=0, return_index=True, return_counts=True
    )
    return parts, first, counts


# Contingency tables are built in batches of at most this many entries
# (one table at least), so a chain with thousands of domains cannot
# exhaust memory.
_TABLE_ENTRIES = 1 << 22


def _contingency_rows(parts: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(U, K_p, K) contingency tables of every partition row against one
    labelling (0-based), padded to the rows' largest domain count K_p."""
    U = parts.shape[0]
    kp = int(parts.max()) + 1
    k = int(labels.max()) + 1
    codes = parts * k + labels + (np.arange(U) * (kp * k))[:, None]
    return np.bincount(codes.ravel(), minlength=U * kp * k).reshape(U, kp, k)


def _dahl_from_partitions(parts, first, counts) -> int:
    """Dahl index from the distinct partitions (see the module docstring).

    Distances are compared as M <B_u, B_u> - 2 sum_v c_v <B_u, B_v> in
    int64; ties go to the smallest sample index.
    """
    M = int(counts.sum())
    U = parts.shape[0]
    kp = int(parts.max()) + 1
    inner = np.empty((U, U), dtype=np.int64)
    for u in range(U):
        step = max(1, _TABLE_ENTRIES // (kp * (int(parts[u].max()) + 1)))
        for v in range(u, U, step):
            table = _contingency_rows(parts[v : v + step], parts[u])
            inner[u, v : v + step] = (table * table).sum(axis=(1, 2))
            inner[v : v + step, u] = inner[u, v : v + step]
    score = M * np.diag(inner) - 2 * (inner @ counts)
    return int(first[score == score.min()].min())


def dahl_index(samples: Sequence) -> int:
    """Index of the sample closest to the mean co-membership matrix.

    Ties go to the smallest sample index.  Works on contingency tables,
    so its cost grows with the number of distinct samples, not with n^2.
    """
    if len(samples) == 0:
        raise ValueError("empty sample list")
    return _dahl_from_partitions(*_distinct_partitions(samples))


def dahl_select(samples: Sequence) -> tuple[int, np.ndarray]:
    """Index of the sample closest to the mean co-membership matrix.

    Ties go to the smallest sample index.  Returns (index, mean matrix).
    """
    index = dahl_index(samples)
    return index, mean_comembership(samples)


@dataclass
class UncertaintyResult:
    uncertainty: np.ndarray
    affinity_assigned: np.ndarray
    affinity_by_domain: np.ndarray
    singleton_cells: np.ndarray


def uncertainty_scores(bbar: np.ndarray, point_labels) -> UncertaintyResult:
    """Per-cell affinity and uncertainty against a point-estimate partition.

    The affinity of cell i to domain c averages bbar[i, j] over the
    members of c other than i; u_i = 1 - max_c affinity.  A cell that is
    alone in its domain has affinity 0 there (empty mean) and is flagged.
    """
    labels = as_labels(point_labels)
    n = labels.size
    if bbar.shape != (n, n):
        raise ValueError("mean co-membership shape does not match the labels")
    K = int(labels.max())
    return _uncertainty_from_sums(bbar @ one_hot(labels, K), np.diag(bbar), labels)


def _uncertainty_from_sums(
    sums: np.ndarray, bbar_diag: np.ndarray, labels: np.ndarray
) -> UncertaintyResult:
    """Uncertainty scores from sums = bbar @ G_point and bbar's diagonal."""
    n, K = sums.shape
    occ = np.bincount(labels - 1, minlength=K).astype(float)
    cnt = np.broadcast_to(occ, (n, K)).copy()
    rows = np.arange(n)
    sums[rows, labels - 1] -= bbar_diag
    cnt[rows, labels - 1] -= 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        pbar = np.where(cnt > 0, sums / np.where(cnt > 0, cnt, 1.0), 0.0)
    u = 1.0 - pbar.max(axis=1)
    affinity = pbar[rows, labels - 1]
    singleton = np.flatnonzero(occ[labels - 1] == 1)
    return UncertaintyResult(
        uncertainty=u,
        affinity_assigned=affinity,
        affinity_by_domain=pbar,
        singleton_cells=singleton,
    )


@dataclass
class PosteriorSummary:
    """Point estimate plus uncertainty for a recorded chain.

    ``sample_labels`` keeps the recorded label vectors, from which the
    mean co-membership matrix is built on request.
    """

    sample_labels: tuple[np.ndarray, ...] = field(repr=False)
    dahl_index: int
    point_partition: Partition
    uncertainty: np.ndarray
    affinity_assigned: np.ndarray
    k_hat: int
    m_samples: int
    singleton_cells: np.ndarray

    @property
    def labels(self) -> np.ndarray:
        return self.point_partition.labels

    @property
    def mean_comembership(self) -> np.ndarray:
        """The n x n posterior mean co-membership matrix (built per call)."""
        return mean_comembership(self.sample_labels)


def summarize_chain(samples: Sequence) -> PosteriorSummary:
    """Dahl point estimate and uncertainty scores for the recorded samples.

    Works on the contingency tables of the distinct samples (see the
    module docstring), so no n x n matrix is built.
    """
    if len(samples) == 0:
        raise ValueError("empty sample list")
    sample_labels = tuple(as_labels(s) for s in samples)
    parts, first, counts = _distinct_partitions(sample_labels)
    index = _dahl_from_partitions(parts, first, counts)
    point = Partition.from_labels(sample_labels[index])
    # B-bar @ G_point: each cell's row of its own sample's contingency table.
    sums = np.zeros((point.n_cells, point.n_domains))
    for part, c in zip(parts, counts):
        table = _contingency_rows(part[None, :], point.labels - 1)[0]
        sums += c * table[part]
    sums /= len(sample_labels)
    unc = _uncertainty_from_sums(sums, np.ones(point.n_cells), point.labels)
    return PosteriorSummary(
        sample_labels=sample_labels,
        dahl_index=index,
        point_partition=point,
        uncertainty=unc.uncertainty,
        affinity_assigned=unc.affinity_assigned,
        k_hat=point.n_domains,
        m_samples=len(sample_labels),
        singleton_cells=unc.singleton_cells,
    )
