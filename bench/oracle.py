"""Reference computations made apart from the program.

None of these import ``spatialsbm``: each recomputes a quantity the
program reports from first principles (pair counts, direct summation,
brute-force distances) so that a wrong program output fails the check.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
FISHER_CLIP = 0.9999


def _pairs(x: np.ndarray) -> float:
    x = x.astype(float)
    return float((x * (x - 1.0) / 2.0).sum())


def contingency(a, b) -> np.ndarray:
    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    ct = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(ct, (ai, bi), 1)
    return ct


def ari(truth, pred) -> float:
    """Hubert-Arabie adjusted Rand index from pair counts."""
    ct = contingency(truth, pred)
    n = int(ct.sum())
    total = n * (n - 1) / 2.0
    both = _pairs(ct)
    rows = _pairs(ct.sum(axis=1))
    cols = _pairs(ct.sum(axis=0))
    expected = rows * cols / total
    top = 0.5 * (rows + cols)
    if top == expected:
        return 1.0
    return (both - expected) / (top - expected)


def direct_deviance(sims, weights, labels, params) -> float:
    """-2 * weighted Gaussian log-likelihood summed over every pair i <= j."""
    z = np.asarray(labels) - 1
    n = z.size
    iu = np.triu_indices(n)
    zi, zj = z[iu[0]], z[iu[1]]
    total = 0.0
    for A, w, p in zip(sims, weights, params):
        tau = p.precisions[zi, zj]
        mu = p.means[zi, zj]
        ll = 0.5 * np.log(tau) - 0.5 * LOG_2PI - 0.5 * tau * (A[iu] - mu) ** 2
        total += w * -2.0 * float(ll.sum())
    return total


def dahl_distances(label_samples: list[np.ndarray]) -> np.ndarray:
    """M^2 * ||B_s - Bbar||_F^2 minus a constant, in exact integers.

    sum_ij B_s B_t = sum over label pairs of the squared contingency
    counts, so no n x n matrix is ever built.
    """
    M = len(label_samples)
    inner = np.zeros((M, M), dtype=np.int64)
    for s in range(M):
        for t in range(s, M):
            ct = contingency(label_samples[s], label_samples[t])
            inner[s, t] = inner[t, s] = int((ct * ct).sum())
    return M * M * np.diag(inner) - 2 * M * inner.sum(axis=1)


def edge_pairs(coords: np.ndarray, delta: float, chunk: int = 512) -> np.ndarray:
    """All pairs i < j within distance delta, by brute force over chunks."""
    P = np.asarray(coords, dtype=float)
    n = P.shape[0]
    found = []
    for lo in range(0, n, chunk):
        block = P[lo:lo + chunk]
        d2 = ((block[:, None, :] - P[None, :, :]) ** 2).sum(axis=-1)
        i, j = np.nonzero(d2 <= delta * delta)
        i = i + lo
        keep = i < j
        found.append(np.column_stack([i[keep], j[keep]]))
    return np.concatenate(found) if found else np.empty((0, 2), dtype=np.int64)


def read_similarity(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(8) != b"SIMZMAT1":
            raise ValueError(f"{path}: bad magic")
        n = int(np.frombuffer(fh.read(8), dtype="<u8")[0])
    return np.memmap(path, dtype="<f8", mode="r", offset=16, shape=(n, n))


def read_embedding(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def read_labels(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    rows = [line.split("\t") for line in Path(path).read_text().splitlines()[1:] if line]
    labels = np.array([int(r[1]) for r in rows])
    unc = np.array([float(r[2]) for r in rows]) if rows and len(rows[0]) == 3 else None
    return labels, unc


def fisher_z_entries(E: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    r = (E[i] * E[j]).sum(axis=1) / E.shape[1]
    return np.arctanh(np.clip(r, -FISHER_CLIP, FISHER_CLIP))


def in_unit_interval(x, tol: float = 1e-12) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= -tol) and np.all(x <= 1.0 + tol))


def contiguous_labels(labels) -> bool:
    labels = np.asarray(labels)
    k = int(labels.max())
    return int(labels.min()) == 1 and np.unique(labels).size == k
