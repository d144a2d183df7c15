"""Label-vector partition type and small label utilities.

Domain labels are 1-based and contiguous: a partition with K domains uses
exactly the labels 1..K and every domain is non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_labels(obj) -> np.ndarray:
    """Coerce a Partition, chain sample, or array-like to an int label vector."""
    if hasattr(obj, "labels"):
        obj = obj.labels
    labels = np.asarray(obj)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-d vector")
    return labels.astype(np.int64, copy=False)


def relabel_contiguous(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Map labels onto 1..K preserving their numeric order.

    Equivalent to repeatedly deleting empty labels and decrementing every
    label above each deleted one, so co-assignment is untouched.
    """
    labels = as_labels(labels)
    present = np.unique(labels)
    new = np.searchsorted(present, labels) + 1
    return new.astype(np.int64), int(present.size)


def one_hot(labels: np.ndarray, n_domains: int | None = None) -> np.ndarray:
    """Dense n x K indicator matrix of a 1-based contiguous label vector."""
    labels = as_labels(labels)
    K = int(labels.max()) if n_domains is None else int(n_domains)
    G = np.zeros((labels.size, K), dtype=float)
    G[np.arange(labels.size), labels - 1] = 1.0
    return G


@dataclass
class Partition:
    """A contiguous 1-based label vector with its domain count and occupancy."""

    labels: np.ndarray
    n_domains: int
    occupancy: np.ndarray

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        labels = as_labels(labels)
        n_domains = int(labels.max()) if labels.size else 0
        occupancy = np.bincount(labels, minlength=n_domains + 1)[1:]
        part = cls(labels=labels, n_domains=n_domains, occupancy=occupancy)
        part.validate()
        return part

    @property
    def n_cells(self) -> int:
        return self.labels.size

    def validate(self) -> None:
        if self.labels.size == 0:
            raise ValueError("empty partition")
        if self.labels.min() < 1 or self.labels.max() > self.n_domains:
            raise ValueError("labels out of the 1..K range")
        if (self.occupancy <= 0).any():
            raise ValueError("partition contains an empty domain")
        if int(self.occupancy.sum()) != self.labels.size:
            raise ValueError("occupancy does not sum to the number of cells")
