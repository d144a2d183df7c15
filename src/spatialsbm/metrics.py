"""External clustering metrics and their spatially aware relatives.

The adjusted Rand index is computed through a weighted pair-agreement
core that the distance-aware variant shares: with a constant weight of
one the two are the same arithmetic, so ``spari`` with the constant
weight function equals ``ari`` exactly, not just within tolerance.
Information-theoretic scores use natural logarithms, and the expected
mutual information is the exact permutation-model value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist
from scipy.special import gammaln

from .partition import as_labels, one_hot
from .similarity import NeighborhoodGraph


def contingency_table(truth, pred) -> np.ndarray:
    """K_true x K_pred matrix of joint label counts."""
    t = as_labels(truth)
    p = as_labels(pred)
    if t.size != p.size:
        raise ValueError("label vectors differ in length")
    _, ti = np.unique(t, return_inverse=True)
    _, pi = np.unique(p, return_inverse=True)
    ct = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(ct, (ti, pi), 1)
    return ct


def _partitions_identical(ct: np.ndarray) -> bool:
    """Same co-membership structure: one nonzero per row and per column."""
    return bool(
        ((ct > 0).sum(axis=0) <= 1).all() and ((ct > 0).sum(axis=1) <= 1).all()
    )


def _weighted_pair_agreement(
    ct: np.ndarray, leak: float, weight_sum: float
) -> float:
    """Chance-adjusted pair agreement with disagreement leak-back.

    ``leak`` is the total partial credit (1 - w) returned by disagreeing
    pairs, and ``weight_sum`` the sum of w over all pairs.  With leak = 0
    and weight_sum = N this is exactly the adjusted Rand index.
    """
    n = int(ct.sum())
    if n < 2:
        return 1.0
    N = n * (n - 1) / 2.0
    a = float((ct * (ct - 1)).sum()) / 2.0
    t1 = float((ct.sum(axis=1) * (ct.sum(axis=1) - 1)).sum()) / 2.0
    t2 = float((ct.sum(axis=0) * (ct.sum(axis=0) - 1)).sum()) / 2.0
    agree = N - t1 - t2 + 2.0 * a
    e_term = N - t1 - t2 + 2.0 * (t1 * t2 / N)
    a_w = agree + leak
    e_w = e_term + (1.0 - e_term / N) * (N - weight_sum)
    denom = N - e_w
    if denom == 0.0:
        return 1.0 if _partitions_identical(ct) else 0.0
    return (a_w - e_w) / denom


def ari(truth, pred) -> float:
    """Adjusted Rand index; 1 for identical partitions, 0 expected by chance."""
    ct = contingency_table(truth, pred)
    n = int(ct.sum())
    return float(_weighted_pair_agreement(ct, 0.0, n * (n - 1) / 2.0))


@dataclass(frozen=True)
class SpatialWeightFn:
    """Distance weight in [0, 1] applied to disagreeing pairs.

    ``constant_one`` weighs every pair fully (plain adjusted Rand);
    ``linear_decay`` uses min(1, d / d_max), so nearby mistakes cost less.
    """

    kind: str = "constant_one"
    d_max: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant_one", "linear_decay"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "linear_decay" and self.d_max <= 0:
            raise ValueError("d_max must be positive")

    def __call__(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        if self.kind == "constant_one":
            return np.ones_like(d)
        return np.minimum(1.0, d / self.d_max)


CONSTANT_ONE = SpatialWeightFn("constant_one")


def linear_decay(d_max: float) -> SpatialWeightFn:
    return SpatialWeightFn("linear_decay", d_max)


def spari(truth, pred, coords, wfn: SpatialWeightFn = CONSTANT_ONE) -> float:
    """Distance-weighted adjusted Rand index.

    Pairs on which the partitions disagree leak back 1 - w(d) of their
    agreement credit, so close-by disagreements are forgiven more than
    distant ones; the chance correction uses the same weighted sums under
    the permutation model.  With the constant weight this is ``ari``
    exactly.
    """
    t = as_labels(truth)
    p = as_labels(pred)
    if t.size != p.size:
        raise ValueError("label vectors differ in length")
    P = np.asarray(coords, dtype=float)
    if P.shape[0] != t.size:
        raise ValueError("coordinates do not match the label vectors")
    ct = contingency_table(t, p)
    n = t.size
    if n < 2:
        return 1.0
    # Condensed (i < j) pair vectors; a 1-D Hamming distance is 0 for a
    # same-label pair and 1 otherwise.
    w = wfn(pdist(P))
    disagree = pdist(t[:, None], "hamming") != pdist(p[:, None], "hamming")
    leak = float((1.0 - w[disagree]).sum())
    weight_sum = float(w.sum())
    return float(_weighted_pair_agreement(ct, leak, weight_sum))


def _entropy(counts: np.ndarray, n: int) -> float:
    counts = counts[counts > 0].astype(float)
    pr = counts / n
    return float(-(pr * np.log(pr)).sum())


def _mutual_information(ct: np.ndarray, n: int) -> float:
    a = ct.sum(axis=1, keepdims=True).astype(float)
    b = ct.sum(axis=0, keepdims=True).astype(float)
    nz = ct > 0
    vals = ct[nz].astype(float)
    outer = (a @ b)[nz]
    return float((vals / n * np.log(n * vals / outer)).sum())


def expected_mutual_information(ct: np.ndarray) -> float:
    """Exact expectation of mutual information under the permutation model."""
    n = int(ct.sum())
    a = ct.sum(axis=1).astype(int)
    b = ct.sum(axis=0).astype(int)
    log_n_choose = gammaln(n + 1)
    emi = 0.0
    for ai in a:
        for bj in b:
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            if hi < lo:
                continue
            nij = np.arange(lo, hi + 1, dtype=float)
            log_pmf = (
                gammaln(ai + 1)
                - gammaln(nij + 1)
                - gammaln(ai - nij + 1)
                + gammaln(n - ai + 1)
                - gammaln(bj - nij + 1)
                - gammaln(n - ai - bj + nij + 1)
                - (log_n_choose - gammaln(bj + 1) - gammaln(n - bj + 1))
            )
            emi += float(
                (np.exp(log_pmf) * (nij / n) * np.log(n * nij / (ai * bj))).sum()
            )
    return emi


def nmi_ami_homogeneity(truth, pred) -> tuple[float, float, float]:
    """Normalized MI (sqrt normalization), adjusted MI (mean normalization
    with exact expected MI), and homogeneity, natural logs throughout.

    0/0 situations resolve to 0 for NMI and AMI; homogeneity is 1 when
    the truth labeling carries no entropy.
    """
    ct = contingency_table(truth, pred)
    n = int(ct.sum())
    h_t = _entropy(ct.sum(axis=1), n)
    h_p = _entropy(ct.sum(axis=0), n)
    mi = _mutual_information(ct, n)

    denom_nmi = math.sqrt(h_t * h_p)
    nmi = mi / denom_nmi if denom_nmi > 0 else 0.0

    emi = expected_mutual_information(ct)
    denom_ami = 0.5 * (h_t + h_p) - emi
    ami = (mi - emi) / denom_ami if denom_ami != 0 else 0.0

    # mi can exceed h_t by rounding when the prediction refines the truth.
    homogeneity = 1.0 if h_t == 0 else min(1.0, max(0.0, 1.0 - (h_t - mi) / h_t))
    return float(nmi), float(ami), float(homogeneity)


def morans_i(
    labels, graph: NeighborhoodGraph, reduction: str = "occupancy"
) -> float:
    """Spatial autocorrelation of a labeling over a neighborhood graph.

    Each domain's one-hot indicator gets the classic statistic
    (n / sum W) * sum_ij W_ij (x_i - xbar)(x_j - xbar) / sum_i (x_i - xbar)^2,
    with zero-variance indicators contributing 0.  Per-domain values are
    combined by occupancy weighting (default), plain mean, or max.
    """
    z = as_labels(labels)
    n = z.size
    if graph.n_cells != n:
        raise ValueError("graph size does not match the labels")
    sw = graph.total_weight
    if sw == 0:
        raise ValueError("empty neighborhood graph")
    K = int(z.max())
    G = one_hot(z, K)
    occ = G.sum(axis=0)
    Xc = G - occ / n
    num = ((graph.W @ Xc) * Xc).sum(axis=0)
    den = (Xc * Xc).sum(axis=0)
    ok = den > 0
    i_c = np.where(ok, (n / sw) * num / np.where(ok, den, 1.0), 0.0)
    if reduction == "occupancy":
        return float((occ / n * i_c).sum())
    if reduction == "mean":
        return float(i_c.mean())
    if reduction == "max":
        return float(i_c.max())
    raise ValueError(f"unknown reduction {reduction!r}")
