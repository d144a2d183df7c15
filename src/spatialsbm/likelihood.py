"""Gaussian stochastic block model over similarity entries.

Each similarity entry A[i, j] is modeled as Normal(mu[z_i, z_j],
1 / tau[z_i, z_j]) with a Normal-Gamma conjugate prior on every block's
(mean, precision) pair.  This module provides block sufficient
statistics, conjugate posterior updates and draws, the closed-form
marginal likelihood backing new-domain proposals, and full-model
deviance.

Block statistics come from one formula, :func:`block_stats_from_sums`,
which turns the K x K block sums S1 = G' A G and S2 = G' (A * A) G, the
occupancies and the per-domain diagonal sums into counts, means and
residual sums of squares.  :func:`block_stats` forms those sums from a
label vector in O(n^2 K); the Gibbs sampler keeps the cell-by-domain
sums G' A and G' (A * A) up to date as cells move and gets the same
block sums from them in O(n K^2).

The new-domain marginal, like the sampler's label weights, omits the
Gaussian -log(2*pi)/2 per-observation constant.  The deviance carries the
full normalizing constant and includes the diagonal, so its observation
count is n (n + 1) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .partition import as_labels, one_hot

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NormalGammaPrior:
    """Normal-Gamma prior; mu0 is split by block type (within/between)."""

    mu0_diag: float
    mu0_offdiag: float
    k0: float = 10.0
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.k0 <= 0 or self.alpha <= 0 or self.beta <= 0:
            raise ValueError("k0, alpha, beta must all be positive")

    def mu0_matrix(self, n_domains: int) -> np.ndarray:
        M = np.full((n_domains, n_domains), self.mu0_offdiag)
        np.fill_diagonal(M, self.mu0_diag)
        return M


@dataclass
class BlockParams:
    """Symmetric K x K block means and precisions for one modality."""

    means: np.ndarray
    precisions: np.ndarray

    @property
    def n_domains(self) -> int:
        return self.means.shape[0]

    def validate(self) -> None:
        if (self.precisions <= 0).any():
            raise ValueError("block precisions must be strictly positive")
        for M in (self.means, self.precisions):
            if not np.allclose(M, M.T, atol=1e-12):
                raise ValueError("block parameter matrices must be symmetric")

    def copy(self) -> "BlockParams":
        return BlockParams(self.means.copy(), self.precisions.copy())


@dataclass
class BlockStats:
    """Per-block pair counts, sample means and residual sums of squares."""

    count: np.ndarray
    mean: np.ndarray
    sse: np.ndarray

    @property
    def n_domains(self) -> int:
        return self.count.shape[0]


def empirical_prior(
    A: np.ndarray,
    k0: float = 10.0,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> NormalGammaPrior:
    """Data-driven prior location: mean of the diagonal for within-domain
    blocks, mean of the strict upper triangle for between-domain blocks.

    A is symmetric, so the strict upper triangle holds half of the
    off-diagonal mass: its mean is (sum(A) - trace(A)) / (n (n - 1)).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    diag = np.diag(A)
    return NormalGammaPrior(
        mu0_diag=float(diag.mean()),
        mu0_offdiag=float((A.sum() - diag.sum()) / (n * (n - 1))),
        k0=k0,
        alpha=alpha,
        beta=beta,
    )


def block_stats(
    A: np.ndarray,
    labels,
    n_domains: int | None = None,
) -> BlockStats:
    """Sufficient statistics of every (r, s) block, r <= s.

    Cross blocks (r < s) collect entries with one endpoint per domain;
    within blocks collect strict pairs i < j (self-similarities excluded).
    """
    labels = as_labels(labels)
    K = int(labels.max()) if n_domains is None else int(n_domains)
    G = one_hot(labels, K)
    diag = np.diag(A)
    return block_stats_from_sums(
        occ=G.sum(axis=0),
        S1=G.T @ (A @ G),
        S2=G.T @ ((A * A) @ G),
        d1=np.bincount(labels - 1, weights=diag, minlength=K),
        d2=np.bincount(labels - 1, weights=diag * diag, minlength=K),
    )


def block_stats_from_sums(
    occ: np.ndarray,
    S1: np.ndarray,
    S2: np.ndarray,
    d1: np.ndarray,
    d2: np.ndarray,
) -> BlockStats:
    """Block statistics from the K x K sums over all ordered pairs.

    ``S1[r, s]`` and ``S2[r, s]`` sum A[i, j] and A[i, j]^2 over i in r
    and j in s, the diagonal included; ``d1`` and ``d2`` sum A[i, i] and
    A[i, i]^2 over each domain so the within blocks can drop it.
    """
    K = occ.shape[0]
    count = np.outer(occ, occ)
    sum1 = S1.copy()
    sum2 = S2.copy()
    r = np.arange(K)
    count[r, r] = occ * (occ - 1) / 2.0
    sum1[r, r] = (S1[r, r] - d1) / 2.0
    sum2[r, r] = (S2[r, r] - d2) / 2.0

    nonempty = count > 0
    mean = np.where(nonempty, sum1 / np.where(nonempty, count, 1.0), 0.0)
    sse = np.where(nonempty, sum2 - count * mean * mean, 0.0)
    return BlockStats(count=count, mean=mean, sse=np.maximum(sse, 0.0))


def posterior_hyperparams_matrix(
    stats: BlockStats, prior: NormalGammaPrior
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized conjugate update across every block at once."""
    mu0 = prior.mu0_matrix(stats.n_domains)
    kn = prior.k0 + stats.count
    mun = (prior.k0 * mu0 + stats.count * stats.mean) / kn
    an = prior.alpha + stats.count / 2.0
    bn = prior.beta + 0.5 * (
        stats.sse + stats.count * prior.k0 / kn * (stats.mean - mu0) ** 2
    )
    return kn, mun, an, bn


def resample_block_params(
    stats: BlockStats,
    prior: NormalGammaPrior,
    rng: np.random.Generator,
    upper: tuple[np.ndarray, np.ndarray] | None = None,
) -> BlockParams:
    """Draw fresh block parameters from the conjugate posterior.

    tau ~ Gamma(alpha_n, rate=beta_n), then mu ~ Normal(mu_n,
    1 / (k_n tau)); the (r, s) and (s, r) entries share a single draw,
    taken in the row-major order of ``upper`` = ``np.triu_indices(K)``
    (built here when not given; a caller drawing many K x K sets passes
    it once built).
    """
    K = stats.n_domains
    kn, mun, an, bn = posterior_hyperparams_matrix(stats, prior)
    iu = np.triu_indices(K) if upper is None else upper
    tau_u = rng.gamma(shape=an[iu], scale=1.0 / bn[iu])
    mu_u = mun[iu] + rng.standard_normal(tau_u.size) / np.sqrt(kn[iu] * tau_u)
    tau = np.zeros((K, K))
    mu = np.zeros((K, K))
    tau[iu] = tau_u
    tau.T[iu] = tau_u
    mu[iu] = mu_u
    mu.T[iu] = mu_u
    return BlockParams(means=mu, precisions=tau)


def prior_block_params(
    prior: NormalGammaPrior, n_domains: int, rng: np.random.Generator
) -> BlockParams:
    """Draw block parameters straight from the prior (empty statistics)."""
    K = n_domains
    empty = BlockStats(
        count=np.zeros((K, K)), mean=np.zeros((K, K)), sse=np.zeros((K, K))
    )
    return resample_block_params(empty, prior, rng)


def new_domain_marginal(a_ii: float, prior: NormalGammaPrior) -> float:
    """Log marginal likelihood of a singleton domain observing only A[i, i].

    Closed form of the Normal-Gamma evidence with a single observation
    and mu0 taken from the within-domain prior location.
    """
    kn = prior.k0 + 1.0
    an = prior.alpha + 0.5
    bn = prior.beta + prior.k0 / (2.0 * kn) * (a_ii - prior.mu0_diag) ** 2
    return (
        float(gammaln(an) - gammaln(prior.alpha))
        + prior.alpha * math.log(prior.beta)
        - an * math.log(bn)
        + 0.5 * math.log(prior.k0 / kn)
    )


def full_deviance(
    sims: list[np.ndarray],
    weights,
    labels,
    params_list,
) -> float:
    """Weighted full-model deviance over all pairs i <= j, diagonal included.

    D = -2 sum_m alpha_m sum_{i<=j} log Normal(A[i, j]; mu, 1/tau) with the
    complete normalizing constant, so the per-modality observation count
    is n (n + 1) / 2.
    """
    labels = as_labels(labels)
    z0 = labels - 1
    total = 0.0
    for A, w, params in zip(sims, weights, params_list, strict=True):
        if w == 0.0:
            continue
        Mu = params.means[np.ix_(z0, z0)]
        Tau = params.precisions[np.ix_(z0, z0)]
        L = 0.5 * np.log(Tau) - 0.5 * Tau * (A - Mu) ** 2 - 0.5 * LOG_2PI
        total += w * -2.0 * (L.sum() + np.trace(L)) / 2.0
    return float(total)


def deviance_from_stats(
    stats: BlockStats,
    diag_count: np.ndarray,
    diag_sum: np.ndarray,
    diag_sumsq: np.ndarray,
    params: BlockParams,
) -> float:
    """Single-modality deviance from block statistics (diagonal re-added).

    Algebraically identical to :func:`full_deviance` for one modality of
    weight 1, but O(K^2) given statistics that exclude the diagonal.
    """
    tau = params.precisions
    mu = params.means
    ss = stats.sse + stats.count * (stats.mean - mu) ** 2
    M = stats.count * (0.5 * np.log(tau) - 0.5 * LOG_2PI) - 0.5 * tau * ss
    total = (M.sum() + np.trace(M)) / 2.0
    tdiag = np.diag(tau)
    mdiag = np.diag(mu)
    ss_d = diag_sumsq - 2.0 * mdiag * diag_sum + diag_count * mdiag * mdiag
    total += float(
        np.sum(diag_count * (0.5 * np.log(tdiag) - 0.5 * LOG_2PI) - 0.5 * tdiag * ss_d)
    )
    return -2.0 * total
