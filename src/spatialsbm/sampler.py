"""Blocked Gibbs sampler over domain labels.

Each sweep visits every cell once and resamples its label from the full
conditional that fuses three ingredients per existing domain -- the
weighted multimodal block log-likelihood, the spatial neighbor reward,
and the urn mass log(n_c + gamma) -- plus one extra candidate for a brand
new domain, scored by the single-observation marginal likelihood of the
cell's self-similarity and the coefficient-ratio penalty of the
component-count prior.  After the label pass, every block's (mean,
precision) pair is redrawn from its conjugate posterior.

Labels are updated conditional on the current block parameters (the
parameters are redrawn each sweep rather than integrated out during the
label pass), so a single chain is strictly sequential.  Distinct chains
share the similarity matrices and graph read-only.

Early burn-in runs as a fixed-domain-count warm start: new-domain
proposals are disabled, the urn mass term is dropped so domains
differentiate on fit alone, the last member of a domain stays put, and
domains that wither to a couple of cells are reseeded with the
worst-fitting cells.  Without this phase the initial random partition
fragments before the block parameters can differentiate (with
prior-fresh parameters every cell defects to a singleton, an absorbing
state because empty within-domain blocks inherit the diagonal-level
prior mean).  The warm-start kernel only ever runs inside burn-in;
recorded samples always come from the full kernel.

The hot loop maintains a dense domain-major one-hot indicator of the
partition so the per-cell block sums reduce to small matrix-vector
products per modality.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError
from .likelihood import (
    BlockParams,
    BlockStats,
    NormalGammaPrior,
    block_stats,
    deviance_from_stats,
    empirical_prior,
    new_domain_marginal,
    prior_block_params,
    resample_block_params,
)
from .partition import Partition, relabel_contiguous
from .partition_prior import MfmPrior
from .similarity import NeighborhoodGraph, check_similarity_matrix


@dataclass(frozen=True)
class FitConfig:
    """Sampler configuration.

    ``weights`` holds one non-negative coefficient per modality (None
    means 1.0 each).  ``lam`` is the spatial reward per same-labeled
    neighbor and ``delta`` the neighborhood radius the graph was built
    with (recorded here so fits are self-describing).
    """

    lam: float = 0.0
    delta: float = 1.0
    gamma: float = 1.0
    weights: tuple[float, ...] | None = None
    n_iterations: int = 1000
    n_burnin: int = 500
    thin: int = 1
    seed: int = 0
    init_k: int = 5
    k0: float = 10.0
    alpha: float = 1.0
    beta: float = 1.0
    warmup_sweeps: int | None = None

    def validate(self, n_modalities: int | None = None) -> None:
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.n_burnin >= self.n_iterations:
            raise ValueError("n_burnin must be smaller than n_iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.init_k < 1:
            raise ValueError("init_k must be >= 1")
        if self.warmup_sweeps is not None and self.warmup_sweeps < 0:
            raise ValueError("warmup_sweeps must be non-negative")
        if self.weights is not None:
            if any(w < 0 for w in self.weights):
                raise ValueError("modality weights must be non-negative")
            # All-zero weights are permitted: the chain degenerates to a
            # pure partition-prior sampler, useful as a diagnostic.
            if n_modalities is not None and len(self.weights) != n_modalities:
                raise ValueError(
                    f"{len(self.weights)} weights given for {n_modalities} modalities"
                )

    def resolved_weights(self, n_modalities: int) -> tuple[float, ...]:
        if self.weights is None:
            return (1.0,) * n_modalities
        return tuple(float(w) for w in self.weights)

    def resolved_warmup(self) -> int:
        if self.warmup_sweeps is None:
            return self.n_burnin // 2
        return self.warmup_sweeps


@dataclass
class ChainSample:
    """One recorded posterior draw: labels, block parameters, deviance."""

    labels: np.ndarray
    params: list[BlockParams] = field(repr=False, default_factory=list)
    deviance: float = 0.0


def init_chain(
    config: FitConfig,
    n: int,
    priors: list[NormalGammaPrior],
    rng: np.random.Generator,
) -> tuple[Partition, list[BlockParams]]:
    """Uniform random labels over 1..init_k (compacted) plus prior params."""
    raw = rng.integers(1, config.init_k + 1, size=n)
    labels, n_domains = relabel_contiguous(raw)
    partition = Partition.from_labels(labels)
    params = [prior_block_params(prior, n_domains, rng) for prior in priors]
    return partition, params


class GibbsSampler:
    """Mutable chain state over one dataset and configuration."""

    def __init__(
        self,
        sims: list[np.ndarray],
        graph: NeighborhoodGraph,
        config: FitConfig,
        rng: np.random.Generator | None = None,
        labels=None,
        params: list[BlockParams] | None = None,
        priors: list[NormalGammaPrior] | None = None,
    ):
        if isinstance(sims, np.ndarray) and sims.ndim == 2:
            sims = [sims]
        self.sims = [check_similarity_matrix(A) for A in sims]
        n = self.sims[0].shape[0]
        if any(A.shape[0] != n for A in self.sims):
            raise ValueError("similarity matrices disagree on the number of cells")
        if graph.n_cells != n:
            raise ValueError("graph size does not match the similarity matrices")
        if n < 2:
            raise ValueError("at least two cells are required")
        config.validate(n_modalities=len(self.sims))
        self.n = n
        self.graph = graph
        self.config = config
        self.weights = config.resolved_weights(len(self.sims))
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        if priors is None:
            priors = [
                empirical_prior(A, config.k0, config.alpha, config.beta)
                for A in self.sims
            ]
        self.priors = priors
        self.mfm = MfmPrior(n, config.gamma)

        if labels is None:
            partition, params = init_chain(config, n, priors, self.rng)
            labels = partition.labels
        else:
            labels, _ = relabel_contiguous(np.asarray(labels))
        self.z = np.asarray(labels, dtype=np.int64) - 1
        self.n_domains = int(self.z.max()) + 1
        if params is None:
            params = [
                prior_block_params(prior, self.n_domains, self.rng)
                for prior in self.priors
            ]
        if any(p.n_domains != self.n_domains for p in params):
            raise ValueError("block parameter matrices do not match the label range")
        self.params = [p.copy() for p in params]

        # Dense bookkeeping for the hot loop: GT[c, i] = 1 iff z_i = c.
        self.GT = np.zeros((self.n_domains, n))
        self.GT[self.z, np.arange(n)] = 1.0
        self.occ = self.GT.sum(axis=1)
        self._lgocc = np.log(self.occ + config.gamma)
        self._diag = [np.ascontiguousarray(np.diag(A)) for A in self.sims]
        self._new_const = np.zeros(n)
        for diag, w, prior in zip(self._diag, self.weights, self.priors):
            if w == 0.0:
                continue
            self._new_const += w * np.array(
                [new_domain_marginal(a, prior) for a in diag]
            )
        self._refresh_caches()
        self.deviance = self._deviance(*self._current_stats())

    # ----- cached per-sweep quantities -------------------------------------

    def _refresh_caches(self) -> None:
        self._tau = []
        self._tau_mu = []
        self._half = []
        for p in self.params:
            tau = p.precisions
            mu = p.means
            self._tau.append(tau)
            self._tau_mu.append(tau * mu)
            self._half.append(0.5 * np.log(tau) - 0.5 * tau * mu * mu)

    # ----- structural edits -------------------------------------------------

    def _purge(self, d: int) -> None:
        """Remove the (empty) domain d, shifting labels above it down."""
        self.z[self.z > d] -= 1
        self.GT = np.delete(self.GT, d, axis=0)
        self.occ = np.delete(self.occ, d)
        self._lgocc = np.delete(self._lgocc, d)
        for m, p in enumerate(self.params):
            self.params[m] = BlockParams(
                means=np.delete(np.delete(p.means, d, 0), d, 1),
                precisions=np.delete(np.delete(p.precisions, d, 0), d, 1),
            )
        self._refresh_caches()
        self.n_domains -= 1

    def _grow(self) -> None:
        """Open a new domain; its row/column parameters come from the prior."""
        K = self.n_domains
        for m, prior in enumerate(self.priors):
            tau_vec = self.rng.gamma(prior.alpha, 1.0 / prior.beta, size=K + 1)
            mu0_vec = np.full(K + 1, prior.mu0_offdiag)
            mu0_vec[K] = prior.mu0_diag
            mu_vec = mu0_vec + self.rng.standard_normal(K + 1) / np.sqrt(
                prior.k0 * tau_vec
            )
            p = self.params[m]
            means = np.zeros((K + 1, K + 1))
            precs = np.zeros((K + 1, K + 1))
            means[:K, :K] = p.means
            precs[:K, :K] = p.precisions
            means[K, :] = mu_vec
            means[:, K] = mu_vec
            precs[K, :] = tau_vec
            precs[:, K] = tau_vec
            self.params[m] = BlockParams(means=means, precisions=precs)
        self._refresh_caches()
        self.GT = np.vstack([self.GT, np.zeros((1, self.n))])
        self.occ = np.append(self.occ, 0.0)
        self._lgocc = np.append(self._lgocc, 0.0)
        self.n_domains += 1

    # ----- label update -----------------------------------------------------

    def _candidate_log_weights(self, i: int, include_new: bool = True) -> np.ndarray:
        """Log weights of the K* existing domains (plus the new-domain slot
        unless excluded) for cell i, already detached from the partition."""
        K = self.n_domains
        cfg = self.config
        buf = np.empty(K + 1 if include_new else K)
        buf[:K] = self._lgocc
        if cfg.lam != 0.0:
            buf[:K] += cfg.lam * (self.GT @ self.graph.adjacency[i])
        for m, w in enumerate(self.weights):
            if w == 0.0:
                continue
            row = self.sims[m][i]
            s1 = self.GT @ row
            s2 = self.GT @ (row * row)
            ell = (
                self._half[m] @ self.occ
                - 0.5 * (self._tau[m] @ s2)
                + self._tau_mu[m] @ s1
            )
            buf[:K] += w * ell
        if include_new:
            buf[K] = self._new_const[i] + self.mfm.log_new_weight(K)
        if not np.isfinite(buf).all():
            self._raise_weight_diagnostic(i, buf)
        return buf

    def _raise_weight_diagnostic(self, i: int, buf: np.ndarray) -> None:
        bad = np.flatnonzero(~np.isfinite(buf))
        terms = {
            "cell": i,
            "candidates": bad.tolist(),
            "occupancy": self.occ.tolist(),
            "weights": buf.tolist(),
        }
        raise NumericError(f"non-finite label weight: {terms}")

    def label_update(self, i: int, return_weights: bool = False, allow_new: bool = True):
        """Resample the label of cell i in place.

        Returns the candidate log-weight vector (existing domains then the
        new-domain slot) when ``return_weights`` is set.  With
        ``allow_new=False`` (warm-start kernel) the new-domain candidate
        is dropped and the last member of a domain stays put.
        """
        old = self.z[i]
        if not allow_new and self.occ[old] == 1.0:
            return None
        self.occ[old] -= 1.0
        self.GT[old, i] = 0.0
        if self.occ[old] == 0.0:
            self.z[i] = -1
            self._purge(old)
        else:
            self._lgocc[old] = math.log(self.occ[old] + self.config.gamma)
        K = self.n_domains
        buf = self._candidate_log_weights(i, include_new=allow_new)
        out = buf.copy() if return_weights else None
        if not allow_new:
            buf = buf - self._lgocc
        c = int(np.argmax(buf + self.rng.gumbel(0.0, 1.0, buf.size)))
        if c == K:
            self._grow()
        self.z[i] = c
        self.occ[c] += 1.0
        self.GT[c, i] = 1.0
        self._lgocc[c] = math.log(self.occ[c] + self.config.gamma)
        return out

    # ----- sweep ------------------------------------------------------------

    def _current_stats(self) -> tuple[list[BlockStats], list[np.ndarray], list[np.ndarray]]:
        labels = self.z + 1
        stats, d1s, d2s = [], [], []
        for A, diag in zip(self.sims, self._diag):
            stats.append(block_stats(A, labels, self.n_domains))
            d1s.append(np.bincount(self.z, weights=diag, minlength=self.n_domains))
            d2s.append(
                np.bincount(self.z, weights=diag * diag, minlength=self.n_domains)
            )
        return stats, d1s, d2s

    def sweep(self, allow_new: bool = True) -> float:
        """One full iteration: label pass, parameter redraw, deviance."""
        for i in range(self.n):
            self.label_update(i, allow_new=allow_new)
        stats, d1s, d2s = self._current_stats()
        self._resample_all_params(stats)
        self.deviance = self._deviance(stats, d1s, d2s)
        return self.deviance

    def _resample_all_params(self, stats: list[BlockStats]) -> None:
        for m, prior in enumerate(self.priors):
            self.params[m] = resample_block_params(stats[m], prior, self.rng)
        self._refresh_caches()

    def refit_params(self) -> None:
        """Redraw every block parameter from its posterior given the current
        partition (used once before the warm-start label passes)."""
        self._resample_all_params(self._current_stats()[0])

    def _cell_fit_scores(self) -> np.ndarray:
        """Weighted log-likelihood of each cell's row under its own domain.

        The label-update expansion with each cell's own-domain row of the
        cached block terms, minus the j = i term.
        """
        z = self.z
        G = self.GT.T
        scores = np.zeros(self.n)
        for m, w in enumerate(self.weights):
            if w == 0.0:
                continue
            A, a = self.sims[m], self._diag[m]
            half, tau, tau_mu = self._half[m], self._tau[m], self._tau_mu[m]
            rows = (
                half[z] @ self.occ
                - 0.5 * ((A * A) @ G * tau[z]).sum(axis=1)
                + (A @ G * tau_mu[z]).sum(axis=1)
            )
            own = half[z, z] - 0.5 * tau[z, z] * a * a + tau_mu[z, z] * a
            scores += w * (rows - own)
        return scores

    def reseed_small_domains(self, min_occ: int = 2) -> bool:
        """Warm-start move: refill withering domains with misfit cells.

        Any domain at or below ``min_occ`` members is reseeded with the
        worst-fitting cells in the current state, then all block
        parameters are refit.  This keeps every warm-start slot usable as
        a split target (tiny domains otherwise sit at the within-domain
        prior location, where no cell can join them).  Never used after
        warm-up.
        """
        K = self.n_domains
        small = np.flatnonzero(self.occ <= min_occ)
        if small.size == 0 or K < 2:
            return False
        q = max(2, self.n // (4 * max(K, 1)))
        scores = self._cell_fit_scores()
        order = np.argsort(scores, kind="stable")
        taken: set[int] = set()
        for d in small:
            moved = 0
            for i in order:
                i = int(i)
                if moved >= q:
                    break
                if i in taken or self.z[i] == d or self.occ[self.z[i]] <= 1:
                    continue
                old = self.z[i]
                self.occ[old] -= 1.0
                self._lgocc[old] = math.log(self.occ[old] + self.config.gamma)
                self.GT[old, i] = 0.0
                self.z[i] = d
                self.occ[d] += 1.0
                self._lgocc[d] = math.log(self.occ[d] + self.config.gamma)
                self.GT[d, i] = 1.0
                taken.add(i)
                moved += 1
        self.refit_params()
        return True

    def _deviance(self, stats, d1s, d2s) -> float:
        return sum(
            w * deviance_from_stats(stats[m], self.occ, d1s[m], d2s[m], self.params[m])
            for m, w in enumerate(self.weights)
            if w != 0.0
        )

    # ----- snapshots ----------------------------------------------------------

    @property
    def labels(self) -> np.ndarray:
        return self.z + 1

    def partition(self) -> Partition:
        return Partition.from_labels(self.labels)

    def snapshot(self) -> ChainSample:
        return ChainSample(
            labels=self.labels.copy(),
            params=[p.copy() for p in self.params],
            deviance=float(self.deviance),
        )


def run_chain(
    sims,
    graph: NeighborhoodGraph,
    config: FitConfig,
    trace_file=None,
) -> list[ChainSample]:
    """Run a full chain and return the post-burn-in samples.

    With thin = 1 this records every post-burn-in sweep, so M =
    n_iterations - n_burnin samples come back.  The first
    ``warmup_sweeps`` sweeps (default half of burn-in) use the warm-start
    kernel with one parameter refit on the initial partition; set
    warmup_sweeps = 0 for the plain kernel throughout.  ``trace_file`` (a
    path or open text handle) receives one line per sweep: iteration,
    domain count, deviance, then the comma-joined label vector.
    """
    sampler = GibbsSampler(sims, graph, config)
    # Recorded samples must come from the full kernel, so the warm start
    # can never outlast burn-in.
    warmup = min(config.resolved_warmup(), config.n_burnin)
    if warmup > 0:
        sampler.refit_params()
    samples: list[ChainSample] = []
    close = False
    handle = None
    if trace_file is not None:
        if hasattr(trace_file, "write"):
            handle = trace_file
        else:
            handle = open(trace_file, "w", encoding="utf-8")
            close = True
    try:
        for it in range(config.n_iterations):
            in_warmup = it < warmup
            dev = sampler.sweep(allow_new=not in_warmup)
            if in_warmup:
                sampler.reseed_small_domains()
            if handle is not None:
                labels = ",".join(str(v) for v in sampler.labels)
                handle.write(f"{it}\t{sampler.n_domains}\t{dev!r}\t{labels}\n")
            if it >= config.n_burnin and (it - config.n_burnin) % config.thin == 0:
                samples.append(sampler.snapshot())
    finally:
        if close and handle is not None:
            handle.close()
    return samples


def derive_seed(master_seed: int, *keys: float) -> int:
    """Deterministic seed from a master seed and a tuple of float keys.

    Keyed on the values themselves (bit patterns), not on any position in
    a list, so dropping unrelated grid points leaves a configuration's
    chain untouched.
    """
    words = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    for k in keys:
        words.append(int.from_bytes(struct.pack("<d", float(k)), "little"))
    ss = np.random.SeedSequence(words)
    return int(ss.generate_state(1, np.uint64)[0])


def config_for_grid_point(base: FitConfig, lam: float, delta: float) -> FitConfig:
    """Independent per-configuration FitConfig with a value-derived seed."""
    return replace(
        base, lam=float(lam), delta=float(delta),
        seed=derive_seed(base.seed, lam, delta),
    )
