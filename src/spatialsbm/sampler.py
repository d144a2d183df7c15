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

The hot loop works on maintained sums instead of similarity rows.  The
sampler keeps, per modality m, the cell-by-domain sums H1[m] = GT @ A_m
and H2[m] = GT @ (A_m * A_m), and the neighbour counts NB = GT @ W,
where GT is the K x n one-hot indicator of the partition and W the
graph's sparse adjacency.  All three live in one domain-major
(K, 2M + 1, n) array H: H[c] holds domain c's rows of H1[0], H2[0], ...,
H1[M-1], H2[M-1] and NB, one contiguous block, and H1, H2 and NB are
views of it.  H2 is built without a full n x n square: columns are
squared in blocks of H2_BLOCK starting at multiples of H2_BLOCK, each
into one reused n x H2_BLOCK buffer, and multiplied by GT straight into
H.  With OpenBLAS this was bit-equal to GT @ (A_m * A_m) at n = 1,600,
3,000 and 4,356, and within 3e-15 (relative) of it where the last block
is only 1 to 76 columns wide (n = 1,025, 1,100, 2,100).  Every label
weight comes from one product (``GibbsSampler._log_weights``): the
coefficient matrix times the cells' columns of H, stacked
modality-major, and the occupancies, each cell's own diagonal terms and
occupancy taken out, O(M K^2) per cell.  A single update, a window of
the label scan and the warm-start reseed's fit scores all share it.
Only a cell that actually changes label costs O(M n): its rows A_m[i],
A_m[i]^2 and its 0/1 neighbour row form one (2M + 1, n) block, which is
subtracted from the old domain's block of H and added to the new one's
(two contiguous row updates; adding 0 or 1 to a count is exact).
Opening a domain appends a zero block and removing one deletes its
block, so the sums are exact bookkeeping with no periodic recompute.
Block statistics per sweep come from a modality-major copy of H times
GT.T in O(M n K^2).

The label pass is an exact sequential scan by the Gumbel-max trick
(Maddison, Tarlow & Minka 2014): a label update is the argmax of its
log-weights plus Gumbel noise, and a cell that keeps its label leaves the
state unchanged.  So the pass draws the noise of a block of upcoming
cells at once, cell-major in the sizes the per-cell loop would draw (K +
1 per cell in the full kernel, K per non-singleton cell in the warm
start, none for a warm-start singleton), scores the cells under the
current state with that product, and finds the first cell whose choice
differs from its label.  The cells before it change nothing; that one
move is applied, and the cells after it are rescored under the new
state with the noise they already drew: a move that neither opens a
domain nor changes which later cell of the block is a singleton leaves
what those cells draw as it was.  The rescored window is twice as long
as the run of cells settled since the previous move (at least 4) and
doubles while no cell moves.  A move that does change the layout ends
the block: unless the mover's noise was the last drawn, the random
stream is rewound to the block start and redrawn up to the mover
(before a new domain draws its parameters), and the next block starts
after it.  A block is twice as long as the run of
cells the previous one settled, at most SCAN_BLOCK.  Full-kernel
singletons go through the scalar update, which purges their domain
first.  Labels, sums, parameters and the random stream follow the
per-cell loop, whose updates score through the same product.  Once
cells stop moving, a sweep is a few blocks instead of n scalar updates.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError
from .likelihood import (
    BlockParams,
    BlockStats,
    NormalGammaPrior,
    block_stats_from_sums,
    deviance_from_stats,
    empirical_prior,
    new_domain_marginal,
    prior_block_params,
    resample_block_params,
)
from .partition import Partition, relabel_contiguous
from .partition_prior import MfmPrior
from .similarity import NeighborhoodGraph, check_similarity_matrix

# Most cells scored per block of the label scan.
SCAN_BLOCK = 256
# Columns per block of H2 = GT @ (A * A) in __init__: blocks start at
# multiples of H2_BLOCK, so one n x H2_BLOCK square is alive at a time.
H2_BLOCK = 1024


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

        # GT[c, i] = 1 iff z_i = c, and the maintained cell-by-domain sums
        # H[c, 2m] = (GT @ A_m)[c], H[c, 2m + 1] = (GT @ (A_m * A_m))[c],
        # H[c, -1] = (GT @ W)[c]: domain-major (see the module docstring).
        self.GT = np.zeros((self.n_domains, n))
        self.GT[self.z, np.arange(n)] = 1.0
        self.H = np.empty((self.n_domains, 2 * len(self.sims) + 1, n))
        squares = np.empty(n * min(n, H2_BLOCK))
        for m, A in enumerate(self.sims):
            np.matmul(self.GT, A, out=self.H[:, 2 * m])
            for s in range(0, n, H2_BLOCK):
                cols = A[:, s : s + H2_BLOCK]
                sq = np.multiply(cols, cols, out=squares[: cols.size].reshape(cols.shape))
                np.matmul(self.GT, sq, out=self.H[:, 2 * m + 1, s : s + H2_BLOCK])
        self.H[:, -1] = (graph.W @ self.GT.T).T
        self.occ = self.GT.sum(axis=1)
        # log(n_c + gamma) and log(n_c - 1 + gamma), the urn mass of a
        # domain with and without the scored cell, by math.log as label
        # updates write them, so a cell that keeps its label leaves them
        # bit-for-bit as they were.
        g = config.gamma
        self._lgocc = np.array([math.log(o + g) for o in self.occ.tolist()])
        self._lgdet = np.array([math.log(o - 1.0 + g) for o in self.occ.tolist()])
        self._diag = [np.ascontiguousarray(np.diag(A)) for A in self.sims]
        # Cell i's own entries of the H1 / H2 rows: [A_m[i, i], A_m[i, i]^2].
        self._self_terms = np.array([t for d in self._diag for t in (d, d * d)])
        # _move's scratch rows, allocated once (a fresh array per move can
        # fault in new pages each time malloc maps or trims it); the last,
        # neighbour row is zero outside a move.
        self._rows = np.zeros((2 * len(self.sims) + 1, n))
        self._upper = np.triu_indices(self.n_domains)
        self._new_const = np.zeros(n)
        for diag, w, prior in zip(self._diag, self.weights, self.priors):
            if w == 0.0:
                continue
            self._new_const += w * np.array(
                [new_domain_marginal(a, prior) for a in diag]
            )
        self._refresh_caches()
        self.deviance = self._deviance(*self._current_stats())

    @property
    def H1(self) -> np.ndarray:
        """(M, K, n) view: H1[m] = GT @ A_m."""
        return self.H[:, 0:-1:2].transpose(1, 0, 2)

    @property
    def H2(self) -> np.ndarray:
        """(M, K, n) view: H2[m] = GT @ (A_m * A_m)."""
        return self.H[:, 1:-1:2].transpose(1, 0, 2)

    @property
    def NB(self) -> np.ndarray:
        """(K, n) view: NB[c, j] = number of neighbours of j in domain c."""
        return self.H[:, -1]

    # ----- cached per-sweep quantities -------------------------------------

    def _refresh_caches(self) -> None:
        """Per-parameter terms of the label update.

        ``_coef`` is the K x (R + 1) K matrix that turns a detached cell's
        column of the sums H, followed by the occupancies, into the
        likelihood and spatial part of its existing-domain log-weights:
        its blocks are w_m tau_m mu_m against H1[m], -w_m tau_m / 2
        against H2[m], lam I against NB and sum_m w_m h_m against the
        occupancies, where h_m = log(tau_m) / 2 - tau_m mu_m^2 / 2 is the
        part of the Gaussian log-density that does not depend on the
        observation.
        """
        K = self.params[0].n_domains
        R = self.H.shape[1]
        coef = np.zeros((K, R + 1, K))
        for m, (p, w) in enumerate(zip(self.params, self.weights)):
            if w == 0.0:
                continue
            coef[:, 2 * m] = w * p.precisions * p.means
            coef[:, 2 * m + 1] = -0.5 * w * p.precisions
            tau, mu = p.precisions, p.means
            coef[:, R] += w * (0.5 * np.log(tau) - 0.5 * tau * mu * mu)
        diag = np.arange(K)
        coef[diag, R - 1, diag] = self.config.lam
        self._coef = coef.reshape(K, -1)
        # The sums H and the occupancies are bounded, so finite
        # coefficients keep every existing-domain weight finite; a finite
        # total means every coefficient is finite.
        if not math.isfinite(self._coef.sum()):
            rows, cols = np.nonzero(~np.isfinite(self._coef))
            pairs = sorted(set(zip(rows.tolist(), (cols % K).tolist())))
            raise NumericError(f"non-finite label-weight terms at domain pairs {pairs}")

    # ----- structural edits -------------------------------------------------

    def _purge(self, d: int) -> None:
        """Remove the (empty) domain d, shifting labels above it down."""
        self.z[self.z > d] -= 1
        self.GT = np.delete(self.GT, d, axis=0)
        self.H = np.delete(self.H, d, axis=0)
        self.occ = np.delete(self.occ, d)
        self._lgocc = np.delete(self._lgocc, d)
        self._lgdet = np.delete(self._lgdet, d)
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
        self.H = np.concatenate([self.H, np.zeros((1,) + self.H.shape[1:])])
        # The new domain's urn terms are set when its first cell attaches.
        self.occ = np.append(self.occ, 0.0)
        self._lgocc = np.append(self._lgocc, 0.0)
        self._lgdet = np.append(self._lgdet, 0.0)
        self.n_domains += 1

    def _move(self, i: int, old: int, new: int) -> None:
        """Relabel cell i from domain old to new in z, GT and the sums H.

        Cell i's contribution to one domain's sums is the (2M + 1, n) block
        of its rows A_m[i], A_m[i]^2 and its 0/1 neighbour row, so a move
        is two contiguous row updates (adding 0 or 1 to a count is exact).
        ``old = -1`` means the cell's old domain was already purged, which
        removed its contribution along with the domain's row.
        Occupancies are the caller's business.
        """
        rows = self._rows
        for m, A in enumerate(self.sims):
            a = A[i]
            rows[2 * m] = a
            np.multiply(a, a, out=rows[2 * m + 1])
        nbrs = self.graph.neighbors(i)
        rows[-1, nbrs] = 1.0
        if old >= 0:
            self.H[old] -= rows
            self.GT[old, i] = 0.0
        self.H[new] += rows
        rows[-1, nbrs] = 0.0
        self.GT[new, i] = 1.0
        self.z[i] = new

    # ----- label update -----------------------------------------------------

    def _log_weights(self, i: int, e: int, new: np.ndarray | None) -> np.ndarray:
        """Label log-weights of cells i..e-1 under the current state, one
        column per cell.

        Each cell is scored as if detached from its own domain: the sums H
        and the occupancies still count it there, so its own diagonal
        terms and occupancy are taken out through its GT column (empty for
        a cell whose domain was purged; W has a zero diagonal).  With
        ``new``, the cells' new-domain log-weights, the K existing-domain
        rows add the urn mass log(n_c + gamma) of the detached state and
        row K is ``new``.  With None (warm-start kernel) the K rows of fit
        and spatial terms come back alone.
        """
        K = self.n_domains
        R = self.H.shape[1]
        B = e - i
        own = self.GT[:, i:e]
        H = self.H[:, :, i:e].transpose(1, 0, 2)
        X = np.empty((R + 1, K, B))
        np.subtract(H[:-1], own * self._self_terms[:, None, i:e], out=X[: R - 1])
        X[R - 1] = H[-1]
        np.subtract(self.occ[:, None], own, out=X[R])
        fit = self._coef @ X.reshape(-1, B)
        if new is None:
            return fit
        logw = np.empty((K + 1, B))
        logw[:K] = fit + np.where(own, self._lgdet[:, None], self._lgocc[:, None])
        logw[K] = new
        return logw

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

        Returns the candidate log-weight vector the label is drawn from
        (existing domains then the new-domain slot) when
        ``return_weights`` is set.  With ``allow_new=False`` (warm-start
        kernel) the new-domain candidate and the urn mass are dropped, and
        the last member of a domain stays put (returning None).
        """
        singleton = self.occ[self.z[i]] == 1.0
        if singleton:
            if not allow_new:
                return None
            # The last member of its domain: the domain goes first, so the
            # candidates are the K - 1 others and a new one.
            self._detach(i)
        new = None
        if allow_new:
            new = self._new_const[i : i + 1] + self.mfm.log_new_weight(self.n_domains)
        w = self._log_weights(i, i + 1, new)[:, 0]
        if new is not None and not math.isfinite(new[0]):
            self._raise_weight_diagnostic(i, w)
        c = int((w + self.rng.gumbel(0.0, 1.0, w.size)).argmax())
        self._attach(i, -1 if singleton else self._detach(i), c)
        return w if return_weights else None

    def _detach(self, i: int) -> int:
        """Take cell i out of its domain's occupancy; return that domain,
        or -1 if the cell was its last member and the domain was purged."""
        old = self.z[i]
        self.occ[old] -= 1.0
        if self.occ[old] == 0.0:
            self.z[i] = -1
            self._purge(old)
            return -1
        self._set_urn_terms(old)
        return old

    def _attach(self, i: int, old: int, c: int) -> None:
        """Put the detached cell i into domain c (K means a new domain)."""
        if c == self.n_domains:
            self._grow()
        if c != old:
            self._move(i, old, c)
        self.occ[c] += 1.0
        self._set_urn_terms(c)

    def _set_urn_terms(self, c: int) -> None:
        o, g = self.occ[c], self.config.gamma
        self._lgocc[c] = math.log(o + g)
        self._lgdet[c] = math.log(o - 1.0 + g)

    # ----- label pass -------------------------------------------------------

    def _label_pass(self, allow_new: bool) -> None:
        """Resample every label once, cells 0..n-1 in order.

        Draws the same Gumbel noise and makes the same moves as calling
        :meth:`label_update` on each cell in turn, but scores blocks of
        cells at a time (see the module docstring).  Full-kernel
        singletons, and a cell whose new-domain weight is not finite
        (which raises there), go through :meth:`label_update`.
        """
        i = 0
        length = SCAN_BLOCK
        while i < self.n:
            e, new = min(i + length, self.n), None
            if allow_new and self.occ[self.z[i]] == 1.0:
                e = i
            elif allow_new:
                new = self._new_const[i:e] + self.mfm.log_new_weight(self.n_domains)
                stop = (self.occ[self.z[i:e]] == 1.0) | ~np.isfinite(new)
                if stop.any():
                    e = i + int(stop.argmax())
                    new = new[: e - i]
            if e == i:
                # A full-kernel singleton, whose domain is purged first, or
                # a cell whose new-domain weight is not finite, where
                # label_update raises.
                self.label_update(i)
                i += 1
                continue
            nxt = self._scan_block(i, e, new)
            # The next block is twice as long as the run of cells this one
            # settled before it had to end at a mover: short where domains
            # open often, long where none do.
            settled = nxt - i if nxt == e else nxt - 1 - i
            length = min(SCAN_BLOCK, max(1, 2 * settled))
            i = nxt

    def _scan_block(self, i: int, e: int, new: np.ndarray | None) -> int:
        """Resample cells i..e-1 with one draw of their noise; return the
        cell the pass resumes at.

        ``new`` holds the cells' new-domain log-weights (full kernel, no
        singletons among the cells) or is None (warm-start kernel).  Each
        move is applied as it is found and the scan rescores the cells
        after it under the new state with the noise they already have,
        unless the move changes what later cells of the block draw (see
        :meth:`_ends_block`); then the block ends at the mover.
        """
        if new is None:
            # Warm-start singletons stay put and draw no noise.
            drawn = (self.occ[self.z[i:e]] > 1.0).nonzero()[0]
            if drawn.size == 0:
                return e
        else:
            drawn = np.arange(e - i)
        start = self.rng.bit_generator.state
        width = self.n_domains + (new is not None)
        noise = self.rng.gumbel(0.0, 1.0, (drawn.size, width))
        a, window, since = 0, drawn.size, 0
        while a < drawn.size:
            b = min(a + window, drawn.size)
            c0, c1 = i + int(drawn[a]), i + int(drawn[b - 1]) + 1
            logw = self._log_weights(c0, c1, None if new is None else new[c0 - i : c1 - i])
            z = self.z[c0:c1]
            if c1 - c0 > b - a:
                cols = drawn[a:b] - drawn[a]
                logw, z = logw[:, cols], z[cols]
            choice = (logw + noise[a:b].T).argmax(axis=0)
            moved = (choice != z).nonzero()[0]
            if moved.size == 0:
                # Doubles while no cell moves.
                a, window = b, 2 * window
                continue
            q = a + int(moved[0])
            cell, c = i + int(drawn[q]), int(choice[moved[0]])
            if self._ends_block(cell, c, e, new is not None):
                # Leave the stream just past the mover's noise, as the
                # per-cell loop does, before a new domain draws its
                # parameters.
                if q + 1 < drawn.size:
                    self.rng.bit_generator.state = start
                    self.rng.gumbel(0.0, 1.0, (q + 1) * width)
                self._attach(cell, self._detach(cell), c)
                return cell + 1
            self._attach(cell, self._detach(cell), c)
            # Rescore a window twice as long as the run settled since the
            # last move.
            a, window, since = q + 1, max(4, 2 * (q - since)), q + 1
        return e

    def _ends_block(self, cell: int, c: int, e: int, allow_new: bool) -> bool:
        """Whether moving ``cell`` to domain c changes the noise layout of
        cells cell+1..e-1 of its block: the move opens a domain (every
        later width grows, and the new domain draws its parameters), or
        it changes which later cells are singletons.  A full-kernel
        singleton must purge its domain, and a warm-start singleton draws
        no noise; so the old domain dropping to one member matters, and in
        the warm start so does the target rising from one member to two,
        when that member lies later in the block."""
        if c == self.n_domains:
            return True
        old = self.z[cell]
        if self.occ[old] == 2.0 and self.GT[old, cell + 1 : e].any():
            return True
        return not allow_new and self.occ[c] == 1.0 and bool(self.GT[c, cell + 1 : e].any())

    # ----- sweep ------------------------------------------------------------

    def _current_stats(self) -> tuple[list[BlockStats], list[np.ndarray], list[np.ndarray]]:
        # A contiguous (2M, K, n) copy, so BLAS sums as it did on the
        # modality-major layout.
        sums = np.ascontiguousarray(self.H[:, :-1].transpose(1, 0, 2)) @ self.GT.T
        stats, d1s, d2s = [], [], []
        for m, diag in enumerate(self._diag):
            d1s.append(np.bincount(self.z, weights=diag, minlength=self.n_domains))
            d2s.append(
                np.bincount(self.z, weights=diag * diag, minlength=self.n_domains)
            )
            stats.append(
                block_stats_from_sums(self.occ, sums[2 * m], sums[2 * m + 1],
                                      d1s[m], d2s[m])
            )
        return stats, d1s, d2s

    def sweep(self, allow_new: bool = True) -> float:
        """One full iteration: label pass, parameter redraw, deviance."""
        self._label_pass(allow_new)
        stats, d1s, d2s = self._current_stats()
        self._resample_all_params(stats)
        self.deviance = self._deviance(stats, d1s, d2s)
        return self.deviance

    def _resample_all_params(self, stats: list[BlockStats]) -> None:
        # The upper-triangle indices are rebuilt only when K has changed.
        K = self.n_domains
        if self._upper[0].size != K * (K + 1) // 2:
            self._upper = np.triu_indices(K)
        for m, prior in enumerate(self.priors):
            self.params[m] = resample_block_params(stats[m], prior, self.rng, self._upper)
        self._refresh_caches()

    def refit_params(self) -> None:
        """Redraw every block parameter from its posterior given the current
        partition (used once before the warm-start label passes)."""
        self._resample_all_params(self._current_stats()[0])

    def _cell_fit_scores(self) -> np.ndarray:
        """Weighted log-likelihood of each cell's row under its own domain:
        its own-domain label weight in the warm-start kernel, less the
        spatial reward."""
        cells = np.arange(self.n)
        fit = self._log_weights(0, self.n, None)
        return fit[self.z, cells] - self.config.lam * self.NB[self.z, cells]

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
                self._attach(i, self._detach(i), d)
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
    path) receives one line per sweep: iteration, domain count, deviance,
    then the comma-joined label vector.
    """
    sampler = GibbsSampler(sims, graph, config)
    # Recorded samples must come from the full kernel, so the warm start
    # can never outlast burn-in.
    warmup = min(config.resolved_warmup(), config.n_burnin)
    if warmup > 0:
        sampler.refit_params()
    samples: list[ChainSample] = []
    trace = (open(trace_file, "w", encoding="utf-8") if trace_file is not None
             else contextlib.nullcontext())
    with trace as handle:
        for it in range(config.n_iterations):
            in_warmup = it < warmup
            dev = sampler.sweep(allow_new=not in_warmup)
            if in_warmup:
                sampler.reseed_small_domains()
            if handle is not None:
                labels = ",".join(str(v) for v in sampler.labels)
                handle.write(f"{it}\t{sampler.n_domains}\t{float(dev)!r}\t{labels}\n")
            if it >= config.n_burnin and (it - config.n_burnin) % config.thin == 0:
                samples.append(sampler.snapshot())
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
