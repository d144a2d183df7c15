"""Independent brute-force oracles used by the test suite.

Everything here is written for clarity over speed and deliberately avoids
the library's computational paths: plain loops, dense decompositions,
numerical quadrature, arbitrary-precision series sums, and exhaustive
enumeration.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy.stats import hypergeom


# ---------------------------------------------------------------------------
# dense-decomposition oracle for the feature frontends


def svd_scores(X: np.ndarray, n_components: int) -> np.ndarray:
    """Principal-component scores from a full SVD of the centered matrix."""
    X = np.asarray(X, dtype=float)
    Xc = X - X.mean(axis=0)
    U, s, _ = np.linalg.svd(Xc, full_matrices=False)
    return U[:, :n_components] * s[:n_components]


def match_up_to_sign(A: np.ndarray, B: np.ndarray, atol: float) -> bool:
    """Column-wise equality allowing a global sign flip per column."""
    if A.shape != B.shape:
        return False
    for j in range(A.shape[1]):
        if not (
            np.allclose(A[:, j], B[:, j], atol=atol)
            or np.allclose(A[:, j], -B[:, j], atol=atol)
        ):
            return False
    return True


def clr_transform(X: np.ndarray) -> np.ndarray:
    """Centered log-ratio rows: log1p then subtract the row mean."""
    Y = np.log1p(np.asarray(X, dtype=float))
    return Y - Y.mean(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# per-value CSV matrix reader and writer


def read_matrix_csv_per_token(path) -> np.ndarray:
    """CSV matrix parsed row by row with ``csv.reader`` and ``float()`` per
    token; a first row with a non-numeric token is a header, blank and
    whitespace-only rows are skipped."""
    rows = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                values = [float(tok) for tok in row]
            except ValueError:
                if lineno == 1:
                    continue
                raise
            rows.append(values)
    return np.array(rows, dtype=float)


def write_matrix_csv_per_value(path, matrix, header=None) -> None:
    """CSV matrix written by ``csv.writer``, each value as ``repr(float(v))``."""
    matrix = np.asarray(matrix, dtype=float)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for row in matrix:
            writer.writerow([repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# pair-loop oracle for the neighbourhood graph


def edge_pairs_loop(coords: np.ndarray, delta: float) -> list[tuple[int, int]]:
    """Every pair i < j with dx^2 + dy^2 <= delta^2, in row-major order."""
    P = np.asarray(coords, dtype=float)
    pairs = []
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            dx = float(P[i, 0] - P[j, 0])
            dy = float(P[i, 1] - P[j, 1])
            if dx * dx + dy * dy <= delta * delta:
                pairs.append((i, j))
    return pairs


# ---------------------------------------------------------------------------
# urn and spatial-reward terms of the label conditional, one at a time


def urn_log_weight_existing(n_c_minus_i: float, gamma: float) -> float:
    """log(n_c + gamma) for an existing domain with n_c members (cell removed)."""
    if n_c_minus_i < 1:
        raise ValueError("existing domains must have at least one member")
    return math.log(n_c_minus_i + gamma)


def urn_log_weight_new(k_star: int, mfm) -> float:
    """Log urn weight of opening a new domain when K* domains are active."""
    return mfm.log_new_weight(k_star)


def mrf_log_reward(labels, graph, i: int, c: int, lam: float) -> float:
    """lam times the number of neighbours of cell i labelled c, read from
    the dense adjacency row (zero for a new domain's label)."""
    row = graph.W.toarray()[i]
    return float(lam * sum(1 for j in np.flatnonzero(row) if labels[j] == c))


# ---------------------------------------------------------------------------
# pair-enumeration oracle for block statistics


def block_stats_by_enumeration(A: np.ndarray, labels: np.ndarray, n_domains: int):
    """Counts, means and SSEs of every block by walking all pairs i < j."""
    buckets: dict[tuple[int, int], list[float]] = {}
    n = len(labels)
    for i in range(n):
        for j in range(i + 1, n):
            r, s = sorted((labels[i], labels[j]))
            buckets.setdefault((r, s), []).append(A[i, j])
    count = np.zeros((n_domains, n_domains))
    mean = np.zeros((n_domains, n_domains))
    sse = np.zeros((n_domains, n_domains))
    for (r, s), vals in buckets.items():
        vals = np.array(vals)
        m = vals.mean()
        for a, b in ((r - 1, s - 1), (s - 1, r - 1)):
            count[a, b] = len(vals)
            mean[a, b] = m
            sse[a, b] = ((vals - m) ** 2).sum()
    return count, mean, sse


# ---------------------------------------------------------------------------
# scalar formulas of the block likelihood


def posterior_hyperparams(count, mean, sse, prior, within: bool):
    """Conjugate (k_n, mu_n, alpha_n, beta_n) for one block's statistics."""
    mu0 = prior.mu0_diag if within else prior.mu0_offdiag
    kn = prior.k0 + count
    mun = (prior.k0 * mu0 + count * mean) / kn
    an = prior.alpha + count / 2.0
    bn = prior.beta + 0.5 * (sse + count * prior.k0 / kn * (mean - mu0) ** 2)
    return kn, mun, an, bn


def cell_conditional_loglik(A, labels, params, i: int, c: int) -> float:
    """Log-likelihood of cell i's similarity row under candidate domain c.

    Sums 0.5 log tau[c, z_j] - tau[c, z_j] / 2 * (A[i, j] - mu[c, z_j])^2
    over every j != i.
    """
    labels = np.asarray(labels)
    n = labels.size
    mask = np.arange(n) != i
    zj = labels[mask] - 1
    tau = params.precisions[c - 1, zj]
    mu = params.means[c - 1, zj]
    return float(np.sum(0.5 * np.log(tau) - 0.5 * tau * (A[i, mask] - mu) ** 2))


# ---------------------------------------------------------------------------
# two-dimensional quadrature over the Normal-Gamma joint


def _log_joint(data, mu, tau, mu0, k0, alpha, beta):
    """Unnormalized log prior x likelihood on a (mu, tau) grid."""
    lp = (
        alpha * math.log(beta)
        - math.lgamma(alpha)
        + (alpha - 0.5) * np.log(tau)
        - beta * tau
        + 0.5 * math.log(k0 / (2 * math.pi))
        - 0.5 * k0 * tau * (mu - mu0) ** 2
    )
    for x in data:
        lp = lp + 0.5 * np.log(tau) - 0.5 * np.log(2 * math.pi) - 0.5 * tau * (x - mu) ** 2
    return lp


def _quad_grid(data, mu0, k0, alpha, beta, n_nodes=400):
    """Gauss-Legendre grid for integrals against prior x likelihood.

    tau is integrated on a log grid whose window comes from a coarse scan
    (level set 15 below the peak of the tau profile, padded), and mu is
    integrated in the standardized variable u = (mu - mu_hat) *
    sqrt((k0 + n) tau), which keeps the conditional width of mu roughly
    constant across tau rows.  Both are plain substitutions; no conjugate
    identities enter the computation.
    """
    data = np.asarray(data, dtype=float)
    n = data.size
    center = (k0 * mu0 + data.sum()) / (k0 + n)  # crude location guess
    ltau_scan = np.linspace(math.log(1e-6), math.log(1e6), 1500)
    prof = _log_joint(data, center, np.exp(ltau_scan), mu0, k0, alpha, beta) + ltau_scan
    keep = np.flatnonzero(prof >= prof.max() - 15.0)
    lt_lo, lt_hi = ltau_scan[keep[0]], ltau_scan[keep[-1]]
    pad = 1.5 * (lt_hi - lt_lo) + 1.0
    xg, wg = np.polynomial.legendre.leggauss(n_nodes)
    lt_nodes = 0.5 * (lt_hi + lt_lo) + 0.5 * (lt_hi - lt_lo + 2 * pad) * xg
    wlt = 0.5 * (lt_hi - lt_lo + 2 * pad) * wg
    u_half = 14.0
    u_nodes = u_half * xg
    wu = u_half * wg
    U, L = np.meshgrid(u_nodes, lt_nodes, indexing="ij")
    T = np.exp(L)
    scale = np.sqrt((k0 + n) * T)
    M = center + U / scale
    # + L for d(tau) = tau d(log tau); - log(scale) for d(mu) = du / scale
    lp = _log_joint(data, M, T, mu0, k0, alpha, beta) + L - np.log(scale)
    return M, T, lp, np.outer(wu, wlt)


def ng_posterior_moments_quadrature(data, mu0, k0, alpha, beta):
    """(E[mu], E[tau]) of the posterior by direct 2-D quadrature."""
    M, T, lp, W = _quad_grid(data, mu0, k0, alpha, beta)
    scale = lp.max()
    f = np.exp(lp - scale) * W
    z = f.sum()
    return float((f * M).sum() / z), float((f * T).sum() / z)


def ng_log_marginal_quadrature(x, mu0, k0, alpha, beta):
    """log of the fully normalized single-observation evidence by quadrature."""
    M, T, lp, W = _quad_grid([x], mu0, k0, alpha, beta)
    scale = lp.max()
    return float(math.log((np.exp(lp - scale) * W).sum()) + scale)


# ---------------------------------------------------------------------------
# arbitrary-precision series oracle for the component-count coefficients


def log_vn_mpmath(n: int, gamma: float, t: int, dps: int = 50, kmax: int = 400) -> float:
    """log V_n(t) summed term by term at dps decimal digits."""
    with mpmath.workdps(dps):
        g = mpmath.mpf(gamma)
        norm = 1 - mpmath.e ** -1
        total = mpmath.mpf(0)
        for k in range(t, t + kmax):
            falling = mpmath.ff(k, t)
            rising = mpmath.rf(g * k, n)
            p_k = mpmath.e ** -1 / (mpmath.factorial(k) * norm)
            total += falling / rising * p_k
        return float(mpmath.log(total))


# ---------------------------------------------------------------------------
# exhaustive set-partition oracle for the component-count prior


def set_partitions(n: int):
    """All set partitions of range(n) as 0-based restricted-growth labels."""

    def rec(i, labels, k):
        if i == n:
            yield tuple(labels)
            return
        for c in range(k + 1):
            labels.append(c)
            yield from rec(i + 1, labels, max(k, c + 1))
            labels.pop()

    yield from rec(0, [], 0)


def mfm_k_distribution(n: int, gamma: float, log_vn_fn) -> np.ndarray:
    """Exact P(K = t) for t = 1..n by enumerating all set partitions.

    A partition with blocks of sizes q_1..q_t has probability proportional
    to V_n(t) times the product of rising factorials gamma^(q_c).
    """
    log_weights: dict[int, list[float]] = {}
    for labels in set_partitions(n):
        t = max(labels) + 1
        sizes = np.bincount(labels)
        lw = log_vn_fn(t) + sum(
            math.lgamma(gamma + q) - math.lgamma(gamma) for q in sizes
        )
        log_weights.setdefault(t, []).append(lw)
    out = np.zeros(n)
    for t, vals in log_weights.items():
        m = max(vals)
        out[t - 1] = math.exp(m) * sum(math.exp(v - m) for v in vals)
    return out / out.sum()


# ---------------------------------------------------------------------------
# direct evaluation of the label-update full conditional


def full_conditional_oracle(
    sims, weights, labels, params_list, graph, lam, gamma, mfm, priors, i,
):
    """Candidate log-weights for cell i straight from the update formulas.

    Removes cell i (mimicking the sampler's purge-and-relabel), then scores
    every existing domain and the new-domain slot.
    """
    from spatialsbm.likelihood import new_domain_marginal

    labels = np.asarray(labels).copy()
    n = len(labels)
    old = labels[i]
    occ = np.bincount(labels, minlength=labels.max() + 1)[1:]
    occ[old - 1] -= 1
    params_list = [
        type(p)(p.means.copy(), p.precisions.copy()) for p in params_list
    ]
    if occ[old - 1] == 0:
        labels[labels > old] -= 1
        labels[i] = -1
        occ = np.delete(occ, old - 1)
        for p in params_list:
            p.means = np.delete(np.delete(p.means, old - 1, 0), old - 1, 1)
            p.precisions = np.delete(np.delete(p.precisions, old - 1, 0), old - 1, 1)
    k_star = occ.size
    out = []
    for c in range(1, k_star + 1):
        w = 0.0
        for A, alpha_m, params in zip(sims, weights, params_list):
            if alpha_m == 0.0:
                continue
            ell = 0.0
            for j in range(n):
                if j == i:
                    continue
                tau = params.precisions[c - 1, labels[j] - 1]
                mu = params.means[c - 1, labels[j] - 1]
                ell += 0.5 * math.log(tau) - 0.5 * tau * (A[i, j] - mu) ** 2
            w += alpha_m * ell
        nbrs = graph.neighbors(i)
        w += lam * sum(1 for j in nbrs if labels[j] == c)
        w += math.log(occ[c - 1] + gamma)
        out.append(w)
    w_new = math.log(gamma) + mfm.log_vn_at(k_star + 1) - mfm.log_vn_at(k_star)
    for A, alpha_m, prior in zip(sims, weights, priors):
        if alpha_m == 0.0:
            continue
        w_new += alpha_m * new_domain_marginal(A[i, i], prior)
    out.append(w_new)
    return np.array(out)


def scalar_label_pass(sampler, allow_new: bool) -> None:
    """The sampler's label pass as one ``label_update`` per cell, in order."""
    for i in range(sampler.n):
        sampler.label_update(i, allow_new=allow_new)


def cell_fit_scores_dense(sims, weights, labels, params_list) -> np.ndarray:
    """Each cell's weighted row log-likelihood under its own domain.

    Gathers the dense n x n block precision and mean matrices and sums the
    Gaussian log-density (constant omitted) over j != i.
    """
    z0 = np.asarray(labels) - 1
    scores = np.zeros(z0.size)
    for A, w, params in zip(sims, weights, params_list):
        if w == 0.0:
            continue
        Tau = params.precisions[np.ix_(z0, z0)]
        Mu = params.means[np.ix_(z0, z0)]
        L = 0.5 * np.log(Tau) - 0.5 * Tau * (A - Mu) ** 2
        scores += w * (L.sum(axis=1) - np.diag(L))
    return scores


# ---------------------------------------------------------------------------
# clustering-metric oracles by direct summation


def ari_pair_counting(truth, pred) -> float:
    """Adjusted Rand index via explicit pair category counts."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    n = len(truth)
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            st = truth[i] == truth[j]
            sp = pred[i] == pred[j]
            if st and sp:
                a += 1
            elif st and not sp:
                b += 1
            elif sp and not st:
                c += 1
            else:
                d += 1
    N = n * (n - 1) / 2
    if N == 0:
        return 1.0
    ri = (a + d) / N
    p_t = (a + b) / N
    p_p = (a + c) / N
    e_ri = p_t * p_p + (1 - p_t) * (1 - p_p)
    if e_ri == 1.0:
        return 1.0 if b == 0 and c == 0 else 0.0
    return (ri - e_ri) / (1 - e_ri)


def spari_linear_decay_pair_loop(truth, pred, coords, d_max: float) -> float:
    """Distance-weighted adjusted Rand index by walking all pairs i < j.

    Each pair gets w = min(1, d / d_max); disagreeing pairs return 1 - w
    of their credit, and the chance term shrinks by the same weighted mass.
    """
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    coords = np.asarray(coords, dtype=float)
    n = len(truth)
    N = n * (n - 1) / 2
    agree = t_pairs = p_pairs = 0
    leak = weight_sum = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            w = min(1.0, math.dist(coords[i], coords[j]) / d_max)
            weight_sum += w
            st = truth[i] == truth[j]
            sp = pred[i] == pred[j]
            t_pairs += st
            p_pairs += sp
            if st == sp:
                agree += 1
            else:
                leak += 1.0 - w
    e_plain = N - t_pairs - p_pairs + 2.0 * t_pairs * p_pairs / N
    expected = e_plain + (1.0 - e_plain / N) * (N - weight_sum)
    return (agree + leak - expected) / (N - expected)


def info_metrics_direct(truth, pred) -> tuple[float, float, float]:
    """(NMI, AMI, homogeneity) from first principles with exact E[MI]."""
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    n = len(truth)
    t_vals = sorted(set(truth.tolist()))
    p_vals = sorted(set(pred.tolist()))
    nij = {
        (tv, pv): int(np.sum((truth == tv) & (pred == pv)))
        for tv in t_vals
        for pv in p_vals
    }
    a = {tv: int(np.sum(truth == tv)) for tv in t_vals}
    b = {pv: int(np.sum(pred == pv)) for pv in p_vals}

    def entropy(counts):
        return -sum(c / n * math.log(c / n) for c in counts if c > 0)

    h_t = entropy(a.values())
    h_p = entropy(b.values())
    mi = 0.0
    for (tv, pv), cnt in nij.items():
        if cnt > 0:
            mi += cnt / n * math.log(n * cnt / (a[tv] * b[pv]))
    emi = 0.0
    for tv in t_vals:
        for pv in p_vals:
            ai, bj = a[tv], b[pv]
            for m in range(max(1, ai + bj - n), min(ai, bj) + 1):
                pmf = hypergeom.pmf(m, n, ai, bj)
                emi += pmf * (m / n) * math.log(n * m / (ai * bj))
    nmi = mi / math.sqrt(h_t * h_p) if h_t > 0 and h_p > 0 else 0.0
    denom = 0.5 * (h_t + h_p) - emi
    ami = (mi - emi) / denom if denom != 0 else 0.0
    h_cond = 0.0
    for (tv, pv), cnt in nij.items():
        if cnt > 0:
            h_cond -= cnt / n * math.log(cnt / b[pv])
    homogeneity = 1.0 if h_t == 0 else 1.0 - h_cond / h_t
    return nmi, ami, homogeneity


def morans_i_direct(x: np.ndarray, W: np.ndarray) -> float:
    """Classic autocorrelation statistic of one indicator by double loop."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    xbar = x.mean()
    num = 0.0
    for i in range(n):
        for j in range(n):
            num += W[i, j] * (x[i] - xbar) * (x[j] - xbar)
    den = ((x - xbar) ** 2).sum()
    if den == 0:
        return 0.0
    return n / W.sum() * num / den


def dahl_distances_dense(label_list) -> np.ndarray:
    """M^2 times each sample's squared distance to the mean co-membership.

    Builds every n x n co-membership matrix and sums (M B_s - sum_t B_t)^2
    in integers, so exact ties stay ties.
    """
    mats = []
    for labels in label_list:
        labels = np.asarray(labels)
        mats.append((labels[:, None] == labels[None, :]).astype(np.int64))
    total = sum(mats)
    m = len(mats)
    return np.array([int(((m * B - total) ** 2).sum()) for B in mats])


def dahl_exhaustive(label_list) -> int:
    """Index minimizing the squared distance to the mean co-membership;
    exact ties go to the smallest index."""
    dists = dahl_distances_dense(label_list)
    best = 0
    for t in range(1, len(dists)):
        if dists[t] < dists[best]:
            best = t
    return best


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def enumerate_pairs(n: int):
    return itertools.combinations(range(n), 2)
