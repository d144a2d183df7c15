"""Partition prior: mixture-of-finite-mixtures coefficients and the
spatial label reward.

The component-count prior is a zero-truncated Poisson(1).  The coefficient

    V_n(t) = sum_{k >= t}  k!/(k-t)!  /  [(gamma k)(gamma k + 1)...(gamma k + n - 1)] * p(k)

is computed in log space on first use; its ratio V_n(t+1)/V_n(t) < 1 is
what makes opening a new domain progressively harder.  The spatial
reward adds ``lam`` per neighbor sharing the candidate label and is zero
for a brand new domain; the sampler scores it from its maintained
neighbour counts, and this module gives the ordering threshold used to
bound ``lam``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import NumericError
from .similarity import NeighborhoodGraph

# log(1 - exp(-1)): normalizer of the zero-truncated Poisson(1) pmf
_LOG_1ME = math.log1p(-math.exp(-1.0))


def log_truncated_poisson1(k: int | np.ndarray) -> np.ndarray:
    """log pmf of the zero-truncated Poisson(1) distribution, k >= 1."""
    k = np.asarray(k, dtype=float)
    return -1.0 - gammaln(k + 1.0) - _LOG_1ME


def _log_series_term(n: int, gamma: float, t: int, k: np.ndarray) -> np.ndarray:
    """Log of one series term: falling factorial over rising factorial times p(k)."""
    k = np.asarray(k, dtype=float)
    log_falling = gammaln(k + 1.0) - gammaln(k - t + 1.0)
    log_rising = gammaln(gamma * k + n) - gammaln(gamma * k)
    return log_falling - log_rising + log_truncated_poisson1(k)


def log_vn_entry(
    n: int,
    gamma: float,
    t: int,
    rtol: float = 1e-13,
    extra_terms: int = 0,
    max_terms: int = 200_000,
) -> float:
    """log V_n(t) by summing the series until the tail is negligible.

    Terms are accumulated with a running log-sum-exp; summation stops once
    two consecutive decreasing terms fall below ``rtol`` of the partial
    sum.  ``extra_terms`` forces that many additional terms past the
    adaptive stop (used to verify truncation robustness).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > n:
        raise ValueError(f"t={t} exceeds n={n}")
    block = 32
    log_sum = -np.inf
    prev_last = np.inf
    k_start = t
    for _ in range(max_terms // block):
        ks = np.arange(k_start, k_start + block)
        terms = _log_series_term(n, gamma, t, ks)
        log_sum = float(logsumexp(np.append(terms, log_sum)))
        small = terms[-1] < log_sum + math.log(rtol)
        decreasing = terms[-1] < terms[-2] < prev_last
        prev_last = terms[-1]
        k_start += block
        if small and decreasing:
            if extra_terms > 0:
                ks = np.arange(k_start, k_start + extra_terms)
                log_sum = float(
                    logsumexp(np.append(_log_series_term(n, gamma, t, ks), log_sum))
                )
            return log_sum
    raise NumericError(f"V_n series did not converge for n={n}, t={t}")


def log_vn_table(n: int, gamma: float, t_max: int) -> np.ndarray:
    """Table of log V_n(t) for t = 1..t_max."""
    if t_max > n:
        raise ValueError(f"t_max={t_max} exceeds n={n}")
    return np.array([log_vn_entry(n, gamma, t) for t in range(1, t_max + 1)])


class MfmPrior:
    """log V_n(t), computed on first use and kept.

    A chain reads only t <= K + 1, so nothing is computed up front; the
    table grows through t when t is first asked for, and every entry is
    one ``log_vn_entry`` call.  The table is append-only.
    """

    def __init__(self, n: int, gamma: float = 1.0):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = int(n)
        self.gamma = float(gamma)
        self._log_vn: list[float] = []

    def log_vn_at(self, t: int) -> float:
        if t < 1:
            raise ValueError("t must be >= 1")
        if t > self.n:
            raise ValueError(f"t={t} exceeds the number of cells n={self.n}")
        while t > len(self._log_vn):
            self._log_vn.append(log_vn_entry(self.n, self.gamma, len(self._log_vn) + 1))
        return self._log_vn[t - 1]

    def log_new_weight(self, k_star: int) -> float:
        """log gamma + log V_n(K* + 1) - log V_n(K*)."""
        return (
            math.log(self.gamma)
            + self.log_vn_at(k_star + 1)
            - self.log_vn_at(k_star)
        )


def lambda_critical(k: int, graph: NeighborhoodGraph) -> float:
    """Potts-style ordering threshold k / average degree (+inf on an empty graph)."""
    c = graph.avg_degree
    if c == 0:
        return math.inf
    return k / c
