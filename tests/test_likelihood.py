import math

import numpy as np
import pytest
from scipy import stats as sps

from oracles import (
    block_stats_by_enumeration,
    ng_log_marginal_quadrature,
    ng_posterior_moments_quadrature,
)
from spatialsbm.likelihood import (
    LOG_2PI,
    BlockParams,
    BlockStats,
    NormalGammaPrior,
    block_stats,
    cell_conditional_loglik,
    deviance_from_stats,
    empirical_prior,
    full_deviance,
    new_domain_marginal,
    posterior_hyperparams,
    prior_block_params,
    resample_block_params,
)

PRIOR = NormalGammaPrior(mu0_diag=0.0, mu0_offdiag=0.0)


def symmetric(rng, n, diag=2.0):
    A = rng.normal(0.3, 0.5, size=(n, n))
    A = np.triu(A, 1)
    A = A + A.T
    np.fill_diagonal(A, diag)
    return A


class TestEmpiricalPrior:
    def test_constant_fields(self):
        A = np.full((4, 4), 0.2)
        np.fill_diagonal(A, 4.95)
        prior = empirical_prior(A)
        assert prior.mu0_diag == pytest.approx(4.95)
        assert prior.mu0_offdiag == pytest.approx(0.2)

    def test_mixed_entries(self):
        A = np.array([[1.0, 0.1, 0.2], [0.1, 2.0, 0.3], [0.2, 0.3, 3.0]])
        prior = empirical_prior(A)
        assert prior.mu0_diag == pytest.approx(2.0)
        assert prior.mu0_offdiag == pytest.approx(0.2)

    def test_default_hyperparameters(self):
        prior = empirical_prior(np.zeros((3, 3)))
        assert (prior.k0, prior.alpha, prior.beta) == (10.0, 1.0, 1.0)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            NormalGammaPrior(0.0, 0.0, k0=-1.0)


class TestBlockStats:
    def test_single_domain_constant_offdiag(self):
        n = 5
        A = np.full((n, n), 0.7)
        np.fill_diagonal(A, 4.0)
        st = block_stats(A, np.ones(n, dtype=int))
        assert st.count[0, 0] == n * (n - 1) / 2
        assert st.mean[0, 0] == pytest.approx(0.7)
        assert st.sse[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_two_singletons(self):
        A = np.array([[3.0, 0.7], [0.7, 3.0]])
        st = block_stats(A, np.array([1, 2]))
        assert st.count[0, 1] == 1
        assert st.mean[0, 1] == pytest.approx(0.7)
        assert st.sse[0, 1] == pytest.approx(0.0)
        assert st.count[0, 0] == 0

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(8)
        A = symmetric(rng, 6)
        labels = np.array([1, 2, 1, 2, 2, 1])
        st = block_stats(A, labels)
        count, mean, sse = block_stats_by_enumeration(A, labels, 2)
        assert np.allclose(st.count, count)
        assert np.allclose(st.mean, mean, atol=1e-12)
        assert np.allclose(st.sse, sse, atol=1e-10)

    def test_every_pair_counted_once(self):
        rng = np.random.default_rng(1)
        n = 12
        A = symmetric(rng, n)
        labels = rng.integers(1, 4, size=n)
        labels[:3] = [1, 2, 3]
        st = block_stats(A, labels, 3)
        iu = np.triu_indices(3)
        assert st.count[iu].sum() == n * (n - 1) / 2


class TestPosteriorHyperparams:
    def test_empty_block_returns_prior(self):
        kn, mun, an, bn = posterior_hyperparams(0, 0.0, 0.0, PRIOR, within=False)
        assert (kn, mun, an, bn) == (10.0, 0.0, 1.0, 1.0)

    def test_single_observation(self):
        kn, mun, an, bn = posterior_hyperparams(1, 0.3, 0.0, PRIOR, within=False)
        assert kn == pytest.approx(11.0)
        assert mun == pytest.approx(3.0 / 110.0)
        assert an == pytest.approx(1.5)
        assert bn == pytest.approx(1.0 + (10.0 / 22.0) * 0.09)

    def test_moments_match_quadrature(self):
        rng = np.random.default_rng(123)
        for size in (3, 8, 20):
            data = rng.normal(0.9, 0.4, size=size)
            prior = NormalGammaPrior(0.0, 0.7, k0=10.0, alpha=1.0, beta=1.0)
            kn, mun, an, bn = posterior_hyperparams(
                size, data.mean(), ((data - data.mean()) ** 2).sum(), prior, within=False
            )
            mu_q, tau_q = ng_posterior_moments_quadrature(
                data, prior.mu0_offdiag, prior.k0, prior.alpha, prior.beta
            )
            assert mun == pytest.approx(mu_q, rel=1e-6)
            assert an / bn == pytest.approx(tau_q, rel=1e-6)


class TestResampleBlockParams:
    def test_deterministic_given_seed(self):
        st = BlockStats(
            count=np.array([[3.0]]), mean=np.array([[0.5]]), sse=np.array([[0.2]])
        )
        a = resample_block_params(st, PRIOR, np.random.default_rng(5))
        b = resample_block_params(st, PRIOR, np.random.default_rng(5))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.precisions, b.precisions)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(2)
        st = BlockStats(
            count=np.full((3, 3), 4.0),
            mean=np.full((3, 3), 0.3),
            sse=np.full((3, 3), 0.5),
        )
        p = resample_block_params(st, PRIOR, rng)
        p.validate()

    def test_concentration_with_large_blocks(self):
        rng = np.random.default_rng(77)
        data_mean, data_var, n_obs = 0.8, 0.04, 100000.0
        st = BlockStats(
            count=np.array([[n_obs]]),
            mean=np.array([[data_mean]]),
            sse=np.array([[data_var * n_obs]]),
        )
        draws_mu = []
        draws_tau = []
        for _ in range(400):
            p = resample_block_params(st, PRIOR, rng)
            draws_mu.append(p.means[0, 0])
            draws_tau.append(p.precisions[0, 0])
        assert np.mean(draws_mu) == pytest.approx(data_mean, abs=0.01)
        assert np.mean(draws_tau) == pytest.approx(1 / data_var, rel=0.05)

    def test_mean_marginal_is_student_t(self):
        # mu | data integrates to a location-scale t with 2 * alpha_n dof
        rng = np.random.default_rng(31)
        st = BlockStats(
            count=np.array([[6.0]]), mean=np.array([[0.4]]), sse=np.array([[0.8]])
        )
        kn, mun, an, bn = posterior_hyperparams(6, 0.4, 0.8, PRIOR, within=False)
        draws = np.array(
            [
                resample_block_params(st, PRIOR, rng).means[0, 0]
                for _ in range(10000)
            ]
        )
        scale = math.sqrt(bn / (an * kn))
        ks = sps.kstest(draws, lambda x: sps.t.cdf(x, df=2 * an, loc=mun, scale=scale))
        assert ks.statistic < 0.02


class TestCellConditional:
    def test_perfect_fit_unit_precision(self):
        A = np.array([[2.0, 0.4], [0.4, 2.0]])
        params = BlockParams(
            means=np.array([[0.4]]), precisions=np.array([[1.0]])
        )
        out = cell_conditional_loglik(A, np.array([1, 1]), params, 0, 1)
        assert out == pytest.approx(0.0, abs=1e-15)

    def test_three_cell_hand_computation(self):
        A = np.array(
            [[2.0, 0.5, -0.2], [0.5, 2.0, 0.1], [-0.2, 0.1, 2.0]]
        )
        labels = np.array([1, 1, 2])
        params = BlockParams(
            means=np.array([[0.4, -0.1], [-0.1, 0.3]]),
            precisions=np.array([[2.0, 1.5], [1.5, 3.0]]),
        )
        # candidate domain 1 for cell 0: j=1 in domain 1, j=2 in domain 2
        expected = (
            0.5 * math.log(2.0)
            - 1.0 * (0.5 - 0.4) ** 2
            + 0.5 * math.log(1.5)
            - 0.75 * (-0.2 - (-0.1)) ** 2
        )
        out = cell_conditional_loglik(A, labels, params, 0, 1)
        assert out == pytest.approx(expected, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        A = symmetric(rng, 5)
        labels = np.array([1, 2, 1, 2, 1])
        params = prior_block_params(PRIOR, 2, np.random.default_rng(0))
        base = cell_conditional_loglik(A, labels, params, 2, 1)
        shift = 1.7
        shifted = BlockParams(params.means + shift, params.precisions.copy())
        out = cell_conditional_loglik(A + shift, labels, shifted, 2, 1)
        assert out == pytest.approx(base, abs=1e-9)


class TestNewDomainMarginal:
    def test_value_at_prior_location(self):
        prior = NormalGammaPrior(mu0_diag=4.95, mu0_offdiag=0.0)
        # closed form: lgamma(3/2) = log(sqrt(pi)/2)
        expected = (0.5 * math.log(math.pi) - math.log(2.0)) + 0.5 * math.log(10.0 / 11.0)
        assert new_domain_marginal(4.95, prior) == pytest.approx(expected, abs=1e-9)

    def test_maximized_at_prior_location(self):
        prior = NormalGammaPrior(mu0_diag=2.0, mu0_offdiag=0.0)
        center = new_domain_marginal(2.0, prior)
        for x in (1.0, 1.9, 2.1, 3.5):
            assert new_domain_marginal(x, prior) <= center

    def test_monotone_decay_in_distance(self):
        prior = NormalGammaPrior(mu0_diag=2.0, mu0_offdiag=0.0)
        vals = [new_domain_marginal(2.0 + d, prior) for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_quadrature_with_constant(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            prior = NormalGammaPrior(
                mu0_diag=rng.uniform(0.5, 3.0),
                mu0_offdiag=0.0,
                k0=rng.uniform(2.0, 15.0),
                alpha=rng.uniform(0.5, 3.0),
                beta=rng.uniform(0.5, 3.0),
            )
            x = prior.mu0_diag + rng.normal(0, 1)
            lhs = new_domain_marginal(x, prior) - 0.5 * LOG_2PI
            rhs = ng_log_marginal_quadrature(
                x, prior.mu0_diag, prior.k0, prior.alpha, prior.beta
            )
            assert lhs == pytest.approx(rhs, abs=1e-6)


class TestFullDeviance:
    def test_zero_residuals_unit_precision(self):
        n = 4
        A = np.full((n, n), 0.3)
        params = BlockParams(np.array([[0.3]]), np.array([[1.0]]))
        out = full_deviance([A], [1.0], np.ones(n, dtype=int), [params])
        count = n * (n + 1) / 2
        assert out == pytest.approx(count * LOG_2PI, abs=1e-9)

    def test_three_cell_hand_computation(self):
        A = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, -0.1], [0.2, -0.1, 1.0]])
        labels = np.array([1, 1, 2])
        params = BlockParams(
            means=np.array([[0.4, 0.0], [0.0, 0.8]]),
            precisions=np.array([[2.0, 1.0], [1.0, 4.0]]),
        )
        expected = 0.0
        for i in range(3):
            for j in range(i, 3):
                r, s = labels[i] - 1, labels[j] - 1
                tau = params.precisions[r, s]
                mu = params.means[r, s]
                expected += (
                    0.5 * math.log(tau)
                    - 0.5 * LOG_2PI
                    - 0.5 * tau * (A[i, j] - mu) ** 2
                )
        expected *= -2.0
        out = full_deviance([A], [1.0], labels, [params])
        assert out == pytest.approx(expected, abs=1e-9)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(3)
        A = symmetric(rng, 5)
        labels = np.array([1, 2, 1, 2, 1])
        params = prior_block_params(PRIOR, 2, np.random.default_rng(1))
        one = full_deviance([A], [1.0], labels, [params])
        two = full_deviance([A], [2.0], labels, [params])
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_stats_route_agrees_with_direct(self):
        rng = np.random.default_rng(14)
        n = 9
        A = symmetric(rng, n)
        labels = rng.integers(1, 4, size=n)
        labels[:3] = [1, 2, 3]
        params = prior_block_params(PRIOR, 3, np.random.default_rng(2))
        st = block_stats(A, labels, 3)
        occ = np.bincount(labels - 1, minlength=3).astype(float)
        d1 = np.bincount(labels - 1, weights=np.diag(A), minlength=3)
        d2 = np.bincount(labels - 1, weights=np.diag(A) ** 2, minlength=3)
        fast = deviance_from_stats(st, occ, d1, d2, params)
        direct = full_deviance([A], [1.0], labels, [params])
        assert fast == pytest.approx(direct, rel=1e-12)

    def test_finite_on_clipped_input(self):
        rng = np.random.default_rng(21)
        from spatialsbm.similarity import FISHER_BOUND

        A = np.clip(symmetric(rng, 6, diag=FISHER_BOUND), -FISHER_BOUND, FISHER_BOUND)
        labels = np.array([1, 1, 2, 2, 1, 2])
        params = prior_block_params(PRIOR, 2, np.random.default_rng(3))
        assert math.isfinite(full_deviance([A], [1.0], labels, [params]))
        assert math.isfinite(cell_conditional_loglik(A, labels, params, 0, 2))
