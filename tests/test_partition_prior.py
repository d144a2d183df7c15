import math

import numpy as np
import pytest

from oracles import (
    log_vn_mpmath,
    mrf_log_reward,
    urn_log_weight_existing,
    urn_log_weight_new,
)
from spatialsbm import partition_prior
from spatialsbm.partition_prior import (
    MfmPrior,
    lambda_critical,
    log_truncated_poisson1,
    log_vn_entry,
    log_vn_table,
)
from spatialsbm.sampler import FitConfig, run_chain
from spatialsbm.similarity import build_neighborhood
from spatialsbm.synthetic import SyntheticSpec, generate_spatial_sbm


def grid_coords(side):
    idx = np.arange(side * side)
    return np.column_stack([idx % side, idx // side]).astype(float)


class TestTruncatedPoisson:
    def test_normalized(self):
        ks = np.arange(1, 60)
        total = np.exp(log_truncated_poisson1(ks)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_first_value(self):
        # p(1) = e^-1 / (1 - e^-1)
        expected = math.exp(-1) / (1 - math.exp(-1))
        assert math.exp(log_truncated_poisson1(1)) == pytest.approx(expected)


class TestLogVnTable:
    def test_single_cell_single_domain(self):
        assert log_vn_entry(1, 1.0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_deflation(self):
        for n in (10, 50, 100):
            table = log_vn_table(n, 1.0, min(n, 20))
            assert np.all(np.diff(table) < 0)

    def test_matches_high_precision_series(self):
        for n, t in ((5, 1), (5, 3), (20, 4), (60, 10)):
            ours = log_vn_entry(n, 1.0, t)
            exact = log_vn_mpmath(n, 1.0, t)
            assert ours == pytest.approx(exact, rel=1e-10, abs=1e-10)

    def test_gamma_affects_values(self):
        a = log_vn_entry(12, 1.0, 3)
        b = log_vn_entry(12, 2.0, 3)
        assert a != b
        assert b == pytest.approx(log_vn_mpmath(12, 2.0, 3), rel=1e-10)

    def test_truncation_robust_to_extra_terms(self):
        for n, t in ((10, 2), (100, 7)):
            base = log_vn_entry(n, 1.0, t)
            more = log_vn_entry(n, 1.0, t, extra_terms=256)
            assert more == pytest.approx(base, abs=1e-10)

    def test_t_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            log_vn_table(5, 1.0, 6)


@pytest.fixture
def entry_calls(monkeypatch):
    """t of every log_vn_entry call, in order."""
    calls = []

    def counted(n, gamma, t, *args, **kwargs):
        calls.append(t)
        return log_vn_entry(n, gamma, t, *args, **kwargs)

    monkeypatch.setattr(partition_prior, "log_vn_entry", counted)
    return calls


class TestMfmPrior:
    def test_construction_computes_no_entry(self, entry_calls):
        MfmPrior(484, 1.0)
        MfmPrior(30, 0.5)
        assert entry_calls == []

    def test_table_extends_on_demand(self, entry_calls):
        mfm = MfmPrior(30, 1.0)
        val = mfm.log_vn_at(7)
        assert entry_calls == [1, 2, 3, 4, 5, 6, 7]
        assert val == log_vn_entry(30, 1.0, 7)
        mfm.log_vn_at(3)
        assert len(entry_calls) == 7

    @pytest.mark.parametrize("order", [(1, 2, 3, 9), (9, 3, 1, 2), (5, 9, 2, 8)])
    def test_values_independent_of_request_order(self, order):
        mfm = MfmPrior(40, 0.7)
        for t in order:
            assert mfm.log_vn_at(t) == log_vn_entry(40, 0.7, t)
        assert [mfm.log_vn_at(t) for t in range(1, 10)] == [
            log_vn_entry(40, 0.7, t) for t in range(1, 10)
        ]

    def test_select_sized_chain_computes_k_max_plus_one_entries(
        self, entry_calls, monkeypatch
    ):
        """A chain reads V_n(K) and V_n(K + 1) for the K it visits in the
        full kernel, so it computes entries 1..K_max + 1 and no more."""
        k_seen = []
        log_new_weight = MfmPrior.log_new_weight

        def recorded(self, k_star):
            k_seen.append(k_star)
            return log_new_weight(self, k_star)

        monkeypatch.setattr(MfmPrior, "log_new_weight", recorded)
        spec = SyntheticSpec(grid_side=22, k_true=4, mu_within=0.8, mu_between=0.0,
                             precision=4.0, seed=7, n_modalities=2)
        sims, coords, _ = generate_spatial_sbm(spec)
        cfg = FitConfig(lam=0.1, n_iterations=40, n_burnin=20, seed=7)
        run_chain(sims, build_neighborhood(coords, 1.0), cfg)
        assert k_seen
        assert entry_calls == list(range(1, max(k_seen) + 2))

    def test_rejects_t_above_n(self):
        mfm = MfmPrior(4, 1.0)
        with pytest.raises(ValueError):
            mfm.log_vn_at(5)


class TestUrnWeights:
    def test_existing_values(self):
        assert urn_log_weight_existing(1, 1.0) == pytest.approx(math.log(2))
        assert urn_log_weight_existing(9, 1.0) == pytest.approx(math.log(10))

    def test_existing_monotone_in_occupancy(self):
        vals = [urn_log_weight_existing(n_c, 1.0) for n_c in range(1, 30)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_new_weight_below_log_gamma(self):
        for n in (10, 50, 200):
            mfm = MfmPrior(n, 1.0)
            for k_star in range(1, 8):
                assert urn_log_weight_new(k_star, mfm) < math.log(1.0)

    def test_new_weight_matches_series_oracle(self):
        mfm = MfmPrior(50, 1.0)
        expected = log_vn_mpmath(50, 1.0, 2) - log_vn_mpmath(50, 1.0, 1)
        assert urn_log_weight_new(1, mfm) == pytest.approx(expected, abs=1e-10)

    def test_new_weight_depends_only_on_counts(self):
        # the weight is a function of (n, K*) and gamma alone
        mfm = MfmPrior(40, 1.0)
        assert urn_log_weight_new(3, mfm) == mfm.log_new_weight(3)


class TestMrfReward:
    def test_zero_lambda(self):
        g = build_neighborhood(grid_coords(3), 1.0)
        labels = np.arange(1, 10)
        for i in range(9):
            assert mrf_log_reward(labels, g, i, 1, 0.0) == 0.0

    def test_three_of_four_neighbors(self):
        g = build_neighborhood(grid_coords(3), 1.0)
        labels = np.array([1, 2, 1, 2, 1, 1, 1, 2, 1])
        # center cell 4 has neighbors 1, 3, 5, 7 with labels 2, 2, 1, 2
        assert mrf_log_reward(labels, g, 4, 2, 0.5) == pytest.approx(1.5)

    def test_empty_neighborhood(self):
        g = build_neighborhood(np.array([[0.0, 0.0], [5.0, 5.0]]), 1.0)
        assert mrf_log_reward(np.array([1, 1]), g, 0, 1, 2.0) == 0.0

    def test_new_domain_label_gets_zero(self):
        g = build_neighborhood(grid_coords(2), 1.0)
        labels = np.array([1, 1, 2, 2])
        assert mrf_log_reward(labels, g, 0, 3, 1.0) == 0.0

    def test_additive_and_relabel_invariant(self):
        g = build_neighborhood(grid_coords(3), 1.0)
        labels = np.array([1, 2, 1, 2, 1, 1, 1, 2, 1])
        swapped = np.where(labels == 1, 5, labels)  # rename other domains
        assert mrf_log_reward(labels, g, 4, 2, 0.7) == mrf_log_reward(
            swapped, g, 4, 2, 0.7
        )


class TestLambdaCritical:
    def test_plain_values(self):
        g = build_neighborhood(grid_coords(3), 1.0)

        class FakeGraph:
            avg_degree = 4.0
            W = g.W

        assert lambda_critical(8, FakeGraph()) == pytest.approx(2.0)

        class FakeGraph2:
            avg_degree = 3.5

        assert lambda_critical(7, FakeGraph2()) == pytest.approx(2.0)

    def test_empty_graph_is_infinite(self):
        g = build_neighborhood(grid_coords(3), 0.1)
        assert lambda_critical(4, g) == math.inf
