import numpy as np
import pytest

from oracles import cell_fit_scores_dense, full_conditional_oracle
from spatialsbm.likelihood import empirical_prior, prior_block_params
from spatialsbm.partition import Partition
from spatialsbm.sampler import (
    ChainSample,
    FitConfig,
    GibbsSampler,
    derive_seed,
    init_chain,
    run_chain,
)
from spatialsbm.similarity import build_neighborhood
from spatialsbm.synthetic import SyntheticSpec, generate_spatial_sbm


def grid_coords(side):
    idx = np.arange(side * side)
    return np.column_stack([idx % side, idx // side]).astype(float)


def toy_problem(n=6, seed=0, diag=2.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(0.3, 0.5, size=(n, n))
    A = np.triu(A, 1)
    A = A + A.T
    np.fill_diagonal(A, diag)
    side = int(np.ceil(np.sqrt(n)))
    coords = np.column_stack([np.arange(n) % side, np.arange(n) // side]).astype(float)
    graph = build_neighborhood(coords, 1.0)
    return A, graph


class TestInitChain:
    def test_single_domain_init(self):
        cfg = FitConfig(init_k=1, n_iterations=2, n_burnin=1)
        prior = empirical_prior(toy_problem()[0])
        part, params = init_chain(cfg, 10, [prior], np.random.default_rng(0))
        assert np.all(part.labels == 1)
        assert part.n_domains == 1
        assert params[0].n_domains == 1

    def test_deterministic(self):
        cfg = FitConfig(init_k=5, n_iterations=2, n_burnin=1)
        prior = empirical_prior(toy_problem()[0])
        a, _ = init_chain(cfg, 100, [prior], np.random.default_rng(3))
        b, _ = init_chain(cfg, 100, [prior], np.random.default_rng(3))
        assert np.array_equal(a.labels, b.labels)

    def test_occupancy_invariants(self):
        cfg = FitConfig(init_k=5, n_iterations=2, n_burnin=1)
        prior = empirical_prior(toy_problem()[0])
        part, params = init_chain(cfg, 100, [prior], np.random.default_rng(1))
        part.validate()
        assert part.occupancy.sum() == 100
        assert part.n_domains <= 5
        assert params[0].n_domains == part.n_domains


class TestLabelUpdate:
    def test_matches_direct_formula_evaluation(self):
        A, graph = toy_problem(n=6, seed=5)
        labels = np.array([1, 1, 2, 2, 2, 1])
        cfg = FitConfig(lam=0.7, gamma=1.0, n_iterations=2, n_burnin=1, seed=9)
        for i in (0, 2, 5):
            s = GibbsSampler([A], graph, cfg, labels=labels)
            expected = full_conditional_oracle(
                [A], s.weights, labels, s.params, graph, cfg.lam, cfg.gamma,
                s.mfm, s.priors, i,
            )
            got = s.label_update(i, return_weights=True)
            assert np.allclose(got, expected, atol=1e-10)

    def test_matches_oracle_when_detaching_singleton(self):
        A, graph = toy_problem(n=5, seed=7)
        labels = np.array([1, 2, 2, 3, 3])  # cell 0 is a singleton
        cfg = FitConfig(lam=0.4, n_iterations=2, n_burnin=1, seed=2)
        s = GibbsSampler([A], graph, cfg, labels=labels)
        expected = full_conditional_oracle(
            [A], s.weights, labels, s.params, graph, cfg.lam, cfg.gamma,
            s.mfm, s.priors, 0,
        )
        got = s.label_update(0, return_weights=True)
        assert got.size == expected.size == 3  # two surviving domains + new
        assert np.allclose(got, expected, atol=1e-10)

    def test_pure_urn_probabilities_when_likelihood_off(self):
        A, graph = toy_problem(n=8, seed=1)
        rng = np.random.default_rng(44)
        for trial in range(20):
            labels = Partition.from_raw(rng.integers(1, 4, size=8)).labels
            cfg = FitConfig(
                lam=0.0, weights=(0.0,), n_iterations=2, n_burnin=1, seed=trial
            )
            s = GibbsSampler([A], graph, cfg, labels=labels)
            i = int(rng.integers(0, 8))
            w = s.label_update(i, return_weights=True)
            w = w - w.max()
            probs = np.exp(w) / np.exp(w).sum()
            # urn probabilities computed directly
            occ = np.bincount(labels, minlength=labels.max() + 1)[1:].astype(float)
            occ[labels[i] - 1] -= 1
            keep = occ > 0
            k_star = int(keep.sum())
            urn = np.append(occ[keep] + 1.0, np.exp(s.mfm.log_new_weight(k_star)))
            urn /= urn.sum()
            assert np.allclose(probs, urn, atol=1e-12)

    def test_strong_spatial_reward_dominates(self):
        spec = SyntheticSpec(grid_side=4, k_true=2, mu_within=0.6,
                             mu_between=0.0, precision=4.0, seed=3)
        sims, coords, truth = generate_spatial_sbm(spec)
        graph = build_neighborhood(coords, 1.0)
        cfg = FitConfig(lam=100.0, n_iterations=2, n_burnin=1, seed=0)
        s = GibbsSampler(sims, graph, cfg, labels=truth)
        # pick a cell whose neighbors all share its domain
        i = next(
            i for i in range(16)
            if all(truth[j] == truth[i] for j in graph.neighbor_lists[i])
        )
        c_true = truth[i]
        w = s.label_update(i, return_weights=True)
        w = w - w.max()
        probs = np.exp(w) / np.exp(w).sum()
        assert probs[c_true - 1] > 1 - 1e-6

    def test_loglik_term_linear_in_weight(self):
        A, graph = toy_problem(n=6, seed=5)
        labels = np.array([1, 1, 2, 2, 2, 1])
        base = FitConfig(lam=0.0, n_iterations=2, n_burnin=1, seed=3)
        w1 = GibbsSampler([A], graph, base, labels=labels)
        params = [p.copy() for p in w1.params]
        got1 = w1.label_update(0, return_weights=True)
        cfg2 = FitConfig(lam=0.0, weights=(3.0,), n_iterations=2, n_burnin=1, seed=3)
        w3 = GibbsSampler([A], graph, cfg2, labels=labels, params=params)
        got3 = w3.label_update(0, return_weights=True)
        occ = np.array([2.0, 3.0])  # cell 0 removed from domain 1
        urn = np.log(occ + 1.0)
        ell1 = got1[:2] - urn
        ell3 = got3[:2] - urn
        assert np.allclose(ell3, 3.0 * ell1, atol=1e-9)


class TestSweep:
    def test_deterministic_trajectories(self):
        A, graph = toy_problem(n=9, seed=2)
        cfg = FitConfig(n_iterations=2, n_burnin=1, seed=11, init_k=3)
        s1 = GibbsSampler([A], graph, cfg)
        s2 = GibbsSampler([A], graph, cfg)
        for _ in range(5):
            d1 = s1.sweep()
            d2 = s2.sweep()
            assert d1 == d2
            assert np.array_equal(s1.z, s2.z)

    def test_partition_invariants_after_sweeps(self):
        A, graph = toy_problem(n=9, seed=4)
        cfg = FitConfig(n_iterations=2, n_burnin=1, seed=5, init_k=4)
        s = GibbsSampler([A], graph, cfg)
        for _ in range(10):
            s.sweep()
            part = s.partition()
            part.validate()
            assert part.n_domains == s.n_domains
            assert np.allclose(np.bincount(s.z, minlength=s.n_domains), s.occ)

    def test_single_block_data_collapses_to_one_domain(self):
        # one true block, strong precision; within-block mean near the
        # diagonal level so the empirical prior matches small blocks too
        reached = 0
        for seed in range(20):
            spec = SyntheticSpec(grid_side=5, k_true=1, mu_within=4.5,
                                 mu_between=0.0, precision=8.0, seed=seed)
            sims, coords, _ = generate_spatial_sbm(spec)
            graph = build_neighborhood(coords, 1.0)
            cfg = FitConfig(n_iterations=2, n_burnin=1, seed=seed, init_k=5)
            s = GibbsSampler(sims, graph, cfg)
            s.refit_params()
            ks = []
            for it in range(50):
                s.sweep(allow_new=it >= 5)
                ks.append(s.n_domains)
            reached += min(ks) == 1 and ks[-1] == 1
        assert reached >= 19  # 95 percent of seeds

    def test_purge_preserves_comembership(self):
        A, graph = toy_problem(n=8, seed=6)
        cfg = FitConfig(n_iterations=2, n_burnin=1, seed=8, init_k=4)
        s = GibbsSampler([A], graph, cfg)
        for _ in range(8):
            before = s.labels
            pairs_before = before[:, None] == before[None, :]
            i = int(np.random.default_rng(0).integers(0, 8))
            s.label_update(i)
            after = s.labels
            mask = np.ones(8, dtype=bool)
            mask[i] = False
            pairs_after = after[:, None] == after[None, :]
            assert np.array_equal(
                pairs_before[np.ix_(mask, mask)], pairs_after[np.ix_(mask, mask)]
            )


class TestRunChain:
    def test_sample_count(self):
        A, graph = toy_problem(n=6, seed=0)
        cfg = FitConfig(n_iterations=10, n_burnin=5, seed=1, init_k=2)
        samples = run_chain([A], graph, cfg)
        assert len(samples) == 5

    def test_thinning(self):
        A, graph = toy_problem(n=6, seed=0)
        cfg = FitConfig(n_iterations=11, n_burnin=5, thin=2, seed=1, init_k=2)
        samples = run_chain([A], graph, cfg)
        assert len(samples) == 3

    def test_end_to_end_determinism(self):
        A, graph = toy_problem(n=8, seed=3)
        cfg = FitConfig(n_iterations=12, n_burnin=6, seed=21, init_k=3)
        s1 = run_chain([A], graph, cfg)
        s2 = run_chain([A], graph, cfg)
        for a, b in zip(s1, s2):
            assert np.array_equal(a.labels, b.labels)
            assert a.deviance == b.deviance

    def test_modal_k_on_three_band_benchmark(self):
        spec = SyntheticSpec(grid_side=12, k_true=3, mu_within=0.8,
                             mu_between=0.0, precision=4.0, seed=2)
        sims, coords, truth = generate_spatial_sbm(spec)
        graph = build_neighborhood(coords, 1.0)
        cfg = FitConfig(lam=0.5, n_iterations=150, n_burnin=75, seed=4, init_k=5)
        samples = run_chain(sims, graph, cfg)
        ks = [int(s.labels.max()) for s in samples]
        assert max(set(ks), key=ks.count) == 3

    def test_trace_file(self, tmp_path):
        A, graph = toy_problem(n=6, seed=0)
        cfg = FitConfig(n_iterations=4, n_burnin=2, seed=1, init_k=2)
        path = tmp_path / "trace.tsv"
        run_chain([A], graph, cfg, trace_file=path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        first = lines[0].split("\t")
        assert first[0] == "0"
        assert len(first) == 4
        assert len(first[3].split(",")) == 6

    def test_weights_length_validated(self):
        A, graph = toy_problem(n=6, seed=0)
        cfg = FitConfig(weights=(1.0, 2.0), n_iterations=4, n_burnin=2)
        with pytest.raises(ValueError):
            run_chain([A], graph, cfg)

    def test_chain_sample_fields(self):
        A, graph = toy_problem(n=6, seed=0)
        cfg = FitConfig(n_iterations=6, n_burnin=3, seed=1, init_k=2)
        samples = run_chain([A], graph, cfg)
        s = samples[0]
        assert isinstance(s, ChainSample)
        assert np.isfinite(s.deviance)
        assert s.params[0].n_domains == s.labels.max()

    def test_multimodal_chain(self):
        spec = SyntheticSpec(grid_side=6, k_true=2, mu_within=4.5,
                             mu_between=0.0, precision=4.0, seed=6, n_modalities=2)
        sims, coords, truth = generate_spatial_sbm(spec)
        graph = build_neighborhood(coords, 1.0)
        cfg = FitConfig(weights=(1.5, 1.0), n_iterations=60, n_burnin=30,
                        seed=2, init_k=3)
        samples = run_chain(sims, graph, cfg)
        assert len(samples[0].params) == 2
        import spatialsbm as ss

        summ = ss.summarize_chain(samples)
        assert ss.ari(truth, summ.labels) == 1.0


class TestReseed:
    def test_fit_scores_match_dense_formula(self):
        spec = SyntheticSpec(grid_side=8, k_true=3, mu_within=0.8,
                             mu_between=0.0, precision=4.0, seed=5, n_modalities=2)
        sims, coords, _ = generate_spatial_sbm(spec)
        graph = build_neighborhood(coords, 1.0)
        cfg = FitConfig(lam=0.5, weights=(1.5, 0.7), n_iterations=2, n_burnin=1,
                        seed=3, init_k=4)
        s = GibbsSampler(sims, graph, cfg)
        s.refit_params()
        for _ in range(3):
            s.sweep(allow_new=False)
            expected = cell_fit_scores_dense(s.sims, s.weights, s.labels, s.params)
            assert np.allclose(s._cell_fit_scores(), expected, rtol=1e-12, atol=0.0)
            s.reseed_small_domains()


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(7, 0)
        b = derive_seed(7, 1)
        assert a == derive_seed(7, 0)
        assert a != b
