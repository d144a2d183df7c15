import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import cell_fit_scores_dense, full_conditional_oracle, scalar_label_pass
from spatialsbm.errors import NumericError
from spatialsbm.likelihood import block_stats, empirical_prior, prior_block_params
from spatialsbm.partition import relabel_contiguous
from spatialsbm.sampler import (
    ChainSample,
    FitConfig,
    H2_BLOCK,
    GibbsSampler,
    config_for_grid_point,
    derive_seed,
    init_chain,
    run_chain,
)
from spatialsbm.similarity import FISHER_BOUND, build_neighborhood
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
            labels = relabel_contiguous(rng.integers(1, 4, size=8))[0]
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
            if all(truth[j] == truth[i] for j in graph.neighbors(i))
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

    def test_warm_start_weights_are_the_oracle_without_the_urn(self):
        spec = SyntheticSpec(grid_side=4, k_true=2, mu_within=0.8, mu_between=0.0,
                             precision=4.0, seed=3, n_modalities=2)
        sims, coords, _ = generate_spatial_sbm(spec)
        graph = build_neighborhood(coords, 1.0)
        cfg = FitConfig(lam=0.7, weights=(1.5, 0.7), gamma=1.0, n_iterations=2,
                        n_burnin=1, seed=5)
        labels = np.array([1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3, 3, 4])
        for i in range(15):
            s = GibbsSampler(sims, graph, cfg, labels=labels)
            expected = full_conditional_oracle(
                sims, s.weights, labels, s.params, graph, cfg.lam, cfg.gamma,
                s.mfm, s.priors, i,
            )[:-1]
            occ = np.bincount(labels)[1:].astype(float)
            occ[labels[i] - 1] -= 1
            got = s.label_update(i, return_weights=True, allow_new=False)
            np.testing.assert_allclose(got, expected - np.log(occ + cfg.gamma),
                                       rtol=1e-12, atol=1e-10)
        s = GibbsSampler(sims, graph, cfg, labels=labels)
        z, occ, state = s.z.copy(), s.occ.copy(), s.rng.bit_generator.state
        assert s.label_update(15, return_weights=True, allow_new=False) is None
        assert np.array_equal(s.z, z) and np.array_equal(s.occ, occ)
        assert s.rng.bit_generator.state == state


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
        assert all(np.isfinite(float(line.split("\t")[2])) for line in lines)

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


def random_problem(n, n_modalities, seed):
    """Symmetric similarity matrices in the Fisher-Z range on the first n
    cells of a square lattice."""
    rng = np.random.default_rng(seed)
    sims = []
    for _ in range(n_modalities):
        A = rng.normal(0.3, 0.5, size=(n, n))
        A = np.triu(A) + np.triu(A, 1).T
        sims.append(np.clip(A, -FISHER_BOUND, FISHER_BOUND))
    side = int(np.ceil(np.sqrt(n)))
    return sims, build_neighborhood(grid_coords(side)[:n], 1.0)


@pytest.fixture(scope="module")
def two_block_problem():
    """n = 1,600 (a 40 x 40 lattice): two H2 column blocks, the second
    576 wide."""
    spec = SyntheticSpec(grid_side=40, k_true=4, mu_within=0.8,
                         mu_between=0.0, precision=4.0, seed=2, n_modalities=2)
    sims, coords, _ = generate_spatial_sbm(spec)
    assert H2_BLOCK < len(coords) < 2 * H2_BLOCK
    return sims, build_neighborhood(coords, 1.0)


class TestInitialSums:
    """H1 and H2 straight after construction, with H2 built in column blocks."""

    @pytest.mark.parametrize("init_k", range(2, 9))
    def test_bit_equal_to_full_products(self, two_block_problem, init_k):
        sims, graph = two_block_problem
        cfg = FitConfig(n_iterations=2, n_burnin=1, seed=init_k, init_k=init_k)
        s = GibbsSampler(sims, graph, cfg)
        assert s.n_domains == init_k
        for m, A in enumerate(sims):
            assert np.array_equal(s.H1[m], s.GT @ A)
            assert np.array_equal(s.H2[m], s.GT @ (A * A))

    def test_narrow_last_block_within_rounding(self):
        # The last block is 76 columns wide; BLAS may sum such a narrow
        # block in another order than the full product.
        sims, graph = random_problem(1100, 2, seed=9)
        s = GibbsSampler(sims, graph, FitConfig(n_iterations=2, n_burnin=1, init_k=6))
        for m, A in enumerate(sims):
            assert np.array_equal(s.H1[m], s.GT @ A)
            np.testing.assert_allclose(s.H2[m], s.GT @ (A * A), rtol=1e-13, atol=0)

    def test_peak_memory_below_one_matrix(self, two_block_problem):
        """No full n x n square is formed (numpy reports its allocations
        to tracemalloc)."""
        sims, graph = two_block_problem
        n = graph.n_cells
        tracemalloc.start()
        try:
            GibbsSampler(sims, graph, FitConfig(n_iterations=2, n_burnin=1, init_k=6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * n * n * 8, peak / (n * n * 8)


class TestNonFiniteTerms:
    def test_zero_precision_raises_numeric_error(self):
        A, graph = toy_problem(n=6, seed=5)
        labels = np.array([1, 1, 2, 2, 2, 1])
        cfg = FitConfig(lam=0.3, n_iterations=2, n_burnin=1, seed=1)
        prior = empirical_prior(A)
        params = prior_block_params(prior, 2, np.random.default_rng(0))
        params.precisions[0, 1] = params.precisions[1, 0] = 0.0
        with np.errstate(divide="ignore"), pytest.raises(
            NumericError, match=r"domain pairs \[\(0, 1\), \(1, 0\)\]"
        ):
            GibbsSampler([A], graph, cfg, labels=labels, params=[params])

    def test_non_finite_new_domain_weight_names_the_cell(self):
        A, graph = toy_problem(n=6, seed=5)
        labels = np.array([1, 1, 2, 2, 2, 1])
        cfg = FitConfig(lam=0.3, n_iterations=2, n_burnin=1, seed=1)
        s = GibbsSampler([A], graph, cfg, labels=labels)
        s._new_const[4] = np.inf
        with pytest.raises(NumericError, match=r"non-finite label weight: \{'cell': 4,"):
            s.sweep()


class TestMaintainedSums:
    def test_sums_and_block_stats_track_the_partition(self, monkeypatch):
        """H1, H2, NB and the block statistics stay equal to their direct
        formulas through warm-up reseeds, purges and new domains."""
        spec = SyntheticSpec(grid_side=8, k_true=3, mu_within=0.8,
                             mu_between=0.0, precision=4.0, seed=5, n_modalities=2)
        sims, coords, _ = generate_spatial_sbm(spec)
        graph = build_neighborhood(coords, 1.0)
        cfg = FitConfig(lam=0.5, weights=(1.0, 0.0), n_iterations=2, n_burnin=1,
                        seed=3, init_k=8)
        events = {"_grow": 0, "_purge": 0, "reseed": 0}
        for name in ("_grow", "_purge"):
            original = getattr(GibbsSampler, name)

            def counted(self, *args, _f=original, _name=name):
                events[_name] += 1
                return _f(self, *args)

            monkeypatch.setattr(GibbsSampler, name, counted)
        s = GibbsSampler(sims, graph, cfg)
        s.refit_params()

        def check():
            for m, A in enumerate(s.sims):
                np.testing.assert_allclose(s.H1[m], s.GT @ A, rtol=0, atol=1e-9)
                np.testing.assert_allclose(s.H2[m], s.GT @ (A * A), rtol=0, atol=1e-9)
                got = s._current_stats()[0][m]
                want = block_stats(A, s.labels, s.n_domains)
                assert np.array_equal(got.count, want.count)
                # Rounding of the sums scales with the entries, not with
                # a block mean near 0 or an sse that cancels to 0 (a
                # one-pair block), hence the absolute floors.
                np.testing.assert_allclose(
                    got.mean, want.mean, rtol=1e-12, atol=1e-12 * np.abs(A).max()
                )
                floor = 1e-12 * (want.sse + want.count * want.mean**2).max()
                np.testing.assert_allclose(got.sse, want.sse, rtol=1e-12, atol=floor)
            np.testing.assert_allclose(s.NB, s.GT @ graph.W.toarray(), rtol=0, atol=1e-9)
            assert np.array_equal(s.GT, np.eye(s.n_domains)[:, s.z])

        for it in range(200):
            warm = it < 30
            s.sweep(allow_new=not warm)
            check()
            if warm and s.reseed_small_domains():
                events["reseed"] += 1
                check()
        assert min(events.values()) > 0, events


class RewindCountingPCG64(np.random.PCG64):
    """PCG64 that counts how often its state is set: the label scan sets
    it only to rewind the stream to the start of a block."""

    def __init__(self, seed):
        super().__init__(seed)
        self.state_sets = 0

    @property
    def state(self):
        return np.random.PCG64.state.__get__(self)

    @state.setter
    def state(self, value):
        self.state_sets += 1
        np.random.PCG64.state.__set__(self, value)


class TestScanMatchesScalarPass:
    """The block-wise label scan against one label_update per cell: from
    equal states, every sweep leaves equal labels, occupancies, sums,
    parameters, deviance and random-stream state.  Both score through
    ``_log_weights``, so this checks the scan's order of moves, noise and
    stream rewinds; ``full_conditional_oracle`` checks the weights.

    Besides domains opened in the scan, purges, warm-start singletons and
    reseeds, the run counts the scan's three branches after a move: the
    block keeps its noise, or it ends with a rewind because the move
    opened a domain or changed which later cell of the block is a
    singleton."""

    EVENTS = ("scan_grow", "purge", "warm_singleton", "reseed", "kept_noise",
              "rewind_grow", "rewind_singleton")

    @staticmethod
    def run_side_by_side(sims, graph, cfg, n_sweeps, monkeypatch):
        events = dict.fromkeys(TestScanMatchesScalarPass.EVENTS, 0)
        scan_block = GibbsSampler._scan_block
        ends_block = GibbsSampler._ends_block
        purge = GibbsSampler._purge
        ending = []

        def counted_scan(self, i, e, new):
            k0 = self.n_domains
            if new is None:
                events["warm_singleton"] += int((self.occ[self.z[i:e]] == 1.0).sum())
            ending.clear()
            sets = self.rng.bit_generator.state_sets
            out = scan_block(self, i, e, new)
            events["scan_grow"] += self.n_domains > k0
            if self.rng.bit_generator.state_sets > sets:
                events[f"rewind_{ending[-1]}"] += 1
            return out

        def counted_ends(self, cell, c, e, allow_new):
            grow = c == self.n_domains
            out = ends_block(self, cell, c, e, allow_new)
            if out:
                ending.append("grow" if grow else "singleton")
            else:
                events["kept_noise"] += 1
            return out

        def counted_purge(self, d):
            events["purge"] += self is fast
            return purge(self, d)

        monkeypatch.setattr(GibbsSampler, "_scan_block", counted_scan)
        monkeypatch.setattr(GibbsSampler, "_ends_block", counted_ends)
        monkeypatch.setattr(GibbsSampler, "_purge", counted_purge)
        # The stream of default_rng(seed), the sampler's own, on both sides.
        fast, ref = (GibbsSampler(sims, graph, cfg,
                                  rng=np.random.Generator(RewindCountingPCG64(cfg.seed)))
                     for _ in range(2))
        ref._label_pass = lambda allow_new: scalar_label_pass(ref, allow_new)
        warmup = min(cfg.resolved_warmup(), cfg.n_burnin)
        if warmup > 0:
            fast.refit_params()
            ref.refit_params()
        for it in range(n_sweeps):
            warm = it < warmup
            assert fast.sweep(allow_new=not warm) == ref.sweep(allow_new=not warm)
            if warm:
                events["reseed"] += fast.reseed_small_domains()
                ref.reseed_small_domains()
            assert np.array_equal(fast.z, ref.z)
            assert np.array_equal(fast.occ, ref.occ)
            assert np.array_equal(fast.H, ref.H)
            for p, q in zip(fast.params, ref.params):
                assert np.array_equal(p.means, q.means)
                assert np.array_equal(p.precisions, q.precisions)
            assert fast.rng.bit_generator.state == ref.rng.bit_generator.state
        return fast, events

    @pytest.mark.parametrize("weights,lam,seed", [
        ((1.0,), 0.5, 3),
        ((1.5, 0.7), 0.4, 4),
        ((1.0, 0.0), 0.5, 5),
    ])
    def test_lattice_chains(self, weights, lam, seed, monkeypatch):
        spec = SyntheticSpec(grid_side=8, k_true=3, mu_within=0.8, mu_between=0.0,
                             precision=4.0, seed=seed, n_modalities=len(weights))
        sims, coords, _ = generate_spatial_sbm(spec)
        graph = build_neighborhood(coords, 1.0)
        cfg = FitConfig(lam=lam, weights=weights, n_iterations=60, n_burnin=40,
                        seed=seed, init_k=16)
        _, events = self.run_side_by_side(sims, graph, cfg, 40, monkeypatch)
        assert min(events.values()) > 0, events

    def test_collapsing_chain(self, monkeypatch):
        spec = SyntheticSpec(grid_side=10, k_true=3, precision=2.0, seed=1)
        sims, coords, _ = generate_spatial_sbm(spec)
        graph = build_neighborhood(coords, 1.0)
        cfg = FitConfig(lam=0.0, n_iterations=60, n_burnin=30, seed=1)
        fast, events = self.run_side_by_side(sims, graph, cfg, 20, monkeypatch)
        assert fast.n_domains == fast.n
        assert events["scan_grow"] > 0 and events["purge"] > 0, events


# K and labels of every sweep of three fixed-seed chains, as run_chain's
# trace writes them.  A change that alters chains on purpose re-records
# them with `PYTHONPATH=src python tests/test_sampler.py --record`.
TRAJECTORIES = Path(__file__).parent / "data" / "fixed_seed_chains.json"


def fixed_seed_chains():
    """name -> (sims, graph, config) of the pinned chains: one through
    warm-up reseeds and then new domains, one that collapses to
    singletons, and one whose warm-up moves cells in dense runs from a
    random start and after each reseed."""
    spec = SyntheticSpec(grid_side=8, k_true=3, mu_within=0.8, mu_between=0.0,
                         precision=4.0, seed=4, n_modalities=2)
    sims, coords, _ = generate_spatial_sbm(spec)
    lattice = (sims, build_neighborhood(coords, 1.0),
               FitConfig(lam=0.4, weights=(1.5, 0.7), n_iterations=60, n_burnin=40,
                         seed=4, init_k=16))
    spec = SyntheticSpec(grid_side=10, k_true=3, precision=2.0, seed=1)
    sims, coords, _ = generate_spatial_sbm(spec)
    collapse = (sims, build_neighborhood(coords, 1.0),
                FitConfig(lam=0.0, n_iterations=60, n_burnin=30, seed=1))
    spec = SyntheticSpec(grid_side=24, k_true=4, mu_within=0.8, mu_between=0.0,
                         precision=4.0, seed=7, n_modalities=2)
    sims, coords, _ = generate_spatial_sbm(spec)
    dense = (sims, build_neighborhood(coords, 1.5),
             FitConfig(lam=0.3, delta=1.5, weights=(1.0, 0.8), n_iterations=60,
                       n_burnin=30, seed=7, init_k=5))
    return {"lattice_8x8_two_modalities": lattice, "collapse_10x10": collapse,
            "dense_warmup_24x24": dense}


def chain_trajectory(sims, graph, cfg, trace_dir) -> dict:
    path = Path(trace_dir) / "trace.tsv"
    run_chain(sims, graph, cfg, trace_file=path)
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    return {"k": [int(r[1]) for r in rows], "labels": [r[3] for r in rows]}


class TestFixedSeedTrajectories:
    @pytest.mark.parametrize("name", ["lattice_8x8_two_modalities", "collapse_10x10",
                                      "dense_warmup_24x24"])
    def test_trajectory_is_pinned(self, name, tmp_path):
        pinned = json.loads(TRAJECTORIES.read_text())[name]
        got = chain_trajectory(*fixed_seed_chains()[name], tmp_path)
        assert len(got["k"]) == len(pinned["k"])
        for it, (k, labels) in enumerate(zip(got["k"], got["labels"])):
            assert (k, labels) == (pinned["k"][it], pinned["labels"][it]), f"sweep {it}"


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(7, 0)
        b = derive_seed(7, 1)
        assert a == derive_seed(7, 0)
        assert a != b


def digest_chains():
    """name -> (sims, graph, config) of the chains ``--digest`` hashes: the
    pinned chains, a 40 x 40 single-modality chain of 240 sweeps, and two
    (lam, delta) grid points of a 22 x 22 two-modality search."""
    chains = fixed_seed_chains()
    spec = SyntheticSpec(grid_side=40, k_true=4, mu_within=0.8, mu_between=0.0,
                         precision=4.0, seed=41)
    sims, coords, _ = generate_spatial_sbm(spec)
    chains["bands_40x40"] = (sims, build_neighborhood(coords, 1.5),
                             FitConfig(lam=0.3, delta=1.5, n_iterations=240,
                                       n_burnin=120, seed=41))
    spec = SyntheticSpec(grid_side=22, k_true=4, mu_within=0.8, mu_between=0.0,
                         precision=4.0, seed=7, n_modalities=2)
    sims, coords, _ = generate_spatial_sbm(spec)
    base = FitConfig(n_iterations=40, n_burnin=20, seed=7)
    for lam, delta in ((0.1, 1.0), (0.3, 1.5)):
        chains[f"grid_22x22_lam{lam}_delta{delta}"] = (
            sims, build_neighborhood(coords, delta), config_for_grid_point(base, lam, delta))
    return chains


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {name: chain_trajectory(*chain, tmp)
                  for name, chain in fixed_seed_chains().items()}
    TRAJECTORIES.parent.mkdir(exist_ok=True)
    TRAJECTORIES.write_text(json.dumps(record, indent=1) + "\n")

if __name__ == "__main__" and sys.argv[1:] == ["--digest"]:
    # SHA-256 of each chain's run_chain trace: equal lines from two
    # checkouts mean byte-identical chains.
    import hashlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.tsv"
        for name, (sims, graph, cfg) in digest_chains().items():
            run_chain(sims, graph, cfg, trace_file=path)
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}")
