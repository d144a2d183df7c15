"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single PASS line (pytest -s shows them; failures
carry the same detail in the assertion message).
"""

import math
import time

import numpy as np
import pytest

import spatialsbm as ss
from oracles import (
    ari_pair_counting,
    dahl_exhaustive,
    info_metrics_direct,
    log_vn_mpmath,
    mfm_k_distribution,
    morans_i_direct,
    ng_log_marginal_quadrature,
    ng_posterior_moments_quadrature,
    posterior_hyperparams,
)
from spatialsbm.cli import main as cli_main
from spatialsbm.likelihood import (
    LOG_2PI,
    NormalGammaPrior,
    new_domain_marginal,
)
from spatialsbm.partition import relabel_contiguous
from spatialsbm.sampler import FitConfig, GibbsSampler
from spatialsbm.selection import GridSpec, grid_search, mdic
from spatialsbm.similarity import build_neighborhood
from spatialsbm.summary import dahl_select
from spatialsbm.synthetic import (
    SyntheticSpec,
    generate_nonspatial_null,
    generate_spatial_sbm,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {name} failed: {detail}"


# -------------------------------------------------------------------------
# shared synthetic-recovery runs (criteria 5, 8, 11)

BENCH_SPEC = SyntheticSpec(
    grid_side=12, k_true=3, mu_within=0.8, mu_between=0.0, precision=4.0, seed=11
)
BENCH_LAMBDAS = (0.0, 0.5, 1.0)
BENCH_SEEDS = tuple(range(1, 11))


@pytest.fixture(scope="session")
def benchmark_runs():
    sims, coords, truth = generate_spatial_sbm(BENCH_SPEC)
    graphs = {1.0: build_neighborhood(coords, 1.0)}
    grid = GridSpec.rectangular(list(BENCH_LAMBDAS), [1.0])
    # This thread's CPU time: the limits below bound the work done, not
    # how long other processes held the CPU (grid_search runs in-process
    # with jobs=1; process_time would also count idle BLAS threads).
    t0 = time.thread_time()
    searches = []
    for seed in BENCH_SEEDS:
        base = FitConfig(n_iterations=800, n_burnin=400, seed=seed, init_k=5)
        searches.append(grid_search(sims, graphs, grid, base))
    elapsed = time.thread_time() - t0
    return {
        "searches": searches,
        "elapsed": elapsed,
        "truth": truth,
        "graph": graphs[1.0],
        "n": sims[0].shape[0],
    }


class TestC01ConjugacyQuadrature:
    def test_posterior_moments_match_quadrature(self):
        rng = np.random.default_rng(2024)
        t0 = time.thread_time()  # CPU time of this thread, as in benchmark_runs
        worst = 0.0
        for _ in range(50):
            size = int(rng.integers(1, 26))
            mu_true = rng.uniform(0.3, 1.5)
            data = rng.normal(mu_true, rng.uniform(0.2, 0.8), size=size)
            prior = NormalGammaPrior(
                mu0_diag=rng.uniform(0.5, 2.0),
                mu0_offdiag=rng.uniform(0.2, 1.0),
                k0=rng.uniform(2.0, 15.0),
                alpha=rng.uniform(0.5, 3.0),
                beta=rng.uniform(0.5, 3.0),
            )
            within = bool(rng.integers(0, 2))
            xbar = data.mean()
            sse = float(((data - xbar) ** 2).sum())
            _, mun, an, bn = posterior_hyperparams(size, xbar, sse, prior, within)
            mu0 = prior.mu0_diag if within else prior.mu0_offdiag
            mu_q, tau_q = ng_posterior_moments_quadrature(
                data, mu0, prior.k0, prior.alpha, prior.beta
            )
            worst = max(
                worst,
                abs(mun - mu_q) / abs(mu_q),
                abs(an / bn - tau_q) / abs(tau_q),
            )
        elapsed = time.thread_time() - t0
        _report(
            "01 conjugacy-quadrature",
            worst < 1e-6 and elapsed < 30.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s",
        )


class TestC02NewDomainMarginalQuadrature:
    def test_marginal_matches_quadrature(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            prior = NormalGammaPrior(
                mu0_diag=rng.uniform(0.5, 4.0),
                mu0_offdiag=0.0,
                k0=rng.uniform(2.0, 15.0),
                alpha=rng.uniform(0.5, 3.0),
                beta=rng.uniform(0.5, 3.0),
            )
            a_ii = prior.mu0_diag + rng.normal(0.0, 1.5)
            lhs = new_domain_marginal(a_ii, prior) - 0.5 * LOG_2PI
            rhs = ng_log_marginal_quadrature(
                a_ii, prior.mu0_diag, prior.k0, prior.alpha, prior.beta
            )
            worst = max(worst, abs(lhs - rhs))
        _report(
            "02 new-domain-marginal-quadrature",
            worst < 1e-6,
            f"worst abs err {worst:.2e}",
        )


class TestC03CoefficientTable:
    def test_deflation_and_series_oracle(self):
        worst = 0.0
        deflation_ok = True
        for n in (10, 50, 100, 500):
            t_hi = min(n, 20)
            table = ss.log_vn_table(n, 1.0, t_hi)
            deflation_ok &= bool(np.all(np.diff(table) < 0))
            for t in range(1, t_hi):
                exact = log_vn_mpmath(n, 1.0, t)
                worst = max(worst, abs(table[t - 1] - exact) / abs(exact))
        _report(
            "03 coefficient-table",
            deflation_ok and worst < 1e-10,
            f"deflation {deflation_ok}, worst rel err {worst:.2e}",
        )


class TestC04UrnReduction:
    def test_conditionals_equal_urn_probabilities(self):
        n = 8
        A = np.zeros((n, n))
        coords = np.column_stack([np.arange(n), np.zeros(n)]).astype(float)
        graph = build_neighborhood(coords, 1.0)
        rng = np.random.default_rng(99)
        worst = 0.0
        for trial in range(20):
            labels = relabel_contiguous(rng.integers(1, 4, size=n))[0]
            cfg = FitConfig(
                lam=0.0, weights=(0.0,), n_iterations=2, n_burnin=1,
                seed=trial, warmup_sweeps=0,
            )
            s = GibbsSampler([A], graph, cfg, labels=labels)
            i = int(rng.integers(0, n))
            w = s.label_update(i, return_weights=True)
            w = w - w.max()
            probs = np.exp(w) / np.exp(w).sum()
            occ = np.bincount(labels, minlength=labels.max() + 1)[1:].astype(float)
            occ[labels[i] - 1] -= 1
            keep = occ > 0
            k_star = int(keep.sum())
            urn = np.append(occ[keep] + 1.0, math.exp(s.mfm.log_new_weight(k_star)))
            urn /= urn.sum()
            worst = max(worst, float(np.abs(probs - urn).max()))
        assert worst < 1e-12
        self._worst_probs = worst

    def test_long_run_k_distribution(self):
        n = 8
        A = np.zeros((n, n))
        coords = np.column_stack([np.arange(n), np.zeros(n)]).astype(float)
        graph = build_neighborhood(coords, 1.0)
        mfm = ss.MfmPrior(n, 1.0)
        exact = mfm_k_distribution(n, 1.0, mfm.log_vn_at)
        cfg = FitConfig(
            lam=0.0, weights=(0.0,), n_iterations=2, n_burnin=1,
            seed=123, init_k=3, warmup_sweeps=0,
        )
        s = GibbsSampler([A], graph, cfg)
        counts = np.zeros(n)
        burn = 1000
        for it in range(100_000):
            for i in range(n):
                s.label_update(i)
            if it >= burn:
                counts[s.n_domains - 1] += 1
        tv = 0.5 * float(np.abs(counts / counts.sum() - exact).sum())
        _report("04 urn-reduction", tv < 0.05, f"K-marginal TV {tv:.4f}")


class TestC05SyntheticRecovery:
    def test_recovery_at_selected_lambda(self, benchmark_runs):
        truth = benchmark_runs["truth"]
        good = 0
        for search in benchmark_runs["searches"]:
            best = search.best
            a = ss.ari(truth, best.summary.labels)
            good += best.k_hat == 3 and a >= 0.95
        elapsed = benchmark_runs["elapsed"]
        _report(
            "05 synthetic-recovery",
            good >= 9 and elapsed < 120.0,
            f"{good}/10 seeds recovered, {elapsed:.1f}s",
        )


class TestC06NonSpatialSafeguard:
    def test_null_selects_zero(self):
        # dense graph puts lam >= 1 deep in the ordered regime, where
        # smoothing genuinely damages a spatially shuffled truth
        sims, coords, _ = generate_nonspatial_null(
            SyntheticSpec(grid_side=12, k_true=3, mu_within=0.8,
                          mu_between=0.0, precision=4.0, seed=23)
        )
        delta = 3.0
        graphs = {delta: build_neighborhood(coords, delta)}
        grid = GridSpec.rectangular([0.0, 1.0, 2.0], [delta])
        zero = 0
        for seed in range(1, 11):
            base = FitConfig(n_iterations=400, n_burnin=200, seed=seed, init_k=5)
            search = grid_search(sims, graphs, grid, base)
            zero += search.best.lam == 0.0
        _report("06 non-spatial-safeguard", zero >= 8, f"lam*=0 in {zero}/10 seeds")


class TestC07DahlEquivalence:
    def test_matches_exhaustive(self):
        rng = np.random.default_rng(555)
        mismatches = 0
        for _ in range(100):
            n = int(rng.integers(3, 11))
            m = int(rng.integers(1, 9))
            samples = [
                relabel_contiguous(rng.integers(1, 5, size=n))[0]
                for _ in range(m)
            ]
            got, _ = dahl_select(samples)
            if got != dahl_exhaustive(samples):
                mismatches += 1
        _report("07 dahl-equivalence", mismatches == 0, f"{mismatches}/100 mismatches")


class TestC08MdicArithmetic:
    def test_invariant_on_benchmark_rows(self, benchmark_runs):
        n = benchmark_runs["n"]
        worst = 0.0
        rows = 0
        for search in benchmark_runs["searches"]:
            for r in search.results:
                recomputed = r.mean_deviance + math.log(n * (n + 1) / 2.0) * r.p_d
                worst = max(worst, abs(recomputed - r.mdic))
                rows += 1
        # single-sample degenerate case is exactly zero
        single = [ss.ChainSample(labels=np.array([1, 1, 2]), deviance=37.5)]
        res = mdic(single, 0, 3)
        degenerate_ok = res.p_d == 0.0 and res.mdic == res.mean_deviance
        _report(
            "08 mdic-arithmetic",
            worst < 1e-9 and degenerate_ok,
            f"{rows} rows, worst abs err {worst:.2e}, degenerate p_D == 0: {degenerate_ok}",
        )


class TestC09MetricConformance:
    def test_metrics_match_oracles(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        exact_reductions = 0
        for _ in range(50):
            n = int(rng.integers(5, 41))
            truth = rng.integers(1, int(rng.integers(2, 6)) + 1, size=n)
            pred = rng.integers(1, int(rng.integers(2, 6)) + 1, size=n)
            coords = rng.uniform(0, 10, size=(n, 2))
            a = ss.ari(truth, pred)
            worst = max(worst, abs(a - ari_pair_counting(truth, pred)))
            got = ss.nmi_ami_homogeneity(truth, pred)
            exp = info_metrics_direct(truth, pred)
            worst = max(worst, max(abs(g - e) for g, e in zip(got, exp)))
            exact_reductions += ss.spari(truth, pred, coords, ss.CONSTANT_ONE) == a
        # checkerboard autocorrelation instance
        side = 4
        coords = np.column_stack(
            [np.arange(side * side) % side, np.arange(side * side) // side]
        ).astype(float)
        graph = build_neighborhood(coords, 1.0)
        labels = ((coords[:, 0] + coords[:, 1]) % 2).astype(int) + 1
        got_i = ss.morans_i(labels, graph)
        occ = np.bincount(labels, minlength=3)[1:]
        expected_i = sum(
            occ[c - 1] / 16 * morans_i_direct((labels == c).astype(float), graph.W.toarray())
            for c in (1, 2)
        )
        moran_err = abs(got_i - expected_i)
        _report(
            "09 metric-conformance",
            worst < 1e-9 and exact_reductions == 50 and moran_err < 1e-12,
            f"worst err {worst:.2e}, exact reductions {exact_reductions}/50, "
            f"checkerboard err {moran_err:.2e}",
        )


class TestC10Determinism:
    def test_cli_outputs_byte_identical(self, tmp_path):
        sim = tmp_path / "sim"
        code = cli_main(
            ["simulate", "--grid-side", "8", "--k-true", "2", "--seed", "3",
             "--out-dir", str(sim)]
        )
        assert code == 0
        blobs = {}
        for tag in ("a", "b"):
            fit = tmp_path / f"fit_{tag}"
            sel = tmp_path / f"sel_{tag}"
            svg = tmp_path / f"map_{tag}.svg"
            assert cli_main(
                ["fit", "--similarity", f"m0={sim/'similarity_m0.bin'}",
                 "--coords", str(sim / "coords.csv"), "--lambda", "0.5",
                 "--iterations", "60", "--burnin", "30", "--seed", "7",
                 "--out-dir", str(fit)]
            ) == 0
            assert cli_main(
                ["select", "--similarity", f"m0={sim/'similarity_m0.bin'}",
                 "--coords", str(sim / "coords.csv"),
                 "--lambda-grid", "0,0.5", "--delta-grid", "1.0",
                 "--iterations", "40", "--burnin", "20", "--seed", "5",
                 "--out-dir", str(sel)]
            ) == 0
            assert cli_main(
                ["render", "--labels", str(fit / "labels.tsv"),
                 "--coords", str(sim / "coords.csv"), "--out", str(svg)]
            ) == 0
            blobs[tag] = (
                (fit / "labels.tsv").read_bytes(),
                (sel / "grid.csv").read_bytes(),
                (sel / "labels.tsv").read_bytes(),
                svg.read_bytes(),
            )
        ok = blobs["a"] == blobs["b"]
        _report("10 determinism", ok, "labels.tsv, grid.csv, SVG byte-identical")


class TestC11SpatialRewardMonotonicity:
    def test_morans_i_not_reduced_by_reward(self, benchmark_runs):
        graph = benchmark_runs["graph"]
        wins = 0
        for search in benchmark_runs["searches"]:
            by_lam = {r.lam: r for r in search.results}
            i_high = ss.morans_i(by_lam[1.0].summary.labels, graph)
            i_zero = ss.morans_i(by_lam[0.0].summary.labels, graph)
            wins += i_high >= i_zero - 1e-12
        _report("11 spatial-reward-monotonicity", wins >= 8, f"{wins}/10 seeds")
