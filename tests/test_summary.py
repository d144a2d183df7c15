import numpy as np
import pytest

from oracles import dahl_distances_dense, dahl_exhaustive
from spatialsbm import summary as summary_module
from spatialsbm.partition import relabel_contiguous
from spatialsbm.sampler import ChainSample
from spatialsbm.summary import (
    comembership,
    dahl_index,
    dahl_select,
    mean_comembership,
    summarize_chain,
    uncertainty_scores,
)


class TestComembership:
    def test_single_domain(self):
        B = comembership(np.array([1, 1, 1]))
        assert np.array_equal(B, np.ones((3, 3)))

    def test_all_singletons(self):
        B = comembership(np.array([1, 2, 3]))
        assert np.array_equal(B, np.eye(3))

    def test_relabeling_invariance(self):
        a = comembership(np.array([1, 1, 2, 3, 2]))
        b = comembership(np.array([3, 3, 1, 2, 1]))
        assert np.array_equal(a, b)


class TestDahlSelect:
    def test_single_sample(self):
        idx, bbar = dahl_select([np.array([1, 2, 1])])
        assert idx == 0
        assert np.array_equal(bbar, comembership([1, 2, 1]))

    def test_identical_partitions_tie_break(self):
        samples = [np.array([1, 1, 2]), np.array([2, 2, 1]), np.array([1, 1, 2])]
        idx, bbar = dahl_select(samples)
        assert idx == 0
        assert np.array_equal(bbar, comembership([1, 1, 2]))

    def test_hand_instance_matches_exhaustive(self):
        samples = [
            np.array([1, 1, 2, 2]),
            np.array([1, 1, 1, 2]),
            np.array([1, 2, 2, 2]),
        ]
        idx, _ = dahl_select(samples)
        assert idx == dahl_exhaustive(samples)

    def test_random_instances_match_exhaustive(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            n = int(rng.integers(3, 11))
            m = int(rng.integers(1, 9))
            samples = [rng.integers(1, 4, size=n) for _ in range(m)]
            idx, _ = dahl_select(samples)
            assert idx == dahl_exhaustive(samples)

    def test_invariant_to_sample_relabeling(self):
        rng = np.random.default_rng(3)
        samples = [rng.integers(1, 4, size=8) for _ in range(5)]
        relabold = [4 - s for s in samples]  # reverse the label names
        assert dahl_select(samples)[0] == dahl_select(relabold)[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dahl_select([])

    def test_accepts_chain_samples(self):
        samples = [
            ChainSample(labels=np.array([1, 1, 2])),
            ChainSample(labels=np.array([1, 2, 2])),
        ]
        idx, bbar = dahl_select(samples)
        assert idx in (0, 1)
        assert bbar.shape == (3, 3)


class TestUncertaintyScores:
    def test_identical_samples_give_zero_uncertainty(self):
        labels = np.array([1, 1, 2, 2, 2])
        bbar = comembership(labels)
        res = uncertainty_scores(bbar, labels)
        assert np.allclose(res.uncertainty, 0.0)
        assert np.allclose(res.affinity_assigned, 1.0)

    def test_half_affinity(self):
        labels = np.array([1, 1, 1])
        bbar = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]])
        res = uncertainty_scores(bbar, labels)
        assert res.uncertainty[0] == pytest.approx(0.5)
        assert res.uncertainty[1] == pytest.approx(1 - 0.75)

    def test_hand_computation_two_domains(self):
        labels = np.array([1, 1, 1, 2, 2])
        rng = np.random.default_rng(0)
        bbar = rng.uniform(0.0, 1.0, size=(5, 5))
        bbar = (bbar + bbar.T) / 2
        np.fill_diagonal(bbar, 1.0)
        res = uncertainty_scores(bbar, labels)
        for i in range(5):
            best = -1.0
            for c, members in ((1, [0, 1, 2]), (2, [3, 4])):
                others = [j for j in members if j != i]
                p = sum(bbar[i, j] for j in others) / len(others) if others else 0.0
                best = max(best, p)
            assert res.uncertainty[i] == pytest.approx(1 - best, abs=1e-12)

    def test_singleton_domain_flagged_fully_uncertain(self):
        labels = np.array([1, 2, 2])
        bbar = comembership(labels)
        res = uncertainty_scores(bbar, labels)
        assert res.singleton_cells.tolist() == [0]
        # affinity over an empty set is 0; domain 2's affinity for cell 0 is 0 too
        assert res.affinity_assigned[0] == 0.0
        assert res.uncertainty[0] == 1.0

    def test_scores_bounded(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(1, 4, size=12)
        labels[:3] = [1, 2, 3]
        samples = [labels]
        for _ in range(6):
            flip = labels.copy()
            j = int(rng.integers(0, 12))
            flip[j] = int(rng.integers(1, 4))
            samples.append(flip)
        bbar = mean_comembership(samples)
        res = uncertainty_scores(bbar, labels)
        assert np.all(res.uncertainty >= 0.0)
        assert np.all(res.uncertainty <= 1.0)


class TestSummarizeChain:
    def test_fields_consistent(self):
        samples = [
            ChainSample(labels=np.array([1, 1, 2, 2])),
            ChainSample(labels=np.array([1, 1, 2, 2])),
            ChainSample(labels=np.array([1, 2, 2, 2])),
        ]
        summ = summarize_chain(samples)
        assert summ.m_samples == 3
        assert summ.k_hat == summ.point_partition.n_domains
        assert summ.dahl_index == 0
        B = summ.mean_comembership
        assert np.allclose(B, B.T)
        assert np.allclose(np.diag(B), 1.0)
        assert B.min() >= 0.0 and B.max() <= 1.0

    def test_zero_uncertainty_when_point_matches_all_samples(self):
        labels = np.array([1, 2, 1, 2])
        samples = [ChainSample(labels=labels.copy()) for _ in range(4)]
        summ = summarize_chain(samples)
        assert np.allclose(summ.uncertainty, 0.0)


def perturbed_samples(rng, n, m, k):
    """m contiguous label vectors: random flips of one base partition,
    with repeats and relabelled copies so distances tie exactly."""
    base = rng.integers(1, k + 1, size=n)
    out = []
    for _ in range(m):
        r = rng.random()
        earlier = out[int(rng.integers(0, len(out)))] if out else None
        if out and r < 0.25:
            labels = earlier.copy()
        elif out and r < 0.4:
            labels = earlier.max() + 1 - earlier
        else:
            labels = base.copy()
            flip = rng.random(n) < 0.3
            labels[flip] = rng.integers(1, k + 1, size=int(flip.sum()))
        out.append(relabel_contiguous(labels)[0])
    return out


class TestContingencySummary:
    def test_dahl_index_matches_dense_oracle_with_ties(self):
        rng = np.random.default_rng(21)
        tied = 0
        for _ in range(200):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(2, 12))
            samples = perturbed_samples(rng, n, m, int(rng.integers(2, 5)))
            dist = dahl_distances_dense(samples)
            best = dist == dist.min()
            tied += int(best.sum() > 1)
            want = int(np.flatnonzero(best)[0])
            assert dahl_index(samples) == want
            assert dahl_select(samples)[0] == want
            assert summarize_chain(samples).dahl_index == want
        assert tied >= 20  # the instances really exercise exact ties

    def test_one_table_per_batch_gives_the_same_index(self, monkeypatch):
        rng = np.random.default_rng(5)
        cases = [perturbed_samples(rng, 20, 10, 4) for _ in range(20)]
        want = [dahl_index(samples) for samples in cases]
        monkeypatch.setattr(summary_module, "_TABLE_ENTRIES", 1)
        assert [dahl_index(samples) for samples in cases] == want
        assert want == [dahl_exhaustive(samples) for samples in cases]

    def test_uncertainty_matches_dense_matrix(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(4, 40))
            samples = perturbed_samples(rng, n, int(rng.integers(1, 10)),
                                        int(rng.integers(2, 6)))
            summ = summarize_chain([ChainSample(labels=s) for s in samples])
            dense = uncertainty_scores(mean_comembership(samples), summ.labels)
            np.testing.assert_allclose(summ.uncertainty, dense.uncertainty,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(summ.affinity_assigned, dense.affinity_assigned,
                                       rtol=0, atol=1e-12)
            assert np.array_equal(summ.singleton_cells, dense.singleton_cells)

    def test_lazy_mean_comembership_equals_eager_matrix(self):
        rng = np.random.default_rng(4)
        samples = perturbed_samples(rng, 25, 9, 3)
        summ = summarize_chain([ChainSample(labels=s) for s in samples])
        eager = comembership(samples[0])
        for labels in samples[1:]:
            eager += comembership(labels)
        eager /= len(samples)
        assert np.array_equal(summ.mean_comembership, eager)
