import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ari_pair_counting,
    info_metrics_direct,
    morans_i_direct,
    spari_linear_decay_pair_loop,
)
from spatialsbm.metrics import (
    CONSTANT_ONE,
    SpatialWeightFn,
    ari,
    expected_mutual_information,
    contingency_table,
    linear_decay,
    morans_i,
    nmi_ami_homogeneity,
    spari,
)
from spatialsbm.similarity import build_neighborhood


def grid_coords(side):
    idx = np.arange(side * side)
    return np.column_stack([idx % side, idx // side]).astype(float)


def random_partition_pair(rng, n, kmax=5):
    return rng.integers(1, kmax, size=n), rng.integers(1, kmax, size=n)


class TestAri:
    def test_identical(self):
        labels = np.array([1, 1, 2, 3, 3, 3])
        assert ari(labels, labels) == 1.0

    def test_frozen_crossed_case(self):
        assert ari([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            t, p = random_partition_pair(rng, int(rng.integers(4, 41)))
            assert ari(t, p) == pytest.approx(ari_pair_counting(t, p), abs=1e-9)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_label_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        t, p = random_partition_pair(rng, 20)
        perm = rng.permutation(10) + 1
        assert ari(t, p) == pytest.approx(ari(perm[t - 1], p), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        t, p = random_partition_pair(rng, 25)
        assert ari(t, p) == pytest.approx(ari(p, t), abs=1e-12)

    def test_degenerate_small_n(self):
        assert ari([1], [1]) == 1.0

    def test_both_single_cluster(self):
        assert ari([1, 1, 1], [2, 2, 2]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ari([1, 2], [1, 2, 3])


class TestInfoMetrics:
    def test_identical_partitions(self):
        labels = np.array([1, 1, 2, 2, 3])
        nmi, ami, homog = nmi_ami_homogeneity(labels, labels)
        assert nmi == pytest.approx(1.0)
        assert ami == pytest.approx(1.0)
        assert homog == pytest.approx(1.0)

    def test_uninformative_prediction(self):
        truth = np.array([1, 1, 2, 2])
        pred = np.array([1, 1, 1, 1])
        nmi, ami, homog = nmi_ami_homogeneity(truth, pred)
        assert homog == 0.0
        assert nmi == 0.0

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(12):
            t, p = random_partition_pair(rng, 30)
            got = nmi_ami_homogeneity(t, p)
            exp = info_metrics_direct(t, p)
            for g, e in zip(got, exp):
                assert g == pytest.approx(e, abs=1e-9)

    def test_matches_sklearn_conventions(self):
        sklearn = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(8)
        for _ in range(10):
            t, p = random_partition_pair(rng, 25)
            nmi, ami, homog = nmi_ami_homogeneity(t, p)
            assert nmi == pytest.approx(
                sklearn.normalized_mutual_info_score(t, p, average_method="geometric"),
                abs=1e-9,
            )
            assert ami == pytest.approx(
                sklearn.adjusted_mutual_info_score(t, p, average_method="arithmetic"),
                abs=1e-9,
            )
            assert homog == pytest.approx(sklearn.homogeneity_score(t, p), abs=1e-9)

    def test_emi_nonnegative_small_cases(self):
        ct = contingency_table([1, 1, 2, 2, 3], [1, 2, 2, 3, 3])
        emi = expected_mutual_information(ct)
        assert emi >= 0.0

    def test_ranges(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t, p = random_partition_pair(rng, 15)
            nmi, ami, homog = nmi_ami_homogeneity(t, p)
            assert 0.0 <= nmi <= 1.0
            assert -1.0 <= ami <= 1.0
            assert 0.0 <= homog <= 1.0

    def test_homogeneity_of_refinement_at_most_one(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            t = rng.integers(1, 5, 60)
            p = 10 * t + rng.integers(0, 3, 60)
            assert nmi_ami_homogeneity(t, p)[2] <= 1.0

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(44)
        t, p = random_partition_pair(rng, 20)
        perm = rng.permutation(10) + 1
        assert nmi_ami_homogeneity(t, p) == pytest.approx(
            nmi_ami_homogeneity(perm[t - 1], perm[p - 1])
        )

    def test_nmi_symmetric_homogeneity_not(self):
        t = np.array([1, 1, 1, 2, 2, 3])
        p = np.array([1, 1, 2, 2, 2, 2])
        nmi_tp, _, h_tp = nmi_ami_homogeneity(t, p)
        nmi_pt, _, h_pt = nmi_ami_homogeneity(p, t)
        assert nmi_tp == pytest.approx(nmi_pt)
        assert h_tp != pytest.approx(h_pt)


class TestMoransI:
    def test_two_blocks_on_a_line(self):
        coords = np.column_stack([np.arange(10), np.zeros(10)]).astype(float)
        graph = build_neighborhood(coords, 1.0)
        labels = np.array([1] * 5 + [2] * 5)
        got = morans_i(labels, graph)
        expected = 0.0
        for c in (1, 2):
            x = (labels == c).astype(float)
            expected += 0.5 * morans_i_direct(x, graph.adjacency)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got > 0.7

    def test_checkerboard_is_minus_one(self):
        side = 4
        coords = grid_coords(side)
        graph = build_neighborhood(coords, 1.0)
        labels = ((coords[:, 0] + coords[:, 1]) % 2).astype(int) + 1
        got = morans_i(labels, graph)
        assert got == pytest.approx(-1.0, abs=1e-12)
        for c in (1, 2):
            x = (labels == c).astype(float)
            assert morans_i_direct(x, graph.adjacency) == pytest.approx(-1.0, abs=1e-12)

    def test_single_domain_zero_variance(self):
        graph = build_neighborhood(grid_coords(3), 1.0)
        assert morans_i(np.ones(9, dtype=int), graph) == 0.0

    def test_empty_graph_rejected(self):
        graph = build_neighborhood(grid_coords(3), 0.1)
        with pytest.raises(ValueError):
            morans_i(np.ones(9, dtype=int), graph)

    def test_reductions(self):
        graph = build_neighborhood(grid_coords(4), 1.0)
        labels = np.array([1] * 8 + [2] * 8)
        occ = morans_i(labels, graph, reduction="occupancy")
        mx = morans_i(labels, graph, reduction="max")
        mean = morans_i(labels, graph, reduction="mean")
        assert mx >= mean
        assert -1.0 <= occ <= 1.0

    def test_matches_direct_on_random_labelings(self):
        rng = np.random.default_rng(17)
        graph = build_neighborhood(grid_coords(5), 1.0)
        for _ in range(5):
            labels = rng.integers(1, 4, size=25)
            labels[:3] = [1, 2, 3]
            got = morans_i(labels, graph)
            occ = np.bincount(labels, minlength=4)[1:]
            expected = sum(
                occ[c - 1] / 25 * morans_i_direct((labels == c).astype(float), graph.adjacency)
                for c in (1, 2, 3)
            )
            assert got == pytest.approx(expected, abs=1e-12)


class TestSpari:
    def test_constant_weight_reduces_to_ari_exactly(self):
        rng = np.random.default_rng(9)
        coords = rng.uniform(0, 10, size=(30, 2))
        for _ in range(50):
            t, p = random_partition_pair(rng, 30)
            assert spari(t, p, coords, CONSTANT_ONE) == ari(t, p)

    def test_linear_decay_matches_pair_loop_oracle(self):
        rng = np.random.default_rng(21)
        for n, d_max in ((25, 2.0), (40, 5.0), (40, 50.0)):
            coords = rng.uniform(0, 10, size=(n, 2))
            coords[1] = coords[0]
            for _ in range(5):
                t, p = random_partition_pair(rng, n)
                got = spari(t, p, coords, linear_decay(d_max))
                expected = spari_linear_decay_pair_loop(t, p, coords, d_max)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_identical_partitions_give_one(self):
        rng = np.random.default_rng(2)
        coords = rng.uniform(0, 5, size=(12, 2))
        labels = rng.integers(1, 4, size=12)
        labels[:3] = [1, 2, 3]
        for wfn in (CONSTANT_ONE, linear_decay(3.0)):
            assert spari(labels, labels, coords, wfn) == pytest.approx(1.0)

    def test_near_misassignments_score_higher(self):
        # two predictions with identical contingency tables; one flips a cell
        # at the domain boundary, the other a cell far from it
        side = 6
        coords = grid_coords(side)
        truth = (coords[:, 0] >= 3).astype(int) + 1
        near = truth.copy()
        far = truth.copy()
        near_idx = int(np.flatnonzero((coords[:, 0] == 3) & (coords[:, 1] == 2))[0])
        far_idx = int(np.flatnonzero((coords[:, 0] == 5) & (coords[:, 1] == 2))[0])
        near[near_idx] = 1
        far[far_idx] = 1
        ct_near = contingency_table(truth, near)
        ct_far = contingency_table(truth, far)
        assert np.array_equal(np.sort(ct_near, axis=None), np.sort(ct_far, axis=None))
        wfn = linear_decay(float(side))
        assert spari(truth, near, coords, wfn) >= spari(truth, far, coords, wfn)
        assert spari(truth, near, coords, wfn) > spari(truth, far, coords, wfn) - 1e-12

    def test_weight_kind_validation(self):
        with pytest.raises(ValueError):
            SpatialWeightFn("gaussian")
        with pytest.raises(ValueError):
            SpatialWeightFn("linear_decay", d_max=0.0)

    def test_length_mismatch(self):
        coords = np.zeros((3, 2))
        with pytest.raises(ValueError):
            spari([1, 2], [1, 2, 3], coords)
