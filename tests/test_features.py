import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import clr_transform, match_up_to_sign, svd_scores
from spatialsbm.errors import DataError
from spatialsbm.features import (
    CountMatrix,
    adt_frontend,
    atac_frontend,
    rna_frontend,
    standardize_cells,
)


class TestRnaFrontend:
    def test_eigenvalues_non_increasing(self):
        counts = np.eye(4) * 3 + 1
        emb = rna_frontend(CountMatrix(counts, "rna"), 2)
        assert emb.values.shape == (4, 2)
        assert emb.explained_variance[0] >= emb.explained_variance[1]

    def test_rank_one_counts_have_single_component(self):
        base = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        counts = np.outer([1, 2, 3, 4], base)
        emb = rna_frontend(counts, 3)
        assert np.all(np.abs(emb.explained_variance[1:]) < 1e-9)

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(42)
        counts = rng.poisson(5.0, size=(50, 20)).astype(float)
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        emb = rna_frontend(counts, 5)
        # same preprocessing, independent decomposition route
        from spatialsbm.features import _normalize_log_zscore

        expected = svd_scores(_normalize_log_zscore(counts), 5)
        assert match_up_to_sign(emb.values, expected, atol=1e-6)

    def test_zero_sum_row_rejected_with_row_index(self):
        counts = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]])
        with pytest.raises(DataError, match="row 1"):
            rna_frontend(counts, 1)

    def test_n_components_out_of_range(self):
        counts = np.abs(np.random.default_rng(0).normal(2, 1, (5, 3)))
        with pytest.raises(ValueError):
            rna_frontend(counts, 4)
        with pytest.raises(ValueError):
            rna_frontend(counts, 0)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(4.0, size=(12, 7)).astype(float) + 1
        perm = rng.permutation(12)
        emb = rna_frontend(counts, 3)
        emb_p = rna_frontend(counts[perm], 3)
        assert np.allclose(emb_p.values, emb.values[perm], atol=1e-9)

    def test_all_frontends_permutation_equivariant(self):
        rng = np.random.default_rng(13)
        perm = rng.permutation(15)
        cases = [
            (rna_frontend, rng.poisson(4.0, size=(15, 9)).astype(float) + 1),
            (atac_frontend, (rng.random((15, 12)) < 0.4).astype(float)),
            (adt_frontend, rng.poisson(7.0, size=(15, 8)).astype(float) + 1),
        ]
        cases[1][1][cases[1][1].sum(axis=1) == 0, 0] = 1.0
        for frontend, counts in cases:
            base = frontend(counts, 3)
            permuted = frontend(counts[perm], 3)
            assert np.allclose(permuted.values, base.values[perm], atol=1e-8)


class TestAtacFrontend:
    def test_constant_depth_removes_flat_component(self):
        rng = np.random.default_rng(7)
        # every cell has the same number of open features
        B = np.zeros((20, 30))
        for i in range(20):
            B[i, rng.choice(30, size=10, replace=False)] = 1.0
        emb = atac_frontend(B, 4)
        # oracle: full SVD of the TF-IDF matrix; the removed first component
        # has nearly constant scores across cells
        tf = B / B.sum(axis=1, keepdims=True)
        idf = np.log(1 + 20 / (1 + B.sum(axis=0)))
        M = tf * idf
        U, s, _ = np.linalg.svd(M, full_matrices=False)
        first = U[:, 0] * s[0]
        assert first.std() / np.abs(first.mean()) < 0.15
        assert emb.values.shape == (20, 4)

    def test_retained_components_orthogonal(self):
        rng = np.random.default_rng(11)
        B = (rng.random((30, 40)) < 0.3).astype(float)
        B[B.sum(axis=1) == 0, 0] = 1.0
        emb = atac_frontend(B, 4)
        G = emb.values.T @ emb.values
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() < 1e-8

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(11)
        B = (rng.random((30, 40)) < 0.3).astype(float)
        B[B.sum(axis=1) == 0, 0] = 1.0
        keep = B.sum(axis=0) > 0
        Bk = B[:, keep]
        tf = Bk / Bk.sum(axis=1, keepdims=True)
        idf = np.log(1 + 30 / (1 + Bk.sum(axis=0)))
        M = tf * idf
        U, s, _ = np.linalg.svd(M, full_matrices=False)
        expected = (U[:, :5] * s[:5])[:, 1:]
        emb = atac_frontend(B, 4)
        assert match_up_to_sign(emb.values, expected, atol=1e-6)

    def test_zero_columns_dropped_and_counted(self):
        X = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        emb = atac_frontend(X, 1)
        assert emb.dropped_columns == 1

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(DataError):
            atac_frontend(np.zeros((3, 3)), 1)


class TestAdtFrontend:
    def test_equal_count_cell_has_zero_clr_row(self):
        Y = clr_transform(np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]]))
        assert np.allclose(Y[0], 0.0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_clr_rows_sum_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.poisson(6.0, size=(8, 5)).astype(float)
        Y = clr_transform(X)
        assert np.abs(Y.sum(axis=1)).max() < 1e-9

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(5)
        counts = rng.poisson(8.0, size=(40, 10)).astype(float)
        counts[counts.sum(axis=1) == 0, 0] = 1.0
        emb = adt_frontend(counts, 3)
        expected = svd_scores(clr_transform(counts), 3)
        assert match_up_to_sign(emb.values, expected, atol=1e-6)


class TestStandardizeCells:
    def test_simple_row(self):
        emb = standardize_cells(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(emb.values, [[-1.0, 0.0, 1.0]])

    def test_constant_row_zeroed_and_flagged(self):
        emb = standardize_cells(np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 4.0]]))
        assert np.allclose(emb.values[0], 0.0)
        assert emb.degenerate_cells.tolist() == [0]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        X = rng.normal(3.0, 2.0, size=(10, 6))
        once = standardize_cells(X)
        twice = standardize_cells(once)
        assert np.allclose(once.values, twice.values, atol=1e-12)

    def test_requires_two_dimensions(self):
        with pytest.raises(ValueError):
            standardize_cells(np.array([[1.0], [2.0]]))

    def test_rows_standardized(self):
        rng = np.random.default_rng(9)
        emb = standardize_cells(rng.normal(0, 3, size=(20, 8)))
        assert np.abs(emb.values.mean(axis=1)).max() < 1e-9
        assert np.abs(emb.values.std(axis=1, ddof=1) - 1).max() < 1e-9


class TestCountMatrixValidation:
    def test_negative_entries_rejected(self):
        with pytest.raises(DataError):
            CountMatrix(np.array([[1.0, -1.0], [0.0, 2.0]]), "rna")

    def test_wrong_modality_kind_rejected(self):
        counts = CountMatrix(np.ones((3, 3)), "atac")
        with pytest.raises(ValueError):
            rna_frontend(counts, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CountMatrix(np.ones((3, 3)), "methylation")
