import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edge_pairs_loop
from spatialsbm.errors import DataError
from spatialsbm.features import standardize_cells
from spatialsbm.sampler import FitConfig, run_chain
from spatialsbm.similarity import (
    FISHER_BOUND,
    ROW_BLOCK,
    build_neighborhood,
    check_similarity_matrix,
    cosine_similarity,
    fisher_z,
)


def _standardized(rows):
    return standardize_cells(np.asarray(rows, dtype=float)).values


class TestCosineSimilarity:
    def test_identical_rows(self):
        # z-scored rows with ddof=1 have squared norm d - 1
        E = _standardized([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
        d = E.shape[1]
        R = cosine_similarity(E)
        assert R[0, 1] == pytest.approx((d - 1) / d, abs=1e-12)

    def test_negated_row(self):
        E = _standardized([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
        d = E.shape[1]
        R = cosine_similarity(E)
        assert R[0, 1] == pytest.approx(-(d - 1) / d, abs=1e-12)

    def test_orthogonal_rows(self):
        E = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
        E = E / E.std(axis=1, ddof=1, keepdims=True)
        R = cosine_similarity(E)
        assert R[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_unstandardized_rows(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.array([[5.0, 6.0, 9.0], [1.0, 0.0, 2.0]]))

    @pytest.mark.parametrize("n, d", [(2, 3), (7, 2), (64, 5), (300, 30), (517, 50), (1200, 9)])
    def test_exactly_symmetric(self, n, d):
        rng = np.random.default_rng(n + d)
        R = cosine_similarity(_standardized(rng.normal(size=(n, d))))
        assert np.array_equal(R, R.T)


class TestFisherZ:
    def test_zero_maps_to_zero(self):
        A = fisher_z(np.zeros((3, 3)))
        assert np.all(A == 0.0)

    def test_half_maps_to_half_log_three(self):
        R = np.full((2, 2), 0.5)
        A = fisher_z(R)
        assert A[0, 1] == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    def test_unit_similarity_clipped(self):
        R = np.ones((2, 2))
        A = fisher_z(R)
        expected = 0.5 * math.log(1.9999 / 0.0001)
        assert A[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_non_finite_rejected_with_indices(self):
        R = np.zeros((3, 3))
        R[1, 2] = R[2, 1] = np.nan
        with pytest.raises(DataError, match=r"\(1, 2\)"):
            fisher_z(R)

    @given(st.floats(min_value=-0.9999, max_value=0.9999))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, x):
        R = np.array([[0.0, x], [x, 0.0]])
        A = fisher_z(R)
        assert math.tanh(A[0, 1]) == pytest.approx(x, abs=1e-12)

    def test_odd_and_increasing(self):
        xs = np.linspace(-0.9999, 0.9999, 101)
        vals = np.diag(fisher_z(np.diag(xs)))
        assert np.all(np.diff(vals) > 0)
        assert np.allclose(vals, -vals[::-1], atol=1e-12)

    def test_entries_bounded(self):
        rng = np.random.default_rng(0)
        R = rng.uniform(-2, 2, size=(10, 10))
        R = (R + R.T) / 2
        A = fisher_z(R)
        assert np.abs(A).max() <= FISHER_BOUND + 1e-12
        check_similarity_matrix(A)

    def test_float64_input_transformed_in_place(self):
        rng = np.random.default_rng(5)
        R0 = rng.uniform(-1.5, 1.5, size=(40, 40))
        R0 = (R0 + R0.T) / 2
        R = R0.copy()
        A = fisher_z(R, clip=0.99)
        assert A is R
        assert np.array_equal(A, np.arctanh(np.clip(R0.copy(), -0.99, 0.99)))

    def test_other_dtypes_are_converted_to_a_new_array(self):
        R = np.eye(3, dtype=np.float32)
        A = fisher_z(R)
        assert A is not R and A.dtype == np.float64
        assert np.array_equal(R, np.eye(3))

    @pytest.mark.parametrize("bad", ["nan", "asymmetric"])
    def test_rejected_input_left_unmodified(self, bad):
        rng = np.random.default_rng(6)
        R0 = rng.uniform(-1.5, 1.5, size=(12, 12))
        R0 = (R0 + R0.T) / 2
        if bad == "nan":
            R0[4, 7] = R0[7, 4] = np.nan
        else:
            R0[4, 7] += 1e-3
        R = R0.copy()
        with pytest.raises(DataError):
            fisher_z(R)
        assert np.array_equal(R, R0, equal_nan=True)


def _valid_matrix(n, seed=0):
    rng = np.random.default_rng(seed)
    return fisher_z(cosine_similarity(_standardized(rng.normal(size=(n, 8)))))


def _tiny_chain(A):
    side = int(np.ceil(np.sqrt(A.shape[0])))
    graph = build_neighborhood(grid_coords(side)[: A.shape[0]], 1.0)
    run_chain([A], graph, FitConfig(n_iterations=2, n_burnin=1))


# Two full row blocks and a partial third one.
N_CHECK = 2 * ROW_BLOCK + 5


def _non_square(A):
    return A[:, :-1]


def _non_finite(A):
    A[N_CHECK - 3, N_CHECK - 1] = A[N_CHECK - 1, N_CHECK - 3] = np.inf
    A[N_CHECK - 2, N_CHECK - 2] = np.nan
    return A


def _asymmetric_in_last_block(A):
    i, j = N_CHECK - 2, N_CHECK - 1
    assert i >= (N_CHECK // ROW_BLOCK) * ROW_BLOCK
    A[i, j] += 1e-3
    return A


def _above_bound(A):
    A[0, 1] = A[1, 0] = FISHER_BOUND + 1e-6
    return A


REJECTIONS = [
    (_non_square, "must be square"),
    (_non_finite, rf"cell pair \({N_CHECK - 3}, {N_CHECK - 1}\)"),
    (_asymmetric_in_last_block, "not symmetric"),
    (_above_bound, "exceed the Fisher-Z clipping bound"),
]


class TestCheckSimilarityMatrix:
    def test_valid_matrix_passes(self):
        A = _valid_matrix(N_CHECK)
        assert np.array_equal(check_similarity_matrix(A), A)

    @pytest.mark.parametrize("corrupt, message", REJECTIONS)
    def test_rejected_directly(self, corrupt, message):
        with pytest.raises(DataError, match=message):
            check_similarity_matrix(corrupt(_valid_matrix(N_CHECK)))

    @pytest.mark.parametrize("corrupt, message", REJECTIONS)
    def test_rejected_by_run_chain(self, corrupt, message):
        with pytest.raises(DataError, match=message):
            _tiny_chain(corrupt(_valid_matrix(N_CHECK)))

    def test_tolerance_matches_allclose(self):
        rng = np.random.default_rng(5)
        A = _valid_matrix(ROW_BLOCK + 9, seed=1)
        outcomes = set()
        for scale in np.repeat(10.0 ** np.arange(-14, -2), 3):
            B = A.copy()
            i, j = rng.integers(0, len(B), 2)
            B[i, j] += scale * rng.choice([-1.0, 1.0])
            expected = bool(np.allclose(B, B.T, atol=1e-12))
            try:
                check_similarity_matrix(B)
                accepted = True
            except DataError:
                accepted = False
            assert accepted == expected, (scale, i, j)
            outcomes.add(accepted)
        assert outcomes == {True, False}


def grid_coords(side):
    idx = np.arange(side * side)
    return np.column_stack([idx % side, idx // side]).astype(float)


def jittered_lattice(seed, delta, side=9):
    """Jittered unit lattice with cells 1 and 7 on one spot, plus two far
    cells exactly delta apart (the offsets are exact in binary)."""
    rng = np.random.default_rng(seed)
    P = grid_coords(side) + rng.uniform(-0.2, 0.2, size=(side * side, 2))
    P[7] = P[1]
    dx, dy = (0.75, 1.0) if delta == 1.25 else (delta, 0.0)
    return np.vstack([P, [[100.0, 100.0], [100.0 + dx, 100.0 + dy]]])


class TestBuildNeighborhood:
    def test_unit_radius_grid(self):
        g = build_neighborhood(grid_coords(3), 1.0)
        center = 4  # middle of the 3x3 lattice
        assert len(g.neighbors(center)) == 4
        assert g.avg_degree == pytest.approx(24 / 9)

    def test_radius_covering_diagonals(self):
        g = build_neighborhood(grid_coords(3), 1.5)
        assert len(g.neighbors(4)) == 8

    def test_tiny_radius_empty_graph(self):
        g = build_neighborhood(grid_coords(3), 0.5)
        assert g.total_weight == 0.0
        assert g.avg_degree == 0.0

    def test_boundary_distance_included(self):
        coords = np.array([[0.0, 0.0], [2.0, 0.0]])
        g = build_neighborhood(coords, 2.0)
        assert g.W[0, 1] == 1.0

    def test_duplicate_coordinates_are_neighbors(self):
        coords = np.array([[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
        g = build_neighborhood(coords, 0.5)
        assert g.W[0, 1] == 1.0
        assert g.W[0, 2] == 0.0
        assert np.all(g.W.diagonal() == 0.0)

    def test_rigid_motion_invariance(self):
        coords = grid_coords(4)
        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        moved = coords @ rot.T + np.array([13.0, -4.5])
        g1 = build_neighborhood(coords, 1.2)
        g2 = build_neighborhood(moved, 1.2)
        assert np.array_equal(g1.W.toarray(), g2.W.toarray())

    @given(
        st.floats(min_value=0.3, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_delta(self, d1, extra):
        coords = grid_coords(4)
        g1 = build_neighborhood(coords, d1)
        g2 = build_neighborhood(coords, d1 + extra)
        assert np.all(g2.W.toarray() >= g1.W.toarray())

    @pytest.mark.parametrize("delta", [1.0, 1.25, 1.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_pair_loop_oracle(self, delta, seed):
        coords = jittered_lattice(seed, delta)
        want = edge_pairs_loop(coords, delta)
        assert (1, 7) in want and (coords.shape[0] - 2, coords.shape[0] - 1) in want
        g = build_neighborhood(coords, delta)
        W = g.W
        assert W.has_sorted_indices and np.all(W.diagonal() == 0.0)
        assert np.all(W.data == 1.0) and (W != W.T).nnz == 0
        rows = np.repeat(np.arange(g.n_cells), np.diff(W.indptr))
        upper = rows < W.indices
        got = list(zip(rows[upper].tolist(), W.indices[upper].tolist()))
        assert got == want
        # The dense and list views stay equal to W.
        assert np.array_equal(g.adjacency, W.toarray())
        assert [x.tolist() for x in g.neighbor_lists] == [
            np.flatnonzero(row).tolist() for row in W.toarray()
        ]

    def test_requires_positive_delta(self):
        with pytest.raises(ValueError):
            build_neighborhood(grid_coords(2), 0.0)
