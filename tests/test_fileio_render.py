import hashlib
import struct

import numpy as np
import pytest
from oracles import read_matrix_csv_per_token, write_matrix_csv_per_value

from spatialsbm.errors import InputFormatError
from spatialsbm.fileio import (
    SIMILARITY_MAGIC,
    default_cell_ids,
    file_digest,
    read_coordinates_csv,
    read_json,
    read_labels_tsv,
    read_matrix_csv,
    read_similarity_binary,
    similarity_digest,
    write_coordinates_csv,
    write_grid_csv,
    write_json,
    write_labels_tsv,
    write_matrix_csv,
    write_similarity_binary,
)
from spatialsbm.render import render_domain_map
from spatialsbm.selection import GridResult


class TestMatrixCsv:
    def test_roundtrip_without_header(self, tmp_path):
        X = np.array([[1.5, -2.25, 3e-8], [0.1, 7.0, 1e12]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, X)
        assert np.array_equal(read_matrix_csv(path), X)

    def test_roundtrip_with_header(self, tmp_path):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, X, header=["a", "b"])
        assert np.array_equal(read_matrix_csv(path), X)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(InputFormatError, match="line 2"):
            read_matrix_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InputFormatError, match="line 2"):
            read_matrix_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(InputFormatError):
            read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a,b\n1,2\n3,4\n", [[1, 2], [3, 4]]),
            ("1,2\n\n   \n\t\n3,4\n\n", [[1, 2], [3, 4]]),
            ("a,b\r\n1,2\r\n\r\n3,4\r\n", [[1, 2], [3, 4]]),
            ('"x","y"\n"1","2.5"\n"-3",4\n', [[1, 2.5], [-3, 4]]),
            (" 1 , 2\n3 ,\t4 \n", [[1, 2], [3, 4]]),
            ("gene\n1\n-0.5\n7\n", [[1], [-0.5], [7]]),
        ],
        ids=["header", "blank-lines", "crlf", "quoted", "spaces", "one-column"],
    )
    def test_layouts_match_per_token_oracle(self, tmp_path, text, expected):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        got = read_matrix_csv(path)
        assert np.array_equal(got, np.array(expected, dtype=float))
        assert np.array_equal(got, read_matrix_csv_per_token(path))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1,2\n\n   \n3,oops\n", "line 4"),
            ("a,b\n1,2\n\n \n3\n", "line 5"),
            ("a,b\r\n\r\n1,2\r\n3,4,5\r\n", "line 4"),
            ("1,2\n\n3,\n", "line 3"),
            ("1,2\n3,4 # note\n", "line 2"),
        ],
        ids=["bad-token", "ragged-short", "ragged-long-crlf", "empty-field", "hash"],
    )
    def test_bad_line_after_skipped_lines_names_physical_line(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(InputFormatError, match=rf"{line}\b"):
            read_matrix_csv(path)

    def test_header_only_has_no_data_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(InputFormatError, match="no data rows"):
            read_matrix_csv(path)

    def test_underscore_grouping_rejected(self, tmp_path):
        # float() accepts "1_000"; the numpy parser does not.
        path = tmp_path / "grouped.csv"
        path.write_text("1,2\n1_000,3\n")
        with pytest.raises(InputFormatError, match=r"line 2: .*'1_000'"):
            read_matrix_csv(path)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[-0.0, 5e-324, 1e16], [0.1, np.nan, -np.inf], [1.0 / 3, -1e-300, 2.0**60]]),
            np.array([[0.1, -2.5e-7, 3.0]], dtype=np.float32),
            np.array([[1, -2, 3], [4, 5, 2**40]], dtype=np.int64),
            np.zeros((0, 3)),
        ],
        ids=["special-values", "float32", "int64", "no-rows"],
    )
    @pytest.mark.parametrize("header", [None, ["a", "b,c", 'd"e']], ids=["bare", "header"])
    def test_writer_bytes_match_per_value_oracle(self, tmp_path, matrix, header):
        write_matrix_csv(tmp_path / "new.csv", matrix, header=header)
        write_matrix_csv_per_value(tmp_path / "old.csv", matrix, header=header)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestCoordinatesCsv:
    def test_roundtrip(self, tmp_path):
        ids = ["a", "b", "c"]
        coords = np.array([[0.0, 1.5], [2.0, -1.0], [3.25, 4.0]])
        path = tmp_path / "coords.csv"
        write_coordinates_csv(path, ids, coords)
        rids, rcoords = read_coordinates_csv(path)
        assert rids == ids
        assert np.array_equal(rcoords, coords)

    def test_headerless_accepted(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_text("c1,0.5,1.5\nc2,2.0,3.0\n")
        ids, coords = read_coordinates_csv(path)
        assert ids == ["c1", "c2"]
        assert coords.shape == (2, 2)

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_text("c1,0.5\n")
        with pytest.raises(InputFormatError, match="3 columns"):
            read_coordinates_csv(path)


class TestLabelsTsv:
    def test_roundtrip_with_uncertainty(self, tmp_path):
        ids = default_cell_ids(3)
        labels = np.array([1, 2, 1])
        unc = np.array([0.0, 0.25, 1.0])
        path = tmp_path / "labels.tsv"
        write_labels_tsv(path, ids, labels, unc)
        rids, rlabels, runc = read_labels_tsv(path)
        assert rids == ids
        assert np.array_equal(rlabels, labels)
        assert np.array_equal(runc, unc)

    def test_roundtrip_without_uncertainty(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_labels_tsv(path, ["x", "y"], np.array([3, 4]))
        _, labels, unc = read_labels_tsv(path)
        assert labels.tolist() == [3, 4]
        assert unc is None

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("cell_id\tdomain\nx\t1\ny\tnot_a_domain\n")
        with pytest.raises(InputFormatError, match="line 3"):
            read_labels_tsv(path)


class TestSimilarityBinary:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(7, 7))
        A = (A + A.T) / 2
        path = tmp_path / "a.bin"
        write_similarity_binary(path, A)
        B = read_similarity_binary(path)
        assert np.array_equal(A, B)
        assert path.stat().st_size == 16 + 8 * 49

    @pytest.mark.parametrize(
        "A",
        [
            np.asfortranarray(np.arange(25.0).reshape(5, 5) / 7),
            (np.arange(16.0).reshape(4, 4) - 7.5).astype(">f8"),
            (np.arange(9.0).reshape(3, 3) / 3).astype(np.float32),
        ],
        ids=["fortran-order", "big-endian", "float32"],
    )
    def test_layout_is_little_endian_row_major(self, tmp_path, A):
        path = tmp_path / "a.bin"
        write_similarity_binary(path, A)
        expected = (
            SIMILARITY_MAGIC
            + struct.pack("<Q", len(A))
            + np.ascontiguousarray(A, dtype="<f8").tobytes()
        )
        assert path.read_bytes() == expected
        assert np.array_equal(read_similarity_binary(path), A)

    @pytest.mark.parametrize(
        "A",
        [
            np.arange(36.0).reshape(6, 6) / 11,
            np.asfortranarray(np.arange(25.0).reshape(5, 5) / 7),
            (np.arange(16.0).reshape(4, 4) - 7.5).astype(">f8"),
        ],
        ids=["c-order", "fortran-order", "big-endian"],
    )
    def test_in_memory_digest_equals_file_digest(self, tmp_path, A):
        path = tmp_path / "a.bin"
        write_similarity_binary(path, A)
        assert similarity_digest(read_similarity_binary(path)) == file_digest(path)
        assert similarity_digest(A) == file_digest(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(InputFormatError, match="magic"):
            read_similarity_binary(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        write_similarity_binary(path, np.eye(3))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InputFormatError):
            read_similarity_binary(path)


class TestJsonAndGrid:
    def test_json_roundtrip(self, tmp_path):
        payload = {"k_hat": 3, "values": [1.5, 2.0], "nested": {"a": True}}
        path = tmp_path / "s.json"
        write_json(path, payload)
        assert read_json(path) == payload

    def test_grid_csv_columns_and_best_flag(self, tmp_path):
        results = [
            GridResult(lam=0.0, delta=1.0, mdic=10.0, mean_deviance=9.0,
                       p_d=0.5, k_hat=3, negative_pd=False, runtime_seconds=1.0),
            GridResult(lam=0.5, delta=1.0, mdic=8.0, mean_deviance=7.5,
                       p_d=0.25, k_hat=3, negative_pd=False, runtime_seconds=2.0),
        ]
        path = tmp_path / "grid.csv"
        write_grid_csv(path, results, best=results[1])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "lambda,delta,mdic,mean_deviance,p_d,k_hat,best"
        assert lines[1].endswith(",0")
        assert lines[2].endswith(",1")
        write_grid_csv(path, results, best=results[1], include_runtime=True)
        assert "runtime_seconds" in path.read_text().splitlines()[0]

    def test_file_digest_stable(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("hello")
        assert file_digest(path) == file_digest(path)

    @pytest.mark.parametrize("size", [0, 7 * 2**19 + 3], ids=["empty", "3.5MiB"])
    def test_file_digest_is_sha256_of_contents(self, tmp_path, size):
        path = tmp_path / "f.bin"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


class TestRender:
    def test_four_cells_four_circles(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        svg = render_domain_map(coords, np.array([1, 1, 2, 2]))
        assert svg.count("<circle") == 4
        assert svg.startswith("<svg")

    def test_uncertainty_panel_doubles_circles(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        svg = render_domain_map(
            coords, np.array([1, 1, 2, 2]), np.array([0.0, 0.5, 0.1, 1.0])
        )
        assert svg.count("<circle") == 8
        assert "uncertainty" in svg

    def test_byte_identical_for_identical_inputs(self):
        rng = np.random.default_rng(1)
        coords = rng.uniform(0, 10, size=(20, 2))
        labels = rng.integers(1, 5, size=20)
        unc = rng.uniform(0, 1, size=20)
        a = render_domain_map(coords, labels, unc)
        b = render_domain_map(coords, labels, unc)
        assert a == b

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            render_domain_map(np.zeros((3, 2)), np.array([1, 2]))
