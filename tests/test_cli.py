import json
import tracemalloc

import numpy as np
import pytest

import spatialsbm as ss
from oracles import edge_pairs_loop
from spatialsbm.cli import main
from spatialsbm.fileio import (
    default_cell_ids,
    file_digest,
    read_json,
    read_labels_tsv,
    read_matrix_csv,
    read_similarity_binary,
    write_coordinates_csv,
    write_matrix_csv,
    write_similarity_binary,
)


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run_cli(
        "simulate", "--grid-side", 8, "--k-true", 2, "--mu-within", 0.8,
        "--precision", 4.0, "--seed", 3, "--out-dir", out,
    )
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        assert (sim_dir / "coords.csv").exists()
        assert (sim_dir / "truth_labels.tsv").exists()
        assert (sim_dir / "similarity_m0.bin").exists()
        settings = read_json(sim_dir / "generator.json")
        assert settings["k_true"] == 2

    def test_null_variant_shuffles_coords(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_cli("simulate", "--grid-side", 6, "--seed", 5, "--out-dir", a)
        run_cli("simulate", "--grid-side", 6, "--seed", 5, "--null", "--out-dir", b)
        ca = (a / "coords.csv").read_text()
        cb = (b / "coords.csv").read_text()
        assert ca != cb
        assert (a / "similarity_m0.bin").read_bytes() == (
            b / "similarity_m0.bin"
        ).read_bytes()


class TestPreprocess:
    def test_rna_default_width(self, tmp_path):
        rng = np.random.default_rng(0)
        counts = rng.poisson(5.0, size=(60, 55)).astype(float) + 1
        write_matrix_csv(tmp_path / "rna.csv", counts)
        code = run_cli(
            "preprocess", "--counts", f"rna={tmp_path/'rna.csv'}",
            "--out-dir", tmp_path,
        )
        assert code == 0
        emb = read_matrix_csv(tmp_path / "rna_embedding.csv")
        assert emb.shape == (60, 50)

    def test_adt_default_width(self, tmp_path):
        rng = np.random.default_rng(1)
        counts = rng.poisson(9.0, size=(40, 35)).astype(float) + 1
        write_matrix_csv(tmp_path / "adt.csv", counts)
        code = run_cli(
            "preprocess", "--counts", f"adt={tmp_path/'adt.csv'}",
            "--out-dir", tmp_path,
        )
        assert code == 0
        emb = read_matrix_csv(tmp_path / "adt_embedding.csv")
        assert emb.shape == (40, 30)

    def test_embedding_passthrough_standardizes_only(self, tmp_path):
        rng = np.random.default_rng(2)
        emb = rng.normal(3.0, 2.0, size=(15, 6))
        write_matrix_csv(tmp_path / "emb.csv", emb)
        code = run_cli(
            "preprocess", "--embedding", f"pca={tmp_path/'emb.csv'}",
            "--n-components", "pca=6", "--out-dir", tmp_path,
        )
        assert code == 0
        out = read_matrix_csv(tmp_path / "pca_embedding.csv")
        assert np.abs(out.mean(axis=1)).max() < 1e-9
        assert np.abs(out.std(axis=1, ddof=1) - 1).max() < 1e-9
        assert (tmp_path / "pca_similarity.bin").exists()

    def test_graph_edges_match_pair_loop_oracle(self, tmp_path):
        rng = np.random.default_rng(4)
        side = 7
        idx = np.arange(side * side)
        coords = np.column_stack([idx % side, idx // side]) + rng.uniform(
            -0.2, 0.2, size=(side * side, 2)
        )
        coords[10] = coords[3]
        coords[20], coords[21] = [50.0, 50.0], [51.25, 50.0]
        write_coordinates_csv(tmp_path / "coords.csv", default_cell_ids(len(coords)), coords)
        write_matrix_csv(tmp_path / "emb.csv", rng.normal(size=(len(coords), 5)))
        code = run_cli(
            "preprocess", "--embedding", f"pca={tmp_path/'emb.csv'}",
            "--coords", tmp_path / "coords.csv", "--delta", 1.25,
            "--out-dir", tmp_path,
        )
        assert code == 0
        lines = (tmp_path / "graph_edges.tsv").read_text().splitlines()
        assert lines[0] == "i\tj"
        got = [tuple(int(v) for v in line.split("\t")) for line in lines[1:]]
        want = edge_pairs_loop(coords, 1.25)
        assert (3, 10) in want and (20, 21) in want
        assert got == want

    def test_malformed_csv_exits_3(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("1.0,2.0\n3.0,zzz\n")
        code = run_cli(
            "preprocess", "--counts", f"rna={tmp_path/'bad.csv'}",
            "--out-dir", tmp_path,
        )
        assert code == 3

    def test_peak_memory_below_two_matrices(self, tmp_path):
        """Each modality's n x n matrix is transformed in place and freed
        before the next modality is read (numpy reports its allocations
        to tracemalloc)."""
        n = 1600
        rng = np.random.default_rng(7)
        write_matrix_csv(tmp_path / "rna.csv", rng.poisson(3.0, (n, 60)) + 1.0)
        write_matrix_csv(tmp_path / "adt.csv", rng.poisson(9.0, (n, 12)) + 1.0)
        tracemalloc.start()
        try:
            code = run_cli(
                "preprocess",
                "--counts", f"rna={tmp_path/'rna.csv'}",
                "--counts", f"adt={tmp_path/'adt.csv'}",
                "--n-components", "rna=10", "--n-components", "adt=5",
                "--out-dir", tmp_path / "pre",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2.0 * n * n * 8, peak / (n * n * 8)

    def test_modality_size_mismatch_exits_3(self, tmp_path):
        rng = np.random.default_rng(3)
        write_matrix_csv(tmp_path / "a.csv", rng.poisson(5, (20, 10)) + 1.0)
        write_matrix_csv(tmp_path / "b.csv", rng.poisson(5, (21, 10)) + 1.0)
        code = run_cli(
            "preprocess",
            "--counts", f"rna={tmp_path/'a.csv'}",
            "--counts", f"adt={tmp_path/'b.csv'}",
            "--n-components", "rna=5", "--n-components", "adt=5",
            "--out-dir", tmp_path,
        )
        assert code == 3


class TestFit:
    def test_fit_and_determinism(self, sim_dir, tmp_path):
        out1 = tmp_path / "fit1"
        out2 = tmp_path / "fit2"
        for out in (out1, out2):
            code = run_cli(
                "fit",
                "--similarity", f"m0={sim_dir/'similarity_m0.bin'}",
                "--coords", sim_dir / "coords.csv",
                "--delta", 1.0, "--lambda", 0.5,
                "--iterations", 80, "--burnin", 40, "--seed", 7,
                "--out-dir", out,
            )
            assert code == 0
        assert (out1 / "labels.tsv").read_bytes() == (out2 / "labels.tsv").read_bytes()
        summary = read_json(out1 / "summary.json")
        assert summary["m_samples"] == 40
        assert summary["config"]["weights"] == [1.0]
        manifest = read_json(out1 / "manifest.json")
        assert manifest["command"] == "fit"
        assert set(manifest["inputs"]) == {"m0", "coords"}

    def test_manifest_digests_caches_without_reading_them_again(
        self, sim_dir, tmp_path, monkeypatch
    ):
        import spatialsbm.cli as cli_mod

        hashed = []

        def recording_digest(path):
            hashed.append(str(path))
            return file_digest(path)

        monkeypatch.setattr(cli_mod, "file_digest", recording_digest)
        cache = sim_dir / "similarity_m0.bin"
        code = run_cli(
            "fit",
            "--similarity", f"m0={cache}",
            "--coords", sim_dir / "coords.csv",
            "--iterations", 10, "--burnin", 5, "--out-dir", tmp_path,
        )
        assert code == 0
        assert hashed == [str(sim_dir / "coords.csv")]
        inputs = read_json(tmp_path / "manifest.json")["inputs"]
        assert inputs == {
            "m0": file_digest(cache),
            "coords": file_digest(sim_dir / "coords.csv"),
        }

    def test_weight_flags(self, sim_dir, tmp_path):
        code = run_cli(
            "fit",
            "--similarity", f"m0={sim_dir/'similarity_m0.bin'}",
            "--similarity", f"m1={sim_dir/'similarity_m0.bin'}",
            "--coords", sim_dir / "coords.csv",
            "--weight", "m0=1.5", "--weight", "m1=1",
            "--iterations", 20, "--burnin", 10, "--out-dir", tmp_path,
        )
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["config"]["weights"] == [1.5, 1.0]

    def test_unknown_weight_modality_exits_2(self, sim_dir, tmp_path):
        code = run_cli(
            "fit",
            "--similarity", f"m0={sim_dir/'similarity_m0.bin'}",
            "--coords", sim_dir / "coords.csv",
            "--weight", "typo=2",
            "--iterations", 20, "--burnin", 10, "--out-dir", tmp_path,
        )
        assert code == 2

    def test_missing_file_exits_3(self, sim_dir, tmp_path):
        code = run_cli(
            "fit",
            "--similarity", "m0=/nonexistent/path.bin",
            "--coords", sim_dir / "coords.csv",
            "--out-dir", tmp_path,
        )
        assert code == 3

    def test_asymmetric_similarity_exits_3(self, sim_dir, tmp_path, capsys):
        A = read_similarity_binary(sim_dir / "similarity_m0.bin")
        A[-2, -1] += 0.01
        write_similarity_binary(tmp_path / "asym.bin", A)
        code = run_cli(
            "fit",
            "--similarity", f"m0={tmp_path/'asym.bin'}",
            "--coords", sim_dir / "coords.csv",
            "--iterations", 10, "--burnin", 5,
            "--out-dir", tmp_path / "fit",
        )
        assert code == 3
        assert "not symmetric" in capsys.readouterr().err

    def test_numeric_failure_exits_4(self, sim_dir, tmp_path, monkeypatch):
        import spatialsbm.cli as cli_mod
        from spatialsbm.errors import NumericError

        def boom(*args, **kwargs):
            raise NumericError("synthetic numeric failure")

        monkeypatch.setattr(cli_mod, "run_chain", boom)
        code = run_cli(
            "fit",
            "--similarity", f"m0={sim_dir/'similarity_m0.bin'}",
            "--coords", sim_dir / "coords.csv",
            "--iterations", 10, "--burnin", 5,
            "--out-dir", tmp_path,
        )
        assert code == 4


class TestSelect:
    def test_grid_rows_and_best_flag(self, sim_dir, tmp_path):
        code = run_cli(
            "select",
            "--similarity", f"m0={sim_dir/'similarity_m0.bin'}",
            "--coords", sim_dir / "coords.csv",
            "--lambda-grid", "0,0.5,1", "--delta-grid", "1.0,1.5",
            "--iterations", 30, "--burnin", 15, "--seed", 5,
            "--out-dir", tmp_path,
        )
        assert code == 0
        lines = (tmp_path / "grid.csv").read_text().strip().split("\n")
        assert len(lines) == 7  # header + 3 lambdas x 2 deltas
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        best_rows = [r for r in rows if r["best"] == "1"]
        assert len(best_rows) == 1
        mdics = [float(r["mdic"]) for r in rows]
        assert float(best_rows[0]["mdic"]) == min(mdics)
        summary = read_json(tmp_path / "summary.json")
        assert summary["selected"]["lambda"] == float(best_rows[0]["lambda"])

    def test_missing_zero_inserted_with_warning(self, sim_dir, tmp_path, capsys):
        code = run_cli(
            "select",
            "--similarity", f"m0={sim_dir/'similarity_m0.bin'}",
            "--coords", sim_dir / "coords.csv",
            "--lambda-grid", "0.5", "--delta-grid", "1.0",
            "--iterations", 20, "--burnin", 10,
            "--out-dir", tmp_path,
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "lambda = 0" in err
        lines = (tmp_path / "grid.csv").read_text().strip().split("\n")
        assert len(lines) == 3

    def test_deterministic_grid_csv(self, sim_dir, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            code = run_cli(
                "select",
                "--similarity", f"m0={sim_dir/'similarity_m0.bin'}",
                "--coords", sim_dir / "coords.csv",
                "--lambda-grid", "0,0.5", "--delta-grid", "1.0",
                "--iterations", 20, "--burnin", 10, "--seed", 11,
                "--out-dir", out,
            )
            assert code == 0
            outs.append((out / "grid.csv").read_bytes())
        assert outs[0] == outs[1]


class TestEval:
    def test_perfect_prediction(self, sim_dir, tmp_path):
        out = tmp_path / "metrics.json"
        code = run_cli(
            "eval",
            "--truth", sim_dir / "truth_labels.tsv",
            "--pred", sim_dir / "truth_labels.tsv",
            "--coords", sim_dir / "coords.csv",
            "--delta", 1.0, "--out", out,
        )
        assert code == 0
        metrics = read_json(out)
        assert set(metrics) == {"ari", "ami", "nmi", "homogeneity", "morans_i", "spari"}
        for key in ("ari", "ami", "nmi", "homogeneity", "spari"):
            assert metrics[key] == pytest.approx(1.0)

    def test_matches_library_calls(self, sim_dir, tmp_path):
        _, truth, _ = read_labels_tsv(sim_dir / "truth_labels.tsv")
        rng = np.random.default_rng(0)
        pred = truth.copy()
        flip = rng.choice(truth.size, size=10, replace=False)
        pred[flip] = rng.integers(1, 3, size=10)
        from spatialsbm.fileio import write_labels_tsv

        write_labels_tsv(tmp_path / "pred.tsv", [str(i) for i in range(truth.size)], pred)
        out = tmp_path / "metrics.json"
        code = run_cli(
            "eval",
            "--truth", sim_dir / "truth_labels.tsv",
            "--pred", tmp_path / "pred.tsv",
            "--coords", sim_dir / "coords.csv",
            "--delta", 1.0, "--out", out,
        )
        assert code == 0
        metrics = read_json(out)
        assert metrics["ari"] == ss.ari(truth, pred)
        nmi, ami, homog = ss.nmi_ami_homogeneity(truth, pred)
        assert metrics["nmi"] == nmi
        assert metrics["ami"] == ami
        assert metrics["homogeneity"] == homog

    def test_spatial_metrics_need_coords(self, sim_dir, tmp_path):
        code = run_cli(
            "eval",
            "--truth", sim_dir / "truth_labels.tsv",
            "--pred", sim_dir / "truth_labels.tsv",
            "--out", tmp_path / "m.json",
        )
        assert code == 2

    def test_no_spatial_flag(self, sim_dir, tmp_path):
        out = tmp_path / "m.json"
        code = run_cli(
            "eval",
            "--truth", sim_dir / "truth_labels.tsv",
            "--pred", sim_dir / "truth_labels.tsv",
            "--no-spatial", "--out", out,
        )
        assert code == 0
        assert "morans_i" not in read_json(out)


class TestRender:
    def test_svg_output_and_determinism(self, sim_dir, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for out in (a, b):
            code = run_cli(
                "render",
                "--labels", sim_dir / "truth_labels.tsv",
                "--coords", sim_dir / "coords.csv",
                "--out", out,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().count("<circle") == 64

    def test_uncertainty_panel_iff_column_present(self, sim_dir, tmp_path):
        fit_dir = tmp_path / "fit"
        run_cli(
            "fit",
            "--similarity", f"m0={sim_dir/'similarity_m0.bin'}",
            "--coords", sim_dir / "coords.csv",
            "--iterations", 20, "--burnin", 10,
            "--out-dir", fit_dir,
        )
        with_unc = tmp_path / "with.svg"
        run_cli(
            "render", "--labels", fit_dir / "labels.tsv",
            "--coords", sim_dir / "coords.csv", "--out", with_unc,
        )
        assert with_unc.read_text().count("<circle") == 128

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", "--bogus-flag")
        assert exc.value.code == 2
