"""Command-line entry points.

Subcommands: preprocess, fit, select, eval, simulate, render.  Exit
codes: 0 success, 2 usage, 3 input problems (parse errors, invalid
data, missing files), 4 numeric failures.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, InputFormatError, NumericError
from .features import DEFAULT_COMPONENTS, FRONTENDS, CountMatrix, standardize_cells
from .fileio import (
    default_cell_ids,
    file_digest,
    read_coordinates_csv,
    read_labels_tsv,
    read_matrix_csv,
    read_similarity_binary,
    similarity_digest,
    write_coordinates_csv,
    write_edge_list,
    write_grid_csv,
    write_json,
    write_labels_tsv,
    write_manifest,
    write_matrix_csv,
    write_similarity_binary,
)
from .metrics import CONSTANT_ONE, ari, linear_decay, morans_i, nmi_ami_homogeneity, spari
from .render import render_domain_map
from .sampler import FitConfig, run_chain
from .selection import GridSpec, grid_search
from .similarity import build_neighborhood, cosine_similarity, fisher_z
from .summary import summarize_chain
from .synthetic import SyntheticSpec, generate_nonspatial_null, generate_spatial_sbm


def _parse_kv(pairs: list[str], value_type, what: str) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"expected NAME=VALUE for {what}, got {item!r}")
        key, value = item.split("=", 1)
        out[key] = value_type(value)
    return out


def _load_similarity(path: str) -> tuple[np.ndarray, str]:
    """The matrix at path and the digest of that file."""
    if path.endswith(".bin"):
        A = read_similarity_binary(path)
        return A, similarity_digest(A)
    return read_matrix_csv(path), file_digest(path)


def _csv_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _config_from_args(args, n_modalities: int, weights: tuple[float, ...]) -> FitConfig:
    return FitConfig(
        lam=args.lam,
        delta=args.delta,
        gamma=args.gamma,
        weights=weights,
        n_iterations=args.iterations,
        n_burnin=args.burnin,
        thin=args.thin,
        seed=args.seed,
        init_k=args.init_k,
    )


def _config_echo(config: FitConfig, modalities: list[str]) -> dict:
    return {
        "lambda": config.lam,
        "delta": config.delta,
        "gamma": config.gamma,
        "modalities": modalities,
        "weights": list(config.weights or ()),
        "n_iterations": config.n_iterations,
        "n_burnin": config.n_burnin,
        "thin": config.thin,
        "seed": config.seed,
        "init_k": config.init_k,
    }


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="spatial reward per same-labeled neighbor")
    p.add_argument("--delta", type=float, default=1.0,
                   help="neighborhood distance threshold")
    p.add_argument("--gamma", type=float, default=1.0,
                   help="Dirichlet concentration of the partition prior")
    p.add_argument("--weight", action="append", default=[], metavar="KIND=VALUE",
                   help="modality weight (repeatable; default 1 each)")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--burnin", type=int, default=500)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-k", dest="init_k", type=int, default=5)


def _gather_modalities(
    args,
) -> tuple[list[str], list[np.ndarray], tuple[float, ...], dict[str, str]]:
    """Modality kinds, their matrices, weights and file digests."""
    paths = _parse_kv(args.similarity, str, "--similarity")
    if not paths:
        raise ValueError("at least one --similarity KIND=PATH is required")
    kinds = sorted(paths)
    sims, digests = [], {}
    for k in kinds:
        A, digests[k] = _load_similarity(paths[k])
        sims.append(A)
    n = sims[0].shape[0]
    if any(A.shape[0] != n for A in sims):
        raise DataError("similarity matrices disagree on the number of cells")
    wmap = _parse_kv(args.weight, float, "--weight")
    unknown = set(wmap) - set(kinds)
    if unknown:
        raise ValueError(f"--weight given for unknown modalities: {sorted(unknown)}")
    weights = tuple(wmap.get(k, 1.0) for k in kinds)
    return kinds, sims, weights, digests


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_preprocess(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counts = _parse_kv(args.counts, str, "--counts")
    embeddings = _parse_kv(args.embedding, str, "--embedding")
    if not counts and not embeddings:
        raise ValueError("provide at least one --counts or --embedding input")
    ncomp = _parse_kv(args.n_components, int, "--n-components")
    digests: dict[str, str] = {}
    n_cells: int | None = None
    t0 = time.perf_counter()
    for kind in sorted(set(counts) | set(embeddings)):
        if kind in counts:
            if kind not in FRONTENDS:
                raise ValueError(f"unknown modality kind {kind!r} for --counts")
            raw = read_matrix_csv(counts[kind])
            digests[f"counts:{kind}"] = file_digest(counts[kind])
            k = ncomp.get(kind, DEFAULT_COMPONENTS[kind])
            emb = FRONTENDS[kind](CountMatrix(raw, kind), k)
        else:
            raw = read_matrix_csv(embeddings[kind])
            digests[f"embedding:{kind}"] = file_digest(embeddings[kind])
            emb = raw
        std = standardize_cells(emb)
        if n_cells is None:
            n_cells = std.n_cells
        elif std.n_cells != n_cells:
            raise DataError(
                f"modality {kind!r} has {std.n_cells} cells, expected {n_cells}"
            )
        A = fisher_z(cosine_similarity(std))
        write_matrix_csv(out / f"{kind}_embedding.csv", std.values)
        write_similarity_binary(out / f"{kind}_similarity.bin", A)
        # Free this modality's n x n matrix and counts before the next is read.
        del raw, emb, std, A
    if args.coords:
        _, coords = read_coordinates_csv(args.coords)
        digests["coords"] = file_digest(args.coords)
        if n_cells is not None and coords.shape[0] != n_cells:
            raise DataError("coordinate count does not match the modalities")
        graph = build_neighborhood(coords, args.delta)
        write_edge_list(out / "graph_edges.tsv", graph)
    write_manifest(
        out / "manifest.json",
        "preprocess",
        {"delta": args.delta, "n_components": ncomp},
        digests,
        timings={"wall_seconds": time.perf_counter() - t0},
        seed=None,
    )
    return 0


def cmd_fit(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kinds, sims, weights, digests = _gather_modalities(args)
    cell_ids, coords = read_coordinates_csv(args.coords)
    if coords.shape[0] != sims[0].shape[0]:
        raise DataError("coordinate count does not match the similarity matrices")
    graph = build_neighborhood(coords, args.delta)
    config = _config_from_args(args, len(kinds), weights)
    t0 = time.perf_counter()
    samples = run_chain(sims, graph, config, trace_file=args.trace)
    summary = summarize_chain(samples)
    wall = time.perf_counter() - t0
    write_labels_tsv(
        out / "labels.tsv", cell_ids, summary.labels, summary.uncertainty
    )
    if args.save_comembership:
        write_similarity_binary(out / "comembership.bin", summary.mean_comembership)
    echo = _config_echo(config, kinds)
    write_json(
        out / "summary.json",
        {
            "k_hat": summary.k_hat,
            "dahl_index": summary.dahl_index,
            "m_samples": summary.m_samples,
            "singleton_cells": summary.singleton_cells.tolist(),
            "config": echo,
        },
    )
    write_manifest(
        out / "manifest.json",
        "fit",
        echo,
        {**digests, "coords": file_digest(args.coords)},
        timings={"wall_seconds": wall},
        k_hat=summary.k_hat,
        seed=args.seed,
    )
    return 0


def cmd_select(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kinds, sims, weights, digests = _gather_modalities(args)
    cell_ids, coords = read_coordinates_csv(args.coords)
    if coords.shape[0] != sims[0].shape[0]:
        raise DataError("coordinate count does not match the similarity matrices")
    deltas = _csv_floats(args.delta_grid) if args.delta_grid else [args.delta]
    lams = _csv_floats(args.lambda_grid) if args.lambda_grid else None
    graphs = {d: build_neighborhood(coords, d) for d in deltas}
    if lams is not None:
        if 0.0 not in lams:
            print("warning: inserting the lambda = 0 baseline", file=sys.stderr)
            lams = [0.0] + lams
        grid = GridSpec.rectangular(lams, deltas)
    else:
        from .selection import build_grid

        grid = build_grid(args.k_estimate, graphs, n_lambda=args.n_lambda)
    config = _config_from_args(args, len(kinds), weights)
    t0 = time.perf_counter()
    search = grid_search(sims, graphs, grid, config, jobs=args.jobs)
    wall = time.perf_counter() - t0
    best = search.best
    write_grid_csv(out / "grid.csv", search.results, best, include_runtime=args.timings)
    write_labels_tsv(
        out / "labels.tsv", cell_ids, best.summary.labels, best.summary.uncertainty
    )
    echo = _config_echo(config, kinds)
    write_json(
        out / "summary.json",
        {
            "k_hat": best.k_hat,
            "dahl_index": best.summary.dahl_index,
            "m_samples": best.summary.m_samples,
            "selected": {"lambda": best.lam, "delta": best.delta},
            "mdic": best.mdic,
            "config": echo,
        },
    )
    if search.failures:
        for lam, delta, msg in search.failures:
            print(
                f"warning: configuration (lambda={lam}, delta={delta}) failed: {msg}",
                file=sys.stderr,
            )
    write_manifest(
        out / "manifest.json",
        "select",
        echo,
        {**digests, "coords": file_digest(args.coords)},
        timings={
            "wall_seconds": wall,
            "per_config_seconds": [r.runtime_seconds for r in search.results],
        },
        selected={"lambda": best.lam, "delta": best.delta},
        k_hat=best.k_hat,
        seed=args.seed,
    )
    return 0


def cmd_eval(args) -> int:
    _, truth, _ = read_labels_tsv(args.truth)
    _, pred, _ = read_labels_tsv(args.pred)
    if truth.size != pred.size:
        raise DataError("truth and prediction label files differ in length")
    nmi, ami, homogeneity = nmi_ami_homogeneity(truth, pred)
    payload = {
        "ari": ari(truth, pred),
        "ami": ami,
        "nmi": nmi,
        "homogeneity": homogeneity,
    }
    if not args.no_spatial:
        if not args.coords:
            raise ValueError("spatial metrics need --coords (or pass --no-spatial)")
        _, coords = read_coordinates_csv(args.coords)
        if coords.shape[0] != truth.size:
            raise DataError("coordinate count does not match the label files")
        graph = build_neighborhood(coords, args.delta)
        if args.spari_dmax is not None:
            wfn = linear_decay(args.spari_dmax)
        else:
            wfn = CONSTANT_ONE
        payload["morans_i"] = morans_i(pred, graph)
        payload["spari"] = spari(truth, pred, coords, wfn)
    write_json(args.out, payload)
    return 0


def cmd_simulate(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = SyntheticSpec(
        grid_side=args.grid_side,
        k_true=args.k_true,
        mu_within=args.mu_within,
        mu_between=args.mu_between,
        precision=args.precision,
        seed=args.seed,
        n_modalities=args.modalities,
    )
    generate = generate_nonspatial_null if args.null else generate_spatial_sbm
    sims, coords, truth = generate(spec)
    ids = default_cell_ids(spec.n_cells)
    write_coordinates_csv(out / "coords.csv", ids, coords)
    write_labels_tsv(out / "truth_labels.tsv", ids, truth)
    for m, A in enumerate(sims):
        write_similarity_binary(out / f"similarity_m{m}.bin", A)
    write_json(
        out / "generator.json",
        {
            "grid_side": spec.grid_side,
            "k_true": spec.k_true,
            "mu_within": spec.mu_within,
            "mu_between": spec.mu_between,
            "precision": spec.precision,
            "seed": spec.seed,
            "n_modalities": spec.n_modalities,
            "null": bool(args.null),
        },
    )
    return 0


def cmd_render(args) -> int:
    ids, labels, uncertainty = read_labels_tsv(args.labels)
    _, coords = read_coordinates_csv(args.coords)
    if coords.shape[0] != labels.size:
        raise DataError("coordinate count does not match the labels")
    svg = render_domain_map(coords, labels, uncertainty)
    Path(args.out).write_text(svg, encoding="utf-8")
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialsbm",
        description="Bayesian spatial-domain clustering over similarity matrices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="embed counts and build model inputs")
    p.add_argument("--counts", action="append", default=[], metavar="KIND=PATH",
                   help="count matrix CSV per modality (rna, atac, adt)")
    p.add_argument("--embedding", action="append", default=[], metavar="KIND=PATH",
                   help="precomputed embedding CSV (standardization only)")
    p.add_argument("--n-components", dest="n_components", action="append",
                   default=[], metavar="KIND=N")
    p.add_argument("--coords", default=None)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit", help="run one chain at fixed (lambda, delta)")
    p.add_argument("--similarity", action="append", default=[], metavar="KIND=PATH")
    p.add_argument("--coords", required=True)
    _add_chain_flags(p)
    p.add_argument("--trace", default=None, help="write a per-sweep trace file")
    p.add_argument("--save-comembership", action="store_true")
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", help="grid search over (lambda, delta)")
    p.add_argument("--similarity", action="append", default=[], metavar="KIND=PATH")
    p.add_argument("--coords", required=True)
    _add_chain_flags(p)
    p.add_argument("--lambda-grid", dest="lambda_grid", default=None,
                   help="comma-separated lambda values (0 inserted if missing)")
    p.add_argument("--delta-grid", dest="delta_grid", default=None,
                   help="comma-separated delta values")
    p.add_argument("--n-lambda", dest="n_lambda", type=int, default=5,
                   help="ladder size when no explicit --lambda-grid is given")
    p.add_argument("--k-estimate", dest="k_estimate", type=int, default=5,
                   help="domain-count estimate bounding the lambda ladder")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timings", action="store_true",
                   help="include per-configuration runtimes in grid.csv")
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("eval", help="score a prediction against annotations")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--coords", default=None)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--spari-dmax", dest="spari_dmax", type=float, default=None,
                   help="distance scale for the spatially weighted Rand index")
    p.add_argument("--no-spatial", dest="no_spatial", action="store_true")
    p.add_argument("--out", default="metrics.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="generate a synthetic benchmark")
    p.add_argument("--grid-side", dest="grid_side", type=int, default=12)
    p.add_argument("--k-true", dest="k_true", type=int, default=3)
    p.add_argument("--mu-within", dest="mu_within", type=float, default=0.8)
    p.add_argument("--mu-between", dest="mu_between", type=float, default=0.0)
    p.add_argument("--precision", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--modalities", type=int, default=1)
    p.add_argument("--null", action="store_true",
                   help="shuffle coordinates to break spatial signal")
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render", help="draw the domain map as SVG")
    p.add_argument("--labels", required=True)
    p.add_argument("--coords", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
