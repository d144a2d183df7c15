"""Run one benchmark workload in a fresh process: set-up, timed rounds,
correctness checks, then one JSON line on standard output.

Started by ``run.py`` with BLAS threads pinned to 1 and the generated
inputs already on disk; the program is imported from ``src`` of the
checkout.  Each round repeats the same operations with the same seeds,
so rounds differ only by timing noise.  Checks run after each round,
outside the timed calls; a failed check fails its operation.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import spatialsbm  # noqa: E402
from spatialsbm import cli, fileio, sampler, selection, similarity, summary  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402

perf = time.perf_counter
SETUP_REPEATS = 5

# fit_bands: one long chain at fixed (lam, delta), then the Dahl summary.
FIT_LAMBDA = 0.3
FIT_DELTA = 1.5
FIT_ITERATIONS = 240
FIT_BURNIN = 120
# Collapse probe: lam = 0 on fixed low-precision inputs; fragments to
# all-singleton partitions on the first full-kernel sweep.
PROBE_ITERATIONS = 6
PROBE_BURNIN = 3
PROBE_SEED = 1

# select_scattered: build_grid (5 lam x 2 delta) + grid_search per dataset.
SELECT_DELTAS = (1.0, 1.5)
SELECT_K_ESTIMATE = 4
SELECT_N_LAMBDA = 5
SELECT_ITERATIONS = 40
SELECT_BURNIN = 20
SELECT_JOBS = min(2, os.cpu_count() or 1)

# atlas_pipeline: preprocess -> short fit -> eval through the CLI.
ATLAS_DELTA = 1.5
ATLAS_LAMBDA = 0.2
ATLAS_ITERATIONS = 6
ATLAS_BURNIN = 4
ATLAS_INIT_K = 2
ATLAS_SPARI_DMAX = 10.0
SIMILARITY_SAMPLE = 4000


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""
    known_fault: bool = False


@dataclass
class RoundResult:
    wall_s: float
    chain_s: float
    label_updates: int
    aris: list[float]
    ops: list[Op] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


def check(ops: list[Op], name: str, cond: bool, detail: str) -> None:
    """Record a failed check on the operation ``name``."""
    if not cond:
        for op in ops:
            if op.name == name and op.ok:
                op.ok = False
                op.detail = detail
        print(f"check failed [{name}]: {detail}", file=sys.stderr)


class GraphCheck:
    """Brute-force edge sets from the generator's own coordinates, computed
    once per (dataset, delta)."""

    def __init__(self, coords: dict[str, np.ndarray]):
        self.coords = coords
        self.cache: dict[tuple[str, float], np.ndarray] = {}

    def pairs(self, key: str, delta: float) -> np.ndarray:
        if (key, delta) not in self.cache:
            self.cache[key, delta] = oracle.edge_pairs(self.coords[key], delta)
        return self.cache[key, delta]

    def graph_ok(self, key: str, graph, delta: float) -> tuple[bool, str]:
        want = self.pairs(key, delta)
        got = int(sum(len(x) for x in graph.neighbor_lists))
        i, j = np.nonzero(np.triu(graph.adjacency, k=1))
        same = got == 2 * len(want) and np.array_equal(np.column_stack([i, j]), want)
        return same, f"graph delta={delta}: {got // 2} edges, brute force {len(want)}"


# ----- fit_bands --------------------------------------------------------------


class FitBands:
    def __init__(self, d: Path, seed: int, tracer=None):
        self.d, self.seed, self.tracer = d, seed, tracer
        self.truth = np.load(d / "truth.npy")
        self.probe_truth = np.load(d / "probe" / "truth.npy")
        self.graphs = GraphCheck({"main": np.load(d / "coords.npy")})

    def setup(self) -> dict:
        s = {}
        for key, d in (("main", self.d), ("probe", self.d / "probe")):
            sims = [fileio.read_similarity_binary(d / "similarity_m0.bin")]
            _, coords = fileio.read_coordinates_csv(d / "coords.csv")
            s[key] = (sims, similarity.build_neighborhood(coords, FIT_DELTA))
        return s

    def round(self, s: dict) -> RoundResult:
        sims, graph = s["main"]
        cfg = sampler.FitConfig(lam=FIT_LAMBDA, delta=FIT_DELTA, n_iterations=FIT_ITERATIONS,
                                n_burnin=FIT_BURNIN, seed=self.seed)
        t0 = perf()
        samples = sampler.run_chain(sims, graph, cfg)
        t1 = perf()
        summ = summary.summarize_chain(samples)
        t2 = perf()
        psims, pgraph = s["probe"]
        pcfg = sampler.FitConfig(lam=0.0, delta=FIT_DELTA, n_iterations=PROBE_ITERATIONS,
                                 n_burnin=PROBE_BURNIN, seed=PROBE_SEED)
        psumm = summary.summarize_chain(sampler.run_chain(psims, pgraph, pcfg))
        n = graph.n_cells
        return RoundResult(
            wall_s=t2 - t0, chain_s=t1 - t0, label_updates=n * FIT_ITERATIONS,
            aris=[oracle.ari(self.truth, summ.labels)],
            ops=[Op("fit", True), Op("collapse_probe", True, known_fault=True)],
            outputs={"samples": samples, "summary": summ, "probe": psumm},
        )

    def checks(self, s: dict, r: RoundResult) -> None:
        sims, graph = s["main"]
        samples, summ = r.outputs["samples"], r.outputs["summary"]
        ok, detail = self.graphs.graph_ok("main", graph, FIT_DELTA)
        check(r.ops, "fit", ok, detail)
        check_summary(r.ops, "fit", summ)
        check(r.ops, "fit", np.array_equal(summ.labels, samples[summ.dahl_index].labels),
              "point estimate is not the selected sample")
        dist = oracle.dahl_distances([x.labels for x in samples])
        check(r.ops, "fit", dist[summ.dahl_index] == dist.min(),
              f"sample {summ.dahl_index} is not closest to the mean co-membership")
        last = samples[-1]
        ref = oracle.direct_deviance(sims, (1.0,), last.labels, last.params)
        check(r.ops, "fit", abs(last.deviance - ref) <= 1e-9 * abs(ref),
              f"final deviance {last.deviance!r} != direct sum {ref!r}")
        probe = r.outputs["probe"]
        n_probe = self.probe_truth.size
        check(r.ops, "collapse_probe", probe.k_hat <= 2 * int(self.probe_truth.max()),
              f"lam=0 chain fragmented: {probe.k_hat} domains for {n_probe} cells")


def check_summary(ops: list[Op], name: str, summ) -> None:
    labels = np.asarray(summ.labels)
    check(ops, name, oracle.contiguous_labels(labels) and summ.k_hat == labels.max(),
          "point-estimate labels are not 1..k_hat")
    check(ops, name, oracle.in_unit_interval(summ.uncertainty),
          "uncertainty score outside [0, 1]")


# ----- select_scattered -------------------------------------------------------


class SelectScattered:
    DATASETS = ("bands", "scattered")

    def __init__(self, d: Path, seed: int, tracer=None):
        self.d, self.seed, self.tracer = d, seed, tracer
        self.truth = np.load(d / "bands" / "truth.npy")
        self.graphs = GraphCheck({n: np.load(d / n / "coords.npy") for n in self.DATASETS})
        self.null_lambda: list[float] = []

    def setup(self) -> dict:
        s = {}
        for name in self.DATASETS:
            d = self.d / name
            sims = [fileio.read_similarity_binary(d / f"similarity_m{m}.bin") for m in range(2)]
            _, coords = fileio.read_coordinates_csv(d / "coords.csv")
            graphs = {delta: similarity.build_neighborhood(coords, delta) for delta in SELECT_DELTAS}
            s[name] = (sims, graphs)
        return s

    def round(self, s: dict) -> RoundResult:
        base = sampler.FitConfig(n_iterations=SELECT_ITERATIONS, n_burnin=SELECT_BURNIN,
                                 seed=self.seed)
        wall = chain = 0.0
        updates = 0
        searches = {}
        payload = 0
        for name in self.DATASETS:
            sims, graphs = s[name]
            t0 = perf()
            grid = selection.build_grid(SELECT_K_ESTIMATE, graphs, n_lambda=SELECT_N_LAMBDA)
            t1 = perf()
            search = selection.grid_search(sims, graphs, grid, base, jobs=SELECT_JOBS)
            t2 = perf()
            wall += t2 - t0
            chain += t2 - t1
            updates += graphs[SELECT_DELTAS[0]].n_cells * SELECT_ITERATIONS * len(grid)
            searches[name] = (grid, search)
            if self.tracer is not None and self.tracer.active and SELECT_JOBS > 1:
                payload += sum(
                    len(pickle.dumps((sims, graphs[d], sampler.config_for_grid_point(base, lam, d)),
                                     protocol=pickle.HIGHEST_PROTOCOL))
                    for lam, d in grid.points()
                )
        if payload:
            self.tracer.counts["selection.payload_bytes"] += payload
        return RoundResult(
            wall_s=wall, chain_s=chain, label_updates=updates,
            aris=[oracle.ari(self.truth, searches[n][1].best.summary.labels)
                  for n in self.DATASETS],
            ops=[Op(n, True) for n in self.DATASETS],
            outputs=searches,
        )

    def checks(self, s: dict, r: RoundResult) -> None:
        for name in self.DATASETS:
            _, graphs = s[name]
            grid, search = r.outputs[name]
            for delta, graph in graphs.items():
                check(r.ops, name, *self.graphs.graph_ok(name, graph, delta))
            n = graphs[SELECT_DELTAS[0]].n_cells
            check(r.ops, name, not search.failures, f"failed grid points: {search.failures}")
            check(r.ops, name, len(search.results) == len(grid),
                  f"{len(search.results)} results for {len(grid)} grid points")
            log_pairs = np.log(n * (n + 1) / 2.0)
            for res in search.results:
                want = res.mean_deviance + log_pairs * res.p_d
                check(r.ops, name, abs(res.mdic - want) <= 1e-9 * max(1.0, abs(want)),
                      f"mdic identity broken at lam={res.lam}, delta={res.delta}")
                check_summary(r.ops, name, res.summary)
                check(r.ops, name, res.k_hat == res.summary.k_hat, "k_hat disagrees with summary")
            best = min(search.results, key=lambda x: (x.mdic, x.lam, x.delta))
            check(r.ops, name, search.best is best, "best is not the smallest mdic")
        self.null_lambda.append(r.outputs["scattered"][1].best.lam)


# ----- atlas_pipeline -----------------------------------------------------------


class AtlasPipeline:
    def __init__(self, d: Path, seed: int, tracer=None):
        self.d, self.seed, self.tracer = d, seed, tracer
        self.truth = np.load(d / "truth.npy")
        self.graphs = GraphCheck({"atlas": np.load(d / "coords.npy")})

    def setup(self) -> dict:
        _, coords = fileio.read_coordinates_csv(self.d / "coords.csv")
        _, truth, _ = fileio.read_labels_tsv(self.d / "truth_labels.tsv")
        graph = similarity.build_neighborhood(coords, ATLAS_DELTA)
        return {"graph": graph, "truth": truth}

    def _cli(self, span: str, argv: list[str]) -> int:
        if self.tracer is None or not self.tracer.active:
            return cli.main(argv)
        frame = self.tracer.begin(span)
        try:
            return cli.main(argv)
        finally:
            self.tracer.end(frame)

    def round(self, s: dict) -> RoundResult:
        d = self.d
        pre, fit = d / "pre", d / "fit"
        sims = [f"--similarity={k}={pre}/{k}_similarity.bin" for k in ("adt", "rna")]
        t0 = perf()
        rc_pre = self._cli("cli.preprocess", [
            "preprocess", f"--counts=rna={d}/rna_counts.csv", f"--counts=adt={d}/adt_counts.csv",
            f"--coords={d}/coords.csv", f"--delta={ATLAS_DELTA}", f"--out-dir={pre}"])
        t1 = perf()
        rc_fit = self._cli("cli.fit", [
            "fit", *sims, f"--coords={d}/coords.csv", f"--delta={ATLAS_DELTA}",
            f"--lambda={ATLAS_LAMBDA}", f"--iterations={ATLAS_ITERATIONS}",
            f"--burnin={ATLAS_BURNIN}", f"--init-k={ATLAS_INIT_K}", f"--seed={self.seed}",
            f"--out-dir={fit}"])
        t2 = perf()
        rc_eval = self._cli("cli.eval", [
            "eval", f"--truth={d}/truth_labels.tsv", f"--pred={fit}/labels.tsv",
            f"--coords={d}/coords.csv", f"--delta={ATLAS_DELTA}",
            f"--spari-dmax={ATLAS_SPARI_DMAX}", f"--out={d}/metrics.json"])
        t3 = perf()
        labels, _ = oracle.read_labels(fit / "labels.tsv") if rc_fit == 0 else (None, None)
        n = self.truth.size
        return RoundResult(
            wall_s=t3 - t0, chain_s=t2 - t1, label_updates=n * ATLAS_ITERATIONS,
            aris=[oracle.ari(self.truth, labels)] if labels is not None else [],
            ops=[Op("preprocess", rc_pre == 0, f"exit {rc_pre}"),
                 Op("fit", rc_fit == 0, f"exit {rc_fit}"),
                 Op("eval", rc_eval == 0, f"exit {rc_eval}")],
        )

    def checks(self, s: dict, r: RoundResult) -> None:
        d = self.d
        pre = d / "pre"
        check(r.ops, "preprocess", np.array_equal(s["truth"], self.truth),
              "truth labels read back differently")
        ok, detail = self.graphs.graph_ok("atlas", s["graph"], ATLAS_DELTA)
        check(r.ops, "preprocess", ok, detail)
        if r.ops[0].ok:
            self._check_preprocess(r, pre)
        if r.ops[1].ok:
            labels, unc = oracle.read_labels(d / "fit" / "labels.tsv")
            k_hat = json.loads((d / "fit" / "summary.json").read_text())["k_hat"]
            check(r.ops, "fit", oracle.contiguous_labels(labels) and labels.max() == k_hat,
                  "fit labels are not 1..k_hat")
            check(r.ops, "fit", unc is not None and oracle.in_unit_interval(unc),
                  "uncertainty score outside [0, 1]")
        if r.ops[2].ok:
            m = json.loads((d / "metrics.json").read_text())
            check(r.ops, "eval", abs(m["ari"] - r.aris[0]) <= 1e-12,
                  f"eval ari {m['ari']!r} != pair-count ari {r.aris[0]!r}")
            for key in ("nmi", "homogeneity"):
                check(r.ops, "eval", oracle.in_unit_interval(m[key]),
                      f"{key} = {m[key]!r} outside [0, 1]")
            check(r.ops, "eval", all(np.isfinite(m[k]) for k in ("spari", "morans_i", "ami")),
                  "non-finite spatial metric")

    def _check_preprocess(self, r: RoundResult, pre: Path) -> None:
        want = self.graphs.pairs("atlas", ATLAS_DELTA)
        got = np.loadtxt(pre / "graph_edges.tsv", skiprows=1, dtype=np.int64, ndmin=2)
        check(r.ops, "preprocess", len(got) == len(want) and np.array_equal(got, want),
              f"edge list has {len(got)} edges, brute force {len(want)}")
        rng = np.random.default_rng(self.seed)
        for kind in ("rna", "adt"):
            E = oracle.read_embedding(pre / f"{kind}_embedding.csv")
            n = E.shape[0]
            check(r.ops, "preprocess",
                  np.abs(E.mean(axis=1)).max() <= 1e-9
                  and np.abs(E.std(axis=1, ddof=1) - 1.0).max() <= 1e-9,
                  f"{kind} embedding rows are not mean 0, sd 1")
            A = oracle.read_similarity(pre / f"{kind}_similarity.bin")
            i = rng.integers(0, n, SIMILARITY_SAMPLE)
            j = np.where(np.arange(SIMILARITY_SAMPLE) % 8 == 0, i,
                         rng.integers(0, n, SIMILARITY_SAMPLE))
            ref = oracle.fisher_z_entries(E, i, j)
            err = float(np.abs(np.asarray(A[i, j]) - ref).max())
            check(r.ops, "preprocess", A.shape == (n, n) and err <= 1e-9,
                  f"{kind} similarity differs from arctanh(clip(e_i.e_j/d)) by {err:.3g}")
            del A


WORKLOADS = {
    "fit_bands": FitBands,
    "select_scattered": SelectScattered,
    "atlas_pipeline": AtlasPipeline,
}


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of its reaped children
    (the grid-search pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if Path(spatialsbm.__file__).resolve().parents[1] != (ROOT / "src").resolve():
        print(f"error: imported spatialsbm from {spatialsbm.__file__}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer(args.dir) if args.trace else None
    wl = WORKLOADS[args.workload](args.dir, args.seed, tracer)

    def traced(fn):
        installer = tracing.install(tracer)
        try:
            return fn()
        finally:
            installer.restore()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        state = wl.setup()
        setup_times.append(perf() - t0)
    if tracer is not None:
        state = traced(wl.setup)
        setup_self = dict(tracer.self_time)

    # Untraced: whole rounds until the next one would overrun --seconds.
    # Traced: one untraced round, then one traced round.
    walls = {False: [], True: []}
    rates, aris, ops = [], [], []
    peak = None
    measured = 0.0
    while True:
        use_trace = tracer is not None and bool(walls[False])
        r = traced(lambda: wl.round(state)) if use_trace else wl.round(state)
        walls[use_trace].append(r.wall_s)
        if peak is None:
            peak = peak_rss_mb()
        measured += r.wall_s
        rates.append(r.label_updates / r.chain_s)
        aris.extend(r.aris)
        wl.checks(state, r)
        ops.extend(r.ops)
        r.outputs.clear()
        if walls[True] if tracer is not None else measured + r.wall_s > args.seconds:
            break

    failed = [op for op in ops if not op.ok]
    correct = all(op.known_fault for op in failed)
    for op in failed:
        print(f"failed [{op.name}]{' (known fault)' if op.known_fault else ''}: {op.detail}",
              file=sys.stderr)

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "cell_updates_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (peak, "MB"),
            "ari": (statistics.fmean(aris) if aris else 0.0, "ratio"),
        }
    else:
        layer = tracing.summarize(tracer)
        layer["trace.overhead_s"] = walls[True][0] - walls[False][0]
        null = getattr(wl, "null_lambda", [])
        layer["selection.null_lambda"] = max(null) if null else 0.0
        metrics = {k: (v, tracing.unit_of(k)) for k, v in layer.items()}
        spans = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                 for s in tracer.spans]
        (args.dir / "trace.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "untraced_wall_s": walls[False], "traced_wall_s": walls[True],
            "layer_self_s": {k: v for k, v in layer.items() if k.endswith(".self_s")},
            "round_layer_self_s": {k: v - setup_self.get(k, 0.0)
                                   for k, v in tracer.self_time.items()},
            "spans": spans,
        }))
        print(f"traced wall_s {walls[True]}, untraced {walls[False]}", file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
