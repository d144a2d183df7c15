"""Span tracing for the traced benchmark run, from outside the program.

``install`` replaces the program's public functions (in every
``spatialsbm`` module that imported them) with timing wrappers; nothing
in the program's source changes.  Each call opens a span with a name,
start, end and parent.  A layer's self time is its spans' durations
minus the part covered by traced child spans.  The per-cell
``GibbsSampler.label_update`` is counted and timed but records no span
of its own, so a chain of 10^5 label updates does not fill memory.

Process-pool workers (the grid search forks them) run the same
wrappers; each worker task writes its accumulators to a file that the
parent merges when the grid search returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import uuid
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter


class Tracer:
    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span_id, name, start, child_time]
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self.active = False

    def reset(self) -> None:
        """Forget everything recorded, keeping the containers that the
        installed wrappers hold on to."""
        for acc in (self.spans, self.stack, self.inclusive, self.self_time,
                    self.counts, self.maxima):
            acc.clear()
        self._next_id = 0

    def begin(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, perf(), 0.0]
        self.stack.append(frame)
        return frame

    def end(self, frame: list, record: bool = True) -> None:
        t1 = perf()
        popped = self.stack.pop()
        assert popped is frame, "unbalanced span stack"
        span_id, name, t0, child = frame
        dur = t1 - t0
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.inclusive[name] += dur
        self.self_time[name.split(".", 1)[0]] += dur - child
        self.counts[name + ".calls"] += 1
        if record:
            self.spans.append((span_id, name, t0, t1, parent[0] if parent else None))

    def hidden(self, t0: float) -> None:
        """Exclude benchmark bookkeeping since t0 from the enclosing span."""
        if self.stack:
            self.stack[-1][3] += perf() - t0

    # ----- worker spill / merge ---------------------------------------------

    def spill(self) -> None:
        path = self.spill_dir / f"worker-{os.getpid()}-{uuid.uuid4().hex}.json"
        path.write_text(json.dumps({
            "spans": self.spans,
            "inclusive": self.inclusive,
            "self_time": self.self_time,
            "counts": self.counts,
            "maxima": self.maxima,
        }))

    def merge_spills(self, parent_id: int) -> None:
        for path in sorted(self.spill_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            for key, acc in (("inclusive", self.inclusive), ("self_time", self.self_time),
                             ("counts", self.counts)):
                for k, v in data[key].items():
                    acc[k] += v
            for k, v in data["maxima"].items():
                self.maxima[k] = max(self.maxima[k], v)
            offset = self._next_id
            for sid, name, t0, t1, par in data["spans"]:
                self.spans.append((sid + offset, name, t0, t1,
                                   par + offset if par is not None else parent_id))
                self._next_id = max(self._next_id, sid + offset)


# ----- wrapping ---------------------------------------------------------------


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Installer:
    """Replaces functions and methods in place and restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list[tuple[object, str, object]] = []
        tracer.active = True

    def _set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                          else getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module, attr: str, span: str, before=None, after=None) -> None:
        """Wrap ``module.attr`` and every alias of it in the package."""
        original = getattr(module, attr)
        wrapper = self.make(original, span, before, after)
        for mod in [m for k, m in sys.modules.items() if k.startswith("spatialsbm")]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)
                elif isinstance(value, dict) and any(v is original for v in value.values()):
                    for key in [k for k, v in value.items() if v is original]:
                        self._set_item(value, key, wrapper)

    def _set_item(self, mapping: dict, key, value) -> None:
        self.undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def method(self, cls, attr: str, span: str, before=None) -> None:
        self._set(cls, attr, self.make(cls.__dict__[attr], span, before))

    def make(self, fn, span: str, before=None, after=None):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = before(args, kwargs) if before is not None else span
            frame = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
            if after is not None:
                t0 = perf()
                after(out, args, kwargs)
                tracer.hidden(t0)
            return out

        return wrapper

    def restore(self) -> None:
        for owner, attr, value in reversed(self.undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self.undo.clear()
        self.tracer.active = False


def install(tracer: Tracer) -> Installer:
    """Wrap the public functions of every program layer."""
    from spatialsbm import (
        features, fileio, likelihood, metrics, partition_prior, sampler,
        selection, similarity, summary,
    )

    ins = Installer(tracer)
    c = tracer.counts

    for attr in ("read_matrix_csv", "read_coordinates_csv", "read_labels_tsv",
                 "read_similarity_binary", "read_json", "file_digest"):
        def count_read(out, args, kwargs):
            c["fileio.bytes_read"] += _file_size(args[0])
        ins.function(fileio, attr, "fileio.read", after=count_read)
    for attr in ("write_matrix_csv", "write_coordinates_csv", "write_labels_tsv",
                 "write_similarity_binary", "write_edge_list", "write_json",
                 "write_grid_csv"):
        def count_write(out, args, kwargs):
            c["fileio.bytes_written"] += _file_size(args[0])
        ins.function(fileio, attr, "fileio.write", after=count_write)

    for attr in ("rna_frontend", "atac_frontend", "adt_frontend", "standardize_cells"):
        ins.function(features, attr, "features.frontend")

    ins.function(similarity, "cosine_similarity", "similarity.similarity")
    ins.function(similarity, "fisher_z", "similarity.similarity")
    ins.function(similarity, "check_similarity_matrix", "similarity.check")

    def count_edges(graph, args, kwargs):
        c["similarity.graph_edges"] += sum(len(x) for x in graph.neighbor_lists) // 2
    ins.function(similarity, "build_neighborhood", "similarity.graph", after=count_edges)

    for attr in ("block_stats", "resample_block_params", "empirical_prior",
                 "deviance_from_stats", "prior_block_params", "full_deviance"):
        ins.function(likelihood, attr, f"likelihood.{attr}")

    ins.function(partition_prior, "log_vn_entry", "partition_prior.vn_entry")
    ins.method(partition_prior.MfmPrior, "__init__", "partition_prior.mfm_init")

    GS = sampler.GibbsSampler
    ins.function(sampler, "run_chain", "sampler.run_chain")
    ins.method(GS, "__init__", "sampler.init")
    ins.method(GS, "sweep", "sampler.sweep",
               before=lambda a, k: "sampler.sweep" if k.get("allow_new", True)
               else "sampler.warmup_sweep")
    ins.method(GS, "reseed_small_domains", "sampler.reseed")
    ins.method(GS, "refit_params", "sampler.refit")
    _install_label_update(GS, tracer, ins)

    ins.function(summary, "summarize_chain", "summary.summarize",
                 after=lambda out, a, k: c.__setitem__(
                     "summary.samples", c["summary.samples"] + out.m_samples))
    ins.function(summary, "dahl_select", "summary.dahl")
    ins.function(summary, "uncertainty_scores", "summary.uncertainty")

    def count_configs(out, args, kwargs):
        c["selection.configs"] += len(out.results) + len(out.failures)
        c["selection.config_s_sum"] += sum(r.runtime_seconds for r in out.results)
        tracer.merge_spills(tracer.spans[-1][0])
    ins.function(selection, "grid_search", "selection.grid", after=count_configs)
    ins.function(selection, "build_grid", "selection.build_grid")
    ins.function(selection, "evaluate_config", "selection.evaluate_config")
    ins.function(selection, "mdic", "selection.mdic")
    _install_worker(selection, tracer, ins)

    ins.function(metrics, "ari", "metrics.ari")
    ins.function(metrics, "spari", "metrics.spari")
    ins.function(metrics, "nmi_ami_homogeneity", "metrics.info")
    ins.function(metrics, "morans_i", "metrics.morans")
    return ins


def _install_label_update(GS, tracer: Tracer, ins: Installer) -> None:
    """Counted, timed, span-free wrapper for the per-cell label update."""
    original = GS.__dict__["label_update"]
    c, mx = tracer.counts, tracer.maxima

    @functools.wraps(original)
    def label_update(self, i, return_weights=False, allow_new=True):
        k0 = self.n_domains
        purged = bool(allow_new and self.occ[self.z[i]] == 1.0)
        frame = tracer.begin("sampler.label_update")
        try:
            out = original(self, i, return_weights, allow_new)
        finally:
            tracer.end(frame, record=False)
        k1 = self.n_domains
        c["sampler.domains_opened"] += k1 - k0 + purged
        if k1 > mx["sampler.max_domains"]:
            mx["sampler.max_domains"] = k1
        return out

    ins._set(GS, "label_update", label_update)


def _install_worker(selection, tracer: Tracer, ins: Installer) -> None:
    """Grid-search pool workers reset the inherited tracer state, run the
    configuration, and spill their accumulators for the parent to merge.
    In-process evaluation (jobs = 1) is traced directly."""
    original = selection._grid_worker
    parent_pid = os.getpid()

    @functools.wraps(original)
    def _grid_worker(payload):
        if os.getpid() == parent_pid:
            return original(payload)
        tracer.reset()
        try:
            return original(payload)
        finally:
            tracer.spill()

    ins._set(selection, "_grid_worker", _grid_worker)


def summarize(tracer: Tracer) -> dict[str, float]:
    """Layer metrics of everything traced: one set-up and one round."""
    inc, cnt = tracer.inclusive, tracer.counts
    updates = cnt["sampler.label_update.calls"]
    out = {
        "fileio.read_s": inc["fileio.read"],
        "fileio.write_s": inc["fileio.write"],
        "fileio.bytes_read": cnt["fileio.bytes_read"],
        "fileio.bytes_written": cnt["fileio.bytes_written"],
        "features.frontend_s": inc["features.frontend"],
        "similarity.similarity_s": inc["similarity.similarity"],
        "similarity.graph_s": inc["similarity.graph"],
        "similarity.graph_edges": cnt["similarity.graph_edges"],
        "sampler.init_s": inc["sampler.init"],
        "sampler.sweeps": cnt["sampler.sweep.calls"] + cnt["sampler.warmup_sweep.calls"],
        "sampler.label_updates": updates,
        "sampler.label_update_s": inc["sampler.label_update"],
        "sampler.sweep_s": inc["sampler.sweep"],
        "sampler.warmup_sweep_s": inc["sampler.warmup_sweep"],
        "sampler.reseed_s": inc["sampler.reseed"],
        "sampler.domains_opened": cnt["sampler.domains_opened"],
        "likelihood.block_stats_s": inc["likelihood.block_stats"],
        "likelihood.resample_s": inc["likelihood.resample_block_params"],
        "partition_prior.mfm_init_s": inc["partition_prior.mfm_init"],
        "partition_prior.vn_entries": cnt["partition_prior.vn_entry.calls"],
        "summary.dahl_s": inc["summary.dahl"],
        "summary.uncertainty_s": inc["summary.uncertainty"],
        "summary.samples": cnt["summary.samples"],
        "selection.grid_s": inc["selection.grid"],
        "selection.configs": cnt["selection.configs"],
        "selection.config_s_sum": cnt["selection.config_s_sum"],
        "selection.payload_bytes": cnt["selection.payload_bytes"],
        "metrics.ari_s": inc["metrics.ari"],
        "metrics.spari_s": inc["metrics.spari"],
        "metrics.info_s": inc["metrics.info"],
        "metrics.morans_s": inc["metrics.morans"],
        "cli.preprocess_s": inc["cli.preprocess"],
        "cli.fit_s": inc["cli.fit"],
        "cli.eval_s": inc["cli.eval"],
    }
    out["sampler.update_us"] = 1e6 * inc["sampler.label_update"] / updates if updates else 0.0
    out["sampler.max_domains"] = tracer.maxima["sampler.max_domains"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_time[layer]
    return out


LAYERS = ("cli", "fileio", "features", "similarity", "sampler", "likelihood",
          "partition_prior", "summary", "selection", "metrics")

UNITS = {"_s": "s", "_s_sum": "s", "_us": "us", "_bytes": "B", "bytes_read": "B",
         "bytes_written": "B", "null_lambda": "lambda"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"
