"""Hyperparameter selection: the deviance criterion and the (lam, delta) grid.

The criterion is the posterior mean deviance plus an effective-complexity
penalty scaled by log(n(n+1)/2), the log of the pairwise observation
count, so complexity is charged on the same footing as the likelihood.
Every grid configuration runs a fully independent chain with a seed
derived from the master seed, and the grid always carries a lam = 0
baseline so spatial smoothing can switch itself off.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .partition_prior import lambda_critical
from .sampler import ChainSample, FitConfig, config_for_grid_point, run_chain
from .similarity import NeighborhoodGraph
from .summary import PosteriorSummary, summarize_chain

# Fraction of the ordering threshold k / avg_degree used as the top of the
# lam grid, keeping the search clear of the frozen-label regime.
LAMBDA_SAFETY = 0.8


@dataclass
class MdicResult:
    mdic: float
    mean_deviance: float
    p_d: float
    negative_pd: bool


def mdic(samples: Sequence[ChainSample], point_index: int, n: int) -> MdicResult:
    """Criterion value from recorded samples and the point-estimate index.

    p_D = mean deviance - deviance of the point sample; a negative p_D is
    passed through unmodified but flagged.
    """
    if len(samples) == 0:
        raise ValueError("empty sample list")
    devs = np.array([s.deviance for s in samples])
    mean_dev = float(devs.mean())
    p_d = mean_dev - float(samples[point_index].deviance)
    value = mean_dev + math.log(n * (n + 1) / 2.0) * p_d
    return MdicResult(
        mdic=value, mean_deviance=mean_dev, p_d=p_d, negative_pd=p_d < 0
    )


@dataclass
class GridSpec:
    """Candidate (lam, delta) pairs; every delta carries a lam = 0 baseline."""

    delta_values: tuple[float, ...]
    lambda_values: dict[float, tuple[float, ...]]

    def __post_init__(self) -> None:
        self.delta_values = tuple(sorted(float(d) for d in self.delta_values))
        if not self.delta_values:
            raise ValueError("grid needs at least one delta")
        clean: dict[float, tuple[float, ...]] = {}
        for d in self.delta_values:
            lams = tuple(sorted(float(v) for v in self.lambda_values[d]))
            if 0.0 not in lams:
                raise ValueError(f"lambda grid for delta={d} must contain 0")
            if any(v < 0 for v in lams):
                raise ValueError("lambda values must be non-negative")
            clean[d] = lams
        self.lambda_values = clean

    @classmethod
    def rectangular(
        cls, lambda_values: Sequence[float], delta_values: Sequence[float]
    ) -> "GridSpec":
        lams = tuple(sorted(float(v) for v in lambda_values))
        return cls(
            delta_values=tuple(delta_values),
            lambda_values={float(d): lams for d in delta_values},
        )

    def points(self) -> list[tuple[float, float]]:
        """Grid points ordered by (delta, lam); this order indexes seeds."""
        return [
            (lam, d) for d in self.delta_values for lam in self.lambda_values[d]
        ]

    def __len__(self) -> int:
        return len(self.points())


def build_grid(
    k_estimate: int,
    graphs: Mapping[float, NeighborhoodGraph],
    n_lambda: int = 5,
) -> GridSpec:
    """Per-delta lam ladders capped below the ordering threshold.

    For each delta the top value is LAMBDA_SAFETY * k_estimate /
    avg_degree and the ladder is evenly spaced from 0; a delta whose
    graph is empty gets the bare {0} (spatial reward vacuous there).
    """
    if k_estimate < 1:
        raise ValueError("k_estimate must be >= 1")
    if n_lambda < 2:
        raise ValueError("n_lambda must be >= 2")
    lambda_values: dict[float, tuple[float, ...]] = {}
    for d, graph in graphs.items():
        crit = lambda_critical(k_estimate, graph)
        if not math.isfinite(crit):
            lambda_values[float(d)] = (0.0,)
            continue
        lam_max = LAMBDA_SAFETY * crit
        lams = [0.0] + [lam_max * j / (n_lambda - 1) for j in range(1, n_lambda)]
        lambda_values[float(d)] = tuple(lams)
    return GridSpec(delta_values=tuple(graphs.keys()), lambda_values=lambda_values)


@dataclass
class GridResult:
    """One evaluated configuration; invariant: mdic = mean_deviance +
    log(n(n+1)/2) * p_d."""

    lam: float
    delta: float
    mdic: float
    mean_deviance: float
    p_d: float
    k_hat: int
    negative_pd: bool
    runtime_seconds: float
    summary: PosteriorSummary = field(repr=False, default=None)


@dataclass
class GridSearchResult:
    best: GridResult
    results: list[GridResult]
    failures: list[tuple[float, float, str]]


def evaluate_config(
    sims, graph: NeighborhoodGraph, config: FitConfig
) -> GridResult:
    """Run one configuration end to end: chain, point estimate, criterion."""
    t0 = time.perf_counter()
    samples = run_chain(sims, graph, config)
    summary = summarize_chain(samples)
    res = mdic(samples, summary.dahl_index, graph.n_cells)
    return GridResult(
        lam=config.lam,
        delta=config.delta,
        mdic=res.mdic,
        mean_deviance=res.mean_deviance,
        p_d=res.p_d,
        k_hat=summary.k_hat,
        negative_pd=res.negative_pd,
        runtime_seconds=time.perf_counter() - t0,
        summary=summary,
    )


# Similarities and graphs of the running grid search, set once per pool
# worker process by _init_worker; the parent never fills it.
_WORKER_DATA: dict = {}


def _init_worker(sims, graphs: Mapping[float, NeighborhoodGraph]) -> None:
    _WORKER_DATA["sims"] = sims
    _WORKER_DATA["graphs"] = graphs


def _grid_worker(payload) -> GridResult:
    """Evaluate one (delta, config) grid point in a pool worker."""
    delta, config = payload
    return evaluate_config(
        _WORKER_DATA["sims"], _WORKER_DATA["graphs"][delta], config
    )


def grid_search(
    sims,
    graphs: Mapping[float, NeighborhoodGraph],
    grid: GridSpec,
    base_config: FitConfig,
    jobs: int = 1,
) -> GridSearchResult:
    """Evaluate every grid point independently and pick the smallest mdic.

    Ties break toward smaller lam, then smaller delta.  Failed points are
    recorded and skipped; it is an error for every point to fail.
    """
    points = grid.points()
    if not points:
        raise ValueError("empty grid")
    configs = [
        config_for_grid_point(base_config, lam, delta) for lam, delta in points
    ]
    results: list[GridResult] = []
    failures: list[tuple[float, float, str]] = []
    if jobs > 1:
        # Each worker receives the data once, through its initializer;
        # the per-point payload is only (delta, config).
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(sims, graphs)
        ) as pool:
            outcomes = []
            futures = [
                pool.submit(_grid_worker, (delta, cfg))
                for (_, delta), cfg in zip(points, configs)
            ]
            for fut, (lam, delta) in zip(futures, points):
                try:
                    outcomes.append(fut.result())
                except Exception as exc:  # noqa: BLE001 - per-point isolation
                    outcomes.append((lam, delta, f"{type(exc).__name__}: {exc}"))
        for out in outcomes:
            (failures if isinstance(out, tuple) else results).append(out)
    else:
        for (lam, delta), cfg in zip(points, configs):
            try:
                results.append(evaluate_config(sims, graphs[delta], cfg))
            except Exception as exc:  # noqa: BLE001 - per-point isolation
                failures.append((lam, delta, f"{type(exc).__name__}: {exc}"))
    if not results:
        raise RuntimeError(f"every grid configuration failed: {failures}")
    best = min(results, key=lambda r: (r.mdic, r.lam, r.delta))
    return GridSearchResult(best=best, results=results, failures=failures)
