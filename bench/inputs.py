"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own code: the program under test only
ever sees the files written below, so a change to the program can never
change what is measured.  The same ``seed`` always gives byte-identical
files.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

FISHER_BOUND = float(np.arctanh(0.9999))

# Bands have unequal widths throughout: with equal-size domains a chain
# from a random start can stop in merged/split partitions (on one seed in
# five at n = 1,600), which makes ARI depend on the seed.

# fit_bands: one modality on a 40 x 40 lattice in 4 vertical bands.
FIT_SIDE = 40
FIT_BAND_WIDTHS = (6, 8, 11, 15)
FIT_PRECISION = 4.0
# Collapse probe: fixed inputs (independent of --seed) on which the
# sampler degenerates to all-singleton partitions at lam = 0.
PROBE_SIDE = 10
PROBE_BAND_WIDTHS = (2, 2, 3, 3)
PROBE_PRECISION = 2.0
PROBE_SEED = 0

# select_scattered: two modalities on a 22 x 22 lattice in 4 bands; the
# scattered dataset reuses the similarities with permuted coordinates.
SELECT_SIDE = 22
SELECT_BAND_WIDTHS = (4, 5, 6, 7)
SELECT_PRECISION = 4.0
SELECT_MODALITIES = 2

# atlas_pipeline: raw RNA and ADT counts for 66 x 66 jittered spots
# (4,356 > STACK_LIMIT = 4,096) in two vertical bands, 20 and 46 columns
# wide: with three or more domains a short chain stops in merged/split
# partitions whose ARI depends on the seed.
ATLAS_SIDE = 66
ATLAS_BAND_WIDTHS = (20, 46)
ATLAS_K = len(ATLAS_BAND_WIDTHS)
ATLAS_GENE_FOLD = 6.0
ATLAS_PROTEIN_FOLD = 3.0
ATLAS_GENES = 1000
ATLAS_MARKER_GENES = 40
ATLAS_PROTEINS = 30
ATLAS_MARKER_PROTEINS = 4
ATLAS_JITTER = 0.3
ATLAS_DEPTH_SD = 0.3


def lattice(side: int) -> np.ndarray:
    idx = np.arange(side * side)
    return np.column_stack([idx % side, idx // side]).astype(float)


def bands(side: int, widths: tuple[int, ...]) -> np.ndarray:
    """Vertical-band labels 1..len(widths) from the column index."""
    assert sum(widths) == side
    cols = np.arange(side * side) % side
    return np.searchsorted(np.cumsum(widths), cols, side="right").astype(np.int64) + 1


def block_similarity(
    truth: np.ndarray, precision: float, rng: np.random.Generator,
    mu_within: float = 0.8, mu_between: float = 0.0,
) -> np.ndarray:
    """Symmetric Gaussian block matrix in Fisher-Z units, diagonal at the bound."""
    n = truth.size
    mu = np.where(truth[:, None] == truth[None, :], mu_within, mu_between)
    A = np.triu(mu + rng.standard_normal((n, n)) / np.sqrt(precision), 1)
    A += A.T
    np.clip(A, -FISHER_BOUND, FISHER_BOUND, out=A)
    np.fill_diagonal(A, FISHER_BOUND)
    return A


# ----- writers (the program's documented file formats) ----------------------


def write_similarity(path: Path, A: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"SIMZMAT1")
        fh.write(struct.pack("<Q", A.shape[0]))
        fh.write(np.ascontiguousarray(A, dtype="<f8").tobytes())


def cell_ids(n: int) -> list[str]:
    return [f"spot{i:05d}" for i in range(n)]


def write_coords(path: Path, coords: np.ndarray) -> None:
    lines = ["cell_id,x,y"]
    lines += [f"{c},{x!r},{y!r}" for c, (x, y) in zip(cell_ids(len(coords)), coords.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_labels(path: Path, labels: np.ndarray) -> None:
    lines = ["cell_id\tdomain"]
    lines += [f"{c}\t{int(v)}" for c, v in zip(cell_ids(labels.size), labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_counts(path: Path, counts: np.ndarray, prefix: str) -> None:
    header = ",".join(f"{prefix}{j:04d}" for j in range(counts.shape[1]))
    body = "\n".join(",".join(map(str, row)) for row in counts.tolist())
    path.write_text(header + "\n" + body + "\n", encoding="utf-8")


# ----- workloads ------------------------------------------------------------


def make_fit_bands(out: Path, seed: int) -> None:
    rng = np.random.default_rng([seed, 1])
    truth = bands(FIT_SIDE, FIT_BAND_WIDTHS)
    write_similarity(out / "similarity_m0.bin", block_similarity(truth, FIT_PRECISION, rng))
    write_coords(out / "coords.csv", lattice(FIT_SIDE))
    np.save(out / "coords.npy", lattice(FIT_SIDE))
    np.save(out / "truth.npy", truth)

    probe = out / "probe"
    probe.mkdir()
    prng = np.random.default_rng([PROBE_SEED, 1])
    ptruth = bands(PROBE_SIDE, PROBE_BAND_WIDTHS)
    write_similarity(probe / "similarity_m0.bin", block_similarity(ptruth, PROBE_PRECISION, prng))
    write_coords(probe / "coords.csv", lattice(PROBE_SIDE))
    np.save(probe / "truth.npy", ptruth)


def make_select_scattered(out: Path, seed: int) -> None:
    rng = np.random.default_rng([seed, 2])
    truth = bands(SELECT_SIDE, SELECT_BAND_WIDTHS)
    coords = lattice(SELECT_SIDE)
    sims = [block_similarity(truth, SELECT_PRECISION, rng) for _ in range(SELECT_MODALITIES)]
    perm = rng.permutation(truth.size)
    for name, c in (("bands", coords), ("scattered", coords[perm])):
        d = out / name
        d.mkdir()
        for m, A in enumerate(sims):
            write_similarity(d / f"similarity_m{m}.bin", A)
        write_coords(d / "coords.csv", c)
        np.save(d / "coords.npy", c)
        np.save(d / "truth.npy", truth)


def _negative_binomial(rng: np.random.Generator, mean: np.ndarray, shape: float) -> np.ndarray:
    return rng.poisson(rng.gamma(shape, mean / shape)).astype(np.int64)


def make_atlas_pipeline(out: Path, seed: int) -> None:
    """Gamma-Poisson counts: per-feature base rates, per-spot depth, and
    distinct marker features per domain with a fixed fold change."""
    rng = np.random.default_rng([seed, 3])
    truth = bands(ATLAS_SIDE, ATLAS_BAND_WIDTHS)
    n = truth.size
    coords = lattice(ATLAS_SIDE) + rng.uniform(-ATLAS_JITTER, ATLAS_JITTER, (n, 2))
    depth = rng.lognormal(0.0, ATLAS_DEPTH_SD, n)

    base = rng.lognormal(0.0, 1.0, ATLAS_GENES)
    effect = np.ones((ATLAS_K, ATLAS_GENES))
    markers = rng.permutation(ATLAS_GENES)[: ATLAS_K * ATLAS_MARKER_GENES]
    for d in range(ATLAS_K):
        effect[d, markers[d * ATLAS_MARKER_GENES:(d + 1) * ATLAS_MARKER_GENES]] = ATLAS_GENE_FOLD
    rna = _negative_binomial(rng, depth[:, None] * base * effect[truth - 1], 5.0)

    pbase = rng.uniform(20.0, 100.0, ATLAS_PROTEINS)
    peffect = np.ones((ATLAS_K, ATLAS_PROTEINS))
    pmarkers = rng.permutation(ATLAS_PROTEINS)
    for d in range(ATLAS_K):
        lo = (d * ATLAS_MARKER_PROTEINS) % ATLAS_PROTEINS
        peffect[d, pmarkers[lo:lo + ATLAS_MARKER_PROTEINS]] = ATLAS_PROTEIN_FOLD
    adt = _negative_binomial(rng, depth[:, None] * pbase * peffect[truth - 1], 10.0)

    write_counts(out / "rna_counts.csv", rna, "gene")
    write_counts(out / "adt_counts.csv", adt, "prot")
    write_coords(out / "coords.csv", coords)
    write_labels(out / "truth_labels.tsv", truth)
    np.save(out / "truth.npy", truth)
    np.save(out / "coords.npy", coords)


MAKERS = {
    "fit_bands": make_fit_bands,
    "select_scattered": make_select_scattered,
    "atlas_pipeline": make_atlas_pipeline,
}
