"""File formats: CSV matrices, coordinate tables, label TSVs, binary
similarity caches, JSON summaries, grid reports, run manifests.

Everything round-trips: write-then-read reproduces the in-memory values
exactly (floats are serialized with shortest-roundtrip repr).  Matrix
CSVs are parsed in bulk by ``np.loadtxt`` and written one row string at
a time; similarity caches are written from the array's own buffer and
digests hash a file in 1 MiB chunks, so no file is copied whole in memory.
A cache already read is digested from the array, not read again.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import struct
from pathlib import Path

import numpy as np

from .errors import InputFormatError

SIMILARITY_MAGIC = b"SIMZMAT1"


def _fmt(x: float) -> str:
    return repr(float(x))


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# No comment character: "#" in a field is an error, as in any other number.
_CSV_MATRIX = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 2}


def _data_lines(fh, skip_header: bool):
    """(physical line number, line) of every line that is neither blank,
    whitespace-only nor the header (line 1 when ``skip_header``)."""
    for lineno, line in enumerate(fh, start=1):
        if line.strip() and not (skip_header and lineno == 1):
            yield lineno, line


def read_matrix_csv(path) -> np.ndarray:
    """Dense float matrix from CSV.

    The first line is a header when one of its fields is not a number.
    Blank and whitespace-only lines are skipped; fields may be
    double-quoted and padded with spaces.  Parsed in bulk by
    ``np.loadtxt``; a rejected file is rescanned line by line to name the
    physical line of the first bad field or ragged row.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        first = next(csv.reader([fh.readline()]), [])
        skip_header = not all(_is_number(tok) for tok in first)
        fh.seek(0)
        lines = (line for _, line in _data_lines(fh, skip_header))
        head = next(lines, None)
        if head is None:
            raise InputFormatError(f"{path}: no data rows")
        try:
            return np.loadtxt(itertools.chain([head], lines), dtype=float, **_CSV_MATRIX)
        except ValueError as exc:
            raise _locate_bad_line(path, skip_header, exc) from None


def _locate_bad_line(path: Path, skip_header: bool, error: ValueError) -> InputFormatError:
    """Rescan a CSV that ``np.loadtxt`` rejected, one line at a time with
    the same parser, and describe the first bad field or ragged row."""
    width = None
    with path.open(encoding="utf-8") as fh:
        for lineno, line in _data_lines(fh, skip_header):
            try:
                got = np.loadtxt([line], dtype=float, **_CSV_MATRIX).shape[1]
            except ValueError as exc:
                fields = next(csv.reader([line]))
                for j, field in enumerate(fields):
                    try:
                        np.loadtxt([line], dtype=float, usecols=j, **_CSV_MATRIX)
                    except ValueError:
                        return InputFormatError(
                            f"{path}: line {lineno}: could not convert {field!r} to float"
                        )
                return InputFormatError(f"{path}: line {lineno}: {exc}")
            if width is None:
                width = got
            elif got != width:
                return InputFormatError(
                    f"{path}: line {lineno}: expected {width} columns, got {got}"
                )
    return InputFormatError(f"{path}: {error}")


def write_matrix_csv(path, matrix: np.ndarray, header: list[str] | None = None) -> None:
    """CSV with one row per matrix row, values in shortest-roundtrip repr."""
    matrix = np.asarray(matrix, dtype=float)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        if header is not None:
            csv.writer(fh, lineterminator="\n").writerow(header)
        for row in matrix:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_coordinates_csv(path) -> tuple[list[str], np.ndarray]:
    """(cell_ids, n x 2 coordinates) from a (cell_id, x, y) CSV."""
    path = Path(path)
    ids: list[str] = []
    coords: list[list[float]] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise InputFormatError(
                    f"{path}: line {lineno}: expected 3 columns (cell_id, x, y)"
                )
            if lineno == 1 and not (_is_number(row[1]) and _is_number(row[2])):
                continue
            try:
                coords.append([float(row[1]), float(row[2])])
            except ValueError as exc:
                raise InputFormatError(f"{path}: line {lineno}: {exc}") from None
            ids.append(row[0])
    if not ids:
        raise InputFormatError(f"{path}: no data rows")
    return ids, np.array(coords, dtype=float)


def write_coordinates_csv(path, cell_ids, coords: np.ndarray) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell_id", "x", "y"])
        for cid, (x, y) in zip(cell_ids, np.asarray(coords, dtype=float)):
            writer.writerow([cid, _fmt(x), _fmt(y)])


def default_cell_ids(n: int) -> list[str]:
    width = max(1, len(str(n - 1)))
    return [f"cell_{i:0{width}d}" for i in range(n)]


def write_labels_tsv(path, cell_ids, labels, uncertainty=None) -> None:
    """Labels TSV with columns cell_id, domain and optionally uncertainty."""
    labels = np.asarray(labels)
    with Path(path).open("w", encoding="utf-8") as fh:
        if uncertainty is None:
            fh.write("cell_id\tdomain\n")
            for cid, lab in zip(cell_ids, labels):
                fh.write(f"{cid}\t{int(lab)}\n")
        else:
            fh.write("cell_id\tdomain\tuncertainty\n")
            for cid, lab, u in zip(cell_ids, labels, np.asarray(uncertainty)):
                fh.write(f"{cid}\t{int(lab)}\t{_fmt(u)}\n")


def read_labels_tsv(path) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """(cell_ids, labels, uncertainty-or-None) from a labels TSV."""
    path = Path(path)
    ids: list[str] = []
    labels: list[int] = []
    unc: list[float] = []
    has_unc = None
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise InputFormatError(
                    f"{path}: line {lineno}: expected 2 or 3 tab-separated columns"
                )
            if lineno == 1 and not _is_number(parts[1]):
                has_unc = len(parts) == 3
                continue
            if has_unc is None:
                has_unc = len(parts) == 3
            try:
                labels.append(int(float(parts[1])))
                if has_unc:
                    unc.append(float(parts[2]))
            except (ValueError, IndexError) as exc:
                raise InputFormatError(f"{path}: line {lineno}: {exc}") from None
            ids.append(parts[0])
    if not ids:
        raise InputFormatError(f"{path}: no data rows")
    uncertainty = np.array(unc) if has_unc else None
    return ids, np.array(labels, dtype=np.int64), uncertainty


def _similarity_cache(A: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The cache of A as (16-byte header, row-major little-endian body)."""
    A = np.ascontiguousarray(np.asarray(A, dtype="<f8"))
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError("similarity cache requires a square matrix")
    return SIMILARITY_MAGIC + struct.pack("<Q", n), A


def write_similarity_binary(path, A: np.ndarray) -> None:
    """Flat binary cache: 8-byte magic + uint64 n, then row-major float64."""
    header, body = _similarity_cache(A)
    with Path(path).open("wb") as fh:
        fh.write(header)
        fh.write(body)


def similarity_digest(A: np.ndarray) -> str:
    """SHA-256 hex digest of the cache ``write_similarity_binary`` writes
    for A, hashed from A in memory: for a matrix read back from a cache
    it equals that file's ``file_digest`` without reading the file again."""
    header, body = _similarity_cache(A)
    h = hashlib.sha256(header)
    h.update(body)
    return h.hexdigest()


def read_similarity_binary(path) -> np.ndarray:
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.read(16)
    if len(header) < 16 or header[:8] != SIMILARITY_MAGIC:
        raise InputFormatError(f"{path}: not a similarity cache (bad magic)")
    (n,) = struct.unpack("<Q", header[8:16])
    expected = 16 + 8 * n * n
    size = path.stat().st_size
    if size != expected:
        raise InputFormatError(
            f"{path}: expected {expected} bytes for n={n}, found {size}"
        )
    return np.fromfile(path, dtype="<f8", offset=16).reshape(n, n)


def write_edge_list(path, graph) -> None:
    """Undirected edge list (i < j) of a neighborhood graph, one pair per line."""
    W = graph.W
    i = np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))
    upper = W.indices > i
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("i\tj\n")
        for a, b in zip(i[upper], W.indices[upper]):
            fh.write(f"{int(a)}\t{int(b)}\n")


def write_json(path, payload: dict) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with Path(path).open(encoding="utf-8") as fh:
        return json.load(fh)


GRID_CSV_COLUMNS = ["lambda", "delta", "mdic", "mean_deviance", "p_d", "k_hat", "best"]


def write_grid_csv(path, results, best, include_runtime: bool = False) -> None:
    """Grid report; the per-configuration runtime column is opt-in so the
    default report is byte-reproducible across runs."""
    columns = list(GRID_CSV_COLUMNS)
    if include_runtime:
        columns.append("runtime_seconds")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for r in results:
            row = [
                _fmt(r.lam),
                _fmt(r.delta),
                _fmt(r.mdic),
                _fmt(r.mean_deviance),
                _fmt(r.p_d),
                str(r.k_hat),
                "1" if r is best else "0",
            ]
            if include_runtime:
                row.append(_fmt(r.runtime_seconds))
            writer.writerow(row)


def file_digest(path) -> str:
    """SHA-256 hex digest of a file, read in 1 MiB chunks."""
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, config: dict, digests: dict, **extra) -> None:
    """Run manifest: config echo, input digests (name -> SHA-256 hex, see
    ``file_digest`` and ``similarity_digest``), versions, extras."""
    import scipy

    from . import __version__

    payload = {
        "command": command,
        "config": config,
        "inputs": {str(k): v for k, v in digests.items()},
        "versions": {
            "spatialsbm": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    payload.update(extra)
    write_json(path, payload)
