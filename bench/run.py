"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Generates the workload's inputs from
``--seed`` into ``bench/out/<workload>/``, then runs the workload in a
fresh Python process with BLAS threads pinned to 1 and prints that
process's JSON result as the last line of standard output.  Exits
non-zero without a result when the program's sources are missing or the
workload does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread keeps chains bit-deterministic.  A fixed glibc mmap
# threshold returns every large array to the system when it is freed;
# the default threshold adapts to earlier frees, so whether a freed
# n x n array leaves RSS depends on allocation history and peak RSS
# flips between two values one array apart.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}
os.environ.update(PINNED)

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("fit_bands", "select_scattered", "atlas_pipeline")
DEADLINE_S = 170.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "spatialsbm" / "__init__.py").is_file():
        print(f"error: no src/spatialsbm under {root}; run from the repository root",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    sys.path.insert(0, str(BENCH))
    import inputs

    out = BENCH / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs.MAKERS[args.workload](out, args.seed)

    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--dir", str(out), "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # Its own process group, so a timeout also ends the grid-search pool workers.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            process_group=0)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("error: workload did not finish in time", file=sys.stderr)
        return 3
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload exited with {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
