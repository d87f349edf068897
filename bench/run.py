"""Network-free benchmark of the ``marginsel eval`` pipeline.

    python3 bench/run.py --workload grid-knn-2k --seed 1 --seconds 30 --trace 0

Generates seeded synthetic inputs, drives the public functions that
``marginsel eval`` calls (``load_dataset``, ``load_embeddings``,
``build_lookup``, ``run_experiment``) with the mock backend, checks every
output against the oracles in ``oracles.py`` and prints each metric by name
and unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Exit
code 0 when every output is correct, 1 when an oracle fails, 2 when the
program's sources are not found.  Scratch files go to ``.bench_work/``
and are removed at exit.  See README.md for the workloads, the
timing method and the metrics.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import warnings
from pathlib import Path

# One BLAS thread: the benchmark's own thread budget is max_in_flight <= nproc.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Put the checkout's own ``src/`` first on the path; exit 2 without it."""
    if not (SRC / "marginsel" / "__init__.py").is_file():
        print(f"marginsel sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import marginsel

    if Path(marginsel.__file__).resolve().parent != SRC / "marginsel":
        print(f"imported marginsel from {marginsel.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def main() -> int:
    warnings.filterwarnings("ignore", category=RuntimeWarning, module="scipy")
    parser = argparse.ArgumentParser(description="marginsel eval benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_program()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return harness.Bench(harness.WORKLOADS[args.workload], args, work).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
