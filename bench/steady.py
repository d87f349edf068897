"""Steadiness check: two sets of ten benchmark runs per workload, each run
with its own seed (set 1 seeds 1-10, set 2 seeds 11-20), compared against
the bounds in BENCHMARK.json.

    python3 bench/steady.py [--workloads a,b]

For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median) and whether
the sets agree: every spread within the metric's bound and the medians of
the two sets apart by no more than the bound, in either direction.  Every
run must be correct with no failed operation.  Runs go one at a time.
Exit code 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10  # per set


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    ok = True
    for workload in workloads:
        sets = []
        for s in range(SETS):
            seeds = range(1 + s * RUNS, 1 + (s + 1) * RUNS)
            sets.append([run_once(spec, workload, seed) for seed in seeds])
            print(f"{workload}: set {s + 1} done", file=sys.stderr)
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"\n### {workload}\n")
        print(f"correct in every run: {correct}; failed share per set: {sorted(shares)}\n")
        print("| metric | bound | " + " | ".join(
            f"set {s + 1} median [q1, q3] spread" for s in range(SETS))
            + " | drift | agree |")
        print("|---" * (SETS + 4) + "|")
        ok &= correct and shares == {0.0}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            first, last = stats[0][0], stats[-1][0]
            drift = (last - first) / first
            agree = abs(drift) <= bound and all(st[3] <= bound for st in stats)
            ok &= agree
            cells = " | ".join(f"{m:.4g} [{q1:.4g}, {q3:.4g}] {sp:.3f}" for m, q1, q3, sp in stats)
            print(f"| {name} ({metric['unit']}) | {bound} | {cells} | {drift:+.3f} | "
                  f"{'yes' if agree else 'NO'} |")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
