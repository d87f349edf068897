"""One short benchmark run as a test: its oracles replay kNN, the hard draw,
the fallback and the scores from the generated inputs, so a selection change
that breaks one of them fails the suite, not only the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_grid_knn_2k_runs_correct():
    command = [sys.executable, "bench/run.py", "--workload", "grid-knn-2k",
               "--seed", "1", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
