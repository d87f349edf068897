"""Short benchmark runs as tests: their oracles replay kNN, the hard draw,
the fallback and the scores from the generated inputs, so a selection change
that breaks one of them fails the suite, not only the benchmark.
``hard-pool-20k`` replays every 1/rho draw on pools of thousands of rows."""

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
    # 112 distinct prompts for 128 predictions: each is asked once per run
    assert result["metrics"]["requests_per_prediction"]["value"] == 0.875


def test_benchmark_hard_pool_20k_runs_correct():
    command = [sys.executable, "bench/run.py", "--workload", "hard-pool-20k",
               "--seed", "1", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_benchmark_rerun_warm_runs_correct():
    command = [sys.executable, "bench/run.py", "--workload", "rerun-warm",
               "--seed", "1", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    # one distinct prompt per prediction, every one answered from the warm cache
    assert result["metrics"]["requests_per_prediction"]["value"] == 1.0


def test_benchmark_grid_knn_2k_traced_runs_correct():
    # --trace 1 wraps the bindings bench/tracing.py lists, select_demos among
    # them, so a binding whose calls or results changed shape fails here
    command = [sys.executable, "bench/run.py", "--workload", "grid-knn-2k",
               "--seed", "1", "--seconds", "0", "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    for name in ("selection.select_demos_self_ms", "selection.match_hard_ms",
                 "knn.retrieve_calls"):
        assert metrics[name]["value"] > 0, name
