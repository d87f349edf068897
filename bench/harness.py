"""Workloads, timing and the measured loop of the benchmark (see README.md).

Imported by ``run.py`` once the program's ``src/`` tree is on the path.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from marginsel.dataset import Dataset, load_dataset
from marginsel.evalharness import ExperimentContext, MethodSpec, RunConfig, run_experiment
from marginsel.knn import load_embeddings
from marginsel.llm_client import CachedBackend, MockBackend, MockRule
from marginsel.prompting import (
    BUILTIN_SPACES, BUILTIN_TEMPLATES, CANDIDATE_ASSIGNMENT, FINAL_PREDICTION,
)
from marginsel.selection import build_lookup

import gen
import oracles
import tracing

HERE = Path(__file__).resolve().parent

# Times are rescaled to a nominal CPU on which reference_s() takes this long.
REF_LOOPS = 100_000
REF_NOMINAL_S = 0.005
SETUP_RUNS = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    train: int
    test: int
    chunk: int  # test examples per slice: one run_experiment call
    methods: tuple  # (name, alpha)
    shots: tuple
    seeds: tuple
    fallback: str
    in_flight: int
    cache: str | None  # None, "cold" (fresh per slice) or "warm"
    embeddings: bool


WORKLOADS = {
    "grid-knn-2k": Workload(
        train=2000, test=8, chunk=2,
        methods=(("random", None), ("knn", None), ("marginsel", 0.5), ("marginsel", 1.0)),
        shots=(4, 8), seeds=(0, 1), fallback="knn", in_flight=2, cache="cold",
        embeddings=True,
    ),
    "hard-pool-20k": Workload(
        train=20000, test=64, chunk=8, methods=(("marginsel", 1.0),),
        shots=(4, 16), seeds=(0, 1), fallback="random", in_flight=1, cache=None,
        embeddings=False,
    ),
    "rerun-warm": Workload(
        train=2000, test=256, chunk=128, methods=(("random", None),),
        shots=(2, 4, 6, 8, 10), seeds=(0, 1, 2), fallback="random", in_flight=1,
        cache="warm", embeddings=False,
    ),
}


def reference_s() -> float:
    """A fixed pure-Python loop, timed beside every measured interval."""
    start = time.perf_counter()
    x = 0
    for i in range(REF_LOOPS):
        x += i
    return time.perf_counter() - start


def timed(fn, *args):
    """(result, seconds, scale): seconds is the wall time of fn, scale the
    factor that maps it to the nominal CPU, from the faster of the two
    reference loops around it."""
    before = reference_s()
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    return result, elapsed, REF_NOMINAL_S / min(before, reference_s())


def du(path: Path) -> int:
    """Bytes in the files under path (file sizes, not blocks)."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Bench:
    """One benchmark run of one workload inside the scratch directory `work`."""

    def __init__(self, wl: Workload, args, work: Path):
        self.wl, self.args, self.work = wl, args, work
        self.space = BUILTIN_SPACES["movie_sentiment"]
        templates = BUILTIN_TEMPLATES["movie_sentiment"]
        self.candidate = templates[CANDIDATE_ASSIGNMENT]
        self.final = templates[FINAL_PREDICTION]
        self.rule = MockRule(
            keywords={k: frozenset(v) for k, v in gen.mock_rules().items()},
            default=gen.DEFAULT_LABEL,
        )
        self.methods = [MethodSpec(name, alpha) for name, alpha in wl.methods]
        self.cells = [(m.label(), s, d) for m in self.methods for s in wl.shots for d in wl.seeds]
        self.data = work / "data"

    def mock(self, tracer=None):
        return tracing.Counted(MockBackend(self.rule, self.space), tracing.MODEL, tracer)

    def run_config(self, out_dir: Path):
        return RunConfig(methods=self.methods, shots=list(self.wl.shots),
                         seeds=list(self.wl.seeds), fallback=self.wl.fallback,
                         out_dir=out_dir)

    # -- set-up: everything before the first prediction ----------------------

    def setup_once(self):
        """Load the dataset and embeddings and build the lookup table, as
        ``marginsel eval`` does before its first prediction.  Returns the
        context and the unscaled seconds of each phase."""
        phases = {}
        start = time.perf_counter()
        train = load_dataset(self.data / "train.jsonl", self.space)
        test = load_dataset(self.data / "test.jsonl", self.space)
        phases["dataset.load_s"] = time.perf_counter() - start
        store = lookup = None
        if self.wl.embeddings:
            start = time.perf_counter()
            store = load_embeddings(self.data / "emb.jsonl")
            phases["knn.load_embeddings_s"] = time.perf_counter() - start
        if any(m.name == "marginsel" for m in self.methods):
            # No response cache here: 2000 cold-cache writes measured the
            # disk (0.2-1.6 s for the same files), not the program.
            backend = MockBackend(self.rule, self.space)
            start = time.perf_counter()
            lookup = build_lookup(train, backend, self.candidate, self.wl.in_flight)
            phases["selection.build_lookup_s"] = time.perf_counter() - start
        ctx = ExperimentContext(
            space=self.space, train=train, test=test, backend=None,
            candidate_template=self.candidate, final_template=self.final,
            lookup=lookup, store=store, max_in_flight=self.wl.in_flight,
        )
        return ctx, phases

    # -- one slice: one run_experiment over one test chunk --------------------

    def slice(self, ctx, k: int, tracer=None) -> dict:
        chunk = self.chunks[k % len(self.chunks)]
        slice_dir = self.work / f"slice{k}"
        model = self.mock(tracer)
        backend = model
        if self.wl.cache == "cold":
            backend = CachedBackend(model, slice_dir / "cache")
        elif self.wl.cache == "warm":
            backend = CachedBackend(model, self.warm_cache(k))
        requests = tracing.Counted(backend, tracing.REQUEST, tracer)
        sub = dataclasses.replace(ctx, test=Dataset(self.space, chunk), backend=requests)
        cfg = self.run_config(slice_dir / "run")
        if tracer is None:
            report, elapsed, scale = timed(run_experiment, sub, cfg)
        else:
            report, elapsed, scale = timed(tracer.call, tracing.ROOT, run_experiment, sub, cfg)
        result = {
            "k": k, "ids": [ex.id for ex in chunk], "dir": slice_dir / "run",
            "predictions": len(report.records), "seconds": elapsed, "scale": scale,
            "requests": requests.calls, "model_calls": model.calls, "disk": du(slice_dir),
            "fallbacks": sum(1 for r in report.records if r["fallback"]),
        }
        if self.wl.cache == "cold":
            shutil.rmtree(slice_dir / "cache")
        elif self.wl.cache == "warm":
            result["disk"] += du(self.warm_cache(k))
            first = self.first_pass[k % len(self.chunks)]
            result["identical"] = all(
                (result["dir"] / name).read_bytes() == data for name, data in first.items())
            shutil.rmtree(slice_dir)
        return result

    def warm_cache(self, k: int) -> Path:
        return self.work / f"warm{k % len(self.chunks)}" / "cache"

    def fill_warm_caches(self, ctx) -> None:
        """The untimed first pass of rerun-warm: one cache and one run
        directory per test chunk."""
        self.first_pass = []
        for n, chunk in enumerate(self.chunks):
            backend = CachedBackend(self.mock(), self.warm_cache(n))
            out = self.work / f"warm{n}" / "run"
            run_experiment(dataclasses.replace(ctx, test=Dataset(self.space, chunk),
                                               backend=backend), self.run_config(out))
            self.first_pass.append({name: (out / name).read_bytes()
                                    for name in ("records.jsonl", "report.json")})

    # -- the run -----------------------------------------------------------

    def run(self) -> int:
        wl, seconds = self.wl, self.args.seconds
        if wl.in_flight > 1:
            # Worker threads hand the interpreter lock to each other.  Across
            # two vCPUs that hand-off split run rates into two modes about 15%
            # apart; on one CPU ten-run spreads fell to 0.05-0.09.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        cmd = [sys.executable, str(HERE / "gen.py"), "--seed", str(self.args.seed),
               "--train", str(wl.train), "--test", str(wl.test), "--out", str(self.data)]
        subprocess.run(cmd + (["--embeddings"] if wl.embeddings else []), check=True)

        setups = []
        for _ in range(SETUP_RUNS):
            (ctx, phases), elapsed, scale = timed(self.setup_once)
            setups.append((elapsed * scale, elapsed, {k: v * scale for k, v in phases.items()}))
        self.chunks = [ctx.test.examples[i:i + wl.chunk]
                       for i in range(0, len(ctx.test.examples), wl.chunk)]
        if wl.cache == "warm":
            self.fill_warm_caches(ctx)

        slices, traced, spans = [], [], []
        start = time.perf_counter()
        rounds = 0
        # Whole rounds only: every chunk once per round.  With --trace 1 a
        # chunk is traced in every other round, so both halves see every
        # chunk equally often; at least two rounds run.
        while rounds < 1 + self.args.trace or time.perf_counter() - start < seconds:
            for c in range(len(self.chunks)):
                k = rounds * len(self.chunks) + c
                if self.args.trace and (c + rounds) % 2:
                    with tracing.Tracer() as tracer:
                        result = self.slice(ctx, k, tracer)
                    traced.append(result)
                    spans.append(tracing.summarize_spans(tracer.spans, result["scale"]))
                else:
                    slices.append(self.slice(ctx, k))
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        oracle = oracles.Oracle(self.data / "train.jsonl", self.data / "test.jsonl",
                                self.data / "emb.jsonl" if wl.embeddings else None)
        faults, scored = [], 0
        attempted = len(self.cells) * sum(len(s["ids"]) for s in slices + traced)
        for s in slices + traced:
            if wl.cache == "warm":
                if not s["identical"]:
                    faults.append(f"slice {s['k']}: rerun outputs differ from the first pass")
                if s["model_calls"]:
                    faults.append(f"slice {s['k']}: {s['model_calls']} model calls on a warm cache")
                scored += s["predictions"]
            else:
                got, found = oracle.check_run(s["dir"], s["ids"], self.cells, wl.fallback)
                scored += got
                faults += found
        if wl.cache == "warm":
            for n, chunk in enumerate(self.chunks):
                _, found = oracle.check_run(self.work / f"warm{n}" / "run",
                                            [ex.id for ex in chunk], self.cells, wl.fallback)
                faults += found
        for fault in faults[:20]:
            print("FAULT", fault, file=sys.stderr)
        print(f"{len(slices)} untraced and {len(traced)} traced slices; unscaled rate "
              f"{self.rate(slices, scaled=False):.6g}/s, unscaled setup "
              f"{statistics.median(s for _, s, _ in setups):.6g} s, median scale "
              f"{statistics.median(s['scale'] for s in slices):.4g}", file=sys.stderr)
        if self.args.trace:
            metrics = self.layer_metrics(setups, slices, traced, spans)
        else:
            metrics = {
                "predictions_per_s": (self.rate(slices), "1/s"),
                "setup_s": (statistics.median(s for s, _, _ in setups), "s"),
                "requests_per_prediction": (
                    sum(s["requests"] for s in slices) / sum(s["predictions"] for s in slices),
                    "count"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "disk_mb": (statistics.median(s["disk"] for s in slices) / 1e6, "MB"),
            }
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        print(json.dumps({
            "correct": not faults, "attempted": attempted, "failed": attempted - scored,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0 if not faults else 1

    def rate(self, slices: list[dict], scaled: bool = True) -> float:
        """Predictions per nominal-CPU second: each chunk's median scaled
        time over the rounds, summed over the chunks of one round.  The
        median drops slices hit by a slow spell; the sum weighs every chunk
        once, so each seed's rate covers the same mix of work."""
        by_chunk: dict[int, list[dict]] = defaultdict(list)
        for s in slices:
            by_chunk[s["k"] % len(self.chunks)].append(s)
        predictions = seconds = 0.0
        for runs in by_chunk.values():
            predictions += statistics.median(s["predictions"] for s in runs)
            seconds += statistics.median(
                s["seconds"] * (s["scale"] if scaled else 1.0) for s in runs)
        return predictions / seconds

    def layer_metrics(self, setups, slices, traced, spans) -> dict:
        total: dict = defaultdict(lambda: defaultdict(float))
        for summary in spans:
            for name, row in summary.items():
                for key, value in row.items():
                    total[name][key] += value
        predictions = sum(s["predictions"] for s in traced)

        def mean(name, key, unit_scale, calls_key="calls"):
            row = total[name]
            return row[key] / row[calls_key] * unit_scale if row[calls_key] else 0.0

        def per_prediction(value):
            return value / predictions

        def setup_phase(name):
            return statistics.median(phases.get(name, 0.0) for _, _, phases in setups)

        has_cache = self.wl.cache is not None
        return {
            "dataset.load_s": (setup_phase("dataset.load_s"), "s"),
            "knn.load_embeddings_s": (setup_phase("knn.load_embeddings_s"), "s"),
            "knn.retrieve_calls": (per_prediction(total["knn.knn_retrieve"]["calls"]), "count/pred"),
            "knn.retrieve_ms": (mean("knn.knn_retrieve", "total_s", 1e3), "ms"),
            "selection.build_lookup_s": (setup_phase("selection.build_lookup_s"), "s"),
            "selection.match_hard_ms": (mean("selection.match_hard", "total_s", 1e3), "ms"),
            "selection.weighted_sample_ms": (mean("selection.weighted_sample", "total_s", 1e3), "ms"),
            "selection.hard_pool_mean": (mean("selection.match_hard", "size", 1), "count"),
            "selection.select_demos_self_ms": (mean("selection.select_demos", "self_s", 1e3), "ms"),
            "selection.fallbacks": (per_prediction(sum(s["fallbacks"] for s in traced)), "count/pred"),
            "prompting.render_us": (mean("prompting.render", "total_s", 1e6), "us"),
            "prompting.parse_us": (mean("prompting.parse", "total_s", 1e6), "us"),
            "prompting.parse_failures": (per_prediction(total["prompting.parse"]["failed"]), "count/pred"),
            "llm_client.requests": (per_prediction(sum(s["requests"] for s in traced)), "count/pred"),
            "llm_client.model_calls": (per_prediction(sum(s["model_calls"] for s in traced)), "count/pred"),
            "llm_client.cache_hit_us": (
                mean("cache", "hit_total_s", 1e6, "hit_calls") if has_cache else 0.0, "us"),
            "llm_client.cache_miss_us": (
                mean("cache", "miss_self_s", 1e6, "miss_calls") if has_cache else 0.0, "us"),
            "llm_client.model_us": (mean(tracing.MODEL, "total_s", 1e6), "us"),
            "evalharness.predict_self_us": (mean("evalharness.predict_one", "self_s", 1e6), "us"),
            "evalharness.run_self_s": (mean(tracing.ROOT, "self_s", 1), "s"),
            "tracing.overhead_predictions_per_s": (self.rate(traced) - self.rate(slices), "1/s"),
        }
