"""End-to-end prediction loop and experiment runner.

A run is a grid of (method, shot count, seed) cells over a fixed train/test
split.  Methods: ``random`` (uniform demos), ``knn`` (cosine neighbors) and
``marginsel`` (hard-example selection at a given alpha).  Each cell predicts
every test example, scores macro-F1, and persists per-example records so an
interrupted run resumes without recomputing finished cells.  One
``Selector`` per run holds each test example's step-1 candidate set,
neighbour ranking and draw orders, and is the one place a demo set is
composed.  Reports carry per-cell scores, per-(method, shot) mean/stdev over
seeds, and a paired t-test marker against the baseline method.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import numbers
import random
import statistics
from concurrent.futures import Executor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from scipy import stats as scipy_stats

from .core import (
    CandidateSet,
    Example,
    LabelSpace,
    MarginSelError,
    canonical_label,
    replace_file,
    write_csv,
    write_json,
)
from .dataset import Dataset, LabelFrequency, label_frequency
from .knn import CandidateIndex, EmbeddingStore, Ranking, build_index, knn_retrieve, rank
from .llm_client import Backend, check_in_flight, complete_all, request_pool
from .prompting import (
    Ambiguous,
    EmptySet,
    NoTag,
    PromptTemplate,
    parse_label_tags,
    render_candidate_prompt,  # step 1 renders in selection; bench/tracing.py spans this binding
    render_final_prompt,
)
from .selection import (
    DemoSet,
    EmptySelection,
    LookupTable,
    PrefixDraw,
    SelectionConfig,
    assign_candidates,
    check_lookup,
    select_demos,
)

log = logging.getLogger(__name__)

INVALID = "__invalid__"

# one encoder for every records.jsonl line: json.dumps builds one per call
_RECORD_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)

RANDOM = "random"
KNN_METHOD = "knn"
MARGINSEL = "marginsel"

FALLBACK_KNN = "knn"
FALLBACK_RANDOM = "random"


class EmptyInput(MarginSelError):
    pass


class NoEmbeddingStore(MarginSelError):
    """kNN needs the test input's ranking, and the context holds no store."""


def macro_f1(pairs: Sequence[tuple[str, str]], space: LabelSpace) -> float:
    """Mean per-class F1 over every class of the space.

    A class scores 2TP/(2TP+FP+FN), or 0 when that denominator is 0.
    Predictions outside the space (including the reserved INVALID token)
    count as wrong for every class: a false negative for the gold class, a
    false positive for none.
    """
    if not pairs:
        raise EmptyInput("no (gold, predicted) pairs to score")
    tp: dict[str, int] = {c: 0 for c in space.labels}
    fp: dict[str, int] = {c: 0 for c in space.labels}
    fn: dict[str, int] = {c: 0 for c in space.labels}
    for gold, predicted in pairs:
        gold = canonical_label(gold)
        if gold not in tp:
            raise MarginSelError(f"gold label {gold!r} outside the label space")
        pred = canonical_label(predicted)
        if pred == gold:
            tp[gold] += 1
        else:
            fn[gold] += 1
            if pred in fp:
                fp[pred] += 1
    scores = {}
    for c in space.labels:
        denom = 2 * tp[c] + fp[c] + fn[c]
        scores[c] = 2 * tp[c] / denom if denom else 0.0
    return sum(scores.values()) / len(space)


@dataclass(frozen=True)
class MethodSpec:
    name: str
    alpha: float | None = None

    def __post_init__(self):
        if self.name not in (RANDOM, KNN_METHOD, MARGINSEL):
            raise ValueError(f"unknown method {self.name!r}")
        if self.name == MARGINSEL and self.alpha is None:
            raise ValueError("marginsel needs an alpha")
        if self.alpha is not None and (
                isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real)
                or not 0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be a real number in [0, 1], not {self.alpha!r}")

    def label(self) -> str:
        if self.name == MARGINSEL:
            return f"marginsel(alpha={self.alpha:g})"
        return self.name


@dataclass
class RunConfig:
    methods: list[MethodSpec]
    shots: list[int] = field(default_factory=lambda: [2, 4, 6, 8, 10])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    fallback: str = FALLBACK_KNN
    baseline: str = RANDOM
    out_dir: str | Path | None = None

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method required")
        for name, values in (("shots", self.shots), ("seeds", self.seeds)):
            if (not isinstance(values, (list, tuple)) or not values
                    or any(isinstance(v, bool) or not isinstance(v, int) for v in values)
                    or len(set(values)) < len(values)):
                raise ValueError(f"{name} must be a non-empty list of distinct integers, "
                                 f"not {values!r}")
        if any(s < 1 for s in self.shots):
            raise ValueError("shot counts must be positive")
        if self.fallback not in (FALLBACK_KNN, FALLBACK_RANDOM):
            raise ValueError(f"unknown fallback policy {self.fallback!r}")
        labels = [m.label() for m in self.methods]
        if len(set(labels)) < len(labels):
            raise ValueError(f"a method is listed more than once: {', '.join(labels)}")


@dataclass
class ExperimentContext:
    space: LabelSpace
    train: Dataset
    test: Dataset
    backend: Backend
    candidate_template: PromptTemplate | None = None
    final_template: PromptTemplate | None = None
    lookup: LookupTable | None = None
    store: EmbeddingStore | None = None
    max_in_flight: int = 4
    rho: LabelFrequency = field(init=False)  # label_frequency of train
    # the train split the index was built from, and the index; an init field
    # so that dataclasses.replace hands it on instead of rebuilding it
    knn_index: tuple[Dataset, CandidateIndex] | None = field(default=None, repr=False)

    def __post_init__(self):
        check_in_flight(self.max_in_flight)
        self.rho = label_frequency(self.train)
        if self.lookup is not None:
            check_lookup(self.lookup, self.train)
        if self.store is not None:
            self.train_index()

    def train_index(self) -> CandidateIndex:
        """The train ids prepared for ranking against the store: built with
        the context, and rebuilt only after the store or the train split was
        replaced."""
        built = self.knn_index
        if built is None or built[0] is not self.train or built[1].store is not self.store:
            built = self.knn_index = (self.train, build_index(self.store, self.train.ids()))
        return built[1]


@dataclass
class RunReport:
    cells: list[dict]
    summary: list[dict]
    records: list[dict]

    @property
    def failed_cells(self) -> list[dict]:
        return [c for c in self.cells if c.get("error")]


def derive_seed(base_seed: int, *parts: str) -> int:
    """Stable per-example seed derivation (never the built-in hash, which is
    randomized per process)."""
    digest = hashlib.blake2b(
        "|".join([str(base_seed), *parts]).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _uniform_draw(population: Sequence, depth: int, seed: int) -> list:
    """depth distinct members of population, drawn uniformly without
    replacement: random.Random(seed) draws randrange(len(population)) until
    it holds depth distinct indices, drawing again on a repeat.  That is step
    for step the loop random.sample runs in its set branch (more than 21 rows
    at up to 5 picks, more than 85 rows at up to 21), so there the two draw
    the same picks, and a shorter draw is always a prefix of a deeper one."""
    rng = random.Random(seed)
    picked: dict[int, None] = {}
    while len(picked) < depth:
        picked.setdefault(rng.randrange(len(population)))
    return [population[j] for j in picked]


class Selector:
    """The demos of a run's test inputs, composed here and only here so that
    ``select`` shows what ``predict`` and ``eval`` use.  It holds the run's
    step-1 candidate sets and neighbour rankings by test id, and its draw
    orders by (stream, test id, seed), where the stream is the tag the
    draw's seed is derived with: "marginsel" for the hard draw, "random" for
    the random method's uniform draw and "fallback" for the random
    fallback's.  Each is made once, when a cell first needs it, and only the
    calling thread selects demos.  Every draw order goes ``depth`` deep, the
    largest shot count it serves, and every cell reads a prefix of it: a
    hard quota round_half_up(alpha * n) is never more than n."""

    def __init__(self, ctx: ExperimentContext, fallback: str | None, depth: int):
        self.ctx = ctx
        self.fallback = fallback  # the policy when marginsel's selection is empty
        self.depth = depth
        self.step1: dict[str, CandidateSet] = {}
        self.rankings: dict[str, Ranking] = {}
        self.draws: dict[tuple[str, str, int], PrefixDraw] = {}

    def assign(self, tests: Sequence[Example], pool: Executor | None = None) -> None:
        """Step 1 for the test inputs that have no candidate set yet, with
        the requests sent through ``pool`` (or here, without one)."""
        ctx = self.ctx
        missing = [ex for ex in tests if ex.id not in self.step1]
        self.step1.update(zip([ex.id for ex in missing], assign_candidates(
            ctx.backend, ctx.candidate_template, [ex.text for ex in missing], ctx.space, pool)))

    def _draw(self, stream: str, test: Example, seed: int) -> PrefixDraw:
        draw = self.draws.get((stream, test.id, seed))
        if draw is None:
            draw = self.draws[stream, test.id, seed] = PrefixDraw(self.depth)
        return draw

    def _ranking(self, needed_by: str, test: Example) -> Ranking:
        """The test input's neighbour ranking over the train split, ranked
        against the context's train index."""
        ranking = self.rankings.get(test.id)
        if ranking is None:
            ctx = self.ctx
            if ctx.store is None:
                raise NoEmbeddingStore(f"{needed_by} needs an embedding store")
            ranking = self.rankings[test.id] = rank(
                ctx.store, test.id, ctx.train_index(), knn_retrieve)
        return ranking

    def _knn(self, needed_by: str, shots: int, test: Example) -> list[tuple[Example, str]]:
        ids = self._ranking(needed_by, test).take(shots)
        return [(self.ctx.train.by_id(i), "knn") for i in ids]

    def _uniform(self, stream: str, shots: int, test: Example, seed: int
                 ) -> list[tuple[Example, str]]:
        """The first ``shots`` uniform demos of the (stream, test, seed)
        draw, seeded from (seed, stream, test id); the whole train split
        when it holds no more than shots."""
        examples = self.ctx.train.examples
        picked = self._draw(stream, test, seed).take(
            shots, len(examples),
            lambda depth: _uniform_draw(examples, depth, derive_seed(seed, stream, test.id)))
        return [(ex, "random") for ex in picked]

    def marginsel(self, alpha: float, shots: int, test: Example, seed: int) -> DemoSet:
        """MarginSel's demonstrations for one test input: select_demos over
        the lookup table with the test's step-1 candidate set (None before
        assign, or empty when assignment failed), the hard picks a prefix of
        the draw seeded from (seed, "marginsel", test id) and, when alpha <
        1, the test's neighbour ranking.
        Raises EmptySelection at alpha = 1 when nothing matches."""
        ctx = self.ctx
        cfg = SelectionConfig(alpha, shots, derive_seed(seed, MARGINSEL, test.id))
        neighbours = self._ranking("marginsel at alpha < 1", test) if alpha < 1.0 else None
        return select_demos(ctx.lookup, self.step1.get(test.id), neighbours, ctx.rho, cfg,
                            self._draw(MARGINSEL, test, seed))

    def _demos(self, method: MethodSpec, shots: int, test: Example, seed: int
               ) -> tuple[list[tuple[Example, str]], bool]:
        """Demos as (example, source) pairs, and whether the fallback fired."""
        if method.name == RANDOM:
            return self._uniform("random", shots, test, seed), False
        if method.name == KNN_METHOD:
            return self._knn("knn method", shots, test), False
        try:
            demo_set = self.marginsel(method.alpha, shots, test, seed)
        except EmptySelection:
            if self.fallback == FALLBACK_KNN:
                return self._knn("knn fallback", shots, test), True
            return self._uniform("fallback", shots, test, seed), True
        return [(e.example, e.source) for e in demo_set], False

    def predict(self, method: MethodSpec, shots: int, seed: int, tests: Sequence[Example],
                pool: Executor | None = None) -> list[dict]:
        """One cell's records for ``tests``: step 1 for marginsel, then every
        input's demos and final prompt here, only the requests through the
        pool (or here, without one), and each reply parsed here; a malformed
        reply predicts the INVALID token."""
        ctx = self.ctx
        if method.name == MARGINSEL:
            self.assign(tests, pool)
        records = []
        inputs = []  # (demo (text, gold) pairs, test text) per record
        for test in tests:
            sets = self.step1[test.id] if method.name == MARGINSEL else None
            demos, fell_back = self._demos(method, shots, test, seed)
            records.append({
                "method": method.label(),
                "shot": shots,
                "seed": seed,
                "id": test.id,
                "gold": test.gold,
                "demo_ids": [ex.id for ex, _ in demos],
                "demo_sources": [src for _, src in demos],
                "step1": (None if sets is None or sets.is_empty
                          else sorted(sets.labels_in(ctx.space))),
                "fallback": fell_back,
            })
            inputs.append(([(ex.text, ex.gold) for ex, _ in demos], test.text))
        prompts = (render_final_prompt(ctx.final_template, pairs, text, ctx.space)
                   for pairs, text in inputs)
        for record, reply in zip(records, complete_all(ctx.backend, prompts, pool)):
            try:
                record["predicted"] = parse_label_tags(reply, ctx.space, multi=False)
            except (NoTag, EmptySet, Ambiguous) as exc:
                log.warning("final parse failed for %s: %s", record["id"], exc)
                record["predicted"] = INVALID
        return records


def predict_one(
    ctx: ExperimentContext,
    method: MethodSpec,
    shots: int,
    test: Example,
    seed: int,
    fallback_policy: str = FALLBACK_KNN,
) -> tuple[str, dict]:
    """Predict one test example with the stages of a run, every request on
    the calling thread.  Each draw goes ``shots`` deep, which is the prefix
    a run's deeper draw gives this cell."""
    [record] = Selector(ctx, fallback_policy, shots).predict(method, shots, seed, [test])
    return record["predicted"], record


def _cell_key(record: dict) -> tuple:
    return (record["method"], record["shot"], record["seed"])


def load_records(path: Path) -> dict[tuple, dict[str, dict]]:
    """A run directory's ``records.jsonl`` as {(method, shot, seed): {id:
    record}}, in file order; empty when the file does not exist.  A last
    line with no newline that does not parse is the torn tail of an
    interrupted append and is skipped; any other bad line raises."""
    cells: dict[tuple, dict[str, dict]] = {}
    if not path.exists():
        return cells
    *lines, tail = path.read_text(encoding="utf-8").split("\n")
    for line_no, line in enumerate([*lines, tail], start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            key, example_id = _cell_key(record), record["id"]
        except (json.JSONDecodeError, KeyError, TypeError):
            if line_no <= len(lines):
                raise MarginSelError(f"{path}, line {line_no}: not a run record") from None
            continue
        cells.setdefault(key, {})[example_id] = record
    return cells


def run_experiment(ctx: ExperimentContext, cfg: RunConfig) -> RunReport:
    """Execute the full grid.  Already-recorded cells are skipped; per-cell
    failures are annotated rather than aborting the run, and a failed cell
    keeps the records it already had.  One Selector serves the run, so a
    test example's step 1 and neighbour ranking run at most once per run,
    and each of its draw orders once per seed, as deep as the largest shot
    count.
    One request pool of ``ctx.max_in_flight`` workers serves the whole run;
    only backend requests run in it, and everything else runs here, cell by
    cell in grid order."""
    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    records_path = out_dir / "records.jsonl" if out_dir else None
    existing = load_records(records_path) if records_path else {}
    test_order = {ex.id: i for i, ex in enumerate(ctx.test.examples)}
    stale = sorted({i for recs in existing.values() for i in recs} - test_order.keys())
    if stale:
        raise MarginSelError(
            f"run directory {out_dir} holds records of ids outside the test split "
            f"(first: {stale[0]!r}); use another eval.out_dir or remove it"
        )
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    if records_path and records_path.exists():
        # cut a torn last line, so that the next append starts a line of its own
        with open(records_path, "rb+") as fh:
            fh.truncate(fh.read().rfind(b"\n") + 1)

    # each record's records.jsonl line, encoded once (never without a run directory)
    encode = _line if records_path else lambda record: ""
    selector = Selector(ctx, cfg.fallback, max(cfg.shots))
    all_records: list[tuple[dict, str]] = []  # (record, its line)
    cells: list[dict] = []
    with request_pool(ctx.max_in_flight) as pool:
        for method, shot, seed in itertools.product(cfg.methods, cfg.shots, cfg.seeds):
            key = (method.label(), shot, seed)
            cached = existing.get(key, {})
            cell = {"method": method.label(), "alpha": method.alpha, "shot": shot, "seed": seed}
            cell_records = [(r, encode(r)) for r in cached.values()]
            try:
                pending = [ex for ex in ctx.test.examples if ex.id not in cached]
                fresh = [(r, encode(r))
                         for r in selector.predict(method, shot, seed, pending, pool)]
                if fresh and records_path:
                    # flushed as soon as a cell finishes so an
                    # interrupted run resumes without recomputation
                    with open(records_path, "a", encoding="utf-8") as fh:
                        fh.write("".join(line for _, line in fresh))
                cell_records += fresh
                pairs = [(r["gold"], r["predicted"]) for r, _ in cell_records]
                cell["macro_f1"] = macro_f1(pairs, ctx.space)
            except MarginSelError as exc:
                log.error("cell %s failed: %s", key, exc)
                cell["error"] = str(exc)
            cell_records.sort(key=lambda pair: test_order[pair[0]["id"]])
            all_records.extend(cell_records)
            cells.append(cell)

    summary = _summarize(cells, cfg)
    report = RunReport(cells=cells, summary=summary, records=[r for r, _ in all_records])
    if out_dir:
        all_records.sort(key=lambda pair: _cell_key(pair[0]))
        _persist(report, out_dir, "".join(line for _, line in all_records))
    return report


def _summarize(cells: list[dict], cfg: RunConfig) -> list[dict]:
    by_group: dict[tuple, dict[int, float]] = {}
    for cell in cells:
        if "macro_f1" not in cell:
            continue
        group = by_group.setdefault((cell["method"], cell["shot"]), {})
        group[cell["seed"]] = cell["macro_f1"]
    summary = []
    for (method, shot), scores in sorted(by_group.items()):
        values = [scores[s] for s in sorted(scores)]
        row = {
            "method": method,
            "shot": shot,
            "mean_macro_f1": statistics.mean(values),
            "stdev_macro_f1": statistics.stdev(values) if len(values) > 1 else 0.0,
        }
        base = by_group.get((cfg.baseline, shot))
        if base is not None and method != cfg.baseline and len(values) > 1:
            paired = [
                (scores[s], base[s]) for s in sorted(scores) if s in base
            ]
            if len(paired) > 1:
                # Constant paired differences have no variance to test, and
                # ttest_rel on differences equal up to rounding reports a
                # spurious p near 0 with a precision-loss warning.
                diffs = [x - y for x, y in paired]
                pvalue = None
                if max(diffs) - min(diffs) > 1e-12:
                    pvalue = float(scipy_stats.ttest_rel(*zip(*paired)).pvalue)
                row["p_vs_baseline"] = pvalue
                row["significant_vs_baseline"] = pvalue is not None and pvalue < 0.05
        summary.append(row)
    return summary


def _line(record: dict) -> str:
    """A record as a ``records.jsonl`` line, the format load_records reads."""
    return _RECORD_ENCODER.encode(record) + "\n"


def _persist(report: RunReport, out_dir: Path, records_text: str) -> None:
    """The run's artifacts: records_text, its records' lines sorted by cell,
    as ``records.jsonl``, and the reports."""
    replace_file(out_dir / "records.jsonl", records_text)
    write_json(out_dir / "report.json", {"cells": report.cells, "summary": report.summary})
    rows = [["method", "alpha", "shot", "seed", "macro_f1"]]
    for cell in report.cells:
        rows.append(
            [
                cell["method"],
                "" if cell.get("alpha") is None else repr(cell["alpha"]),
                cell["shot"],
                cell["seed"],
                repr(cell["macro_f1"]) if "macro_f1" in cell else "error",
            ]
        )
    write_csv(out_dir / "report.csv", rows)


def alpha_sweep(
    ctx: ExperimentContext, cfg: RunConfig, alphas: Sequence[float]
) -> list[dict]:
    """One run with a marginsel method per alpha value (cfg's shots, seeds
    and fallback; its methods are replaced), aggregated into a table of
    per-alpha mean macro-F1 over all shots and seeds.  The run directory is
    ``<out_dir>/sweep``; the table goes to ``<out_dir>/sweep.json`` and
    ``sweep.csv``."""
    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    methods = [MethodSpec(MARGINSEL, alpha=alpha) for alpha in alphas]
    run_dir = out_dir / "sweep" if out_dir else None
    report = run_experiment(ctx, replace(cfg, methods=methods, out_dir=run_dir))
    rows = []
    for method in methods:
        cells = [c for c in report.cells if c["method"] == method.label()]
        scored = [c["macro_f1"] for c in cells if "macro_f1" in c]
        rows.append(
            {
                "alpha": method.alpha,
                "cells": cells,
                "mean_macro_f1": statistics.mean(scored) if scored else None,
            }
        )
    if out_dir:
        write_json(out_dir / "sweep.json", rows)
        table = [["alpha", "mean_macro_f1"]]
        table += [[repr(row["alpha"]), repr(row["mean_macro_f1"])] for row in rows]
        write_csv(out_dir / "sweep.csv", table)
    return rows
