"""End-to-end prediction loop and experiment runner.

A run is a grid of (method, shot count, seed) cells over a fixed train/test
split.  Methods: ``random`` (uniform demos), ``knn`` (cosine neighbors) and
``marginsel`` (hard-example selection at a given alpha).  Each cell predicts
every test example, scores macro-F1, and persists per-example records so an
interrupted run resumes without recomputing finished cells.  Reports carry
per-cell scores, per-(method, shot) mean/stdev over seeds, and a paired
t-test marker against the baseline method.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import random
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from scipy import stats as scipy_stats

from .core import CandidateSet, Example, LabelSpace, MarginSelError, canonical_label
from .dataset import Dataset, LabelFrequency, label_frequency
from .knn import EmbeddingStore, Ranking, knn_retrieve, rank
from .llm_client import Backend, map_concurrently
from .prompting import (
    Ambiguous,
    EmptySet,
    NoTag,
    PromptTemplate,
    parse_label_tags,
    render_candidate_prompt,  # not called here; bench/tracing.py spans this binding
    render_final_prompt,
)
from .selection import (
    EmptySelection,
    LookupEntry,
    SelectionConfig,
    assign_candidates,
    build_lookup,
    check_lookup,
    select_demos,
)

log = logging.getLogger(__name__)

INVALID = "__invalid__"

RANDOM = "random"
KNN_METHOD = "knn"
MARGINSEL = "marginsel"

FALLBACK_KNN = "knn"
FALLBACK_RANDOM = "random"


class EmptyInput(MarginSelError):
    pass


def macro_f1(
    pairs: Sequence[tuple[str, str]], space: LabelSpace, average: str = "macro"
) -> float:
    """Mean per-class F1 over every class of the space.

    A class scores 2TP/(2TP+FP+FN), or 0 when that denominator is 0.
    Predictions outside the space (including the reserved INVALID token)
    count as wrong for every class: a false negative for the gold class, a
    false positive for none.  average='weighted' weights classes by gold
    support instead of uniformly.
    """
    if not pairs:
        raise EmptyInput("no (gold, predicted) pairs to score")
    if average not in ("macro", "weighted"):
        raise ValueError(f"unknown average {average!r}")
    tp: dict[str, int] = {c: 0 for c in space.labels}
    fp: dict[str, int] = {c: 0 for c in space.labels}
    fn: dict[str, int] = {c: 0 for c in space.labels}
    support: dict[str, int] = {c: 0 for c in space.labels}
    for gold, predicted in pairs:
        gold = canonical_label(gold)
        if gold not in tp:
            raise MarginSelError(f"gold label {gold!r} outside the label space")
        support[gold] += 1
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
    if average == "macro":
        return sum(scores.values()) / len(space)
    total = sum(support.values())
    return sum(scores[c] * support[c] for c in space.labels) / total


@dataclass(frozen=True)
class MethodSpec:
    name: str
    alpha: float | None = None

    def __post_init__(self):
        if self.name not in (RANDOM, KNN_METHOD, MARGINSEL):
            raise ValueError(f"unknown method {self.name!r}")
        if self.name == MARGINSEL and self.alpha is None:
            raise ValueError("marginsel needs an alpha")

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
    average: str = "macro"
    baseline: str = RANDOM
    out_dir: str | Path | None = None

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method required")
        if not self.seeds:
            raise ValueError("at least one seed required")
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
    lookup: Sequence[LookupEntry] | None = None  # a LookupTable, or wrapped per call
    store: EmbeddingStore | None = None
    max_in_flight: int = 4
    rho: LabelFrequency | None = None  # derived from train when not given

    def __post_init__(self):
        if self.rho is None:
            self.rho = label_frequency(self.train)
        if self.lookup is not None:
            check_lookup(self.lookup, self.train)


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


def _ranking(
    ctx: ExperimentContext, needed_by: str, test: Example, rankings: dict[str, Ranking]
) -> Ranking:
    """The test input's neighbour ranking over the train split: ranked the
    first time a run needs it, then read from the run's ``rankings``.  A
    duplicate fill from another thread is harmless, since ranking is
    deterministic."""
    ranking = rankings.get(test.id)
    if ranking is None:
        if ctx.store is None:
            raise MarginSelError(f"{needed_by} needs an embedding store")
        ranking = rankings[test.id] = rank(ctx.store, test.id, ctx.train.ids(), knn_retrieve)
    return ranking


def _knn_demos(
    ctx: ExperimentContext, needed_by: str, shots: int, test: Example,
    rankings: dict[str, Ranking],
) -> list[tuple[Example, str]]:
    ids = _ranking(ctx, needed_by, test, rankings).take(shots)
    return [(ctx.train.by_id(i), "knn") for i in ids]


def _random_demos(
    ctx: ExperimentContext, tag: str, shots: int, test: Example, seed: int
) -> list[tuple[Example, str]]:
    """Uniform demos drawn with the seed derived from (seed, tag, test id)."""
    rng = random.Random(derive_seed(seed, tag, test.id))
    picked = rng.sample(ctx.train.examples, min(shots, len(ctx.train)))
    return [(ex, "random") for ex in picked]


def _fallback_demos(
    ctx: ExperimentContext, policy: str, shots: int, test: Example, seed: int,
    rankings: dict[str, Ranking],
) -> list[tuple[Example, str]]:
    if policy == FALLBACK_KNN:
        return _knn_demos(ctx, "knn fallback", shots, test, rankings)
    return _random_demos(ctx, "fallback", shots, test, seed)


def _choose_demos(
    ctx: ExperimentContext,
    method: MethodSpec,
    shots: int,
    test: Example,
    seed: int,
    fallback_policy: str,
    step1: CandidateSet | None,
    rankings: dict[str, Ranking],
) -> tuple[list[tuple[Example, str]], CandidateSet | None, bool]:
    """Demos as (example, source) pairs, the test's assignment-step candidate
    set (marginsel only; assigned here unless given), and whether the fallback fired."""
    if method.name == RANDOM:
        return _random_demos(ctx, "random", shots, test, seed), None, False
    if method.name == KNN_METHOD:
        return _knn_demos(ctx, "knn method", shots, test, rankings), None, False

    if step1 is None:
        step1 = assign_candidates(ctx.backend, ctx.candidate_template, test.text, ctx.space)
    selection_cfg = SelectionConfig(
        alpha=method.alpha,
        shots=shots,
        seed=derive_seed(seed, "marginsel", test.id),
    )
    neighbours = None
    if method.alpha < 1.0:
        neighbours = _ranking(ctx, "marginsel at alpha < 1", test, rankings)
    try:
        demo_set = select_demos(ctx.lookup, step1, neighbours, ctx.rho, selection_cfg)
        return [(e.example, e.source) for e in demo_set], step1, False
    except EmptySelection:
        return _fallback_demos(ctx, fallback_policy, shots, test, seed, rankings), step1, True


def predict_one(
    ctx: ExperimentContext,
    method: MethodSpec,
    shots: int,
    test: Example,
    seed: int,
    fallback_policy: str = FALLBACK_KNN,
    step1: CandidateSet | None = None,
    rankings: dict[str, Ranking] | None = None,
) -> tuple[str, dict]:
    """Predict one test example: select demos per method, render the final
    prompt, parse the single-label reply; a malformed reply predicts the
    INVALID token.  step1 is the test's assignment-step candidate set when
    the caller already has it (marginsel only); rankings is the run's table
    of neighbour rankings by test id, which kNN fills and reads (without it,
    the test input is ranked on the spot)."""
    demos, step1, fell_back = _choose_demos(
        ctx, method, shots, test, seed, fallback_policy, step1,
        {} if rankings is None else rankings,
    )
    pairs = [(ex.text, ex.gold) for ex, _ in demos]
    system, user = render_final_prompt(ctx.final_template, pairs, test.text, ctx.space)
    reply, _ = ctx.backend.complete(system, user)
    try:
        predicted = parse_label_tags(reply, ctx.space, multi=False)
    except (NoTag, EmptySet, Ambiguous) as exc:
        log.warning("final parse failed for %s: %s", test.id, exc)
        predicted = INVALID
    record = {
        "method": method.label(),
        "shot": shots,
        "seed": seed,
        "id": test.id,
        "gold": test.gold,
        "predicted": predicted,
        "demo_ids": [ex.id for ex, _ in demos],
        "demo_sources": [src for _, src in demos],
        "step1": None if step1 is None or step1.is_empty else sorted(step1.labels_in(ctx.space)),
        "fallback": fell_back,
    }
    return predicted, record


def _cell_key(record: dict) -> tuple:
    return (record["method"], record["shot"], record["seed"])


def load_records(path: Path) -> dict[tuple, dict[str, dict]]:
    """A run directory's ``records.jsonl`` as {(method, shot, seed): {id:
    record}}, in file order; empty when the file does not exist."""
    cells: dict[tuple, dict[str, dict]] = {}
    if not path.exists():
        return cells
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            cells.setdefault(_cell_key(record), {})[record["id"]] = record
    return cells


def run_experiment(ctx: ExperimentContext, cfg: RunConfig) -> RunReport:
    """Execute the full grid.  Already-recorded cells are skipped; per-cell
    failures are annotated rather than aborting the run.  Step 1 runs at most
    once per test example per run, when a marginsel cell first needs it, and
    so does the test example's neighbour ranking, when kNN first needs it."""
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

    step1: dict[str, CandidateSet] = {}  # test id -> step-1 candidate set
    rankings: dict[str, Ranking] = {}  # test id -> neighbour ranking over train
    all_records: list[dict] = []
    cells: list[dict] = []
    for method in cfg.methods:
        for shot in cfg.shots:
            for seed in cfg.seeds:
                key = (method.label(), shot, seed)
                cached = existing.get(key, {})
                cell = {
                    "method": method.label(),
                    "alpha": method.alpha,
                    "shot": shot,
                    "seed": seed,
                }
                try:
                    pending = [
                        ex for ex in ctx.test.examples if ex.id not in cached
                    ]
                    if method.name == MARGINSEL:
                        missing = tuple(ex for ex in pending if ex.id not in step1)
                        assigned = build_lookup(Dataset(ctx.space, missing), ctx.backend,
                                                ctx.candidate_template, ctx.max_in_flight)
                        step1.update((e.example.id, e.candidates) for e in assigned)
                    fresh = map_concurrently(
                        lambda ex: predict_one(
                            ctx, method, shot, ex, seed, cfg.fallback, step1.get(ex.id),
                            rankings,
                        )[1],
                        pending,
                        ctx.max_in_flight,
                    )
                    if fresh and records_path:
                        # flushed as soon as a cell finishes so an
                        # interrupted run resumes without recomputation
                        with open(records_path, "a", encoding="utf-8") as fh:
                            fh.write(_jsonl(fresh))
                    cell_records = list(cached.values()) + list(fresh)
                    cell_records.sort(key=lambda r: test_order[r["id"]])
                    pairs = [(r["gold"], r["predicted"]) for r in cell_records]
                    cell["macro_f1"] = macro_f1(pairs, ctx.space, cfg.average)
                    all_records.extend(cell_records)
                except MarginSelError as exc:
                    log.error("cell %s failed: %s", key, exc)
                    cell["error"] = str(exc)
                cells.append(cell)

    summary = _summarize(cells, cfg)
    report = RunReport(cells=cells, summary=summary, records=all_records)
    if out_dir:
        _persist(report, out_dir)
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
                a = [x for x, _ in paired]
                b = [y for _, y in paired]
                _, pvalue = scipy_stats.ttest_rel(a, b)
                significant = bool(pvalue < 0.05) if pvalue == pvalue else False
                row["p_vs_baseline"] = None if pvalue != pvalue else float(pvalue)
                row["significant_vs_baseline"] = significant
        summary.append(row)
    return summary


def _jsonl(records: Sequence[dict]) -> str:
    """Records as ``records.jsonl`` lines, the format load_records reads."""
    return "".join(
        json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n" for record in records
    )


def _csv(rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _replace_file(path: Path, text: str) -> None:
    """Write text to path through a temporary file in the same directory, so
    an interrupted write leaves the previous file whole."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _persist(report: RunReport, out_dir: Path) -> None:
    records_sorted = sorted(report.records, key=_cell_key)
    _replace_file(out_dir / "records.jsonl", _jsonl(records_sorted))
    _replace_file(
        out_dir / "report.json",
        json.dumps(
            {"cells": report.cells, "summary": report.summary},
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )
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
    _replace_file(out_dir / "report.csv", _csv(rows))


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
        _replace_file(
            out_dir / "sweep.json", json.dumps(rows, indent=2, sort_keys=True) + "\n"
        )
        table = [["alpha", "mean_macro_f1"]]
        table += [[repr(row["alpha"]), repr(row["mean_macro_f1"])] for row in rows]
        _replace_file(out_dir / "sweep.csv", _csv(table))
    return rows
