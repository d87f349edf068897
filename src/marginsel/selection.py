"""Demonstration selection: lookup-table construction, hard-example matching
by exact candidate-set equality, inverse-frequency weighted sampling, and the
alpha-controlled mix with cosine-kNN retrieval.

The selection contract, end to end: a test input's candidate set (from the
multi-label assignment step) is matched bit-for-bit against the training
lookup table; up to round_half_up(alpha * n) matches are kept, downsampled
without replacement with weights 1/rho(gold) when the pool is larger; the
remaining slots are filled by cosine kNN over the training set (never when
alpha = 1).  Hard picks precede kNN picks in the returned set.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    CandidateSet,
    Example,
    LabelSpace,
    MarginSelError,
    candidate_set_from_labels,
    round_half_up,
)
from .dataset import Dataset, LabelFrequency
from .knn import EmbeddingStore, Ranking, knn_retrieve, rank
from .llm_client import Backend, map_concurrently
from .prompting import (
    EmptySet,
    NoTag,
    PromptTemplate,
    parse_label_tags,
    render_candidate_prompt,
)

log = logging.getLogger(__name__)

HARD = "hard"
KNN = "knn"


class MissingFrequency(MarginSelError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"no positive frequency recorded for label {label!r}")


class EmptySelection(MarginSelError):
    """alpha = 1 and no training example matches the test candidate set."""


@dataclass(frozen=True)
class LookupEntry:
    example: Example
    candidates: CandidateSet


class Pool(tuple):
    """Lookup entries in lookup order; ``labels[codes[i]]`` is row i's gold
    label.  Equal to a list or tuple of the same entries."""

    def __new__(cls, entries: Sequence[LookupEntry] = ()):
        pool = super().__new__(cls, entries)
        pool.labels = tuple(dict.fromkeys(e.example.gold for e in pool))
        code = {label: i for i, label in enumerate(pool.labels)}
        pool.codes = np.array([code[e.example.gold] for e in pool], dtype=np.intp)
        return pool

    def __eq__(self, other):
        return isinstance(other, (list, tuple)) and tuple(self) == tuple(other)

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's comparison


class LookupTable(Pool):
    """A lookup table indexed once: ``pools`` maps each candidate set to the
    pool of rows that carry it, and ``examples`` maps ids to examples."""

    def __new__(cls, entries: Sequence[LookupEntry] = ()):
        table = super().__new__(cls, entries)
        groups: dict[CandidateSet, list[LookupEntry]] = {}
        for entry in table:
            groups.setdefault(entry.candidates, []).append(entry)
        table.pools = {candidates: Pool(rows) for candidates, rows in groups.items()}
        table.examples = {e.example.id: e.example for e in table}
        table.split = None  # the train examples check_lookup last accepted
        return table


def _as_table(lookup: Sequence[LookupEntry]) -> LookupTable:
    return lookup if isinstance(lookup, LookupTable) else LookupTable(lookup)


class StaleLookup(MarginSelError):
    """The lookup table does not hold the train split's examples in order."""


def check_lookup(lookup: Sequence[LookupEntry], train: Dataset) -> None:
    """Refuse a lookup table built from another split: a test input could
    pick itself as a demonstration, and kNN, which ranks the train split,
    could pick an id the table does not hold.  A table remembers the split
    it last passed with, so checking it again against that split is free."""
    table = _as_table(lookup)
    if table.split is train.examples:
        return
    if tuple(e.example for e in table) != train.examples:
        raise StaleLookup("the lookup table does not hold the train split's examples in order")
    table.split = train.examples


@dataclass(frozen=True)
class SelectionConfig:
    alpha: float
    shots: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


@dataclass(frozen=True)
class DemoEntry:
    example: Example
    source: str  # HARD or KNN


@dataclass(frozen=True)
class DemoSet:
    entries: tuple[DemoEntry, ...]

    def __post_init__(self):
        ids = [e.example.id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate example id in demonstration set")
        sources = [e.source for e in self.entries]
        if any(s not in (HARD, KNN) for s in sources):
            raise ValueError(f"unknown demo source in {sources}")
        first_knn = next((i for i, s in enumerate(sources) if s == KNN), len(sources))
        if any(s == HARD for s in sources[first_knn:]):
            raise ValueError("hard demos must precede knn demos")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def ids(self) -> list[str]:
        return [e.example.id for e in self.entries]


def assign_candidates(
    backend: Backend, template: PromptTemplate, text: str, space: LabelSpace
) -> CandidateSet:
    """Step 1 for one input, training or test: render the multi-label
    assignment prompt, send it, and parse the reply into a candidate set.

    A reply that carries no parseable known label yields the empty set
    (logged, never fatal), which can never hard-match anything.
    """
    system, user = render_candidate_prompt(template, text, space)
    reply, _ = backend.complete(system, user)
    try:
        return parse_label_tags(reply, space, multi=True)
    except (NoTag, EmptySet) as exc:
        log.warning("candidate parse failed for %.60r: %s", text, exc)
        return CandidateSet.empty(space)


def build_lookup(
    train: Dataset,
    backend: Backend,
    template: PromptTemplate,
    max_in_flight: int = 4,
) -> LookupTable:
    """Run step 1 over every example of a dataset, in dataset order.

    Entries whose assignment failed carry the empty candidate set: they are
    kept for bookkeeping but can never hard-match a test input.
    """

    def assign(example: Example) -> LookupEntry:
        candidates = assign_candidates(backend, template, example.text, train.space)
        return LookupEntry(example=example, candidates=candidates)

    return LookupTable(map_concurrently(assign, train.examples, max_in_flight))


def save_lookup(entries: Sequence[LookupEntry], path: str | Path, space: LabelSpace) -> None:
    """Persist the lookup table as JSON-lines with candidate labels spelled
    out in space order; reloading reproduces bit-identical candidate sets."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            record = {"id": e.example.id, "text": e.example.text, "gold": e.example.gold,
                      "candidates": list(e.candidates.labels_in(space))}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_lookup(path: str | Path, space: LabelSpace) -> LookupTable:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return LookupTable(
        LookupEntry(Example(r["id"], r["text"], r["gold"]),
                    candidate_set_from_labels(r["candidates"], space))
        for r in records
    )


def match_hard(lookup: Sequence[LookupEntry], test_candidates: CandidateSet) -> Pool:
    """Entries whose candidate set is bit-identical to the test's, in lookup
    order.  Empty-set (parse-failure) entries never match."""
    if test_candidates.is_empty:
        raise ValueError("test candidate set must be non-empty")
    return _as_table(lookup).pools.get(test_candidates, Pool())


def weighted_sample(
    matched: Sequence[LookupEntry],
    k: int,
    rho: LabelFrequency,
    seed: int,
) -> list[LookupEntry]:
    """Inverse-frequency sampling without replacement.

    Returns the pool unchanged when it fits in k.  Otherwise performs k
    sequential draws with random.Random(seed): each draw picks index i with
    probability w_i / sum(remaining w), where w_i = 1/rho(gold_i), then
    removes it.  Concretely each draw computes r = rng.random() * total and
    takes the first index whose cumulative weight (a sequential float64 sum)
    exceeds r, else the last; this exact protocol is part of the contract
    so that an independent replay reproduces the draws bit-for-bit.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    pool = matched if isinstance(matched, Pool) else Pool(matched)
    try:
        label_weights = np.array([rho.weight(label) for label in pool.labels])
    except KeyError as exc:
        raise MissingFrequency(exc.args[0]) from None
    if len(pool) <= k:
        return list(pool)
    # A picked weight is zeroed in place: adding 0.0 leaves every cumulative
    # sum bit-identical to the sum over the remaining entries, and
    # searchsorted(side="right") never lands on a zeroed slot.
    weights = label_weights[pool.codes]
    rng = random.Random(seed)
    picked: list[LookupEntry] = []
    for _ in range(k):
        cumulative = weights.cumsum()
        r = rng.random() * cumulative[-1]
        chosen = int(cumulative.searchsorted(r, side="right"))
        if chosen == len(pool):  # r reached the total: the last remaining entry
            chosen = int(weights.nonzero()[0][-1])
        picked.append(pool[chosen])
        weights[chosen] = 0.0
    return picked


def select_demos(
    lookup: Sequence[LookupEntry],
    test_candidates: CandidateSet | None,
    neighbours: Ranking | tuple[EmbeddingStore, str] | None,
    rho: LabelFrequency,
    cfg: SelectionConfig,
) -> DemoSet:
    """Compose the demonstration set for one test input.

    Hard quota h = round_half_up(alpha * n).  When alpha < 1, kNN fills every
    remaining slot (including any hard shortfall) with the first ids of the
    test input's neighbour ranking over the lookup's ids that are not
    already picked, so the set reaches n whenever the pool allows.  A
    (store, query_id) pair is ranked here.  When alpha = 1 the set is the
    matched pool capped at h, and an empty pool raises EmptySelection for
    the caller's fallback policy.

    test_candidates may be None (or empty) when the assignment step failed
    for the test input; the matched pool is then empty.
    """
    table = _as_table(lookup)
    if not table:
        raise ValueError("lookup table is empty")
    quota = round_half_up(cfg.alpha * cfg.shots)
    if test_candidates is None or test_candidates.is_empty:
        matched = Pool()
    else:
        matched = match_hard(table, test_candidates)
    hard = weighted_sample(matched, quota, rho, cfg.seed) if quota else []

    if cfg.alpha == 1.0:
        if not matched:
            raise EmptySelection("no training example shares the test candidate set")
        entries = [DemoEntry(e.example, HARD) for e in hard]
        return DemoSet(tuple(entries))

    if neighbours is None:
        raise ValueError("alpha < 1 requires the test input's neighbour ranking")
    if isinstance(neighbours, tuple):
        store, query_id = neighbours
        neighbours = rank(store, query_id, list(table.examples), knn_retrieve)
    hard_ids = {e.example.id for e in hard}
    neighbor_ids = neighbours.take(cfg.shots - len(hard), hard_ids)
    entries = [DemoEntry(e.example, HARD) for e in hard]
    entries += [DemoEntry(table.examples[nid], KNN) for nid in neighbor_ids]
    return DemoSet(tuple(entries))
