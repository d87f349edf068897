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

from .core import (
    CandidateSet,
    Example,
    LabelSpace,
    MarginSelError,
    candidate_set_from_labels,
    round_half_up,
)
from .dataset import Dataset, LabelFrequency
from .knn import EmbeddingStore, knn_retrieve
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
) -> list[LookupEntry]:
    """Run step 1 over every example of a dataset, in dataset order.

    Entries whose assignment failed carry the empty candidate set: they are
    kept for bookkeeping but can never hard-match a test input.
    """

    def assign(example: Example) -> LookupEntry:
        candidates = assign_candidates(backend, template, example.text, train.space)
        return LookupEntry(example=example, candidates=candidates)

    return map_concurrently(assign, train.examples, max_in_flight)


def save_lookup(entries: Sequence[LookupEntry], path: str | Path, space: LabelSpace) -> None:
    """Persist the lookup table as JSON-lines with candidate labels spelled
    out in space order; reloading reproduces bit-identical candidate sets."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(
                json.dumps(
                    {
                        "id": entry.example.id,
                        "text": entry.example.text,
                        "gold": entry.example.gold,
                        "candidates": list(entry.candidates.labels_in(space)),
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def load_lookup(path: str | Path, space: LabelSpace) -> list[LookupEntry]:
    entries: list[LookupEntry] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            entries.append(
                LookupEntry(
                    example=Example(
                        id=record["id"], text=record["text"], gold=record["gold"]
                    ),
                    candidates=candidate_set_from_labels(record["candidates"], space),
                )
            )
    return entries


def match_hard(
    lookup: Sequence[LookupEntry], test_candidates: CandidateSet
) -> list[LookupEntry]:
    """Entries whose candidate set is bit-identical to the test's, in lookup
    order.  Empty-set (parse-failure) entries never match."""
    if test_candidates.is_empty:
        raise ValueError("test candidate set must be non-empty")
    return [e for e in lookup if e.candidates == test_candidates]


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
    takes the first index whose cumulative weight exceeds r; this exact
    protocol is part of the contract so that an independent replay
    reproduces the draws bit-for-bit.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    weights = []
    for entry in matched:
        try:
            weights.append(rho.weight(entry.example.gold))
        except KeyError:
            raise MissingFrequency(entry.example.gold) from None
    if len(matched) <= k:
        return list(matched)
    pool = list(matched)
    rng = random.Random(seed)
    picked: list[LookupEntry] = []
    for _ in range(k):
        total = sum(weights)
        r = rng.random() * total
        acc = 0.0
        chosen = len(pool) - 1
        for i, w in enumerate(weights):
            acc += w
            if r < acc:
                chosen = i
                break
        picked.append(pool.pop(chosen))
        weights.pop(chosen)
    return picked


def select_demos(
    lookup: Sequence[LookupEntry],
    test_candidates: CandidateSet | None,
    knn_index: tuple[EmbeddingStore, str] | None,
    rho: LabelFrequency,
    cfg: SelectionConfig,
) -> DemoSet:
    """Compose the demonstration set for one test input.

    Hard quota h = round_half_up(alpha * n).  When alpha < 1, kNN fills every
    remaining slot (including any hard shortfall) from the training pool,
    excluding already-picked ids, so the set reaches n whenever the pool
    allows.  When alpha = 1 the set is the matched pool capped at h, and an
    empty pool raises EmptySelection for the caller's fallback policy.

    test_candidates may be None (or empty) when the assignment step failed
    for the test input; the matched pool is then empty.
    """
    if not lookup:
        raise ValueError("lookup table is empty")
    quota = round_half_up(cfg.alpha * cfg.shots)
    if test_candidates is None or test_candidates.is_empty:
        matched: list[LookupEntry] = []
    else:
        matched = match_hard(lookup, test_candidates)
    hard = weighted_sample(matched, quota, rho, cfg.seed) if quota else []

    if cfg.alpha == 1.0:
        if not matched:
            raise EmptySelection("no training example shares the test candidate set")
        entries = [DemoEntry(e.example, HARD) for e in hard]
        return DemoSet(tuple(entries))

    if knn_index is None:
        raise ValueError("alpha < 1 requires a (store, query_id) knn index")
    store, query_id = knn_index
    hard_ids = {e.example.id for e in hard}
    by_id = {e.example.id: e.example for e in lookup}
    neighbor_ids = knn_retrieve(
        store,
        query_id,
        cfg.shots - len(hard),
        candidate_ids=list(by_id),
        exclude_ids=hard_ids,
    )
    entries = [DemoEntry(e.example, HARD) for e in hard]
    entries += [DemoEntry(by_id[nid], KNN) for nid in neighbor_ids]
    return DemoSet(tuple(entries))
