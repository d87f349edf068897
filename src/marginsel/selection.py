"""Demonstration selection: lookup-table construction, hard-example matching
by exact candidate-set equality, inverse-frequency weighted sampling, and the
alpha-controlled mix with cosine-kNN retrieval.

The selection contract, end to end: a test input's candidate set (from the
multi-label assignment step) is matched bit-for-bit against the training
lookup table; up to round_half_up(alpha * n) matches are kept, downsampled
without replacement with weights 1/rho(gold) when the pool is larger; the
remaining slots are filled by cosine kNN over the training set (never when
alpha = 1).  Hard picks precede kNN picks in the returned set.

The draw's seed does not depend on alpha or n, so a run draws each test
input's order once per seed (a ``PrefixDraw``) and every cell reads its hard
picks as a prefix of that order: the first k picks of a deeper draw are the
picks of a k-draw.  The random baseline's uniform draws are read the same
way.
"""

from __future__ import annotations

import json
import logging
import random
from concurrent.futures import Executor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import (
    CandidateSet,
    Example,
    LabelSpace,
    MarginSelError,
    candidate_set_from_labels,
    replace_file,
    round_half_up,
)
from .dataset import Dataset, LabelFrequency
from .knn import (
    Ranking,
    knn_retrieve,  # not called here; bench/tracing.py spans this binding
)
from .llm_client import Backend, complete_all, request_pool
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
    label."""

    def __new__(cls, entries: Sequence[LookupEntry] = ()):
        pool = super().__new__(cls, entries)
        pool.labels = tuple(dict.fromkeys(e.example.gold for e in pool))
        code = {label: i for i, label in enumerate(pool.labels)}
        pool.codes = np.array([code[e.example.gold] for e in pool], dtype=np.intp)
        return pool


EMPTY_POOL = Pool()


class LookupTable(tuple):
    """Lookup entries in order, indexed once: ``pools`` maps each candidate
    set to the pool of rows that carry it, and ``examples`` maps ids to
    examples."""

    def __new__(cls, entries: Sequence[LookupEntry] = ()):
        table = super().__new__(cls, entries)
        groups: dict[CandidateSet, list[LookupEntry]] = {}
        for entry in table:
            groups.setdefault(entry.candidates, []).append(entry)
        table.pools = {candidates: Pool(rows) for candidates, rows in groups.items()}
        table.examples = {e.example.id: e.example for e in table}
        return table


class StaleLookup(MarginSelError):
    """The lookup table does not hold the train split's examples in order."""


def check_lookup(table: LookupTable, train: Dataset) -> None:
    """Refuse a lookup table built from another split: a test input could
    pick itself as a demonstration, and kNN, which ranks the train split,
    could pick an id the table does not hold."""
    if tuple(e.example for e in table) != train.examples:
        raise StaleLookup("the lookup table does not hold the train split's examples in order")


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
    backend: Backend,
    template: PromptTemplate,
    texts: Sequence[str],
    space: LabelSpace,
    pool: Executor | None = None,
) -> list[CandidateSet]:
    """Step 1 for inputs, training or test, in order: render each
    multi-label assignment prompt here, send the prompts through the request
    pool (or here, without one), and parse each reply here into a candidate
    set.

    A reply that carries no parseable known label yields the empty set
    (logged, never fatal), which can never hard-match anything.
    """
    prompts = (render_candidate_prompt(template, text, space) for text in texts)
    candidates = []
    for text, reply in zip(texts, complete_all(backend, prompts, pool)):
        try:
            candidates.append(parse_label_tags(reply, space, multi=True))
        except (NoTag, EmptySet) as exc:
            log.warning("candidate parse failed for %.60r: %s", text, exc)
            candidates.append(CandidateSet.empty(space))
    return candidates


def build_lookup(
    train: Dataset,
    backend: Backend,
    template: PromptTemplate,
    max_in_flight: int = 4,
) -> LookupTable:
    """Run step 1 over every example of a dataset, in dataset order, with up
    to max_in_flight requests in flight.

    Entries whose assignment failed carry the empty candidate set: they are
    kept for bookkeeping but can never hard-match a test input.
    """
    with request_pool(max_in_flight) as pool:
        candidates = assign_candidates(
            backend, template, [ex.text for ex in train.examples], train.space, pool
        )
    return LookupTable(map(LookupEntry, train.examples, candidates))


def save_lookup(entries: Sequence[LookupEntry], path: str | Path, space: LabelSpace) -> None:
    """Persist the lookup table as JSON-lines with candidate labels spelled
    out in space order; reloading reproduces bit-identical candidate sets."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    replace_file(path, "".join(
        json.dumps({"id": e.example.id, "text": e.example.text, "gold": e.example.gold,
                    "candidates": list(e.candidates.labels_in(space))}, ensure_ascii=False)
        + "\n"
        for e in entries
    ))


def load_lookup(path: str | Path, space: LabelSpace) -> LookupTable:
    """The table ``save_lookup`` wrote; a bad line raises naming its file and line."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                if line.strip():
                    r = json.loads(line)
                    entries.append(LookupEntry(Example(r["id"], r["text"], r["gold"]),
                                               candidate_set_from_labels(r["candidates"], space)))
            except (ValueError, KeyError, TypeError, MarginSelError) as exc:
                raise MarginSelError(f"{path}, line {line_no}: bad lookup entry: {exc}") from None
    return LookupTable(entries)


def match_hard(table: LookupTable, test_candidates: CandidateSet) -> Pool:
    """Entries whose candidate set is bit-identical to the test's, in lookup
    order.  Empty-set (parse-failure) entries never match."""
    if test_candidates.is_empty:
        raise ValueError("test candidate set must be non-empty")
    return table.pools.get(test_candidates, EMPTY_POOL)


def weighted_sample(
    pool: Pool,
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
    so that an independent replay reproduces the draws bit-for-bit.  The
    cumulative weights carry over from draw to draw: after a pick only those
    from the pick onwards are summed again, starting from the unchanged sum
    before it, which equals a fresh sum over the remaining weights.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    try:
        label_weights = np.array([rho.weight(label) for label in pool.labels])
    except KeyError as exc:
        raise MissingFrequency(exc.args[0]) from None
    if len(pool) <= k:
        return list(pool)
    # A picked weight is zeroed in place: adding 0.0 leaves every cumulative
    # sum bit-identical to the sum over the remaining entries, and
    # searchsorted(side="right") never lands on a zeroed slot.  The re-sum
    # seeds the pick's slot with the sum before it; accumulate adds in
    # sequence, so the sums equal a fresh cumsum bit for bit.
    weights = label_weights[pool.codes]
    cumulative = weights.cumsum()
    rng = random.Random(seed)
    picked: list[LookupEntry] = []
    for n in range(1, k + 1):
        r = rng.random() * cumulative[-1]
        chosen = int(cumulative.searchsorted(r, side="right"))
        if chosen == len(pool):  # r reached the total: the last remaining entry
            chosen = int(weights.nonzero()[0][-1])
        picked.append(pool[chosen])
        if n < k:
            weights[chosen] = cumulative[chosen - 1] if chosen else 0.0
            np.add.accumulate(weights[chosen:], out=cumulative[chosen:])
            weights[chosen] = 0.0
    return picked


class PrefixDraw:
    """One draw order, drawn once and read as prefixes: the first k picks of
    a deeper draw must be the picks of a k-draw.  It is drawn at least
    ``depth`` deep, so that a run's deepest read draws it only once, and it
    keeps the picks only.  A draw that raises keeps nothing, so every later
    take raises too."""

    __slots__ = ("depth", "picks")

    def __init__(self, depth: int = 0):
        self.depth = depth
        self.picks: list | None = None

    def take(self, k: int, size: int, draw: Callable[[int], list]) -> list:
        """The first k picks of the order over ``size`` items that draw(n)
        draws n deep.  The order is drawn, as deep as ``depth`` or k and
        never deeper than size, only when the order so far is shorter than
        min(k, size)."""
        if self.picks is None or len(self.picks) < min(k, size):
            self.picks = draw(min(max(self.depth, k), size))
        return self.picks[:k]


def hard_picks(
    draw: PrefixDraw, pool: Pool, k: int, rho: LabelFrequency, seed: int
) -> list[LookupEntry]:
    """weighted_sample(pool, k, rho, seed), read off ``draw``, the pool's
    order for the seed.  A pool that fits in k is returned whole, so the
    order never goes deeper than len(pool) - 1; it is still drawn, so that a
    label with no frequency raises."""
    if not pool:
        return []
    fits = len(pool) <= k
    picks = draw.take(0 if fits else k, len(pool) - 1,
                      lambda depth: weighted_sample(pool, depth, rho, seed))
    return list(pool) if fits else picks


def select_demos(
    table: LookupTable,
    test_candidates: CandidateSet | None,
    neighbours: Ranking | None,
    rho: LabelFrequency,
    cfg: SelectionConfig,
    draw: PrefixDraw | None = None,
) -> DemoSet:
    """Compose the demonstration set for one test input.

    Hard quota h = round_half_up(alpha * n).  When alpha < 1, kNN fills every
    remaining slot (including any hard shortfall) with the first ids of the
    test input's neighbour ranking over the lookup's ids that are not
    already picked, so the set reaches n whenever the pool allows.  When
    alpha = 1 the set is the matched pool capped at h, and an empty pool
    raises EmptySelection for the caller's fallback policy.

    test_candidates may be None (or empty) when the assignment step failed
    for the test input; the matched pool is then empty.  The hard picks come
    from ``draw``, the test input's draw order for cfg.seed, which this call
    fills when it is not yet deep enough; without one they come from a fresh
    order.
    """
    if not table:
        raise ValueError("lookup table is empty")
    quota = round_half_up(cfg.alpha * cfg.shots)
    if test_candidates is None or test_candidates.is_empty:
        matched = EMPTY_POOL
    else:
        matched = match_hard(table, test_candidates)
    if draw is None:
        draw = PrefixDraw()
    hard = hard_picks(draw, matched, quota, rho, cfg.seed) if quota else []

    if cfg.alpha == 1.0:
        if not matched:
            raise EmptySelection("no training example shares the test candidate set")
        entries = [DemoEntry(e.example, HARD) for e in hard]
        return DemoSet(tuple(entries))

    if neighbours is None:
        raise ValueError("alpha < 1 requires the test input's neighbour ranking")
    hard_ids = {e.example.id for e in hard}
    neighbor_ids = neighbours.take(cfg.shots - len(hard), hard_ids)
    entries = [DemoEntry(e.example, HARD) for e in hard]
    entries += [DemoEntry(table.examples[nid], KNN) for nid in neighbor_ids]
    return DemoSet(tuple(entries))
