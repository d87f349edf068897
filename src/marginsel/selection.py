"""Demonstration selection: lookup-table construction, hard-example matching
by exact candidate-set equality, inverse-frequency weighted sampling, and the
alpha-controlled mix with cosine-kNN retrieval.

The selection contract, end to end: a test input's candidate set (from the
multi-label assignment step) is matched bit-for-bit against the training
lookup table; up to round_half_up(alpha * n) matches are kept, downsampled
without replacement with weights 1/rho(gold) when the pool is larger; the
remaining slots are filled by cosine kNN over the training set (never when
alpha = 1).  ``select_demos`` returns the demos as (example, source) pairs,
the HARD picks before the KNN picks.

The weighted draw sums each pool's weights once per rho and finds each pick
by bisecting those prefix sums, certified against the documented sequential
protocol by a float error bound; a draw with a pick it cannot certify is
replayed by the protocol itself, so every pick is the protocol's.

The draw's seed does not depend on alpha or n, so a run draws each test
input's order once per seed (a ``PrefixDraw``) and every cell reads its hard
picks as a prefix of that order: the first k picks of a deeper draw are the
picks of a k-draw.  The random baseline's uniform draws are read the same
way.
"""

from __future__ import annotations

import bisect
import itertools
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
    label.  ``sums`` maps label weights, in ``labels`` order, to the rows'
    weights and their sequential prefix sums, filled by the first draw under
    them."""

    def __new__(cls, entries: Sequence[LookupEntry] = ()):
        pool = super().__new__(cls, entries)
        pool.labels = tuple(dict.fromkeys(e.example.gold for e in pool))
        code = {label: i for i, label in enumerate(pool.labels)}
        pool.codes = np.array([code[e.example.gold] for e in pool], dtype=np.intp)
        pool.sums = {}
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


def assign_candidates(
    backend: Backend,
    template: PromptTemplate,
    texts: Sequence[str],
    space: LabelSpace,
    pool: Executor | None = None,
) -> list[CandidateSet]:
    """Step 1 for inputs, training or test, in order: render the multi-label
    assignment prompt of each distinct text here, send them through the
    request pool (or here, without one) in first-occurrence order, and parse
    each distinct reply here, once, into a candidate set that every input
    with that reply shares.  Inputs with the same text share one request, so
    a backend that samples gives the same sets with the cache on and off.

    A reply that carries no parseable known label yields the empty set
    (logged for each text that gets it, never fatal), which can never
    hard-match anything.
    """
    by_text: dict[str, CandidateSet] = dict.fromkeys(texts)
    prompts = (render_candidate_prompt(template, text, space) for text in by_text)
    parsed: dict[str, CandidateSet] = {}
    for text, reply in zip(list(by_text), complete_all(backend, prompts, pool)):
        candidate_set = parsed.get(reply)
        if candidate_set is None:
            try:
                candidate_set = parsed[reply] = parse_label_tags(reply, space, multi=True)
            except (NoTag, EmptySet) as exc:
                log.warning("candidate parse failed for %.60r: %s", text, exc)
                candidate_set = CandidateSet.empty(space)
        by_text[text] = candidate_set
    return [by_text[text] for text in texts]


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
    takes the first index whose cumulative weight (a sequential float64 sum
    over the remaining entries) exceeds r, else the last remaining one; this
    exact protocol is part of the contract so that an independent replay
    reproduces the draws bit-for-bit.

    The picks are found by ``_certified_picks``, a search over the pool's
    prefix sums that proves each pick equal to the protocol's; when it
    cannot, the draw is ``_replay``, the protocol step for step.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    try:
        label_weights = tuple(rho.weight(label) for label in pool.labels)
    except KeyError as exc:
        raise MissingFrequency(exc.args[0]) from None
    if len(pool) <= k:
        return list(pool)
    # The prefix sums are kept per pool under the label weights they were
    # summed from, so a draw under another rho never reads them.
    summed = pool.sums.get(label_weights)
    if summed is None:
        weights = np.array(label_weights)[pool.codes]
        summed = pool.sums[label_weights] = (weights, weights.cumsum().tolist())
    weights, sums = summed
    picks = _certified_picks(weights, sums, k, random.Random(seed))
    if picks is None:
        picks = _replay(weights, k, random.Random(seed))
    return [pool[i] for i in picks]


def _certified_picks(
    weights: np.ndarray, sums: list[float], k: int, rng: random.Random
) -> list[int] | None:
    """The protocol's k picks, found without summing the pool again, or None
    when a pick cannot be proven to be the protocol's.

    ``sums`` are the sequential prefix sums S of the rows' ``weights``, and
    T = S[-1] their total.  With R_i the
    summed weights of the rows picked so far at or before i (summed in the
    order of their indices) and R their sum, the protocol's prefix sum over
    the remaining rows at row i is estimated by E_i = S_i - R_i and its total
    by T - R, and r by rng.random() * (T - R).  The first remaining i with
    E_i > r is found by bisecting S for r + R_i, repeated until the picks at
    or before i no longer change.

    Bound.  With u = 2**-53 and W the exact total, recursive summation of n
    positive terms errs by at most gamma_n * W, gamma_n = n*u / (1 - n*u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2).  That bounds the error of S_i, of the protocol's own sum
    over the remaining rows and of R_i (k < n terms) by gamma_n * W each,
    and the subtraction S_i - R_i adds at most 2u * W.  So E_i and the
    protocol's prefix sum at i differ by at most (3 gamma_n + 2u) * W, as do
    T - R and the protocol's total; r and the protocol's r, the same
    rng.random() <= 1 times each total, rounded once, by at most
    (3 gamma_n + 5u) * W.  E_i - r and the protocol's difference therefore
    differ by about (6n + 8) * u * W at most, the last subtraction's
    rounding included, which for every n >= 2 stays below the margin
    M = 16 * n * u * T (T >= (1 - gamma_n) * W).  A pick is certified when
    E_i - r > M, r - E_(i-1) > M (if i > 0) and r + M < T - R: the
    protocol's prefix sums then exceed r at i and at no row before it (its
    sum at i - 1 is its sum at the previous remaining row, since a picked
    row adds 0.0), so its pick is i too.
    """
    n = len(sums)
    total = sums[-1]
    margin = 16 * n * 2.0 ** -53 * total
    picks: list[int] = []
    rows: list[int] = []  # the picks in index order
    picked: list[float] = []  # their weights, in the same order
    before = [0.0]  # before[j]: the summed weights of rows[:j]
    for _ in range(k):
        left = total - before[-1]
        r = rng.random() * left
        j = 0
        while True:
            i = bisect.bisect_right(sums, r + before[j])
            at_or_before = bisect.bisect_right(rows, i)
            if at_or_before == j:
                break
            j = at_or_before
        if i == n or (j and rows[j - 1] == i):  # only rounding lands on a picked row
            return None
        # i is not picked, so R_(i-1) = R_i
        if not (sums[i] - before[j] - r > margin and r + margin < left
                and (i == 0 or r - (sums[i - 1] - before[j]) > margin)):
            return None
        picks.append(i)
        rows.insert(j, i)
        picked.insert(j, float(weights[i]))
        before = [0.0, *itertools.accumulate(picked)]
    return picks


def _replay(weights: np.ndarray, k: int, rng: random.Random) -> list[int]:
    """The protocol's k picks, step for step: picked weights are set to 0.0
    and every pick sums them afresh.  Adding 0.0 is exact, so each sum is
    the sequential sum over the remaining rows, and a pick never lands on a
    zeroed row."""
    weights = weights.copy()
    picks = []
    for _ in range(k):
        cumulative = weights.cumsum()
        r = rng.random() * cumulative[-1]
        chosen = int(cumulative.searchsorted(r, side="right"))
        if chosen == len(weights):  # r reached the total: the last remaining row
            chosen = int(weights.nonzero()[0][-1])
        picks.append(chosen)
        weights[chosen] = 0.0
    return picks


class PrefixDraw:
    """One draw order, drawn once and read as prefixes: the first k picks of
    a deeper draw must be the picks of a k-draw.  It is drawn at least
    ``depth`` deep, so that a run's deepest read draws it only once, and it
    keeps the picks only.  A draw that raises keeps nothing, so every later
    take raises too.  ``seed`` is the seed its owner derived for the order,
    once, when it made it."""

    __slots__ = ("depth", "seed", "picks")

    def __init__(self, depth: int = 0, *, seed: int):
        self.depth = depth
        self.seed = seed
        self.picks: list | None = None

    def take(self, k: int, size: int, draw: Callable[[int], list]) -> list:
        """The first k picks of the order over ``size`` items that draw(n)
        draws n deep.  The order is drawn, as deep as ``depth`` or k and
        never deeper than size, only when the order so far is shorter than
        min(k, size)."""
        if self.picks is None or len(self.picks) < min(k, size):
            self.picks = draw(min(max(self.depth, k), size))
        return self.picks[:k]


def hard_picks(draw: PrefixDraw, pool: Pool, k: int, rho: LabelFrequency) -> list[LookupEntry]:
    """weighted_sample(pool, k, rho, draw.seed), read off ``draw``, the
    pool's order for its seed.  A pool that fits in k is returned whole, so
    the order never goes deeper than len(pool) - 1; it is still drawn, so
    that a label with no frequency raises."""
    if not pool:
        return []
    fits = len(pool) <= k
    picks = draw.take(0 if fits else k, len(pool) - 1,
                      lambda depth: weighted_sample(pool, depth, rho, draw.seed))
    return list(pool) if fits else picks


def select_demos(
    table: LookupTable,
    test_candidates: CandidateSet | None,
    neighbours: Ranking | None,
    rho: LabelFrequency,
    alpha: float,
    shots: int,
    draw: PrefixDraw,
) -> list[tuple[Example, str]]:
    """One test input's demonstrations as (example, source) pairs, the HARD
    picks before the KNN picks.

    Hard quota h = round_half_up(alpha * shots).  When alpha < 1, kNN fills
    every remaining slot (including any hard shortfall) with the first ids
    of the test input's neighbour ranking over the lookup's ids that are not
    already picked, so the list reaches ``shots`` whenever the pool allows.
    When alpha = 1 the list is the matched pool capped at h, and an empty
    pool raises EmptySelection for the caller's fallback policy.

    test_candidates may be None (or empty) when the assignment step failed
    for the test input; the matched pool is then empty.  The hard picks are
    a prefix of ``draw``, the test input's draw order for ``draw.seed``,
    which this call fills when it is not yet deep enough."""
    if not table:
        raise ValueError("lookup table is empty")
    quota = round_half_up(alpha * shots)
    if test_candidates is None or test_candidates.is_empty:
        matched = EMPTY_POOL
    else:
        matched = match_hard(table, test_candidates)
    hard = hard_picks(draw, matched, quota, rho) if quota else []
    demos = [(e.example, HARD) for e in hard]
    if alpha == 1.0:
        if not matched:
            raise EmptySelection("no training example shares the test candidate set")
        return demos
    if neighbours is None:
        raise ValueError("alpha < 1 requires the test input's neighbour ranking")
    taken = neighbours.take(shots - len(hard), {ex.id for ex, _ in demos})
    return demos + [(table.examples[i], KNN) for i in taken]
