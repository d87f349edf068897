"""Embedding store and exact cosine nearest-neighbor retrieval.

Retrieval is a full scan plus sort: the pools this pipeline deals with are a
few thousand vectors at most, so exactness is cheap and reproducible.  Ties
break by ascending id.  A ``CandidateIndex`` is the candidate side of every
ranking over one candidate list, built once: the candidates' rows in
ascending-id order, their norms, and the candidates that cannot be scored.
A query over it is one matrix-vector product and one stable sort.  A
``Ranking`` keeps one query's full order so that later queries with other
exclusions are a walk along it.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import chain, compress, filterfalse, islice
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import MarginSelError


class DimensionMismatch(MarginSelError):
    def __init__(self, entry_id: str):
        self.entry_id = entry_id
        super().__init__(f"vector for {entry_id!r} has a different dimension")


class EmbeddingParseError(MarginSelError):
    pass


class ZeroNorm(MarginSelError):
    pass


class UnknownId(MarginSelError):
    def __init__(self, entry_id: str):
        self.entry_id = entry_id
        super().__init__(f"no embedding stored for id {entry_id!r}")


@dataclass(frozen=True, eq=False)
class EmbeddingStore:
    """Vectors as one read-only float64 matrix in file order, by id and by row."""

    dimension: int
    matrix: np.ndarray
    row: dict[str, int]  # id -> row
    norms: np.ndarray
    vectors: dict[str, np.ndarray]  # id -> row view, not a copy

    def __len__(self) -> int:
        return len(self.row)

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self.row

    def get(self, entry_id: str) -> np.ndarray:
        try:
            return self.vectors[entry_id]
        except KeyError:
            raise UnknownId(entry_id) from None


def build_store(items: Iterable[tuple[str, Sequence[float]]]) -> EmbeddingStore:
    row: dict[str, int] = {}
    buffer = array("d")
    dimension = -1
    for entry_id, raw in items:
        vec = np.asarray(raw, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise EmbeddingParseError(f"vector for {entry_id!r} is not a flat array")
        if not np.all(np.isfinite(vec)):
            raise EmbeddingParseError(f"vector for {entry_id!r} has NaN/Inf entries")
        if dimension < 0:
            dimension = vec.size
        elif vec.size != dimension:
            raise DimensionMismatch(entry_id)
        if entry_id in row:
            raise EmbeddingParseError(f"duplicate embedding id {entry_id!r}")
        row[entry_id] = len(row)
        buffer.frombytes(vec.tobytes())
    matrix = np.frombuffer(buffer, dtype=np.float64).reshape(len(row), max(dimension, 0))
    matrix.flags.writeable = False
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    vectors = {entry_id: matrix[i] for entry_id, i in row.items()}
    return EmbeddingStore(dimension, matrix, row, norms, vectors)


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Load a JSON-lines embedding file with fields ``id`` and ``vector``.
    Lines starting with '#' and blank lines are skipped."""

    def records():
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip() or line.startswith("#"):
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise EmbeddingParseError(f"{path}, line {line_no}: invalid JSON: {exc.msg}")
                if not isinstance(record, dict) or "id" not in record or "vector" not in record:
                    raise EmbeddingParseError(f"{path}, line {line_no}: need 'id' and 'vector'")
                if not isinstance(record["vector"], list) or not all(
                    type(x) in (int, float) for x in record["vector"]
                ):
                    raise EmbeddingParseError(f"{path}, line {line_no}: vector is not numeric")
                yield record["id"], record["vector"]

    return build_store(records())


def _row(store: EmbeddingStore, entry_id: str) -> int:
    try:
        return store.row[entry_id]
    except KeyError:
        raise UnknownId(entry_id) from None


@dataclass(frozen=True, eq=False)
class CandidateIndex:
    """One candidate list prepared for ranking any number of queries against
    one store.  The candidates fall in three parts: those with a nonzero
    vector (``ids``, ``rows`` and ``norms``, in ascending-id order with
    duplicates kept), those with a zero vector, and those with none."""

    store: EmbeddingStore
    ids: np.ndarray  # scoreable candidates as an object array, ascending id
    rows: np.ndarray  # their rows of store.matrix
    norms: np.ndarray  # their norms
    zero: tuple[str, ...]  # candidates with a zero vector
    unknown: tuple[str, ...]  # candidates with no stored vector, in candidate order

    def set_aside(self, query_id: str) -> tuple[str, ...]:
        """The known candidates other than the query that it cannot score:
        the zero ones, or every one when the query itself is zero."""
        if self.store.norms[_row(self.store, query_id)]:
            return self.zero
        return tuple(i for i in chain(self.ids.tolist(), self.zero) if i != query_id)

    def ranked(self, query_id: str) -> list[str]:
        """The scoreable candidates other than the query, most cosine-similar
        first, ties by ascending id.  einsum sums every row in the same order
        (a BLAS kernel may not), so identical vectors tie exactly, and the
        stable sort keeps tied candidates in the index's ascending-id order."""
        store = self.store
        query = _row(store, query_id)
        if not store.norms[query]:
            return []
        dots = np.einsum("ij,j->i", store.matrix, store.matrix[query])[self.rows]
        scores = dots / (self.norms * store.norms[query])
        order = np.argsort(-scores, kind="stable")
        return self.ids[order[self.rows[order] != query]].tolist()


def build_index(store: EmbeddingStore, candidate_ids: Iterable[str]) -> CandidateIndex:
    """candidate_ids prepared for ranking against store, in one pass over them."""
    known: list[str] = []
    unknown: list[str] = []
    for entry_id in candidate_ids:
        (known if entry_id in store.row else unknown).append(entry_id)
    known.sort()
    rows = np.fromiter(map(store.row.__getitem__, known), dtype=np.intp, count=len(known))
    norms = store.norms[rows]
    scoreable = norms != 0
    ids = np.array(known, dtype=object)[scoreable]
    zero = tuple(compress(known, ~scoreable))
    return CandidateIndex(store, ids, rows[scoreable], norms[scoreable], zero, tuple(unknown))


def _indexed(store: EmbeddingStore, candidates: Iterable[str] | CandidateIndex) -> CandidateIndex:
    if not isinstance(candidates, CandidateIndex):
        return build_index(store, candidates)
    if candidates.store is not store:
        raise ValueError("the candidate index was built over another store")
    return candidates


def knn_retrieve(
    store: EmbeddingStore,
    query_id: str,
    k: int,
    candidate_ids: Sequence[str] | CandidateIndex,
    exclude_ids: Iterable[str] = (),
) -> list[str]:
    """The k candidates most cosine-similar to the query, descending, ties by
    ascending id.  The query itself and excluded ids never appear; fewer than
    k come back only when the pool runs out.  Every candidate left after the
    exclusions needs a stored vector (else UnknownId), and it and the query
    a nonzero one (else ZeroNorm).  candidate_ids may be a CandidateIndex
    over the store, built once for many queries."""
    index = _indexed(store, candidate_ids)
    ranking = Ranking(index.ranked(query_id), index.set_aside(query_id), index.unknown)
    return ranking.take(k, exclude_ids)


@dataclass(frozen=True)
class Ranking:
    """One query's cosine ranking over a candidate list.  ``take(k, exclude)``
    equals ``knn_retrieve(store, query_id, k, candidate_ids, exclude)``: the
    order is total (score, then id), so ranking what remains after the
    exclusions is filtering the full ranking.  Candidates that knn_retrieve
    would refuse are set aside and raise only when a take considers them."""

    ranked: list[str]  # scoreable candidates other than the query, best first
    zero: tuple[str, ...]  # zero-norm candidates; every known one when the query is zero
    unknown: tuple[str, ...]  # candidates with no stored vector, in candidate order

    def take(self, k: int, exclude_ids: Iterable[str] = ()) -> list[str]:
        """The first k ranked ids that are not excluded."""
        if k < 0:
            raise ValueError("k must be >= 0")
        excluded = set(exclude_ids)
        unknown = next(filterfalse(excluded.__contains__, self.unknown), None)
        if unknown is not None:
            raise UnknownId(unknown)
        if not excluded.issuperset(self.zero):
            raise ZeroNorm("cosine undefined for a zero vector")
        if excluded:
            return list(islice(filterfalse(excluded.__contains__, self.ranked), k))
        return self.ranked[:k]


def rank(
    store: EmbeddingStore,
    query_id: str,
    candidate_ids: Sequence[str] | CandidateIndex,
    retrieve: Callable[..., list[str]] = knn_retrieve,
) -> Ranking:
    """The query's Ranking over candidate_ids (a list, or a CandidateIndex
    over the store), scored by one ``retrieve`` call with the candidates it
    cannot score excluded (knn_retrieve; a caller passes its own binding of
    it so that a wrapper there sees each ranking).  Raises UnknownId for an
    unknown query."""
    index = _indexed(store, candidate_ids)
    set_aside = index.set_aside(query_id)
    ranked = retrieve(store, query_id, len(index.ids), index, set_aside + index.unknown)
    return Ranking(ranked, set_aside, index.unknown)
