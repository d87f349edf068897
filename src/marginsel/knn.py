"""Embedding store and exact cosine nearest-neighbor retrieval.

Retrieval is a full scan plus sort: the pools this pipeline deals with are a
few thousand vectors at most, so exactness is cheap and reproducible.  Ties
break by ascending id.  A query is one matrix-vector product and one lexsort.
A ``Ranking`` keeps one query's full order so that later queries with other
exclusions are a walk along it.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import compress, filterfalse, islice
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import MarginSelError
from .llm_client import BackendConfig, HttpBackend


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
    rank: np.ndarray  # each row's place among the sorted ids
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
    rank = np.empty(len(row), dtype=np.intp)
    rank[[row[i] for i in sorted(row)]] = np.arange(len(row))
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    vectors = {entry_id: matrix[i] for entry_id, i in row.items()}
    return EmbeddingStore(dimension, matrix, row, norms, rank, vectors)


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
                    raise EmbeddingParseError(f"line {line_no}: invalid JSON: {exc.msg}")
                if not isinstance(record, dict) or "id" not in record or "vector" not in record:
                    raise EmbeddingParseError(f"line {line_no}: need 'id' and 'vector' fields")
                if not isinstance(record["vector"], list) or not all(
                    isinstance(x, (int, float)) for x in record["vector"]
                ):
                    raise EmbeddingParseError(f"line {line_no}: vector is not numeric")
                yield record["id"], record["vector"]

    return build_store(records())


def fetch_embeddings(
    config: BackendConfig, items: Sequence[tuple[str, str]]
) -> EmbeddingStore:
    """Fetch embeddings for (id, text) pairs from an HTTP embedding endpoint."""
    with HttpBackend(config) as backend:
        return build_store((entry_id, backend.embed(text)) for entry_id, text in items)


def knn_retrieve(
    store: EmbeddingStore,
    query_id: str,
    k: int,
    candidate_ids: Sequence[str],
    exclude_ids: Iterable[str] = (),
) -> list[str]:
    """The k candidates most cosine-similar to the query, descending, ties by
    ascending id.  The query itself and excluded ids never appear; fewer than
    k come back only when the pool runs out.  einsum sums every row in the
    same order (a BLAS kernel may not), so identical vectors tie exactly."""
    if k < 0:
        raise ValueError("k must be >= 0")
    excluded = set(exclude_ids) | {query_id}
    ids = list(filterfalse(excluded.__contains__, candidate_ids))
    try:
        query = store.row[query_id]
        rows = np.fromiter(map(store.row.__getitem__, ids), dtype=np.intp, count=len(ids))
    except KeyError as exc:
        raise UnknownId(exc.args[0]) from None
    if rows.size and not (store.norms[query] and store.norms[rows].all()):
        raise ZeroNorm("cosine undefined for a zero vector")
    dots = np.einsum("ij,j->i", store.matrix, store.matrix[query])[rows]
    scores = dots / (store.norms[rows] * store.norms[query])
    order = np.lexsort((store.rank[rows], -scores))
    return [ids[i] for i in order[:k]]


@dataclass(frozen=True)
class Ranking:
    """One query's cosine ranking over a candidate list.  ``take(k, exclude)``
    equals ``knn_retrieve(store, query_id, k, candidate_ids, exclude)``: the
    order is total (score, then id), so ranking what remains after the
    exclusions is filtering the full ranking.  Candidates that knn_retrieve
    would refuse are set aside and raise only when a take considers them."""

    ranked: tuple[str, ...]  # scoreable candidates other than the query, best first
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
        return list(islice(filterfalse(excluded.__contains__, self.ranked), k))


def rank(
    store: EmbeddingStore,
    query_id: str,
    candidate_ids: Sequence[str],
    retrieve: Callable[..., list[str]] = knn_retrieve,
) -> Ranking:
    """The query's Ranking over candidate_ids, scored by one ``retrieve``
    call (knn_retrieve; a caller passes its own binding of it so that a
    wrapper there sees each ranking).  Raises UnknownId for an unknown query."""
    if query_id not in store.row:
        raise UnknownId(query_id)
    unknown = tuple(i for i in candidate_ids if i not in store.row)
    known = [i for i in candidate_ids if i in store.row and i != query_id]
    rows = np.fromiter(map(store.row.__getitem__, known), dtype=np.intp, count=len(known))
    if store.norms[store.row[query_id]]:
        scoreable = store.norms[rows] != 0
    else:  # a zero query scores nothing, so every candidate it considers raises
        scoreable = np.zeros(len(known), dtype=bool)
    scored = list(compress(known, scoreable))
    ranked = retrieve(store, query_id, len(scored), scored)
    return Ranking(tuple(ranked), tuple(compress(known, ~scoreable)), unknown)
