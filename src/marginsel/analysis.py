"""Post-hoc analytics: class-centroid distance matrices, candidate-count
histograms, assignment-step recall stratified by final correctness, and raw
dumps for external 2-D projection tools."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import CandidateSet, LabelSpace, MarginSelError, replace_file
from .selection import LookupEntry


class MissingClass(MarginSelError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"class {label!r} has no vectors")


class EmptyLookup(MarginSelError):
    pass


EUCLIDEAN = "euclidean"
COSINE_DISTANCE = "cosine_distance"


@dataclass(frozen=True)
class CentroidMatrix:
    labels: tuple[str, ...]
    matrix: np.ndarray  # symmetric, zero diagonal
    metric: str

    def value(self, a: str, b: str) -> float:
        return float(self.matrix[self.labels.index(a), self.labels.index(b)])


def centroid_distances(
    vectors: Mapping[str, Sequence[float]],
    golds: Mapping[str, str],
    space: LabelSpace,
    metric: str = EUCLIDEAN,
) -> CentroidMatrix:
    """Pairwise distances between per-class centroids (arithmetic means) of
    the given vectors.  Every class of the space must have at least one
    vector."""
    if metric not in (EUCLIDEAN, COSINE_DISTANCE):
        raise ValueError(f"unknown metric {metric!r}")
    grouped: dict[str, list[np.ndarray]] = {label: [] for label in space.labels}
    for entry_id, vec in vectors.items():
        label = golds.get(entry_id)
        if label is None:
            raise KeyError(f"no gold label for id {entry_id!r}")
        grouped[label].append(np.asarray(vec, dtype=np.float64))
    centroids = {}
    for label in space.labels:
        if not grouped[label]:
            raise MissingClass(label)
        centroids[label] = np.mean(grouped[label], axis=0)
    n = len(space)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = centroids[space.labels[i]], centroids[space.labels[j]]
            if metric == EUCLIDEAN:
                dist = float(np.linalg.norm(a - b))
            else:
                na, nb = np.linalg.norm(a), np.linalg.norm(b)
                if na == 0.0 or nb == 0.0:
                    raise MissingClass(space.labels[i] if na == 0.0 else space.labels[j])
                dist = 1.0 - float(np.dot(a, b) / (na * nb))
            matrix[i, j] = matrix[j, i] = dist
    return CentroidMatrix(labels=space.labels, matrix=matrix, metric=metric)


def candidate_histogram(lookup: Sequence[LookupEntry]) -> dict[int, float]:
    """Frequency of candidate-set sizes over a lookup table.  Parse failures
    (empty sets) bucket at 0.  Frequencies sum to 1."""
    if not lookup:
        raise EmptyLookup("cannot histogram an empty lookup table")
    counts: dict[int, int] = {}
    for entry in lookup:
        counts[entry.candidates.count] = counts.get(entry.candidates.count, 0) + 1
    total = len(lookup)
    return {size: n / total for size, n in sorted(counts.items())}


@dataclass(frozen=True)
class Step1Record:
    """One prediction's inputs to the recall analysis: the assignment-step
    candidate set (None when the step failed or never ran), the gold label
    and the final predicted label."""

    gold: str
    predicted: str
    candidates: CandidateSet | None


CORRECT = "correct"
INCORRECT = "incorrect"


def step1_recall(
    records: Sequence[Step1Record], space: LabelSpace
) -> dict[str, dict[str, float]]:
    """Per-class recall of the assignment step, split by whether the final
    prediction was correct.

    recall(c | stratum) is the fraction of stratum records with gold c whose
    candidate set contains c.  Strata with no records are absent from the
    result rather than reported as 0.
    """
    if not records:
        raise ValueError("no records to analyze")
    hits: dict[tuple[str, str], int] = {}
    totals: dict[tuple[str, str], int] = {}
    for rec in records:
        stratum = CORRECT if rec.predicted == rec.gold else INCORRECT
        key = (rec.gold, stratum)
        totals[key] = totals.get(key, 0) + 1
        contained = (
            rec.candidates is not None
            and rec.gold in rec.candidates.labels_in(space)
        )
        if contained:
            hits[key] = hits.get(key, 0) + 1
    out: dict[str, dict[str, float]] = {}
    for label in space.labels:
        strata = {}
        for stratum in (CORRECT, INCORRECT):
            key = (label, stratum)
            if key in totals:
                strata[stratum] = hits.get(key, 0) / totals[key]
        if strata:
            out[label] = strata
    return out


def dump_projection_input(
    vectors: Mapping[str, Sequence[float]],
    golds: Mapping[str, str],
    path: str | Path,
) -> None:
    """Write (id, label, vector) JSON-lines for external 2-D projection.
    The file round-trips through the embedding loader.  Id mismatches fail
    before anything is written."""
    missing = sorted(set(vectors) ^ set(golds))
    if missing:
        raise ValueError(f"vector/gold id mismatch: {missing[:5]}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    if not vectors:
        lines.append("# empty projection dump")
    for entry_id in sorted(vectors):
        lines.append(
            json.dumps(
                {
                    "id": entry_id,
                    "label": golds[entry_id],
                    "vector": [float(x) for x in vectors[entry_id]],
                },
                ensure_ascii=False,
            )
        )
    replace_file(path, "\n".join(lines) + "\n")

