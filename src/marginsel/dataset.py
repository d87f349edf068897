"""Dataset ingestion, stratified splitting, and label-frequency statistics.

Datasets are UTF-8 JSON-lines files, one object per line with keys ``id``,
``text`` and ``label``; unknown extra fields are ignored.
"""

from __future__ import annotations

import json
import numbers
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .core import Example, LabelSpace, MarginSelError, UnknownLabel, canonical_label, round_half_up


class ParseError(MarginSelError):
    def __init__(self, path: str | Path, line_no: int, reason: str):
        self.line_no = line_no
        super().__init__(f"{path}, line {line_no}: {reason}")


class DuplicateId(MarginSelError):
    def __init__(self, example_id: str):
        self.example_id = example_id
        super().__init__(f"duplicate example id {example_id!r}")


class ClassTooSmall(MarginSelError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"class {label!r} has fewer than 2 examples; cannot split")


class EmptyDataset(MarginSelError):
    pass


@dataclass(frozen=True)
class Dataset:
    space: LabelSpace
    examples: tuple[Example, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for ex in self.examples:
            if ex.id in seen:
                raise DuplicateId(ex.id)
            seen.add(ex.id)
            if ex.gold not in self.space:
                raise UnknownLabel(ex.gold)

    def __len__(self) -> int:
        return len(self.examples)

    @cached_property
    def index(self) -> dict[str, Example]:
        """Examples by id, built on first use."""
        return {ex.id: ex for ex in self.examples}

    def by_id(self, example_id: str) -> Example:
        return self.index[example_id]

    def ids(self) -> list[str]:
        return list(self.index)


@dataclass(frozen=True)
class LabelFrequency:
    """Per-label proportion of a dataset; proportions sum to 1."""

    proportions: dict[str, float]

    def of(self, label: str) -> float:
        return self.proportions.get(canonical_label(label), 0.0)

    def weight(self, label: str) -> float:
        """Inverse-frequency sampling weight 1/rho(label)."""
        rho = self.of(label)
        if rho <= 0.0:
            raise KeyError(label)
        return 1.0 / rho


def load_dataset(path: str | Path, space: LabelSpace) -> Dataset:
    """Load a JSON-lines dataset, validating every record against the space.

    Line order is preserved.  Blank lines are skipped.  Raises ParseError or
    UnknownLabel, each naming the file and the line, or DuplicateId.
    """
    examples: list[Example] = []
    # each gold is the space's own label string, shared by every row
    labels = {label: label for label in space.labels}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from None
            if not isinstance(record, dict):
                raise ParseError(path, line_no, "record is not an object")
            for key in ("id", "text", "label"):
                if key not in record:
                    raise ParseError(path, line_no, f"missing field {key!r}")
                if not isinstance(record[key], str):
                    raise ParseError(path, line_no, f"field {key!r} is not a string")
            gold = labels.get(canonical_label(record["label"]))
            if gold is None:
                raise UnknownLabel(record["label"], path, line_no)
            examples.append(Example(id=record["id"], text=record["text"], gold=gold))
    return Dataset(space=space, examples=tuple(examples))


def label_frequency(ds: Dataset) -> LabelFrequency:
    """Proportion of each label present in the dataset (Step-2 sampling uses
    the reciprocal as a weight).  Computed over the full dataset it is given,
    which for the selection pipeline is the whole training set."""
    if len(ds) == 0:
        raise EmptyDataset("cannot compute label frequencies of an empty dataset")
    counts: dict[str, int] = {}
    for ex in ds.examples:
        counts[ex.gold] = counts.get(ex.gold, 0) + 1
    total = len(ds)
    return LabelFrequency({label: n / total for label, n in counts.items()})


def stratified_split(
    ds: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministic per-class split: round-half-up of test_fraction per
    class, at least one example per side, then a final adjustment pass so the
    global test size also hits round-half-up(test_fraction * N).

    Identical (dataset, fraction, seed) always produces identical membership.
    Original dataset order is preserved within each side.  Raises ValueError
    for a fraction that is not a real number or a seed that is not an int;
    bools are refused for both.
    """
    if isinstance(test_fraction, bool) or not isinstance(test_fraction, numbers.Real):
        raise ValueError(f"test_fraction must be a real number, not {test_fraction!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"split_seed must be an integer, not {seed!r}")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    groups: dict[str, list[int]] = {}
    for idx, ex in enumerate(ds.examples):
        groups.setdefault(ex.gold, []).append(idx)
    labels_present = [lab for lab in ds.space.labels if lab in groups]
    for label in labels_present:
        if len(groups[label]) < 2:
            raise ClassTooSmall(label)

    targets = {
        label: min(max(round_half_up(test_fraction * len(groups[label])), 1),
                   len(groups[label]) - 1)
        for label in labels_present
    }
    n_classes = len(labels_present)
    global_target = round_half_up(test_fraction * len(ds))
    global_target = min(max(global_target, n_classes), len(ds) - n_classes)

    # Nudge per-class targets toward the global target, preferring the move
    # that keeps each class closest to its exact fractional share.
    while sum(targets.values()) > global_target:
        movable = [l for l in labels_present if targets[l] > 1]
        label = max(movable, key=lambda l: (targets[l] - test_fraction * len(groups[l]),
                                            -labels_present.index(l)))
        targets[label] -= 1
    while sum(targets.values()) < global_target:
        movable = [l for l in labels_present if targets[l] < len(groups[l]) - 1]
        label = min(movable, key=lambda l: (targets[l] - test_fraction * len(groups[l]),
                                            labels_present.index(l)))
        targets[label] += 1

    rng = random.Random(seed)
    test_indices: set[int] = set()
    for label in labels_present:
        shuffled = rng.sample(groups[label], len(groups[label]))
        test_indices.update(shuffled[: targets[label]])

    train = tuple(ex for i, ex in enumerate(ds.examples) if i not in test_indices)
    test = tuple(ex for i, ex in enumerate(ds.examples) if i in test_indices)
    return Dataset(ds.space, train), Dataset(ds.space, test)
