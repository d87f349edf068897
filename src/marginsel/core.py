"""Label-space and candidate-set primitives shared by every other module,
and the one atomic writer of artifact files.

A :class:`LabelSpace` fixes an ordered list of class labels; a
:class:`CandidateSet` is a bitmask over that space (bit ``i`` always means
``labels[i]``).  Candidate sets print as fixed-width '0'/'1' strings, e.g.
``"10010"`` for a 5-label space with labels 0 and 3 set.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


class MarginSelError(Exception):
    """Base class for all errors raised by this package."""


class UnknownLabel(MarginSelError):
    """A label name is not a member of the label space."""

    def __init__(self, name: str, path: str | Path | None = None, line_no: int | None = None):
        self.name = name
        self.line_no = line_no
        where = f"{path}, line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}unknown label {name!r}")


def round_half_up(x: float) -> int:
    """Nearest integer with halves rounded up (round() rounds them to even)."""
    return math.floor(x + 0.5)


def canonical_label(name: str) -> str:
    """Canonical form of a label: lowercased, trimmed, internal whitespace
    runs collapsed to a single space.  Model replies vary in casing and
    spacing; everything label-valued goes through this before comparison."""
    return " ".join(name.split()).lower()


@dataclass(frozen=True)
class LabelSpace:
    """Ordered, immutable set of class labels.

    Labels are stored in canonical form.  The declaration order is fixed at
    construction and defines the bit order of every CandidateSet over this
    space.
    """

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        canon = tuple(canonical_label(name) for name in labels)
        if len(canon) < 2:
            raise ValueError("a label space needs at least 2 labels")
        if any(not name for name in canon):
            raise ValueError("labels must be non-empty after canonicalization")
        if len(set(canon)) != len(canon):
            raise ValueError(f"labels not unique after canonicalization: {canon}")
        object.__setattr__(self, "labels", canon)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, name: str) -> bool:
        return canonical_label(name) in self.labels

    def index_of(self, name: str) -> int:
        canon = canonical_label(name)
        try:
            return self.labels.index(canon)
        except ValueError:
            raise UnknownLabel(name) from None


@dataclass(frozen=True)
class CandidateSet:
    """Bitmask subset of a LabelSpace.

    ``bits`` uses bit ``i`` for ``labels[i]``; ``size`` is the space width.
    Equality is exact bit equality.  The empty set is constructible (it is
    the parse-failure sentinel recorded by lookup building) but parsers never
    return it as a success value.
    """

    bits: int
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("candidate set needs a positive space size")
        if self.bits < 0 or self.bits >= (1 << self.size):
            raise ValueError(f"bits {self.bits:#x} out of range for size {self.size}")

    @classmethod
    def empty(cls, space: LabelSpace) -> "CandidateSet":
        return cls(0, len(space))

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def labels_in(self, space: LabelSpace) -> tuple[str, ...]:
        """Member labels in space declaration order."""
        if len(space) != self.size:
            raise ValueError("candidate set and label space sizes differ")
        return tuple(
            name for i, name in enumerate(space.labels) if self.bits >> i & 1
        )


def candidate_set_from_labels(names: Sequence[str], space: LabelSpace) -> CandidateSet:
    """Build the bitmask for the named labels.  Duplicates collapse; order is
    irrelevant.  Raises UnknownLabel for any name outside the space."""
    bits = 0
    for name in names:
        bits |= 1 << space.index_of(name)
    return CandidateSet(bits, len(space))


def candidate_key(cs: CandidateSet) -> str:
    """Fixed-width '0'/'1' string for a candidate set; leftmost char is label
    index 0.  Bijective with the bitmask."""
    return "".join("1" if cs.bits >> i & 1 else "0" for i in range(cs.size))


@dataclass(frozen=True)
class Example:
    """A single text instance with its gold label."""

    id: str
    text: str
    gold: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("example id must be non-empty")


def replace_file(path: Path, text: str) -> None:
    """Write text to path through a temporary file in the same directory, so
    an interrupted write leaves the previous file whole.  When path cannot be
    replaced (it is a directory, say) the temporary file is removed."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink()
        raise


def write_json(path: Path, obj) -> None:
    """obj as indented, key-sorted JSON, through replace_file."""
    replace_file(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, rows: Iterable[Sequence]) -> None:
    """rows as CSV lines ending in a bare newline, through replace_file."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    replace_file(path, buf.getvalue())
