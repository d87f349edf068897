"""Hard-example demonstration selection for in-context classification.

The pipeline: a zero-shot multi-label pass assigns every training example a
candidate-label set; test-time selection picks training examples whose
candidate set matches the test input's exactly (downsampled by inverse label
frequency), mixes them with cosine-kNN neighbors under an alpha ratio, and
the resulting demonstrations drive a single-label prediction prompt.  An
evaluation harness runs method/shot/seed grids with macro-F1, and a
numerical module verifies the linear-attention and max-margin identities the
design leans on.
"""

from .core import (
    CandidateSet,
    Example,
    LabelSpace,
    MarginSelError,
    UnknownLabel,
    candidate_key,
    candidate_set_from_labels,
    canonical_label,
)

__all__ = [
    "CandidateSet",
    "Example",
    "LabelSpace",
    "MarginSelError",
    "UnknownLabel",
    "candidate_key",
    "candidate_set_from_labels",
    "canonical_label",
]

__version__ = "0.1.0"
