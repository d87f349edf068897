import random

import pytest

from marginsel.core import (
    CandidateSet,
    Example,
    LabelSpace,
    UnknownLabel,
    candidate_key,
    candidate_set_from_labels,
    canonical_label,
)

SST5 = ["very negative", "negative", "neutral", "positive", "very positive"]


def test_canonical_label_collapses_whitespace_and_case():
    assert canonical_label("  Mental   Filter ") == "mental filter"
    assert canonical_label("positive") == "positive"


def test_space_rejects_duplicates_after_canonicalization():
    with pytest.raises(ValueError):
        LabelSpace(["Positive", "positive "])
    with pytest.raises(ValueError):
        LabelSpace(["only-one"])


def test_candidate_set_direct_index_mapping():
    space = LabelSpace(SST5)
    cs = candidate_set_from_labels(["negative", "positive"], space)
    assert candidate_key(cs) == "01010"


def test_candidate_key_positions_zero_and_three():
    # Labels 1 and 4 of a 5-label space (0-indexed positions 0 and 3).
    space = LabelSpace(["l1", "l2", "l3", "l4", "l5"])
    cs = candidate_set_from_labels(["l1", "l4"], space)
    assert candidate_key(cs) == "10010"


def test_duplicates_and_casing_collapse():
    space = LabelSpace(SST5)
    cs = candidate_set_from_labels(["Positive", "positive "], space)
    assert candidate_key(cs) == "00010"
    assert cs.count == 1


def test_unknown_label_raises():
    space = LabelSpace(SST5)
    with pytest.raises(UnknownLabel):
        candidate_set_from_labels(["joyful"], space)


def test_full_and_singleton_keys():
    three = LabelSpace(["a", "b", "c"])
    assert candidate_key(candidate_set_from_labels(["a", "b", "c"], three)) == "111"
    five = LabelSpace(SST5)
    assert candidate_key(candidate_set_from_labels(["neutral"], five)) == "00100"


def test_key_round_trip():
    # The key's '1' positions name the set's labels, so the labels rebuild it.
    space = LabelSpace(SST5)
    for bits in range(1, 32):
        cs = CandidateSet(bits, 5)
        key = candidate_key(cs)
        assert len(key) == 5 and set(key) <= {"0", "1"}
        named = [label for label, ch in zip(space.labels, key) if ch == "1"]
        assert candidate_set_from_labels(named, space) == cs


def test_order_insensitive_and_idempotent():
    space = LabelSpace(SST5)
    rng = random.Random(7)
    names = ["negative", "very positive", "neutral"]
    reference = candidate_set_from_labels(names, space)
    for _ in range(50):
        shuffled = names[:]
        rng.shuffle(shuffled)
        repeated = shuffled + rng.sample(shuffled, 2)
        assert candidate_set_from_labels(repeated, space) == reference


def test_empty_set_is_representable_but_marked():
    space = LabelSpace(["a", "b"])
    empty = CandidateSet.empty(space)
    assert empty.is_empty
    assert empty.count == 0
    assert candidate_key(empty) == "00"


def test_example_requires_id():
    with pytest.raises(ValueError):
        Example(id="", text="t", gold="a")


def test_every_dataclass_that_checks_its_values_is_frozen():
    # A dataclass whose __post_init__ checks or derives its values is frozen,
    # so none of them can change after the checks: dataclasses.replace, which
    # runs them again, is the only way to change one.
    import dataclasses
    import importlib
    import inspect
    import pkgutil

    import marginsel

    checked = set()
    for info in pkgutil.iter_modules(marginsel.__path__):
        module = importlib.import_module(f"marginsel.{info.name}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls) and "__post_init__" in vars(cls)):
                assert cls.__dataclass_params__.frozen, cls.__qualname__
                checked.add(cls.__qualname__)
    assert {"ExperimentContext", "RunConfig", "MethodSpec", "Dataset", "Example"} <= checked
