import random
import re

import pytest

from marginsel.core import LabelSpace, UnknownLabel
from marginsel.dataset import (
    ClassTooSmall,
    Dataset,
    DuplicateId,
    EmptyDataset,
    ParseError,
    label_frequency,
    load_dataset,
    stratified_split,
)

from conftest import make_dataset, write_jsonl


@pytest.fixture
def abc_space():
    return LabelSpace(["a", "b", "c"])


def test_load_dataset_basic(tmp_path, abc_space):
    path = tmp_path / "data.jsonl"
    write_jsonl(
        path,
        [
            {"id": "1", "text": "x", "label": "a"},
            {"id": "2", "text": "y", "label": "a", "extra": "ignored"},
            {"id": "3", "text": "z", "label": "b"},
            {"id": "4", "text": "w", "label": "c"},
        ],
    )
    ds = load_dataset(path, abc_space)
    assert len(ds) == 4
    assert ds.ids() == ["1", "2", "3", "4"]  # line order preserved
    assert ds.by_id("3").gold == "b"


def test_load_dataset_unknown_label(tmp_path, abc_space):
    path = tmp_path / "data.jsonl"
    write_jsonl(path, [{"id": "1", "text": "x", "label": "cardio"}])
    with pytest.raises(UnknownLabel) as err:
        load_dataset(path, abc_space)
    assert err.value.line_no == 1


def test_load_errors_name_the_file_and_line(tmp_path, abc_space):
    path = tmp_path / "data.jsonl"
    for line, error in (
        ("{oops", ParseError),
        ('{"id": "2", "text": "y"}', ParseError),
        ('{"id": "2", "text": "y", "label": "z"}', UnknownLabel),
    ):
        path.write_text('{"id": "1", "text": "x", "label": "a"}\n' + line + "\n")
        with pytest.raises(error, match=re.escape(f"{path}, line 2: ")):
            load_dataset(path, abc_space)


def test_load_dataset_parse_and_duplicate_errors(tmp_path, abc_space):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "1", "text": "x", "label": "a"}\n{oops\n')
    with pytest.raises(ParseError) as err:
        load_dataset(bad, abc_space)
    assert err.value.line_no == 2

    dup = tmp_path / "dup.jsonl"
    write_jsonl(
        dup,
        [
            {"id": "1", "text": "x", "label": "a"},
            {"id": "1", "text": "y", "label": "b"},
        ],
    )
    with pytest.raises(DuplicateId):
        load_dataset(dup, abc_space)


def test_load_dataset_empty_file(tmp_path, abc_space):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert len(load_dataset(path, abc_space)) == 0


def _uniform_dataset(space, per_class):
    rows = []
    for label in space.labels:
        for i in range(per_class):
            rows.append((f"{label}{i}", f"text {label} {i}", label))
    return make_dataset(space, rows)


def test_split_exact_stratification():
    space = LabelSpace(["a", "b", "c", "d", "e"])
    ds = _uniform_dataset(space, 20)
    train, test = stratified_split(ds, 0.5, seed=7)
    assert len(train) == 50 and len(test) == 50
    for side in (train, test):
        per_class = {l: 0 for l in space.labels}
        for ex in side.examples:
            per_class[ex.gold] += 1
        assert all(n == 10 for n in per_class.values())


def test_split_rounding_rule():
    space = LabelSpace(["a", "b"])
    rows = [(f"a{i}", "t", "a") for i in range(8)] + [
        (f"b{i}", "t", "b") for i in range(2)
    ]
    ds = make_dataset(space, rows)
    train, test = stratified_split(ds, 0.5, seed=0)
    counts = {"a": 0, "b": 0}
    for ex in test.examples:
        counts[ex.gold] += 1
    assert counts == {"a": 4, "b": 1}


def test_split_determinism_and_partition():
    space = LabelSpace(["a", "b", "c"])
    ds = _uniform_dataset(space, 7)
    first = stratified_split(ds, 0.3, seed=42)
    second = stratified_split(ds, 0.3, seed=42)
    assert [e.id for e in first[0].examples] == [e.id for e in second[0].examples]
    assert [e.id for e in first[1].examples] == [e.id for e in second[1].examples]
    train_ids = set(first[0].ids())
    test_ids = set(first[1].ids())
    assert train_ids | test_ids == set(ds.ids())
    assert not (train_ids & test_ids)
    other = stratified_split(ds, 0.3, seed=43)
    assert set(other[1].ids()) != test_ids  # different seed moves the split


def test_split_class_too_small():
    space = LabelSpace(["a", "b"])
    ds = make_dataset(space, [("1", "t", "a"), ("2", "t", "a"), ("3", "t", "b")])
    with pytest.raises(ClassTooSmall):
        stratified_split(ds, 0.5, seed=0)


def test_split_stratification_property_random_instances():
    # Per-class test counts stay within one example of the exact share.
    rng = random.Random(123)
    for trial in range(30):
        n_classes = rng.randint(2, 5)
        space = LabelSpace([f"c{i}" for i in range(n_classes)])
        rows = []
        for label in space.labels:
            for i in range(rng.randint(2, 30)):
                rows.append((f"{label}-{i}", "t", label))
        ds = make_dataset(space, rows)
        fraction = rng.uniform(0.15, 0.85)
        train, test = stratified_split(ds, fraction, seed=trial)
        class_sizes = {l: 0 for l in space.labels}
        for ex in ds.examples:
            class_sizes[ex.gold] += 1
        test_counts = {l: 0 for l in space.labels}
        for ex in test.examples:
            test_counts[ex.gold] += 1
        for label in space.labels:
            assert abs(test_counts[label] - fraction * class_sizes[label]) <= 1.0
            assert 1 <= test_counts[label] <= class_sizes[label] - 1


def test_label_frequency_counts(abc_space):
    ds = make_dataset(
        abc_space,
        [("1", "t", "a"), ("2", "t", "a"), ("3", "t", "b"), ("4", "t", "c")],
    )
    rho = label_frequency(ds)
    assert rho.proportions == {"a": 0.5, "b": 0.25, "c": 0.25}
    assert abs(sum(rho.proportions.values()) - 1.0) < 1e-9


def test_label_frequency_degenerate_and_weights():
    space = LabelSpace(["a", "b"])
    ds = make_dataset(space, [(str(i), "t", "a") for i in range(3)])
    assert label_frequency(ds).proportions == {"a": 1.0}

    ds2 = make_dataset(
        space, [("1", "t", "a"), ("2", "t", "a"), ("3", "t", "a"), ("4", "t", "b")]
    )
    rho = label_frequency(ds2)
    assert rho.weight("a") == pytest.approx(4 / 3)
    assert rho.weight("b") == pytest.approx(4.0)


def test_label_frequency_empty():
    space = LabelSpace(["a", "b"])
    with pytest.raises(EmptyDataset):
        label_frequency(Dataset(space, ()))
