import json
import math
import random

import numpy as np
import pytest

from marginsel.analysis import (
    COSINE_DISTANCE,
    EmptyLookup,
    MissingClass,
    Step1Record,
    candidate_histogram,
    centroid_distances,
    dump_projection_input,
    step1_recall,
)
from marginsel.core import Example, LabelSpace, candidate_set_from_labels
from marginsel.knn import load_embeddings
from marginsel.selection import LookupEntry

from conftest import candidate_set_from_key

RGB = LabelSpace(["red", "green", "blue"])
AB = LabelSpace(["a", "b"])


def test_centroid_three_four_five():
    space = AB
    cm = centroid_distances(
        vectors={"1": [0.0, 0.0], "2": [3.0, 4.0]},
        golds={"1": "a", "2": "b"},
        space=space,
    )
    assert cm.value("a", "b") == pytest.approx(5.0)
    assert cm.value("b", "a") == pytest.approx(5.0)
    assert cm.value("a", "a") == 0.0


def test_centroid_all_identical_points():
    cm = centroid_distances(
        vectors={"1": [1, 1], "2": [1, 1], "3": [1, 1]},
        golds={"1": "red", "2": "green", "3": "blue"},
        space=RGB,
    )
    assert np.all(cm.matrix == 0.0)


def test_centroid_matches_brute_force_oracle():
    # 3 classes x 2 points: mean-then-distance computed by hand arithmetic.
    rng = random.Random(31)
    vectors = {}
    golds = {}
    for ci, label in enumerate(RGB.labels):
        for j in range(2):
            key = f"{label}{j}"
            vectors[key] = [rng.uniform(-2, 2) for _ in range(3)]
            golds[key] = label
    cm = centroid_distances(vectors, golds, RGB)
    for a in RGB.labels:
        for b in RGB.labels:
            mean_a = [
                sum(vectors[f"{a}{j}"][k] for j in range(2)) / 2 for k in range(3)
            ]
            mean_b = [
                sum(vectors[f"{b}{j}"][k] for j in range(2)) / 2 for k in range(3)
            ]
            want = math.sqrt(sum((x - y) ** 2 for x, y in zip(mean_a, mean_b)))
            assert cm.value(a, b) == pytest.approx(want, abs=1e-12)


def test_centroid_symmetry_and_zero_diagonal_exact():
    rng = random.Random(8)
    for trial in range(10):
        vectors = {
            f"v{i}": [rng.uniform(-1, 1) for _ in range(4)] for i in range(12)
        }
        golds = {k: RGB.labels[i % 3] for i, k in enumerate(vectors)}
        metric = COSINE_DISTANCE if trial % 2 else "euclidean"
        cm = centroid_distances(vectors, golds, RGB, metric)
        assert np.array_equal(cm.matrix, cm.matrix.T)
        assert np.all(np.diag(cm.matrix) == 0.0)


def test_centroid_missing_class():
    with pytest.raises(MissingClass):
        centroid_distances({"1": [0, 0]}, {"1": "red"}, RGB)


def _lookup_with_keys(keys):
    return [
        LookupEntry(
            example=Example(id=str(i), text="t", gold="red"),
            candidates=candidate_set_from_key(key, LabelSpace(["l1", "l2", "l3", "l4", "l5"])),
        )
        for i, key in enumerate(keys)
    ]


def test_candidate_histogram_counts():
    hist = candidate_histogram(_lookup_with_keys(["10010", "10000", "11100"]))
    assert hist == {1: pytest.approx(1 / 3), 2: pytest.approx(1 / 3), 3: pytest.approx(1 / 3)}


def test_candidate_histogram_singletons_and_empty_bucket():
    assert candidate_histogram(_lookup_with_keys(["10000", "01000"])) == {1: 1.0}
    hist = candidate_histogram(_lookup_with_keys(["00000", "10000"]))
    assert hist[0] == 0.5
    assert abs(sum(hist.values()) - 1.0) < 1e-9


def test_candidate_histogram_empty_lookup():
    with pytest.raises(EmptyLookup):
        candidate_histogram([])


def rec(gold, predicted, step1_labels, space=RGB):
    candidates = (
        candidate_set_from_labels(step1_labels, space) if step1_labels else None
    )
    return Step1Record(gold=gold, predicted=predicted, candidates=candidates)


def test_step1_recall_single_record():
    out = step1_recall([rec("red", "red", ["red", "green"])], RGB)
    assert out == {"red": {"correct": 1.0}}


def test_step1_recall_recovered_error_counts_zero():
    # Gold missing from the candidate set but the final answer still right.
    out = step1_recall([rec("red", "red", ["green"])], RGB)
    assert out == {"red": {"correct": 0.0}}


def test_step1_recall_hand_counted_four_records():
    records = [
        rec("red", "red", ["red"]),        # correct, hit
        rec("red", "green", ["red"]),      # incorrect, hit
        rec("red", "green", ["blue"]),     # incorrect, miss
        rec("green", "green", None),       # correct, step1 failed -> miss
    ]
    out = step1_recall(records, RGB)
    assert out["red"]["correct"] == 1.0
    assert out["red"]["incorrect"] == 0.5
    assert out["green"]["correct"] == 0.0
    assert "blue" not in out
    assert "incorrect" not in out["green"]


def test_step1_recall_aggregates_to_unconditional():
    rng = random.Random(17)
    for _ in range(20):
        records = []
        for _ in range(rng.randint(5, 60)):
            gold = rng.choice(RGB.labels)
            predicted = rng.choice(RGB.labels)
            step1 = [l for l in RGB.labels if rng.random() < 0.5] or None
            records.append(rec(gold, predicted, step1))
        out = step1_recall(records, RGB)
        for label in RGB.labels:
            relevant = [r for r in records if r.gold == label]
            if not relevant:
                assert label not in out
                continue
            hits = sum(
                1
                for r in relevant
                if r.candidates is not None and label in r.candidates.labels_in(RGB)
            )
            unconditional = hits / len(relevant)
            weighted = 0.0
            for stratum, is_correct in (("correct", True), ("incorrect", False)):
                group = [r for r in relevant if (r.predicted == r.gold) == is_correct]
                if group:
                    weighted += out[label][stratum] * len(group) / len(relevant)
            assert weighted == pytest.approx(unconditional, abs=1e-12)
            assert all(0.0 <= v <= 1.0 for v in out[label].values())


def test_projection_dump_round_trips(tmp_path):
    vectors = {"a": [1.0, 2.0], "b": [0.0, 1.0], "c": [3.0, -1.0]}
    golds = {"a": "red", "b": "green", "c": "blue"}
    path = tmp_path / "proj.jsonl"
    dump_projection_input(vectors, golds, path)
    assert len(path.read_text().strip().splitlines()) == 3
    store = load_embeddings(path)
    assert list(store.matrix[store.row["a"]]) == [1.0, 2.0]
    record = json.loads(path.read_text().splitlines()[0])
    assert set(record) == {"id", "label", "vector"}


def test_projection_dump_empty_writes_comment_header(tmp_path):
    path = tmp_path / "empty.jsonl"
    dump_projection_input({}, {}, path)
    assert path.read_text().startswith("#")


def test_projection_dump_mismatched_ids_writes_nothing(tmp_path):
    path = tmp_path / "never.jsonl"
    with pytest.raises(ValueError):
        dump_projection_input({"a": [1.0]}, {"b": "red"}, path)
    assert not path.exists()
