import math
import random

import pytest

from marginsel.knn import (
    DimensionMismatch,
    EmbeddingParseError,
    UnknownId,
    ZeroNorm,
    build_store,
    fetch_embeddings,
    knn_retrieve,
    load_embeddings,
)

from conftest import write_jsonl


def test_load_embeddings(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_jsonl(
        path,
        [{"id": "a", "vector": [1.0, 0.0, 0.5]}, {"id": "b", "vector": [0, 1, 0]}],
    )
    store = load_embeddings(path)
    assert store.dimension == 3
    assert len(store) == 2
    assert "a" in store and "c" not in store


def test_load_embeddings_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.jsonl"
    write_jsonl(path, [{"id": "a", "vector": [1, 2, 3]}, {"id": "b", "vector": [1, 2, 3, 4]}])
    with pytest.raises(DimensionMismatch) as err:
        load_embeddings(path)
    assert err.value.entry_id == "b"


def test_load_embeddings_rejects_nan(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "a", "vector": [1.0, NaN]}\n')
    with pytest.raises(EmbeddingParseError):
        load_embeddings(path)


def test_load_embeddings_rejects_duplicates_and_junk(tmp_path):
    dup = tmp_path / "dup.jsonl"
    write_jsonl(dup, [{"id": "a", "vector": [1]}, {"id": "a", "vector": [2]}])
    with pytest.raises(EmbeddingParseError):
        load_embeddings(dup)
    junk = tmp_path / "junk.jsonl"
    junk.write_text('{"id": "a", "vector": "not a list"}\n')
    with pytest.raises(EmbeddingParseError):
        load_embeddings(junk)


def test_knn_ranks_by_cosine():
    # Same direction (at twice the length), then 0.8, then orthogonal, then
    # opposite: the ranking follows cosine and ignores length.
    store = build_store(
        [("q", [1, 2]), ("a", [2, 4]), ("b", [2, 1]), ("c", [-2, 1]), ("d", [-1, -2])]
    )
    assert knn_retrieve(store, "q", 4, ["d", "c", "b", "a"]) == ["a", "b", "c", "d"]


def test_knn_zero_norm_only_when_considered():
    store = build_store([("q", [1, 0]), ("zero", [0, 0]), ("a", [0, 1]), ("z", [0.0, 0.0])])
    with pytest.raises(ZeroNorm):
        knn_retrieve(store, "q", 1, ["a", "zero"])
    with pytest.raises(ZeroNorm):
        knn_retrieve(store, "z", 1, ["a"])
    # excluded or absent zero vectors are never scored
    assert knn_retrieve(store, "q", 1, ["a", "zero"], exclude_ids={"zero"}) == ["a"]
    assert knn_retrieve(store, "z", 1, []) == []
    assert knn_retrieve(store, "q", 1, ["z"], exclude_ids={"z"}) == []


def test_knn_excluded_unknown_id_does_not_raise():
    store = build_store([("q", [1, 0]), ("a", [1, 1])])
    assert knn_retrieve(store, "q", 2, ["ghost", "a"], exclude_ids={"ghost"}) == ["a"]
    with pytest.raises(UnknownId) as err:
        knn_retrieve(store, "q", 2, ["a", "ghost"])
    assert err.value.entry_id == "ghost"


def test_knn_duplicate_candidate_ids_are_scored_each_time():
    store = build_store([("q", [1, 0]), ("a", [1, 0.1]), ("b", [0, 1])])
    assert knn_retrieve(store, "q", 3, ["b", "a", "b"]) == ["a", "b", "b"]


@pytest.mark.parametrize("n", [2000, 2003])
def test_knn_duplicate_vectors_tie_exactly_in_a_large_store(n):
    # Identical 384-d vectors at rows 0, 1, 1999 and the last row, with ids in
    # the reverse of row order: they score bit-identically wherever they sit
    # (a BLAS kernel may sum a tail row in another order), so they come back
    # adjacent and in ascending id order.
    rng = random.Random(7)
    dup = [rng.gauss(0, 1) for _ in range(384)]
    items = [(f"p{i:04d}", [rng.gauss(0, 1) for _ in range(384)]) for i in range(n)]
    dup_rows = sorted({0, 1, 1999, n - 1})
    dup_ids = [f"dup-{len(dup_rows) - j}" for j in range(len(dup_rows))]
    for row, dup_id in zip(dup_rows, dup_ids):
        items[row] = (dup_id, dup)
    items[1000] = ("query", [x + 0.01 for x in dup])
    store = build_store(items)
    ids = [i for i, _ in items]
    expected = sorted(dup_ids)
    assert knn_retrieve(store, "query", len(expected), ids) == expected
    ranking = knn_retrieve(store, "p0500", len(ids), ids)
    at = ranking.index(expected[0])
    assert ranking[at:at + len(expected)] == expected
    assert ranking == _brute_force(store, "p0500", len(ids), ids)


def test_store_rows_are_views_of_one_matrix():
    store = build_store([("a", [1.0, 2.0]), ("b", [3.0, 4.0])])
    assert store.vectors["b"].base is not None
    assert list(store.get("b")) == [3.0, 4.0]
    assert store.matrix.shape == (2, 2) and not store.matrix.flags.writeable
    assert list(store.norms) == [math.sqrt(5.0), 5.0]


def test_knn_nearest_by_inspection():
    store = build_store([("q", [1, 0]), ("a", [1, 0.1]), ("b", [0, 1])])
    assert knn_retrieve(store, "q", 1, ["a", "b"]) == ["a"]
    assert knn_retrieve(store, "q", 0, ["a", "b"]) == []


def test_knn_excludes_query_and_excluded_ids():
    store = build_store([("q", [1, 0]), ("a", [1, 0]), ("b", [0.9, 0.1])])
    assert knn_retrieve(store, "q", 5, ["q", "a", "b"]) == ["a", "b"]
    assert knn_retrieve(store, "q", 5, ["q", "a", "b"], exclude_ids={"a"}) == ["b"]


def test_knn_tie_break_by_ascending_id():
    store = build_store([("q", [1, 0]), ("zz", [2, 0]), ("aa", [3, 0])])
    # identical direction: cosine ties exactly; lexicographically smaller wins
    assert knn_retrieve(store, "q", 1, ["zz", "aa"]) == ["aa"]


def test_knn_unknown_id():
    store = build_store([("q", [1, 0])])
    with pytest.raises(UnknownId):
        knn_retrieve(store, "missing", 1, ["q"])
    with pytest.raises(UnknownId):
        knn_retrieve(store, "q", 1, ["missing"])


def _brute_force(store, query_id, k, candidate_ids, exclude_ids=()):
    # Independent oracle: plain-python cosine plus a full sort.
    query = store.vectors[query_id]
    excluded = set(exclude_ids) | {query_id}
    rows = []
    for cid in candidate_ids:
        if cid in excluded:
            continue
        vec = store.vectors[cid]
        dot = sum(float(x) * float(y) for x, y in zip(vec, query))
        norm = math.sqrt(sum(float(x) ** 2 for x in vec)) * math.sqrt(
            sum(float(y) ** 2 for y in query)
        )
        rows.append((-(dot / norm), cid))
    rows.sort()
    return [cid for _, cid in rows[:k]]


def test_knn_matches_brute_force_on_random_instances():
    rng = random.Random(2024)
    for trial in range(40):
        n = rng.randint(2, 60)
        dim = rng.randint(1, 8)
        items = []
        for i in range(n):
            vec = [rng.uniform(-1, 1) for _ in range(dim)]
            if all(abs(x) < 1e-9 for x in vec):
                vec[0] = 1.0
            items.append((f"p{i:03d}", vec))
        # duplicated vectors force ties
        if n > 3:
            items[1] = ("p001", list(items[0][1]))
        store = build_store(items)
        ids = [i for i, _ in items]
        query_id = rng.choice(ids)
        k = rng.randint(0, n)
        exclude = set(rng.sample(ids, rng.randint(0, n // 3)))
        got = knn_retrieve(store, query_id, k, ids, exclude)
        want = _brute_force(store, query_id, k, ids, exclude)
        assert got == want
        assert query_id not in got
        assert not (set(got) & exclude)
        avail = len([i for i in ids if i not in exclude and i != query_id])
        assert len(got) == min(k, avail)


def test_knn_determinism():
    rng = random.Random(5)
    items = [(f"i{i}", [rng.uniform(-1, 1) for _ in range(4)]) for i in range(30)]
    store = build_store(items)
    ids = [i for i, _ in items]
    first = knn_retrieve(store, "i3", 7, ids)
    second = knn_retrieve(store, "i3", 7, ids)
    assert first == second


def test_fetch_embeddings_via_endpoint(monkeypatch):
    # Endpoint contract is covered in the client tests; here just the
    # store-building path over the fetch helper.
    from marginsel import knn as knn_module

    closed = []

    class FakeBackend:
        def __init__(self, config):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            closed.append(True)

        def embed(self, text):
            return [float(len(text)), 1.0]

    monkeypatch.setattr(knn_module, "HttpBackend", FakeBackend)
    store = fetch_embeddings(None, [("a", "xy"), ("b", "xyzw")])
    assert closed == [True]
    assert store.dimension == 2
    assert list(store.get("a")) == [2.0, 1.0]
    assert list(store.get("b")) == [4.0, 1.0]
