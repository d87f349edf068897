import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from marginsel import knn
from marginsel.knn import (
    DimensionMismatch,
    EmbeddingParseError,
    Ranking,
    UnknownId,
    ZeroNorm,
    build_index,
    build_store,
    knn_retrieve,
    load_embeddings,
    rank,
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


def test_load_embeddings_rejects_bools(tmp_path):
    path = tmp_path / "emb.jsonl"
    path.write_text('{"id": "a", "vector": [true, 0.5]}\n')
    with pytest.raises(EmbeddingParseError, match="line 1: vector is not numeric"):
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


def test_knn_loads_neither_the_http_client_nor_requests():
    # kNN depends only on core and numpy; a fresh interpreter shows what
    # importing it loads.
    src = Path(knn.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, marginsel.knn; "
            "print(sorted({'marginsel.llm_client', 'requests'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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


def _outcome(fn):
    """fn's result, or the type and the id of the refusal it raised."""
    try:
        return fn()
    except (UnknownId, ZeroNorm) as exc:
        return type(exc).__name__, getattr(exc, "entry_id", None)


def test_ranking_take_matches_knn_retrieve():
    # One ranking answers every (k, exclusions) query as knn_retrieve would:
    # the same ids, or the same refusal with the same id.  Each store has one
    # zero-norm row (sometimes the query), half the candidate lists hold an
    # unknown id, and coordinates from a small set force cosine ties.
    rng = random.Random(606)
    kinds = Counter()
    for trial in range(100):
        n = rng.randint(2, 30)
        dim = rng.randint(1, 5)
        items = [(f"p{i:02d}", [rng.choice([-1.0, -0.5, 0.5, 1.0]) for _ in range(dim)])
                 for i in range(n)]
        zero = rng.randrange(n)
        items[zero] = (items[zero][0], [0.0] * dim)
        store = build_store(items)
        ids = [i for i, _ in items]
        candidates = rng.sample(ids, rng.randint(1, n))
        if trial % 2:
            candidates.insert(rng.randint(0, len(candidates)), "ghost")
        query = "nobody" if trial % 25 == 0 else rng.choice(ids)
        ranking = _outcome(lambda: rank(store, query, candidates))
        for _ in range(3):
            k = rng.randint(0, n)
            exclude = set(rng.sample(candidates, rng.randint(0, len(candidates) // 2)))
            if rng.random() < 0.5:
                exclude |= {ids[zero], "ghost"} if rng.random() < 0.5 else {ids[zero]}
            want = _outcome(lambda: knn_retrieve(store, query, k, candidates, exclude))
            if isinstance(ranking, Ranking):
                got = _outcome(lambda: ranking.take(k, exclude))
            else:
                got = ranking
            assert got == want, (trial, query, k, sorted(exclude))
            kinds[want[0] if isinstance(want, tuple) else "ids"] += 1
    assert sum(kinds.values()) >= 200
    assert min(kinds[kind] for kind in ("ids", "UnknownId", "ZeroNorm")) >= 20, kinds


def test_knn_determinism():
    rng = random.Random(5)
    items = [(f"i{i}", [rng.uniform(-1, 1) for _ in range(4)]) for i in range(30)]
    store = build_store(items)
    ids = [i for i, _ in items]
    first = knn_retrieve(store, "i3", 7, ids)
    second = knn_retrieve(store, "i3", 7, ids)
    assert first == second


def _lexsort_retrieve(store, query_id, k, candidate_ids, exclude_ids=()):
    """Reference: the candidates filtered per query, scored against the whole
    matrix and ordered by one lexsort on (negated score, place among the
    sorted ids); refusals as knn_retrieve documents them."""
    excluded = set(exclude_ids) | {query_id}
    ids = [i for i in candidate_ids if i not in excluded]
    for entry_id in [query_id, *ids]:
        if entry_id not in store.row:
            raise UnknownId(entry_id)
    rows = np.array([store.row[i] for i in ids], dtype=np.intp)
    query = store.row[query_id]
    if rows.size and not (store.norms[query] and store.norms[rows].all()):
        raise ZeroNorm("cosine undefined for a zero vector")
    dots = np.einsum("ij,j->i", store.matrix, store.matrix[query])[rows]
    scores = dots / (store.norms[rows] * store.norms[query])
    place = {entry_id: n for n, entry_id in enumerate(sorted(store.row))}
    order = np.lexsort((np.array([place[i] for i in ids], dtype=np.intp), -scores))
    return [ids[i] for i in order[:k]]


def _index_instance(rng, n, dim):
    """A store of n rows with identical vectors at rows 0, 1, 1999 (when
    there) and the last row under ids in the reverse of row order, and two
    zero rows; a candidate list of most of its ids (the query's sometimes
    among them), two ids with no vector, and one id twice."""
    items = [(f"p{i:04d}", [rng.uniform(-1, 1) for _ in range(dim)]) for i in range(n)]
    dup = [rng.uniform(-1, 1) for _ in range(dim)]
    dup_rows = sorted({0, 1, min(1999, n - 1), n - 1})
    for j, row in enumerate(dup_rows):
        items[row] = (f"dup-{len(dup_rows) - j}", dup)
    for row in rng.sample([r for r in range(2, n - 1) if r not in dup_rows], 2):
        items[row] = (f"zero-{row}", [0.0] * dim)
    store = build_store(items)
    ids = [i for i, _ in items]
    candidates = [i for i in ids if rng.random() < 0.9]
    candidates += ["ghost-b", "ghost-a", rng.choice(candidates)]
    rng.shuffle(candidates)
    return store, ids, candidates


def test_index_ranking_equals_knn_retrieve_and_the_lexsort_reference():
    # A ranking against a CandidateIndex answers every take(k, exclude) as
    # knn_retrieve over the plain list and the lexsort reference do: the same
    # ids, or the same refusal with the same id.  Queries: a zero vector, a
    # duplicated vector, candidates and non-candidates, and an unknown id.
    rng = random.Random(1212)
    kinds = Counter()
    for n, dim in ((2000, 6), (2003, 4), (40, 3), (7, 2)):
        store, ids, candidates = _index_instance(rng, n, dim)
        index = build_index(store, candidates)
        zero = [i for i in ids if i.startswith("zero-")]
        member = next(i for i in candidates if i.startswith("p"))
        queries = [zero[0], "dup-1", "nobody", member, *rng.sample(ids, 4)]
        for query in queries:
            ranking = _outcome(lambda: rank(store, query, index))
            for _ in range(6):
                k = rng.choice([0, 1, rng.randint(0, len(candidates)), len(candidates)])
                exclude = set(rng.sample(candidates, rng.randint(0, 5)))
                if rng.random() < 0.6:
                    exclude |= set(zero)
                if rng.random() < 0.6:
                    exclude |= {"ghost-a", "ghost-b"}
                if query == zero[0] and rng.random() < 0.3:
                    exclude = set(candidates)
                want = _outcome(lambda: _lexsort_retrieve(store, query, k, candidates, exclude))
                assert _outcome(lambda: knn_retrieve(store, query, k, candidates, exclude)) == want
                assert _outcome(lambda: knn_retrieve(store, query, k, index, exclude)) == want
                if isinstance(ranking, Ranking):
                    got = _outcome(lambda: ranking.take(k, exclude))
                else:
                    got = ranking
                assert got == want, (n, query, k, sorted(exclude))
                kinds[want[0] if isinstance(want, tuple) else "ids" if want else "empty"] += 1
        # the duplicated vectors tie exactly and come back in ascending id order
        dups = sorted(i for i in candidates if i.startswith("dup-") and i != "dup-1")
        near = knn_retrieve(store, "dup-1", len(candidates), index, zero + ["ghost-a", "ghost-b"])
        assert near[:len(dups)] == dups
    assert min(kinds[kind] for kind in ("ids", "empty", "UnknownId", "ZeroNorm")) >= 5, kinds


def test_index_refuses_another_store():
    store = build_store([("q", [1, 0]), ("a", [1, 1])])
    other = build_store([("q", [1, 0]), ("a", [1, 1])])
    index = build_index(store, ["a"])
    assert rank(store, "q", index).take(1) == ["a"]
    with pytest.raises(ValueError):
        rank(other, "q", index)
    with pytest.raises(ValueError):
        knn_retrieve(other, "q", 1, index)
