import random
import sys

import numpy as np
import pytest

from marginsel.core import (
    CandidateSet,
    Example,
    LabelSpace,
    candidate_set_from_key,
    candidate_set_from_labels,
)
from marginsel.dataset import LabelFrequency, label_frequency
from marginsel import selection as selection_module
from marginsel.knn import ZeroNorm, build_store, knn_retrieve, rank
from marginsel.llm_client import CachedBackend, MockBackend, MockRule, mock_multilabel
from marginsel.selection import (
    DemoSet,
    EmptySelection,
    LookupEntry,
    LookupTable,
    Pool,
    MissingFrequency,
    PrefixDraw,
    SelectionConfig,
    build_lookup,
    hard_picks,
    load_lookup,
    match_hard,
    save_lookup,
    select_demos,
    weighted_sample,
)

from conftest import make_dataset, synthetic_templates

RGB = LabelSpace(["red", "green", "blue"])


def entry(eid, gold, key, space=RGB, text=None):
    return LookupEntry(
        example=Example(id=eid, text=text or f"text {eid}", gold=gold),
        candidates=candidate_set_from_key(key, space),
    )


# --------------------------------------------------------------------------
# build_lookup
# --------------------------------------------------------------------------


def test_build_lookup_matches_mock_rule_oracle():
    rule = MockRule(
        {"crimson": frozenset({"red"}), "leafy": frozenset({"green"})},
        default="blue",
    )
    train = make_dataset(
        RGB,
        [
            ("1", "a crimson thing", "red"),
            ("2", "leafy crimson mix", "green"),
            ("3", "nothing notable", "blue"),
        ],
    )
    backend = MockBackend(rule, RGB)
    candidate_template, _ = synthetic_templates()
    entries = build_lookup(train, backend, candidate_template)
    assert len(entries) == 3
    for e in entries:
        assert e.candidates == mock_multilabel(rule, e.example.text, RGB)


def test_build_lookup_warm_cache_makes_zero_calls(tmp_path):
    rule = MockRule({"crimson": frozenset({"red"})}, default="blue")
    train = make_dataset(RGB, [("1", "crimson", "red"), ("2", "plain", "blue")])
    candidate_template, _ = synthetic_templates()
    inner = MockBackend(rule, RGB)
    backend = CachedBackend(inner, tmp_path / "cache")
    first = build_lookup(train, backend, candidate_template)
    calls_after_first = inner.calls
    second = build_lookup(train, backend, candidate_template)
    assert inner.calls == calls_after_first  # all cache hits
    assert first == second


def test_build_lookup_degraded_entry_on_bad_reply(caplog):
    class NoTagBackend:
        model_name = "braindead"
        temperature = 0.0

        def complete(self, system, user):
            return "no tags at all", 1

    train = make_dataset(RGB, [("1", "whatever", "red")])
    candidate_template, _ = synthetic_templates()
    with caplog.at_level("WARNING"):
        entries = build_lookup(train, NoTagBackend(), candidate_template)
    assert len(entries) == 1
    assert entries[0].candidates.is_empty
    assert any("parse failed" in r.message for r in caplog.records)


def test_lookup_round_trip_is_byte_identical(tmp_path):
    entries = LookupTable([
        entry("1", "red", "110"),
        entry("2", "green", "010"),
        entry("3", "blue", "000"),  # degraded entry survives persistence
    ])
    first = tmp_path / "lookup1.jsonl"
    second = tmp_path / "lookup2.jsonl"
    save_lookup(entries, first, RGB)
    reloaded = load_lookup(first, RGB)
    assert reloaded == entries
    save_lookup(reloaded, second, RGB)
    assert first.read_bytes() == second.read_bytes()


def test_interrupted_lookup_save_keeps_the_previous_table(tmp_path, monkeypatch):
    rows = [entry(str(i), "red", "110") for i in range(5)]
    path = tmp_path / "lookup.jsonl"
    save_lookup(rows, path, RGB)
    before = path.read_bytes()
    real_dumps = selection_module.json.dumps
    calls = []

    def interrupted_after_two(*args, **kwargs):
        calls.append(None)
        if len(calls) > 2:
            raise KeyboardInterrupt
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr(selection_module.json, "dumps", interrupted_after_two)
    with pytest.raises(KeyboardInterrupt):
        save_lookup(rows, path, RGB)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["lookup.jsonl"]


# --------------------------------------------------------------------------
# match_hard
# --------------------------------------------------------------------------


def test_match_hard_bit_identity():
    space = LabelSpace(["l1", "l2", "l3", "l4", "l5"])
    lookup = LookupTable([
        entry("1", "l1", "10010", space),
        entry("2", "l1", "10001", space),
        entry("3", "l4", "10010", space),
    ])
    test_set = candidate_set_from_key("10010", space)
    assert [e.example.id for e in match_hard(lookup, test_set)] == ["1", "3"]


def test_match_hard_empty_result_and_sentinel_exclusion():
    lookup = LookupTable([entry("1", "red", "100"), entry("2", "red", "000")])
    assert match_hard(lookup, candidate_set_from_key("010", RGB)) == ()
    # parse-failure entries never match any non-empty test set
    assert match_hard(lookup, candidate_set_from_key("100", RGB)) == (lookup[0],)
    with pytest.raises(ValueError):
        match_hard(lookup, CandidateSet.empty(RGB))


# --------------------------------------------------------------------------
# weighted_sample
# --------------------------------------------------------------------------


def _rho(**props):
    return LabelFrequency({k: v for k, v in props.items()})


def test_small_pool_returned_unchanged():
    matched = [entry(str(i), "red", "100") for i in range(3)]
    rho = _rho(red=1.0)
    assert weighted_sample(Pool(matched), 5, rho, seed=1) == matched
    assert weighted_sample(Pool(matched), 3, rho, seed=1) == matched


def test_missing_frequency():
    matched = Pool([entry("1", "red", "100")])
    with pytest.raises(MissingFrequency):
        weighted_sample(matched, 0, _rho(green=1.0), seed=0)


def test_first_draw_probability_matches_inverse_frequency():
    # 90 red / 10 green pool with rho = {red: .9, green: .1}: the green class
    # holds half the total weight, so a green entry leads the draw half the
    # time.  Expected 0.5 computed analytically from w = 1/rho.
    matched = [entry(f"r{i}", "red", "100") for i in range(90)]
    matched = Pool(matched + [entry(f"g{i}", "green", "010") for i in range(10)])
    rho = _rho(red=0.9, green=0.1)
    hits = sum(
        weighted_sample(matched, 1, rho, seed=s)[0].example.gold == "green"
        for s in range(10_000)
    )
    assert abs(hits / 10_000 - 0.5) < 0.03


def test_weighted_sample_deterministic_and_without_replacement():
    matched = Pool([entry(str(i), "red" if i % 2 else "green", "110") for i in range(12)])
    rho = _rho(red=0.5, green=0.5)
    a = weighted_sample(matched, 5, rho, seed=99)
    b = weighted_sample(matched, 5, rho, seed=99)
    assert [e.example.id for e in a] == [e.example.id for e in b]
    assert len({e.example.id for e in a}) == 5
    c = weighted_sample(matched, 5, rho, seed=100)
    assert [e.example.id for e in a] != [e.example.id for e in c]


def test_weighted_sample_replays_the_oracle_on_a_large_pool():
    # The oracle is the acceptance suite's scalar replay of the documented
    # protocol; the vectorised draw must pick the same ids in the same order.
    from test_acceptance import oracle_draw

    space = LabelSpace(["l1", "l2", "l3", "l4", "l5"])
    rng = random.Random(11)
    golds = rng.choices(space.labels, weights=[40, 25, 17, 11, 7], k=3000)
    rows = [entry(f"e{i:04d}", g, "11010", space) for i, g in enumerate(golds)]
    rho = label_frequency(
        make_dataset(space, [(e.example.id, e.example.text, e.example.gold) for e in rows])
    )
    pool = match_hard(LookupTable(rows), candidate_set_from_key("11010", space))
    assert isinstance(pool, Pool) and pool == tuple(rows)
    oracle_rows = [(e.example.id, e.example.gold) for e in rows]
    for k in (1, 4, 16):
        for seed in range(200):
            want = oracle_draw(oracle_rows, rho.proportions, k, seed)
            assert [e.example.id for e in weighted_sample(pool, k, rho, seed)] == want


def test_weighted_sample_cap_takes_the_last_remaining_entry(monkeypatch):
    # r = rng.random() * total can round up to the total itself; the draw
    # then takes the last entry still in the pool, as the documented protocol
    # does, and never one already picked.
    from test_acceptance import oracle_draw

    class TopOfRange:
        def __init__(self, seed):
            pass

        def random(self):
            return 1.0  # r equals the total on every draw

    monkeypatch.setattr(selection_module.random, "Random", TopOfRange)
    rows = [entry("a", "red", "110"), entry("b", "green", "110"),
            entry("c", "red", "110"), entry("d", "blue", "110")]
    rho = label_frequency(
        make_dataset(RGB, [(e.example.id, e.example.text, e.example.gold) for e in rows])
    )
    got = [e.example.id for e in weighted_sample(Pool(rows), 3, rho, seed=0)]
    want = oracle_draw([(e.example.id, e.example.gold) for e in rows], rho.proportions, 3, 0)
    assert got == want == ["d", "c", "b"]


def test_weighted_sample_carries_exact_cumulative_sums(monkeypatch):
    # The cumulative weights a draw carries from pick to pick must equal, bit
    # for bit, a fresh cumsum over the weights left (picked slots zeroed):
    # an ulp off moves a pick whenever r lands on a boundary, which no replay
    # of random draws is likely to hit.  The rng stub reads the draw's arrays
    # from weighted_sample's frame before every draw after the first.
    real = random.Random
    checked = []

    class Checking:
        def __init__(self, seed):
            self.rng = real(seed)

        def random(self):
            state = sys._getframe(1).f_locals
            weights, cumulative = state["weights"], state["cumulative"]
            if not weights.all():
                assert cumulative.tobytes() == np.cumsum(weights).tobytes()
                checked.append(len(weights) - np.count_nonzero(weights))
            return self.rng.random()

    monkeypatch.setattr(selection_module.random, "Random", Checking)
    space = LabelSpace(["l1", "l2", "l3", "l4", "l5"])
    rho = _rho(l1=0.40, l2=0.25, l3=0.17, l4=0.11, l5=0.07)
    rng = real(23)
    for n in (2, 3, 9, 40, 300):
        for trial in range(20):
            golds = rng.choices(space.labels, weights=[40, 25, 17, 11, 7], k=n)
            pool = Pool([entry(f"e{i}", g, "11111", space) for i, g in enumerate(golds)])
            weighted_sample(pool, min(n - 1, 24), rho, seed=trial)
    assert len(checked) > 1000 and max(checked) == 23


def test_hard_draw_prefixes_equal_weighted_sample():
    # A run reads every cell's hard picks off one draw order per (test input,
    # seed); each read must equal a weighted_sample call of its own, for
    # pools shorter than, equal to and longer than the quota.
    rng = random.Random(5)
    rho = _rho(red=0.5, green=0.3, blue=0.2)
    golds = ["red", "green", "blue"]
    pools = [Pool([entry(f"p{n}-{i}", rng.choice(golds), "111") for i in range(n)])
             for n in range(41)]
    pools.append(Pool([entry(f"big-{i}", rng.choices(golds, [5, 3, 2])[0], "111")
                       for i in range(3000)]))
    for quotas in ([2, 4, 4, 8], [16, 4], [1, 3, 17, 2]):
        for pool in pools:
            for seed in range(3):
                for draw in (PrefixDraw(max(quotas)), PrefixDraw()):
                    for k in quotas:
                        assert hard_picks(draw, pool, k, rho, seed) == weighted_sample(
                            pool, k, rho, seed)
                    if len(pool) > 1:
                        assert len(draw.picks) <= len(pool) - 1


def test_hard_draw_fails_every_take_on_a_missing_frequency():
    pool = Pool([entry("1", "red", "110"), entry("2", "green", "110"), entry("3", "red", "110")])
    draw = PrefixDraw(4)
    for k in (1, 2, 4):
        with pytest.raises(MissingFrequency):
            hard_picks(draw, pool, k, _rho(red=1.0), seed=0)


def test_lookup_table_indexes_once(tmp_path):
    rows = [entry("1", "red", "110"), entry("2", "blue", "011"), entry("3", "green", "110")]
    save_lookup(rows, tmp_path / "lookup.jsonl", RGB)
    table = load_lookup(tmp_path / "lookup.jsonl", RGB)
    assert isinstance(table, LookupTable)
    assert tuple(table) == tuple(rows)
    assert table.pools[candidate_set_from_key("110", RGB)] == (rows[0], rows[2])
    assert table.examples["2"] == rows[1].example
    with pytest.raises(TypeError):
        table[0] = rows[1]


# --------------------------------------------------------------------------
# select_demos
# --------------------------------------------------------------------------


def _store_for(lookup, query_vec=(1.0, 0.0)):
    rng = random.Random(4)
    items = [("test", list(query_vec))]
    for e in lookup:
        items.append((e.example.id, [rng.uniform(-1, 1), rng.uniform(-1, 1)]))
    return build_store(items)


def _ranking(store, lookup, query="test"):
    """The query's neighbour ranking over the lookup's ids."""
    return rank(store, query, [e.example.id for e in lookup])


def _lookup_fixture():
    lookup = [
        entry("1", "red", "110"),
        entry("2", "green", "110"),
        entry("3", "blue", "011"),
        entry("4", "red", "110"),
        entry("5", "green", "010"),
        entry("6", "blue", "011"),
    ]
    train = make_dataset(
        RGB, [(e.example.id, e.example.text, e.example.gold) for e in lookup]
    )
    return LookupTable(lookup), label_frequency(train)


def test_alpha_zero_is_pure_knn():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    test_set = candidate_set_from_key("110", RGB)
    demos = select_demos(
        lookup, test_set, _ranking(store, lookup), rho, SelectionConfig(0.0, 4, seed=3)
    )
    knn_ids = knn_retrieve(store, "test", 4, [e.example.id for e in lookup])
    assert demos.ids() == knn_ids
    assert all(e.source == "knn" for e in demos)


def test_alpha_one_hard_only_and_pool_exhaustion():
    lookup, rho = _lookup_fixture()
    test_set = candidate_set_from_key("011", RGB)  # matches ids 3 and 6
    demos = select_demos(lookup, test_set, None, rho, SelectionConfig(1.0, 4, seed=0))
    assert sorted(demos.ids()) == ["3", "6"]
    assert all(e.source == "hard" for e in demos)


def test_alpha_one_empty_match_raises():
    lookup, rho = _lookup_fixture()
    test_set = candidate_set_from_key("101", RGB)
    with pytest.raises(EmptySelection):
        select_demos(lookup, test_set, None, rho, SelectionConfig(1.0, 4, seed=0))


def test_alpha_one_empty_step1_raises():
    lookup, rho = _lookup_fixture()
    with pytest.raises(EmptySelection):
        select_demos(lookup, None, None, rho, SelectionConfig(1.0, 4, seed=0))


def test_mixed_alpha_quota_and_ordering():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    test_set = candidate_set_from_key("110", RGB)  # matches 1, 2, 4
    demos = select_demos(
        lookup, test_set, _ranking(store, lookup), rho, SelectionConfig(0.5, 4, seed=7)
    )
    sources = [e.source for e in demos]
    assert sources == ["hard", "hard", "knn", "knn"]
    assert len(set(demos.ids())) == 4
    hard_ids = {e.example.id for e in demos if e.source == "hard"}
    assert hard_ids <= {"1", "2", "4"}


def test_knn_backfills_hard_shortfall():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    test_set = candidate_set_from_key("010", RGB)  # only id 5 matches
    demos = select_demos(
        lookup, test_set, _ranking(store, lookup), rho, SelectionConfig(0.9, 4, seed=1)
    )
    assert len(demos) == 4  # 1 hard + 3 backfilled
    assert [e.source for e in demos][:1] == ["hard"]
    assert demos.entries[0].example.id == "5"


def test_empty_step1_with_mixed_alpha_degrades_to_knn():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    demos = select_demos(
        lookup, None, _ranking(store, lookup), rho, SelectionConfig(0.5, 4, seed=1)
    )
    assert all(e.source == "knn" for e in demos)
    assert len(demos) == 4


def test_zero_norm_hard_pick_is_never_scored():
    # Id 3 has a zero vector.  Picked as a hard demo it is excluded from the
    # kNN fill, so it is never scored and never raises; a ranking that must
    # consider it does raise.
    lookup, rho = _lookup_fixture()
    store = build_store(
        [("test", [1.0, 0.0]), ("1", [0.9, 0.4]), ("2", [0.2, 1.0]), ("3", [0.0, 0.0]),
         ("4", [1.0, 0.1]), ("5", [-1.0, 0.3]), ("6", [0.5, 0.5])]
    )
    ids = [e.example.id for e in lookup]
    test_set = candidate_set_from_key("011", RGB)  # matches ids 3 and 6
    cfg = SelectionConfig(0.5, 4, seed=0)
    ranking = rank(store, "test", ids)
    demos = select_demos(lookup, test_set, ranking, rho, cfg)
    assert demos.ids() == ["3", "6"] + knn_retrieve(store, "test", 2, ids, {"3", "6"})
    assert [e.source for e in demos] == ["hard", "hard", "knn", "knn"]
    with pytest.raises(ZeroNorm):
        ranking.take(2)


def test_select_demos_deterministic():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    test_set = candidate_set_from_key("110", RGB)
    cfg = SelectionConfig(0.5, 4, seed=11)
    a = select_demos(lookup, test_set, _ranking(store, lookup), rho, cfg)
    b = select_demos(lookup, test_set, _ranking(store, lookup), rho, cfg)
    assert a.ids() == b.ids()
    assert [e.source for e in a] == [e.source for e in b]


def test_demoset_invariants():
    ex = lambda i: Example(id=i, text="t", gold="red")
    from marginsel.selection import DemoEntry

    with pytest.raises(ValueError):
        DemoSet((DemoEntry(ex("1"), "hard"), DemoEntry(ex("1"), "knn")))
    with pytest.raises(ValueError):
        DemoSet((DemoEntry(ex("1"), "knn"), DemoEntry(ex("2"), "hard")))
    with pytest.raises(ValueError):
        DemoSet((DemoEntry(ex("1"), "weird"),))


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(alpha=1.5, shots=4, seed=0)
    with pytest.raises(ValueError):
        SelectionConfig(alpha=0.5, shots=0, seed=0)


def test_alpha_boundary_equivalence_property():
    # alpha = 0 reproduces plain retrieval on random instances.
    rng = random.Random(77)
    for trial in range(25):
        n = rng.randint(3, 40)
        lookup = []
        rows = []
        for i in range(n):
            gold = rng.choice(RGB.labels)
            key = "".join(rng.choice("01") for _ in range(3))
            if key == "000":
                key = "100"
            lookup.append(entry(f"e{i:02d}", gold, key))
            rows.append((f"e{i:02d}", f"t{i}", gold))
        train = make_dataset(RGB, rows)
        rho = label_frequency(train)
        items = [("q", [rng.uniform(-1, 1), rng.uniform(-1, 1)])]
        items += [
            (e.example.id, [rng.uniform(-1, 1), rng.uniform(-1, 1)]) for e in lookup
        ]
        store = build_store(items)
        shots = rng.randint(1, 6)
        test_set = candidate_set_from_labels([rng.choice(RGB.labels)], RGB)
        demos = select_demos(
            LookupTable(lookup), test_set, _ranking(store, lookup, "q"), rho,
            SelectionConfig(0.0, shots, seed=trial)
        )
        expected = knn_retrieve(store, "q", shots, [e.example.id for e in lookup])
        assert demos.ids() == expected
