import random

import pytest

from marginsel.core import (
    CandidateSet,
    Example,
    LabelSpace,
    candidate_set_from_key,
    candidate_set_from_labels,
)
from marginsel.dataset import LabelFrequency, label_frequency
from marginsel.knn import build_store, knn_retrieve
from marginsel.llm_client import CachedBackend, MockBackend, MockRule, mock_multilabel
from marginsel.selection import (
    DemoSet,
    EmptySelection,
    LookupEntry,
    LookupTable,
    Pool,
    MissingFrequency,
    SelectionConfig,
    build_lookup,
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
    entries = [
        entry("1", "red", "110"),
        entry("2", "green", "010"),
        entry("3", "blue", "000"),  # degraded entry survives persistence
    ]
    first = tmp_path / "lookup1.jsonl"
    second = tmp_path / "lookup2.jsonl"
    save_lookup(entries, first, RGB)
    reloaded = load_lookup(first, RGB)
    assert reloaded == entries
    save_lookup(reloaded, second, RGB)
    assert first.read_bytes() == second.read_bytes()


# --------------------------------------------------------------------------
# match_hard
# --------------------------------------------------------------------------


def test_match_hard_bit_identity():
    space = LabelSpace(["l1", "l2", "l3", "l4", "l5"])
    lookup = [
        entry("1", "l1", "10010", space),
        entry("2", "l1", "10001", space),
        entry("3", "l4", "10010", space),
    ]
    test_set = candidate_set_from_key("10010", space)
    assert [e.example.id for e in match_hard(lookup, test_set)] == ["1", "3"]


def test_match_hard_empty_result_and_sentinel_exclusion():
    lookup = [entry("1", "red", "100"), entry("2", "red", "000")]
    assert match_hard(lookup, candidate_set_from_key("010", RGB)) == []
    # parse-failure entries never match any non-empty test set
    assert match_hard(lookup, candidate_set_from_key("100", RGB)) == [lookup[0]]
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
    assert weighted_sample(matched, 5, rho, seed=1) == matched
    assert weighted_sample(matched, 3, rho, seed=1) == matched


def test_missing_frequency():
    matched = [entry("1", "red", "100")]
    with pytest.raises(MissingFrequency):
        weighted_sample(matched, 0, _rho(green=1.0), seed=0)


def test_first_draw_probability_matches_inverse_frequency():
    # 90 red / 10 green pool with rho = {red: .9, green: .1}: the green class
    # holds half the total weight, so a green entry leads the draw half the
    # time.  Expected 0.5 computed analytically from w = 1/rho.
    matched = [entry(f"r{i}", "red", "100") for i in range(90)]
    matched += [entry(f"g{i}", "green", "010") for i in range(10)]
    rho = _rho(red=0.9, green=0.1)
    hits = sum(
        weighted_sample(matched, 1, rho, seed=s)[0].example.gold == "green"
        for s in range(10_000)
    )
    assert abs(hits / 10_000 - 0.5) < 0.03


def test_weighted_sample_deterministic_and_without_replacement():
    matched = [entry(str(i), "red" if i % 2 else "green", "110") for i in range(12)]
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
    assert isinstance(pool, Pool) and pool == rows
    oracle_rows = [(e.example.id, e.example.gold) for e in rows]
    for k in (1, 4, 16):
        for seed in range(200):
            want = oracle_draw(oracle_rows, rho.proportions, k, seed)
            assert [e.example.id for e in weighted_sample(pool, k, rho, seed)] == want
            if seed % 20 == 0:  # a plain list is wrapped per call
                got = weighted_sample(rows, k, rho, seed)
                assert [e.example.id for e in got] == want


def test_lookup_table_indexes_once(tmp_path):
    rows = [entry("1", "red", "110"), entry("2", "blue", "011"), entry("3", "green", "110")]
    save_lookup(rows, tmp_path / "lookup.jsonl", RGB)
    table = load_lookup(tmp_path / "lookup.jsonl", RGB)
    assert isinstance(table, LookupTable)
    assert table == rows and not table != rows and tuple(table) == tuple(rows)
    assert table.pools[candidate_set_from_key("110", RGB)] == [rows[0], rows[2]]
    assert table.examples["2"] == rows[1].example
    assert [table.labels[c] for c in table.codes] == ["red", "blue", "green"]
    with pytest.raises(TypeError):
        table[0] = rows[1]


def test_select_demos_same_for_a_list_and_a_table():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    test_set = candidate_set_from_key("110", RGB)
    for alpha in (0.0, 0.5, 1.0):
        cfg = SelectionConfig(alpha, 4, seed=5)
        from_list = select_demos(lookup, test_set, (store, "test"), rho, cfg)
        from_table = select_demos(LookupTable(lookup), test_set, (store, "test"), rho, cfg)
        assert from_list == from_table


# --------------------------------------------------------------------------
# select_demos
# --------------------------------------------------------------------------


def _store_for(lookup, query_vec=(1.0, 0.0)):
    rng = random.Random(4)
    items = [("test", list(query_vec))]
    for e in lookup:
        items.append((e.example.id, [rng.uniform(-1, 1), rng.uniform(-1, 1)]))
    return build_store(items)


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
    return lookup, label_frequency(train)


def test_alpha_zero_is_pure_knn():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    test_set = candidate_set_from_key("110", RGB)
    demos = select_demos(
        lookup, test_set, (store, "test"), rho, SelectionConfig(0.0, 4, seed=3)
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
        lookup, test_set, (store, "test"), rho, SelectionConfig(0.5, 4, seed=7)
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
        lookup, test_set, (store, "test"), rho, SelectionConfig(0.9, 4, seed=1)
    )
    assert len(demos) == 4  # 1 hard + 3 backfilled
    assert [e.source for e in demos][:1] == ["hard"]
    assert demos.entries[0].example.id == "5"


def test_empty_step1_with_mixed_alpha_degrades_to_knn():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    demos = select_demos(
        lookup, None, (store, "test"), rho, SelectionConfig(0.5, 4, seed=1)
    )
    assert all(e.source == "knn" for e in demos)
    assert len(demos) == 4


def test_select_demos_deterministic():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    test_set = candidate_set_from_key("110", RGB)
    cfg = SelectionConfig(0.5, 4, seed=11)
    a = select_demos(lookup, test_set, (store, "test"), rho, cfg)
    b = select_demos(lookup, test_set, (store, "test"), rho, cfg)
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
            lookup, test_set, (store, "q"), rho, SelectionConfig(0.0, shots, seed=trial)
        )
        expected = knn_retrieve(store, "q", shots, [e.example.id for e in lookup])
        assert demos.ids() == expected
