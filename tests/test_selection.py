import itertools
import math
import random

import numpy as np
import pytest

from marginsel.core import (
    CandidateSet,
    Example,
    LabelSpace,
    candidate_set_from_labels,
)
from marginsel.dataset import LabelFrequency, label_frequency
from marginsel import selection as selection_module
from marginsel.knn import ZeroNorm, build_store, knn_retrieve, rank
from marginsel.llm_client import CachedBackend, MockBackend, MockRule, mock_multilabel
from marginsel.selection import (
    EmptySelection,
    LookupEntry,
    LookupTable,
    Pool,
    MissingFrequency,
    PrefixDraw,
    assign_candidates,
    build_lookup,
    hard_picks,
    load_lookup,
    match_hard,
    save_lookup,
    select_demos,
    weighted_sample,
)

from conftest import candidate_set_from_key, make_dataset, synthetic_templates

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
            return "no tags at all"

    # both texts get the same bad reply, and each logs its own failure
    train = make_dataset(RGB, [("1", "whatever", "red"), ("2", "anything", "green")])
    candidate_template, _ = synthetic_templates()
    with caplog.at_level("WARNING"):
        entries = build_lookup(train, NoTagBackend(), candidate_template)
    assert len(entries) == 2
    assert all(e.candidates.is_empty for e in entries)
    failures = [r.getMessage() for r in caplog.records if "parse failed" in r.getMessage()]
    assert len(failures) == 2
    assert "'whatever'" in failures[0] and "'anything'" in failures[1]


class SamplingBackend:
    """Answers each request with the next label of a cycle, as a backend that
    samples may give another reply to the same prompt."""

    model_name = "sampler"
    temperature = 1.0

    def __init__(self):
        self.calls = 0

    def complete(self, system, user):
        self.calls += 1
        return f"<label>{RGB.labels[self.calls % 3]}</label>"


def test_step1_asks_each_distinct_text_once(tmp_path):
    # Inputs with the same text share one request and one candidate set, so
    # a sampling backend gives the same sets with the response cache on and off.
    texts = ["same words"] * 3 + ["other words"] + ["same words"] * 3
    candidate_template, _ = synthetic_templates()
    runs = []
    for cache_dir in (None, tmp_path / "cache"):
        sampler = SamplingBackend()
        backend = sampler if cache_dir is None else CachedBackend(sampler, cache_dir)
        runs.append(assign_candidates(backend, candidate_template, texts, RGB))
        assert sampler.calls == 2
    assert runs[0] == runs[1]
    # asked in first-occurrence order: "same words" got the first reply
    assert [c.labels_in(RGB) for c in runs[0]] == [("green",)] * 3 + [("blue",)] + [("green",)] * 3


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


def _aimed_rng(weights, aim, real=random.Random):
    """A random.Random stand-in whose every random() aims r = random() *
    total at the point that ``aim(cumulative, left, chooser)`` picks, given
    the protocol's prefix sums and the weights left (picked ones 0.0).  It
    follows the protocol's picks itself, so a fresh instance replays the
    same values, as random.Random does for a seed."""

    class Aimed:
        def __init__(self, seed):
            self.chooser = real(seed)
            self.left = list(weights)  # picked weights set to 0.0

        def random(self):
            cumulative = list(itertools.accumulate(self.left))
            total = cumulative[-1]
            target = aim(cumulative, self.left, self.chooser)
            u = min(target / total, 1.0)
            for _ in range(4):  # nudge u until u * total hits the target
                if u * total == target or u >= 1.0:
                    break
                u = math.nextafter(u, math.inf if u * total < target else -math.inf)
            r = u * total
            chosen = next((i for i, c in enumerate(cumulative) if c > r), None)
            if chosen is None:
                chosen = max(i for i, w in enumerate(self.left) if w)
            self.left[chosen] = 0.0
            return u

    return Aimed


def _on_a_boundary(after):
    """An aim that puts r anywhere for the first ``after`` picks, then on the
    prefix sum at a remaining row, or one ulp below or above it."""

    def aim(cumulative, left, chooser):
        if left.count(0.0) < after:
            return chooser.random() * cumulative[-1]
        edge = cumulative[chooser.choice([i for i, w in enumerate(left) if w])]
        return chooser.choice([math.nextafter(edge, -math.inf), edge,
                               math.nextafter(edge, math.inf)])

    return aim


def _check_aimed_draws(monkeypatch, golds, rho, aim_for, seeds, depths):
    """weighted_sample under the rng that aim_for(depth, seed) aims, against
    oracle_draw; returns the number of draws and of fallbacks."""
    from test_acceptance import oracle_draw

    replays = []
    replay = selection_module._replay
    space = LabelSpace(["l1", "l2", "l3", "l4", "l5"])
    pool = Pool([entry(f"e{i}", g, "11111", space) for i, g in enumerate(golds)])
    weights = [rho.weight(g) for g in golds]
    rows = [(e.example.id, e.example.gold) for e in pool]
    draws = 0
    for depth in depths:
        for seed in seeds:
            with monkeypatch.context() as patch:
                patch.setattr(selection_module, "_replay",
                              lambda *args: replays.append(None) or replay(*args))
                patch.setattr(selection_module.random, "Random",
                              _aimed_rng(weights, aim_for(depth, seed)))
                got = [e.example.id for e in weighted_sample(pool, depth, rho, seed)]
                want = oracle_draw(rows, rho.proportions, depth, seed)
            assert got == want, (len(golds), depth, seed)
            draws += 1
    return draws, len(replays)


def test_weighted_sample_falls_back_on_prefix_sum_boundaries(monkeypatch):
    # r exactly on a prefix sum of the protocol's remaining weights, or one
    # ulp either side, sits inside the search's error margin, so no such pick
    # can be certified, whichever pick of the draw it is: every draw must be
    # the protocol's own replay, and equal the oracle's.
    space = ["l1", "l2", "l3", "l4", "l5"]
    rho = _rho(l1=0.40, l2=0.25, l3=0.17, l4=0.11, l5=0.07)
    rng = random.Random(23)
    total = fallbacks = 0
    for n in (2, 3, 9, 40, 300):
        golds = rng.choices(space, weights=[40, 25, 17, 11, 7], k=n)
        depths = sorted({1, min(n - 1, 2), min(n - 1, 7), min(n - 1, 24)})
        draws, replays = _check_aimed_draws(
            monkeypatch, golds, rho, lambda depth, seed: _on_a_boundary(seed % depth),
            range(8), depths)
        total += draws
        fallbacks += replays
    assert total > 100 and fallbacks == total


def test_weighted_sample_falls_back_where_the_margin_is_wider_than_a_row(monkeypatch):
    # Weights from 1 to 1e12: the margin (16 n u T) is wider than the light
    # rows, so r aimed at the middle of a light row cannot be certified
    # although it is far from either edge in exact terms; the fallback runs
    # and the picks stay the oracle's.
    rho = _rho(l1=1.0, l2=1e-3, l3=1e-6, l4=1e-9, l5=1e-12)
    rng = random.Random(7)
    golds = rng.choices(["l1", "l2", "l3", "l4", "l5"], weights=[60, 20, 10, 6, 4], k=300)

    def mid_light_row(cumulative, left, chooser):
        light = [i for i, w in enumerate(left) if 0.0 < w <= 1.0]
        if not light or chooser.random() < 0.3:
            return chooser.random() * cumulative[-1]
        i = chooser.choice(light)
        return cumulative[i] - left[i] / 2

    draws, fallbacks = _check_aimed_draws(monkeypatch, golds, rho,
                                          lambda depth, seed: mid_light_row, range(20), (1, 5, 24))
    assert draws == 60 and 0 < fallbacks < draws


def test_weighted_sample_is_the_protocol_over_many_draws():
    # 4000 seeded draws over pools of 2 to 20000 rows, depths 1-24 and three
    # rho per pool: each equals the protocol's step-for-step replay, and on
    # pools of up to 400 rows the acceptance oracle too; none needs the
    # fallback.
    from test_acceptance import oracle_draw

    space = ["l1", "l2", "l3", "l4", "l5"]
    rng = random.Random(4000)
    rhos = []
    for _ in range(3):
        props = [rng.uniform(0.01, 1.0) for _ in space]
        rhos.append(LabelFrequency({l: p / sum(props) for l, p in zip(space, props)}))
    sizes = sorted({round(2 ** (1 + i * math.log2(10000) / 39)) for i in range(40)})
    draws = fallbacks = 0
    for n in sizes:
        golds = rng.choices(space, weights=[rng.random() for _ in space], k=n)
        pool = Pool([entry(f"e{i}", g, "11111", LabelSpace(space)) for i, g in enumerate(golds)])
        rows = [(e.example.id, e.example.gold) for e in pool]
        weights = [np.array([rho.weight(g) for g in golds]) for rho in rhos]
        for _ in range(4000 // len(sizes) + 1):
            which, k, seed = rng.randrange(len(rhos)), rng.randint(1, min(24, n - 1)), rng.getrandbits(64)
            rho = rhos[which]
            want = selection_module._replay(weights[which], k, random.Random(seed))
            got = weighted_sample(pool, k, rho, seed)
            assert got == [pool[i] for i in want], (n, k, seed)
            if n <= 400:
                assert [e.example.id for e in got] == oracle_draw(rows, rho.proportions, k, seed)
            labels = tuple(rho.weight(label) for label in pool.labels)
            fallbacks += selection_module._certified_picks(
                *pool.sums[labels], k, random.Random(seed)) is None
            draws += 1
        assert len(pool.sums) <= len(rhos)
    assert draws >= 4000 and sizes[-1] == 20000 and fallbacks == 0


def test_pool_sums_are_never_served_for_another_rho():
    # One pool drawn under two rho in turn: each draw is its own rho's, the
    # pool keeps one set of sums per rho, and a rho without the frequency of
    # a pool label raises on every call, even when the pool fits in k.
    from test_acceptance import oracle_draw

    rng = random.Random(9)
    pool = Pool([entry(f"e{i}", rng.choice(RGB.labels), "111") for i in range(60)])
    rows = [(e.example.id, e.example.gold) for e in pool]
    first, second = _rho(red=0.7, green=0.2, blue=0.1), _rho(red=0.1, green=0.2, blue=0.7)
    for seed in range(30):
        for rho in (first, second):
            got = [e.example.id for e in weighted_sample(pool, 6, rho, seed)]
            assert got == oracle_draw(rows, rho.proportions, 6, seed)
    assert len(pool.sums) == 2
    assert weighted_sample(pool, 6, first, 3) != weighted_sample(pool, 6, second, 3)
    for k in (0, 6, 60, 61):
        with pytest.raises(MissingFrequency):
            weighted_sample(pool, k, _rho(red=0.5, green=0.5), seed=0)
    assert len(pool.sums) == 2


def test_the_draw_total_is_a_sequential_sum(monkeypatch):
    # The protocol's total is the sequential float64 sum.  Here it is 1.0,
    # while the exact (or compensated, as sum() is from CPython 3.12) total
    # exceeds it, so r just below 1.0 * total picks the first row, and r just
    # below the exact total would pass every prefix sum and take the last.
    from test_acceptance import oracle_draw

    class JustBelowOne:
        def __init__(self, seed):
            pass

        def random(self):
            return 1.0 - 2.0 ** -53

    rho = _rho(red=1.0, green=1 / 1.1e-16)
    rows = [entry("heavy", "red", "110")] + [entry(f"light{i}", "green", "110")
                                             for i in range(10)]
    weights = [rho.weight(e.example.gold) for e in rows]
    assert list(itertools.accumulate(weights))[-1] == 1.0 < math.fsum(weights)
    monkeypatch.setattr(selection_module.random, "Random", JustBelowOne)
    want = oracle_draw([(e.example.id, e.example.gold) for e in rows], rho.proportions, 1, 0)
    assert [e.example.id for e in weighted_sample(Pool(rows), 1, rho, 0)] == want == ["heavy"]


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
                for draw in (PrefixDraw(max(quotas), seed=seed), PrefixDraw(seed=seed)):
                    for k in quotas:
                        assert hard_picks(draw, pool, k, rho) == weighted_sample(
                            pool, k, rho, seed)
                    if len(pool) > 1:
                        assert len(draw.picks) <= len(pool) - 1


def test_hard_draw_fails_every_take_on_a_missing_frequency():
    pool = Pool([entry("1", "red", "110"), entry("2", "green", "110"), entry("3", "red", "110")])
    draw = PrefixDraw(4, seed=0)
    for k in (1, 2, 4):
        with pytest.raises(MissingFrequency):
            hard_picks(draw, pool, k, _rho(red=1.0))


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


def _ids(demos):
    return [ex.id for ex, _ in demos]


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
        lookup, test_set, _ranking(store, lookup), rho, 0.0, 4, PrefixDraw(seed=3)
    )
    knn_ids = knn_retrieve(store, "test", 4, [e.example.id for e in lookup])
    assert _ids(demos) == knn_ids
    assert all(src == "knn" for _, src in demos)


def test_alpha_one_hard_only_and_pool_exhaustion():
    lookup, rho = _lookup_fixture()
    test_set = candidate_set_from_key("011", RGB)  # matches ids 3 and 6
    demos = select_demos(lookup, test_set, None, rho, 1.0, 4, PrefixDraw(seed=0))
    assert sorted(_ids(demos)) == ["3", "6"]
    assert all(src == "hard" for _, src in demos)


def test_alpha_one_empty_match_raises():
    lookup, rho = _lookup_fixture()
    test_set = candidate_set_from_key("101", RGB)
    with pytest.raises(EmptySelection):
        select_demos(lookup, test_set, None, rho, 1.0, 4, PrefixDraw(seed=0))


def test_alpha_one_empty_step1_raises():
    lookup, rho = _lookup_fixture()
    with pytest.raises(EmptySelection):
        select_demos(lookup, None, None, rho, 1.0, 4, PrefixDraw(seed=0))


def test_mixed_alpha_quota_and_ordering():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    test_set = candidate_set_from_key("110", RGB)  # matches 1, 2, 4
    demos = select_demos(
        lookup, test_set, _ranking(store, lookup), rho, 0.5, 4, PrefixDraw(seed=7)
    )
    sources = [src for _, src in demos]
    assert sources == ["hard", "hard", "knn", "knn"]
    assert len(set(_ids(demos))) == 4
    hard_ids = {ex.id for ex, src in demos if src == "hard"}
    assert hard_ids <= {"1", "2", "4"}


def test_knn_backfills_hard_shortfall():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    test_set = candidate_set_from_key("010", RGB)  # only id 5 matches
    demos = select_demos(
        lookup, test_set, _ranking(store, lookup), rho, 0.9, 4, PrefixDraw(seed=1)
    )
    assert len(demos) == 4  # 1 hard + 3 backfilled
    assert [src for _, src in demos][:1] == ["hard"]
    assert demos[0][0].id == "5"


def test_empty_step1_with_mixed_alpha_degrades_to_knn():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    demos = select_demos(
        lookup, None, _ranking(store, lookup), rho, 0.5, 4, PrefixDraw(seed=1)
    )
    assert all(src == "knn" for _, src in demos)
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
    ranking = rank(store, "test", ids)
    demos = select_demos(lookup, test_set, ranking, rho, 0.5, 4, PrefixDraw(seed=0))
    assert _ids(demos) == ["3", "6"] + knn_retrieve(store, "test", 2, ids, {"3", "6"})
    assert [src for _, src in demos] == ["hard", "hard", "knn", "knn"]
    with pytest.raises(ZeroNorm):
        ranking.take(2)


def test_select_demos_deterministic():
    lookup, rho = _lookup_fixture()
    store = _store_for(lookup)
    test_set = candidate_set_from_key("110", RGB)
    a = select_demos(lookup, test_set, _ranking(store, lookup), rho, 0.5, 4, PrefixDraw(seed=11))
    b = select_demos(lookup, test_set, _ranking(store, lookup), rho, 0.5, 4, PrefixDraw(seed=11))
    assert a == b


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
            0.0, shots, PrefixDraw(seed=trial)
        )
        expected = knn_retrieve(store, "q", shots, [e.example.id for e in lookup])
        assert _ids(demos) == expected
