import gc
import json
import random
import sys
import threading
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from scipy import stats as scipy_stats

from marginsel.core import LabelSpace, MarginSelError, candidate_set_from_labels
from marginsel.evalharness import (
    INVALID,
    EmptyInput,
    ExperimentContext,
    MethodSpec,
    RunConfig,
    _line,
    _summarize,
    alpha_sweep,
    derive_seed,
    load_records,
    macro_f1,
    predict_one,
    run_experiment,
)
from marginsel.knn import knn_retrieve
from marginsel.llm_client import CachedBackend, Transport, backend_calls

from conftest import (
    MajorityEchoBackend,
    make_dataset,
    planted_pipeline,
    synthetic_templates,
)

RGB = LabelSpace(["red", "green", "blue"])
AB = LabelSpace(["a", "b"])


# --------------------------------------------------------------------------
# macro_f1
# --------------------------------------------------------------------------


def test_macro_f1_all_correct():
    pairs = [("a", "a"), ("b", "b"), ("a", "a")]
    assert macro_f1(pairs, AB) == 1.0


def test_macro_f1_hand_computed_half():
    pairs = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    assert macro_f1(pairs, AB) == 0.5


def test_macro_f1_all_invalid_is_zero():
    pairs = [("a", INVALID), ("b", INVALID)]
    assert macro_f1(pairs, AB) == 0.0


def test_macro_f1_empty_input():
    with pytest.raises(EmptyInput):
        macro_f1([], AB)


def _oracle_f1(pairs, labels):
    # Independent confusion-matrix computation.
    scores = {}
    for c in labels:
        tp = sum(1 for g, p in pairs if g == c and p == c)
        fp = sum(1 for g, p in pairs if g != c and p == c)
        fn = sum(1 for g, p in pairs if g == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores[c] = (
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return sum(scores.values()) / len(labels)


def test_macro_f1_matches_confusion_matrix_oracle():
    rng = random.Random(555)
    space = LabelSpace([f"c{i}" for i in range(5)])
    for _ in range(150):
        n = rng.randint(1, 200)
        pairs = []
        for _ in range(n):
            gold = rng.choice(space.labels)
            predicted = rng.choice(list(space.labels) + [INVALID])
            pairs.append((gold, predicted))
        got = macro_f1(pairs, space)
        want = _oracle_f1(pairs, space.labels)
        assert abs(got - want) < 1e-12
        assert 0.0 <= got <= 1.0


def test_macro_f1_rejects_unknown_gold():
    from marginsel.core import MarginSelError

    with pytest.raises(MarginSelError):
        macro_f1([("zzz", "a")], AB)


# --------------------------------------------------------------------------
# predict_one
# --------------------------------------------------------------------------


def _echo_ctx(rows, shots_pool=None):
    space = RGB
    train = make_dataset(space, rows)
    test = make_dataset(space, [("t1", "query text", "red")])
    candidate_template, final_template = synthetic_templates()
    return ExperimentContext(
        space=space,
        train=train,
        test=test,
        backend=MajorityEchoBackend(space),
        candidate_template=candidate_template,
        final_template=final_template,
    )


def test_predict_one_majority_echo():
    ctx = _echo_ctx(
        [("1", "x", "green"), ("2", "y", "green"), ("3", "z", "red")]
    )
    predicted, record = predict_one(
        ctx, MethodSpec("random"), 3, ctx.test.examples[0], seed=0
    )
    assert predicted == "green"
    assert record["predicted"] == "green"
    assert sorted(record["demo_ids"]) == ["1", "2", "3"]
    assert record["step1"] is None
    assert record["fallback"] is False


def test_predict_one_random_is_reproducible():
    rows = [(str(i), f"t{i}", RGB.labels[i % 3]) for i in range(12)]
    ctx = _echo_ctx(rows)
    first = predict_one(ctx, MethodSpec("random"), 4, ctx.test.examples[0], seed=9)
    second = predict_one(ctx, MethodSpec("random"), 4, ctx.test.examples[0], seed=9)
    assert first[1]["demo_ids"] == second[1]["demo_ids"]
    third = predict_one(ctx, MethodSpec("random"), 4, ctx.test.examples[0], seed=10)
    assert third[1]["demo_ids"] != first[1]["demo_ids"]


def test_predict_one_invalid_after_one_request():
    class GarbageBackend:
        model_name = "garbage"
        temperature = 0.0

        def __init__(self):
            self.calls = 0

        def complete(self, system, user):
            self.calls += 1
            return "no tags here", 1

    ctx = _echo_ctx([("1", "x", "red"), ("2", "y", "green")])
    ctx.backend = GarbageBackend()
    predicted, record = predict_one(
        ctx, MethodSpec("random"), 2, ctx.test.examples[0], seed=0
    )
    assert predicted == INVALID
    assert ctx.backend.calls == 1


class FirstReplyGarbageBackend:
    """Replies garbage to the first request for each prompt and a valid label
    to every repeat of it."""

    model_name = "first-garbage"
    temperature = 0.0

    def __init__(self):
        self.seen = set()

    def complete(self, system, user):
        if user in self.seen:
            return "<label>red</label>", 1
        self.seen.add(user)
        return "garbage", 1


def test_cached_and_uncached_predictions_agree(tmp_path):
    ctx = _echo_ctx([("1", "x", "red"), ("2", "y", "green")])
    test = ctx.test.examples[0]
    ctx.backend = FirstReplyGarbageBackend()
    uncached, _ = predict_one(ctx, MethodSpec("random"), 2, test, seed=0)
    ctx.backend = CachedBackend(FirstReplyGarbageBackend(), tmp_path / "cache")
    cached, _ = predict_one(ctx, MethodSpec("random"), 2, test, seed=0)
    assert cached == uncached == INVALID


def test_random_inclusion_is_uniform():
    # Uniform-without-replacement sampling: per-example inclusion frequency
    # over many seeds stays within 3 points of shots/n.
    rows = [(f"e{i}", f"t{i}", RGB.labels[i % 3]) for i in range(10)]
    ctx = _echo_ctx(rows)
    shots, trials = 3, 4000
    counts = Counter()
    for seed in range(trials):
        _, record = predict_one(
            ctx, MethodSpec("random"), shots, ctx.test.examples[0], seed=seed
        )
        counts.update(record["demo_ids"])
    expected = shots / len(rows)
    for i in range(10):
        assert abs(counts[f"e{i}"] / trials - expected) < 0.03


def test_marginsel_fallback_to_knn():
    ctx = planted_pipeline()
    # gammasig matches training entries, so force an unmatched key instead:
    # a test text whose two signals union to all three labels (key 111).
    from marginsel.core import Example
    from marginsel.knn import build_store

    odd = Example(id="te-odd", text="alphasig betasig rubyword n0", gold="red")
    ctx.store = build_store(
        [(i, list(v)) for i, v in ctx.store.vectors.items()]
        + [("te-odd", [0.1, 0.2, 0.3])]
    )
    predicted, record = predict_one(
        ctx, MethodSpec("marginsel", alpha=1.0), 3, odd, seed=1, fallback_policy="knn"
    )
    assert record["fallback"] is True
    want = knn_retrieve(ctx.store, "te-odd", 3, [e.id for e in ctx.train.examples])
    # the fallback set is exactly the kNN set
    assert record["demo_ids"] == want


def test_rankings_follow_a_replaced_store_or_train_split():
    # The context builds its train index once; dataclasses.replace hands it
    # on, and replacing the store or the train split rebuilds it.
    from marginsel.knn import build_store

    ctx = planted_pipeline()
    test = ctx.test.examples[0]
    train_ids = [e.id for e in ctx.train.examples]
    index = ctx.train_index()
    assert index.store is ctx.store
    assert replace(ctx, backend=ctx.backend).train_index() is index
    _, before = predict_one(ctx, MethodSpec("knn"), 4, test, seed=0)
    assert before["demo_ids"] == knn_retrieve(ctx.store, test.id, 4, train_ids)
    ctx.store = build_store([(i, [-x for x in v] if i == test.id else list(v))
                             for i, v in ctx.store.vectors.items()])
    _, after = predict_one(ctx, MethodSpec("knn"), 4, test, seed=0)
    assert ctx.train_index().store is ctx.store
    assert after["demo_ids"] == knn_retrieve(ctx.store, test.id, 4, train_ids)
    assert after["demo_ids"] != before["demo_ids"]
    fewer = make_dataset(ctx.space, [(e.id, e.text, e.gold) for e in ctx.train.examples[::2]])
    halved_ctx = replace(ctx, train=fewer, lookup=None)
    _, halved = predict_one(halved_ctx, MethodSpec("knn"), 4, test, seed=0)
    assert halved["demo_ids"] == knn_retrieve(ctx.store, test.id, 4, train_ids[::2])


def test_marginsel_alpha1_hard_only():
    ctx = planted_pipeline()
    test = ctx.test.examples[0]
    predicted, record = predict_one(
        ctx, MethodSpec("marginsel", alpha=1.0), 4, test, seed=2
    )
    assert record["fallback"] is False
    assert set(record["demo_sources"]) == {"hard"}
    assert predicted == test.gold  # all demos share the key, planted oracle


# --------------------------------------------------------------------------
# run_experiment
# --------------------------------------------------------------------------


def test_run_experiment_grid_shape(tmp_path):
    ctx = planted_pipeline()
    cfg = RunConfig(
        methods=[MethodSpec("random"), MethodSpec("marginsel", alpha=1.0)],
        shots=[2],
        seeds=[1, 2, 3],
        fallback="random",
        out_dir=tmp_path / "run",
    )
    report = run_experiment(ctx, cfg)
    assert len(report.cells) == 6
    assert all("macro_f1" in c for c in report.cells)
    assert len(report.records) == 6 * len(ctx.test)
    for row in report.summary:
        assert 0.0 <= row["mean_macro_f1"] <= 1.0
    score = {(c["method"], c["shot"], c["seed"]): c["macro_f1"] for c in report.cells}
    for row in report.summary:
        if row["method"] == "random":
            continue
        a = [score[row["method"], row["shot"], s] for s in cfg.seeds]
        b = [score["random", row["shot"], s] for s in cfg.seeds]
        diffs = [x - y for x, y in zip(a, b)]
        if max(diffs) - min(diffs) <= 1e-12:
            assert row["p_vs_baseline"] is None
        else:
            assert row["p_vs_baseline"] == scipy_stats.ttest_rel(a, b).pvalue
        p = row["p_vs_baseline"]
        assert row["significant_vs_baseline"] is (p is not None and p < 0.05)
    assert (tmp_path / "run" / "report.json").exists()
    assert (tmp_path / "run" / "report.csv").exists()
    assert (tmp_path / "run" / "records.jsonl").exists()
    csv_lines = (tmp_path / "run" / "report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 7  # header + 6 cells


def test_run_experiment_resume_skips_completed_cells(tmp_path):
    ctx = planted_pipeline()
    cfg = RunConfig(
        methods=[MethodSpec("marginsel", alpha=1.0)],
        shots=[2],
        seeds=[1, 2],
        fallback="random",
        out_dir=tmp_path / "run",
    )
    first = run_experiment(ctx, cfg)
    calls_after_first = backend_calls(ctx.backend)
    report_bytes = (tmp_path / "run" / "report.json").read_bytes()
    records_bytes = (tmp_path / "run" / "records.jsonl").read_bytes()

    second = run_experiment(ctx, cfg)
    assert backend_calls(ctx.backend) == calls_after_first  # zero new calls
    assert (tmp_path / "run" / "report.json").read_bytes() == report_bytes
    assert (tmp_path / "run" / "records.jsonl").read_bytes() == records_bytes
    assert [c["macro_f1"] for c in second.cells] == [c["macro_f1"] for c in first.cells]


def test_run_experiment_resume_completes_partial_cells(tmp_path):
    ctx = planted_pipeline()
    cfg = RunConfig(
        methods=[MethodSpec("random")],
        shots=[2],
        seeds=[5],
        out_dir=tmp_path / "full",
    )
    full = run_experiment(ctx, cfg)
    full_records = (tmp_path / "full" / "records.jsonl").read_text().splitlines()

    partial_dir = tmp_path / "partial"
    partial_dir.mkdir()
    (partial_dir / "records.jsonl").write_text("\n".join(full_records[:3]) + "\n")
    resumed = run_experiment(
        ctx,
        RunConfig(
            methods=[MethodSpec("random")], shots=[2], seeds=[5], out_dir=partial_dir
        ),
    )
    assert (partial_dir / "records.jsonl").read_text().splitlines() == full_records
    assert resumed.cells[0]["macro_f1"] == full.cells[0]["macro_f1"]


class TransportDown:
    """Every request fails with a transport error."""

    model_name = "down"
    temperature = 0.0

    def complete(self, system, user):
        raise Transport("connection refused")


def test_a_failed_resumed_cell_keeps_its_records(tmp_path):
    ctx = planted_pipeline()
    cfg = RunConfig(methods=[MethodSpec("random")], shots=[2], seeds=[5], out_dir=tmp_path)
    run_experiment(ctx, cfg)
    lines = (tmp_path / "records.jsonl").read_text().splitlines(keepends=True)
    (tmp_path / "records.jsonl").write_text("".join(lines[:4]))

    report = run_experiment(replace(ctx, backend=TransportDown()), cfg)
    assert [c["error"] for c in report.failed_cells] == ["connection refused"]
    assert (tmp_path / "records.jsonl").read_text() == "".join(lines[:4])
    assert [_line(r) for r in report.records] == lines[:4]


def test_constant_paired_differences_are_not_tested():
    # Differences equal up to rounding: ttest_rel warned and reported p ~ 1e-31.
    cfg = RunConfig(methods=[MethodSpec("random"), MethodSpec("knn")], seeds=[0, 1, 2])
    cells = [
        {"method": method, "shot": 2, "seed": seed, "macro_f1": score}
        for method, scores in (("random", [0.5, 0.6, 0.7]), ("knn", [0.6, 0.7, 0.8]))
        for seed, score in enumerate(scores)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = [r for r in _summarize(cells, cfg) if r["method"] == "knn"]
    assert row["p_vs_baseline"] is None
    assert row["significant_vs_baseline"] is False


class Interrupt(Exception):
    """Stands in for an interrupt: no cell catches it, so the run stops."""


class InterruptAfter:
    """Passes ``limit`` requests through, then raises Interrupt."""

    def __init__(self, backend, limit):
        self.backend = backend
        self.model_name = backend.model_name
        self.temperature = backend.temperature
        self.limit = limit

    def complete(self, system, user):
        if self.limit == 0:
            raise Interrupt
        self.limit -= 1
        return self.backend.complete(system, user)


def test_resume_after_a_torn_records_tail(tmp_path):
    ctx = replace(planted_pipeline(), max_in_flight=1)

    def cfg(out_dir):
        return RunConfig(
            methods=[MethodSpec("random"), MethodSpec("marginsel", alpha=1.0)],
            shots=[2], seeds=[1, 2], fallback="random", out_dir=out_dir,
        )

    run_experiment(ctx, cfg(tmp_path / "whole"))
    whole = (tmp_path / "whole" / "records.jsonl").read_bytes()
    lines = whole.splitlines(keepends=True)
    run_dir = tmp_path / "torn"
    run_dir.mkdir()
    # an append cut in the middle of the fifth record
    (run_dir / "records.jsonl").write_bytes(b"".join(lines[:4]) + lines[4][:30])
    assert len(load_records(run_dir / "records.jsonl")["marginsel(alpha=1)", 2, 1]) == 4

    # Interrupted again once both random cells (9 requests each) are
    # appended: they must start on a line of their own.
    with pytest.raises(Interrupt):
        run_experiment(replace(ctx, backend=InterruptAfter(ctx.backend, 18)), cfg(run_dir))
    assert sum(len(cell) for cell in load_records(run_dir / "records.jsonl").values()) == 22
    run_experiment(ctx, cfg(run_dir))
    assert (run_dir / "records.jsonl").read_bytes() == whole


def test_a_bad_record_line_names_the_file_and_line(tmp_path):
    path = tmp_path / "records.jsonl"
    good = json.dumps({"method": "random", "shot": 2, "seed": 1, "id": "x"})
    for text, line_no in (
        (f"{good}\n{{torn\n{good}\n", 2),
        (f"{good}\n[1, 2]\n", 2),
        (f'{good}\n{{"id": "y"}}\n', 2),
    ):
        path.write_text(text)
        with pytest.raises(MarginSelError, match=f"records.jsonl, line {line_no}:"):
            load_records(path)
    path.write_text(f"{good}\n{good[:-1]}")  # no newline, does not parse: torn
    assert list(load_records(path)) == [("random", 2, 1)]


class Step1Counter:
    """Passes requests through, counting the multi-label assignment ones."""

    def __init__(self, backend):
        self.backend = backend
        self.model_name = backend.model_name
        self.temperature = backend.temperature
        self.step1 = 0

    def complete(self, system, user):
        if "comma-separated" in user:
            self.step1 += 1
        return self.backend.complete(system, user)


def test_step1_runs_once_per_test_input():
    ctx = planted_pipeline()
    ctx.backend = Step1Counter(ctx.backend)
    cfg = RunConfig(
        methods=[MethodSpec("marginsel", alpha=1.0)],
        shots=[2, 3],
        seeds=[1, 2],
        fallback="random",
    )
    report = run_experiment(ctx, cfg)
    assert not report.failed_cells
    assert len(ctx.test) == 9
    assert ctx.backend.step1 == 9


def test_each_test_input_is_ranked_once_per_run(monkeypatch):
    # The knn method, marginsel at alpha 0.5 and the knn fallback at alpha 1
    # read one neighbour ranking per test input, over every shot and seed;
    # the table belongs to the run, so a second run ranks again.
    from marginsel import evalharness, selection

    ranked = Counter()

    def counting(retrieve):
        def counted(store, query_id, *args):
            ranked[query_id] += 1
            return retrieve(store, query_id, *args)

        return counted

    for module in (evalharness, selection):
        monkeypatch.setattr(module, "knn_retrieve", counting(module.knn_retrieve))

    class NoStep1ForGamma:  # gamma test inputs get an empty step-1 set
        def __init__(self, backend):
            self.backend = backend
            self.model_name = backend.model_name
            self.temperature = backend.temperature

        def complete(self, system, user):
            if "comma-separated" in user and "gammasig" in user:
                return "no labels here", 1
            return self.backend.complete(system, user)

    ctx = planted_pipeline(with_store=True)
    ctx.backend = NoStep1ForGamma(ctx.backend)
    cfg = RunConfig(
        methods=[MethodSpec("knn"), MethodSpec("marginsel", alpha=0.5),
                 MethodSpec("marginsel", alpha=1.0)],
        shots=[2, 3],
        seeds=[1, 2],
        fallback="knn",
    )
    report = run_experiment(ctx, cfg)
    assert not report.failed_cells
    assert sum(r["fallback"] for r in report.records) == 3 * 2 * 2
    assert ranked == Counter(ex.id for ex in ctx.test.examples)
    run_experiment(ctx, cfg)
    assert ranked == Counter(2 * [ex.id for ex in ctx.test.examples])


def test_each_test_input_is_drawn_once_per_seed(monkeypatch):
    # Marginsel at alpha 0.5 and 1 over three shot counts reads one hard draw
    # order per (test input, seed) with a non-empty pool; the table belongs
    # to the run, so a second run draws again.
    from marginsel import selection

    drawn = Counter()
    draw = selection.weighted_sample

    def counted(pool, k, rho, seed):
        drawn[seed] += 1
        return draw(pool, k, rho, seed)

    monkeypatch.setattr(selection, "weighted_sample", counted)
    ctx = planted_pipeline()
    cfg = RunConfig(
        methods=[MethodSpec("marginsel", alpha=0.5), MethodSpec("marginsel", alpha=1.0)],
        shots=[2, 3, 4],
        seeds=[1, 2],
        fallback="random",
    )
    step1 = selection.assign_candidates(
        ctx.backend, ctx.candidate_template, [ex.text for ex in ctx.test.examples], ctx.space)
    with_pool = [ex for ex, cands in zip(ctx.test.examples, step1)
                 if not cands.is_empty and ctx.lookup.pools.get(cands)]
    assert with_pool
    expected = Counter(derive_seed(seed, "marginsel", ex.id) for ex in with_pool
                       for seed in cfg.seeds)
    report = run_experiment(ctx, cfg)
    assert not report.failed_cells
    assert drawn == expected
    run_experiment(ctx, cfg)
    assert drawn == expected + expected


@pytest.mark.parametrize("fallback", ["knn", "random"])
def test_hard_draws_go_as_deep_as_the_largest_shot_count(monkeypatch, fallback):
    # At alpha 0.5 the largest hard quota (4) is below the largest shot
    # count (8), the depth every draw order goes: each (test input, seed)
    # with a pool is still drawn once, and every cell equals predict_one's.
    from marginsel import selection

    drawn = Counter()
    draw = selection.weighted_sample

    def counted(pool, k, rho, seed):
        drawn[seed] += 1
        return draw(pool, k, rho, seed)

    monkeypatch.setattr(selection, "weighted_sample", counted)
    ctx = planted_pipeline(with_store=True)
    ctx.backend = NoStep1For(ctx.backend, "gammasig")
    cfg = RunConfig(methods=[MethodSpec("marginsel", alpha=0.5)], shots=[2, 3, 4, 5, 6, 7, 8],
                    seeds=[0, 1, 2], fallback=fallback)
    report = run_experiment(ctx, cfg)
    assert not report.failed_cells
    step1 = {r["id"]: r["step1"] for r in report.records}
    with_pool = [ex for ex in ctx.test.examples if step1[ex.id] is not None
                 and ctx.lookup.pools.get(candidate_set_from_labels(step1[ex.id], ctx.space))]
    assert with_pool
    assert drawn == Counter(derive_seed(seed, "marginsel", ex.id) for ex in with_pool
                            for seed in cfg.seeds)
    tests = {ex.id: ex for ex in ctx.test.examples}
    for record in report.records:
        _, one = predict_one(ctx, cfg.methods[0], record["shot"], tests[record["id"]],
                             record["seed"], fallback)
        assert one == record


def _uniform_grid(n_train_per_sig, out_dir=None):
    """The random method and the random fallback (gamma inputs have no
    step-1 set) over shots 1-16: a context, a config and the run's report."""
    ctx = planted_pipeline(n_train_per_sig=n_train_per_sig)
    ctx.backend = NoStep1For(ctx.backend, "gammasig")
    cfg = RunConfig(
        methods=[MethodSpec("random"), MethodSpec("marginsel", alpha=1.0)],
        shots=list(range(1, 17)),
        seeds=[1, 2],
        fallback="random",
        out_dir=out_dir,
    )
    return ctx, cfg


def _stream(record):
    return "random" if record["method"] == "random" else "fallback"


def test_each_uniform_draw_is_seeded_once_per_seed(monkeypatch):
    # The random method and the random fallback seed one generator per
    # (stream, test input, seed) over every shot count of a run.
    seeded = Counter()

    class Counted(random.Random):
        def __init__(self, seed=None):
            seeded[seed] += 1
            super().__init__(seed)

    ctx, cfg = _uniform_grid(8)
    cfg = replace(cfg, shots=[2, 4, 6, 8, 10])
    monkeypatch.setattr(random, "Random", Counted)
    report = run_experiment(ctx, cfg)
    monkeypatch.undo()
    assert not report.failed_cells
    drawn = {(_stream(r), r["id"], r["seed"]) for r in report.records
             if r["method"] == "random" or r["fallback"]}
    assert len(drawn) == 2 * 9 + 2 * 3
    uniform = {derive_seed(seed, stream, ex.id): (stream, ex.id, seed)
               for stream in ("random", "fallback") for ex in ctx.test.examples
               for seed in cfg.seeds}
    assert Counter({uniform[s]: n for s, n in seeded.items() if s in uniform}) == Counter(drawn)


@pytest.mark.parametrize("n_train_per_sig", [8, 30])
def test_uniform_demos_are_prefixes_of_one_draw(n_train_per_sig):
    # Every shot count's uniform demos are a prefix of the deepest draw, and
    # predict shows the demos eval used.  Above 85 train rows they are the
    # picks of random.Random(derive_seed(seed, stream, id)).sample.
    ctx, cfg = _uniform_grid(n_train_per_sig)
    report = run_experiment(ctx, cfg)
    assert not report.failed_cells
    by_draw = {}
    for r in report.records:
        if r["method"] == "random" or r["fallback"]:
            by_draw.setdefault((_stream(r), r["id"], r["seed"]), {})[r["shot"]] = r
    assert len(by_draw) == 2 * 9 + 2 * 3
    train = [ex.id for ex in ctx.train.examples]
    tests = {ex.id: ex for ex in ctx.test.examples}
    for (stream, test_id, seed), cells in by_draw.items():
        deepest = cells[16]["demo_ids"]
        assert len(set(deepest)) == 16
        for shot, record in cells.items():
            assert record["demo_ids"] == deepest[:shot]
            if len(train) > 85:
                rng = random.Random(derive_seed(seed, stream, test_id))
                assert record["demo_ids"] == rng.sample(train, shot)
            method = MethodSpec("random") if stream == "random" else MethodSpec(
                "marginsel", alpha=1.0)
            _, one = predict_one(ctx, method, shot, tests[test_id], seed, "random")
            assert one == record


def test_replacing_the_train_split_checks_the_lookup_again():
    # dataclasses.replace reruns __post_init__: a replaced train split is
    # checked against the lookup again, and rho follows the new split.
    from marginsel.selection import StaleLookup

    ctx = planted_pipeline()
    other = planted_pipeline(n_train_per_sig=7)
    with pytest.raises(StaleLookup):
        replace(ctx, train=other.train)
    moved = replace(ctx, train=other.train, lookup=other.lookup)
    assert moved.rho.weight("red") == other.rho.weight("red")


def test_context_refuses_a_lookup_of_another_split():
    # The lookup is the kNN candidate list as well as the hard pool, so a
    # context whose lookup does not hold the train split in order is refused.
    from marginsel.selection import LookupTable, StaleLookup

    ctx = planted_pipeline()
    smaller = planted_pipeline(n_train_per_sig=7)
    with pytest.raises(StaleLookup):
        replace(ctx, lookup=smaller.lookup)
    with pytest.raises(StaleLookup):
        replace(ctx, lookup=LookupTable(reversed(ctx.lookup)))
    assert replace(ctx, test=smaller.test).lookup is ctx.lookup


def test_step1_backend_error_fails_only_marginsel_cells():
    class Step1Down:
        model_name = "step1-down"
        temperature = 0.0

        def __init__(self, backend):
            self.backend = backend

        def complete(self, system, user):
            if "comma-separated" in user:
                raise Transport("HTTP 503: unavailable", status=503)
            return self.backend.complete(system, user)

    ctx = planted_pipeline()
    ctx.backend = Step1Down(ctx.backend)
    cfg = RunConfig(
        methods=[MethodSpec("random"), MethodSpec("marginsel", alpha=1.0)],
        shots=[2],
        seeds=[1, 2],
        fallback="random",
    )
    report = run_experiment(ctx, cfg)
    assert [c["method"] for c in report.failed_cells] == ["marginsel(alpha=1)"] * 2
    assert all("503" in c["error"] for c in report.failed_cells)
    assert sum("macro_f1" in c for c in report.cells) == 2


def test_stale_run_directory_fails_before_predicting(tmp_path):
    cfg = RunConfig(
        methods=[MethodSpec("random")], shots=[2], seeds=[1], out_dir=tmp_path / "run"
    )
    run_experiment(planted_pipeline(), cfg)
    smaller = planted_pipeline(n_test_per_sig=2)  # drops te-a2, te-b2, te-g2
    calls = smaller.backend.calls
    with pytest.raises(MarginSelError) as excinfo:
        run_experiment(smaller, cfg)
    assert str(tmp_path / "run") in str(excinfo.value)
    assert smaller.backend.calls == calls


def test_corrupt_cache_entries_are_misses(tmp_path):
    ctx = planted_pipeline()
    model = ctx.backend

    def run(name):
        cfg = RunConfig(
            methods=[MethodSpec("random"), MethodSpec("marginsel", alpha=1.0)],
            shots=[2],
            seeds=[1],
            fallback="random",
            out_dir=tmp_path / name,
        )
        run_experiment(ctx, cfg)

    ctx.backend = CachedBackend(model, tmp_path / "cache")
    run("first")
    cache = tmp_path / "cache" / "responses.jsonl"
    entries = cache.read_bytes().splitlines()
    cache.write_bytes(b"".join(line[:20] + b"\n" for line in entries))
    ctx.backend = CachedBackend(model, tmp_path / "cache")
    run("second")
    for name in ("records.jsonl", "report.json", "report.csv"):
        assert (tmp_path / "first" / name).read_bytes() == (
            tmp_path / "second" / name
        ).read_bytes()
    assert (ctx.backend.hits, ctx.backend.misses) == (0, len(entries))
    appended = cache.read_bytes().splitlines()[len(entries):]
    assert len(appended) == len(entries)
    for line in appended:
        assert isinstance(json.loads(line)["reply"], str)


def test_end_to_end_reproducibility(tmp_path):
    reports = []
    for name in ("a", "b"):
        ctx = planted_pipeline()  # fresh backend, no shared state
        cfg = RunConfig(
            methods=[MethodSpec("random"), MethodSpec("knn"),
                     MethodSpec("marginsel", alpha=0.5)],
            shots=[2, 3],
            seeds=[1, 2],
            out_dir=tmp_path / name,
        )
        run_experiment(ctx, cfg)
        reports.append(
            {
                "report": (tmp_path / name / "report.json").read_bytes(),
                "records": (tmp_path / name / "records.jsonl").read_bytes(),
                "csv": (tmp_path / name / "report.csv").read_bytes(),
            }
        )
    assert reports[0] == reports[1]


def test_marginsel_mix_without_store_fails_only_its_cells():
    ctx = planted_pipeline(with_store=False)
    cfg = RunConfig(
        methods=[MethodSpec("random"), MethodSpec("marginsel", alpha=0.5)],
        shots=[2],
        seeds=[1],
        fallback="random",
    )
    report = run_experiment(ctx, cfg)
    assert [c["method"] for c in report.failed_cells] == ["marginsel(alpha=0.5)"]
    assert "embedding store" in report.failed_cells[0]["error"]
    assert "macro_f1" in report.cells[0]


def test_duplicate_methods_are_rejected():
    with pytest.raises(ValueError, match="more than once"):
        RunConfig(methods=[MethodSpec("random"), MethodSpec("random")])
    with pytest.raises(ValueError, match="more than once"):
        alpha_sweep(
            planted_pipeline(),
            RunConfig(methods=[MethodSpec("random")], shots=[2], seeds=[1]),
            alphas=[1, 1.0],
        )


def test_shots_seeds_and_alpha_are_checked_where_they_are_typed():
    for shots, seeds in (
        ([], [1]), ([2], []), ([2.5], [1]), (["3"], [1]), ([True], [1]), ([2, 2], [1]),
        ([2], [1, 1]), ([2], [1, "1"]), ([2], [False]), ([0], [1]), (2, [1]), ([2], None),
    ):
        with pytest.raises(ValueError, match="shots|seeds|shot counts"):
            RunConfig(methods=[MethodSpec("random")], shots=shots, seeds=seeds)
    for alpha in ("a", True, [0.5], 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="alpha must be a real number in"):
            MethodSpec("marginsel", alpha)
    assert RunConfig(methods=[MethodSpec("marginsel", 1)], shots=(16, 4), seeds=[0, -1])


def test_interrupted_final_write_keeps_the_records(tmp_path, monkeypatch):
    cfg = RunConfig(
        methods=[MethodSpec("random")], shots=[2], seeds=[1], out_dir=tmp_path / "run"
    )
    run_experiment(planted_pipeline(), cfg)
    before = {
        name: (tmp_path / "run" / name).read_bytes()
        for name in ("records.jsonl", "report.json", "report.csv")
    }

    class Interrupted(Exception):
        pass

    def interrupt(*args, **kwargs):
        raise Interrupted

    # every record is on disk, so the rerun's first json.dumps is the final rewrite
    monkeypatch.setattr(json, "dumps", interrupt)
    with pytest.raises(Interrupted):
        run_experiment(planted_pipeline(), cfg)
    monkeypatch.undo()
    for name, data in before.items():
        assert (tmp_path / "run" / name).read_bytes() == data
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(before)


def test_cell_error_annotation(tmp_path):
    ctx = planted_pipeline(with_store=False)
    cfg = RunConfig(
        methods=[MethodSpec("knn")], shots=[2], seeds=[1], out_dir=tmp_path / "run"
    )
    report = run_experiment(ctx, cfg)
    assert report.failed_cells
    assert "embedding store" in report.failed_cells[0]["error"]
    # report persisted despite the failure
    assert (tmp_path / "run" / "report.json").exists()


# --------------------------------------------------------------------------
# requests in flight
# --------------------------------------------------------------------------


class NoStep1For:
    """Replies with no label to the step-1 prompts of texts carrying
    ``word``, so those test inputs get an empty candidate set."""

    def __init__(self, backend, word):
        self.backend = backend
        self.word = word
        self.model_name = backend.model_name
        self.temperature = backend.temperature

    def complete(self, system, user):
        if "comma-separated" in user and self.word in user:
            return "no labels here", 1
        return self.backend.complete(system, user)


def _every_method(out_dir=None):
    return RunConfig(
        methods=[MethodSpec("random"), MethodSpec("knn"),
                 MethodSpec("marginsel", alpha=0.5), MethodSpec("marginsel", alpha=1.0)],
        shots=[2, 3],
        seeds=[1, 2],
        fallback="knn",
        out_dir=out_dir,
    )


def test_results_do_not_depend_on_requests_in_flight(tmp_path):
    # Gamma inputs have no step-1 set, so the knn fallback fires at alpha 1.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    outputs = {}
    try:
        for in_flight in (1, 4):
            for cached in (False, True):
                ctx = replace(planted_pipeline(), max_in_flight=in_flight)
                ctx.backend = NoStep1For(ctx.backend, "gammasig")
                if cached:
                    ctx.backend = CachedBackend(ctx.backend, tmp_path / f"cache{in_flight}")
                out = tmp_path / f"run-{in_flight}-{cached}"
                report = run_experiment(ctx, _every_method(out))
                assert not report.failed_cells
                assert sum(r["fallback"] for r in report.records) == 3 * 2 * 2
                outputs[in_flight, cached] = [
                    (out / name).read_bytes()
                    for name in ("records.jsonl", "report.json", "report.csv")
                ]
    finally:
        sys.setswitchinterval(interval)
    assert all(files == outputs[1, False] for files in outputs.values())


def test_a_run_starts_at_most_max_in_flight_threads(monkeypatch):
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    for in_flight in (1, 2, 4):
        ctx = replace(planted_pipeline(), max_in_flight=in_flight)
        started.clear()
        monkeypatch.setattr(threading.Thread, "start", counted)
        report = run_experiment(ctx, _every_method())
        monkeypatch.undo()
        assert not report.failed_cells
        if in_flight == 1:
            assert started == []
        else:
            assert 1 <= len(started) <= in_flight


class CrashAfter:
    """Passes ``limit`` requests through, then raises an error no cell
    catches, from whichever thread sends the next request."""

    def __init__(self, backend, limit):
        self.backend = backend
        self.model_name = backend.model_name
        self.temperature = backend.temperature
        self.limit = limit
        self._lock = threading.Lock()

    def complete(self, system, user):
        with self._lock:
            self.limit -= 1
            if self.limit < 0:
                raise RuntimeError("backend crashed")
        return self.backend.complete(system, user)


def test_a_crash_mid_run_leaves_no_worker_thread(tmp_path, monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    ctx = replace(planted_pipeline(), max_in_flight=4)
    ctx.backend = CrashAfter(CachedBackend(ctx.backend, tmp_path / "cache"), 40)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="backend crashed"):
        run_experiment(ctx, _every_method(tmp_path / "run"))
    assert set(threading.enumerate()) == before
    gc.collect()
    assert unraisable == []
    # the cells finished before the crash are kept
    assert len(load_records(tmp_path / "run" / "records.jsonl")) == 4


def test_max_in_flight_is_a_positive_int():
    ctx = planted_pipeline()
    for bad in ("four", 0, -3, True, 2.0, None):
        with pytest.raises(ValueError, match="max_in_flight"):
            replace(ctx, max_in_flight=bad)


# --------------------------------------------------------------------------
# alpha sweep
# --------------------------------------------------------------------------


def test_alpha_sweep_endpoints_match_dedicated_methods(tmp_path):
    ctx = planted_pipeline()
    cfg = RunConfig(
        methods=[MethodSpec("knn")],
        shots=[2],
        seeds=[1, 2],
        fallback="random",
        out_dir=tmp_path / "knn-run",
    )
    knn_report = run_experiment(ctx, cfg)

    ctx2 = planted_pipeline()
    sweep_rows = alpha_sweep(
        ctx2,
        RunConfig(
            methods=[MethodSpec("marginsel", alpha=1.0)],
            shots=[2],
            seeds=[1, 2],
            fallback="random",
            out_dir=tmp_path / "sweep",
        ),
        alphas=[0.0, 1.0],
    )
    knn_scores = sorted(c["macro_f1"] for c in knn_report.cells)
    alpha0_scores = sorted(c["macro_f1"] for c in sweep_rows[0]["cells"])
    assert alpha0_scores == knn_scores

    ctx3 = planted_pipeline()
    pure_hard = run_experiment(
        ctx3,
        RunConfig(
            methods=[MethodSpec("marginsel", alpha=1.0)],
            shots=[2],
            seeds=[1, 2],
            fallback="random",
            out_dir=tmp_path / "hard-run",
        ),
    )
    assert sorted(c["macro_f1"] for c in sweep_rows[1]["cells"]) == sorted(
        c["macro_f1"] for c in pure_hard.cells
    )
    assert (tmp_path / "sweep" / "sweep.json").exists()
    assert (tmp_path / "sweep" / "sweep.csv").exists()


class FinalCounter(Step1Counter):
    def __init__(self, backend):
        super().__init__(backend)
        self.final = 0

    def complete(self, system, user):
        if "comma-separated" not in user:
            self.final += 1
        return super().complete(system, user)


def test_alpha_sweep_is_one_run(tmp_path):
    ctx = planted_pipeline()
    ctx.backend = FinalCounter(ctx.backend)
    alphas = [0.5, 0.9, 1.0]

    def cfg(out_dir):
        return RunConfig(
            methods=[MethodSpec("random")],  # replaced by the sweep's methods
            shots=[2, 3],
            seeds=[1, 2],
            fallback="random",
            out_dir=out_dir,
        )

    rows = alpha_sweep(ctx, cfg(tmp_path / "out"), alphas)
    assert [r["alpha"] for r in rows] == alphas
    assert (ctx.backend.step1, ctx.backend.final) == (9, 3 * 2 * 2 * 9)
    assert not (tmp_path / "out" / "records.jsonl").exists()  # eval's place
    swept = (tmp_path / "out" / "sweep" / "records.jsonl").read_text().splitlines()
    for alpha in alphas:
        method = MethodSpec("marginsel", alpha=alpha)
        solo_dir = tmp_path / f"solo-{alpha}"
        run_experiment(planted_pipeline(), replace(cfg(solo_dir), methods=[method]))
        solo = (solo_dir / "records.jsonl").read_text().splitlines()
        assert len(solo) == 2 * 2 * 9
        assert [r for r in swept if json.loads(r)["method"] == method.label()] == solo


def test_alpha_sweep_shape_and_determinism(tmp_path):
    ctx = planted_pipeline()
    cfg = RunConfig(
        methods=[MethodSpec("marginsel", alpha=1.0)],
        shots=[2],
        seeds=[1],
        fallback="random",
        out_dir=None,
    )
    rows = alpha_sweep(ctx, cfg, alphas=[0.0, 0.5, 1.0])
    assert [r["alpha"] for r in rows] == [0.0, 0.5, 1.0]
    rows2 = alpha_sweep(planted_pipeline(), cfg, alphas=[0.0, 0.5, 1.0])
    assert [r["mean_macro_f1"] for r in rows] == [r["mean_macro_f1"] for r in rows2]


def test_derive_seed_is_stable():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(2, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")
