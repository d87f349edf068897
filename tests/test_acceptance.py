"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion.  Runs entirely on the mock backend and
synthetic data; no network.

Every expected value is either computed by an independent oracle inside this
module (brute-force filters, enumerated draw distributions, confusion-matrix
arithmetic) or is a frozen analytic result stated next to its check.
"""

import math
import random
from fractions import Fraction

import pytest

from marginsel.core import (
    Example,
    LabelSpace,
    candidate_key,
)
from marginsel.dataset import LabelFrequency, label_frequency
from marginsel.evalharness import (
    INVALID,
    MethodSpec,
    RunConfig,
    macro_f1,
    run_experiment,
)
from marginsel.knn import build_store, knn_retrieve, rank
from marginsel.selection import (
    EmptySelection,
    LookupEntry,
    LookupTable,
    Pool,
    PrefixDraw,
    select_demos,
    weighted_sample,
)
from marginsel.theory import (
    analytic_1d_errors,
    run_theory_checks,
)

from conftest import candidate_set_from_key, make_dataset, planted_pipeline
from test_cli import make_workspace

RGB = LabelSpace(["red", "green", "blue"])


def ok(criterion: str):
    print(f"PASS {criterion}")


# --------------------------------------------------------------------------
# Independent oracles
# --------------------------------------------------------------------------


def oracle_filter(rows, test_key):
    """Brute-force hard-match: plain string equality on the bit keys."""
    return [row for row in rows if row[2] == test_key]


def oracle_draw(rows, rho_map, k, seed):
    """From-scratch replay of the documented sequential weighted draw:
    random.Random(seed), r = rng.random() * total, first index whose
    cumulative weight exceeds r, remove, repeat.  The total is summed in
    sequence too: from CPython 3.12 ``sum()`` of floats is compensated."""
    if len(rows) <= k:
        return [row[0] for row in rows]
    pool = list(rows)
    weights = [1.0 / rho_map[row[1]] for row in rows]
    rng = random.Random(seed)
    picked = []
    for _ in range(k):
        total = 0.0
        for w in weights:
            total += w
        r = rng.random() * total
        acc = 0.0
        chosen = len(pool) - 1
        for j, w in enumerate(weights):
            acc += w
            if r < acc:
                chosen = j
                break
        picked.append(pool.pop(chosen)[0])
        weights.pop(chosen)
    return picked


def oracle_exact_set_distribution(weights, k):
    """Exact distribution of the sequential draw over unordered outcomes,
    enumerated with rational arithmetic."""
    out = {}

    def rec(remaining, ws, prob, chosen):
        if len(chosen) == k:
            key = frozenset(chosen)
            out[key] = out.get(key, Fraction(0)) + prob
            return
        total = sum(ws)
        for j in range(len(remaining)):
            rec(
                remaining[:j] + remaining[j + 1 :],
                ws[:j] + ws[j + 1 :],
                prob * Fraction(ws[j], total),
                chosen + [remaining[j]],
            )

    rec(list(range(len(weights))), [Fraction(w) for w in weights], Fraction(1), [])
    return out


def _entry(eid, gold, key, space=RGB):
    return LookupEntry(
        example=Example(id=eid, text=f"text {eid}", gold=gold),
        candidates=candidate_set_from_key(key, space),
    )


def _random_instance(rng, n_max=50, c_max=5, shots_max=6):
    n_classes = rng.randint(2, c_max)
    space = LabelSpace([f"c{i}" for i in range(n_classes)])
    n = rng.randint(2, n_max)
    keys = []
    for _ in range(rng.randint(1, 4)):  # few distinct keys so matches happen
        key = "".join(rng.choice("01") for _ in range(n_classes))
        keys.append(key if "1" in key else "1" + key[1:])
    lookup = []
    rows = []
    for i in range(n):
        gold = space.labels[rng.randrange(n_classes)]
        key = rng.choice(keys)
        lookup.append(_entry(f"e{i:02d}", gold, key, space))
        rows.append((f"e{i:02d}", f"t{i}", gold))
    train = make_dataset(space, rows)
    rho = label_frequency(train)
    store = build_store(
        [("q", [rng.uniform(-1, 1) for _ in range(3)])]
        + [
            (e.example.id, [rng.uniform(-1, 1) for _ in range(3)])
            for e in lookup
        ]
    )
    shots = rng.randint(1, shots_max)
    return space, LookupTable(lookup), rho, store, shots, rng.choice(keys)


# --------------------------------------------------------------------------
# Criterion 1: selection equals the brute-force oracle
# --------------------------------------------------------------------------


def test_criterion_1_selection_oracle_equivalence():
    rng = random.Random(20250810)
    checked = 0
    for trial in range(200):
        space, lookup, rho, store, shots, test_key = _random_instance(rng)
        alpha = rng.choice([0.0, 0.3, 0.5, 0.9, 1.0])
        seed = rng.randrange(10**6)
        test_set = candidate_set_from_key(test_key, space)
        rows = [
            (e.example.id, e.example.gold, candidate_key(e.candidates))
            for e in lookup
        ]
        matched_rows = oracle_filter(rows, test_key)
        quota = math.floor(alpha * shots + 0.5)
        try:
            demos = select_demos(
                lookup, test_set, rank(store, "q", [e.example.id for e in lookup]), rho,
                alpha, shots, PrefixDraw(seed=seed)
            )
        except EmptySelection:
            assert alpha == 1.0 and not matched_rows
            continue
        ids = [ex.id for ex, _ in demos]
        sources = [src for _, src in demos]
        assert len(set(ids)) == len(ids)
        # every hard pick precedes every knn pick, and no other source appears
        assert sources == ["hard"] * sources.count("hard") + ["knn"] * sources.count("knn")
        assert alpha < 1.0 or "knn" not in sources
        hard_ids = [ex.id for ex, src in demos if src == "hard"]
        # exact match on the matched pool
        from marginsel.selection import match_hard

        assert [e.example.id for e in match_hard(lookup, test_set)] == [
            r[0] for r in matched_rows
        ]
        # exact replay of the weighted draw
        expected_hard = oracle_draw(
            [(r[0], r[1]) for r in matched_rows], rho.proportions, quota, seed
        )
        assert hard_ids == expected_hard
        checked += 1
    assert checked >= 150

    # Sampled-distribution agreement: pools of at most 8, 100k seeds each,
    # total variation below 0.01 against the exactly enumerated
    # sequential-draw distribution.
    tv_cases = [
        (["red"] * 6 + ["green"] * 2, {"red": 0.75, "green": 0.25}, 1),
        (["red"] * 3 + ["green"] * 2 + ["blue"] * 1,
         {"red": 0.5, "green": 1 / 3, "blue": 1 / 6}, 2),
        (["red"] * 3 + ["green"] * 2, {"red": 0.6, "green": 0.4}, 3),
        (["red"] * 4 + ["green"] * 2 + ["blue"] * 2,
         {"red": 0.5, "green": 0.25, "blue": 0.25}, 3),
    ]
    n_seeds = 100_000
    for golds, rho_map, k in tv_cases:
        matched = Pool([_entry(f"i{j}", g, "100") for j, g in enumerate(golds)])
        rho = LabelFrequency(rho_map)
        weights = [1.0 / rho_map[g] for g in golds]
        exact = oracle_exact_set_distribution(weights, k)
        counts = {}
        for seed in range(n_seeds):
            picked = weighted_sample(matched, k, rho, seed)
            key = frozenset(e.example.id for e in picked)
            counts[key] = counts.get(key, 0) + 1
        index = {frozenset(f"i{j}" for j in key): p for key, p in exact.items()}
        support = set(index) | set(counts)
        tv = 0.5 * sum(
            abs(counts.get(key, 0) / n_seeds - float(index.get(key, 0.0)))
            for key in support
        )
        assert tv <= 0.01, (len(golds), k, tv)
    ok("criterion 1: selection matches brute-force filter + enumerated draw "
       "(200 instances exact; TV <= 0.01 over 100k seeds)")


# --------------------------------------------------------------------------
# Criterion 2: alpha endpoints
# --------------------------------------------------------------------------


def test_criterion_2_alpha_endpoints():
    rng = random.Random(4242)
    for trial in range(100):
        space, lookup, rho, store, shots, test_key = _random_instance(rng)
        test_set = candidate_set_from_key(test_key, space)
        ids = [e.example.id for e in lookup]
        demos = select_demos(
            lookup, test_set, rank(store, "q", ids), rho, 0.0, shots, PrefixDraw(seed=trial)
        )
        expected = knn_retrieve(store, "q", shots, ids)
        assert [ex.id for ex, _ in demos] == expected

        matched_ids = {
            e.example.id for e in lookup if candidate_key(e.candidates) == test_key
        }
        try:
            hard_only = select_demos(
                lookup, test_set, None, rho, 1.0, shots, PrefixDraw(seed=trial)
            )
            assert {ex.id for ex, _ in hard_only} <= matched_ids
            assert all(src == "hard" for _, src in hard_only)
        except EmptySelection:
            assert not matched_ids

    # 90/10 composition at alpha=0.9, n=10 whenever the pool allows.
    composed = 0
    while composed < 20:
        space, lookup, rho, store, shots, test_key = _random_instance(rng, n_max=50)
        matched = [
            e for e in lookup if candidate_key(e.candidates) == test_key
        ]
        if len(matched) < 9 or len(lookup) < 10:
            continue
        demos = select_demos(
            lookup,
            candidate_set_from_key(test_key, space),
            rank(store, "q", [e.example.id for e in lookup]),
            rho,
            0.9,
            10,
            PrefixDraw(seed=composed),
        )
        sources = [src for _, src in demos]
        assert sources.count("hard") == 9
        assert sources.count("knn") == 1
        composed += 1
    ok("criterion 2: alpha=0 equals plain retrieval (100 instances); alpha=1 "
       "is hard-only; alpha=0.9/n=10 composes 9 hard + 1 knn")


# --------------------------------------------------------------------------
# Criterion 3: inverse-frequency first-draw probability
# --------------------------------------------------------------------------


def test_criterion_3_inverse_frequency_sampling():
    # rho = {a: 0.9, b: 0.1} over a 90/10 pool: class weights are
    # 90*(1/0.9) = 100 and 10*(1/0.1) = 100, so the first draw is class b
    # with probability exactly 0.5.
    matched = [_entry(f"r{i}", "red", "100") for i in range(90)]
    matched += [_entry(f"g{i}", "green", "010") for i in range(10)]
    matched = Pool(matched)
    rho = LabelFrequency({"red": 0.9, "green": 0.1})
    n_seeds = 10_000
    hits = sum(
        weighted_sample(matched, 1, rho, seed)[0].example.gold == "green"
        for seed in range(n_seeds)
    )
    assert abs(hits / n_seeds - 0.5) <= 0.03
    ok(f"criterion 3: minority-class first-draw rate {hits / n_seeds:.4f} "
       "within 0.5 +- 0.03 over 10k seeds")


# --------------------------------------------------------------------------
# Criterion 4: planted-signal end-to-end gap
# --------------------------------------------------------------------------


def test_criterion_4_planted_signal_end_to_end(tmp_path):
    ctx = planted_pipeline(n_train_per_sig=8, n_test_per_sig=6)
    cfg = RunConfig(
        methods=[MethodSpec("random"), MethodSpec("marginsel", alpha=1.0)],
        shots=[4],
        seeds=[1, 2, 3],
        fallback="random",
        out_dir=tmp_path / "planted",
    )
    report = run_experiment(ctx, cfg)
    scores = {
        (c["method"], c["seed"]): c["macro_f1"] for c in report.cells
    }
    for seed in (1, 2, 3):
        gap = scores[("marginsel(alpha=1)", seed)] - scores[("random", seed)]
        assert gap >= 0.15, (seed, gap)
    ok("criterion 4: marginsel(alpha=1) beats random by >= 0.15 macro-F1 on "
       "every seed of the planted-signal pipeline")


# --------------------------------------------------------------------------
# Criteria 5 and 6: numerical identities, KKT, support restriction
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def theory_report():
    return run_theory_checks(seed=0, identity_instances=1000, margin_instances=100)


def test_criterion_5_theory_identities(theory_report):
    assert theory_report["decomposition"]["instances"] == 1000
    assert theory_report["decomposition"]["max_abs_error"] < 1e-10
    assert theory_report["affine_update"]["max_abs_error"] < 1e-10
    kkt = theory_report["kkt"]
    assert kkt["instances"] == 100
    for name in (
        "primal_feasibility",
        "dual_feasibility",
        "stationarity",
        "dual_balance",
        "complementary_slackness",
    ):
        assert kkt[name] < 1e-8, (name, kkt[name])
    analytic = analytic_1d_errors()
    assert all(err < 1e-12 for err in analytic.values()), analytic
    ok("criterion 5: decomposition and affine-update identities < 1e-10 over "
       "1000 instances; KKT suite < 1e-8 over 100 instances; 1-D analytic "
       "case exact to 1e-12")


def test_criterion_6_support_restriction(theory_report):
    assert theory_report["support_restriction"]["instances"] == 100
    assert theory_report["support_restriction"]["max_abs_change"] < 1e-12
    ok("criterion 6: dropping zero-coefficient demos shifts the recombined "
       "output by < 1e-12 on every solved instance")


# --------------------------------------------------------------------------
# Criterion 7: metric correctness
# --------------------------------------------------------------------------


def test_criterion_7_metric_correctness():
    space = LabelSpace([f"c{i}" for i in range(5)])
    rng = random.Random(777)
    for _ in range(500):
        n = rng.randint(1, 200)
        pairs = [
            (
                rng.choice(space.labels),
                rng.choice(list(space.labels) + [INVALID]),
            )
            for _ in range(n)
        ]
        got = macro_f1(pairs, space)
        # brute-force per-class confusion counts
        per_class = []
        for c in space.labels:
            tp = sum(1 for g, p in pairs if g == c and p == c)
            fp = sum(1 for g, p in pairs if g != c and p == c)
            fn = sum(1 for g, p in pairs if g == c and p != c)
            denom = 2 * tp + fp + fn
            per_class.append(2 * tp / denom if denom else 0.0)
        assert abs(got - sum(per_class) / 5) < 1e-12
    ab = LabelSpace(["a", "b"])
    hand = macro_f1([("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")], ab)
    assert hand == 0.5
    ok("criterion 7: macro-F1 matches confusion-matrix oracle to 1e-12 on "
       "500 instances; hand case scores exactly 0.5")


# --------------------------------------------------------------------------
# Criterion 8: analysis correctness
# --------------------------------------------------------------------------


def test_criterion_8_analysis_correctness():
    from marginsel.analysis import (
        Step1Record,
        candidate_histogram,
        centroid_distances,
        step1_recall,
    )
    from marginsel.core import candidate_set_from_labels

    two = LabelSpace(["a", "b"])
    cm = centroid_distances(
        {"1": [0.0, 0.0], "2": [3.0, 4.0]}, {"1": "a", "2": "b"}, two
    )
    assert cm.value("a", "b") == 5.0

    rng = random.Random(88)
    for _ in range(50):
        space = LabelSpace([f"c{i}" for i in range(rng.randint(2, 5))])
        lookup = []
        for i in range(rng.randint(1, 40)):
            key = "".join(rng.choice("01") for _ in range(len(space)))
            lookup.append(_entry(f"e{i}", space.labels[0], key, space))
        hist = candidate_histogram(lookup)
        assert abs(sum(hist.values()) - 1.0) <= 1e-9

        records = []
        for _ in range(rng.randint(2, 50)):
            gold = rng.choice(space.labels)
            predicted = rng.choice(space.labels)
            chosen = [l for l in space.labels if rng.random() < 0.5]
            records.append(
                Step1Record(
                    gold=gold,
                    predicted=predicted,
                    candidates=candidate_set_from_labels(chosen, space)
                    if chosen
                    else None,
                )
            )
        out = step1_recall(records, space)
        for label in space.labels:
            relevant = [r for r in records if r.gold == label]
            if not relevant:
                assert label not in out
                continue
            hits = sum(
                1
                for r in relevant
                if r.candidates is not None
                and label in r.candidates.labels_in(space)
            )
            weighted = 0.0
            for stratum, flag in (("correct", True), ("incorrect", False)):
                group = [r for r in relevant if (r.predicted == r.gold) == flag]
                if group:
                    weighted += out[label][stratum] * len(group) / len(relevant)
            assert abs(weighted - hits / len(relevant)) < 1e-12
    ok("criterion 8: 3-4-5 centroid distance exact; histogram frequencies "
       "sum to 1 +- 1e-9; stratified recall aggregates to unconditional")


# --------------------------------------------------------------------------
# Criterion 9: end-to-end reproducibility with a cold second run
# --------------------------------------------------------------------------


def _run_pipeline(config_path, capsys):
    from marginsel.cli import main

    outputs = {}
    assert main(["--config", str(config_path), "assign"]) == 0
    outputs["assign_stdout"] = capsys.readouterr().out
    assert main(
        ["--config", str(config_path), "select", "--test-text", "sigone probe",
         "--alpha", "1.0", "--shots", "3", "--seed", "5"]
    ) == 0
    outputs["select_stdout"] = capsys.readouterr().out
    assert main(["--config", str(config_path), "eval"]) == 0
    outputs["eval_stdout"] = capsys.readouterr().out
    assert main(["--config", str(config_path), "analyze"]) == 0
    capsys.readouterr()
    return outputs


def _artifact_bytes(root):
    artifacts = {}
    for name in ("lookup.jsonl",):
        artifacts[name] = (root / name).read_bytes()
    for sub in ("runs", "analysis"):
        for path in sorted((root / sub).rglob("*")):
            if path.is_file():
                artifacts[str(path.relative_to(root))] = path.read_bytes()
    return artifacts


def test_criterion_9_pipeline_reproducibility(tmp_path, capsys):
    ws_a = tmp_path / "a"
    ws_b = tmp_path / "b"
    ws_a.mkdir()
    ws_b.mkdir()
    config_a = make_workspace(ws_a)
    config_b = make_workspace(ws_b)

    first = _run_pipeline(config_a, capsys)
    cache_bytes = (ws_a / "cache" / "responses.jsonl").read_bytes()

    # Rerun the same config: artifacts untouched, zero backend calls.
    before = _artifact_bytes(ws_a)
    second = _run_pipeline(config_a, capsys)
    assert _artifact_bytes(ws_a) == before
    assert "backend calls: 0" in second["assign_stdout"]
    assert "backend calls: 0" in second["eval_stdout"]
    assert second["select_stdout"] == first["select_stdout"]
    assert (ws_a / "cache" / "responses.jsonl").read_bytes() == cache_bytes

    # An identical config rooted elsewhere produces byte-identical artifacts.
    _run_pipeline(config_b, capsys)
    assert _artifact_bytes(ws_b) == before
    ok("criterion 9: assign -> select -> eval -> analyze is byte-identical "
       "across reruns and across workspaces, with zero backend calls on the "
       "second run")
