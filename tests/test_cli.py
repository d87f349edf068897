import json
import os
import re
import subprocess
import sys
from pathlib import Path

from marginsel import cli
from marginsel.cli import main

from conftest import write_jsonl


def make_workspace(tmp_path: Path) -> Path:
    labels = ["red", "green", "blue"]
    records = []
    for i in range(24):
        sig = "sigone" if i % 2 == 0 else "sigtwo"
        records.append(
            {"id": f"e{i:02d}", "text": f"{sig} word{i}", "label": labels[i % 3]}
        )
    write_jsonl(tmp_path / "data.jsonl", records)

    import random

    rng = random.Random(12)
    write_jsonl(
        tmp_path / "emb.jsonl",
        [
            {"id": r["id"], "vector": [rng.uniform(-1, 1) for _ in range(4)]}
            for r in records
        ],
    )

    tdir = tmp_path / "templates"
    tdir.mkdir()
    (tdir / "candidate.system.txt").write_text("You sort items into bins.")
    (tdir / "candidate.user.txt").write_text(
        "Given the text: '{text}', list every plausible bin.\n{labels}\n"
        "Return ALL relevant labels in comma-separated format within the "
        "<label></label> tags."
    )
    (tdir / "final.system.txt").write_text("You sort items into bins.")
    (tdir / "final.user.txt").write_text(
        "Given the text: '{text}', pick the single best bin.\n{labels}\n"
        "Provide the label exactly as follows: <label>label</label>."
    )

    config = {
        "labels": labels,
        "dataset": {
            "path": str(tmp_path / "data.jsonl"),
            "test_fraction": 0.25,
            "split_seed": 3,
        },
        "embeddings": {"path": str(tmp_path / "emb.jsonl")},
        "templates": {"dir": str(tdir)},
        "lookup": {"path": str(tmp_path / "lookup.jsonl")},
        "backend": {
            "type": "mock",
            "cache_dir": str(tmp_path / "cache"),
            "mock_rules": {"sigone": ["red", "green"], "sigtwo": ["green", "blue"]},
            "mock_default": "red",
        },
        "eval": {
            "methods": [
                {"name": "random"},
                {"name": "knn"},
                {"name": "marginsel", "alpha": 1.0},
            ],
            "shots": [2],
            "seeds": [1, 2],
            "fallback": "random",
            "out_dir": str(tmp_path / "runs"),
        },
        "sweep": {"alphas": [0.0, 1.0]},
        "analyze": {
            "vectors_path": str(tmp_path / "emb.jsonl"),
            "out_dir": str(tmp_path / "analysis"),
        },
        "theory": {
            "identity_instances": 50,
            "margin_instances": 10,
            "out_path": str(tmp_path / "theory.json"),
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return config_path


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"labels": ["a", "b"], "daataset": {}}))
    code = main(["--config", str(config_path), "assign"])
    assert code == 2
    err = capsys.readouterr().err
    assert "daataset" in err and "dataset" in err  # lists the valid keys


def test_unknown_override_key_is_rejected(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    code = main(["--config", str(config_path), "--set", "eval.shoots=[2]", "assign"])
    assert code == 2
    assert "shots" in capsys.readouterr().err


def test_bad_dataset_path_exits_2(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    code = main(
        ["--config", str(config_path), "--set", 'dataset.path="/nope/missing.jsonl"',
         "assign"]
    )
    assert code == 2


def test_assign_is_deterministic_and_cached(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    assert main(["--config", str(config_path), "assign"]) == 0
    first_out = capsys.readouterr().out
    assert "lookup table: 18 entries" in first_out
    assert "candidate-count histogram" in first_out
    lookup_bytes = (tmp_path / "lookup.jsonl").read_bytes()

    assert main(["--config", str(config_path), "assign"]) == 0
    second_out = capsys.readouterr().out
    assert "backend calls: 0" in second_out
    assert (tmp_path / "lookup.jsonl").read_bytes() == lookup_bytes


def test_select_prints_demoset(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    code = main(
        [
            "--config", str(config_path),
            "select", "--test-text", "sigone fresh thing",
            "--alpha", "1.0", "--shots", "3", "--seed", "5",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["candidate_key"] == "110"
    assert len(out["demos"]) == 3
    assert all(d["source"] == "hard" for d in out["demos"])


def test_select_empty_selection_exits_4(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    code = main(
        [
            "--config", str(config_path),
            "select", "--test-text", "sigone sigtwo both",
            "--alpha", "1.0",
        ]
    )
    assert code == 4
    out = json.loads(capsys.readouterr().out)
    assert out["candidate_key"] == "111"
    assert "alpha" in out["error"]


def test_select_unparseable_assignment_exits_4(tmp_path, capsys, monkeypatch):
    class NoTagBackend:
        model_name = "no-tag"
        temperature = 0.0

        def complete(self, system, user):
            return "I cannot decide."

    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "_backend", lambda config, space: NoTagBackend())
    code = main(
        [
            "--config", str(config_path),
            "select", "--test-text", "sigone fresh thing", "--alpha", "1.0",
        ]
    )
    assert code == 4
    assert json.loads(capsys.readouterr().out)["candidate_key"] == "000"


def test_select_mixed_alpha_quota(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    code = main(
        [
            "--config", str(config_path),
            "select", "--test-id", "e12",
            "--alpha", "0.5", "--shots", "4",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    sources = [d["source"] for d in out["demos"]]
    assert sources == ["hard", "hard", "knn", "knn"]


def test_predict_single_example(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    code = main(
        [
            "--config", str(config_path),
            "predict", "--test-id", "e01", "--method", "marginsel",
            "--alpha", "1.0", "--shots", "2",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["predicted"] in {"red", "green", "blue"}
    assert len(out["demo_ids"]) == 2


def test_select_and_predict_refuse_train_ids(tmp_path, capsys):
    # A train id would find its own row in its hard pool and pick itself.
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    for command in ("select", "predict"):
        for train_id in ("e00", "e02", "e03"):
            code = main(["--config", str(config_path), command, "--test-id", train_id])
            assert code == 2
            assert repr(train_id) in capsys.readouterr().err


def test_select_shows_the_demos_predict_and_eval_use(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    overrides = [
        "--set", 'eval.methods=[{"name": "marginsel", "alpha": 1.0}, '
        '{"name": "marginsel", "alpha": 0.5}]',
        "--set", "eval.shots=[4]", "--set", "eval.seeds=[0, 1, 2]",
    ]
    assert main(["--config", str(config_path), *overrides, "eval"]) == 0
    capsys.readouterr()
    records = (tmp_path / "runs" / "records.jsonl").read_text().splitlines()
    assert len(records) == 6 * 2 * 3
    for line in records:
        record = json.loads(line)
        alpha = "1" if record["method"] == "marginsel(alpha=1)" else "0.5"
        args = ["--test-id", record["id"], "--alpha", alpha, "--shots", "4",
                "--seed", str(record["seed"])]
        assert main(["--config", str(config_path), "predict", *args]) == 0
        assert json.loads(capsys.readouterr().out) == record
        code = main(["--config", str(config_path), "select", *args])
        shown = json.loads(capsys.readouterr().out)
        if record["fallback"]:
            assert code == 4 and "demos" not in shown
        else:
            assert code == 0
            assert [d["id"] for d in shown["demos"]] == record["demo_ids"]
            assert [d["source"] for d in shown["demos"]] == record["demo_sources"]


def test_eval_writes_reports_and_is_idempotent(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    assert main(["--config", str(config_path), "eval"]) == 0
    out = capsys.readouterr().out
    assert "macro_f1=" in out
    report = json.loads((tmp_path / "runs" / "report.json").read_text())
    assert len(report["cells"]) == 6  # 3 methods x 1 shot x 2 seeds
    report_bytes = (tmp_path / "runs" / "report.json").read_bytes()

    assert main(["--config", str(config_path), "eval"]) == 0
    second = capsys.readouterr().out
    assert "backend calls: 0" in second
    assert (tmp_path / "runs" / "report.json").read_bytes() == report_bytes


def test_sweep_runs_over_alphas(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    code = main(
        ["--config", str(config_path), "--set", "eval.seeds=[1]", "sweep"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha=0.0" in out and "alpha=1.0" in out
    sweep = json.loads((tmp_path / "runs" / "sweep.json").read_text())
    assert [row["alpha"] for row in sweep] == [0.0, 1.0]


def test_eval_and_sweep_say_when_the_baseline_is_not_run(tmp_path, capsys):
    # A sweep runs marginsel only, so the default baseline "random" gets no
    # p-value column, and the run says why.
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    line = "no p-values: the baseline {!r} is not among this run's methods\n"
    assert main(["--config", str(config_path), "sweep"]) == 0
    assert capsys.readouterr().out.count(line.format("random")) == 1
    assert main(["--config", str(config_path), "eval"]) == 0
    assert "no p-values" not in capsys.readouterr().out
    other = 'eval.baseline="marginsel(alpha=0.5)"'
    assert main(["--config", str(config_path), "--set", other, "eval"]) == 0
    assert capsys.readouterr().out.count(line.format("marginsel(alpha=0.5)")) == 1


def test_eval_and_sweep_print_shared_replies(tmp_path, capsys):
    # knn's seed 2 asks seed 1's prompts for all 6 test inputs, and so does
    # the sweep's alpha 0
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    assert main(["--config", str(config_path), "eval"]) == 0
    # 6 step-1 requests and 30 of the 36 final prompts
    assert "backend calls: 36, shared replies: 6\n" in capsys.readouterr().out
    assert main(["--config", str(config_path), "eval"]) == 0
    assert "backend calls: 0, shared replies: 6\n" in capsys.readouterr().out
    no_cache = ["--config", str(config_path), "--set", "backend.cache_dir=null"]
    assert main([*no_cache, "--set", f'eval.out_dir="{tmp_path / "nocache"}"', "sweep"]) == 0
    # 6 step-1 requests and 18 of the 24 final prompts
    assert "backend calls: 24, shared replies: 6\n" in capsys.readouterr().out


def test_analyze_emits_artifacts(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    main(["--config", str(config_path), "eval"])
    capsys.readouterr()
    assert main(["--config", str(config_path), "analyze"]) == 0
    adir = tmp_path / "analysis"
    for name in (
        "centroids.json",
        "centroids.csv",
        "histogram.json",
        "histogram.csv",
        "step1_recall.json",
        "step1_recall.csv",
        "projection.jsonl",
    ):
        assert (adir / name).exists(), name
    centroids = json.loads((adir / "centroids.json").read_text())
    assert centroids["labels"] == ["red", "green", "blue"]
    hist = json.loads((adir / "histogram.json").read_text())
    assert hist == {"2": 1.0}  # every mock candidate set has two labels


def test_analyze_with_nothing_to_analyze_leaves_no_directory(tmp_path, capsys):
    # No vectors, no lookup table and no records: analyze.out_dir was once
    # made before the exit 2.
    config_path = make_workspace(tmp_path)
    assert main(["--config", str(config_path), "--set", "analyze.vectors_path=null",
                 "analyze"]) == 2
    assert "nothing to analyze" in capsys.readouterr().err
    assert not (tmp_path / "analysis").exists()


def test_analyze_refuses_a_missing_records_path(tmp_path, capsys):
    # A missing analyze.records_path was once ignored: exit 0 with no
    # step1_recall files.  The default <eval.out_dir>/records.jsonl may be absent.
    config_path = make_workspace(tmp_path)
    assert main(["--config", str(config_path), "assign"]) == 0
    missing = tmp_path / "runs" / "nope" / "records.jsonl"
    capsys.readouterr()
    assert main(["--config", str(config_path), "--set", f'analyze.records_path="{missing}"',
                 "analyze"]) == 2
    assert f"config error: analyze.records_path {missing} not found" in capsys.readouterr().err
    assert not (tmp_path / "analysis").exists()
    assert main(["--config", str(config_path), "analyze"]) == 0
    assert sorted(p.name for p in (tmp_path / "analysis").iterdir()) == [
        "centroids.csv", "centroids.json", "histogram.csv", "histogram.json", "projection.jsonl"]


def test_theory_check_reports_tiny_errors(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    assert main(["--config", str(config_path), "theory-check"]) == 0
    report = json.loads((tmp_path / "theory.json").read_text())
    assert report["decomposition"]["max_abs_error"] < 1e-10
    assert report["affine_update"]["max_abs_error"] < 1e-10
    assert report["kkt"]["stationarity"] < 1e-8
    assert report["support_restriction"]["max_abs_change"] < 1e-12


def test_theory_check_refuses_ill_typed_values(tmp_path, capsys):
    # the config's kind check refuses a value that is not an integer, theory
    # the out-of-range ones
    config_path = make_workspace(tmp_path)
    ill_kinded = ('theory.identity_instances="abc"', "theory.identity_instances=2.5",
                  "theory.identity_instances=true", 'theory.seed="x"', "theory.seed=false")
    for override in ill_kinded + ("theory.margin_instances=-1", "theory.margin_instances=0"):
        capsys.readouterr()
        assert main(["--config", str(config_path), "--set", override, "theory-check"]) == 2
        err = capsys.readouterr().err
        key = override.split("=")[0]
        if override in ill_kinded:
            assert f"config error: config key {key!r} must be an integer, not " in err, err
        else:
            assert "config error: theory " in err and key.split(".")[1] in err, err
    assert not (tmp_path / "theory.json").exists()


def test_missing_config_inputs_exit_2(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"labels": ["a", "b"]}))
    assert main(["--config", str(config_path), "eval"]) == 2
    # select before assign: missing lookup
    ws = make_workspace(tmp_path)
    assert main(["--config", str(ws), "select", "--test-text", "x"]) == 2


def test_config_paths_of_the_wrong_file_kind_exit_2(tmp_path, capsys):
    # A directory where a file is read or replaced, or a file where a
    # directory is made or listed, raised IsADirectoryError, FileExistsError
    # or NotADirectoryError past main, and a theory report aimed at a
    # directory left its temporary file behind.
    config_path = make_workspace(tmp_path)
    assert main(["--config", str(config_path), "assign"]) == 0
    a_dir, a_file = tmp_path / "a_dir", tmp_path / "a_file"
    a_dir.mkdir()
    a_file.write_text("x")
    for key, path, command in (
        ("dataset.train_path", a_dir, "assign"), ("embeddings.path", a_dir, "eval"),
        ("lookup.path", a_dir, "select --test-id e01"), ("lookup.path", a_dir, "assign"),
        ("eval.out_dir", a_file, "eval"), ("backend.cache_dir", a_file, "assign"),
        ("analyze.out_dir", a_file, "analyze"), ("templates.dir", a_file, "assign"),
        ("theory.out_path", a_dir, "theory-check"),
    ):
        capsys.readouterr()
        argv = ["--config", str(config_path), "--set", f"{key}={json.dumps(str(path))}",
                *command.split()]
        assert main(argv) == 2, (key, command)
        assert "config error" in capsys.readouterr().err, (key, command)
    assert main(["--config", str(a_dir), "assign"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.tmp"))


def test_an_output_path_that_is_a_directory_is_refused_before_the_work(
        tmp_path, capsys, monkeypatch):
    # assign and theory-check check where their output goes before they ask
    # the model or solve anything.
    from marginsel import llm_client, theory

    calls = []
    complete = llm_client.MockBackend.complete
    monkeypatch.setattr(llm_client.MockBackend, "complete",
                        lambda self, *args: calls.append(args) or complete(self, *args))

    def no_solve(**checks):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(theory, "run_theory_checks", no_solve)
    config_path = make_workspace(tmp_path)
    a_dir, cache = tmp_path / "a_dir", tmp_path / "fresh_cache"
    a_dir.mkdir()
    for key, command in (("lookup.path", "assign"), ("theory.out_path", "theory-check")):
        argv = ["--config", str(config_path), "--set", f"{key}={json.dumps(str(a_dir))}",
                "--set", f"backend.cache_dir={json.dumps(str(cache))}", command]
        assert main(argv) == 2, command
        assert "is a directory" in capsys.readouterr().err
    assert calls == []
    assert not [p for p in cache.rglob("*") if p.is_file() and p.stat().st_size]


def test_unreachable_backend_exits_3(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    code = main(
        [
            "--config", str(config_path),
            "--set", 'backend.type="http"',
            "--set", 'backend.base_url="http://127.0.0.1:1"',
            "--set", "backend.max_retries=0",
            "--set", "backend.timeout=0.2",
            "--set", "backend.cache_dir=null",
            "assign",
        ]
    )
    assert code == 3
    assert "backend error" in capsys.readouterr().err


def test_set_whole_section_merges_like_the_config_file(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    code = main(
        ["--config", str(config_path),
         "--set", 'backend={"type": "mock", "mock_default": "red"}', "assign"]
    )
    assert code == 0
    config = cli.load_config(
        str(config_path), ['backend={"type": "mock", "mock_default": "red"}']
    )
    assert config["backend"]["mock_rules"] == {
        "sigone": ["red", "green"], "sigtwo": ["green", "blue"]
    }
    assert config["backend"]["max_in_flight"] == 4
    for bad in ("backend=3", 'backend.mock_rules.x=["red"]', "dataset.path.x=1"):
        assert main(["--config", str(config_path), "--set", bad, "assign"]) == 2, bad


def test_eval_refuses_a_lookup_of_another_split(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    code = main(
        ["--config", str(config_path), "--set", "dataset.split_seed=7",
         "--set", 'eval.methods=[{"name": "marginsel", "alpha": 1.0}]', "eval"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "lookup.jsonl") in err and "assign" in err
    assert not (tmp_path / "runs").exists()


def test_select_refuses_a_lookup_of_another_split(tmp_path, capsys):
    # Under another split a test input can sit in the stale table and pick
    # itself as a demonstration; select refuses the table as eval does.
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    select = ["select", "--alpha", "1", "--shots", "4"]
    for i in range(24):
        code = main(["--config", str(config_path), "--set", "dataset.split_seed=7",
                     *select, "--test-id", f"e{i:02d}"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "lookup.jsonl") in err and "assign" in err
    assert main(["--config", str(config_path), *select, "--test-id", "e12"]) in (0, 4)


def test_eval_checks_the_lookup_once(tmp_path, capsys, monkeypatch):
    # The experiment context checks the lookup against the train split; the
    # CLI only turns its refusal into a config error.
    from marginsel import evalharness

    checks = []

    def counting(check):
        def counted(*args):
            checks.append(args)
            return check(*args)

        return counted

    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    for module in (cli, evalharness):
        if hasattr(module, "check_lookup"):
            monkeypatch.setattr(module, "check_lookup", counting(module.check_lookup))
    code = main(["--config", str(config_path),
                 "--set", 'eval.methods=[{"name": "marginsel", "alpha": 1.0}]', "eval"])
    assert code == 0
    assert len(checks) == 1


def test_duplicate_methods_exit_2(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    code = main(
        ["--config", str(config_path),
         "--set", 'eval.methods=[{"name": "random"}, {"name": "random"}]', "eval"]
    )
    assert code == 2
    assert "more than once" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_a_baseline_must_be_a_method_label(tmp_path, capsys):
    # A misspelt baseline once ran with exit 0 and no p-value column.  A
    # baseline is a label as MethodSpec.label writes it; one that names no
    # method of the run keeps its run, with no p-value column.
    config_path = make_workspace(tmp_path)
    assert main(["--config", str(config_path), "assign"]) == 0
    for bad in ("rnadom", "Random", "marginsel", "marginsel(alpha=0.50)",
                "marginsel(alpha=1.0)", "marginsel(alpha=2)", "marginsel(alpha=nan)"):
        for command in ("eval", "sweep"):
            capsys.readouterr()
            assert main(["--config", str(config_path), "--set", f'eval.baseline="{bad}"',
                         command]) == 2, bad
            err = capsys.readouterr().err
            assert (f"config error: unknown baseline {bad!r}; valid: random, knn, "
                    "marginsel(alpha=A) with A in [0, 1] as %g writes it") in err, bad
    assert not (tmp_path / "runs").exists()
    summary = {}
    for baseline in ("knn", "marginsel(alpha=0.5)"):
        assert main(["--config", str(config_path), "--set", f'eval.baseline="{baseline}"',
                     "eval"]) == 0
        report = json.loads((tmp_path / "runs" / "report.json").read_text())
        summary[baseline] = {row["method"] for row in report["summary"] if "p_vs_baseline" in row}
    assert summary == {"knn": {"random", "marginsel(alpha=1)"}, "marginsel(alpha=0.5)": set()}


def test_sweep_reports_failed_cells(tmp_path, capsys, monkeypatch):
    class ThreeDemoDown:
        """Fails every final prompt that carries three demonstrations."""

        def __init__(self, backend):
            self.backend = backend
            self.model_name = backend.model_name
            self.temperature = backend.temperature

        @property
        def calls(self):
            return cli.backend_calls(self.backend)

        def complete(self, system, user):
            if user.count("Text: '") == 3:
                raise cli.Transport("HTTP 503: unavailable", status=503)
            return self.backend.complete(system, user)

    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    real_backend = cli._backend
    monkeypatch.setattr(
        cli, "_backend", lambda config, space: ThreeDemoDown(real_backend(config, space))
    )
    code = main(["--config", str(config_path), "--set", "eval.shots=[1, 3]", "sweep"])
    assert code == 3
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if line.startswith("FAILED cell")]
    assert len(failed) == 4  # 2 alphas x 2 seeds at shot 3
    assert all("shot=3" in line and "503" in line for line in failed)
    report = json.loads((tmp_path / "runs" / "sweep" / "report.json").read_text())
    assert sum("error" in c for c in report["cells"]) == 4


class NoRequests:
    model_name = "none"
    temperature = 0.0

    def complete(self, system, user):
        raise AssertionError("no backend request expected")


def test_adhoc_text_refuses_knn_before_any_request(tmp_path, capsys, monkeypatch):
    # Ad-hoc text gets the id "adhoc", which no embedding file holds.
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "_backend", lambda config, space: NoRequests())
    text = ["--test-text", "sigone fresh thing"]
    for args in (["select", *text, "--alpha", "0.5"], ["predict", *text, "--alpha", "0"],
                 ["predict", *text, "--method", "knn"]):
        assert main(["--config", str(config_path), *args]) == 2, args
        err = capsys.readouterr().err
        assert "ad-hoc text" in err and "--test-id" in err


def test_adhoc_text_never_loads_embeddings(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    capsys.readouterr()
    for embeddings in ("null", json.dumps(str(tmp_path / "missing.jsonl"))):
        predict = ["--config", str(config_path), "--set", f"embeddings.path={embeddings}",
                   "--set", 'eval.fallback="knn"', "predict", "--alpha", "1"]
        # a hard match needs no kNN
        assert main([*predict, "--test-text", "sigone fresh thing"]) == 0
        assert json.loads(capsys.readouterr().out)["demo_sources"] == ["hard"] * 4
        # no hard match: the knn fallback fires and cannot rank the text
        assert main([*predict, "--test-text", "plain words"]) == 2
        err = capsys.readouterr().err
        assert "ad-hoc text" in err and "--test-id" in err


def test_eval_names_a_bad_records_line(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    assert main(["--config", str(config_path), "eval"]) == 0
    records = tmp_path / "runs" / "records.jsonl"
    lines = records.read_text().splitlines(keepends=True)
    records.write_text(lines[0] + "{not a record\n" + "".join(lines[2:]))
    capsys.readouterr()
    assert main(["--config", str(config_path), "eval"]) == 2
    assert f"{records}, line 2:" in capsys.readouterr().err


def test_eval_and_analyze_name_an_incomplete_records_line(tmp_path, capsys):
    # A line that lacked gold, predicted or demo_ids made a resumed eval
    # raise an uncaught KeyError.
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    assert main(["--config", str(config_path), "eval"]) == 0
    records = tmp_path / "runs" / "records.jsonl"
    lines = records.read_text().splitlines(keepends=True)
    for field, value in (("gold", None), ("predicted", None), ("demo_ids", None),
                         ("gold", 1), ("predicted", ["red"]), ("demo_ids", "e01"),
                         ("demo_ids", [1])):
        record = json.loads(lines[1])
        if value is None:
            del record[field]
        else:
            record[field] = value
        records.write_text(lines[0] + json.dumps(record) + "\n" + "".join(lines[2:]))
        for command in ("eval", "analyze"):
            capsys.readouterr()
            assert main(["--config", str(config_path), command]) == 2, (field, value, command)
            assert f"{records}, line 2: not a run record" in capsys.readouterr().err


def test_a_train_file_needs_a_test_file_and_a_test_file_a_train_file(tmp_path, capsys):
    # With dataset.path and dataset.train_path set and no test_path, assign
    # read train_path but eval split path, then refused the lookup and asked
    # to rerun assign, which never fixed it.  A test_path with no train_path
    # was ignored.
    config_path = make_workspace(tmp_path)
    lines = (tmp_path / "data.jsonl").read_text().splitlines(keepends=True)
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    train.write_text("".join(lines[:12]))
    test.write_text("".join(lines[12:]))
    with_train = ["--config", str(config_path),
                  "--set", f"dataset.train_path={json.dumps(str(train))}"]
    assert main([*with_train, "assign"]) == 0
    for command in ("eval", "sweep", "select --test-id e20", "predict --test-id e20", "analyze"):
        capsys.readouterr()
        assert main([*with_train, *command.split()]) == 2, command
        assert "config error: dataset.train_path is set, so this command needs dataset.test_path" \
            in capsys.readouterr().err, command
    assert not (tmp_path / "runs").exists()
    test_only = f"dataset.test_path={json.dumps(str(test))}"
    assert main(["--config", str(config_path), "--set", test_only, "assign"]) == 2
    assert "config error: dataset.test_path needs dataset.train_path" in capsys.readouterr().err
    assert main([*with_train, "--set", test_only, "eval"]) == 0


def test_a_bad_lookup_or_embeddings_line_names_the_file_and_line(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    main(["--config", str(config_path), "assign"])
    select = ["--config", str(config_path), "select", "--test-id", "e12",
              "--alpha", "0.5", "--shots", "4"]
    for path in (tmp_path / "lookup.jsonl", tmp_path / "emb.jsonl"):
        good = path.read_text()
        lines = good.splitlines(keepends=True)
        for bad in ('{"id" "e01"}\n', '{"id": "e01"}\n'):  # not JSON; fields missing
            path.write_text(lines[0] + bad + "".join(lines[2:]))
            capsys.readouterr()
            assert main(select) == 2
            assert f"{path}, line 2:" in capsys.readouterr().err
        path.write_text(good)
    assert main(select) == 0


def test_max_in_flight_must_be_a_positive_int(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    for command in ("assign", "eval"):
        for value in ("four", "0", "-3", "true", "2.5"):
            capsys.readouterr()
            override = f"backend.max_in_flight={value}"
            assert main(["--config", str(config_path), "--set", override, command]) == 2
            assert "max_in_flight" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        if command == "assign":
            assert not (tmp_path / "lookup.jsonl").exists()
            assert main(["--config", str(config_path), "assign"]) == 0


def test_shots_seeds_and_alphas_must_be_well_typed(tmp_path, capsys):
    # with a lookup table in place, each bad value is refused by the config's
    # kind check (ill_kinded) or by its own check, before any request reaches
    # the cached backend
    ill_kinded = {"eval.shots=[2.5]", 'eval.shots=["3"]', "eval.shots=[true]",
                  'eval.seeds=[1, "1"]', "select.shots=2.5", 'select.seed="x"'}
    config_path = make_workspace(tmp_path)
    assert main(["--config", str(config_path), "assign"]) == 0
    cached = (tmp_path / "cache" / "responses.jsonl").read_bytes()
    for override, command in (
        ("eval.shots=[]", "eval"), ("eval.shots=[2.5]", "eval"), ('eval.shots=["3"]', "eval"),
        ("eval.shots=[true]", "eval"), ("eval.shots=[2, 2]", "eval"),
        ("eval.seeds=[1, 1]", "eval"), ('eval.seeds=[1, "1"]', "eval"),
        ('sweep.alphas=["a"]', "sweep"), ("sweep.alphas=[true]", "sweep"),
        ("sweep.alphas=[1.5]", "sweep"),
        ('eval.methods=[{"name": "knn", "alpha": 0.5}]', "eval"),
        ("select.shots=-1", "predict --test-id e01 --method random"),
        ("select.shots=0", "predict --test-id e01 --method knn"),
        ("select.shots=2.5", "predict --test-id e01 --method knn"),
        ("select.shots=2.5", "predict --test-id e01 --method random"),
        ("select.shots=2.5", "select --test-id e01"),
        ('select.seed="x"', "predict --test-id e01"),
        ('select.seed="x"', "select --test-id e01"),
    ):
        capsys.readouterr()
        argv = ["--config", str(config_path), "--set", override, *command.split()]
        assert main(argv) == 2, (override, command)
        err = capsys.readouterr().err
        if override in ill_kinded:
            assert f"config error: config key {override.split('=')[0]!r} must be " in err, err
            continue
        assert "config error" in err and ("shot" in err or "seeds" in err or "alpha" in err), err
    assert not (tmp_path / "runs").exists()
    assert (tmp_path / "cache" / "responses.jsonl").read_bytes() == cached


def test_split_fraction_and_seed_must_be_well_typed(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    for override in ('dataset.test_fraction="0.25"', "dataset.test_fraction=true",
                     "dataset.split_seed=[3]", 'dataset.split_seed="x"',
                     "dataset.split_seed=1.5", "dataset.split_seed=true"):
        capsys.readouterr()
        assert main(["--config", str(config_path), "--set", override, "assign"]) == 2, override
        err = capsys.readouterr().err
        assert "config error" in err and override.split("=")[0].removeprefix("dataset.") in err, err
    assert not (tmp_path / "runs").exists()


# The command that reads each config section's keys.
_READER = {"labels": "assign", "dataset": "assign", "embeddings": "eval", "templates": "assign",
           "lookup": "select --test-id e01", "backend": "assign", "select": "select --test-id e01",
           "eval": "eval", "sweep": "sweep", "analyze": "analyze", "theory": "theory-check"}
# One value of each JSON kind, and the ones that each kind of leaf takes.
_VALUES = ("null", "true", '"x"', "2.5", "-1", "[1]", '{"a": 1}')
_TAKES = {"a string or null": {"null", '"x"'}, "a string": {'"x"'}, "an integer": {"-1"},
          "a real number": {"2.5", "-1"}, "a list": {"[1]"}, "a list of integers": {"[1]"}}


def test_config_values_of_the_wrong_json_type_exit_2(tmp_path, capsys, monkeypatch):
    # Every leaf set to each JSON kind, each run with a command that reads it.
    # A value of another kind than the leaf's is refused before any command
    # runs: no model call and no file written.  Before the kind check an int
    # path was opened as a file descriptor, most values raised an uncaught
    # TypeError or AttributeError, eval.baseline=5 ran with no p-values, and
    # a mock config took backend.timeout=null.  A value of the leaf's kind
    # never raises past main.
    from marginsel import llm_client

    calls = []
    complete = llm_client.MockBackend.complete
    monkeypatch.setattr(llm_client.MockBackend, "complete",
                        lambda self, *args: calls.append(args) or complete(self, *args))
    monkeypatch.chdir(tmp_path)  # the relative outputs of accepted values
    config_path = make_workspace(tmp_path)
    assert main(["--config", str(config_path), "assign"]) == 0
    overrides = [f"{'.'.join(leaf)}={value}" for leaf in cli._SCHEMA for value in _VALUES] + [
        "eval.out_dir=5", "eval.baseline=5", "embeddings.path=5", "sweep.alphas=0.5",
        "lookup.path=5", "dataset.path=5", "backend.cache_dir=5", "labels=[1, 2]", 'labels="red"',
        "backend.base_url=5", "backend.mock_default=5", "backend.mock_rules=[1, 2]",
        'backend.mock_rules={"sigone": "red"}', "templates.dir=[]", "templates.builtin=5",
        "analyze.vectors_path=5", "theory.out_path=5"]
    for override in overrides:
        key, value = override.split("=", 1)
        kind = cli._SCHEMA[tuple(key.split("."))][0]
        files = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
        calls.clear()
        capsys.readouterr()
        code = main(["--config", str(config_path), "--set", override,
                     *_READER[key.split(".")[0]].split()])
        if value in _TAKES.get(kind, ()):
            assert code in (0, 2), override
            continue
        assert code == 2, override
        assert (f"config error: config key {key!r} must be {kind}, not "
                in capsys.readouterr().err), override
        assert not calls, override
        assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == files, override


def test_backend_numbers_of_the_wrong_type_or_range_exit_2(tmp_path, capsys):
    # Before BackendConfig checked its numbers, max_retries=null and
    # temperature="hot" raised an uncaught TypeError, and the rest were
    # accepted.  Each value is refused before any request is sent: by the
    # config's kind check (ill_kinded) or by BackendConfig's range check.
    config_path = make_workspace(tmp_path)
    http = ["--set", 'backend.type="http"', "--set", 'backend.base_url="http://127.0.0.1:9"']
    ill_kinded = ("backend.max_retries=null", 'backend.temperature="hot"', 'backend.timeout="x"',
                  "backend.max_output_tokens=2.5", "backend.backoff_base=null",
                  "backend.max_retries=true", "backend.temperature=false", "backend.timeout=true")
    for override in ill_kinded + ("backend.timeout=-1", "backend.timeout=0",
                                  "backend.max_output_tokens=0", "backend.backoff_base=-0.5",
                                  "backend.max_retries=11"):
        capsys.readouterr()
        assert main(["--config", str(config_path), *http, "--set", override, "assign"]) == 2
        key = override.split("=")[0]
        said = f"config key {key!r}" if override in ill_kinded else key
        assert f"config error: {said} must be " in capsys.readouterr().err, override
    assert not (tmp_path / "cache").exists() and not (tmp_path / "lookup.jsonl").exists()


def test_python_m_marginsel_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "marginsel", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "theory-check" in done.stdout


_REPORT_HEAVY = ("import atexit, json, sys; atexit.register(lambda: print(json.dumps(sorted("
                 "m for m in sys.modules if m.split('.')[0] in ('scipy', 'requests'))), "
                 "file=sys.stderr)); ")
_RUN_MARGINSEL = "import runpy; runpy.run_module('marginsel', run_name='__main__', alter_sys=True)"


def _heavy_imports(tmp_path: Path, code: str, *args: str) -> set[str]:
    """The scipy and requests modules loaded when a fresh interpreter has run
    code with args as its command line; the last line on stderr lists them."""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _REPORT_HEAVY + code, *args], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return set(json.loads(done.stderr.splitlines()[-1]))


def test_scipy_and_requests_load_only_where_they_are_used(tmp_path):
    config_path = make_workspace(tmp_path)
    cmd = (_RUN_MARGINSEL, "--config", str(config_path))
    assert _heavy_imports(tmp_path, "import marginsel.cli") == set()
    assert _heavy_imports(tmp_path, _RUN_MARGINSEL, "--help") == set()
    for args in (["assign"],
                 ["select", "--test-id", "e01", "--alpha", "0.5"],
                 ["predict", "--test-id", "e01", "--method", "knn"],
                 ["predict", "--test-id", "e01"],
                 ["--set", "eval.seeds=[1]", "sweep"],
                 ["--set", "eval.seeds=[1]", "eval"]):  # one seed: no p-value
        assert _heavy_imports(tmp_path, *cmd, *args) == set(), args
    report = tmp_path / "runs" / "report.json"
    assert not any("p_vs_baseline" in row for row in json.loads(report.read_text())["summary"])
    # The workspace's eval has two seeds, so it tests each method against
    # random: with scipy.special's t distribution, never with scipy.stats.
    loaded = _heavy_imports(tmp_path, *cmd, "eval")
    assert "scipy.special" in loaded and "scipy.stats" not in loaded, sorted(loaded)
    assert any(row.get("p_vs_baseline") is not None
               for row in json.loads(report.read_text())["summary"])
    assert "scipy.optimize" in _heavy_imports(tmp_path, *cmd, "theory-check")


def test_a_p_value_column_loads_scipy_special_whatever_the_scores(tmp_path):
    """Constant paired differences get a null p-value, yet load scipy.special
    as varying ones do: a run's peak memory follows its grid, not its data.
    Neither loads scipy.stats."""
    code = ("from marginsel.evalharness import MethodSpec, RunConfig, _summarize; "
            "cells = [{'method': m, 'shot': 2, 'seed': s, 'macro_f1': f + s / 10} "
            "for m, f in (('random', 0.5), ('knn', 0.7)) for s in (1, 2)]; "
            "rows = _summarize(cells, RunConfig([MethodSpec('random'), MethodSpec('knn')], "
            "shots=[2], seeds=[1, 2])); "
            "assert [r.get('p_vs_baseline', 'absent') for r in rows] == [None, 'absent'], rows")
    loaded = _heavy_imports(tmp_path, code)
    assert "scipy.special" in loaded and "scipy.stats" not in loaded, sorted(loaded)


def test_a_bad_dataset_line_names_the_file_and_line(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    lines = (tmp_path / "data.jsonl").read_text().splitlines(keepends=True)
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    split = ["--set", f"dataset.train_path={json.dumps(str(train))}",
             "--set", f"dataset.test_path={json.dumps(str(test))}"]
    select = ["--config", str(config_path), *split, "select", "--test-id", "e20"]
    for bad_path, good_path in ((train, test), (test, train)):
        for bad in ('{"id" "x"}\n', '{"id": "x", "text": "t", "label": "purple"}\n'):
            bad_path.write_text(lines[0] + bad + "".join(lines[2:12]))
            good_path.write_text("".join(lines[12:]))
            capsys.readouterr()
            assert main(select) == 2
            err = capsys.readouterr().err
            assert f"{bad_path}, line 2:" in err and str(good_path) not in err


def test_readme_config_reference_matches_load_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config reference")[1].split("```jsonc")[1].split("```")[0]
    documented = json.loads(re.sub(r"\s//.*", "", block))
    config_path = tmp_path / "documented.json"
    config_path.write_text(json.dumps(documented))
    cli.load_config(str(config_path), [])  # raises on a key or kind it does not accept
    assert {leaf for leaf, _ in cli._leaves(documented)} == set(cli._SCHEMA)
