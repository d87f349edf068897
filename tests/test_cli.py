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
            return "I cannot decide.", 1

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


def test_theory_check_reports_tiny_errors(tmp_path, capsys):
    config_path = make_workspace(tmp_path)
    assert main(["--config", str(config_path), "theory-check"]) == 0
    report = json.loads((tmp_path / "theory.json").read_text())
    assert report["decomposition"]["max_abs_error"] < 1e-10
    assert report["affine_update"]["max_abs_error"] < 1e-10
    assert report["kkt"]["stationarity"] < 1e-8
    assert report["support_restriction"]["max_abs_change"] < 1e-12


def test_missing_config_inputs_exit_2(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"labels": ["a", "b"]}))
    assert main(["--config", str(config_path), "eval"]) == 2
    # select before assign: missing lookup
    ws = make_workspace(tmp_path)
    assert main(["--config", str(ws), "select", "--test-text", "x"]) == 2


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
    # with a lookup table in place, each bad value is refused by its own
    # check, before any request reaches the cached backend
    config_path = make_workspace(tmp_path)
    assert main(["--config", str(config_path), "assign"]) == 0
    cached = (tmp_path / "cache" / "responses.jsonl").read_bytes()
    for override, command in (
        ("eval.shots=[]", "eval"), ("eval.shots=[2.5]", "eval"), ('eval.shots=["3"]', "eval"),
        ("eval.shots=[true]", "eval"), ("eval.shots=[2, 2]", "eval"),
        ("eval.seeds=[1, 1]", "eval"), ('eval.seeds=[1, "1"]', "eval"),
        ('sweep.alphas=["a"]', "sweep"), ("sweep.alphas=[true]", "sweep"),
        ("sweep.alphas=[1.5]", "sweep"),
    ):
        capsys.readouterr()
        assert main(["--config", str(config_path), "--set", override, command]) == 2, override
        err = capsys.readouterr().err
        assert "config error" in err and ("shot" in err or "seeds" in err or "alpha" in err), err
    assert not (tmp_path / "runs").exists()
    assert (tmp_path / "cache" / "responses.jsonl").read_bytes() == cached


def test_python_m_marginsel_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "marginsel", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "theory-check" in done.stdout


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
    cli.load_config(str(config_path), [])  # raises on a key it does not accept

    def leaves(config, path=()):
        for key, value in config.items():
            here = path + (key,)
            if isinstance(value, dict) and here not in cli._OPAQUE_KEYS:
                yield from leaves(value, here)
            else:
                yield here

    assert set(leaves(documented)) == set(leaves(cli.DEFAULT_CONFIG))
