"""Command-line surface for the pipeline.

One JSON config file drives every subcommand; ``--set key.path=value``
overrides individual keys (values parsed as JSON, falling back to raw
strings), merged as the same nested object in the file would be.  Unknown
keys are rejected, listing the valid ones, and so is a value that is not of
its key's JSON kind, which DEFAULT_CONFIG's default gives.

Subcommands: assign, select, predict, eval, sweep, analyze, theory-check.
Exit codes: 0 ok, 2 config error, 3 backend failure, 4 empty hard selection
(select only).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import analysis
from .core import (
    Example,
    LabelSpace,
    MarginSelError,
    candidate_key,
    candidate_set_from_labels,
    write_csv,
    write_json,
)
from .dataset import Dataset, load_dataset, stratified_split
from .evalharness import (
    ExperimentContext,
    MethodSpec,
    NoEmbeddingStore,
    RunConfig,
    RunReport,
    Selector,
    load_records,
    predict_one,
    run_experiment,
    run_sweep,
)
from .knn import load_embeddings
from .llm_client import (
    AuthMissing,
    BackendConfig,
    CachedBackend,
    HttpBackend,
    MockBackend,
    MockRule,
    Timeout,
    Transport,
    backend_calls,
)
from .prompting import (
    BUILTIN_SPACES,
    BUILTIN_TEMPLATES,
    CANDIDATE_ASSIGNMENT,
    FINAL_PREDICTION,
    load_template_dir,
)
from .selection import (
    EmptySelection,
    StaleLookup,
    build_lookup,
    load_lookup,
    save_lookup,
)


class ConfigError(MarginSelError):
    pass


DEFAULT_CONFIG: dict = {
    "labels": [],
    "dataset": {
        "path": None,
        "train_path": None,
        "test_path": None,
        "test_fraction": 0.5,
        "split_seed": 0,
    },
    "embeddings": {"path": None},
    "templates": {"builtin": None, "dir": None},
    "lookup": {"path": "lookup.jsonl"},
    "backend": {
        "type": "mock",
        "base_url": "",
        "model": "",
        "temperature": 0.0,
        "max_retries": 3,
        "timeout": 60.0,
        "api_key_env": None,
        "max_output_tokens": 256,
        "backoff_base": 0.5,
        "cache_dir": None,
        "max_in_flight": 4,
        "mock_rules": {},
        "mock_default": None,
    },
    "select": {"alpha": 1.0, "shots": 4, "seed": 0},
    "eval": {
        "methods": [],
        "shots": [2, 4, 6, 8, 10],
        "seeds": [0, 1, 2],
        "fallback": "knn",
        "baseline": "random",
        "out_dir": "runs/default",
    },
    "sweep": {"alphas": [0.0, 0.5, 0.9, 1.0]},
    "analyze": {
        "vectors_path": None,
        "metric": "euclidean",
        "records_path": None,
        "out_dir": "analysis",
    },
    "theory": {
        "seed": 0,
        "identity_instances": 1000,
        "margin_instances": 100,
        "out_path": "theory_report.json",
    },
}


# A kind is (its wording in errors, its test); a bool is never a number.
_STRING = ("a string", lambda v: isinstance(v, str))
_SCALARS = (_STRING, ("a string or null", lambda v: v is None or isinstance(v, str)),
            ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
            ("a real number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)))
_LIST = ("a list", lambda v: isinstance(v, list))


def _list_of(kind: tuple) -> tuple:
    return (f"a list of {kind[0].split(' ', 1)[1]}s",
            lambda v: isinstance(v, list) and all(map(kind[1], v)))


def _kind(default) -> tuple:
    """A leaf's kind, from its default: a list takes a list of its first
    element's kind, anything else the first of _SCALARS that takes it (so
    null takes a string or null)."""
    if isinstance(default, list):
        return _list_of(_kind(default[0]))
    return next(kind for kind in _SCALARS if kind[1](default))


# Keys whose values are free-form mappings/lists rather than fixed sub-schemas,
# with their kinds; they are set as a whole.
_STRINGS = _list_of(_STRING)
_OPAQUE_KEYS = {
    ("labels",): _STRINGS, ("eval", "methods"): _LIST, ("sweep", "alphas"): _LIST,
    ("backend", "mock_rules"): ("an object of string lists", lambda v: isinstance(v, dict)
                                and all(map(_STRINGS[1], v.values()))),
}


def _leaves(config: dict, path: tuple = ()):
    """(path, value) for each leaf of config, an opaque key's value whole."""
    for key, value in config.items():
        here = path + (key,)
        if isinstance(value, dict) and here not in _OPAQUE_KEYS:
            yield from _leaves(value, here)
        else:
            yield here, value


# The schema: each leaf's kind, from _OPAQUE_KEYS or else from its default.
_SCHEMA = {path: _OPAQUE_KEYS.get(path) or _kind(default)
           for path, default in _leaves(DEFAULT_CONFIG)}


def _merge(base: dict, override: dict, path: tuple = ()) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        here = path + (key,)
        if key not in base:
            raise ConfigError(f"unknown config key {'.'.join(here)!r}; "
                              f"valid keys here: {', '.join(sorted(base))}")
        if here in _SCHEMA:  # a leaf is replaced whole, its kind checked once merged
            merged[key] = copy.deepcopy(value)
        elif not isinstance(value, dict):
            raise ConfigError(f"config key {'.'.join(here)!r} must be an object")
        else:
            merged[key] = _merge(base[key], value, here)
    return merged


def _apply_override(config: dict, assignment: str) -> dict:
    """config with ``a.b.c=value`` merged in as ``{"a": {"b": {"c": value}}}``."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
    keys = tuple(dotted.split("."))
    for i in range(1, len(keys)):
        if keys[:i] in _SCHEMA:
            raise ConfigError(
                f"unknown config key {dotted!r}; set {'.'.join(keys[:i])!r} as a whole"
            )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    for key in reversed(keys):
        value = {key: value}
    return _merge(config, value)


def load_config(path: str | None, overrides: list[str]) -> dict:
    user: dict = {}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
    config = _merge(DEFAULT_CONFIG, user)
    for assignment in overrides:
        config = _apply_override(config, assignment)
    # Each leaf's kind is checked before any command hands it on (an int path
    # would be opened as a file descriptor); the objects that take the values
    # check their ranges.
    for path, (wording, test) in _SCHEMA.items():
        value = functools.reduce(dict.get, path, config)
        if not test(value):
            raise ConfigError(
                f"config key {'.'.join(path)!r} must be {wording}, not {json.dumps(value)}")
    return config


# --------------------------------------------------------------------------
# Config -> pipeline objects
# --------------------------------------------------------------------------


def _space(config: dict) -> LabelSpace:
    if config["labels"]:
        return LabelSpace(config["labels"])
    builtin = config["templates"]["builtin"]
    if builtin and builtin in BUILTIN_SPACES:
        return BUILTIN_SPACES[builtin]
    raise ConfigError("config needs 'labels' (or a builtin template set)")


def _templates(config: dict):
    tpl = config["templates"]
    if tpl["dir"]:
        loaded = load_template_dir(tpl["dir"])
    elif tpl["builtin"]:
        if tpl["builtin"] not in BUILTIN_TEMPLATES:
            raise ConfigError(
                f"unknown builtin template set {tpl['builtin']!r}; "
                f"have: {', '.join(sorted(BUILTIN_TEMPLATES))}"
            )
        loaded = BUILTIN_TEMPLATES[tpl["builtin"]]
    else:
        raise ConfigError("config needs templates.builtin or templates.dir")
    return loaded[CANDIDATE_ASSIGNMENT], loaded[FINAL_PREDICTION]


def _backend(config: dict, space: LabelSpace):
    b = config["backend"]
    if b["type"] == "mock":
        if b["mock_default"] is None:
            raise ConfigError("mock backend needs backend.mock_default")
        rule = MockRule(
            keywords={k: frozenset(v) for k, v in b["mock_rules"].items()},
            default=b["mock_default"],
        )
        backend = MockBackend(rule, space)
    elif b["type"] == "http":
        if not b["base_url"]:
            raise ConfigError("http backend needs backend.base_url")
        http = {f.name for f in dataclasses.fields(BackendConfig)}
        backend = HttpBackend(BackendConfig(
            model_name=b["model"], **{k: v for k, v in b.items() if k in http}))
    else:
        raise ConfigError(f"unknown backend.type {b['type']!r} (mock or http)")
    if b["cache_dir"]:
        backend = CachedBackend(backend, b["cache_dir"])
    return backend


def _closing(backend) -> contextlib.AbstractContextManager:
    """Closes the HTTP session of a backend that _backend built, cached or not."""
    inner = backend.backend if isinstance(backend, CachedBackend) else backend
    return inner if isinstance(inner, HttpBackend) else contextlib.nullcontext()


def _datasets(
    config: dict, space: LabelSpace, test_split: bool = True
) -> tuple[Dataset, Dataset]:
    """The train and test splits: dataset.train_path and dataset.test_path
    when train_path is set, else a stratified split of dataset.path.
    Without ``test_split`` the test split is empty and no test file is read."""
    d = config["dataset"]
    empty = Dataset(space, ())
    if d["train_path"]:
        if test_split and not d["test_path"]:
            raise ConfigError("dataset.train_path is set, so this command needs dataset.test_path")
        train = load_dataset(d["train_path"], space)
        return train, load_dataset(d["test_path"], space) if test_split else empty
    if d["test_path"]:
        raise ConfigError("dataset.test_path needs dataset.train_path")
    if not d["path"]:
        raise ConfigError("config needs dataset.path or dataset.train_path/test_path")
    train, test = stratified_split(load_dataset(d["path"], space), d["test_fraction"],
                                   d["split_seed"])
    return train, test if test_split else empty


def _store(config: dict):
    path = config["embeddings"]["path"]
    if not path:
        raise ConfigError("this command needs embeddings.path")
    return load_embeddings(path)


def _lookup(config: dict, space: LabelSpace):
    """The lookup table; the experiment context refuses it unless it holds
    the train split in order."""
    path = Path(config["lookup"]["path"])
    if not path.exists():
        raise ConfigError(f"lookup table {path} not found; run 'assign' first")
    return load_lookup(path, space)


def _output_file(path) -> Path:
    """An output file's path, checked before the work that fills it: its
    directory is made, and a directory at the path itself is refused."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise ConfigError(f"output path {path} is a directory")
    return path


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_assign(config: dict, args) -> int:
    lookup_path = _output_file(config["lookup"]["path"])
    space = _space(config)
    candidate_template, _ = _templates(config)
    backend = _backend(config, space)
    train, _ = _datasets(config, space, test_split=False)
    with _closing(backend):
        entries = build_lookup(train, backend, candidate_template,
                               config["backend"]["max_in_flight"])
    save_lookup(entries, lookup_path, space)
    hist = analysis.candidate_histogram(entries)
    print(f"lookup table: {len(entries)} entries -> {lookup_path}")
    print("candidate-count histogram: " + ", ".join(f"{k}: {v:.3f}" for k, v in hist.items()))
    print(f"backend calls: {backend_calls(backend)}")
    return 0


def _selection_args(config: dict, args) -> tuple[float, int, int]:
    """--alpha, --shots and --seed, each defaulting to its select.* key."""
    return tuple(config["select"][key] if getattr(args, key) is None else getattr(args, key)
                 for key in ("alpha", "shots", "seed"))


def _test_input(args, test: Dataset) -> Example:
    """The requested test input: ad-hoc text (id "adhoc", gold a
    placeholder) or an id looked up in the test split only, since a train id
    would find its own row in the lookup table and pick itself."""
    if args.test_text is not None:
        return Example("adhoc", args.test_text, test.space.labels[0])
    if args.test_id is None:
        raise ConfigError("provide --test-id or --test-text")
    example = test.index.get(args.test_id)
    if example is None:
        raise ConfigError(f"test id {args.test_id!r} is not in the test split")
    return example


def cmd_select(config: dict, args) -> int:
    alpha, shots, seed = _selection_args(config, args)
    method = MethodSpec("marginsel", alpha)
    RunConfig([method], [shots], [seed])  # the shot and seed checks of a run
    ctx = _context(config, [method], None, args.test_text is not None)
    test = _test_input(args, ctx.test)
    selector = Selector(ctx, None, shots)  # select runs no fallback
    with _closing(ctx.backend):
        selector.assign([test])
    result = {"test_id": test.id, "candidate_key": candidate_key(selector.step1[test.id])}
    try:
        demos = selector.marginsel(alpha, shots, test, seed)
    except EmptySelection:
        result["error"] = (
            "no hard match at alpha=1; rerun with alpha<1 "
            "or rely on the eval fallback policy"
        )
    else:
        result["demos"] = [{"id": ex.id, "gold": ex.gold, "source": source}
                           for ex, source in demos]
    print(json.dumps(result, indent=2))
    return 4 if "error" in result else 0


ADHOC_KNN = (
    "kNN cannot rank ad-hoc text, which has no embedding: the knn method, alpha < 1 "
    "and the knn fallback need --test-id with an input of the test split"
)


def _context(
    config: dict, methods: list[MethodSpec], fallback: str | None, adhoc: bool = False
) -> ExperimentContext:
    """The experiment context for these methods and fallback policy (None
    when no fallback runs), loading the lookup table and the embedding store
    only when a method or the fallback uses them.  For ad-hoc text it loads
    neither the test split nor the store, and refuses a method that would
    rank the text's neighbours before any backend request.  A lookup table
    that does not hold the train split in order is refused."""
    space = _space(config)
    marginsel = [m for m in methods if m.name == "marginsel"]
    ranks = any(m.name == "knn" for m in methods) or any(m.alpha < 1.0 for m in marginsel)
    if adhoc and ranks:
        raise ConfigError(ADHOC_KNN)
    need_store = ranks or (bool(marginsel) and fallback == "knn" and not adhoc)
    candidate_template, final_template = _templates(config)
    backend = _backend(config, space)
    train, test = _datasets(config, space, test_split=not adhoc)
    try:
        return ExperimentContext(
            space=space, train=train, test=test, backend=backend,
            candidate_template=candidate_template, final_template=final_template,
            lookup=_lookup(config, space) if marginsel else None,
            store=_store(config) if need_store else None,
            max_in_flight=config["backend"]["max_in_flight"])
    except StaleLookup:
        raise ConfigError(
            f"lookup table {Path(config['lookup']['path'])} does not hold the train "
            "split's examples in order; rerun 'assign' with this config"
        ) from None


def _parse_methods(raw: list) -> list[MethodSpec]:
    if not raw:
        raise ConfigError("eval.methods must list at least one method")
    methods = []
    for item in raw:
        if not isinstance(item, dict) or "name" not in item:
            raise ConfigError(f"eval.methods entries need a 'name': {item!r}")
        extra = set(item) - {"name", "alpha"}
        if extra:
            raise ConfigError(f"unknown method keys {sorted(extra)}; valid: name, alpha")
        methods.append(MethodSpec(item["name"], item.get("alpha")))
    return methods


def _run_setup(config: dict, methods: list[MethodSpec]) -> tuple[RunConfig, ExperimentContext]:
    """eval's or sweep's run config and context; says when no p-value can be computed."""
    cfg = RunConfig(**{**config["eval"], "methods": methods})
    ctx = _context(config, methods, cfg.fallback)
    if cfg.baseline not in [m.label() for m in cfg.methods]:
        print(f"no p-values: the baseline {cfg.baseline!r} is not among this run's methods")
    return cfg, ctx


def cmd_eval(config: dict, args) -> int:
    cfg, ctx = _run_setup(config, _parse_methods(config["eval"]["methods"]))
    with _closing(ctx.backend):
        report = run_experiment(ctx, cfg)
    for row in report.summary:
        marker = " *" if row.get("significant_vs_baseline") else ""
        print(
            f"{row['method']:>24}  shot={row['shot']:<3} "
            f"macro_f1={row['mean_macro_f1']:.4f} +- {row['stdev_macro_f1']:.4f}{marker}"
        )
    print(f"report: {config['eval']['out_dir']}/report.json")
    return _finish(ctx, report)


def _finish(ctx: ExperimentContext, report: RunReport) -> int:
    """Report failed cells, backend calls and shared replies; exit 3 if any
    cell failed."""
    for cell in report.failed_cells:
        print(f"FAILED cell {cell['method']} shot={cell['shot']} seed={cell['seed']}: "
              f"{cell['error']}")
    print(f"backend calls: {backend_calls(ctx.backend)}, shared replies: {report.shared_replies}")
    return 3 if report.failed_cells else 0


def cmd_sweep(config: dict, args) -> int:
    alphas = config["sweep"]["alphas"]
    cfg, ctx = _run_setup(config, [MethodSpec("marginsel", alpha=a) for a in alphas])
    with _closing(ctx.backend):
        report, rows = run_sweep(ctx, cfg, alphas)
    for row in rows:
        mean = row["mean_macro_f1"]
        shown = "error" if mean is None else f"{mean:.4f}"
        print(f"alpha={row['alpha']:<5} mean_macro_f1={shown}")
    return _finish(ctx, report)


def cmd_predict(config: dict, args) -> int:
    method_name = args.method or "marginsel"
    alpha, shots, seed = _selection_args(config, args)
    method = MethodSpec(method_name, alpha if method_name == "marginsel" else None)
    fallback = config["eval"]["fallback"]
    adhoc = args.test_text is not None
    ctx = _context(config, [method], fallback, adhoc)
    example = _test_input(args, ctx.test)
    with _closing(ctx.backend):
        try:
            _, record = predict_one(ctx, method, shots, example, seed, fallback)
        except NoEmbeddingStore:  # the knn fallback fired on ad-hoc text
            raise ConfigError(ADHOC_KNN) from None
    if adhoc:
        record.pop("gold")
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_analyze(config: dict, args) -> int:
    space = _space(config)
    a = config["analyze"]
    records_path = Path(a["records_path"] or Path(config["eval"]["out_dir"]) / "records.jsonl")
    if a["records_path"] and not records_path.exists():
        raise ConfigError(f"analyze.records_path {records_path} not found")
    files = {}  # file name -> its writer, which takes the file's path

    if a["vectors_path"]:
        store = load_embeddings(a["vectors_path"])
        train, test = _datasets(config, space)
        golds = {ex.id: ex.gold for ds in (train, test) for ex in ds.examples}
        vectors = {i: store.matrix[row] for i, row in store.row.items()}
        missing = sorted(set(vectors) - set(golds))
        if missing:
            raise ConfigError(f"vectors with no gold label: {missing[:5]}")
        cm = analysis.centroid_distances(vectors, golds, space, a["metric"])
        matrix = cm.matrix.tolist()
        files["centroids.json"] = functools.partial(write_json, obj={
            "metric": cm.metric, "labels": list(cm.labels), "matrix": matrix})
        files["centroids.csv"] = functools.partial(write_csv, rows=[["label", *cm.labels]] + [
            [label, *map(repr, row)] for label, row in zip(cm.labels, matrix)])
        files["projection.jsonl"] = functools.partial(
            analysis.dump_projection_input, vectors, {i: golds[i] for i in vectors})

    lookup_path = Path(config["lookup"]["path"])
    if lookup_path.exists():
        hist = analysis.candidate_histogram(load_lookup(lookup_path, space))
        files["histogram.json"] = functools.partial(
            write_json, obj={str(k): v for k, v in hist.items()})
        files["histogram.csv"] = functools.partial(write_csv, rows=[
            ["candidate_count", "frequency"]] + [[k, repr(v)] for k, v in sorted(hist.items())])

    records = [analysis.Step1Record(raw["gold"], raw["predicted"], None if raw.get("step1") is None
                                    else candidate_set_from_labels(raw["step1"], space))
               for cell in load_records(records_path).values() for raw in cell.values()]
    if records:
        recall = analysis.step1_recall(records, space)
        files["step1_recall.json"] = functools.partial(write_json, obj=recall)
        files["step1_recall.csv"] = functools.partial(write_csv, rows=[
            ["label", "stratum", "recall"]] + [
            [label, stratum, repr(value)]
            for label in sorted(recall) for stratum, value in sorted(recall[label].items())])

    if not files:
        raise ConfigError("nothing to analyze: provide analyze.vectors_path, a lookup table, "
                          "or a finished run's records")
    out_dir = Path(a["out_dir"])  # made once every table is computed, so exit 2 leaves none
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out_dir / name)
    print(f"analysis artifacts in {out_dir}: {', '.join(files)}")
    return 0


def cmd_theory_check(config: dict, args) -> int:
    from . import theory  # scipy.optimize loads for this command only

    checks = dict(config["theory"])
    out_path = _output_file(checks.pop("out_path"))
    report = theory.run_theory_checks(**checks)
    write_json(out_path, report)
    print(f"decomposition max error: {report['decomposition']['max_abs_error']:.3e}")
    print(f"affine update max error: {report['affine_update']['max_abs_error']:.3e}")
    print(f"kkt worst stationarity:  {report['kkt']['stationarity']:.3e}")
    print(f"support restriction max change: {report['support_restriction']['max_abs_change']:.3e}")
    print(f"report: {out_path}")
    return 0


COMMANDS = {
    "assign": cmd_assign,
    "select": cmd_select,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
    "theory-check": cmd_theory_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginsel",
        description="Hard-example demonstration selection pipeline",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (dotted path; value parsed as JSON)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        if name in ("select", "predict"):
            cmd.add_argument("--test-id")
            cmd.add_argument("--test-text")
            cmd.add_argument("--alpha", type=float)
            cmd.add_argument("--shots", type=int)
            cmd.add_argument("--seed", type=int)
        if name == "predict":
            cmd.add_argument("--method", choices=["random", "knn", "marginsel"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        return COMMANDS[args.command](config, args)
    except (Transport, Timeout, AuthMissing) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError, MarginSelError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
