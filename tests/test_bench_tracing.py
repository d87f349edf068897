"""The benchmark's span hooks (bench/tracing.py) replace module attributes of
the program by name; each of them must exist, or a traced benchmark run
fails with AttributeError."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in tracing.PATCHES
        if not hasattr(module, attr)
    ]
    assert not missing


def test_every_benchmark_span_records_a_call():
    # A refactor that calls around a patched binding would leave that
    # layer's per-layer metric reading 0.
    from conftest import planted_pipeline
    from marginsel import evalharness
    from marginsel.evalharness import MethodSpec, RunConfig

    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    ctx = planted_pipeline()
    cfg = RunConfig(
        methods=[MethodSpec("random"), MethodSpec("knn"),
                 MethodSpec("marginsel", alpha=0.5), MethodSpec("marginsel", alpha=1.0)],
        shots=[2, 3],
        seeds=[1],
        fallback="knn",
    )
    with tracing.Tracer() as tracer:
        report = evalharness.run_experiment(ctx, cfg)
        evalharness.predict_one(ctx, MethodSpec("marginsel", alpha=0.5), 3,
                                ctx.test.examples[0], 1)
    assert not report.failed_cells
    called = {span[0] for span in tracer.spans}
    assert {name for _, _, name in tracing.PATCHES} <= called
