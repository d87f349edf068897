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
