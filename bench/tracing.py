"""Benchmark-side instrumentation: locked request and model-call counters
around the chat backend, and spans recorded around the program's public
functions.

Spans are installed by replacing module attributes where callers look them
up.  ``selection`` and ``evalharness`` bind ``knn_retrieve``, the prompt
renderers and the reply parser with ``from ... import``, so each of those
names is wrapped in every module that calls it, not only where it is
defined.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from marginsel import evalharness, selection

# (module, attribute, span name).  One span name may cover several bindings.
PATCHES = (
    (evalharness, "predict_one", "evalharness.predict_one"),
    (evalharness, "select_demos", "selection.select_demos"),
    (selection, "match_hard", "selection.match_hard"),
    (selection, "weighted_sample", "selection.weighted_sample"),
    (selection, "knn_retrieve", "knn.knn_retrieve"),
    (evalharness, "knn_retrieve", "knn.knn_retrieve"),
    (evalharness, "render_final_prompt", "prompting.render"),
    (evalharness, "render_candidate_prompt", "prompting.render"),
    (selection, "render_candidate_prompt", "prompting.render"),
    (evalharness, "parse_label_tags", "prompting.parse"),
    (selection, "parse_label_tags", "prompting.parse"),
)

ROOT = "evalharness.run_experiment"
REQUEST = "llm_client.request"
MODEL = "llm_client.model"


class Tracer:
    """In-memory span recorder.  A span is (name, start, end, parent index,
    result size, failed); worker threads with no open span are parented to
    the open root span (the ``run_experiment`` call)."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        if name == ROOT:
            self._root = index
        stack.append(index)
        size = None
        failed = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name == "selection.match_hard":
                size = len(result)
            return result
        except Exception:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if name == ROOT:
                self._root = None
            self.spans[index] = (name, start, end, parent, size, failed)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def summarize_spans(spans: list, scale: float) -> dict:
    """Per span name: calls, total and self seconds (scaled), summed result
    sizes and failures.  Self time is the span's duration minus the part of
    its interval that its children cover (children on worker threads
    overlap, so their intervals are merged first)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out: dict = defaultdict(lambda: defaultdict(float))
    hits = defaultdict(float)
    for index, (name, start, end, _, size, failed) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        row = out[name]
        row["calls"] += 1
        row["total_s"] += (end - start) * scale
        row["self_s"] += (end - start - covered) * scale
        row["size"] += size or 0
        row["failed"] += failed
        if name == REQUEST:
            kind = "miss" if index in children else "hit"
            hits[kind + "_calls"] += 1
            hits[kind + "_total_s"] += (end - start) * scale
            hits[kind + "_self_s"] += (end - start - covered) * scale
    out["cache"] = hits
    return out


class Counted:
    """Chat backend wrapper with a locked call counter, recording a span per
    call when traced.  Wraps the model (``MODEL``: ``CachedBackend.misses``
    is incremented outside its lock, so model calls are counted here) and
    the backend the harness talks to (``REQUEST``: every chat request,
    cached or not)."""

    def __init__(self, backend, span: str, tracer: Tracer | None = None):
        self.backend = backend
        self.model_name = backend.model_name
        self.temperature = backend.temperature
        self.span = span
        self.tracer = tracer
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, system: str, user: str) -> tuple[str, int]:
        with self._lock:
            self.calls += 1
        if self.tracer is not None:
            return self.tracer.call(self.span, self.backend.complete, system, user)
        return self.backend.complete(system, user)
