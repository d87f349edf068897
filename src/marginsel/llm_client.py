"""Pluggable chat-completion backends: an HTTP client for real model
endpoints and a deterministic keyword mock for tests and dry runs.

Backends expose ``complete(system, user) -> (reply, attempts)``.  The HTTP
backend posts the standard chat-completion JSON body to
``{base_url}/chat/completions`` and retries transport failures, 429 and
5xx responses after a fully jittered exponential backoff, or after the
reply's numeric Retry-After (capped by the timeout); other 4xx responses are
never retried.  Responses can be cached in one append-only file keyed by
hash(model, system, user, temperature), so a rerun makes zero backend calls.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import itertools
import json
import logging
import math
import os
import random
import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol, Sequence, TypeVar

import requests

from .core import CandidateSet, LabelSpace, MarginSelError, candidate_set_from_labels, canonical_label

log = logging.getLogger(__name__)

T = TypeVar("T")
U = TypeVar("U")

REQUEST_BATCH = 256  # prompts complete_all draws ahead of their replies


class Transport(MarginSelError):
    def __init__(self, message: str, status: int | None = None):
        self.status = status
        super().__init__(message)


class Timeout(MarginSelError):
    pass


class AuthMissing(MarginSelError):
    def __init__(self, env_var: str):
        self.env_var = env_var
        super().__init__(f"environment variable {env_var!r} is not set")


@dataclass(frozen=True)
class BackendConfig:
    base_url: str = ""
    model_name: str = ""
    temperature: float = 0.0
    max_retries: int = 3
    timeout: float = 60.0
    api_key_env: str | None = None
    max_output_tokens: int = 256
    backoff_base: float = 0.5

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 <= self.max_retries <= 10:
            raise ValueError("max_retries must lie in [0, 10]")


class Backend(Protocol):
    model_name: str
    temperature: float

    def complete(self, system: str, user: str) -> tuple[str, int]: ...


_RETRYABLE_STATUS = frozenset([429, *range(500, 600)])


def _retry_after(resp: requests.Response, cap: float) -> float | None:
    """A numeric ``Retry-After`` header in seconds, clamped to [0, cap];
    None when the header is absent or not a number."""
    try:
        seconds = float(resp.headers.get("Retry-After", ""))
    except ValueError:
        return None
    return None if math.isnan(seconds) else min(max(seconds, 0.0), cap)


class HttpBackend:
    """Chat-completion client for any endpoint speaking the standard JSON
    protocol.  Temperature defaults to 0 for reproducibility.  ``calls``
    counts completions asked for, from any thread.  ``jitter`` draws each
    retry's sleep, uniform in [0, backoff_base * 2**(retry - 1)]."""

    def __init__(self, config: BackendConfig):
        self.config = config
        self.model_name = config.model_name
        self.temperature = config.temperature
        self.calls = 0
        self._calls_lock = threading.Lock()
        self.jitter = random.Random()
        self._session = requests.Session()

    def close(self) -> None:
        self._session.close()

    def __enter__(self) -> "HttpBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.config.api_key_env:
            key = os.environ.get(self.config.api_key_env)
            if not key:
                raise AuthMissing(self.config.api_key_env)
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post_json(self, path: str, payload: dict) -> tuple[dict, int]:
        cfg = self.config
        url = cfg.base_url.rstrip("/") + path
        headers = self._headers()
        attempts = 0
        last_timeout = False
        last_error = "no attempt made"
        retry_after = None  # the last reply's Retry-After, which replaces the backoff
        while attempts <= cfg.max_retries:
            if attempts:
                backoff = cfg.backoff_base * 2 ** (attempts - 1)
                time.sleep(self.jitter.uniform(0, backoff) if retry_after is None else retry_after)
            attempts += 1
            retry_after = None
            try:
                resp = self._session.post(
                    url, json=payload, headers=headers, timeout=cfg.timeout
                )
            except requests.Timeout:
                last_timeout = True
                last_error = "request timed out"
                continue
            except requests.RequestException as exc:
                last_timeout = False
                last_error = f"connection failed: {exc}"
                continue
            if resp.status_code in _RETRYABLE_STATUS:
                last_timeout = False
                last_error = f"HTTP {resp.status_code}"
                retry_after = _retry_after(resp, cfg.timeout)
                continue
            if resp.status_code >= 400:
                raise Transport(
                    f"HTTP {resp.status_code}: {resp.text[:200]}",
                    status=resp.status_code,
                )
            return resp.json(), attempts
        if last_timeout:
            raise Timeout(f"{last_error} after {attempts} attempts")
        raise Transport(f"{last_error} after {attempts} attempts")

    def complete(self, system: str, user: str) -> tuple[str, int]:
        with self._calls_lock:
            self.calls += 1
        payload = {
            "model": self.config.model_name,
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_output_tokens,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
        }
        body, attempts = self._post_json("/chat/completions", payload)
        try:
            reply = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise Transport(f"malformed completion body: {str(body)[:200]}")
        return reply, attempts

    def embed(self, text: str) -> list[float]:
        """Fetch one embedding vector from ``{base_url}/embeddings``."""
        payload = {"model": self.config.model_name, "input": text}
        body, _ = self._post_json("/embeddings", payload)
        try:
            return [float(x) for x in body["data"][0]["embedding"]]
        except (KeyError, IndexError, TypeError, ValueError):
            raise Transport(f"malformed embedding body: {str(body)[:200]}")


@dataclass(frozen=True)
class MockRule:
    """Keyword table driving the deterministic mock classifier: any keyword
    found in the lowercased input contributes its labels; the default label
    applies when nothing matches."""

    keywords: dict[str, frozenset[str]]
    default: str

    def __post_init__(self):
        object.__setattr__(
            self,
            "keywords",
            {
                canonical_label(kw): frozenset(canonical_label(l) for l in labels)
                for kw, labels in self.keywords.items()
            },
        )
        object.__setattr__(self, "default", canonical_label(self.default))

    def validate(self, space: LabelSpace) -> None:
        for kw, labels in self.keywords.items():
            for label in labels:
                if label not in space:
                    raise ValueError(f"mock rule {kw!r} maps to unknown label {label!r}")
        if self.default not in space:
            raise ValueError(f"mock default {self.default!r} not in label space")


def mock_multilabel(rule: MockRule, text: str, space: LabelSpace) -> CandidateSet:
    """Pure keyword-union classifier: the labels of every keyword occurring
    in lowercase(text), or the default label if none occurs."""
    lowered = text.lower()
    hit: set[str] = set()
    for keyword, labels in rule.keywords.items():
        if keyword in lowered:
            hit |= labels
    if not hit:
        hit = {rule.default}
    return candidate_set_from_labels(sorted(hit), space)


class MockBackend:
    """Deterministic stand-in for a chat endpoint.

    Replies are derived from the keyword rule table applied to the raw user
    message.  Prompts that ask for comma-separated output (the multi-label
    assignment templates do) get every matched label; other prompts get a
    single label — the first match in space order.  ``calls`` counts real
    invocations so tests can assert a warmed cache makes none.
    """

    temperature = 0.0

    def __init__(self, rule: MockRule, space: LabelSpace):
        rule.validate(space)
        self.rule = rule
        self.space = space
        self.calls = 0
        fingerprint = hashlib.sha256(
            json.dumps(
                {"keywords": {k: sorted(v) for k, v in rule.keywords.items()},
                 "default": rule.default},
                sort_keys=True,
            ).encode()
        ).hexdigest()[:12]
        self.model_name = f"mock-{fingerprint}"

    def complete(self, system: str, user: str) -> tuple[str, int]:
        self.calls += 1
        matched = mock_multilabel(self.rule, user, self.space)
        names = matched.labels_in(self.space)
        if "comma-separated" in user:
            return f"<label>{','.join(names)}</label>", 1
        return f"<label>{names[0]}</label>", 1


class CachedBackend:
    """Response cache around any backend: one append-only JSON-lines file,
    ``cache_dir/responses.jsonl``, indexed in memory when the cache opens by
    the sha256 of (model, system, user, temperature).  A miss first indexes
    what other processes appended since, when the file has grown, then
    appends one line under an exclusive ``flock``.  A line that does not
    parse is skipped, so its request is asked again.  Only a miss opens the
    file for writing, so a cache that cannot be written still serves its
    hits.  No file stays open between calls."""

    def __init__(self, backend: Backend, cache_dir: str | Path):
        self.backend = backend
        self.model_name = backend.model_name
        self.temperature = backend.temperature
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        self.path = cache_dir / "responses.jsonl"
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._replies: dict[bytes, str] = {}
        self._indexed = 0  # bytes of the file read into _replies
        _import_entry_files(cache_dir, self.path)
        self._read_new()

    def _read_new(self) -> None:
        """Index the complete lines past the indexed bytes, opening the file
        to read only when it has grown past them; a missing file is empty.
        A last line with no newline is torn or still being written, and is
        left unread."""
        try:
            if os.stat(self.path).st_size <= self._indexed:
                return
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            fh.seek(self._indexed)
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                self._indexed += len(line)
                try:
                    entry = json.loads(line)
                    if isinstance(entry["reply"], str):
                        self._replies[_key(entry)] = entry["reply"]
                except (ValueError, KeyError, TypeError) as exc:
                    log.warning("%s: bad line before byte %d: %s", self.path, self._indexed, exc)

    def complete(self, system: str, user: str) -> tuple[str, int]:
        entry = dict(model=self.model_name, temperature=self.temperature, system=system, user=user)
        key = _key(entry)
        with self._lock:
            if key not in self._replies:
                self._read_new()
            if key in self._replies:
                self.hits += 1
                return self._replies[key], 0
        entry["reply"], attempts = self.backend.complete(system, user)
        line = json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n"
        with self._lock:
            start, end = _append(self.path, line.encode("utf-8"))
            if start == self._indexed:  # nothing unread before this line
                self._indexed = end
            self._replies[key] = entry["reply"]
            self.misses += 1
        return entry["reply"], attempts


def _key(entry: dict) -> bytes:
    fields = [entry["model"], entry["system"], entry["user"], repr(entry["temperature"])]
    return hashlib.sha256("\x1f".join(fields).encode("utf-8")).digest()


def _append(path: Path, data: bytes) -> tuple[int, int]:
    """Append data under an exclusive flock, after a newline when the file
    ends in a line a killed writer tore.  Returns the sizes before and after."""
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file closes
        start = fh.seek(0, os.SEEK_END)
        if start and os.pread(fh.fileno(), 1, start - 1) != b"\n":
            data = b"\n" + data
        fh.write(data)
    return start, start + len(data)


def _import_entry_files(cache_dir: Path, path: Path) -> None:
    """Append the entries of the older layout, one ``<sha256>.json`` file per
    request holding the bytes of one line, to ``path``; then delete them."""
    files = sorted(cache_dir.glob("[0-9a-f]" * 64 + ".json"))
    lines = []
    for entry_file in files:
        with contextlib.suppress(FileNotFoundError):  # another process imported it
            lines.append(entry_file.read_bytes().replace(b"\n", b" ") + b"\n")
    if lines:
        _append(path, b"".join(lines))
    for entry_file in files:
        entry_file.unlink(missing_ok=True)


def backend_calls(backend: Backend) -> int:
    """Number of non-cache invocations a backend has made: a cache's misses,
    else the backend's own ``calls``."""
    if isinstance(backend, CachedBackend):
        return backend.misses
    return backend.calls


def check_in_flight(max_in_flight: int) -> None:
    """Refuse (ValueError) a max_in_flight that is not an int of at least 1,
    or that is a bool."""
    if isinstance(max_in_flight, bool) or not isinstance(max_in_flight, int) or max_in_flight < 1:
        raise ValueError(f"max_in_flight must be an integer >= 1, not {max_in_flight!r}")


def request_pool(max_in_flight: int) -> contextlib.AbstractContextManager[Executor | None]:
    """The pool that keeps up to max_in_flight backend requests in flight:
    a thread pool, closed when its ``with`` block exits, or None at 1, when
    requests run on the calling thread."""
    check_in_flight(max_in_flight)
    if max_in_flight == 1:
        return contextlib.nullcontext()
    return ThreadPoolExecutor(max_workers=max_in_flight)


def pool_map(fn: Callable[[T], U], items: Sequence[T], pool: Executor | None) -> list[U]:
    """fn applied to every item in input order: in the pool when there is
    one and more than one item, else on the calling thread.  The first
    exception propagates, and the calls not yet started are cancelled."""
    if pool is None or len(items) <= 1:
        return [fn(item) for item in items]
    return list(pool.map(fn, items))


def complete_all(
    backend: Backend, prompts: Iterable[tuple[str, str]], pool: Executor | None
) -> Iterator[str]:
    """The reply to each (system, user) prompt, in order.  Only the
    ``backend.complete`` calls go through the pool; prompts are drawn on the
    calling thread, REQUEST_BATCH at a time, so no more than that many are
    held at once."""
    prompts = iter(prompts)
    while batch := list(itertools.islice(prompts, REQUEST_BATCH)):
        yield from (reply for reply, _ in pool_map(lambda p: backend.complete(*p), batch, pool))

