"""Pluggable chat-completion backends: an HTTP client for real model
endpoints and a deterministic keyword mock for tests and dry runs.

Backends expose ``complete(system, user) -> (reply, attempts)``.  The HTTP
backend posts the standard chat-completion JSON body to
``{base_url}/chat/completions`` and retries transport failures, 429 and
5xx responses with exponential backoff, or after the reply's numeric
Retry-After (capped by the timeout); other 4xx responses are never retried.
Responses can be cached on disk keyed by hash(model, system, user,
temperature), so a rerun of an already-completed stage makes zero backend
calls.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol, Sequence, TypeVar

import requests

from .core import CandidateSet, LabelSpace, MarginSelError, candidate_set_from_labels, canonical_label

log = logging.getLogger(__name__)

T = TypeVar("T")
U = TypeVar("U")


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
    protocol.  Temperature defaults to 0 for reproducibility."""

    def __init__(self, config: BackendConfig):
        self.config = config
        self.model_name = config.model_name
        self.temperature = config.temperature
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
                time.sleep(backoff if retry_after is None else retry_after)
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
    """Disk cache around any backend.  One JSON file per request, named by
    the sha256 of (model, system, user, temperature); writes are serialized
    so concurrent requests cannot interleave.  An entry that cannot be read
    or parsed counts as a miss and is rewritten."""

    def __init__(self, backend: Backend, cache_dir: str | Path):
        self.backend = backend
        self.model_name = backend.model_name
        self.temperature = backend.temperature
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def _key(self, system: str, user: str) -> Path:
        digest = hashlib.sha256(
            "\x1f".join(
                [self.model_name, system, user, repr(self.temperature)]
            ).encode("utf-8")
        ).hexdigest()
        return self.cache_dir / f"{digest}.json"

    def complete(self, system: str, user: str) -> tuple[str, int]:
        path = self._key(system, user)
        with self._lock:
            try:
                reply = json.loads(path.read_text(encoding="utf-8"))["reply"]
            except FileNotFoundError:
                reply = None
            except (OSError, ValueError, KeyError, TypeError) as exc:
                log.warning("unreadable cache entry %s, asking again: %s", path.name, exc)
                reply = None
            if isinstance(reply, str):
                self.hits += 1
                return reply, 0
        reply, attempts = self.backend.complete(system, user)
        with self._lock:
            tmp = path.with_suffix(".tmp")
            tmp.write_text(
                json.dumps(
                    {
                        "model": self.model_name,
                        "temperature": self.temperature,
                        "system": system,
                        "user": user,
                        "reply": reply,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                ),
                encoding="utf-8",
            )
            tmp.replace(path)
            self.misses += 1
        return reply, attempts


def backend_calls(backend: Backend) -> int:
    """Number of non-cache invocations a backend has made, where knowable."""
    if isinstance(backend, CachedBackend):
        return backend.misses
    return getattr(backend, "calls", 0)


def map_concurrently(
    fn: Callable[[T], U], items: Sequence[T], max_in_flight: int
) -> list[U]:
    """Apply fn to every item with a bounded number in flight, preserving
    input order.  The first exception propagates."""
    if max_in_flight <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(fn, items))
