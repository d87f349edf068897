import gc
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from marginsel.cli import main
from marginsel.core import LabelSpace
from marginsel.llm_client import (
    AuthMissing,
    BackendConfig,
    CachedBackend,
    HttpBackend,
    MockBackend,
    MockRule,
    Timeout,
    Transport,
    map_concurrently,
    mock_multilabel,
)

SST5 = LabelSpace(["very negative", "negative", "neutral", "positive", "very positive"])


# --------------------------------------------------------------------------
# Mock backend
# --------------------------------------------------------------------------


def test_mock_rule_canonicalizes_and_validates():
    rule = MockRule({"  SAD ": frozenset({"Negative"})}, default="Neutral")
    assert rule.keywords == {"sad": frozenset({"negative"})}
    assert rule.default == "neutral"
    rule.validate(SST5)
    bad = MockRule({"x": frozenset({"nonexistent"})}, default="neutral")
    with pytest.raises(ValueError):
        bad.validate(SST5)


def test_mock_multilabel_union():
    rule = MockRule(
        {"sad": frozenset({"negative"}), "angry": frozenset({"very negative"})},
        default="neutral",
    )
    cs = mock_multilabel(rule, "sad and angry", SST5)
    assert set(cs.labels_in(SST5)) == {"negative", "very negative"}


def test_mock_multilabel_default_and_purity():
    rule = MockRule({"sad": frozenset({"negative"})}, default="neutral")
    assert mock_multilabel(rule, "nothing matches", SST5).labels_in(SST5) == ("neutral",)
    a = mock_multilabel(rule, "sad text", SST5)
    b = mock_multilabel(rule, "sad text", SST5)
    assert a == b


def test_mock_chat_reply_single_label():
    rule = MockRule({"terrible": frozenset({"negative"})}, default="neutral")
    backend = MockBackend(rule, SST5)
    reply, attempts = backend.complete("s", "this movie is terrible")
    assert reply == "<label>negative</label>"
    assert attempts == 1


def test_mock_chat_multi_when_prompt_asks_comma_separated():
    rule = MockRule(
        {"terrible": frozenset({"negative"}), "great": frozenset({"positive"})},
        default="neutral",
    )
    backend = MockBackend(rule, SST5)
    reply, _ = backend.complete("s", "terrible but great; reply comma-separated")
    assert reply == "<label>negative,positive</label>"


def test_mock_is_referentially_transparent():
    rule = MockRule({"x": frozenset({"positive"})}, default="neutral")
    backend = MockBackend(rule, SST5)
    assert backend.complete("s", "x marks") == backend.complete("s", "x marks")


# --------------------------------------------------------------------------
# HTTP backend against a local scripted server
# --------------------------------------------------------------------------


class _ScriptedHandler(BaseHTTPRequestHandler):
    script: list = []
    seen: list = []
    delay: float = 0.0

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).seen.append(
            {
                "path": self.path,
                "body": body,
                "auth": self.headers.get("Authorization"),
            }
        )
        if type(self).delay:
            time.sleep(type(self).delay)
        status, payload, *headers = (
            type(self).script.pop(0)
            if type(self).script
            else (200, {"choices": [{"message": {"content": "<label>ok</label>"}}]})
        )
        encoded = json.dumps(payload).encode()
        try:
            self.send_response(status)
            for name, value in (headers[0] if headers else {}).items():
                self.send_header(name, value)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up (timeout tests)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    _ScriptedHandler.script = []
    _ScriptedHandler.seen = []
    _ScriptedHandler.delay = 0.0
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}", _ScriptedHandler
    httpd.shutdown()
    httpd.server_close()


def _config(base_url, **kw):
    defaults = dict(
        base_url=base_url,
        model_name="test-model",
        max_retries=3,
        timeout=5.0,
        backoff_base=0.0,
    )
    defaults.update(kw)
    return BackendConfig(**defaults)


def test_http_success_sends_expected_shape(server, monkeypatch):
    base_url, handler = server
    monkeypatch.setenv("TEST_API_KEY", "sekrit")
    backend = HttpBackend(_config(base_url, api_key_env="TEST_API_KEY"))
    reply, attempts = backend.complete("sys prompt", "user prompt")
    assert reply == "<label>ok</label>"
    assert attempts == 1
    request = handler.seen[0]
    assert request["path"] == "/chat/completions"
    assert request["auth"] == "Bearer sekrit"
    assert request["body"]["model"] == "test-model"
    assert request["body"]["temperature"] == 0.0
    assert [m["role"] for m in request["body"]["messages"]] == ["system", "user"]
    assert request["body"]["messages"][0]["content"] == "sys prompt"


def test_http_retries_5xx_then_succeeds(server):
    base_url, handler = server
    handler.script = [
        (500, {"error": "boom"}),
        (503, {"error": "boom"}),
        (200, {"choices": [{"message": {"content": "recovered"}}]}),
    ]
    backend = HttpBackend(_config(base_url))
    reply, attempts = backend.complete("s", "u")
    assert reply == "recovered"
    assert attempts == 3


def test_http_retries_429_then_succeeds(server):
    base_url, handler = server
    handler.script = [
        (429, {"error": "slow down"}),
        (200, {"choices": [{"message": {"content": "recovered"}}]}),
    ]
    backend = HttpBackend(_config(base_url))
    reply, attempts = backend.complete("s", "u")
    assert reply == "recovered"
    assert attempts == 2


def test_http_retry_after_replaces_the_backoff(server, monkeypatch):
    # A numeric Retry-After sets the sleep, capped by the timeout (5 s); a
    # date or a missing header leaves the exponential backoff.
    import marginsel.llm_client as llm_client

    slept = []
    monkeypatch.setattr(llm_client.time, "sleep", slept.append)
    base_url, handler = server
    handler.script = [
        (429, {}, {"Retry-After": "2"}),
        (503, {}, {"Retry-After": "120"}),
        (429, {}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
        (500, {}),
        (200, {"choices": [{"message": {"content": "recovered"}}]}),
    ]
    backend = HttpBackend(_config(base_url, backoff_base=0.25, max_retries=4))
    reply, attempts = backend.complete("s", "u")
    assert reply == "recovered"
    assert attempts == 5
    assert slept == [2.0, 5.0, 1.0, 2.0]


def test_http_never_retries_4xx(server):
    base_url, handler = server
    handler.script = [(404, {"error": "nope"})]
    backend = HttpBackend(_config(base_url))
    with pytest.raises(Transport) as err:
        backend.complete("s", "u")
    assert err.value.status == 404
    assert len(handler.seen) == 1


def test_http_exhausts_retries(server):
    base_url, handler = server
    handler.script = [(500, {}), (500, {}), (500, {})]
    backend = HttpBackend(_config(base_url, max_retries=2))
    with pytest.raises(Transport):
        backend.complete("s", "u")
    assert len(handler.seen) == 3


def test_http_timeout(server):
    base_url, handler = server
    handler.delay = 0.5
    backend = HttpBackend(_config(base_url, timeout=0.1, max_retries=0))
    with pytest.raises(Timeout):
        backend.complete("s", "u")


def test_http_connect_error_retries_then_raises():
    backend = HttpBackend(
        _config("http://127.0.0.1:1", max_retries=1)  # nothing listens on port 1
    )
    with pytest.raises(Transport):
        backend.complete("s", "u")


def test_auth_missing(server, monkeypatch):
    base_url, _ = server
    monkeypatch.delenv("UNSET_KEY_VAR", raising=False)
    backend = HttpBackend(_config(base_url, api_key_env="UNSET_KEY_VAR"))
    with pytest.raises(AuthMissing):
        backend.complete("s", "u")


def test_embeddings_endpoint(server):
    base_url, handler = server
    handler.script = [(200, {"data": [{"embedding": [0.5, -1.0, 2.0]}]})]
    backend = HttpBackend(_config(base_url))
    assert backend.embed("some text") == [0.5, -1.0, 2.0]
    assert handler.seen[0]["path"] == "/embeddings"
    assert handler.seen[0]["body"] == {"model": "test-model", "input": "some text"}


def test_backend_config_bounds():
    with pytest.raises(ValueError):
        BackendConfig(max_retries=11)
    with pytest.raises(ValueError):
        BackendConfig(temperature=-0.5)


# --------------------------------------------------------------------------
# Response cache
# --------------------------------------------------------------------------


def test_cache_second_call_is_free(tmp_path):
    rule = MockRule({"x": frozenset({"positive"})}, default="neutral")
    inner = MockBackend(rule, SST5)
    backend = CachedBackend(inner, tmp_path / "cache")
    first, _ = backend.complete("s", "x please")
    second, attempts = backend.complete("s", "x please")
    assert first == second
    assert attempts == 0
    assert inner.calls == 1
    assert backend.hits == 1 and backend.misses == 1


def test_cache_key_distinguishes_inputs(tmp_path):
    rule = MockRule({"x": frozenset({"positive"})}, default="neutral")
    backend = CachedBackend(MockBackend(rule, SST5), tmp_path)
    backend.complete("s", "x one")
    backend.complete("s", "x two")
    assert backend.misses == 2
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 2
    record = json.loads(files[0].read_text())
    assert set(record) == {"model", "temperature", "system", "user", "reply"}


def test_cache_survives_backend_swap(tmp_path, server):
    # Same (model, system, user, temperature) key: HTTP replies read back
    # without any request on the second pass.
    base_url, handler = server
    handler.script = [(200, {"choices": [{"message": {"content": "first"}}]})]
    cached = CachedBackend(HttpBackend(_config(base_url)), tmp_path)
    assert cached.complete("s", "u")[0] == "first"
    assert cached.complete("s", "u")[0] == "first"
    assert len(handler.seen) == 1


def test_cache_counters_lose_no_update_under_threads(tmp_path):
    rule = MockRule({"x": frozenset({"positive"})}, default="neutral")
    backend = CachedBackend(MockBackend(rule, SST5), tmp_path)
    prompts = [f"x {i % 20}" for i in range(1600)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        map_concurrently(lambda user: backend.complete("s", user), prompts, 8)
    finally:
        sys.setswitchinterval(interval)
    assert backend.hits + backend.misses == len(prompts)
    assert backend.misses >= 20


@pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)
def test_http_sessions_are_closed(server, tmp_path, monkeypatch):
    # Every session the backend opens is closed: by its context manager, by
    # fetch_embeddings, and by a CLI command.  Any socket left to the garbage
    # collector (the test server's included) warns, which fails the test.
    from marginsel.knn import fetch_embeddings
    from test_cli import make_workspace

    sessions = []

    class Session(requests.Session):
        closed = False

        def __init__(self):
            super().__init__()
            sessions.append(self)

        def close(self):
            self.closed = True
            super().close()

    monkeypatch.setattr(requests, "Session", Session)
    base_url, handler = server
    with HttpBackend(_config(base_url)) as backend:
        assert backend.complete("s", "u")[0] == "<label>ok</label>"
    handler.script = [(200, {"data": [{"embedding": [0.5, 1.0]}]})]
    assert fetch_embeddings(_config(base_url), [("a", "text")]).dimension == 2
    config_path = make_workspace(tmp_path)
    http = ["--set", 'backend.type="http"', "--set", f'backend.base_url="{base_url}"']
    assert main(["--config", str(config_path), *http, "assign"]) == 0
    assert len(sessions) == 3 and all(s.closed for s in sessions)
    del backend
    gc.collect()
