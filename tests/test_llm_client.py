import gc
import json
import os
import random
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

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
    backend_calls,
    complete_all,
    mock_multilabel,
    request_pool,
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
    assert backend.complete("s", "this movie is terrible") == "<label>negative</label>"
    assert backend.calls == 1


def test_mock_chat_multi_when_prompt_asks_comma_separated():
    rule = MockRule(
        {"terrible": frozenset({"negative"}), "great": frozenset({"positive"})},
        default="neutral",
    )
    backend = MockBackend(rule, SST5)
    reply = backend.complete("s", "terrible but great; reply comma-separated")
    assert reply == "<label>negative,positive</label>"


def test_mock_is_referentially_transparent():
    rule = MockRule({"x": frozenset({"positive"})}, default="neutral")
    backend = MockBackend(rule, SST5)
    assert backend.complete("s", "x marks") == backend.complete("s", "x marks")


# --------------------------------------------------------------------------
# HTTP backend against a local scripted server
# --------------------------------------------------------------------------


_OK = {"choices": [{"message": {"content": "<label>ok</label>"}}]}


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Replies with the script's next (status, payload[, headers]) entry, or
    with answer(request body) once the script is empty.  A bytes payload is
    sent as it is, any other as JSON."""

    script: list = []
    seen: list = []
    delay: float = 0.0
    answer = staticmethod(lambda body: (200, _OK))

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
            type(self).script.pop(0) if type(self).script else type(self).answer(body)
        )
        encoded = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
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
    _ScriptedHandler.answer = staticmethod(lambda body: (200, _OK))
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
    assert backend.complete("sys prompt", "user prompt") == "<label>ok</label>"
    assert len(handler.seen) == 1
    request = handler.seen[0]
    assert request["path"] == "/chat/completions"
    assert request["auth"] == "Bearer sekrit"
    assert request["body"]["model"] == "test-model"
    assert request["body"]["temperature"] == 0.0
    assert [m["role"] for m in request["body"]["messages"]] == ["system", "user"]
    assert request["body"]["messages"][0]["content"] == "sys prompt"


def test_http_backend_counts_its_calls(server):
    base_url, _ = server
    with HttpBackend(_config(base_url)) as backend:
        backend.complete("s", "u1")
        backend.complete("s", "u2")
        assert backend_calls(backend) == 2
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with request_pool(8) as pool:
                list(complete_all(backend, [("s", f"u{i}") for i in range(16)], pool))
        finally:
            sys.setswitchinterval(switch)
        assert backend_calls(backend) == 18


def test_http_retries_5xx_then_succeeds(server):
    base_url, handler = server
    handler.script = [
        (500, {"error": "boom"}),
        (503, {"error": "boom"}),
        (200, {"choices": [{"message": {"content": "recovered"}}]}),
    ]
    backend = HttpBackend(_config(base_url))
    assert backend.complete("s", "u") == "recovered"
    assert len(handler.seen) == 3


def test_http_retries_429_then_succeeds(server):
    base_url, handler = server
    handler.script = [
        (429, {"error": "slow down"}),
        (200, {"choices": [{"message": {"content": "recovered"}}]}),
    ]
    backend = HttpBackend(_config(base_url))
    assert backend.complete("s", "u") == "recovered"
    assert len(handler.seen) == 2


def test_http_retry_after_replaces_the_backoff(server, monkeypatch):
    # A numeric Retry-After sets the sleep, capped by the timeout (5 s); a
    # date or a missing header leaves the jittered exponential backoff.
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
    backend.jitter.seed(5)
    assert backend.complete("s", "u") == "recovered"
    assert len(handler.seen) == 5
    replay = random.Random(5)
    assert slept == [2.0, 5.0, replay.uniform(0, 1.0), replay.uniform(0, 2.0)]


def test_http_backoff_is_fully_jittered(server, monkeypatch):
    # Retry n sleeps uniform(0, backoff_base * 2**(n-1)), drawn from the
    # backend's own generator, so clients that fail together do not retry
    # together.
    import marginsel.llm_client as llm_client

    slept = []
    monkeypatch.setattr(llm_client.time, "sleep", slept.append)
    base_url, handler = server
    handler.script = [(500, {})] * 4 + [(200, {"choices": [{"message": {"content": "ok"}}]})]
    config = _config(base_url, backoff_base=0.5, max_retries=4)
    with HttpBackend(config) as backend, HttpBackend(config) as other:
        backend.jitter.seed(11)
        assert backend.complete("s", "u") == "ok"
        assert len(handler.seen) == 5
        assert other.jitter.random() != backend.jitter.random()
    replay = random.Random(11)
    assert slept == [replay.uniform(0, 0.5 * 2**n) for n in range(4)]


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


_MALFORMED = {
    "not-json": b"<html>502 Bad Gateway</html>",
    "null-content": {"choices": [{"message": {"content": None}}]},
    "numeric-content": {"choices": [{"message": {"content": 5}}]},
}


@pytest.mark.parametrize("body", _MALFORMED.values(), ids=list(_MALFORMED))
def test_http_malformed_200_is_a_transport_error_and_not_retried(server, body):
    base_url, handler = server
    handler.script = [(200, body)]
    with HttpBackend(_config(base_url)) as backend:
        with pytest.raises(Transport, match="malformed completion body"):
            backend.complete("s", "u")
    assert len(handler.seen) == 1


@pytest.mark.parametrize("body", _MALFORMED.values(), ids=list(_MALFORMED))
def test_eval_reports_the_cells_a_malformed_reply_fails(server, tmp_path, capsys, body):
    # Step-1 replies are malformed and final replies are not: the marginsel
    # cells fail, the others score, report.json is written and eval exits 3.
    from test_cli import make_workspace

    base_url, handler = server
    handler.answer = lambda request: (
        (200, body) if "comma-separated" in request["messages"][1]["content"] else (200, _OK))
    config_path = make_workspace(tmp_path)
    assert main(["--config", str(config_path), "assign"]) == 0  # the mock backend
    capsys.readouterr()
    http = ["--set", 'backend.type="http"', "--set", f'backend.base_url="{base_url}"']
    assert main(["--config", str(config_path), *http, "eval"]) == 3
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    cells = json.loads((tmp_path / "runs" / "report.json").read_text())["cells"]
    failed = [c for c in cells if "error" in c]
    assert [c["method"] for c in failed] == ["marginsel(alpha=1)"] * 2
    assert all(c["error"].startswith("malformed completion body") for c in failed)
    assert all("macro_f1" in c for c in cells if "error" not in c) and len(cells) == 6
    assert out.count("FAILED cell marginsel(alpha=1)") == 2


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


def test_every_backend_complete_returns_a_str(server, tmp_path):
    # The backend contract is complete(system, user) -> reply: a backend that
    # returns anything else fails here, not in a parse downstream.
    base_url, _ = server
    rule = MockRule({"x": frozenset({"positive"})}, default="neutral")
    cache = CachedBackend(MockBackend(rule, SST5), tmp_path)
    with HttpBackend(_config(base_url)) as http:
        replies = {
            "mock": MockBackend(rule, SST5).complete("s", "x"),
            "cache miss": cache.complete("s", "x"),
            "cache hit": cache.complete("s", "x"),
            "http": http.complete("s", "u"),
        }
    assert (cache.hits, cache.misses) == (1, 1)
    assert {name: type(reply) for name, reply in replies.items()} == dict.fromkeys(replies, str)


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
    first = backend.complete("s", "x please")
    assert (backend.hits, backend.misses) == (0, 1)
    second = backend.complete("s", "x please")
    assert first == second
    assert (backend.hits, backend.misses) == (1, 1)
    assert inner.calls == 1
    assert backend.hits == 1 and backend.misses == 1


def test_a_read_only_cache_serves_a_warm_rerun(tmp_path, monkeypatch):
    rule = MockRule({"x": frozenset({"positive"})}, default="neutral")
    prompts = [("s", f"x {i}") for i in range(5)] + [("s", "plain")]
    first = CachedBackend(MockBackend(rule, SST5), tmp_path)
    replies = [first.complete(*p) for p in prompts]
    real_open = open

    def read_only(file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+"):
            raise PermissionError(f"read-only: {file}")
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", read_only)
    inner = MockBackend(rule, SST5)
    rerun = CachedBackend(inner, tmp_path)
    assert [rerun.complete(*p) for p in prompts] == replies
    assert inner.calls == 0 and rerun.hits == len(prompts) and rerun.misses == 0


def test_a_miss_opens_the_cache_file_once(tmp_path, monkeypatch):
    rule = MockRule({"x": frozenset({"positive"})}, default="neutral")
    cache = CachedBackend(MockBackend(rule, SST5), tmp_path)
    cache.complete("s", "x first")
    opened = []
    real_open = open

    def counting(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting)
    cache.complete("s", "x second")
    assert opened == [tmp_path / "responses.jsonl"]
    assert cache.misses == 2


def test_cache_key_distinguishes_inputs(tmp_path):
    rule = MockRule({"x": frozenset({"positive"})}, default="neutral")
    backend = CachedBackend(MockBackend(rule, SST5), tmp_path)
    backend.complete("s", "x one")
    backend.complete("s", "x two")
    assert backend.misses == 2
    lines = (tmp_path / "responses.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        assert set(json.loads(line)) == {"model", "temperature", "system", "user", "reply"}


def test_cache_survives_backend_swap(tmp_path, server):
    # Same (model, system, user, temperature) key: HTTP replies read back
    # without any request on the second pass.
    base_url, handler = server
    handler.script = [(200, {"choices": [{"message": {"content": "first"}}]})]
    cached = CachedBackend(HttpBackend(_config(base_url)), tmp_path)
    assert cached.complete("s", "u") == "first"
    assert cached.complete("s", "u") == "first"
    assert len(handler.seen) == 1


def test_cache_counters_lose_no_update_under_threads(tmp_path):
    rule = MockRule({"x": frozenset({"positive"})}, default="neutral")
    backend = CachedBackend(MockBackend(rule, SST5), tmp_path)
    prompts = [f"x {i % 20}" for i in range(1600)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with request_pool(8) as pool:
            list(complete_all(backend, [("s", user) for user in prompts], pool))
    finally:
        sys.setswitchinterval(interval)
    assert backend.hits + backend.misses == len(prompts)
    assert backend.misses >= 20


_WRITER = """
import sys, time
from marginsel.core import LabelSpace
from marginsel.llm_client import CachedBackend, MockBackend, MockRule, complete_all, request_pool
space = LabelSpace(["very negative", "negative", "neutral", "positive", "very positive"])
rule = MockRule({"x": frozenset({"positive"})}, default="neutral")
cache = CachedBackend(MockBackend(rule, space), sys.argv[1])
first, count, start_at = int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
time.sleep(max(0.0, start_at - time.time()))
with request_pool(4) as pool:
    list(complete_all(cache, [("s", f"x {i} " + "pad " * 1000 * (i % 4))
                              for i in range(first, first + count)], pool))
print(cache.misses)
"""


def _write_from_processes(cache_dir, firsts, count):
    """Run one writer process per entry of firsts, each completing prompts
    first .. first + count - 1 through its own cache over cache_dir at four
    in flight, all starting at once.  Returns each process's misses."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    start_at = str(time.time() + 2.0)  # after every process has imported
    procs = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(cache_dir), str(first),
                          str(count), start_at], stdout=subprocess.PIPE, env=env)
        for first in firsts
    ]
    outs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * len(procs)
    return [int(out) for out in outs]


def _prompt(i):
    return f"x {i} " + "pad " * 1000 * (i % 4)


def test_two_processes_share_one_cache(tmp_path):
    # Overlapping prompts, some lines longer than a write buffer: every line
    # a process appended is there whole, and a fresh cache answers them all.
    misses = _write_from_processes(tmp_path, [0, 150], 300)
    lines = (tmp_path / "responses.jsonl").read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == sum(misses) >= 450
    users = set()
    for line in lines:
        entry = json.loads(line)
        assert set(entry) == {"model", "temperature", "system", "user", "reply"}
        users.add(entry["user"])
    assert users == {_prompt(i) for i in range(450)}
    inner = MockBackend(MockRule({"x": frozenset({"positive"})}, default="neutral"), SST5)
    fresh = CachedBackend(inner, tmp_path)
    for i in range(450):
        assert fresh.complete("s", _prompt(i)) == "<label>positive</label>"
    assert inner.calls == 0 and (fresh.hits, fresh.misses) == (450, 0)


def test_a_miss_picks_up_what_another_process_appended(tmp_path):
    inner = MockBackend(MockRule({"x": frozenset({"positive"})}, default="neutral"), SST5)
    cache = CachedBackend(inner, tmp_path)  # indexed while the file is empty
    assert _write_from_processes(tmp_path, [0], 5) == [5]
    assert len((tmp_path / "responses.jsonl").read_bytes().splitlines()) == 5
    for i in range(5):
        assert cache.complete("s", _prompt(i)) == "<label>positive</label>"
    assert (inner.calls, cache.hits, cache.misses) == (0, 5, 0)
    # A line another writer has not finished when the cache reads it is read
    # once it is whole.
    late = json.dumps({"model": inner.model_name, "temperature": 0.0, "system": "s",
                       "user": "x late", "reply": "<label>neutral</label>"}).encode() + b"\n"
    with open(tmp_path / "responses.jsonl", "ab") as fh:
        fh.write(late[:40])
    cache = CachedBackend(inner, tmp_path)
    with open(tmp_path / "responses.jsonl", "ab") as fh:
        fh.write(late[40:])
    assert cache.complete("s", "x late") == "<label>neutral</label>"
    assert inner.calls == 0 and (cache.hits, cache.misses) == (1, 0)


def test_a_torn_last_line_is_skipped(tmp_path):
    inner = MockBackend(MockRule({"x": frozenset({"positive"})}, default="neutral"), SST5)
    cache = CachedBackend(inner, tmp_path)
    cache.complete("s", "x kept")
    cache.complete("s", "x torn")
    path = tmp_path / "responses.jsonl"
    path.write_bytes(path.read_bytes()[:-30])  # its writer was killed mid-line
    cache = CachedBackend(inner, tmp_path)
    cache.complete("s", "x kept")
    assert (cache.hits, cache.misses) == (1, 0)
    cache.complete("s", "x torn")
    assert (cache.hits, cache.misses) == (1, 1)
    cache.complete("s", "x new")
    assert (cache.hits, cache.misses) == (1, 2)
    lines = path.read_bytes().split(b"\n")
    assert len(lines) == 5 and lines[-1] == b""
    assert [json.loads(line)["user"] for line in lines[2:4]] == ["x torn", "x new"]
    calls = inner.calls
    fresh = CachedBackend(inner, tmp_path)
    for user in ("x kept", "x torn", "x new"):
        fresh.complete("s", user)
    assert (fresh.hits, fresh.misses) == (3, 0)
    assert inner.calls == calls


@pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)
def test_http_sessions_are_closed(server, tmp_path, monkeypatch):
    # Every session the backend opens is closed: by its context manager and
    # by a CLI command.  Any socket left to the garbage collector (the test
    # server's included) warns, which fails the test.
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
    base_url, _ = server
    with HttpBackend(_config(base_url)) as backend:
        assert backend.complete("s", "u") == "<label>ok</label>"
    config_path = make_workspace(tmp_path)
    http = ["--set", 'backend.type="http"', "--set", f'backend.base_url="{base_url}"']
    assert main(["--config", str(config_path), *http, "assign"]) == 0
    assert len(sessions) == 2 and all(s.closed for s in sessions)
    del backend
    gc.collect()
