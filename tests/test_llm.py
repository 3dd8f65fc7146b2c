"""Providers: scripted stub behavior and the HTTP client's retry contract."""

import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import dsmseq
from dsmseq import (
    ChatRequest,
    OpenAIChatProvider,
    ProviderConfig,
    ProviderError,
    ScriptedProvider,
)
from dsmseq.llm import _urllib_transport

KEY = "sk-test-SECRET-0123456789"


def request(prompt="hello"):
    return ChatRequest.single_turn("test-model", prompt)


def ok_body(text):
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": 5, "completion_tokens": 7},
    }


class FakeTransport:
    """Feeds a scripted list of (status, body) pairs; records calls."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, url, headers, body, timeout):
        self.calls.append({"url": url, "headers": headers, "body": body, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def provider_with(outcomes, **config_overrides):
    config = ProviderConfig(
        endpoint="https://llm.example/v1",
        api_key=KEY,
        model="test-model",
        backoff=0.01,
        **config_overrides,
    )
    transport = FakeTransport(outcomes)
    sleeps = []
    provider = OpenAIChatProvider(config, transport=transport, sleep=sleeps.append)
    return provider, transport, sleeps


class TestScriptedStub:
    def test_replays_in_order(self):
        stub = ScriptedProvider(["<order> a,b </order>", "second"])
        assert stub.complete(request()).text == "<order> a,b </order>"
        assert stub.complete(request()).text == "second"

    def test_exhaustion(self):
        stub = ScriptedProvider(["only"])
        stub.complete(request())
        with pytest.raises(ProviderError, match="script exhausted") as info:
            stub.complete(request())
        assert info.value.kind == "script-exhausted"

    def test_empty_script_fails_immediately(self):
        stub = ScriptedProvider([])
        with pytest.raises(ProviderError, match="script exhausted"):
            stub.complete(request())

    def test_records_prompts(self):
        stub = ScriptedProvider(["x", "y"])
        stub.complete(request("first prompt"))
        stub.complete(request("second prompt"))
        assert stub.prompts == ["first prompt", "second prompt"]

    def test_two_stubs_do_not_crosstalk(self):
        a = ScriptedProvider(["from-a"])
        b = ScriptedProvider(["from-b"])
        assert a.complete(request("pa")).text == "from-a"
        assert b.complete(request("pb")).text == "from-b"
        assert a.prompts == ["pa"]
        assert b.prompts == ["pb"]

    def test_renamed_rewrites_ids_inside_the_order_span(self):
        stub = ScriptedProvider([
            "try <ORDER> a,  b ,zz </order> not a, b",  # zz is unknown and stays
            "no tags: a, b",
        ])
        renamed = stub.renamed({"a": "x1", "b": "y2"})
        assert renamed.complete(request()).text == "try <ORDER> x1,  y2 ,zz </order> not a, b"
        assert renamed.complete(request()).text == "no tags: a, b"
        # the copy records into the original's list, so a caller holding the
        # original sees what its copy was asked
        assert renamed.prompts is stub.prompts
        assert stub.prompts == ["hello", "hello"]
        # the original's replies are untouched and it still replays from its first
        assert stub.complete(request()).text == "try <ORDER> a,  b ,zz </order> not a, b"


class TestHttpProvider:
    def test_success_first_try(self):
        provider, transport, sleeps = provider_with([(200, ok_body("hi"))])
        result = provider.complete(request())
        assert result.text == "hi"
        assert result.retries == 0
        assert result.usage["completion_tokens"] == 7
        assert transport.calls[0]["url"].endswith("/chat/completions")
        assert transport.calls[0]["body"]["model"] == "test-model"
        assert sleeps == []

    def test_retries_on_429_then_succeeds(self):
        provider, transport, sleeps = provider_with(
            [(429, {}), (429, {}), (200, ok_body("ok"))]
        )
        result = provider.complete(request())
        assert result.text == "ok"
        assert result.retries == 2
        assert len(transport.calls) == 3
        assert sleeps == [0.01, 0.02]  # exponential backoff

    def test_retries_on_transport_exception(self):
        provider, _, _ = provider_with(
            [ConnectionError("boom"), (200, ok_body("ok"))]
        )
        assert provider.complete(request()).text == "ok"

    def test_gives_up_after_max_retries(self):
        provider, transport, _ = provider_with([(503, {})] * 4, max_retries=3)
        with pytest.raises(ProviderError, match="gave up") as info:
            provider.complete(request())
        assert info.value.kind == "transport"
        assert len(transport.calls) == 4

    def test_auth_failure_not_retried(self):
        provider, transport, _ = provider_with([(401, {})])
        with pytest.raises(ProviderError) as info:
            provider.complete(request())
        assert info.value.kind == "auth"
        assert len(transport.calls) == 1

    def test_other_4xx_is_protocol_error(self):
        provider, _, _ = provider_with([(404, {})])
        with pytest.raises(ProviderError) as info:
            provider.complete(request())
        assert info.value.kind == "protocol"

    def test_malformed_body(self):
        provider, _, _ = provider_with([(200, {"weird": True})])
        with pytest.raises(ProviderError) as info:
            provider.complete(request())
        assert info.value.kind == "malformed"

    def test_missing_key_rejected_upfront(self):
        with pytest.raises(ProviderError, match="API key"):
            OpenAIChatProvider(ProviderConfig(api_key="", model="m"))


class TestSecretHandling:
    def test_errors_and_reprs_never_leak_the_key(self):
        provider, _, _ = provider_with([(401, {})])
        leaks = []
        try:
            provider.complete(request())
        except ProviderError as exc:
            leaks.append(str(exc))
        leaks.append(repr(provider.config))
        leaks.append(str(provider.config))
        for text in leaks:
            assert KEY not in text

    def test_transport_failure_message_clean(self):
        provider, _, _ = provider_with([(503, {})] * 4, max_retries=3)
        with pytest.raises(ProviderError) as info:
            provider.complete(request())
        assert KEY not in str(info.value)


class TestRateLimiter:
    def test_waits_when_bucket_empty(self):
        clock_state = {"now": 0.0}
        sleeps = []

        def clock():
            return clock_state["now"]

        def sleep(duration):
            sleeps.append(duration)
            clock_state["now"] += duration

        config = ProviderConfig(
            api_key=KEY, model="m", requests_per_minute=60.0, backoff=0.01
        )
        transport = FakeTransport([(200, ok_body("a")), (200, ok_body("b")), (200, ok_body("c"))])
        provider = OpenAIChatProvider(config, transport=transport, sleep=sleep, clock=clock)
        provider.complete(request())
        provider.complete(request())
        provider.complete(request())
        # 60/min = 1 token/s, bucket starts full (60): three quick calls fit
        assert sleeps == []

    def test_small_budget_forces_waits(self):
        clock_state = {"now": 0.0}
        sleeps = []

        def clock():
            return clock_state["now"]

        def sleep(duration):
            sleeps.append(duration)
            clock_state["now"] += duration

        config = ProviderConfig(api_key=KEY, model="m", requests_per_minute=2.0)
        transport = FakeTransport([(200, ok_body(str(i))) for i in range(4)])
        provider = OpenAIChatProvider(config, transport=transport, sleep=sleep, clock=clock)
        for _ in range(4):
            provider.complete(request())
        # capacity 2: the third and fourth calls must wait for refill
        assert len(sleeps) >= 2
        assert all(duration > 0 for duration in sleeps)

    @pytest.mark.parametrize("rate", [0, 0.5, -1.0, float("nan")])
    def test_rate_below_one_rejected(self, rate):
        # a bucket holding under one token would never grant a call
        with pytest.raises(ValueError, match="requests_per_minute"):
            ProviderConfig(api_key=KEY, model="m", requests_per_minute=rate)

    def test_one_per_minute_grants_the_first_call_at_once(self):
        clock_state = {"now": 0.0}
        sleeps = []

        def clock():
            return clock_state["now"]

        def sleep(duration):
            sleeps.append(duration)
            clock_state["now"] += duration

        config = ProviderConfig(api_key=KEY, model="m", requests_per_minute=1)
        transport = FakeTransport([(200, ok_body("a")), (200, ok_body("b"))])
        provider = OpenAIChatProvider(config, transport=transport, sleep=sleep, clock=clock)
        provider.complete(request())
        assert sleeps == []
        provider.complete(request())
        # the second call waits one minute for the single token to refill
        assert sum(sleeps) == pytest.approx(60.0)


class TestProviderConfigChecks:
    @pytest.mark.parametrize("endpoint", ["api.example.com/v1", "ftp://example.com/v1", ""])
    def test_endpoint_needs_http_scheme(self, endpoint):
        with pytest.raises(ValueError, match="endpoint must start with http:// or https://"):
            ProviderConfig(endpoint=endpoint, api_key=KEY, model="m")

    @pytest.mark.parametrize("endpoint", ["http://127.0.0.1:8000/v1", "HTTPS://llm.example/v1"])
    def test_http_endpoints_accepted(self, endpoint):
        assert ProviderConfig(endpoint=endpoint, api_key=KEY, model="m").endpoint == endpoint

    @pytest.mark.parametrize("backoff", [-0.5, float("nan")])
    def test_negative_backoff_rejected(self, backoff):
        with pytest.raises(ValueError, match="backoff must be >= 0"):
            ProviderConfig(api_key=KEY, model="m", backoff=backoff)

    def test_zero_backoff_accepted(self):
        assert ProviderConfig(api_key=KEY, model="m", backoff=0).backoff == 0

    @pytest.mark.parametrize("max_retries", [2.5, True, "3"])
    def test_non_int_max_retries_rejected(self, max_retries):
        with pytest.raises(ValueError, match=f"max_retries must be an int, got {max_retries!r}"):
            ProviderConfig(api_key=KEY, model="m", max_retries=max_retries)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries must be >= 0"):
            ProviderConfig(api_key=KEY, model="m", max_retries=-1)


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each POST with the server's next (status, raw body) pair;
    a status of None writes the raw bytes with no HTTP status line."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        self.server.seen.append(
            {"path": self.path, "headers": dict(self.headers), "body": self.rfile.read(length)}
        )
        status, raw = self.server.replies.pop(0)
        if status is None:
            self.wfile.write(raw)
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, format, *args):  # keep test output quiet
        pass


@pytest.fixture()
def local_server():
    """An HTTP server on 127.0.0.1 in a thread of the test process."""
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.replies, server.seen = [], []
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join()
    server.server_close()


def live_provider(endpoint, max_retries=3):
    config = ProviderConfig(endpoint=endpoint, api_key=KEY, model="test-model",
                            timeout=10.0, max_retries=max_retries, backoff=0.5)
    sleeps = []
    return OpenAIChatProvider(config, sleep=sleeps.append), sleeps


class TestUrllibTransport:
    """The default transport against a real socket: statuses, bodies, refusals."""

    def endpoint(self, server):
        return f"http://127.0.0.1:{server.server_address[1]}/v1/"

    def test_success_with_usage(self, local_server):
        local_server.replies.append((200, json.dumps(ok_body("hi")).encode()))
        provider, sleeps = live_provider(self.endpoint(local_server))
        result = provider.complete(ChatRequest.single_turn("", "p"))
        assert result.text == "hi"
        assert result.usage == {"prompt_tokens": 5, "completion_tokens": 7}
        assert (result.retries, result.model, sleeps) == (0, "test-model", [])
        (seen,) = local_server.seen
        assert seen["path"] == "/v1/chat/completions"
        assert seen["headers"]["Authorization"] == f"Bearer {KEY}"
        assert seen["headers"]["Content-Type"] == "application/json"
        assert json.loads(seen["body"]) == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "p"}],
        }

    def test_429_then_success_is_one_retry(self, local_server):
        local_server.replies += [(429, b"{}"), (200, json.dumps(ok_body("ok")).encode())]
        provider, sleeps = live_provider(self.endpoint(local_server))
        result = provider.complete(request())
        assert (result.text, result.retries, sleeps) == ("ok", 1, [0.5])
        assert len(local_server.seen) == 2

    def test_401_is_auth_and_not_retried(self, local_server):
        local_server.replies.append((401, b'{"error": {"message": "bad key"}}'))
        provider, sleeps = live_provider(self.endpoint(local_server))
        with pytest.raises(ProviderError, match=r"HTTP 401") as info:
            provider.complete(request())
        assert info.value.kind == "auth"
        assert (len(local_server.seen), sleeps) == (1, [])

    def test_500_with_non_json_body(self, local_server):
        local_server.replies += [(500, b"<html>Internal Server Error</html>")] * 2
        provider, sleeps = live_provider(self.endpoint(local_server), max_retries=1)
        with pytest.raises(ProviderError, match="last failure: HTTP 500") as info:
            provider.complete(request())
        assert info.value.kind == "transport"
        assert (len(local_server.seen), sleeps) == (2, [0.5])

    def test_non_json_body_parses_to_empty(self, local_server):
        local_server.replies.append((500, b"not json"))
        url = self.endpoint(local_server) + "chat/completions"
        assert _urllib_transport(url, {}, {"a": 1}, 10.0) == (500, {})

    def test_bad_status_line_is_a_transport_error(self, local_server):
        # http.client raises BadStatusLine, an HTTPException but not an OSError
        local_server.replies += [(None, b"NOT HTTP\r\n\r\n")] * 2
        provider, _ = live_provider(self.endpoint(local_server), max_retries=1)
        with pytest.raises(ProviderError, match="transport error: BadStatusLine") as info:
            provider.complete(request())
        assert info.value.kind == "transport"

    def test_refused_port(self):
        with socket.socket() as probe:  # a port that was free a moment ago
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        provider, sleeps = live_provider(f"http://127.0.0.1:{port}/v1", max_retries=2)
        with pytest.raises(ProviderError, match="transport error: URLError") as info:
            provider.complete(request())
        assert info.value.kind == "transport"
        assert sleeps == [0.5, 1.0]


def test_import_loads_no_http_module():
    src = str(Path(dsmseq.__file__).resolve().parents[1])
    code = (
        "import sys, dsmseq; "
        "print(sorted(m for m in ('requests', 'urllib3', 'http.client', 'ssl') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == "[]"
