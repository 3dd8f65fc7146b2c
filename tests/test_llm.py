"""Providers: scripted stub behavior and the HTTP client's retry contract."""

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import dsmseq
from dsmseq import (
    ChatRequest,
    OpenAIChatProvider,
    ProviderError,
    ScriptedProvider,
)
from dsmseq import llm
from dsmseq.llm import DEFAULT_BASE_URL, RETRYABLE_STATUS, _urllib_transport

KEY = "sk-test-SECRET-0123456789"

# what a socket, urllib or http.client can raise mid-request; the last two
# are HTTPExceptions, not OSErrors
TRANSPORT_FAILURES = [
    ConnectionRefusedError("refused"),
    ConnectionResetError("reset"),
    TimeoutError("timed out"),
    urllib.error.URLError("no route"),
    http.client.RemoteDisconnected("closed"),
    http.client.IncompleteRead(b"partial"),
    http.client.BadStatusLine("NOT HTTP"),
]


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


def provider_with(outcomes):
    transport = FakeTransport(outcomes)
    sleeps = []
    provider = OpenAIChatProvider(KEY, "test-model", "https://llm.example/v1",
                                  transport=transport, sleep=sleeps.append)
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
        assert transport.calls[0]["url"] == "https://llm.example/v1/chat/completions"
        assert transport.calls[0]["body"]["model"] == "test-model"
        assert transport.calls[0]["timeout"] == 60.0
        assert sleeps == []

    def test_retries_on_429_then_succeeds(self):
        provider, transport, sleeps = provider_with(
            [(429, {}), (429, {}), (200, ok_body("ok"))]
        )
        result = provider.complete(request())
        assert result.text == "ok"
        assert result.retries == 2
        assert len(transport.calls) == 3
        assert sleeps == [1.0, 2.0]  # exponential backoff

    def test_retries_on_transport_exception(self):
        provider, _, sleeps = provider_with(
            [ConnectionError("boom"), (200, ok_body("ok"))]
        )
        assert provider.complete(request()).text == "ok"
        assert sleeps == [1.0]

    @pytest.mark.parametrize("status", sorted(RETRYABLE_STATUS))
    def test_each_retryable_status_is_retried(self, status):
        provider, transport, sleeps = provider_with([(status, {}), (200, ok_body("ok"))])
        result = provider.complete(request())
        assert (result.text, result.retries, sleeps) == ("ok", 1, [1.0])
        assert len(transport.calls) == 2

    @pytest.mark.parametrize("failure", TRANSPORT_FAILURES, ids=lambda exc: type(exc).__name__)
    def test_each_transport_failure_is_retried(self, failure):
        provider, transport, sleeps = provider_with([failure, (200, ok_body("ok"))])
        result = provider.complete(request())
        assert (result.text, result.retries, sleeps) == ("ok", 1, [1.0])
        assert len(transport.calls) == 2

    @pytest.mark.parametrize("failure", TRANSPORT_FAILURES, ids=lambda exc: type(exc).__name__)
    def test_gives_up_naming_the_last_transport_failure(self, failure):
        provider, transport, sleeps = provider_with([(502, {})] * 3 + [failure])
        with pytest.raises(ProviderError) as info:
            provider.complete(request())
        assert str(info.value) == (
            f"gave up after 4 attempts; last failure: transport error: {type(failure).__name__}"
        )
        assert info.value.kind == "transport"
        assert (len(transport.calls), sleeps) == (4, [1.0, 2.0, 4.0])

    def test_a_fault_that_is_not_a_transport_failure_is_not_retried(self):
        # a bug in a transport surfaces as itself, not as a network failure
        provider, transport, sleeps = provider_with([KeyError("bug"), (200, ok_body("ok"))])
        with pytest.raises(KeyError, match="bug"):
            provider.complete(request())
        assert (len(transport.calls), sleeps) == (1, [])

    def test_gives_up_after_max_retries(self):
        provider, transport, sleeps = provider_with([(503, {})] * 4)
        with pytest.raises(ProviderError, match="gave up after 4 attempts; last failure: HTTP 503") as info:
            provider.complete(request())
        assert info.value.kind == "transport"
        assert len(transport.calls) == 4
        assert sleeps == [1.0, 2.0, 4.0]

    def test_auth_failure_not_retried(self):
        provider, transport, sleeps = provider_with([(401, {})])
        with pytest.raises(ProviderError) as info:
            provider.complete(request())
        assert info.value.kind == "auth"
        assert (len(transport.calls), sleeps) == (1, [])

    def test_403_is_an_auth_failure_too(self):
        provider, transport, sleeps = provider_with([(403, {})])
        with pytest.raises(ProviderError, match=r"authentication rejected \(HTTP 403\)") as info:
            provider.complete(request())
        assert info.value.kind == "auth"
        assert (len(transport.calls), sleeps) == (1, [])

    def test_other_4xx_is_protocol_error(self):
        provider, transport, _ = provider_with([(404, {})])
        with pytest.raises(ProviderError, match="unexpected HTTP status 404") as info:
            provider.complete(request())
        assert info.value.kind == "protocol"
        assert len(transport.calls) == 1

    # only 429 and the transient 5xx are worth a wait; a redirect, any other
    # client error and a server that lacks the route are final
    @pytest.mark.parametrize("status", [201, 302, 400, 405, 409, 422, 501, 505])
    def test_a_status_that_is_not_retryable_is_a_protocol_error(self, status):
        provider, transport, sleeps = provider_with([(status, ok_body("ignored"))])
        with pytest.raises(ProviderError, match=f"unexpected HTTP status {status}$") as info:
            provider.complete(request())
        assert info.value.kind == "protocol"
        assert (len(transport.calls), sleeps) == (1, [])

    def test_malformed_body(self):
        provider, _, _ = provider_with([(200, {"weird": True})])
        with pytest.raises(ProviderError) as info:
            provider.complete(request())
        assert info.value.kind == "malformed"

    # {} is also what the transport makes of a body that is not JSON
    @pytest.mark.parametrize("body", [
        {},
        {"choices": []},
        {"choices": None},
        {"choices": "text"},
        {"choices": [{}]},
        {"choices": [{"message": None}]},
        {"choices": [{"message": {"role": "assistant"}}]},
        [],
    ], ids=repr)
    def test_a_body_without_a_first_message_is_malformed_and_not_retried(self, body):
        provider, transport, sleeps = provider_with([(200, body)])
        with pytest.raises(ProviderError, match=r"no text at choices\[0\]\.message\.content") as info:
            provider.complete(request())
        assert info.value.kind == "malformed"
        assert (len(transport.calls), sleeps) == (1, [])

    def test_empty_text_is_a_reply(self):
        # an empty reply is text; the prompt layer re-asks for an order
        provider, _, _ = provider_with([(200, ok_body(""))])
        assert provider.complete(request()).text == ""

    def test_a_body_without_usage_gives_empty_usage(self):
        provider, _, _ = provider_with([(200, {"choices": [{"message": {"content": "hi"}}]})])
        result = provider.complete(request())
        assert (result.text, result.usage) == ("hi", {})

    # a refusal or a tool call gives null content; some compatible servers
    # send a list of content parts
    @pytest.mark.parametrize("content", [None, [{"type": "text", "text": "<order> a </order>"}]])
    def test_content_that_is_not_text_is_malformed(self, content):
        body = {"choices": [{"message": {"role": "assistant", "content": content}}]}
        provider, transport, sleeps = provider_with([(200, body)])
        with pytest.raises(ProviderError, match="no text at choices") as info:
            provider.complete(request())
        assert info.value.kind == "malformed"
        assert (len(transport.calls), sleeps) == (1, [])

    def test_missing_key_rejected_upfront(self):
        with pytest.raises(ProviderError, match="API key") as info:
            OpenAIChatProvider("", "m")
        assert info.value.kind == "auth"

    @pytest.mark.parametrize("request_model, sent", [("req-model", "req-model"), ("", "test-model")])
    def test_the_request_model_wins_over_the_provider_model(self, request_model, sent):
        provider, transport, _ = provider_with([(200, ok_body("hi"))])
        result = provider.complete(ChatRequest.single_turn(request_model, "p"))
        assert transport.calls[0]["body"]["model"] == sent
        assert result.model == sent

    def test_every_message_is_sent_in_order(self):
        messages = (
            {"role": "system", "content": "s"},
            {"role": "user", "content": "u1"},
            {"role": "assistant", "content": "a1"},
            {"role": "user", "content": "u2"},
        )
        provider, transport, _ = provider_with([(200, ok_body("hi"))])
        provider.complete(ChatRequest("m", messages))
        assert transport.calls[0]["body"]["messages"] == list(messages)
        assert transport.calls[0]["headers"] == {
            "Authorization": f"Bearer {KEY}",
            "Content-Type": "application/json",
        }


class TestConstruction:
    @pytest.mark.parametrize("endpoint", ["api.example.com/v1", "ftp://example.com/v1", "", None])
    def test_endpoint_needs_http_scheme(self, endpoint):
        with pytest.raises(ValueError, match="endpoint must start with http:// or https://"):
            OpenAIChatProvider(KEY, "m", endpoint)

    @pytest.mark.parametrize("endpoint", ["http://127.0.0.1:8000/v1", "HTTPS://llm.example/v1/"])
    def test_http_endpoints_accepted(self, endpoint):
        transport = FakeTransport([(200, ok_body("hi"))])
        OpenAIChatProvider(KEY, "m", endpoint, transport=transport).complete(request())
        assert transport.calls[0]["url"] == endpoint.rstrip("/") + "/chat/completions"

    def test_from_env_reads_the_three_variables(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", KEY)
        monkeypatch.setenv("OPENAI_API_BASE", "http://127.0.0.1:9/v1")
        monkeypatch.setenv("OPENAI_MODEL", "env-model")
        transport = FakeTransport([(200, ok_body("hi"))])
        monkeypatch.setattr(llm, "_urllib_transport", transport)
        OpenAIChatProvider.from_env().complete(ChatRequest.single_turn("", "p"))
        (call,) = transport.calls
        assert call["url"] == "http://127.0.0.1:9/v1/chat/completions"
        assert call["headers"]["Authorization"] == f"Bearer {KEY}"
        assert call["body"]["model"] == "env-model"

    def test_from_env_defaults_to_the_openai_endpoint(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", KEY)
        monkeypatch.delenv("OPENAI_API_BASE", raising=False)
        monkeypatch.delenv("OPENAI_MODEL", raising=False)
        transport = FakeTransport([(200, ok_body("hi"))])
        monkeypatch.setattr(llm, "_urllib_transport", transport)
        OpenAIChatProvider.from_env().complete(ChatRequest.single_turn("", "p"))
        (call,) = transport.calls
        assert call["url"] == DEFAULT_BASE_URL + "/chat/completions"
        assert call["body"]["model"] == ""

    def test_from_env_without_a_key_is_refused(self, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        monkeypatch.setenv("OPENAI_API_BASE", "http://127.0.0.1:9/v1")
        with pytest.raises(ProviderError, match="no API key configured") as info:
            OpenAIChatProvider.from_env(model="m")
        assert info.value.kind == "auth"

    @pytest.mark.parametrize("endpoint", ["api.example.com/v1", "ftp://example.com/v1", ""])
    def test_from_env_with_a_bad_base_is_refused(self, monkeypatch, endpoint):
        monkeypatch.setenv("OPENAI_API_KEY", KEY)
        monkeypatch.setenv("OPENAI_API_BASE", endpoint)
        with pytest.raises(ValueError, match="endpoint must start with http:// or https://"):
            OpenAIChatProvider.from_env()

    def test_from_env_model_overrides_OPENAI_MODEL(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", KEY)
        monkeypatch.setenv("OPENAI_API_BASE", "http://127.0.0.1:9/v1")
        monkeypatch.setenv("OPENAI_MODEL", "env-model")
        assert OpenAIChatProvider.from_env().model == "env-model"
        assert OpenAIChatProvider.from_env(model="flag-model").model == "flag-model"


class TestSecretHandling:
    def test_errors_and_reprs_never_leak_the_key(self):
        provider, _, _ = provider_with([(401, {})])
        leaks = []
        try:
            provider.complete(request())
        except ProviderError as exc:
            leaks.append(str(exc))
        leaks.append(repr(provider))
        leaks.append(str(provider))
        for text in leaks:
            assert KEY not in text

    def test_transport_failure_message_clean(self):
        provider, _, _ = provider_with([(503, {})] * 4)
        with pytest.raises(ProviderError) as info:
            provider.complete(request())
        assert KEY not in str(info.value)

    # one script per way complete can fail; the transport's exception
    # carries the key in its own text, as a careless server error might
    @pytest.mark.parametrize("outcomes", [
        [(401, {})],
        [(403, {})],
        [(404, {"error": KEY})],
        [(200, {"weird": KEY})],
        [(200, {"choices": [{"message": {"content": None}}]})],
        [(500, {"error": KEY})] * 4,
        [ConnectionError(f"Bearer {KEY}")] * 4,
    ], ids=["401", "403", "404", "malformed", "null-content", "500", "transport"])
    def test_no_error_carries_the_key(self, outcomes):
        provider, _, _ = provider_with(outcomes)
        with pytest.raises(ProviderError) as info:
            provider.complete(request())
        assert KEY not in str(info.value)
        assert KEY not in repr(info.value)
        assert KEY not in repr(provider)


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


def live_provider(endpoint):
    sleeps = []
    return OpenAIChatProvider(KEY, "test-model", endpoint, sleep=sleeps.append), sleeps


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
        assert (result.text, result.retries, sleeps) == ("ok", 1, [1.0])
        assert len(local_server.seen) == 2

    def test_401_is_auth_and_not_retried(self, local_server):
        local_server.replies.append((401, b'{"error": {"message": "bad key"}}'))
        provider, sleeps = live_provider(self.endpoint(local_server))
        with pytest.raises(ProviderError, match=r"HTTP 401") as info:
            provider.complete(request())
        assert info.value.kind == "auth"
        assert (len(local_server.seen), sleeps) == (1, [])

    def test_500_with_non_json_body(self, local_server):
        local_server.replies += [(500, b"<html>Internal Server Error</html>")] * 4
        provider, sleeps = live_provider(self.endpoint(local_server))
        with pytest.raises(ProviderError, match="last failure: HTTP 500") as info:
            provider.complete(request())
        assert info.value.kind == "transport"
        assert (len(local_server.seen), sleeps) == (4, [1.0, 2.0, 4.0])

    def test_non_json_body_parses_to_empty(self, local_server):
        local_server.replies.append((500, b"not json"))
        url = self.endpoint(local_server) + "chat/completions"
        assert _urllib_transport(url, {}, {"a": 1}, 10.0) == (500, {})

    def test_bad_status_line_is_a_transport_error(self, local_server):
        # http.client raises BadStatusLine, an HTTPException but not an OSError
        local_server.replies += [(None, b"NOT HTTP\r\n\r\n")] * 4
        provider, _ = live_provider(self.endpoint(local_server))
        with pytest.raises(ProviderError, match="transport error: BadStatusLine") as info:
            provider.complete(request())
        assert info.value.kind == "transport"

    def test_refused_port(self):
        with socket.socket() as probe:  # a port that was free a moment ago
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        provider, sleeps = live_provider(f"http://127.0.0.1:{port}/v1")
        with pytest.raises(ProviderError, match="transport error: URLError") as info:
            provider.complete(request())
        assert info.value.kind == "transport"
        assert sleeps == [1.0, 2.0, 4.0]


def test_import_loads_no_http_module():
    src = str(Path(dsmseq.__file__).resolve().parents[1])
    code = (
        "import sys, dsmseq.llm; dsmseq.OpenAIChatProvider; "
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
