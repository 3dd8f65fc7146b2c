"""Providers: scripted stub behavior and the HTTP client's retry contract."""

import pytest
import requests

from dsmseq import (
    ChatRequest,
    OpenAIChatProvider,
    ProviderConfig,
    ProviderError,
    ScriptedProvider,
)

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
            [requests.ConnectionError("boom"), (200, ok_body("ok"))]
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

    def test_params_passed_through(self):
        provider, transport, _ = provider_with([(200, ok_body("x"))])
        provider.complete(ChatRequest.single_turn("test-model", "p", temperature=0.2))
        assert transport.calls[0]["body"]["temperature"] == 0.2


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
