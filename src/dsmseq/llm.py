"""Chat-completion providers: an OpenAI-compatible HTTP client and a scripted stub.

The search loop depends only on the ``complete(ChatRequest) -> ChatResult``
shape, so the HTTP provider and the stub are interchangeable. Credentials
come from the environment (OPENAI_API_KEY, OPENAI_API_BASE, OPENAI_MODEL)
and are never echoed into errors, logs, or reprs. The reply format is
known only to prompts; the stub renames ids with its rename_order_ids.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from .model import check_int, check_real
from .prompts import rename_order_ids

DEFAULT_BASE_URL = "https://api.openai.com/v1"
RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple[dict, ...]

    @classmethod
    def single_turn(cls, model: str, prompt: str) -> "ChatRequest":
        return cls(model=model, messages=({"role": "user", "content": prompt},))


@dataclass(frozen=True)
class ChatResult:
    text: str
    usage: dict
    retries: int
    model: str


class ProviderError(RuntimeError):
    """A completion attempt that cannot return text.

    kind: 'auth' (bad credentials, not retried), 'transport' (network or
    retryable status exhausted retries), 'protocol' (non-retryable HTTP
    status), 'malformed' (response body missing expected fields), or
    'script-exhausted' (stub ran out of canned responses).
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass
class ProviderConfig:
    endpoint: str = DEFAULT_BASE_URL
    api_key: str = ""
    model: str = ""
    timeout: float = 60.0
    max_retries: int = 3
    backoff: float = 1.0
    requests_per_minute: float | None = None

    def __post_init__(self) -> None:
        # each would otherwise fail only at the first request
        if not (isinstance(self.endpoint, str) and self.endpoint.lower().startswith(("http://", "https://"))):
            raise ValueError(f"endpoint must start with http:// or https://, got {self.endpoint!r}")
        check_int("max_retries", self.max_retries, 0)
        check_real("timeout", self.timeout, 0)
        if self.timeout == 0:  # a socket with timeout 0 never blocks, so never waits for a reply
            raise ValueError("timeout must be positive")
        check_real("backoff", self.backoff, 0)
        # below one request per minute the token bucket never holds a token
        if self.requests_per_minute is not None:
            check_real("requests_per_minute", self.requests_per_minute, 1)

    def __repr__(self) -> str:  # keep the key out of logs and tracebacks
        masked = "***" if self.api_key else "(unset)"
        return (
            f"ProviderConfig(endpoint={self.endpoint!r}, api_key={masked}, "
            f"model={self.model!r}, timeout={self.timeout}, "
            f"max_retries={self.max_retries}, backoff={self.backoff}, "
            f"requests_per_minute={self.requests_per_minute})"
        )


def _urllib_transport(url: str, headers: dict, body: dict, timeout: float):
    """Default transport: POST JSON, return (status code, parsed body).

    An HTTP error status is read back like a success, so the provider's
    status handling sees it; a body that is not JSON parses to {}. The HTTP
    modules load on the first call, so importing dsmseq loads no network code.
    """
    import urllib.error
    import urllib.request

    data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as err:
        with err:  # closes the error's response once its body is read
            status, raw = err.code, err.read()
    try:
        payload = json.loads(raw)
    except ValueError:
        payload = {}
    return status, payload


class _TokenBucket:
    """Soft requests-per-minute cap shared by all calls on one provider."""

    def __init__(self, per_minute: float, clock=time.monotonic, sleep=time.sleep):
        self.capacity = per_minute
        self.tokens = per_minute
        self.rate = per_minute / 60.0
        self.clock = clock
        self.sleep = sleep
        self.last = clock()

    def acquire(self) -> None:
        while True:
            now = self.clock()
            self.tokens = min(self.capacity, self.tokens + (now - self.last) * self.rate)
            self.last = now
            if self.tokens >= 1.0:
                self.tokens -= 1.0
                return
            self.sleep((1.0 - self.tokens) / self.rate)


class OpenAIChatProvider:
    """Chat-completions over the OpenAI-compatible wire format.

    transport/sleep/clock are injectable so tests can simulate status codes
    and time without a network. Retries transport errors and retryable
    statuses (429/5xx) with exponential backoff; auth failures are final.
    """

    def __init__(self, config: ProviderConfig, transport=None, sleep=time.sleep, clock=time.monotonic):
        if not config.api_key:
            raise ProviderError("auth", "no API key configured")
        self.config = config
        self.model = config.model
        self._transport = transport or _urllib_transport
        self._sleep = sleep
        self._bucket = None
        if config.requests_per_minute is not None:
            self._bucket = _TokenBucket(config.requests_per_minute, clock=clock, sleep=sleep)

    @classmethod
    def from_env(cls, **overrides) -> "OpenAIChatProvider":
        config = ProviderConfig(
            endpoint=os.environ.get("OPENAI_API_BASE", DEFAULT_BASE_URL),
            api_key=os.environ.get("OPENAI_API_KEY", ""),
            model=overrides.pop("model", None) or os.environ.get("OPENAI_MODEL", ""),
            **overrides,
        )
        return cls(config)

    def complete(self, req: ChatRequest) -> ChatResult:
        # OSError covers refused connections, timeouts and URLError;
        # IncompleteRead and BadStatusLine are HTTPExceptions, not OSErrors
        from http.client import HTTPException

        url = self.config.endpoint.rstrip("/") + "/chat/completions"
        headers = {
            "Authorization": f"Bearer {self.config.api_key}",
            "Content-Type": "application/json",
        }
        body = {"model": req.model or self.config.model, "messages": list(req.messages)}

        last_failure = "no attempt made"
        for attempt in range(self.config.max_retries + 1):
            if self._bucket is not None:
                self._bucket.acquire()
            try:
                status, payload = self._transport(url, headers, body, self.config.timeout)
            except (OSError, HTTPException) as exc:
                last_failure = f"transport error: {type(exc).__name__}"
                status = None
            if status == 200:
                try:
                    text = payload["choices"][0]["message"]["content"]
                except (KeyError, IndexError, TypeError):
                    raise ProviderError(
                        "malformed", "response body has no choices[0].message.content"
                    ) from None
                usage = payload.get("usage", {}) if isinstance(payload, dict) else {}
                # each earlier attempt failed and was retried
                return ChatResult(text=text, usage=usage, retries=attempt, model=body["model"])
            if status in (401, 403):
                raise ProviderError("auth", f"authentication rejected (HTTP {status})")
            if status is not None and status not in RETRYABLE_STATUS:
                raise ProviderError("protocol", f"unexpected HTTP status {status}")
            if status is not None:
                last_failure = f"HTTP {status}"
            if attempt < self.config.max_retries:
                self._sleep(self.config.backoff * (2**attempt))
        raise ProviderError(
            "transport",
            f"gave up after {self.config.max_retries + 1} attempts; last failure: {last_failure}",
        )


class ScriptedProvider:
    """Replays canned response texts in order; records every prompt it saw."""

    model = "scripted"

    def __init__(self, responses: list[str]):
        self._responses = list(responses)
        self._cursor = 0
        self.prompts: list[str] = []

    def complete(self, req: ChatRequest) -> ChatResult:
        for message in req.messages:
            if message.get("role") == "user":
                self.prompts.append(message.get("content", ""))
        if self._cursor >= len(self._responses):
            raise ProviderError(
                "script-exhausted",
                f"script exhausted after {len(self._responses)} responses",
            )
        text = self._responses[self._cursor]
        self._cursor += 1
        return ChatResult(text=text, usage={}, retries=0, model=self.model)

    def renamed(self, mapping: dict[str, str]) -> ScriptedProvider:
        """A fresh stub of these replies with the ids in each reply's order
        span renamed through mapping, by the parser's span and split rule;
        ids it lacks, and replies with no span, stay; it records into this
        stub's prompts list."""
        stub = ScriptedProvider([rename_order_ids(text, mapping) for text in self._responses])
        stub.prompts = self.prompts
        return stub
