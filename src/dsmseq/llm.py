"""Chat-completion providers: an OpenAI-compatible HTTP client and a scripted stub.

The search loop depends only on the ``complete(ChatRequest) -> ChatResult``
shape, so the HTTP provider and the stub are interchangeable. The HTTP
provider takes only an API key, a model and an endpoint, which from_env
reads from OPENAI_API_KEY, OPENAI_MODEL and OPENAI_API_BASE; its timeout,
retries and backoff are the module constants below. The key is sent only
in the request headers and never appears in errors or reprs. The reply
format is known only to prompts; the stub renames ids with its
rename_order_ids.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from .prompts import rename_order_ids

DEFAULT_BASE_URL = "https://api.openai.com/v1"
RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})
REQUEST_TIMEOUT_S = 60.0
MAX_RETRIES = 3  # retries after the first attempt, so 4 attempts in all
BACKOFF_S = 1.0  # the first retry's wait; each later one doubles it


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


class OpenAIChatProvider:
    """Chat-completions over the OpenAI-compatible wire format.

    transport/sleep are injectable so tests can simulate status codes and
    time without a network. Retries transport errors and retryable statuses
    (429/5xx) MAX_RETRIES times with exponential backoff; auth failures are
    final. The key is kept only in the request headers.
    """

    def __init__(self, api_key: str, model: str = "", endpoint: str = DEFAULT_BASE_URL,
                 transport=None, sleep=time.sleep):
        # each would otherwise fail only at the first request
        if not api_key:
            raise ProviderError("auth", "no API key configured")
        if not (isinstance(endpoint, str) and endpoint.lower().startswith(("http://", "https://"))):
            raise ValueError(f"endpoint must start with http:// or https://, got {endpoint!r}")
        self.model = model
        self._url = endpoint.rstrip("/") + "/chat/completions"
        self._headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        self._transport = transport or _urllib_transport
        self._sleep = sleep

    @classmethod
    def from_env(cls, model: str | None = None) -> "OpenAIChatProvider":
        return cls(
            api_key=os.environ.get("OPENAI_API_KEY", ""),
            model=model or os.environ.get("OPENAI_MODEL", ""),
            endpoint=os.environ.get("OPENAI_API_BASE", DEFAULT_BASE_URL),
        )

    def complete(self, req: ChatRequest) -> ChatResult:
        # OSError covers refused connections, timeouts and URLError;
        # IncompleteRead and BadStatusLine are HTTPExceptions, not OSErrors
        from http.client import HTTPException

        body = {"model": req.model or self.model, "messages": list(req.messages)}
        last_failure = "no attempt made"
        for attempt in range(MAX_RETRIES + 1):
            try:
                status, payload = self._transport(self._url, self._headers, body, REQUEST_TIMEOUT_S)
            except (OSError, HTTPException) as exc:
                last_failure = f"transport error: {type(exc).__name__}"
                status = None
            if status == 200:
                try:
                    text = payload["choices"][0]["message"]["content"]
                except (KeyError, IndexError, TypeError):
                    text = None
                if not isinstance(text, str):  # a refusal or tool call has null content
                    raise ProviderError("malformed", "response body has no text at choices[0].message.content")
                usage = payload.get("usage", {})
                # each earlier attempt failed and was retried
                return ChatResult(text=text, usage=usage, retries=attempt, model=body["model"])
            if status in (401, 403):
                raise ProviderError("auth", f"authentication rejected (HTTP {status})")
            if status is not None and status not in RETRYABLE_STATUS:
                raise ProviderError("protocol", f"unexpected HTTP status {status}")
            if status is not None:
                last_failure = f"HTTP {status}"
            if attempt < MAX_RETRIES:
                self._sleep(BACKOFF_S * (2**attempt))
        raise ProviderError(
            "transport", f"gave up after {MAX_RETRIES + 1} attempts; last failure: {last_failure}"
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
