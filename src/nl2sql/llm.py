"""Chat-completion transports: live HTTP, deterministic replay, recording.

Requests use the de-facto hosted-LLM wire shape: a JSON body with ``model``,
``messages`` (role/content pairs) and sampling fields, answered by a body
whose first choice carries the assistant message. Each request body is
digested (sha256 of its canonical JSON); the digest keys the replay store,
so any prompt change invalidates stale fixtures loudly instead of silently
replaying the wrong answer.

``ModelEndpoint.complete`` computes that digest once per model call and
hands it to the transport's ``send``; the same value names the fixture
file and is the transcript's ``request_digest``. A transport called with
no digest computes its own.

Replay store layout: one ``<digest>.json`` file per request holding the
response body. ``RecordingTransport`` writes that layout while passing
through to a live transport, which is how fixture sets are built. A replay
miss is a digest with no regular file of that name: no file, a directory
or other non-regular file, or a missing store directory.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import stat
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import requests

from .errors import ConfigError, ReplayMissError, RetriesExhaustedError, TransportError

API_KEY_ENV = "NL2SQL_API_KEY"
FALLBACK_API_KEY_ENV = "OPENAI_API_KEY"

Message = dict[str, str]  # {"role": ..., "content": ...}


@dataclass(frozen=True)
class Sampling:
    temperature: float = 0.0
    max_tokens: int = 512


def build_request(model: str, messages: list[Message], sampling: Sampling) -> dict:
    return {
        "model": model,
        "messages": messages,
        "temperature": sampling.temperature,
        "max_tokens": sampling.max_tokens,
    }


def request_digest(request: dict) -> str:
    canonical = json.dumps(request, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def reply_text(response_body: dict) -> str:
    try:
        return response_body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed chat-completion response: {exc}") from exc


class Transport(Protocol):
    def send(self, request: dict, digest: str | None = None) -> dict:
        """Return the response body for one chat-completion request.

        ``digest``, when given, is ``request_digest(request)``."""


class HttpChatTransport:
    """Live transport with a fixed exponential-backoff retry policy (below).

    Retries cover connection errors, HTTP 5xx and 429; other statuses fail
    immediately. ``sleeper`` is injectable so tests do not wait.
    """

    RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
    MAX_RETRIES = 3
    BACKOFF_SECONDS = 1.0  # doubled after each retry
    TIMEOUT_SECONDS = 120.0

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        session: requests.Session | None = None,
    ):
        if api_key is None:
            api_key = os.environ.get(API_KEY_ENV) or os.environ.get(FALLBACK_API_KEY_ENV)
        if not api_key:
            raise ConfigError(
                f"no API key: set {API_KEY_ENV} (or {FALLBACK_API_KEY_ENV}) or use replay mode"
            )
        self.url = base_url.rstrip("/") + "/chat/completions"
        self.api_key = api_key
        self.sleeper = sleeper
        # No shared Session by default: module-level post is safe under
        # concurrent pipeline workers.
        self.session = session

    def send(self, request: dict, digest: str | None = None) -> dict:
        headers = {
            "Authorization": f"Bearer {self.api_key}",
            "Content-Type": "application/json",
        }
        post = self.session.post if self.session is not None else requests.post
        last_error: Exception | None = None
        for attempt in range(self.MAX_RETRIES + 1):
            if attempt:
                self.sleeper(self.BACKOFF_SECONDS * (2 ** (attempt - 1)))
            try:
                resp = post(self.url, json=request, headers=headers, timeout=self.TIMEOUT_SECONDS)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code == 200:
                try:
                    return resp.json()
                except ValueError as exc:
                    raise TransportError(f"non-JSON response body: {exc}") from exc
            if resp.status_code in self.RETRYABLE_STATUSES:
                last_error = TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
                continue
            raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        raise RetriesExhaustedError(
            f"gave up after {self.MAX_RETRIES + 1} attempts: {last_error}"
        )


# No O_NONBLOCK on Windows, where there are no FIFOs to open either.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0)
# What ``Path.is_file()`` reads as "no file", and a UNIX socket's ENXIO.
_MISS_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENXIO})


class ReplayTransport:
    """Offline transport backed by a directory of digest-keyed responses."""

    def __init__(self, store_dir: Path | str):
        self.store_dir = Path(store_dir)
        self._prefix = os.path.join(self.store_dir, "")

    def send(self, request: dict, digest: str | None = None) -> dict:
        if digest is None:
            digest = request_digest(request)
        # One open, fstat, read and close; the fstat stands in for
        # ``is_file()``, and O_NONBLOCK keeps a FIFO from blocking the open.
        try:
            fd = os.open(f"{self._prefix}{digest}.json", _READ_FLAGS)
        except OSError as exc:
            if exc.errno not in _MISS_ERRNOS:
                raise
            raise _miss(request, digest) from None
        try:
            st = os.fstat(fd)
            if not stat.S_ISREG(st.st_mode):
                raise _miss(request, digest)
            data = os.read(fd, st.st_size)
        finally:
            os.close(fd)
        try:
            return json.loads(data.decode("utf-8"))
        except ValueError as exc:  # truncated or not UTF-8
            path = self.store_dir / f"{digest}.json"
            raise TransportError(f"corrupt replay fixture {path}: {exc}") from exc


def _miss(request: dict, digest: str) -> ReplayMissError:
    head = ""
    messages = request.get("messages", [])
    if messages:
        head = repr(messages[-1].get("content", ""))[:120]
    return ReplayMissError(digest, hint=f"last message starts {head}")


class RecordingTransport:
    """Pass-through transport that persists every response for later replay.

    The inner transport is called with the request alone."""

    def __init__(self, inner: Transport, store_dir: Path | str):
        self.inner = inner
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)

    def send(self, request: dict, digest: str | None = None) -> dict:
        body = self.inner.send(request)
        if digest is None:
            digest = request_digest(request)
        _write_fixture(self.store_dir, digest, body)
        return body


def _write_fixture(store_dir: Path, digest: str, body: dict) -> None:
    """Write ``<digest>.json`` whole or not at all, so a write that fails
    partway leaves a replay miss: a temporary file, then a rename."""
    path = store_dir / f"{digest}.json"
    tmp = store_dir / f"{digest}.json.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        tmp.write_text(json.dumps(body, ensure_ascii=False, indent=1), encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class ModelEndpoint:
    """One model in the pipeline: who it is and how to reach it."""

    role: str  # "generator" | "corrector"
    transport: Transport
    model_name: str
    sampling: Sampling = field(default_factory=Sampling)

    def complete(self, messages: list[Message]) -> tuple[str, str]:
        """Send one request; returns (assistant text, request digest)."""
        request = build_request(self.model_name, messages, self.sampling)
        digest = request_digest(request)
        return reply_text(self.transport.send(request, digest)), digest
