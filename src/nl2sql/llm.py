"""Chat-completion transports: live HTTP, deterministic replay, recording.

Requests use the de-facto hosted-LLM wire shape: a JSON body with ``model``,
``messages`` (role/content pairs) and sampling fields, answered by a body
whose first choice carries the assistant message. ``ModelEndpoint.complete``
digests each request body once (sha256 of its canonical JSON); the digest is
the transcript's ``request_digest`` and keys the replay store, so any prompt
change misses loudly instead of replaying the wrong answer. The store is one
SQLite file, a table ``reply(digest, body)`` that ``RecordingTransport``
fills from a live transport.

``requests`` is imported by ``HttpChatTransport.__init__`` alone, so a
process that never builds a live transport (ingest, replay runs, evaluate)
never loads an HTTP stack.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
import weakref
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol
from urllib.parse import quote, urlsplit

from .errors import ConfigError, ReplayMissError, RetriesExhaustedError, TransportError

if TYPE_CHECKING:
    import requests

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


# ``json.dumps`` with these arguments builds an encoder per call; this one
# writes the same text. ``build_request`` builds no cycle, so the encoder
# need not look for one.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(",", ":"), check_circular=False
)


def request_digest(request: dict) -> str:
    return hashlib.sha256(_CANONICAL.encode(request).encode("utf-8")).hexdigest()


def reply_text(response_body: dict) -> str:
    """The first choice's message text. A body without one, or whose
    content is not a string (APIs answer a refusal or a tool call with
    ``null``), is a ``TransportError``."""
    try:
        content = response_body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed chat-completion response: {exc}") from exc
    if not isinstance(content, str):
        raise TransportError(
            f"malformed chat-completion response: content is {json.dumps(content)[:40]}, "
            "not a string"
        )
    return content


class Transport(Protocol):
    def send(self, request: dict, digest: str | None = None) -> dict:
        """Return the response body for one chat-completion request;
        ``digest``, when given, is ``request_digest(request)``."""


def _is_http_url(url: object) -> bool:
    if not isinstance(url, str):
        return False
    try:
        parts = urlsplit(url)
    except ValueError:  # such as an unclosed IPv6 bracket
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


class HttpChatTransport:
    """Live transport with a fixed exponential-backoff retry policy (below).

    Retries cover connection errors, timeouts, bodies cut short, HTTP 5xx and
    429; other statuses and ``requests`` errors, such as a header refused
    before connecting, fail at once. A 429 or 503 whose ``Retry-After`` is a
    number of seconds (RFC 6585 §4, RFC 9110 §10.2.3) waits that long when
    it is longer than the backoff, up to ``MAX_RETRY_AFTER_SECONDS``; an
    HTTP-date or a malformed value keeps the backoff. A ``base_url`` that is
    not an http or https URL with a host is a ``ConfigError`` before any
    request. ``sleeper`` is injectable so tests do not wait.
    """

    RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
    MAX_RETRIES = 3
    BACKOFF_SECONDS = 1.0  # doubled after each retry
    MAX_RETRY_AFTER_SECONDS = 60.0
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
        if not _is_http_url(base_url):
            raise ConfigError(f"base_url must be an http or https URL with a host: {base_url!r}")
        try:
            import requests
        except ImportError:
            raise ConfigError(
                "live runs need the requests package: install it or use replay mode"
            ) from None
        self.url = base_url.rstrip("/") + "/chat/completions"
        self.headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        self.sleeper = sleeper
        # No shared Session by default: module-level post is safe under
        # concurrent pipeline workers.
        self._post = session.post if session is not None else requests.post
        errors = requests.exceptions
        self._request_error = errors.RequestException
        self._transient = (errors.ConnectionError, errors.Timeout, errors.ChunkedEncodingError)

    def send(self, request: dict, digest: str | None = None) -> dict:
        last_error: Exception | None = None
        for attempt in range(self.MAX_RETRIES + 1):
            if attempt:
                self.sleeper(wait)
            wait = self.BACKOFF_SECONDS * (2 ** attempt)
            try:
                resp = self._post(
                    self.url, json=request, headers=self.headers, timeout=self.TIMEOUT_SECONDS
                )
            except self._transient as exc:
                last_error = exc
                continue
            except self._request_error as exc:
                raise TransportError(f"request failed: {exc}") from exc
            if resp.status_code == 200:
                try:
                    return resp.json()
                except (ValueError, RecursionError) as exc:
                    raise TransportError(f"non-JSON response body: {exc}") from exc
            if resp.status_code in self.RETRYABLE_STATUSES:
                if resp.status_code in (429, 503):
                    wait = self._retry_wait(resp.headers.get("Retry-After"), wait)
                last_error = TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
                continue
            raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        raise RetriesExhaustedError(f"gave up after {self.MAX_RETRIES + 1} attempts: {last_error}")

    def _retry_wait(self, retry_after: str | None, backoff: float) -> float:
        """The wait a ``Retry-After`` value asks for: delay-seconds only,
        never shorter than the backoff nor longer than the cap."""
        value = (retry_after or "").strip()
        if not (value.isascii() and value.isdigit()):
            return backoff
        return min(self.MAX_RETRY_AFTER_SECONDS, max(backoff, float(value)))


STORE_FORMAT = 1  # the replay store's ``PRAGMA user_version``
_CREATE_STORE = f"""BEGIN IMMEDIATE;
CREATE TABLE IF NOT EXISTS reply(digest TEXT PRIMARY KEY, body TEXT NOT NULL) WITHOUT ROWID;
PRAGMA user_version = {STORE_FORMAT}; COMMIT;"""
_SELECT_REPLY = "SELECT body FROM reply WHERE digest = ?"


def _open_store(path: Path, mode: str) -> sqlite3.Connection:
    """The replay store at ``path`` opened with URI ``mode``: "ro", or "rwc",
    which makes an empty database a store and puts the file in WAL mode."""
    conn = None
    try:
        if path.is_dir():
            raise sqlite3.OperationalError("it is a directory")
        uri = f"file:{quote(str(path.resolve()))}?mode={mode}"
        conn = sqlite3.connect(uri, uri=True, isolation_level=None, check_same_thread=False)
        conn.text_factory = bytes  # so that ``json.loads`` reports bad UTF-8
        if mode == "rwc" and not conn.execute("SELECT 1 FROM sqlite_master").fetchone():
            conn.executescript(_CREATE_STORE)
        if conn.execute("PRAGMA user_version").fetchone()[0] != STORE_FORMAT:
            raise sqlite3.DatabaseError(f"not format {STORE_FORMAT}")
        conn.execute(_SELECT_REPLY, ("",))  # the table is there
        if mode == "rwc":
            conn.executescript("PRAGMA journal_mode = WAL; PRAGMA synchronous = NORMAL;")
        return conn
    except sqlite3.Error as exc:  # such as "file is not a database"
        if conn is not None:
            conn.close()
        reason = f"{path} is not a replay store ({exc}); a replay store is now one SQLite file"
        raise ConfigError(reason) from None


class ReplayTransport:
    """Answers from a replay store, read-only, one call at a time. A finalizer
    closes the connection, in a cycle with its statement cache, once dropped,
    and then puts a store a recorder left in WAL mode back in rollback mode
    (see ``_close_replay``)."""

    def __init__(self, store: Path | str):
        self.store = Path(store)
        self._conn = _open_store(self.store, "ro")
        self._conn.execute("BEGIN")  # one snapshot, read with no file lock per send
        self._lock = threading.Lock()
        weakref.finalize(self, _close_replay, self._conn, self.store.resolve())

    def send(self, request: dict, digest: str | None = None) -> dict:
        digest = digest or request_digest(request)
        try:
            with self._lock:
                row = self._conn.execute(_SELECT_REPLY, (digest,)).fetchone()
        except sqlite3.Error as exc:  # such as a store overwritten since it opened
            raise TransportError(f"cannot read reply {digest} in {self.store}: {exc}") from exc
        if row is None:
            messages = request.get("messages", [])
            head = repr(messages[-1].get("content", ""))[:120] if messages else ""
            raise ReplayMissError(digest, hint=f"last message starts {head}")
        try:
            return json.loads(row[0])
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise TransportError(f"corrupt replay fixture {digest} in {self.store}: {exc}") from exc


class RecordingTransport:
    """Passes each request to ``inner`` alone and commits the response to a
    replay store on its own, so a killed recording keeps every reply it
    finished. Threads and other recorders may share the store."""

    def __init__(self, inner: Transport, store: Path | str):
        self.inner = inner
        self.store = Path(store)
        self._conn = _open_store(self.store, "rwc")
        self._lock = threading.Lock()
        weakref.finalize(self, _close_recording, self._conn)

    def send(self, request: dict, digest: str | None = None) -> dict:
        body = self.inner.send(request)
        digest = digest or request_digest(request)
        text = json.dumps(body, ensure_ascii=False)
        try:
            with self._lock:
                self._conn.execute("INSERT OR REPLACE INTO reply VALUES (?, ?)", (digest, text))
        except sqlite3.Error as exc:  # such as "database is locked"
            raise TransportError(f"cannot record reply {digest} in {self.store}: {exc}") from exc
        return body


def _close_recording(conn: sqlite3.Connection) -> None:
    """Put the store back in rollback mode, so that a read-only open leaves no
    ``-wal`` or ``-shm`` file; SQLite refuses while another connection is open."""
    with suppress(sqlite3.OperationalError):  # "database is locked": not the last
        conn.execute("PRAGMA busy_timeout = 0")  # a wait cannot help (5 s after a failed write)
        conn.execute("PRAGMA journal_mode = DELETE")
    conn.close()


def _close_replay(conn: sqlite3.Connection, path: Path) -> None:
    """Close a replay's connection, then put the store back in rollback mode
    if a ``-wal`` file is left: a recorder that closed while the replay was
    open could not, and a read-only connection cannot. A short read-write
    open does it, which, as in ``_close_recording``, does nothing while
    another connection is open, nor when the store cannot be written (SQLite
    then opens it read-only); it waits for no lock."""
    conn.close()
    if os.path.exists(f"{path}-wal"):
        uri = f"file:{quote(str(path))}?mode=rw"
        with suppress(sqlite3.OperationalError):  # such as a store since removed
            _close_recording(sqlite3.connect(uri, uri=True, timeout=0))


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
