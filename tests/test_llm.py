from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from nl2sql import llm
from nl2sql.errors import ConfigError, ReplayMissError, RetriesExhaustedError, TransportError
from nl2sql.llm import (
    HttpChatTransport,
    ModelEndpoint,
    RecordingTransport,
    ReplayTransport,
    Sampling,
    build_request,
    reply_text,
    request_digest,
)

from helpers import ScriptedTransport, empty_store


def _request(content="hi"):
    return build_request("m", [{"role": "user", "content": content}], Sampling())


def _record_reply(store, request, text) -> str:
    """Record ``text`` as the reply to ``request``; returns its digest."""
    RecordingTransport(ScriptedTransport(lambda _: text), store).send(request)
    return request_digest(request)


# A finalizer's exception is printed and ignored; here it fails the test.
_FINALIZERS_RAISE_NOTHING = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning"
)


def _stored(store) -> dict[str, str]:
    """The store's rows, digest to body."""
    conn = sqlite3.connect(store)
    try:
        return dict(conn.execute("SELECT digest, body FROM reply"))
    finally:
        conn.close()


def _set_body(store, digest, body) -> None:
    conn = sqlite3.connect(store)
    try:
        with conn:
            conn.execute("UPDATE reply SET body = CAST(? AS TEXT) WHERE digest = ?", (body, digest))
    finally:
        conn.close()


def test_digest_is_stable_and_content_sensitive():
    a, b = _request("one"), _request("one")
    assert request_digest(a) == request_digest(b)
    assert request_digest(a) != request_digest(_request("two"))
    assert len(request_digest(a)) == 64


def test_digest_changes_with_sampling():
    base = _request()
    warm = build_request("m", [{"role": "user", "content": "hi"}], Sampling(temperature=0.7))
    assert request_digest(base) != request_digest(warm)


def test_digest_of_a_fixed_request_is_pinned():
    # Replay stores are keyed by this value: a change to the canonical JSON
    # orphans every fixture ever recorded.
    request = build_request(
        "gpt-4",
        [
            {"role": "system", "content": "You write SQLite."},
            {"role": "user", "content": 'How many singers are there? Answer with SQL; é "q"'},
        ],
        Sampling(temperature=0.0, max_tokens=512),
    )
    assert request_digest(request) == (
        "1f1255e897efde2e7b5b109980857b8a403e0761eddba1c4afe50f566f39994d"
    )


# Text with non-ASCII characters, control characters, quotes and backslashes.
_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "é", " "])
    ),
    max_size=30,
)
_MESSAGES = st.lists(st.fixed_dictionaries({"role": _TEXT, "content": _TEXT}), max_size=4)
_REQUESTS = st.fixed_dictionaries(
    {
        "model": _TEXT,
        "messages": _MESSAGES,
        "temperature": st.floats(allow_nan=False, allow_infinity=False),
        "max_tokens": st.integers(),
    },
    optional={"extra": st.dictionaries(_TEXT, st.one_of(_TEXT, _MESSAGES), max_size=3)},
)


@given(_REQUESTS)
def test_digest_hashes_the_json_dumps_text(payload):
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    assert request_digest(payload) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _counting_digests(monkeypatch) -> list[dict]:
    seen = []
    original = llm.request_digest

    def counting(request):
        seen.append(request)
        return original(request)

    monkeypatch.setattr(llm, "request_digest", counting)
    return seen


def test_endpoint_digests_once_per_call_over_replay(tmp_path, monkeypatch):
    store = tmp_path / "replay"
    messages = [[{"role": "user", "content": f"q{i}"}] for i in range(3)]
    stored = [_record_reply(store, build_request("m", m, Sampling()), f"SELECT {i}")
              for i, m in enumerate(messages)]
    seen = _counting_digests(monkeypatch)
    endpoint = ModelEndpoint(role="generator", transport=ReplayTransport(store), model_name="m")
    results = [endpoint.complete(m) for m in messages]
    assert results == [(f"SELECT {i}", d) for i, d in enumerate(stored)]
    assert len(seen) == 3


def test_endpoint_digests_once_per_call_while_recording(tmp_path, monkeypatch):
    seen = _counting_digests(monkeypatch)
    scripted = ScriptedTransport(lambda req: "SELECT 4")
    store = tmp_path / "replay"
    endpoint = ModelEndpoint(
        role="generator", transport=RecordingTransport(scripted, store), model_name="m"
    )
    digests = [endpoint.complete([{"role": "user", "content": f"q{i}"}])[1] for i in range(3)]
    assert len(seen) == 3
    assert sorted(_stored(store)) == sorted(digests)


def test_transports_key_on_the_digest_they_are_given(tmp_path):
    request, store = _request("keyed"), tmp_path / "replay"
    RecordingTransport(ScriptedTransport(lambda req: "SELECT 5"), store).send(request, "k")
    assert list(_stored(store)) == ["k"]
    assert reply_text(ReplayTransport(store).send(request, "k")) == "SELECT 5"
    with pytest.raises(ReplayMissError):
        ReplayTransport(store).send(request)


def test_replay_round_trip(tmp_path):
    request = _request("stored")
    _record_reply(tmp_path / "replay", request, "SELECT 1")
    transport = ReplayTransport(tmp_path / "replay")
    assert reply_text(transport.send(request)) == "SELECT 1"


def _miss_message(request) -> str:
    head = repr(request["messages"][-1]["content"])[:120]
    digest = request_digest(request)
    return f"no replay fixture for request digest {digest}: last message starts {head}"


def test_replay_miss_is_loud(tmp_path):
    request = _request("never stored " * 20)
    with pytest.raises(ReplayMissError) as err:
        ReplayTransport(empty_store(tmp_path / "replay")).send(request)
    assert str(err.value) == _miss_message(request)
    assert err.value.digest == request_digest(request)


def _sqlite_file(path, *statements):
    conn = sqlite3.connect(path)
    for statement in statements:
        conn.execute(statement)
    conn.commit()
    conn.close()


_NO_STORE_REASONS = {
    "missing": "unable to open database file",
    "missing/deeper": "unable to open database file",
    "a-file/below": "unable to open database file",
    "directory": "it is a directory",
    "text": "file is not a database",
    "empty": "not format 1",
    "other-format": "not format 1",
    "no-reply-table": "no such table: reply",
}


@pytest.mark.parametrize("case", _NO_STORE_REASONS)
def test_a_store_path_that_is_no_store_is_a_config_error(tmp_path, case):
    # Refused when either transport is built, before any model call; the
    # message says a store is one file, for a store kept from the directory
    # layout of <digest>.json files.
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    path = tmp_path / case
    if case == "directory":
        path.mkdir()
        (path / f"{request_digest(_request())}.json").write_text("{}", encoding="utf-8")
    elif case == "text":
        path.write_text("not a database\n" * 100, encoding="utf-8")
    elif case == "empty":
        path.write_bytes(b"")
    elif case == "other-format":
        _sqlite_file(path, "CREATE TABLE reply(digest, body)", "PRAGMA user_version = 7")
    elif case == "no-reply-table":
        _sqlite_file(path, "CREATE TABLE other(x)", "PRAGMA user_version = 1")
    before = _files(tmp_path)
    reason = _NO_STORE_REASONS[case]
    message = f"{path} is not a replay store ({reason}); a replay store is now one SQLite file"
    with pytest.raises(ConfigError) as err:
        ReplayTransport(path)
    assert str(err.value) == message
    if case not in ("missing", "empty"):  # which a recorder makes a new store
        inner = ScriptedTransport(lambda req: "SELECT 1")
        with pytest.raises(ConfigError, match=re.escape(f"{path} is not a replay store")):
            RecordingTransport(inner, path)
        assert inner.requests == []
    assert _files(tmp_path) == before


def _files(directory) -> dict[str, bytes | None]:
    """Every path under ``directory``, with its bytes if it is a file."""
    return {
        str(p.relative_to(directory)): p.read_bytes() if p.is_file() else None
        for p in directory.rglob("*")
    }


def test_non_utf8_replay_fixture_is_a_transport_error_naming_the_file(tmp_path):
    request, store = _request("stored"), tmp_path / "replay"
    digest = _record_reply(store, request, "SELECT 1")
    _set_body(store, digest, b'{"choices": "\xff"}')
    with pytest.raises(TransportError) as err:
        ReplayTransport(store).send(request)
    assert str(err.value) == (
        f"corrupt replay fixture {digest} in {store}: 'utf-8' codec can't decode byte 0xff"
        " in position 13: invalid start byte"
    )


def test_store_overwritten_after_replay_opened_it_is_a_transport_error(tmp_path):
    request, store = _request("stored"), tmp_path / "replay"
    digest = _record_reply(store, request, "SELECT 1")
    transport = ReplayTransport(store)
    store.write_bytes(b"not a database" * 1000)
    with pytest.raises(TransportError) as err:
        transport.send(request)
    assert str(err.value) == (
        f"cannot read reply {digest} in {store}: file is not a database"
    )


def test_truncated_replay_fixture_is_a_transport_error(tmp_path):
    request, store = _request("stored"), tmp_path / "replay"
    digest = _record_reply(store, request, "SELECT 1")
    _set_body(store, digest, _stored(store)[digest][:20])
    with pytest.raises(
        TransportError, match=f"corrupt replay fixture {digest} in {re.escape(str(store))}: "
    ):
        ReplayTransport(store).send(request)


def test_deeply_nested_replay_fixture_is_a_transport_error(tmp_path):
    request, store = _request("stored"), tmp_path / "replay"
    digest = _record_reply(store, request, "SELECT 1")
    _set_body(store, digest, b"[" * 100_000 + b"]" * 100_000)
    with pytest.raises(
        TransportError,
        match=f"corrupt replay fixture {digest} in {re.escape(str(store))}: maximum recursion",
    ):
        ReplayTransport(store).send(request)


def test_recording_produces_replayable_store(tmp_path):
    scripted = ScriptedTransport(lambda req: "SELECT 2")
    recorder = RecordingTransport(scripted, tmp_path / "replay")
    request = _request("record me")
    body = recorder.send(request)
    assert reply_text(body) == "SELECT 2"
    replay = ReplayTransport(tmp_path / "replay")
    assert reply_text(replay.send(request)) == "SELECT 2"


def test_threads_share_one_recorder_and_one_replay(tmp_path):
    # More threads than cores, switching often: every reply is committed and
    # read back as the one for its own request.
    store, n = tmp_path / "replay", 8
    recorder = RecordingTransport(ScriptedTransport(lambda req: req["model"]), store)
    requests = [build_request(f"SELECT {i}", [], Sampling()) for i in range(400)]

    def each(send, chunk, out):
        out.extend(reply_text(send(r)) for r in chunk)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for transport in (recorder, ReplayTransport(store)):
            outs = [[] for _ in range(n)]
            threads = [
                threading.Thread(target=each, args=(transport.send, requests[i::n], outs[i]))
                for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert outs == [[r["model"] for r in requests[i::n]] for i in range(n)]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(_stored(store).values()) == sorted(json.dumps(
        {"choices": [{"message": {"role": "assistant", "content": r["model"]}}]}
    ) for r in requests)


@pytest.mark.parametrize("first_dropped", [0, 1])
def test_two_recorders_on_one_store_leave_one_file_in_rollback_mode(tmp_path, first_dropped):
    store = tmp_path / "replay"
    recorders = [RecordingTransport(ScriptedTransport(lambda req: "x"), store) for _ in range(2)]
    for i in range(2):
        recorders[i].send(_request(f"from recorder {i}"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["replay", "replay-shm", "replay-wal"]
    del recorders[first_dropped]
    assert len(_stored(store)) == 2  # the other recorder holds the file in WAL mode
    del recorders[0]
    assert [p.name for p in tmp_path.iterdir()] == ["replay"]
    conn = sqlite3.connect(store)
    assert conn.execute("PRAGMA journal_mode").fetchone() == ("delete",)
    conn.close()


@_FINALIZERS_RAISE_NOTHING
def test_a_replay_open_when_the_recorder_closes_leaves_one_file_in_rollback_mode(tmp_path):
    store = tmp_path / "replay"
    recorder = RecordingTransport(ScriptedTransport(lambda req: "SELECT 1"), store)
    recorder.send(_request("stored"))
    replay = ReplayTransport(store)
    del recorder  # the replay holds the file, so it stays in WAL mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["replay", "replay-shm", "replay-wal"]
    assert reply_text(replay.send(_request("stored"))) == "SELECT 1"
    del replay
    assert [p.name for p in tmp_path.iterdir()] == ["replay"]
    conn = sqlite3.connect(store)
    assert conn.execute("PRAGMA journal_mode").fetchone() == ("delete",)
    conn.close()
    assert reply_text(ReplayTransport(store).send(_request("stored"))) == "SELECT 1"


@_FINALIZERS_RAISE_NOTHING
def test_a_replay_closed_before_its_recorder_leaves_the_recorder_in_wal_mode(tmp_path):
    store = tmp_path / "replay"
    echo = ScriptedTransport(lambda req: req["messages"][0]["content"])
    recorder = RecordingTransport(echo, store)
    recorder.send(_request("before"))
    replay = ReplayTransport(store)
    assert reply_text(replay.send(_request("before"))) == "before"
    del replay  # the recorder's connection is open: the store is left as it is
    assert sorted(p.name for p in tmp_path.iterdir()) == ["replay", "replay-shm", "replay-wal"]
    recorder.send(_request("after"))
    del recorder
    assert [p.name for p in tmp_path.iterdir()] == ["replay"]
    assert sorted(_stored(store)) == sorted(request_digest(_request(c)) for c in ("before", "after"))


@_FINALIZERS_RAISE_NOTHING
def test_a_store_that_cannot_be_written_still_replays(tmp_path, monkeypatch):
    store = tmp_path / "replay"
    assert _recorder_child(store, 3, "kill") == -signal.SIGKILL  # leaves -wal and -shm
    # SQLite opens a write-protected store read-only when asked for read-write;
    # file permissions cannot show that to a superuser, so this does.
    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect", lambda database, *args, **kw: connect(
        database.replace("?mode=rw", "?mode=ro"), *args, **kw
    ))
    _replays_the_first(store, 3)  # opens and drops a replay
    assert sorted(p.name for p in tmp_path.iterdir()) == ["replay", "replay-shm", "replay-wal"]
    monkeypatch.undo()
    _replays_the_first(store, 3)
    assert [p.name for p in tmp_path.iterdir()] == ["replay"]


def test_a_replay_reads_one_snapshot_from_its_first_reply(tmp_path):
    store = tmp_path / "replay"
    recorder = RecordingTransport(ScriptedTransport(lambda req: "SELECT 1"), store)
    recorder.send(_request("before"))
    replay = ReplayTransport(store)
    assert reply_text(replay.send(_request("before"))) == "SELECT 1"
    recorder.send(_request("after"))
    with pytest.raises(ReplayMissError):
        replay.send(_request("after"))
    assert reply_text(ReplayTransport(store).send(_request("after"))) == "SELECT 1"


def test_replay_leaves_the_store_bytes_unchanged_and_adds_no_file(tmp_path):
    store = tmp_path / "replay"
    stored = _record_reply(store, _request("stored"), "SELECT 1")
    before = _files(tmp_path)
    replay = ReplayTransport(store)
    assert reply_text(replay.send(_request("stored"), stored)) == "SELECT 1"
    with pytest.raises(ReplayMissError):
        replay.send(_request("never stored"))
    assert _files(tmp_path) == before
    del replay
    assert _files(tmp_path) == before


# Records ``count`` replies; then, with "kill", prints the count and blocks
# in the next model call for the parent to kill it, and with "exit", ends
# the interpreter while the recorder is still referenced.
_RECORDER_CHILD = """
import sys
from nl2sql.llm import RecordingTransport, Sampling, build_request

store, count, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]

class Inner:
    sent = 0

    def send(self, request):
        if self.sent == count:
            print(count, flush=True)
            sys.stdin.readline()  # never answered
        self.sent += 1
        return {"choices": [{"message": {"role": "assistant", "content": str(self.sent)}}]}

recorder = RecordingTransport(Inner(), store)
for i in range(count + 5 if mode == "kill" else count):
    recorder.send(build_request("m", [{"role": "user", "content": f"q{i}"}], Sampling()))
"""


def _recorder_child(store, count, mode) -> int:
    """Runs ``_RECORDER_CHILD``; returns its exit status."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(llm.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")
    ])))
    child = subprocess.Popen(
        [sys.executable, "-c", _RECORDER_CHILD, str(store), str(count), mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    timer = threading.Timer(60, child.kill)
    timer.start()
    try:
        if mode == "kill":
            assert child.stdout.readline() == f"{count}\n"
            child.send_signal(signal.SIGKILL)
        child.communicate()
    finally:
        child.kill()
        timer.cancel()
    return child.returncode


def _replays_the_first(store, count) -> None:
    """The store answers the child's first ``count`` requests and misses the rest."""
    replay = ReplayTransport(store)
    requests = [build_request("m", [{"role": "user", "content": f"q{i}"}], Sampling())
                for i in range(count + 5)]
    assert [reply_text(replay.send(r)) for r in requests[:count]] == [
        str(i + 1) for i in range(count)
    ]
    for request in requests[count:]:
        with pytest.raises(ReplayMissError):
            replay.send(request)


def test_a_killed_recorder_loses_no_committed_reply(tmp_path):
    store = tmp_path / "replay"
    assert _recorder_child(store, 7, "kill") == -signal.SIGKILL
    _replays_the_first(store, 7)


def test_a_recorder_alive_at_exit_leaves_one_file_in_rollback_mode(tmp_path):
    store = tmp_path / "replay"
    assert _recorder_child(store, 7, "exit") == 0
    assert [p.name for p in tmp_path.iterdir()] == ["replay"]
    _replays_the_first(store, 7)


def test_endpoint_complete_returns_text_and_digest(tmp_path):
    scripted = ScriptedTransport(lambda req: "SELECT 3")
    endpoint = ModelEndpoint(role="generator", transport=scripted, model_name="m")
    text, digest = endpoint.complete([{"role": "user", "content": "q"}])
    assert text == "SELECT 3"
    assert digest == request_digest(scripted.requests[0])


def test_malformed_response_body_raises():
    with pytest.raises(TransportError):
        reply_text({"choices": []})


@pytest.mark.parametrize("content, shown", [(None, "null"), (5, "5"), (["SELECT 1"], '["SELECT 1"]')])
def test_reply_whose_content_is_no_string_raises(content, shown):
    with pytest.raises(TransportError) as err:
        reply_text({"choices": [{"message": {"content": content}}]})
    assert str(err.value) == f"malformed chat-completion response: content is {shown}, not a string"


class _FakeResponse:
    def __init__(self, status_code, body=None, text="", headers=None):
        self.status_code = status_code
        self._body = body
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _http(session):
    sleeps = []
    transport = HttpChatTransport(
        base_url="https://example.invalid/v1",
        api_key="k",
        sleeper=sleeps.append,
        session=session,
    )
    return transport, sleeps


def test_http_retries_on_5xx_then_succeeds():
    ok = {"choices": [{"message": {"role": "assistant", "content": "hi"}}]}
    session = _FakeSession([_FakeResponse(500), _FakeResponse(503), _FakeResponse(200, ok)])
    transport, sleeps = _http(session)
    assert reply_text(transport.send(_request())) == "hi"
    assert session.calls == 3
    assert sleeps == [1.0, 2.0]  # exponential backoff


_OK = {"choices": [{"message": {"role": "assistant", "content": "hi"}}]}


@pytest.mark.parametrize(
    "status, retry_after, wait",
    [
        (429, "5", 5.0),
        (503, "7", 7.0),
        (503, " 12 ", 12.0),
        (429, "0", 1.0),  # never shorter than the backoff
        (429, "3600", 60.0),  # the cap
        pytest.param(503, "9" * 400, 60.0, id="503-huge-60.0"),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 1.0),  # an HTTP-date keeps the backoff
        (429, "-5", 1.0),
        (429, "2.5", 1.0),
        (503, "\uff15", 1.0),  # a fullwidth digit is not delay-seconds
        (503, "", 1.0),
        (500, "5", 1.0),  # only 429 and 503 carry a delay
    ],
)
def test_http_retry_after_sets_the_next_wait(status, retry_after, wait):
    session = _FakeSession([
        _FakeResponse(status, headers={"Retry-After": retry_after}),
        _FakeResponse(200, _OK),
    ])
    transport, sleeps = _http(session)
    assert reply_text(transport.send(_request())) == "hi"
    assert sleeps == [wait]


def test_http_retry_after_raises_one_wait_and_the_backoff_goes_on():
    session = _FakeSession([
        _FakeResponse(500),
        _FakeResponse(429, headers={"Retry-After": "30"}),
        _FakeResponse(503, headers={"Retry-After": "1"}),
        _FakeResponse(503),
    ])
    transport, sleeps = _http(session)
    with pytest.raises(RetriesExhaustedError):
        transport.send(_request())
    assert session.calls == 4
    assert sleeps == [1.0, 30.0, 4.0]  # no wait after the last attempt


def test_http_gives_up_after_budget():
    import requests

    session = _FakeSession([requests.ConnectionError("down")] * 4)
    transport, _ = _http(session)
    with pytest.raises(RetriesExhaustedError):
        transport.send(_request())
    assert session.calls == 4


@pytest.mark.parametrize("error", ["ConnectionError", "ConnectTimeout", "ReadTimeout",
                                   "ChunkedEncodingError"])
def test_http_retries_errors_raised_once_a_connection_was_tried(error):
    import requests

    session = _FakeSession([getattr(requests.exceptions, error)("down"), _FakeResponse(200, _OK)])
    transport, sleeps = _http(session)
    assert reply_text(transport.send(_request())) == "hi"
    assert (session.calls, sleeps) == (2, [1.0])


@pytest.mark.parametrize("error", ["InvalidHeader", "InvalidURL", "TooManyRedirects"])
def test_http_other_request_errors_fail_at_once(error):
    import requests

    session = _FakeSession([getattr(requests.exceptions, error)("refused")])
    transport, sleeps = _http(session)
    with pytest.raises(TransportError) as err:
        transport.send(_request())
    assert type(err.value) is TransportError
    assert str(err.value) == "request failed: refused"
    assert (session.calls, sleeps) == (1, [])


def test_http_api_key_with_a_newline_fails_before_connecting():
    # requests refuses the header while preparing the request, so the
    # adapter, which would open the connection, is never reached.
    import requests

    class Unreachable(requests.adapters.BaseAdapter):
        def send(self, *args, **kwargs):
            raise AssertionError("a connection was attempted")

    session = requests.Session()
    session.mount("https://", Unreachable())
    sleeps = []
    transport = HttpChatTransport(
        base_url="https://example.invalid/v1", api_key="k\n", sleeper=sleeps.append,
        session=session,
    )
    with pytest.raises(TransportError, match="request failed: Invalid leading whitespace"):
        transport.send(_request())
    assert sleeps == []


def test_http_200_with_a_deeply_nested_body_fails_fast():
    import requests

    response = requests.Response()
    response.status_code, response._content = 200, b"[" * 100_000 + b"]" * 100_000
    session = _FakeSession([response])
    transport, sleeps = _http(session)
    with pytest.raises(TransportError, match=r"^non-JSON response body: maximum recursion"):
        transport.send(_request())
    assert session.calls == 1 and sleeps == []


def test_http_200_with_a_body_that_is_not_json_fails_fast():
    session = _FakeSession([_FakeResponse(200, text="<html>")])
    transport, sleeps = _http(session)
    with pytest.raises(TransportError, match=r"^non-JSON response body: no body$"):
        transport.send(_request())
    assert session.calls == 1 and sleeps == []


def test_http_non_retryable_status_fails_fast():
    session = _FakeSession([_FakeResponse(401, text="bad key")])
    transport, _ = _http(session)
    with pytest.raises(TransportError, match="401"):
        transport.send(_request())
    assert session.calls == 1


def test_http_requires_api_key(monkeypatch):
    monkeypatch.delenv("NL2SQL_API_KEY", raising=False)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    with pytest.raises(ConfigError):
        HttpChatTransport(base_url="https://example.invalid/v1")


@pytest.mark.parametrize("base_url", [
    "api.example.invalid/v1",  # no scheme
    "localhost:8000/v1",  # parses as scheme "localhost"
    "ftp://example.invalid/v1",
    "https:///v1",  # no host
    "http://[::1/v1",  # unclosed IPv6 bracket
    None,
])
def test_http_base_url_without_an_http_scheme_and_host_is_a_config_error(base_url):
    # Refused when built: no request is posted and no retry waits.
    session, sleeps = _FakeSession([]), []
    with pytest.raises(ConfigError, match="base_url must be an http or https URL"):
        HttpChatTransport(base_url=base_url, api_key="k", sleeper=sleeps.append, session=session)
    assert (session.calls, sleeps) == (0, [])


def test_replay_store_rows_are_digest_keyed(tmp_path):
    store = tmp_path / "replay"
    digest = _record_reply(store, _request("layout"), "x")
    conn = sqlite3.connect(store)
    assert conn.execute("PRAGMA user_version").fetchone() == (llm.STORE_FORMAT,)
    assert conn.execute("SELECT sql FROM sqlite_master").fetchall() == [(
        "CREATE TABLE reply(digest TEXT PRIMARY KEY, body TEXT NOT NULL) WITHOUT ROWID",
    )]
    (body,) = conn.execute("SELECT body FROM reply WHERE digest = ?", (digest,)).fetchone()
    conn.close()
    assert reply_text(json.loads(body)) == "x"
