from __future__ import annotations

import json
import os
import re

import pytest

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

from helpers import ScriptedTransport


def _request(content="hi"):
    return build_request("m", [{"role": "user", "content": content}], Sampling())


def _record_reply(store_dir, request, text) -> str:
    """Record ``text`` as the reply to ``request``; returns its digest."""
    RecordingTransport(ScriptedTransport(lambda _: text), store_dir).send(request)
    return request_digest(request)


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


def _counting_digests(monkeypatch) -> list[dict]:
    seen = []
    original = llm.request_digest

    def counting(request):
        seen.append(request)
        return original(request)

    monkeypatch.setattr(llm, "request_digest", counting)
    return seen


def test_endpoint_digests_once_per_call_over_replay(tmp_path, monkeypatch):
    messages = [[{"role": "user", "content": f"q{i}"}] for i in range(3)]
    stored = [_record_reply(tmp_path, build_request("m", m, Sampling()), f"SELECT {i}")
              for i, m in enumerate(messages)]
    seen = _counting_digests(monkeypatch)
    endpoint = ModelEndpoint(role="generator", transport=ReplayTransport(tmp_path), model_name="m")
    results = [endpoint.complete(m) for m in messages]
    assert results == [(f"SELECT {i}", d) for i, d in enumerate(stored)]
    assert len(seen) == 3


def test_endpoint_digests_once_per_call_while_recording(tmp_path, monkeypatch):
    seen = _counting_digests(monkeypatch)
    scripted = ScriptedTransport(lambda req: "SELECT 4")
    endpoint = ModelEndpoint(
        role="generator", transport=RecordingTransport(scripted, tmp_path), model_name="m"
    )
    digests = [endpoint.complete([{"role": "user", "content": f"q{i}"}])[1] for i in range(3)]
    assert len(seen) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{d}.json" for d in digests)


def test_transports_key_on_the_digest_they_are_given(tmp_path):
    request = _request("keyed")
    RecordingTransport(ScriptedTransport(lambda req: "SELECT 5"), tmp_path).send(request, "k")
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
    assert reply_text(ReplayTransport(tmp_path).send(request, "k")) == "SELECT 5"
    with pytest.raises(ReplayMissError):
        ReplayTransport(tmp_path).send(request)


def test_replay_round_trip(tmp_path):
    request = _request("stored")
    _record_reply(tmp_path, request, "SELECT 1")
    transport = ReplayTransport(tmp_path)
    assert reply_text(transport.send(request)) == "SELECT 1"


def _miss_message(request) -> str:
    head = repr(request["messages"][-1]["content"])[:120]
    digest = request_digest(request)
    return f"no replay fixture for request digest {digest}: last message starts {head}"


def test_replay_miss_is_loud(tmp_path):
    request = _request("never stored " * 20)
    with pytest.raises(ReplayMissError) as err:
        ReplayTransport(tmp_path).send(request)
    assert str(err.value) == _miss_message(request)
    assert err.value.digest == request_digest(request)


def test_a_directory_under_the_digest_name_is_a_miss(tmp_path):
    request = _request("a directory")
    (tmp_path / f"{request_digest(request)}.json").mkdir()
    with pytest.raises(ReplayMissError) as err:
        ReplayTransport(tmp_path).send(request)
    assert str(err.value) == _miss_message(request)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_a_fifo_under_the_digest_name_is_a_miss(tmp_path):
    request = _request("a fifo")
    os.mkfifo(tmp_path / f"{request_digest(request)}.json")
    with pytest.raises(ReplayMissError):
        ReplayTransport(tmp_path).send(request)


@pytest.mark.parametrize("store", ["missing", "missing/deeper", "a-file/below"])
def test_a_missing_store_directory_is_a_miss(tmp_path, store):
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    request = _request("no store")
    with pytest.raises(ReplayMissError) as err:
        ReplayTransport(tmp_path / store).send(request)
    assert str(err.value) == _miss_message(request)


def test_non_utf8_replay_fixture_is_a_transport_error_naming_the_file(tmp_path):
    request = _request("stored")
    digest = _record_reply(tmp_path, request, "SELECT 1")
    path = tmp_path / f"{digest}.json"
    path.write_bytes(b'{"choices": "\xff"}')
    with pytest.raises(TransportError) as err:
        ReplayTransport(tmp_path).send(request)
    assert str(err.value) == (
        f"corrupt replay fixture {path}: 'utf-8' codec can't decode byte 0xff in position 13:"
        " invalid start byte"
    )


def test_truncated_replay_fixture_is_a_transport_error(tmp_path):
    request = _request("stored")
    digest = _record_reply(tmp_path, request, "SELECT 1")
    path = tmp_path / f"{digest}.json"
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(TransportError, match=f"corrupt replay fixture {re.escape(str(path))}"):
        ReplayTransport(tmp_path).send(request)


def test_recording_produces_replayable_store(tmp_path):
    scripted = ScriptedTransport(lambda req: "SELECT 2")
    recorder = RecordingTransport(scripted, tmp_path)
    request = _request("record me")
    body = recorder.send(request)
    assert reply_text(body) == "SELECT 2"
    replay = ReplayTransport(tmp_path)
    assert reply_text(replay.send(request)) == "SELECT 2"


def test_endpoint_complete_returns_text_and_digest(tmp_path):
    scripted = ScriptedTransport(lambda req: "SELECT 3")
    endpoint = ModelEndpoint(role="generator", transport=scripted, model_name="m")
    text, digest = endpoint.complete([{"role": "user", "content": "q"}])
    assert text == "SELECT 3"
    assert digest == request_digest(scripted.requests[0])


def test_malformed_response_body_raises():
    with pytest.raises(TransportError):
        reply_text({"choices": []})


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


def test_replay_store_files_are_digest_named(tmp_path):
    request = _request("layout")
    digest = _record_reply(tmp_path, request, "x")
    assert (tmp_path / f"{digest}.json").is_file()
    body = json.loads((tmp_path / f"{digest}.json").read_text())
    assert reply_text(body) == "x"
