from __future__ import annotations

import dataclasses
import json
import logging

import pytest

from nl2sql.corpus import emit_chat_corpus, emit_skeleton_corpus, skeletonize

from conftest import GROUPED_BY_NAME_SQL


@pytest.mark.parametrize(
    "sql,expected",
    [
        ("SELECT name FROM t WHERE id = 3", "SELECT _ FROM _ WHERE _ = _"),
        ("SELECT count(*) FROM head WHERE age > 56", "SELECT count(_) FROM _ WHERE _ > _"),
        ("SELECT a, b FROM t ORDER BY c DESC LIMIT 5", "SELECT _, _ FROM _ ORDER BY _ DESC LIMIT _"),
        ("SELECT T1.x FROM t AS T1", "SELECT _ FROM _ AS _"),
        ("SELECT x FROM t WHERE y IN (1, 2)", "SELECT _ FROM _ WHERE _ IN (_, _)"),
        ("SELECT x FROM t WHERE n = 'a b'", "SELECT _ FROM _ WHERE _ = _"),
        ("SELECT name FROM t;", "SELECT _ FROM _"),
    ],
)
def test_skeleton_rule(sql, expected):
    assert skeletonize(sql) == expected


def test_skeleton_placeholder_count_matches_replaced_slots():
    skeleton = skeletonize("SELECT name FROM t WHERE id = 3")
    assert skeleton.count("_") == 4  # name, t, id, 3


def test_skeleton_keeps_keywords_and_operators():
    skeleton = skeletonize(GROUPED_BY_NAME_SQL)
    for kw in ("SELECT", "FROM", "JOIN", "ON", "GROUP BY", "ORDER BY", "DESC", "LIMIT"):
        assert kw in skeleton
    assert "count(_)" in skeleton


def test_skeletons_never_leak_identifiers_or_literals(schemas):
    import re
    from helpers import generate_corpus
    from nl2sql.sqlast.tokens import KEYWORDS

    for db_id, sql in generate_corpus(schemas):
        skeleton = skeletonize(sql)
        assert skeletonize(sql) == skeleton  # deterministic
        for word in re.findall(r"[A-Za-z][A-Za-z0-9_]*", skeleton):
            low = word.lower()
            # only keywords and function names survive skeletonization
            assert low in KEYWORDS or f"{word}(" in skeleton, (sql, skeleton, word)
        assert "'" not in skeleton
        assert not re.search(r"\b\d+\b", skeleton), (sql, skeleton)


def test_skeleton_corpus_has_header_and_records(tmp_path, loaded):
    out = tmp_path / "skeleton.jsonl"
    n = emit_skeleton_corpus(loaded.examples, loaded.schemas, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert n == len(loaded.examples)
    header = json.loads(lines[0])
    assert header == {"format": "skeleton-corpus", "version": 1}
    assert len(lines) == n + 1
    first = json.loads(lines[1])
    assert set(first) == {"id", "db_id", "prompt", "response"}
    skeleton, _, sql = first["response"].partition(" ||| ")
    assert "_" in skeleton
    assert sql == loaded.examples[0].gold_sql
    assert loaded.examples[0].question in first["prompt"]


def test_a_gold_that_does_not_tokenize_is_skipped_with_a_warning(tmp_path, loaded, caplog):
    good = loaded.examples[0]
    bad = dataclasses.replace(good, id=99, gold_sql="SELECT 'x")
    out = tmp_path / "skeleton.jsonl"
    with caplog.at_level(logging.WARNING, logger="nl2sql.corpus"):
        assert emit_skeleton_corpus([bad, good], loaded.schemas, out) == 1
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [r["id"] for r in records] == [good.id]
    assert caplog.messages == [
        "skipping example 99: unterminated string literal (at offset 7)"
    ]


def test_empty_skeleton_corpus_is_header_only(tmp_path, loaded):
    out = tmp_path / "empty.jsonl"
    n = emit_skeleton_corpus([], loaded.schemas, out)
    assert n == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["format"] == "skeleton-corpus"


def test_chat_corpus_shape(tmp_path, loaded):
    out = tmp_path / "chat.jsonl"
    n = emit_chat_corpus(loaded.examples, loaded.schemas, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert n == len(lines) == len(loaded.examples)
    record = json.loads(lines[0])
    roles = [m["role"] for m in record["messages"]]
    assert roles == ["system", "user", "assistant"]
    assert record["messages"][2]["content"] == loaded.examples[0].gold_sql
    # the schema block lists every table of the example's database
    user = record["messages"][0 + 1]["content"]
    for table, _cols in loaded.schemas[loaded.examples[0].db_id].tables:
        assert f"# {table}(" in user


def test_chat_corpus_with_large_schema_is_complete(tmp_path, loaded):
    cars_examples = [ex for ex in loaded.examples if ex.db_id == "car_1"]
    out = tmp_path / "cars.jsonl"
    emit_chat_corpus(cars_examples, loaded.schemas, out)
    record = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    user = record["messages"][1]["content"]
    for table in ("continents", "countries", "car_makers", "model_list", "car_names", "cars_data"):
        assert f"# {table}(" in user


def test_empty_chat_corpus_is_empty_file(tmp_path, loaded):
    out = tmp_path / "empty.jsonl"
    n = emit_chat_corpus([], loaded.schemas, out)
    assert n == 0
    assert out.read_text(encoding="utf-8") == ""


def test_emitters_are_deterministic(tmp_path, loaded):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    emit_skeleton_corpus(loaded.examples, loaded.schemas, a)
    emit_skeleton_corpus(loaded.examples, loaded.schemas, b)
    assert a.read_bytes() == b.read_bytes()
    emit_chat_corpus(loaded.examples, loaded.schemas, a)
    emit_chat_corpus(loaded.examples, loaded.schemas, b)
    assert a.read_bytes() == b.read_bytes()
