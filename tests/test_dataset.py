from __future__ import annotations

import dataclasses
import json
import re

import pytest

from nl2sql import dataset
from nl2sql.cli import main
from nl2sql.dataset import load_dataset
from nl2sql.errors import DatasetError
from nl2sql.hardness import Hardness, classify_hardness
from nl2sql.sqlast import parse

from conftest import DEV_EXAMPLES, make_dataset


def test_loads_every_good_example(loaded):
    assert len(loaded.examples) == len(DEV_EXAMPLES)
    assert loaded.quarantined == ()
    assert loaded.raw_count == len(DEV_EXAMPLES)


def test_examples_carry_resolved_schema_and_hardness(loaded):
    for ex in loaded.examples:
        assert ex.db_id in loaded.schemas
        assert isinstance(ex.hardness, Hardness)
    assert loaded.examples[0].id == 0
    assert loaded.examples[0].question.startswith("What is the name of the course")


def test_empty_dataset_dir_is_fatal(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(DatasetError):
        load_dataset(empty, "dev")


def test_missing_dataset_dir_is_fatal(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "nope", "dev")


def test_unknown_split_rejected(dataset_dir):
    with pytest.raises(DatasetError, match="unknown split"):
        load_dataset(dataset_dir, "test")


def test_bad_db_id_quarantined_counts_reconcile(tmp_path):
    examples = [
        {"db_id": "battle_death", "question": f"q{i}",
         "query": "SELECT name FROM ship"} for i in range(4)
    ]
    examples.insert(2, {"db_id": "no_such_db", "question": "bad", "query": "SELECT 1"})
    root = make_dataset(tmp_path / "ds", examples, db_ids=["battle_death"])
    loaded = load_dataset(root, "dev")
    assert len(loaded.examples) == 4
    assert len(loaded.quarantined) == 1
    assert loaded.quarantined[0].id == 2
    assert "unknown db_id" in loaded.quarantined[0].reason
    assert loaded.raw_count == 5


def test_unparseable_gold_quarantined_not_dropped(tmp_path):
    examples = [
        {"db_id": "battle_death", "question": "ok", "query": "SELECT name FROM ship"},
        {"db_id": "battle_death", "question": "broken", "query": "SELECT FROM WHERE"},
        {"db_id": "battle_death", "question": "ddl", "query": "DROP TABLE ship"},
        # SQLite reads the superscript two as a column name.
        {"db_id": "battle_death", "question": "digit", "query": "SELECT name FROM ship WHERE id = ²"},
    ]
    root = make_dataset(tmp_path / "ds", examples, db_ids=["battle_death"])
    loaded = load_dataset(root, "dev")
    assert len(loaded.examples) == 1
    assert len(loaded.quarantined) == 3
    reasons = [q.reason for q in loaded.quarantined]
    assert all("does not parse" in r for r in reasons)
    assert loaded.raw_count == 4


def test_malformed_schema_entry_is_fatal_with_index(tmp_path):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "tables.json").write_text(json.dumps([{"db_id": "x"}]), encoding="utf-8")
    (root / "dev.json").write_text("[]", encoding="utf-8")
    with pytest.raises(DatasetError, match="index 0"):
        load_dataset(root, "dev")


def test_train_split_file_name(tmp_path):
    examples = [{"db_id": "battle_death", "question": "q", "query": "SELECT name FROM ship"}]
    root = make_dataset(tmp_path / "ds", examples, db_ids=["battle_death"])
    (root / "dev.json").rename(root / "train_spider.json")
    loaded = load_dataset(root, "train")
    assert len(loaded.examples) == 1
    with pytest.raises(DatasetError, match="missing split file"):
        load_dataset(root, "dev")


def test_recomputing_hardness_is_stable(loaded):
    for ex in loaded.examples:
        ast = parse(ex.gold_sql, loaded.schemas[ex.db_id])
        assert classify_hardness(ast) is ex.hardness


SANK = "SELECT name FROM ship WHERE disposition_of_ship = 'sank'"
COUNT = "SELECT count(*) FROM ship"


def shared_gold_dataset(tmp_path):
    """Seven entries over three distinct golds on one database, and one gold
    text that is its own gold on each of two databases."""
    entries = [
        {"db_id": "battle_death", "question": f"q{i}", "query": query}
        for i, query in enumerate([SANK, COUNT, SANK, "SELECT FROM", SANK, COUNT, "SELECT FROM"])
    ]
    entries += [
        {"db_id": db_id, "question": "one", "query": "SELECT 1"}
        for db_id in ("battle_death", "concert_singer")
    ]
    return make_dataset(tmp_path / "ds", entries, db_ids=["battle_death", "concert_singer"])


def test_each_distinct_gold_is_parsed_once(tmp_path, monkeypatch):
    root = shared_gold_dataset(tmp_path)
    parsed = []

    def counting_parse(sql, schema):
        parsed.append((schema.db_id, sql))
        return parse(sql, schema)

    monkeypatch.setattr(dataset, "parse", counting_parse)
    loaded = load_dataset(root, "dev")
    assert sorted(parsed) == sorted([
        ("battle_death", SANK), ("battle_death", COUNT), ("battle_death", "SELECT FROM"),
        ("battle_death", "SELECT 1"), ("concert_singer", "SELECT 1"),
    ])
    # A gold that does not parse quarantines every entry that names it, alike.
    assert [q.id for q in loaded.quarantined] == [3, 6]
    assert loaded.quarantined[0].reason == loaded.quarantined[1].reason
    assert loaded.quarantined[0].reason.startswith("gold SQL does not parse: ")


def test_examples_with_one_gold_share_its_bound_tree(tmp_path):
    loaded = load_dataset(shared_gold_dataset(tmp_path), "dev")
    by_id = {ex.id: ex for ex in loaded.examples}
    assert by_id[0].gold_ast is by_id[2].gold_ast is by_id[4].gold_ast
    assert by_id[1].gold_ast is by_id[5].gold_ast
    assert by_id[0].gold_ast is not by_id[1].gold_ast
    one = [ex for ex in loaded.examples if ex.gold_sql == "SELECT 1"]
    assert one[0].gold_ast is not one[1].gold_ast
    for ex in loaded.examples:
        assert ex.gold_ast == parse(ex.gold_sql, loaded.schemas[ex.db_id])
        assert ex.hardness is classify_hardness(ex.gold_ast)
    # The tree takes no part in equality or repr.
    assert by_id[0] == dataclasses.replace(by_id[0], gold_ast=None)
    assert "gold_ast" not in repr(by_id[0])


def write_split(tmp_path, raw):
    root = make_dataset(tmp_path / "ds", [], db_ids=["battle_death"])
    (root / "dev.json").write_text(json.dumps(raw), encoding="utf-8")
    return root


GOOD_ENTRY = {"db_id": "battle_death", "question": "q", "query": "SELECT name FROM ship"}


@pytest.mark.parametrize(
    "raw, message",
    [
        (5, "top level is not a list"),
        ({"entries": []}, "top level is not a list"),
        ([1, 2], "entry at index 0: not an object"),
        ([GOOD_ENTRY, 5], "entry at index 1: not an object"),
        ([GOOD_ENTRY, {**GOOD_ENTRY, "query": 5}],
         "entry at index 1: field 'query': expected str, got int"),
        ([{**GOOD_ENTRY, "question": 7}],
         "entry at index 0: field 'question': expected str, got int"),
        ([{**GOOD_ENTRY, "db_id": None}],
         "entry at index 0: field 'db_id': expected str, got NoneType"),
    ],
)
def test_a_malformed_split_file_is_a_dataset_error(tmp_path, capsys, raw, message):
    root = write_split(tmp_path, raw)
    with pytest.raises(DatasetError, match=re.escape(message)):
        load_dataset(root, "dev")
    assert main(["ingest", "--dataset", str(root)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("dataset error: malformed split ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("tables.json", b"5", "malformed schema file"),
        ("tables.json", b'{"db_id": "battle_death"}', "malformed schema file"),
        ("tables.json", b"[\xff]", "unreadable schema file"),
        ("dev.json", b'[{"question": "caf\xe9"}]', "unreadable split file"),
    ],
)
def test_a_dataset_file_not_utf8_or_not_a_list_exits_3(tmp_path, capsys, name, content, message):
    root = write_split(tmp_path, [GOOD_ENTRY])
    (root / name).write_bytes(content)
    with pytest.raises(DatasetError, match=message):
        load_dataset(root, "dev")
    assert main(["ingest", "--dataset", str(root)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"dataset error: {message} ") and err.count("\n") == 1


def test_a_missing_key_is_still_quarantined(tmp_path):
    no_query = {k: v for k, v in GOOD_ENTRY.items() if k != "query"}
    no_db = {k: v for k, v in GOOD_ENTRY.items() if k != "db_id"}
    no_question = {k: v for k, v in GOOD_ENTRY.items() if k != "question"}
    loaded = load_dataset(write_split(tmp_path, [no_query, no_db, no_question]), "dev")
    assert [q.id for q in loaded.quarantined] == [0, 1]
    assert loaded.quarantined[0].reason.startswith("gold SQL does not parse")
    assert loaded.quarantined[1].reason == "unknown db_id ''"
    assert [(ex.id, ex.question) for ex in loaded.examples] == [(2, "")]
