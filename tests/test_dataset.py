from __future__ import annotations

import json

import pytest

from nl2sql.dataset import load_dataset
from nl2sql.errors import DatasetError
from nl2sql.hardness import Hardness

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
    from nl2sql.hardness import classify_hardness
    from nl2sql.sqlast import parse

    for ex in loaded.examples:
        ast = parse(ex.gold_sql, loaded.schemas[ex.db_id])
        assert classify_hardness(ast) is ex.hardness
