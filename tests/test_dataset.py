from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import re

import pytest
from hypothesis import event, given, settings, strategies as st

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


def test_a_dataset_without_tables_json_exits_3(tmp_path, capsys):
    root = write_split(tmp_path, [GOOD_ENTRY])
    (root / "tables.json").unlink()
    assert main(["ingest", "--dataset", str(root)]) == 3
    assert capsys.readouterr().err == f"dataset error: missing schema file: {root / 'tables.json'}\n"


# battle_death has one table, ship, whose columns are at indexes 1 to 7.
@pytest.mark.parametrize(
    "added, message",
    [
        ({"table_names_original": ["Ship"]}, "duplicate table name 'Ship'"),
        ({"column_names_original": [[0, "NAME"]], "column_types": ["text"]},
         "duplicate column ship.NAME"),
        ({"column_names_original": [[1, "x"]], "column_types": ["text"]},
         "column 'x' references table index 1"),
        ({"primary_keys": [8]}, "key references column index 8"),
        ({"foreign_keys": [[2, 0]]}, "key references column index 0"),
    ],
)
def test_a_schema_entry_that_breaks_an_invariant_exits_3(tmp_path, capsys, added, message):
    root = write_split(tmp_path, [GOOD_ENTRY])
    entries = json.loads((root / "tables.json").read_text(encoding="utf-8"))
    broken = {**entries[0], "db_id": "broken"}
    for key, values in added.items():
        broken[key] = broken[key] + values
    (root / "tables.json").write_text(json.dumps([*entries, broken]), encoding="utf-8")
    assert main(["ingest", "--dataset", str(root)]) == 3
    assert capsys.readouterr().err == (
        f"dataset error: malformed schema entry at index 1: broken: {message}\n"
    )


# Each edit replaces one list of battle_death's entry.
@pytest.mark.parametrize(
    "key, edit, message",
    [
        ("table_names_original", lambda v: [5],
         "field 'table_names_original': expected str, got int"),
        ("table_names_original", lambda v: "t",
         "field 'table_names_original': expected list, got str"),
        ("column_names_original", lambda v: v + [[0, 5]],
         "field 'column_names_original': expected str, got int"),
        ("column_names_original", lambda v: v + [[0, "a", 1]],
         "field 'column_names_original': expected 2 items, got 3"),
        ("column_names_original", lambda v: v + [[0]],
         "field 'column_names_original': expected 2 items, got 1"),
        ("column_types", lambda v: v[:-1], "broken: 7 column types for 8 columns"),
        ("primary_keys", lambda v: [True], "field 'primary_keys': expected int, got bool"),
        ("foreign_keys", lambda v: [[1]], "field 'foreign_keys': expected 2 items, got 1"),
        ("foreign_keys", lambda v: [[1, 1, 1]], "field 'foreign_keys': expected 2 items, got 3"),
    ],
    ids=[
        "table-name-int", "table-names-str", "column-name-int", "column-triple", "column-single",
        "types-short", "primary-key-bool", "foreign-key-single", "foreign-key-triple",
    ],
)
def test_a_schema_entry_of_the_wrong_shape_exits_3(tmp_path, capsys, key, edit, message):
    root = write_split(tmp_path, [GOOD_ENTRY])
    entries = json.loads((root / "tables.json").read_text(encoding="utf-8"))
    broken = {**entries[0], "db_id": "broken", key: edit(entries[0][key])}
    (root / "tables.json").write_text(json.dumps([*entries, broken]), encoding="utf-8")
    assert main(["ingest", "--dataset", str(root)]) == 3
    assert capsys.readouterr().err == (
        f"dataset error: malformed schema entry at index 1: {message}\n"
    )


# Each edit replaces battle_death's entry, the only one.
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda entry: 5, "expected dict, got int"),
        (lambda entry: {**entry, "db_id": 7}, "field 'db_id': expected str, got int"),
        (lambda entry: {k: v for k, v in entry.items() if k != "column_types"},
         "missing field 'column_types'"),
    ],
    ids=["not-an-object", "int-db-id", "no-column-types"],
)
def test_a_schema_entry_error_names_the_index_and_the_field(tmp_path, capsys, edit, message):
    root = write_split(tmp_path, [GOOD_ENTRY])
    entries = json.loads((root / "tables.json").read_text(encoding="utf-8"))
    (root / "tables.json").write_text(json.dumps([edit(entries[0])]), encoding="utf-8")
    assert main(["ingest", "--dataset", str(root)]) == 3
    assert capsys.readouterr().err == (
        f"dataset error: malformed schema entry at index 0: {message}\n"
    )


def test_two_schema_entries_with_one_db_id_exit_3(tmp_path, capsys):
    root = write_split(tmp_path, [GOOD_ENTRY])
    entries = json.loads((root / "tables.json").read_text(encoding="utf-8"))
    renamed = {**entries[0], "table_names_original": ["vessel"]}
    (root / "tables.json").write_text(json.dumps([*entries, renamed]), encoding="utf-8")
    assert main(["ingest", "--dataset", str(root)]) == 3
    assert capsys.readouterr().err == (
        "dataset error: malformed schema entry at index 1: duplicate db_id 'battle_death'\n"
    )


@pytest.mark.parametrize(
    "name, message",
    [("tables.json", "unreadable schema file"), ("dev.json", "unreadable split file")],
)
def test_a_deeply_nested_dataset_file_exits_3(tmp_path, capsys, name, message):
    root = write_split(tmp_path, [GOOD_ENTRY])
    (root / name).write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["ingest", "--dataset", str(root)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"dataset error: {message} {root / name}: maximum recursion depth")
    assert err.count("\n") == 1


def test_a_gold_nested_past_the_parser_bound_is_quarantined(tmp_path):
    deep = {**GOOD_ENTRY, "query": "SELECT " + "(" * 10_000 + "1" + ")" * 10_000}
    loaded = load_dataset(write_split(tmp_path, [GOOD_ENTRY, deep]), "dev")
    assert [ex.id for ex in loaded.examples] == [0]
    assert [q.id for q in loaded.quarantined] == [1]
    assert "query nests deeper than 100 levels" in loaded.quarantined[0].reason


# A value of each JSON type, drawn in place of a value of another type.
_JSON_VALUES = {
    int: st.integers(-2, 9),
    float: st.floats(-10, 10),
    bool: st.booleans(),
    type(None): st.none(),
    str: st.text(max_size=4),
    list: st.lists(st.integers(-2, 9) | st.text(max_size=3), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(-2, 9), max_size=2),
}


def _paths(value, path=()):
    """The path of ``value`` and of every value inside it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(item, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


_DEEP = "\0deep"  # stands for a value nested far past json's recursion limit


def broken_json(data, value) -> bytes:
    """``value`` as JSON text, broken one way drawn from ``data``: a value of
    another JSON type, NaN or Infinity, or a deeply nested list in place of
    ``value`` or a value inside it; a key dropped; a byte that is not UTF-8
    inserted; or the text cut short."""
    box = [copy.deepcopy(value)]
    paths = list(_paths(box))[1:]
    how = data.draw(st.sampled_from(["retype", "nan", "deep", "drop", "bytes", "cut"]))
    event(how)
    if how == "drop":
        path = data.draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        del _at(box, path[:-1])[path[-1]]
    elif how in ("retype", "nan", "deep"):
        path = data.draw(st.sampled_from(paths))
        if how == "retype":
            kinds = [kind for kind in _JSON_VALUES if kind is not type(_at(box, path))]
            new = data.draw(st.sampled_from(kinds).flatmap(_JSON_VALUES.get))
        elif how == "nan":
            new = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        else:
            new = _DEEP
        _at(box, path[:-1])[path[-1]] = new
    text = json.dumps(box[0]).replace(json.dumps(_DEEP), "[" * 100_000 + "]" * 100_000).encode()
    if how == "bytes":
        cut = data.draw(st.integers(0, len(text)))
        return text[:cut] + b"\xff" + text[cut:]
    if how == "cut":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    return text


def cli_result(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and what it wrote to standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_one_documented_line(code, err, prefixes):
    """``code`` is one of ``prefixes``' exit codes; a code with a prefix
    wrote one stderr line that starts with it, a code without one wrote
    nothing."""
    assert code in prefixes, err
    if prefixes[code] is None:
        assert err == ""
    else:
        assert err.startswith(prefixes[code]) and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    battle_death = [ex for ex in [GOOD_ENTRY, *DEV_EXAMPLES] if ex["db_id"] == "battle_death"]
    return make_dataset(tmp_path_factory.mktemp("fuzz"), battle_death)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_ingest_of_a_broken_tables_entry_exits_0_or_3(fuzz_root, data):
    """battle_death's valid entry broken one way: a value of another JSON
    type at any path, a key dropped, or a pair one item longer or shorter."""
    tables = fuzz_root / "tables.json"
    valid = tables.read_text(encoding="utf-8")
    entries = json.loads(valid)  # the entry itself is at path (0,)
    paths = list(_paths(entries))[1:]
    how = data.draw(st.sampled_from(["retype", "drop", "resize"]))
    if how == "retype":
        path = data.draw(st.sampled_from(paths))
        kinds = [kind for kind in _JSON_VALUES if kind is not type(_at(entries, path))]
        _at(entries, path[:-1])[path[-1]] = data.draw(
            st.sampled_from(kinds).flatmap(_JSON_VALUES.get)
        )
    elif how == "drop":
        path = data.draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        del _at(entries, path[:-1])[path[-1]]
    else:
        values = [_at(entries, p) for p in paths]
        pair = data.draw(st.sampled_from(
            [v for v in values if isinstance(v, list) and len(v) == 2]
        ))
        if data.draw(st.booleans()):
            pair.append(data.draw(st.integers(-2, 9) | st.text(max_size=3)))
        else:
            pair.pop()
    out, err = io.StringIO(), io.StringIO()
    try:
        tables.write_text(json.dumps(entries), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["ingest", "--dataset", str(fuzz_root)])
    finally:
        tables.write_text(valid, encoding="utf-8")
    assert code in (0, 3)
    if code == 3:
        assert err.getvalue().startswith("dataset error: ")
        assert err.getvalue().count("\n") == 1


_INGEST_EXITS = {0: None, 3: "dataset error: "}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_ingest_of_a_broken_tables_file_exits_0_or_3(fuzz_root, data):
    """The fuzz above plus what it leaves out: NaN, deep nesting, bytes that
    are not UTF-8 and truncation, each anywhere in the file."""
    tables = fuzz_root / "tables.json"
    valid = tables.read_bytes()
    try:
        tables.write_bytes(broken_json(data, json.loads(valid)))
        code, err = cli_result(["ingest", "--dataset", str(fuzz_root)])
    finally:
        tables.write_bytes(valid)
    assert_one_documented_line(code, err, _INGEST_EXITS)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_ingest_of_a_broken_split_file_exits_0_or_3(fuzz_root, data):
    split = fuzz_root / "dev.json"
    valid = split.read_bytes()
    try:
        split.write_bytes(broken_json(data, json.loads(valid)))
        code, err = cli_result(["ingest", "--dataset", str(fuzz_root)])
    finally:
        split.write_bytes(valid)
    assert_one_documented_line(code, err, _INGEST_EXITS)


def test_columns_of_an_unknown_table_are_empty(schemas):
    assert schemas["concert_singer"].columns_of("nope") == ()
    assert schemas["concert_singer"].columns_of("SINGER") == ("singer_id", "name", "country", "age")


def test_a_missing_key_is_still_quarantined(tmp_path):
    no_query = {k: v for k, v in GOOD_ENTRY.items() if k != "query"}
    no_db = {k: v for k, v in GOOD_ENTRY.items() if k != "db_id"}
    no_question = {k: v for k, v in GOOD_ENTRY.items() if k != "question"}
    loaded = load_dataset(write_split(tmp_path, [no_query, no_db, no_question]), "dev")
    assert [q.id for q in loaded.quarantined] == [0, 1]
    assert loaded.quarantined[0].reason.startswith("gold SQL does not parse")
    assert loaded.quarantined[1].reason == "unknown db_id ''"
    assert [(ex.id, ex.question) for ex in loaded.examples] == [(2, "")]
