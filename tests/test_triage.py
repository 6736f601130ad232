from __future__ import annotations

import sqlite3
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from nl2sql import execution
from nl2sql.execution import OutcomeMemo, execute, normalize_cell
from nl2sql.schema import DatabaseSchema
from nl2sql.sqlast import AliasRef, Literal, SelectItem, canonicalize, diff, parse, to_sql
from nl2sql.triage import Category, suspect_gold_check, triage_report, TriageVerdict

from conftest import (
    BELOW_AVERAGE_CARS_SQL,
    CARTESIAN_GOLD_SQL,
    EXTRA_JOIN_CARS_SQL,
    GROUPED_BY_ID_SQL,
    GROUPED_BY_NAME_SQL,
)
from helpers import alias_permuted_sql, score_pairs, tie_test, triage_sql as run_triage


def test_alias_only_variant_scores_correct_without_a_verdict(schemas):
    # Equal canonical forms, equivalent tables: ``score`` never triages it.
    schema = schemas["concert_singer"]
    gold = (
        "SELECT T2.name, T2.capacity FROM concert AS T1 "
        "JOIN stadium AS T2 ON T1.stadium_id = T2.stadium_id "
        "WHERE T1.year >= 2014 GROUP BY T2.stadium_id ORDER BY count(*) DESC LIMIT 1"
    )
    pred = alias_permuted_sql(gold, schema, seed=7)
    assert canonicalize(parse(pred, schema)) == canonicalize(parse(gold, schema))
    report = score_pairs([("concert_singer", pred, gold)], schemas)
    assert (report.overall, report.verdicts) == (1.0, {})


@pytest.mark.parametrize("pred, gold, cause", [
    # 51 against 51.5: an integral float divisor keeps the division exact.
    ("SELECT sum(age) / 2 FROM singer", "SELECT sum(age) / 2.0 FROM singer",
     (Category.SELECT_COLUMNS, "WrongColumn")),
    # After the ``*``, position 2 is ``name``, not the item ``age``.
    ("SELECT *, age FROM singer ORDER BY 2 DESC LIMIT 1",
     "SELECT *, age FROM singer ORDER BY age DESC LIMIT 1",
     (Category.QUERY_STRUCTURE, "ClauseShape")),
])
def test_a_model_error_the_canonical_form_once_hid_is_not_blamed_on_the_dataset(
    schemas, pred, gold, cause
):
    schema = schemas["concert_singer"]
    verdict = run_triage(pred, gold, schema)
    assert (verdict.category, verdict.subtag, verdict.confidence) == (*cause, "definite")


def test_grouped_queries_triaged_as_tie_ambiguity(schemas):
    schema = schemas["student_course"]
    verdict = run_triage(GROUPED_BY_ID_SQL, GROUPED_BY_NAME_SQL, schema)
    assert verdict.category is Category.DATASET_INCONSISTENCY
    assert verdict.subtag == "TieAmbiguity"
    assert verdict.confidence == "heuristic"


SINGER_TIE_GOLD = "SELECT name FROM singer ORDER BY country DESC LIMIT 1"


@pytest.mark.parametrize("pred, cause", [
    # Another select list: the key ties, but the rows the cut keeps differ.
    ("SELECT age FROM singer ORDER BY country DESC LIMIT 1",
     (Category.SELECT_COLUMNS, "WrongColumn")),
    ("SELECT name, age FROM singer ORDER BY country DESC LIMIT 1",
     (Category.SELECT_COLUMNS, "WrongColumn")),
    ("SELECT country FROM singer GROUP BY country ORDER BY country DESC LIMIT 1",
     (Category.GROUP_BY, None)),
    # The gold's select list: a tie on 'us' at the cut makes either row right.
    ("SELECT name FROM singer WHERE age < 40 ORDER BY country DESC LIMIT 1",
     (Category.DATASET_INCONSISTENCY, "TieAmbiguity")),
    ("SELECT name FROM singer ORDER BY country DESC, name DESC LIMIT 1",
     (Category.DATASET_INCONSISTENCY, "TieAmbiguity")),
])
def test_a_tie_is_the_datasets_only_when_the_select_lists_agree(schemas, pred, cause):
    schema = schemas["concert_singer"]
    assert tie_test(parse(pred, schema), parse(SINGER_TIE_GOLD, schema), schema) is True
    verdict = run_triage(pred, SINGER_TIE_GOLD, schema)
    assert (verdict.category, verdict.subtag) == cause


def test_tie_test_true_on_five_way_tie(schemas):
    schema = schemas["student_course"]
    assert (
        tie_test(parse(GROUPED_BY_ID_SQL, schema), parse(GROUPED_BY_NAME_SQL, schema), schema)
        is True
    )


def test_tie_test_false_on_strict_ordering_keys(schemas):
    schema = schemas["concert_singer"]
    pred = "SELECT name FROM stadium ORDER BY capacity DESC LIMIT 1"
    gold = "SELECT location FROM stadium ORDER BY capacity DESC LIMIT 1"
    assert tie_test(parse(pred, schema), parse(gold, schema), schema) is False


def test_tie_test_not_applicable_without_limit(schemas):
    schema = schemas["concert_singer"]
    pred = "SELECT name FROM stadium ORDER BY capacity DESC"
    gold = "SELECT name FROM stadium ORDER BY capacity DESC LIMIT 1"
    assert tie_test(parse(pred, schema), parse(gold, schema), schema) is None


def full_scan_tie_rule(pred_ast, gold_ast, schema):
    """The reference tie rule: read every ordered row, count the boundary ties.

    Both queries run without LIMIT, with the first ordering key appended: a
    positional or alias key is replaced by the item it names, and a compound
    query is wrapped as a FROM subquery ordered by its key column. The cut is
    ambiguous when the rows tied with the gold's row k (its first occurrence
    onwards) reach past rank k.
    """
    if not (pred_ast.order_by and pred_ast.limit is not None):
        return None
    if not (gold_ast.order_by and gold_ast.limit is not None):
        return None
    if pred_ast.limit != gold_ast.limit or pred_ast.limit == 0:
        return None
    k = gold_ast.limit

    def ordering_values(ast):
        order = ast.order_by[0]
        key = order.expr
        if isinstance(key, Literal):
            key = ast.items[key.value - 1].expr
        if isinstance(key, AliasRef):
            key = ast.items[key.index].expr
        if ast.set_op is None:
            sql = to_sql(replace(ast, items=ast.items + (SelectItem(expr=key),), limit=None))
        else:
            body = to_sql(replace(ast, order_by=(), limit=None))
            direction = "DESC" if order.descending else "ASC"
            sql = f"SELECT *, {key.column} FROM ({body}) ORDER BY {key.column} {direction}"
        table = execute(sql, schema).table
        if table is None or table.truncated:
            return None
        return [normalize_cell(row[-1]) for row in table.rows]

    pred_values = ordering_values(pred_ast)
    gold_values = ordering_values(gold_ast)
    if pred_values is None or gold_values is None:
        return False
    if len(pred_values) < k or len(gold_values) < k:
        return False
    boundary = gold_values[k - 1]
    if pred_values[k - 1] != boundary:
        return False
    return gold_values.index(boundary) + gold_values.count(boundary) > k


def _keys_db(path, keys):
    """A table t(id, v) whose untyped column v holds ``keys`` as given."""
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (id INTEGER, v)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", list(enumerate(keys)))
    conn.commit()
    conn.close()
    return DatabaseSchema(
        db_id="keys", tables=(("t", (("id", "number"), ("v", "text"))),), db_path=path
    )


# Keys on which equal cells are adjacent in SQLite's BINARY sort order: NULL,
# small ints, floats below 10**7 (some integral, some a hair apart so they
# round equal at 7 significant digits) and case-distinct text.
tie_keys = st.one_of(
    st.none(),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([0.5, 0.5 + 1e-12, 0.5 - 1e-12, 2.0, 2.0 + 1e-10, 1.25, 1e6 + 0.3]),
    st.sampled_from(["a", "b", "B", "a "]),
)


def _gold_sql(form, order, k, split):
    """The gold of the tie tests, ordered by the key column v of t."""
    if form == "positional":
        return f"SELECT id, v FROM t ORDER BY 2 {order} LIMIT {k}"
    if form == "alias":
        return f"SELECT id, v AS w FROM t ORDER BY w {order} LIMIT {k}"
    if form == "alias after *":
        # The ``*`` expands to (id, v), so w is column 3, not item 2's column.
        return f"SELECT *, id AS i, v AS w FROM t ORDER BY w {order} LIMIT {k}"
    if form == "compound":
        return (
            f"SELECT id, v FROM t WHERE id < {split} UNION ALL "
            f"SELECT id, v FROM t WHERE id >= {split} ORDER BY v {order} LIMIT {k}"
        )
    return f"SELECT id FROM t ORDER BY v {order} LIMIT {k}"


def _pred_sql(form, key, order, k, pred_min_id):
    """The prediction of the tie tests: the gold's rows filtered by id, or
    the gold's own rows with a tie-breaker after the key."""
    if form == "tie-breaker":
        return f"SELECT v FROM t ORDER BY {key} {order}, id DESC LIMIT {k}"
    return f"SELECT v FROM t WHERE id >= {pred_min_id} ORDER BY {key} {order} LIMIT {k}"


@contextmanager
def counted_executions():
    """Count the real executions made inside the block."""
    with mock.patch.object(execution, "execute", wraps=execution.execute) as counted:
        yield counted


@settings(max_examples=300)
@given(
    keys=st.lists(tie_keys, max_size=9),
    descending=st.booleans(),
    k_offset=st.integers(min_value=0, max_value=10),
    pred_min_id=st.integers(min_value=0, max_value=2),
    gold_form=st.sampled_from(["key", "positional", "compound", "alias", "alias after *"]),
    split=st.integers(min_value=0, max_value=9),
    pred_form=st.sampled_from(["filtered", "tie-breaker"]),
)
# A tie that straddles the cut, one that ends exactly at it, one past it.
@example(
    keys=[1, 2, 2, 2, 3], descending=False, k_offset=1, pred_min_id=0, gold_form="key", split=0,
    pred_form="filtered",
)
@example(
    keys=[1, 2, 2, 3], descending=False, k_offset=2, pred_min_id=0, gold_form="key", split=0,
    pred_form="filtered",
)
@example(
    keys=[0.5, 0.5 + 1e-12, "a"], descending=True, k_offset=0, pred_min_id=0, gold_form="key",
    split=0, pred_form="filtered",
)
# A key aliased after a ``*``, whose column the ``*`` moves.
@example(
    keys=[1, 2, 2, 2, 3], descending=False, k_offset=1, pred_min_id=0,
    gold_form="alias after *", split=0, pred_form="filtered",
)
# The gold's own rows with a tie-breaker: the tie at the cut, and none.
@example(
    keys=[1, 2, 2, 2, 3], descending=False, k_offset=1, pred_min_id=0, gold_form="key", split=0,
    pred_form="tie-breaker",
)
@example(
    keys=[1, 2, 3], descending=True, k_offset=0, pred_min_id=0, gold_form="key", split=0,
    pred_form="tie-breaker",
)
def test_tie_rule_agrees_with_the_full_scan_rule(
    keys, descending, k_offset, pred_min_id, gold_form, split, pred_form
):
    k = 1 + k_offset % (len(keys) + 1)  # 1 .. len + 1
    order = "DESC" if descending else "ASC"
    gold = _gold_sql(gold_form, order, k, split)
    # A positional gold is paired with a positional prediction.
    key = "1" if gold_form == "positional" else "v"
    pred = _pred_sql(pred_form, key, order, k, pred_min_id)
    # The gold's own rows re-sorted skip the prediction's probe against any
    # simple gold: its canonical key is the column v, however it is written.
    probes = 1 if pred_form == "tie-breaker" and gold_form != "compound" else 2
    with tempfile.TemporaryDirectory() as tmp:
        schema = _keys_db(Path(tmp) / "keys.sqlite", keys)
        pred_ast, gold_ast = parse(pred, schema), parse(gold, schema)
        expected = full_scan_tie_rule(pred_ast, gold_ast, schema)
        pred_table, gold_table = (execute(sql, schema).table for sql in (pred, gold))
        # Without the prediction's table, as for a prediction that did not run.
        with counted_executions() as unhanded:
            assert tie_test(pred_ast, gold_ast, schema, None, gold_table) is expected
        assert unhanded.call_count == 2
        with counted_executions() as handed:
            assert tie_test(pred_ast, gold_ast, schema, pred_table, gold_table) is expected
        assert handed.call_count == probes


# Sorted keys 1, 2 | 2, 2, 3: LIMIT 2 cuts through the tie on 2.
TIED_AT_TWO = [1, 2, 2, 2, 3]
KEY_GOLD = "SELECT id FROM t ORDER BY v LIMIT 2"
TIE_BREAKER_PRED = "SELECT v FROM t ORDER BY v, id DESC LIMIT 2"
# A compound whose left arm alone has the prediction's FROM, WHERE and key.
DOUBLED_GOLD = "SELECT id, v FROM t UNION ALL SELECT id, v FROM t ORDER BY v LIMIT 2"


@pytest.mark.parametrize(
    "pred, gold, handed_table",
    [
        ("SELECT v FROM t WHERE id >= 1 ORDER BY v LIMIT 2", KEY_GOLD, True),
        ("SELECT DISTINCT v FROM t ORDER BY v LIMIT 2", KEY_GOLD, True),
        ("SELECT v FROM t GROUP BY v ORDER BY v LIMIT 2", KEY_GOLD, True),
        ("SELECT v, count(*) FROM t ORDER BY v LIMIT 2", KEY_GOLD, True),
        ("SELECT v FROM t ORDER BY v + 0 LIMIT 2", KEY_GOLD, True),
        ("SELECT v FROM t ORDER BY v DESC LIMIT 2", KEY_GOLD, True),
        # SQLite sorts on the output alias, not on the column it shadows.
        ("SELECT -v AS v FROM t ORDER BY v LIMIT 2", KEY_GOLD, True),
        (TIE_BREAKER_PRED, DOUBLED_GOLD, True),
        # A prediction that failed in the engine hands over no table.
        (TIE_BREAKER_PRED, KEY_GOLD, False),
    ],
    ids=[
        "other WHERE", "DISTINCT", "GROUP BY", "aggregate item", "expression key",
        "opposite direction", "alias-shadowed key", "compound gold", "no prediction table",
    ],
)
def test_tie_rule_leaves_other_shapes_to_both_probes(tmp_path, pred, gold, handed_table):
    schema = _keys_db(tmp_path / "keys.sqlite", TIED_AT_TWO)
    pred_ast, gold_ast = parse(pred, schema), parse(gold, schema)
    unhanded = tie_test(pred_ast, gold_ast, schema)
    pred_table = execute(pred, schema).table if handed_table else None
    gold_table = execute(gold, schema).table
    with counted_executions() as counted:
        assert tie_test(pred_ast, gold_ast, schema, pred_table, gold_table) is unhanded
    assert counted.call_count == 2


def _rows_db(path, rows, key_type=""):
    """A table t(id, v, w) holding the (v, w) pairs of ``rows``, with id
    counting from 0; ``key_type`` declares the key column v."""
    conn = sqlite3.connect(path)
    conn.execute(f"CREATE TABLE t (id INTEGER, v {key_type}, w)")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?)", [(i, *row) for i, row in enumerate(rows)])
    conn.commit()
    conn.close()
    return DatabaseSchema(
        db_id="rows",
        tables=(("t", (("id", "number"), ("v", "text"), ("w", "number"))),),
        db_path=path,
    )


def _tables_and_probe_answers(schema, pred, gold):
    """The tie test handed both tables, whether it ran no execution, and
    the test with both probes forced, as for a prediction with no table."""
    pred_ast, gold_ast = parse(pred, schema), parse(gold, schema)
    pred_table, gold_table = (execute(sql, schema).table for sql in (pred, gold))
    with counted_executions() as counted:
        handed = tie_test(pred_ast, gold_ast, schema, pred_table, gold_table)
    probed = tie_test(pred_ast, gold_ast, schema, None, gold_table)
    return handed, counted.call_count == 0, probed


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    rows=st.lists(st.tuples(tie_keys, st.sampled_from([0, 1, None])), max_size=8),
    k_offset=st.integers(min_value=0, max_value=9),
    descending=st.booleans(),
    items=st.sampled_from(["w", "v, w", "id", "w, id"]),
    where=st.sampled_from(["", "WHERE id >= 1"]),
    gold_tail=st.sampled_from(["", ", w", ", id"]),
    breaker=st.sampled_from(["id DESC", "w DESC", "w DESC, id DESC"]),
)
# Keys 1, 2 | 2, 2, 3 at LIMIT 2: the tie runs past the cut, and the rows kept differ.
@example(
    rows=[(1, 0), (2, 0), (2, 1), (2, 1), (3, 0)], k_offset=1, descending=False, items="w",
    where="", gold_tail="", breaker="w DESC",
)
# The same tie, whose tied rows print alike: both keep equal rows.
@example(
    rows=[(1, 0), (2, 1), (2, 1), (2, 1), (3, 0)], k_offset=1, descending=False, items="w",
    where="", gold_tail="", breaker="id DESC",
)
# Keys 1, 1 | 2: a tie inside the cut, kept in other orders.
@example(
    rows=[(1, 0), (1, 1), (2, 0)], k_offset=1, descending=False, items="w", where="",
    gold_tail="", breaker="w DESC",
)
# NULL keys tie at the cut, and fewer rows than k.
@example(
    rows=[(None, 0), (None, 1), (None, 0)], k_offset=0, descending=True, items="id",
    where="", gold_tail="", breaker="id DESC",
)
@example(
    rows=[(1, 0), (1, 1)], k_offset=2, descending=False, items="w", where="", gold_tail="",
    breaker="w DESC",
)
def test_tables_settle_a_tie_as_the_probes_do(
    rows, k_offset, descending, items, where, gold_tail, breaker
):
    k = 1 + k_offset % (len(rows) + 1)  # 1 .. len + 1
    order = "DESC" if descending else "ASC"
    select = f"SELECT {items} FROM t {where} ORDER BY v {order}"
    gold = f"{select}{gold_tail} LIMIT {k}"
    pred = f"{select}, {breaker} LIMIT {k}"
    with tempfile.TemporaryDirectory() as tmp:
        schema = _rows_db(Path(tmp) / "rows.sqlite", rows)
        handed, decided, probed = _tables_and_probe_answers(schema, pred, gold)
    assert handed is probed
    assert not decided or handed is True


def test_tables_settle_a_nocase_tie_as_sqlite_sorts_it(tmp_path):
    # SQLite ties 'a' and 'A' under NOCASE, so the gold keeps id 0 and the
    # prediction id 1; the probe reads two keys that differ in case.
    schema = _rows_db(tmp_path / "rows.sqlite", [("a", 0), ("A", 0), ("b", 0)], "COLLATE NOCASE")
    gold = "SELECT id FROM t ORDER BY v LIMIT 1"
    pred = "SELECT id FROM t ORDER BY v, id DESC LIMIT 1"
    assert _tables_and_probe_answers(schema, pred, gold) == (True, True, False)


def test_skipped_prediction_probe_reads_only_the_golds_rows_k_and_k_plus_1(tmp_path):
    # NOCASE ties 'A' and 'a': the gold keeps ids 1, 2 and the prediction
    # 2, 1, one multiset, so the gold's probe decides. It reads 'a' at rows
    # 2 and 3, a tie; the prediction's own probe would read 'A' at row 2,
    # which does not agree with the gold's 'a'.
    path = tmp_path / "nocase.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (id INTEGER, v TEXT COLLATE NOCASE)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [(1, "A"), (2, "a"), (3, "a"), (4, "b")])
    conn.commit()
    conn.close()
    schema = DatabaseSchema(
        db_id="nocase", tables=(("t", (("id", "number"), ("v", "text"))),), db_path=path
    )
    gold = "SELECT id FROM t ORDER BY v LIMIT 2"
    pred = "SELECT id FROM t ORDER BY v, id = 2 DESC LIMIT 2"
    pred_ast, gold_ast = parse(pred, schema), parse(gold, schema)
    pred_table = execute(pred, schema).table
    assert (execute(gold, schema).table.rows, pred_table.rows) == (((1,), (2,)), ((2,), (1,)))
    assert tie_test(pred_ast, gold_ast, schema, pred_table) is True
    assert tie_test(pred_ast, gold_ast, schema) is False
    verdict = run_triage(pred, gold, schema)
    assert (verdict.category, verdict.subtag) == (Category.DATASET_INCONSISTENCY, "TieAmbiguity")


def _tie_test(tmp_path, keys, pred, gold):
    schema = _keys_db(tmp_path / "keys.sqlite", keys)
    return tie_test(parse(pred, schema), parse(gold, schema), schema)


def test_tie_across_the_arms_of_a_union_is_found(tmp_path):
    # Sorted keys 1, 2 | 2, 2, 3 with the arms split at id 2: the cut at 2
    # falls inside a tie that continues in the right arm.
    gold = _gold_sql("compound", "ASC", 2, split=2)
    assert _tie_test(tmp_path, [1, 2, 2, 2, 3], "SELECT v FROM t ORDER BY v LIMIT 2", gold) is True


def test_tie_inside_the_right_arm_of_a_union_is_found(tmp_path):
    gold = (
        "SELECT id, v FROM t WHERE id < 1 UNION "
        "SELECT id, v FROM t WHERE id >= 1 ORDER BY v LIMIT 2"
    )
    assert _tie_test(tmp_path, [1, 2, 2, 2, 3], "SELECT v FROM t ORDER BY v LIMIT 2", gold) is True


def test_compound_without_a_tie_at_the_cut_is_no_tie(tmp_path):
    gold = _gold_sql("compound", "ASC", 2, split=2)
    assert _tie_test(tmp_path, [1, 2, 3, 4, 5], "SELECT v FROM t ORDER BY v LIMIT 2", gold) is False


def test_positional_keys_in_opposite_directions_are_no_tie(tmp_path):
    # The boundary keys are 40 and 10; a constant key would tie everywhere.
    pred = "SELECT id, v FROM t ORDER BY 2 ASC LIMIT 1"
    gold = "SELECT id, v FROM t ORDER BY 2 DESC LIMIT 1"
    assert _tie_test(tmp_path, [10, 20, 30, 40], pred, gold) is False


def test_tie_on_a_positional_key_is_found(tmp_path):
    pred = "SELECT v FROM t ORDER BY 1 DESC LIMIT 1"
    gold = "SELECT id, v FROM t ORDER BY 2 DESC LIMIT 1"
    assert _tie_test(tmp_path, [40, 10, 40], pred, gold) is True


def test_tie_probe_reads_the_aliased_item_a_bare_key_names(tmp_path):
    # SQLite sorts the gold on -v, the item its bare key v names, so the
    # sorted keys are -3, -3, -2, -1 and LIMIT 1 cuts through the tie.
    gold = "SELECT id, -v AS v FROM t ORDER BY v LIMIT 1"
    pred = "SELECT -v FROM t ORDER BY 1 LIMIT 1"
    assert _tie_test(tmp_path, [1, 2, 3, 3], pred, gold) is True


def test_tie_probe_reads_a_from_subquery_column_by_its_alias(tmp_path):
    # The canonical gold still names the subquery's column w, so its probe
    # runs, and 40 ties with 40 at the cut.
    gold = "SELECT w FROM (SELECT v AS w FROM t) ORDER BY w DESC LIMIT 1"
    pred = "SELECT v FROM t ORDER BY v DESC LIMIT 1"
    assert _tie_test(tmp_path, [40, 10, 40], pred, gold) is True


@pytest.mark.parametrize("gold, pred", [
    ("SELECT id, 1 FROM t ORDER BY 2 DESC LIMIT 1",
     "SELECT id, 1 FROM t ORDER BY 2 DESC, id LIMIT 1"),
    ("SELECT 2 AS c, id FROM t ORDER BY c DESC LIMIT 1",
     "SELECT 2 AS c, id FROM t ORDER BY c DESC, id LIMIT 1"),
    ("SELECT *, 2 AS c FROM t ORDER BY c DESC LIMIT 1",
     "SELECT *, 2 AS c FROM t ORDER BY c DESC, id LIMIT 1"),
])
def test_tie_probe_sorts_on_an_integer_item_a_key_names(tmp_path, gold, pred):
    # SQLite sorts on the constant item, which ties on every row; the
    # canonical key must not turn it into a position that names id or v.
    assert _tie_test(tmp_path, [10, 20, 30], pred, gold) is True


def test_tie_probe_appends_no_key_to_a_distinct_query(tmp_path):
    # A key appended to the DISTINCT gold would keep (a, 2) and (b, 2) apart
    # and read the missing DISTINCT in the prediction as a tie at the cut.
    path = tmp_path / "names.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (id INTEGER, name TEXT, v INTEGER)")
    conn.executemany("INSERT INTO t VALUES (?, ?, ?)", [(0, "a", 1), (1, "a", 2), (2, "b", 2)])
    conn.commit()
    conn.close()
    schema = DatabaseSchema(
        db_id="names",
        tables=(("t", (("id", "number"), ("name", "text"), ("v", "number"))),),
        db_path=path,
    )
    gold = "SELECT DISTINCT name FROM t ORDER BY v LIMIT 2"
    pred = "SELECT name FROM t ORDER BY v LIMIT 2"
    assert tie_test(parse(pred, schema), parse(gold, schema), schema) is None
    assert tie_test(parse(gold, schema), parse(pred, schema), schema) is None
    verdict = run_triage(pred, gold, schema)
    assert verdict.category is not Category.DATASET_INCONSISTENCY
    # A key that is an output column is read there, so DISTINCT keeps the test.
    gold = "SELECT DISTINCT name, v FROM t ORDER BY v LIMIT 2"
    pred = "SELECT name, v FROM t ORDER BY v LIMIT 2"
    assert tie_test(parse(pred, schema), parse(gold, schema), schema) is True


def test_tie_probe_quotes_a_keyword_named_key(tmp_path):
    # The probe appends the key column, which must print as "index": bare,
    # SQLite rejects it and the probe would find no tie.
    path = tmp_path / "indexed.sqlite"
    conn = sqlite3.connect(path)
    conn.execute('CREATE TABLE t (id INTEGER, "index" INTEGER)')
    conn.executemany("INSERT INTO t VALUES (?, ?)", [(1, 5), (2, 5), (3, 7)])
    conn.commit()
    conn.close()
    schema = DatabaseSchema(
        db_id="indexed", tables=(("t", (("id", "number"), ("index", "number"))),), db_path=path
    )
    gold = 'SELECT id FROM t ORDER BY "index" LIMIT 1'
    pred = 'SELECT id FROM t WHERE id = 2 ORDER BY "index" LIMIT 1'
    assert tie_test(parse(pred, schema), parse(gold, schema), schema) is True


def test_tie_past_the_row_cap_is_found_from_k_plus_one_rows(tmp_path, monkeypatch):
    schema = _keys_db(tmp_path / "keys.sqlite", [1] + [2] * 40)
    k = 3
    gold = parse(f"SELECT id FROM t ORDER BY v LIMIT {k}", schema)
    pred = parse(f"SELECT v FROM t ORDER BY v LIMIT {k}", schema)
    monkeypatch.setattr(execution, "MAX_ROWS", 10)
    assert full_scan_tie_rule(pred, gold, schema) is False  # the cap hid the tie
    gold_table = execute(to_sql(gold), schema).table
    probes = []

    def counting(sql, schema, *args):
        outcome = execute(sql, schema, *args)
        probes.append((sql, len(outcome.table.rows)))
        return outcome

    monkeypatch.setattr(execution, "execute", counting)
    assert tie_test(pred, gold, schema, None, gold_table) is True
    assert len(probes) == 2
    for sql, rows in probes:
        assert sql.endswith(f"LIMIT {k + 1}")
        assert rows <= k + 1


def test_a_tie_probe_that_gets_no_table_is_no_tie(schemas):
    # The prediction's probe is an engine error, as the prediction was.
    schema = schemas["concert_singer"]
    gold = "SELECT name FROM singer ORDER BY age DESC LIMIT 1"
    pred = "SELECT name FROM singer ORDER BY nosuchfn(age) DESC LIMIT 1"
    assert execute(pred, schema).error is not None
    assert tie_test(parse(pred, schema), parse(gold, schema), schema) is False
    verdict = run_triage(pred, gold, schema)
    assert (verdict.category, verdict.subtag) == (Category.QUERY_STRUCTURE, "ClauseShape")
    assert "pred_rows" not in verdict.evidence


def test_a_pair_that_differs_only_where_the_diff_looks_away_is_unclassifiable(schemas):
    # The diff compares ORDER BY aggregates by function name only.
    schema = schemas["concert_singer"]
    gold = "SELECT country FROM singer GROUP BY country ORDER BY min(age) LIMIT 1"
    pred = gold.replace("min(age)", "min(singer_id)")
    verdict = run_triage(pred, gold, schema)
    assert (verdict.category, verdict.subtag, verdict.confidence) == (
        Category.UNCLASSIFIABLE, None, "heuristic"
    )
    assert verdict.evidence["note"] == "no rule fired; queries differ only in ignored dimensions"


def test_extra_join_triaged_as_join_clauses_extra(schemas):
    schema = schemas["car_1"]
    verdict = run_triage(EXTRA_JOIN_CARS_SQL, BELOW_AVERAGE_CARS_SQL, schema)
    assert verdict.category is Category.JOIN_CLAUSES
    assert verdict.subtag == "Extra"
    assert "model_list" in str(verdict.evidence)


def test_missing_join_triaged_as_join_clauses_missing(schemas):
    schema = schemas["car_1"]
    verdict = run_triage(BELOW_AVERAGE_CARS_SQL, EXTRA_JOIN_CARS_SQL, schema)
    assert verdict.category is Category.JOIN_CLAUSES
    assert verdict.subtag == "Missing"


def test_group_by_difference_triaged_when_no_tie(schemas):
    schema = schemas["concert_singer"]
    pred = "SELECT country, count(*) FROM singer GROUP BY name"
    gold = "SELECT country, count(*) FROM singer GROUP BY country"
    verdict = run_triage(pred, gold, schema)
    assert verdict.category is Category.GROUP_BY


def test_a_positional_group_by_term_groups_by_the_item_it_names(schemas):
    # ``GROUP BY 1`` is ``GROUP BY country``: only the literal differs.
    schema = schemas["concert_singer"]
    gold = "SELECT country, count(*) FROM singer WHERE age > 20 GROUP BY country"
    pred = "SELECT country, count(*) FROM singer WHERE age > 29 GROUP BY 1"
    named = pred.replace("GROUP BY 1", "GROUP BY country")
    verdict = run_triage(pred, gold, schema)
    assert (verdict.category, verdict.confidence) == (Category.PREDICTED_VALUES, "definite")
    assert verdict.evidence == run_triage(named, gold, schema).evidence


def test_wrong_literal_triaged_as_predicted_values(schemas):
    schema = schemas["battle_death"]
    pred = "SELECT count(*) FROM ship WHERE disposition_of_ship = 'lost'"
    gold = "SELECT count(*) FROM ship WHERE disposition_of_ship = 'sank'"
    verdict = run_triage(pred, gold, schema)
    assert verdict.category is Category.PREDICTED_VALUES
    assert verdict.evidence["diff"]["literals"][0]["pred"] == "'lost'"


def test_integers_apart_past_2_to_the_53_are_predicted_values(schemas):
    # Both literals read as the same float, but SQLite adds integers exactly.
    schema = schemas["concert_singer"]
    gold = "SELECT name FROM singer WHERE age + 9007199254740992 > 9007199254741022"
    pred = gold.replace("9007199254740992", "9007199254740993")
    memo = OutcomeMemo(schema)
    assert memo.run(pred).table.rows != memo.run(gold).table.rows
    verdict = run_triage(pred, gold, schema)
    assert (verdict.category, verdict.confidence) == (Category.PREDICTED_VALUES, "definite")
    assert verdict.evidence["diff"]["literals"] == [{
        "shape": "singer.age + ? > ?", "pred": "9007199254740993", "gold": "9007199254740992",
    }]


@pytest.mark.parametrize(
    "flipped, plain, gold",
    [
        ("45 < age", "age > 45", "age > 30"),
        ("'us' != country", "country != 'us'", "country != 'fr'"),
    ],
)
def test_literal_first_comparison_triaged_as_predicted_values(schemas, flipped, plain, gold):
    schema = schemas["concert_singer"]
    pred, plain, gold = (f"SELECT name FROM singer WHERE {w}" for w in (flipped, plain, gold))
    verdict = run_triage(pred, gold, schema)
    assert (verdict.category, verdict.subtag) == (Category.PREDICTED_VALUES, None)
    assert verdict.evidence["diff"] == run_triage(plain, gold, schema).evidence["diff"]


def test_aggregate_choice_detected_without_table_evidence(schemas):
    schema = schemas["dog_kennels"]
    pred = (
        "SELECT T1.owner_id, T1.last_name FROM Owners AS T1 "
        "JOIN Dogs AS T2 ON T1.owner_id = T2.owner_id "
        "JOIN Treatments AS T3 ON T2.dog_id = T3.dog_id "
        "GROUP BY T1.owner_id ORDER BY sum(T3.cost_of_treatment) DESC LIMIT 1"
    )
    gold = pred.replace("sum(T3.cost_of_treatment)", "count(*)")
    # The category comes from the diff, not from what the tables hold.
    verdict = run_triage(pred, gold, schema)
    assert verdict.category is Category.AGGREGATE_CHOICE
    assert verdict.subtag == "order_by"


def test_wrong_select_column_triaged(schemas):
    schema = schemas["concert_singer"]
    verdict = run_triage("SELECT location FROM stadium", "SELECT name FROM stadium", schema)
    assert verdict.category is Category.SELECT_COLUMNS
    assert verdict.subtag == "WrongColumn"


def test_reordered_select_columns_triaged(schemas):
    schema = schemas["concert_singer"]
    verdict = run_triage(
        "SELECT capacity, name FROM stadium", "SELECT name, capacity FROM stadium", schema
    )
    assert verdict.category is Category.SELECT_COLUMNS
    assert verdict.subtag == "WrongOrder"


def test_subquery_instead_of_join_is_query_structure(schemas):
    schema = schemas["concert_singer"]
    pred = "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM singer_in_concert)"
    gold = (
        "SELECT T2.name FROM singer_in_concert AS T1 "
        "JOIN singer AS T2 ON T1.singer_id = T2.singer_id"
    )
    verdict = run_triage(pred, gold, schema)
    assert verdict.category is Category.QUERY_STRUCTURE
    assert verdict.subtag == "ShapeDivergence"


def test_residual_where_mismatch_falls_back_to_query_structure(schemas):
    schema = schemas["concert_singer"]
    pred = "SELECT name FROM stadium WHERE capacity > 10 AND location = 'East'"
    gold = "SELECT name FROM stadium WHERE capacity > 10"
    verdict = run_triage(pred, gold, schema)
    assert verdict.category is Category.QUERY_STRUCTURE
    assert verdict.subtag == "ClauseShape"


def test_structure_takes_precedence_over_downstream_symptoms(schemas):
    schema = schemas["concert_singer"]
    # different select AND a set-op mismatch: structure wins
    pred = "SELECT location FROM stadium UNION SELECT name FROM stadium"
    gold = "SELECT name FROM stadium"
    verdict = run_triage(pred, gold, schema)
    assert verdict.category is Category.QUERY_STRUCTURE


def test_join_takes_precedence_over_select_symptoms(schemas):
    # the cars pair also has select/distinct differences; join wins
    schema = schemas["car_1"]
    verdict = run_triage(EXTRA_JOIN_CARS_SQL, BELOW_AVERAGE_CARS_SQL, schema)
    assert verdict.category is Category.JOIN_CLAUSES


def _triage_with_both_deltas(pred, gold, schema, first, second):
    """Triage a pair whose diff summary has both named entries."""
    delta = diff(canonicalize(parse(pred, schema)), canonicalize(parse(gold, schema)))
    assert {first, second} <= delta.summary().keys()
    return run_triage(pred, gold, schema)


def test_group_by_takes_precedence_over_aggregate(schemas):
    verdict = _triage_with_both_deltas(
        "SELECT country, count(*) FROM singer GROUP BY name",
        "SELECT country, max(age) FROM singer GROUP BY country",
        schemas["concert_singer"],
        "group_by",
        "aggregates",
    )
    assert (verdict.category, verdict.subtag) == (Category.GROUP_BY, None)


def test_aggregate_takes_precedence_over_select(schemas):
    verdict = _triage_with_both_deltas(
        "SELECT count(*) FROM singer",
        "SELECT max(age) FROM singer",
        schemas["concert_singer"],
        "aggregates",
        "select",
    )
    assert (verdict.category, verdict.subtag) == (Category.AGGREGATE_CHOICE, "select")


def test_select_takes_precedence_over_literals(schemas):
    verdict = _triage_with_both_deltas(
        "SELECT name FROM singer WHERE age > 30",
        "SELECT country FROM singer WHERE age > 40",
        schemas["concert_singer"],
        "select",
        "literals",
    )
    assert (verdict.category, verdict.subtag) == (Category.SELECT_COLUMNS, "WrongColumn")


def test_literals_take_precedence_over_clause_shape(schemas):
    verdict = _triage_with_both_deltas(
        "SELECT name FROM singer WHERE age > 30 ORDER BY name",
        "SELECT name FROM singer WHERE age > 40",
        schemas["concert_singer"],
        "literals",
        "clauses",
    )
    assert (verdict.category, verdict.subtag) == (Category.PREDICTED_VALUES, None)


def suspect_gold(gold_sql, schema):
    """``suspect_gold_check`` of a gold query with its table and a fresh memo."""
    gold_table = execute(gold_sql, schema).table
    return suspect_gold_check(parse(gold_sql, schema), gold_table, OutcomeMemo(schema))


def test_suspect_gold_flags_cartesian_join(schemas):
    evidence = suspect_gold(CARTESIAN_GOLD_SQL, schemas["dog_kennels"])
    assert evidence is not None
    assert evidence["conditionless_tables"] == ["treatments"]
    assert evidence["gold_rows"] >= 2 * evidence["repaired_rows"]


def test_suspect_gold_not_flagged_with_proper_join(schemas):
    assert suspect_gold(GROUPED_BY_NAME_SQL, schemas["student_course"]) is None


def test_suspect_gold_not_flagged_single_table(schemas):
    assert suspect_gold("SELECT name FROM ship", schemas["battle_death"]) is None


def test_suspect_gold_verdict_via_triage(schemas):
    schema = schemas["dog_kennels"]
    pred = (
        "SELECT DISTINCT T1.first_name, T1.last_name FROM Professionals AS T1 "
        "JOIN Treatments AS T2 ON T1.professional_id = T2.professional_id "
        "WHERE T2.cost_of_treatment < (SELECT avg(cost_of_treatment) FROM Treatments)"
    )
    verdict = run_triage(pred, CARTESIAN_GOLD_SQL, schema)
    assert verdict.category is Category.DATASET_INCONSISTENCY
    assert verdict.subtag == "SuspectGold"


def test_suspect_gold_reads_only_the_top_level_from_clause(schemas):
    schema = schemas["concert_singer"]
    # The nested scope's condition-less ``stadium`` has the key and index of
    # the top-level ``stadium``, whose join has an ON clause.
    gold = (
        "SELECT concert.concert_name FROM concert JOIN stadium ON concert.year > 2000 "
        "WHERE concert.concert_id IN (SELECT T.concert_id FROM singer_in_concert AS T, stadium)"
    )
    assert suspect_gold(gold, schema) is None
    pred = "SELECT concert_name FROM concert"
    verdict = run_triage(pred, gold, schema)
    assert (verdict.category, verdict.subtag) == (Category.QUERY_STRUCTURE, "ShapeDivergence")


@pytest.mark.parametrize("gold", [
    # The flagged source is a FROM subquery, which no foreign key names.
    "SELECT count(*) FROM singer JOIN (SELECT concert_id FROM concert)",
    # No foreign key links singer and stadium.
    "SELECT singer.name FROM singer JOIN stadium",
    # Repaired, the gold still returns its 3 rows: it does not balloon.
    "SELECT DISTINCT T1.name FROM stadium AS T1 JOIN concert AS T2",
])
def test_suspect_gold_not_flagged_without_a_repair_that_shrinks_it(schemas, gold):
    assert suspect_gold(gold, schemas["concert_singer"]) is None


def test_suspect_gold_not_flagged_when_its_repair_errors(tmp_path):
    # The schema declares a key column, t.c, that the database file lacks.
    path = tmp_path / "k.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(
        "CREATE TABLE t (a INTEGER); CREATE TABLE u (b INTEGER);"
        "INSERT INTO t VALUES (1), (2); INSERT INTO u VALUES (1), (2);"
    )
    conn.close()
    schema = DatabaseSchema(
        db_id="k",
        tables=(("t", (("a", "number"), ("c", "number"))), ("u", (("b", "number"),))),
        foreign_keys=((("t", "c"), ("u", "b")),),
        db_path=path,
    )
    gold = "SELECT t.a FROM t JOIN u"
    assert execute("SELECT t.a FROM t JOIN u ON t.c = u.b", schema).error is not None
    assert suspect_gold(gold, schema) is None


@pytest.mark.parametrize("gold, repaired_sql, gold_rows", [
    # The key runs from concert to the flagged stadium.
    ("SELECT T1.concert_name FROM concert AS T1 JOIN stadium AS T2",
     "SELECT T1.concert_name FROM concert AS T1 JOIN stadium AS T2 "
     "ON T1.stadium_id = T2.stadium_id", 12),
    # The FROM subquery before concert has no key to try.
    ("SELECT T3.name FROM (SELECT concert_id FROM concert) AS S "
     "JOIN concert AS T2 ON S.concert_id = T2.concert_id JOIN stadium AS T3",
     "SELECT T3.name FROM (SELECT concert_id FROM concert) AS S "
     "JOIN concert AS T2 ON S.concert_id = T2.concert_id "
     "JOIN stadium AS T3 ON T2.stadium_id = T3.stadium_id", 12),
])
def test_suspect_gold_repairs_with_a_key_that_points_at_the_flagged_table(
    schemas, gold, repaired_sql, gold_rows
):
    evidence = suspect_gold(gold, schemas["concert_singer"])
    assert evidence == {
        "conditionless_tables": ["stadium"],
        "gold_rows": gold_rows,
        "repaired_rows": 4,
        "repaired_sql": repaired_sql,
    }


def test_from_order_of_two_inner_joins_alone_scores_correct(schemas):
    # The canonical forms differ (positional aliases follow FROM order) and
    # the diff ignores FROM order, so no triage rule would fire; but the
    # tables are equivalent, so ``score`` counts the prediction correct and
    # never triages it.
    schema = schemas["concert_singer"]
    pred = ("SELECT T1.name FROM singer AS T1 JOIN singer_in_concert AS T2 "
            "ON T1.singer_id = T2.singer_id")
    gold = ("SELECT T1.name FROM singer_in_concert AS T2 JOIN singer AS T1 "
            "ON T1.singer_id = T2.singer_id")
    pred_canon, gold_canon = (canonicalize(parse(sql, schema)) for sql in (pred, gold))
    assert pred_canon != gold_canon and not diff(pred_canon, gold_canon)
    report = score_pairs([("concert_singer", pred, gold)], schemas)
    assert (report.overall, report.verdicts) == (1.0, {})


INNER_JOIN_GOLD = (
    "SELECT T1.concert_name, T2.singer_id FROM concert AS T1 "
    "JOIN singer_in_concert AS T2 ON T1.concert_id = T2.concert_id"
)
LEFT_JOIN_PRED = INNER_JOIN_GOLD.replace(" JOIN ", " LEFT JOIN ")


def test_left_join_against_an_inner_join_is_join_clauses(schemas):
    # "Old Gala" has no singer: the LEFT join keeps it as a fifth row.
    schema = schemas["concert_singer"]
    verdict = run_triage(LEFT_JOIN_PRED, INNER_JOIN_GOLD, schema)
    assert (verdict.category, verdict.subtag) == (Category.JOIN_CLAUSES, "Extra")
    joins = verdict.evidence["diff"]["joins"]
    assert (joins["extra_tables"], joins["missing_tables"]) == (
        ["left join singer_in_concert"], ["singer_in_concert"]
    )
    assert (verdict.evidence["pred_rows"], verdict.evidence["gold_rows"]) == (5, 4)
    # JOIN, INNER JOIN, CROSS JOIN and a comma are one kind of join.
    gold = canonicalize(parse(INNER_JOIN_GOLD, schema))
    comma = ("SELECT T1.concert_name, T2.singer_id FROM concert AS T1, singer_in_concert AS T2 "
             "WHERE T1.concert_id = T2.concert_id")
    for pred in (INNER_JOIN_GOLD.replace(" JOIN ", " INNER JOIN "),
                 INNER_JOIN_GOLD.replace(" JOIN ", " CROSS JOIN "), comma):
        assert not diff(canonicalize(parse(pred, schema)), gold), pred


def test_every_verdict_carries_evidence(schemas):
    with pytest.raises(ValueError):
        TriageVerdict(
            category=Category.GROUP_BY, subtag=None, evidence={}, confidence="definite"
        )


def test_triage_report_counts_and_fractions():
    def verdict(category, subtag=None):
        return TriageVerdict(
            category=category, subtag=subtag, evidence={"x": 1}, confidence="definite"
        )

    verdicts = [verdict(Category.QUERY_STRUCTURE)] * 9 + [verdict(Category.JOIN_CLAUSES, "Extra")] * 31
    report = triage_report(verdicts)
    assert report["total"] == 40
    assert report["categories"]["QueryStructure"]["count"] == 9
    assert report["categories"]["QueryStructure"]["fraction"] == pytest.approx(0.225)
    assert report["subtags"]["JoinClauses.Extra"]["count"] == 31


def test_triage_report_empty():
    report = triage_report([])
    assert report == {"total": 0, "categories": {}, "subtags": {}}


def test_triage_report_uniform_across_categories():
    cats = [c for c in Category if c is not Category.UNCLASSIFIABLE]
    verdicts = [
        TriageVerdict(category=c, subtag=None, evidence={"x": 1}, confidence="definite")
        for c in cats
    ]
    report = triage_report(verdicts)
    assert len(report["categories"]) == 7
    for row in report["categories"].values():
        assert row["count"] == 1
        assert row["fraction"] == pytest.approx(1 / 7)

