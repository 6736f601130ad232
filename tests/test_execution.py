from __future__ import annotations

import hashlib
import os
import sqlite3
import sys
import threading

import pytest

from nl2sql.errors import DatabaseMissingError
from nl2sql.execution import (
    ExecLimits,
    ResultTable,
    execute,
    execute_for_comparison,
    normalize_cell,
    query_is_ordered,
    tables_equivalent,
)
from nl2sql.schema import DatabaseSchema

from conftest import BELOW_AVERAGE_CARS_SQL, EXTRA_JOIN_CARS_SQL


def table(rows, columns=None, ordered=False, truncated=False):
    if columns is None:
        columns = tuple(f"c{i}" for i in range(len(rows[0]) if rows else 1))
    return ResultTable(
        columns=tuple(columns),
        rows=tuple(tuple(r) for r in rows),
        ordered=ordered,
        truncated=truncated,
    )


def test_extra_join_query_returns_no_rows(schemas):
    outcome = execute(EXTRA_JOIN_CARS_SQL, schemas["car_1"])
    assert outcome.kind == "table"
    assert outcome.table.rows == ()


def test_below_average_query_returns_230_rows(schemas):
    outcome = execute(BELOW_AVERAGE_CARS_SQL, schemas["car_1"])
    assert len(outcome.table.rows) == 230


def test_missing_table_is_exec_error_with_engine_message(schemas):
    outcome = execute("SELECT * FROM no_such_table", schemas["car_1"])
    assert outcome.kind == "error"
    assert "no_such_table" in outcome.error
    assert outcome.error_class == "OperationalError"


def test_missing_database_file_is_harness_fault(schemas, tmp_path):
    schema = schemas["car_1"]
    broken = DatabaseSchema(
        db_id=schema.db_id,
        tables=schema.tables,
        primary_keys=schema.primary_keys,
        foreign_keys=schema.foreign_keys,
        db_path=tmp_path / "gone.sqlite",
    )
    with pytest.raises(DatabaseMissingError):
        execute("SELECT 1", broken)


def test_execution_is_read_only(schemas):
    db_path = schemas["battle_death"].db_path
    before = hashlib.sha256(db_path.read_bytes()).hexdigest()
    execute("SELECT * FROM ship", schemas["battle_death"])
    outcome = execute("DELETE FROM ship", schemas["battle_death"])
    assert outcome.kind == "error"  # read-only connection refuses writes
    after = hashlib.sha256(db_path.read_bytes()).hexdigest()
    assert before == after


def test_row_cap_marks_truncation(schemas):
    outcome = execute(
        "SELECT * FROM cars_data", schemas["car_1"], ExecLimits(max_rows=10)
    )
    assert outcome.table.truncated
    assert len(outcome.table.rows) == 10
    assert outcome.table.row_limit_applied == 10


def test_execute_for_comparison_raises_the_cap_once(schemas):
    outcome = execute_for_comparison(
        "SELECT * FROM cars_data", schemas["car_1"], ExecLimits(max_rows=100)
    )
    assert not outcome.table.truncated
    assert len(outcome.table.rows) == 406


def test_timeout_reported_as_timeout(schemas):
    # A cartesian self-product large enough to outlive a 50ms budget.
    sql = (
        "SELECT count(*) FROM cars_data AS a, cars_data AS b, cars_data AS c, "
        "cars_data AS d WHERE a.weight + b.weight + c.weight + d.weight > 0"
    )
    outcome = execute(sql, schemas["car_1"], ExecLimits(timeout_seconds=0.05))
    assert outcome.kind == "timeout"


def test_ordered_flag_follows_ast_not_data(schemas):
    assert query_is_ordered("SELECT name FROM ship ORDER BY id")
    assert not query_is_ordered("SELECT name FROM ship")
    assert not query_is_ordered(
        "SELECT name FROM ship WHERE id IN (SELECT id FROM ship ORDER BY id)"
    )
    outcome = execute("SELECT name FROM ship ORDER BY id", schemas["battle_death"])
    assert outcome.table.ordered


def test_execute_for_comparison_caps_at_ten_times_max_rows(schemas):
    outcome = execute_for_comparison(
        "SELECT * FROM cars_data", schemas["car_1"], ExecLimits(max_rows=10)
    )
    assert outcome.table.truncated
    assert len(outcome.table.rows) == 100
    assert outcome.table.row_limit_applied == 100


ENDLESS_SQL = (
    "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r) SELECT count(*) FROM r"
)


def test_timeout_error_and_refused_write_leave_the_connection_usable(schemas):
    schema = schemas["battle_death"]
    expected = execute("SELECT * FROM ship ORDER BY id", schema)
    assert len(expected.table.rows) == 7
    assert execute(ENDLESS_SQL, schema, ExecLimits(timeout_seconds=0.05)).kind == "timeout"
    assert execute("SELECT * FROM ship ORDER BY id", schema) == expected
    assert execute("SELECT * FROM no_such_table", schema).kind == "error"
    assert execute("SELECT * FROM ship ORDER BY id", schema) == expected
    assert execute("DELETE FROM ship", schema).kind == "error"
    assert execute("SELECT * FROM ship ORDER BY id", schema) == expected


def test_temp_table_does_not_shadow_the_database_for_the_next_query(schemas):
    schema = schemas["battle_death"]
    expected = execute("SELECT * FROM ship ORDER BY id", schema)
    assert execute("CREATE TEMP TABLE ship (x)", schema).kind == "table"
    assert execute("SELECT * FROM ship ORDER BY id", schema) == expected


def _numbers_db(path, values):
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (n INTEGER)")
    conn.executemany("INSERT INTO t VALUES (?)", [(v,) for v in values])
    conn.commit()
    conn.close()
    return DatabaseSchema(db_id="numbers", tables=(("t", (("n", "number"),)),), db_path=path)


def test_open_transaction_and_capped_fetch_hold_no_read_lock(tmp_path):
    schema = _numbers_db(tmp_path / "n.sqlite", [1, 2, 3])
    execute("BEGIN", schema)
    assert execute("SELECT n FROM t", schema, ExecLimits(max_rows=1)).table.truncated
    writer = sqlite3.connect(tmp_path / "n.sqlite", timeout=0)
    writer.execute("INSERT INTO t VALUES (4)")
    writer.commit()  # "database is locked" if a reader still held its lock
    writer.close()
    assert len(execute("SELECT n FROM t", schema).table.rows) == 4


def test_replaced_database_file_is_reopened(tmp_path):
    schema = _numbers_db(tmp_path / "n.sqlite", [1, 2])
    assert execute("SELECT n FROM t ORDER BY n", schema).table.rows == ((1,), (2,))
    _numbers_db(tmp_path / "other.sqlite", [7, 8, 9])
    os.replace(tmp_path / "other.sqlite", tmp_path / "n.sqlite")
    assert execute("SELECT n FROM t ORDER BY n", schema).table.rows == ((7,), (8,), (9,))


def test_deleted_database_file_raises_after_connection_was_cached(tmp_path):
    schema = _numbers_db(tmp_path / "n.sqlite", [1])
    assert execute("SELECT n FROM t", schema).kind == "table"
    os.remove(tmp_path / "n.sqlite")
    with pytest.raises(DatabaseMissingError):
        execute("SELECT n FROM t", schema)


def test_threads_sharing_a_schema_each_get_correct_tables(schemas):
    schema = schemas["car_1"]
    queries = [BELOW_AVERAGE_CARS_SQL, "SELECT * FROM car_makers ORDER BY Id"]
    expected = [execute(sql, schema) for sql in queries]
    workers = 4
    barrier = threading.Barrier(workers, timeout=30)
    results: dict[int, list] = {}

    def worker(idx: int) -> None:
        barrier.wait()
        results[idx] = [execute(queries[(i + idx) % 2], schema) for i in range(40)]

    threads = [threading.Thread(target=worker, args=(idx,)) for idx in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for idx in range(workers):
        assert results[idx] == [expected[(i + idx) % 2] for i in range(40)]


def test_timeout_while_fetching_rows_reported_as_timeout(schemas):
    # The first rows of this 67M-row product arrive at once; fetching all of
    # them outlives the budget.
    sql = "SELECT a.Id FROM cars_data AS a, cars_data AS b, cars_data AS c"
    first = execute(sql, schemas["car_1"], ExecLimits(timeout_seconds=0.05, max_rows=5))
    assert first.table.truncated
    outcome = execute(sql, schemas["car_1"], ExecLimits(timeout_seconds=0.05, max_rows=10**8))
    assert outcome.kind == "timeout"


# --------------------------------------------------------------------------- equivalence

def test_identical_tables_equivalent():
    t = table([[1, "a"], [2, "b"]])
    assert tables_equivalent(t, t).equivalent


def test_permuted_rows_equivalent_when_unordered():
    a = table([[1, "a"], [2, "b"], [2, "b"]])
    b = table([[2, "b"], [1, "a"], [2, "b"]])
    assert tables_equivalent(a, b).equivalent


def test_permuted_rows_differ_when_both_ordered():
    a = table([[1], [2]], ordered=True)
    b = table([[2], [1]], ordered=True)
    result = tables_equivalent(a, b)
    assert result.status == "different"
    assert "row 0" in result.detail


def test_single_ordered_side_compares_as_multiset_with_note():
    a = table([[1], [2]], ordered=True)
    b = table([[2], [1]], ordered=False)
    result = tables_equivalent(a, b)
    assert result.equivalent
    assert "one side is ordered" in result.detail


def test_strict_ordering_flag_tightens_single_side():
    a = table([[1], [2]], ordered=True)
    b = table([[2], [1]], ordered=False)
    assert tables_equivalent(a, b, strict_ordering=True).status == "different"


def test_column_names_ignored_only_arity_matters():
    a = table([[1]], columns=["x"])
    b = table([[1]], columns=["y"])
    assert tables_equivalent(a, b).equivalent
    c = table([[1, 2]], columns=["x", "y"])
    assert tables_equivalent(a, c).status == "different"


def test_integer_real_coercion():
    a = table([[3]])
    b = table([[3.0]])
    assert tables_equivalent(a, b).equivalent


def test_near_numbers_within_relative_tolerance_equal():
    a = table([[1.00000001]])
    b = table([[1.00000002]])
    assert tables_equivalent(a, b).equivalent


def test_distinct_numbers_differ():
    assert tables_equivalent(table([[1.0]]), table([[1.1]])).status == "different"


def test_text_cells_exact_and_case_sensitive():
    assert tables_equivalent(table([["lost"]]), table([["sank"]])).status == "different"
    assert tables_equivalent(table([["Sank"]]), table([["sank"]])).status == "different"


def test_null_equals_only_null():
    assert tables_equivalent(table([[None]]), table([[None]])).equivalent
    assert tables_equivalent(table([[None]]), table([[0]])).status == "different"
    assert tables_equivalent(table([[None]]), table([[""]])).status == "different"


def test_truncated_input_inconclusive():
    a = table([[1]], truncated=True)
    b = table([[1]])
    assert tables_equivalent(a, b).status == "inconclusive"


def test_mismatch_report_names_first_divergence():
    a = table([[1], [5]])
    b = table([[1], [7]])
    detail = tables_equivalent(a, b).detail
    assert "5" in detail and "appears" in detail


def test_normalize_cell_integral_floats():
    assert normalize_cell(3.0) == 3
    assert normalize_cell(3) == 3
    assert isinstance(normalize_cell(3.5), float)
