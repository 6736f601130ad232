from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import random
import re
import shutil
import sqlite3
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nl2sql
from nl2sql import evaluate, execution
from nl2sql.dataset import SpiderExample
from nl2sql.errors import DatabaseChangedError, DatabaseMissingError
from nl2sql.execution import (
    MAX_ROWS,
    MEMO_MAX_ROWS,
    TIMEOUT_SECONDS,
    ExecOutcome,
    OutcomeMemo,
    ResultTable,
    TableComparison,
    execute,
    normalize_cell,
    query_is_ordered,
    statement_key,
    tables_equivalent,
)
from nl2sql.hardness import Hardness
from nl2sql.llm import ModelEndpoint
from nl2sql.pipeline import PipelineConfig, PipelineTranscript, Verdict, run_many, run_pipeline
from nl2sql.schema import DatabaseSchema

from conftest import BELOW_AVERAGE_CARS_SQL, DEV_EXAMPLES, EXTRA_JOIN_CARS_SQL
from helpers import ScriptedTransport, generate_corpus


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
    assert outcome.table is not None
    assert outcome.table.rows == ()


def test_below_average_query_returns_230_rows(schemas):
    outcome = execute(BELOW_AVERAGE_CARS_SQL, schemas["car_1"])
    assert len(outcome.table.rows) == 230


def test_missing_table_is_exec_error_with_engine_message(schemas):
    outcome = execute("SELECT * FROM no_such_table", schemas["car_1"])
    assert outcome.error is not None
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


def test_database_file_removed_before_it_opens_is_harness_fault(schemas, tmp_path, monkeypatch):
    db_path = tmp_path / "car_1.sqlite"
    shutil.copyfile(schemas["car_1"].db_path, db_path)
    schema = dataclasses.replace(schemas["car_1"], db_path=db_path)
    file_key = execution._file_key

    def unlinked_after_stat(schema):
        key = file_key(schema)
        db_path.unlink()
        return key

    monkeypatch.setattr(execution, "_file_key", unlinked_after_stat)
    message = f"cannot open database file for car_1: {db_path}: "
    with pytest.raises(DatabaseMissingError, match=re.escape(message)):
        execute("SELECT 1", schema)
    assert getattr(execution._CONNECTIONS.get(schema), "entry", None) is None
    monkeypatch.setattr(execution, "_file_key", file_key)
    shutil.copyfile(schemas["car_1"].db_path, db_path)
    assert execute("SELECT count(*) FROM cars_data", schema).table.rows == ((406,),)


def test_execution_is_read_only(schemas):
    db_path = schemas["battle_death"].db_path
    before = hashlib.sha256(db_path.read_bytes()).hexdigest()
    execute("SELECT * FROM ship", schemas["battle_death"])
    outcome = execute("DELETE FROM ship", schemas["battle_death"])
    assert outcome.error is not None  # read-only connection refuses writes
    after = hashlib.sha256(db_path.read_bytes()).hexdigest()
    assert before == after


def test_row_cap_marks_truncation(schemas, monkeypatch):
    monkeypatch.setattr(execution, "MAX_ROWS", 10)
    outcome = execute("SELECT * FROM cars_data", schemas["car_1"])
    assert outcome.table.truncated
    assert len(outcome.table.rows) == 10


def _count_to(n: int) -> str:
    return (
        "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r "
        f"WHERE i < {n}) SELECT i FROM r"
    )


def test_public_execute_returns_a_table_past_the_memo_bound_whole(schemas):
    outcome = nl2sql.execute(_count_to(10_001), schemas["battle_death"])
    assert not outcome.table.truncated
    assert len(outcome.table.rows) == 10_001


def test_execute_returns_a_table_at_max_rows_whole(schemas):
    outcome = execute("SELECT * FROM cars_data", schemas["car_1"])
    assert not outcome.table.truncated
    assert len(outcome.table.rows) == 406
    whole = execute(_count_to(MAX_ROWS), schemas["battle_death"])
    assert not whole.table.truncated
    assert len(whole.table.rows) == MAX_ROWS


def test_execute_caps_at_max_rows(schemas):
    cut = execute(_count_to(MAX_ROWS + 1), schemas["battle_death"])
    assert cut.table.truncated
    assert [row[0] for row in cut.table.rows] == list(range(1, MAX_ROWS + 1))


def test_readme_and_formats_state_the_execution_rule():
    root = Path(__file__).resolve().parent.parent
    rule = f"a {TIMEOUT_SECONDS:g} s timeout and a {MAX_ROWS:,}-row cap"
    for doc in ("README.md", "docs/formats.md"):
        text = " ".join((root / doc).read_text(encoding="utf-8").split())
        assert rule in text, doc


def test_timeout_reported_as_timeout(schemas, monkeypatch):
    # A cartesian self-product large enough to outlive a 50ms budget.
    sql = (
        "SELECT count(*) FROM cars_data AS a, cars_data AS b, cars_data AS c, "
        "cars_data AS d WHERE a.weight + b.weight + c.weight + d.weight > 0"
    )
    monkeypatch.setattr(execution, "TIMEOUT_SECONDS", 0.05)
    outcome = execute(sql, schemas["car_1"])
    assert outcome.timed_out


def test_ordered_flag_follows_ast_not_data(schemas):
    assert query_is_ordered("SELECT name FROM ship ORDER BY id")
    assert not query_is_ordered("SELECT name FROM ship")
    assert not query_is_ordered(
        "SELECT name FROM ship WHERE id IN (SELECT id FROM ship ORDER BY id)"
    )
    outcome = execute("SELECT name FROM ship ORDER BY id", schemas["battle_death"])
    assert outcome.table.ordered


ENDLESS_SQL = (
    "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r) SELECT count(*) FROM r"
)


def test_timeout_error_and_refused_write_leave_the_connection_usable(schemas, monkeypatch):
    schema = schemas["battle_death"]
    expected = execute("SELECT * FROM ship ORDER BY id", schema)
    assert len(expected.table.rows) == 7
    with monkeypatch.context() as patch:
        patch.setattr(execution, "TIMEOUT_SECONDS", 0.05)
        assert execute(ENDLESS_SQL, schema).timed_out
    assert execute("SELECT * FROM ship ORDER BY id", schema) == expected
    assert execute("SELECT * FROM no_such_table", schema).error is not None
    assert execute("SELECT * FROM ship ORDER BY id", schema) == expected
    assert execute("DELETE FROM ship", schema).error is not None
    assert execute("SELECT * FROM ship ORDER BY id", schema) == expected


def test_temp_table_does_not_shadow_the_database_for_the_next_query(schemas):
    schema = schemas["battle_death"]
    expected = execute("SELECT * FROM ship ORDER BY id", schema)
    assert execute("CREATE TEMP TABLE ship (x)", schema).table is not None
    assert execute("SELECT * FROM ship ORDER BY id", schema) == expected


def _numbers_db(path, values):
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (n INTEGER)")
    conn.executemany("INSERT INTO t VALUES (?)", [(v,) for v in values])
    conn.commit()
    conn.close()
    return DatabaseSchema(db_id="numbers", tables=(("t", (("n", "number"),)),), db_path=path)


def test_open_transaction_and_capped_fetch_hold_no_read_lock(tmp_path, monkeypatch):
    schema = _numbers_db(tmp_path / "n.sqlite", [1, 2, 3])
    execute("BEGIN", schema)
    with monkeypatch.context() as patch:
        patch.setattr(execution, "MAX_ROWS", 1)
        assert execute("SELECT n FROM t", schema).table.truncated
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
    assert execute("SELECT n FROM t", schema).table is not None
    os.remove(tmp_path / "n.sqlite")
    with pytest.raises(DatabaseMissingError):
        execute("SELECT n FROM t", schema)


def _counting_executions(monkeypatch) -> list[str]:
    """The SQL of every execution a memo asks for, in order; "slow" times out."""
    calls = []

    def counting(sql, schema, *args):
        calls.append(sql)
        return ExecOutcome(timed_out=True) if sql == "slow" else execute(sql, schema, *args)

    monkeypatch.setattr(execution, "execute", counting)
    return calls


def test_memo_keeps_tables_and_errors_but_not_timeouts_or_tables_past_max_rows(
    schemas, monkeypatch
):
    big = _count_to(MEMO_MAX_ROWS + 1)
    calls = _counting_executions(monkeypatch)
    schema = schemas["battle_death"]
    assert len(execute(big, schema).table.rows) == MEMO_MAX_ROWS + 1
    memo = OutcomeMemo(schema)
    for sql, kept in (("SELECT name FROM ship", True), ("SELECT * FROM nowhere", True),
                      (big, False), ("slow", False)):
        first = memo.run(sql)
        again = memo.run(sql)
        assert (again is first) is kept
        assert calls.count(sql) == (1 if kept else 2)


def test_memo_keeps_its_first_table_past_max_rows_and_no_later_one(schemas, monkeypatch):
    big, bigger = _count_to(MEMO_MAX_ROWS + 1), _count_to(MEMO_MAX_ROWS + 2)
    calls = _counting_executions(monkeypatch)
    schema = schemas["battle_death"]
    memo = OutcomeMemo(schema)
    first = memo.run(big)
    assert len(first.table.rows) == MEMO_MAX_ROWS + 1
    # Another spelling of the same statement gets that very table.
    assert memo.run("  " + big.lower()) is first
    assert calls == [big]
    # A second table past the bound runs again; a small one is still kept.
    for sql, kept in ((bigger, False), ("SELECT name FROM ship", True)):
        again = memo.run(sql)
        assert (memo.run(sql) is again) is kept
        assert calls.count(sql) == (1 if kept else 2)


def test_memo_never_keeps_a_timed_out_first_outcome(schemas, monkeypatch):
    big = _count_to(MEMO_MAX_ROWS + 1)
    calls = _counting_executions(monkeypatch)
    schema = schemas["battle_death"]
    memo = OutcomeMemo(schema)
    assert memo.run("slow").timed_out
    assert memo.run("slow").timed_out
    assert calls == ["slow", "slow"]
    # The first table comes after the timeout, and is kept whatever its size.
    first = memo.run(big)
    assert memo.run(big) is first
    assert calls.count(big) == 1


def test_memo_rereads_a_database_replaced_between_two_examples_of_one_group(
    tmp_path, monkeypatch
):
    schema = _numbers_db(tmp_path / "n.sqlite", [1, 2])
    gold = "SELECT n FROM t ORDER BY n"
    examples = [
        SpiderExample(id=i, question=f"q{i}", db_id="numbers", gold_sql=gold,
                      hardness=Hardness.EASY)
        for i in range(2)
    ]
    # Example 1's prediction matches only the replacement's rows, so it
    # scores correct only if the gold is read again too.
    transcripts = [
        PipelineTranscript(
            example_id=i, db_id="numbers", question=f"q{i}", gold_sql=gold, stages=[],
            final_sql=sql, final_verdict=Verdict.FAILED,
        )
        for i, sql in enumerate([gold, "SELECT n FROM t WHERE n > 5 ORDER BY n"])
    ]
    original = evaluate._score_one

    def replacing(transcript, *args):
        if transcript.example_id == 1:
            _numbers_db(tmp_path / "other.sqlite", [7, 8, 9])
            os.replace(tmp_path / "other.sqlite", tmp_path / "n.sqlite")
        return original(transcript, *args)

    monkeypatch.setattr(evaluate, "_score_one", replacing)
    report = evaluate.score(transcripts, examples, {"numbers": schema}, with_triage=False)
    assert report.buckets[Hardness.EASY].correct == 2


def test_memo_still_raises_for_a_deleted_database(tmp_path):
    schema = _numbers_db(tmp_path / "n.sqlite", [1])
    memo = OutcomeMemo(schema)
    assert memo.run("SELECT n FROM t").table is not None
    os.remove(tmp_path / "n.sqlite")
    # The next example's pin finds no file.
    with pytest.raises(DatabaseMissingError):
        memo.pin()
    with pytest.raises(DatabaseMissingError):
        OutcomeMemo(schema).run("SELECT n FROM t")


def test_memo_keeps_the_first_table_of_a_database_replaced_partway(tmp_path, monkeypatch):
    schema = _numbers_db(tmp_path / "n.sqlite", [1])
    calls = _counting_executions(monkeypatch)
    monkeypatch.setattr(execution, "MEMO_MAX_ROWS", 2)
    memo = OutcomeMemo(schema)
    sql = "SELECT n FROM t"
    pinned = memo.run(sql)
    assert len(pinned.table.rows) == 1
    _numbers_db(tmp_path / "other.sqlite", [1, 2, 3])
    os.replace(tmp_path / "other.sqlite", tmp_path / "n.sqlite")
    # Until the next pin, lookups read the pinned file: a hit, and a miss
    # on the connection still open on the replaced file.
    assert memo.run(sql) is pinned
    assert memo.run("SELECT count(*) FROM t").table.rows == ((1,),)
    # The pin drops the old entries; the replacement's first table is kept,
    # though it is past MEMO_MAX_ROWS.
    memo.pin()
    first = memo.run(sql)
    assert len(first.table.rows) == 3
    assert memo.run(sql) is first
    assert calls == [sql, "SELECT count(*) FROM t", sql]


def _rewrite_in_place(path) -> None:
    """Change every row of ``t`` and grow the file, keeping its inode."""
    conn = sqlite3.connect(path)
    conn.execute("UPDATE t SET n = n + 10")
    conn.execute("CREATE TABLE pad (x)")
    conn.commit()
    conn.close()


def test_an_example_whose_file_changes_partway_raises_and_keeps_no_table(
    tmp_path, monkeypatch
):
    schema = _numbers_db(tmp_path / "n.sqlite", [1, 2])
    gold = "SELECT n FROM t ORDER BY n"
    example = SpiderExample(id=0, question="q", db_id="numbers", gold_sql=gold,
                            hardness=Hardness.EASY)

    def reply(request):
        _rewrite_in_place(tmp_path / "n.sqlite")  # after the gold ran
        return "SELECT n FROM t"

    endpoint = ModelEndpoint("generator", ScriptedTransport(reply), "gen-model")
    calls = _counting_executions(monkeypatch)
    memo = OutcomeMemo(schema)
    with pytest.raises(DatabaseChangedError, match="changed while example 0 ran"):
        run_pipeline(example, schema, PipelineConfig(enable_error_correction=False),
                     endpoint, endpoint, memo)
    assert calls[:2] == [gold, "SELECT n FROM t"]
    ran = len(calls)
    # The example's outcomes are gone: its gold runs again, on the new file.
    assert memo.run(gold).table.rows == ((11,), (12,))
    assert calls[ran:] == [gold]


def test_a_wal_mode_database_is_read_with_its_wal_file(tmp_path):
    writer = sqlite3.connect(tmp_path / "w.sqlite")
    writer.execute("PRAGMA journal_mode = WAL")
    writer.execute("CREATE TABLE t (n INTEGER)")
    writer.executemany("INSERT INTO t VALUES (?)", [(1,), (2,), (3,)])
    writer.commit()
    # Copied before any checkpoint: the rows are in the -wal file alone.
    (tmp_path / "copy").mkdir()
    for suffix in ("", "-wal", "-shm"):
        shutil.copy(tmp_path / f"w.sqlite{suffix}", tmp_path / "copy" / f"n.sqlite{suffix}")
    writer.close()
    schema = DatabaseSchema(db_id="numbers", tables=(("t", (("n", "number"),)),),
                            db_path=tmp_path / "copy" / "n.sqlite")
    assert execute("SELECT n FROM t ORDER BY n", schema).table.rows == ((1,), (2,), (3,))
    assert len(OutcomeMemo(schema).run("SELECT n FROM t").table.rows) == 3


def test_a_database_path_that_is_a_directory_raises(tmp_path):
    schema = DatabaseSchema(db_id="numbers", tables=(("t", (("n", "number"),)),), db_path=tmp_path)
    with pytest.raises(DatabaseMissingError):
        execute("SELECT 1", schema)


@pytest.mark.parametrize("workers", [0, 2], ids=["this-thread", "run-many-2-workers"])
def test_a_dropped_schema_closes_every_connection_it_opened_at_once(
    tmp_path, monkeypatch, workers
):
    from test_pipeline import scripted_endpoints

    schema = _numbers_db(tmp_path / "n.sqlite", [1, 2, 3])
    opened = []
    connect = sqlite3.connect

    def recording(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sqlite3, "connect", recording)
    enabled = gc.isenabled()
    gc.disable()  # the connections must close without the cyclic collector
    try:
        if workers:
            examples = [
                SpiderExample(id=i, question=f"q{i}", db_id="numbers",
                              gold_sql=f"SELECT n FROM t WHERE n > {i}", hardness=Hardness.EASY)
                for i in range(4)
            ]
            generator, corrector = scripted_endpoints(
                {stage: "SELECT n FROM t" for stage in ("zero_shot", "example_1", "error")}
            )
            run_many(examples, {"numbers": schema}, PipelineConfig(), generator, corrector,
                     workers=workers)
        else:
            execute("SELECT n FROM t", schema)
            execute("PRAGMA user_version", schema)  # closes; the next query reopens
            OutcomeMemo(schema).run("SELECT n FROM t")
        assert opened
        del schema
        for conn in opened:
            with pytest.raises(sqlite3.ProgrammingError, match="closed database"):
                conn.execute("SELECT 1")
    finally:
        if enabled:
            gc.enable()


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


def test_a_timeout_on_one_thread_does_not_stop_another_threads_query(schemas, monkeypatch):
    # The other thread's query runs about a second under the 30 s deadline
    # while this thread's queries keep timing out under a 50 ms one.
    schema = schemas["battle_death"]
    counted = (
        "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r WHERE i < 2000000) "
        "SELECT count(*) FROM r"
    )
    started = threading.Event()
    results = []

    def other() -> None:
        started.set()
        results.append(execute(counted, schema))

    thread = threading.Thread(target=other)
    thread.start()
    assert started.wait(timeout=30)
    time.sleep(0.2)  # the other thread has read the 30 s budget
    monkeypatch.setattr(execution, "TIMEOUT_SECONDS", 0.05)
    timed_out = []
    while thread.is_alive() and len(timed_out) < 1000:
        timed_out.append(execute(ENDLESS_SQL, schema).timed_out)
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert timed_out and all(timed_out)
    assert [outcome.table.rows for outcome in results] == [((2000000,),)]


def test_temp_table_on_one_thread_leaves_another_threads_connection_alone(schemas):
    schema = schemas["battle_death"]
    sql = "SELECT * FROM ship ORDER BY id"
    expected = execute(sql, schema)
    done = threading.Event()
    seen: dict[str, object] = {}

    def other() -> None:
        try:
            outcomes = [execute(sql, schema)]
            cached = execution._CONNECTIONS[schema].entry
            for _ in range(100):
                outcomes.append(execute(sql, schema))
                kept = getattr(execution._CONNECTIONS[schema], "entry", None) is cached
                seen["kept"] = seen.get("kept", True) and kept
            seen["outcomes"] = outcomes
        finally:
            done.set()

    thread = threading.Thread(target=other)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread.start()
        deadline = time.monotonic() + 60
        while not done.is_set() and time.monotonic() < deadline:
            assert execute("CREATE TEMP TABLE ship (x)", schema).table is not None
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert seen == {"kept": True, "outcomes": [expected] * 101}
    assert execute(sql, schema) == expected


def test_timeout_while_fetching_rows_reported_as_timeout(schemas, monkeypatch):
    # The first rows of this 67M-row product arrive at once; fetching all of
    # them outlives the budget.
    sql = "SELECT a.Id FROM cars_data AS a, cars_data AS b, cars_data AS c"
    monkeypatch.setattr(execution, "TIMEOUT_SECONDS", 0.05)
    monkeypatch.setattr(execution, "MAX_ROWS", 5)
    assert execute(sql, schemas["car_1"]).table.truncated
    monkeypatch.setattr(execution, "MAX_ROWS", 10**8)
    assert execute(sql, schemas["car_1"]).timed_out


def _counting_stats(monkeypatch, paths) -> list:
    """Every ``os.stat`` of one of ``paths``, which is how a file's identity is read."""
    paths = {os.fspath(path) for path in paths}
    stats = []
    real_stat = os.stat

    def counting_stat(path, *args, **kwargs):
        if os.fspath(path) in paths:
            stats.append(path)
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", counting_stat)
    return stats


def test_memo_executes_once_and_stats_the_file_once_per_pin(schemas, monkeypatch):
    schema = schemas["battle_death"]
    execute("SELECT 1", schema)  # this thread's connection is open
    file_key = execution._file_key(schema)
    keys = []

    def recording(sql, schema, *args):
        keys.append(args)
        return execute(sql, schema, *args)

    stats = _counting_stats(monkeypatch, [schema.db_path])
    monkeypatch.setattr(execution, "execute", recording)
    memo = OutcomeMemo(schema)
    memo.run("SELECT name FROM ship")
    assert len(stats) == 1  # the first lookup pins; the pin serves the connection
    assert keys == [(file_key,)]
    memo.run("SELECT name FROM ship")
    memo.run("SELECT id FROM ship")
    assert len(stats) == 1  # a hit and a miss read nothing
    assert keys == [(file_key,)] * 2
    assert memo.pin() == file_key
    assert len(stats) == 2
    execute("SELECT id FROM ship", schema)
    assert len(stats) == 3  # a direct call stats for itself


def _wrong_then_right(loaded):
    """Endpoints that answer each question wrong, then with an engine error,
    and last with the gold for every other question, so every stage, every
    judgment and the triage probes run."""
    from test_pipeline import question_of, stage_of

    golds = {ex.question: ex.gold_sql for ex in loaded.examples}
    right = set(list(golds)[::2])

    def reply(request):
        stage, question = stage_of(request), question_of(request)
        if stage == "error" and question in right:
            return golds[question]
        return "SELECT 1" if stage == "zero_shot" else "SELECT nothing FROM nowhere"

    return (ModelEndpoint("generator", ScriptedTransport(reply), "gen-model"),
            ModelEndpoint("corrector", ScriptedTransport(reply), "fix-model"))


@pytest.mark.parametrize("workers", [1, 2])
def test_each_example_reads_the_file_identity_at_most_twice_to_run_and_once_to_score(
    loaded, monkeypatch, workers
):
    examples, schemas = loaded.examples, loaded.schemas
    generator, corrector = _wrong_then_right(loaded)
    stats = _counting_stats(monkeypatch, [schema.db_path for schema in schemas.values()])
    transcripts = run_many(examples, schemas, PipelineConfig(), generator, corrector,
                           workers=workers)
    assert 0 < len(stats) <= 2 * len(examples)
    assert {t.final_verdict for t in transcripts} == {Verdict.FAILED, Verdict.CORRECTED_BY_ERROR}
    for transcript in transcripts:
        assert transcript.judgment is not None
    for fresh in (False, True):  # judged in memory, then read from a file
        if fresh:
            transcripts = [PipelineTranscript.from_json(t.to_json()) for t in transcripts]
        stats.clear()
        report = evaluate.score(transcripts, examples, schemas, with_triage=True)
        assert 0 < len(stats) <= len(examples)
        assert report.verdicts
    for ex in examples:
        stats.clear()
        run_pipeline(ex, schemas[ex.db_id], PipelineConfig(), generator, corrector)
        assert 0 < len(stats) <= 2


# --------------------------------------------------------------------------- statement key

SQLITE_SPACE = " \t\n\f\r"
# Mixed-case literals, doubled quotes, blobs and whitespace inside literals,
# which the corpus and the golds hardly hold.
RESPELLABLE_EXTRA = [
    ("battle_death", "SELECT Name FROM ship WHERE disposition_of_ship = 'Sank' OR name = 'ship 1'"),
    ("battle_death", "SELECT 'it''s  A' || name, X'aB', 0xfF, 1E1 FROM ship ORDER BY name DESC"),
    ("battle_death", "SELECT name FROM ship WHERE name LIKE 'SHIP%' AND name GLOB 'ship [1-3]'"),
    ("battle_death", "SELECT CAST(id AS TEXT) COLLATE NOCASE AS Id, upper(name) FROM ship "
                     "WHERE id IN (SELECT id FROM ship WHERE lost_in_battle >= 3) ORDER BY Id"),
]


def _foldable(sql: str) -> bool:
    return (sql.isascii() and sql.count("'") % 2 == 0
            and not any(mark in sql for mark in ('"', "`", "[", "--", "/*")))


def _respelled(sql: str, rng: random.Random) -> str:
    """``sql`` with each ASCII letter outside string literals in either case
    and each whitespace run there of another length and kind, still a gap."""

    def respell(match: re.Match) -> str:
        if match[0].isalpha():
            return rng.choice([str.upper, str.lower])(match[0])
        return "".join(rng.choice(SQLITE_SPACE) for _ in range(rng.randint(1, 3)))

    parts = sql.split("'")
    parts[::2] = [re.sub(r"[ \t\n\f\r]+|[A-Za-z]", respell, part) for part in parts[::2]]
    ends = ["", " ", "\n", "\t\r\f"]
    return rng.choice(ends) + "'".join(parts) + rng.choice(ends)


@pytest.fixture(scope="module")
def respellable(schemas):
    queries = generate_corpus(schemas) + RESPELLABLE_EXTRA + [
        (ex["db_id"], ex["query"]) for ex in DEV_EXAMPLES
    ]
    return [(db_id, sql) for db_id, sql in queries if _foldable(sql)]


@pytest.fixture(scope="module")
def plain_connections(schemas):
    conns = {
        db_id: sqlite3.connect(f"file:{schema.db_path}?mode=ro", uri=True)
        for db_id, schema in schemas.items()
    }
    yield conns
    for conn in conns.values():
        conn.close()


def test_nearly_every_query_is_respellable(respellable):
    assert len(respellable) >= 200


@settings(max_examples=300, derandomize=True, deadline=None)
@given(pick=st.integers(min_value=0), seed=st.integers(min_value=0, max_value=2**32))
def test_a_respelled_query_keeps_its_key_rows_and_order(
    respellable, plain_connections, pick, seed
):
    db_id, sql = respellable[pick % len(respellable)]
    variant = _respelled(sql, random.Random(seed))
    assert statement_key(variant) == statement_key(sql)
    assert query_is_ordered(variant) == query_is_ordered(sql)
    conn = plain_connections[db_id]
    assert conn.execute(variant).fetchall() == conn.execute(sql).fetchall()


@pytest.mark.parametrize(
    "one, other",
    [
        ("SELECT 0x1g", "SELECT 0x1 g"),  # one token or two
        ("SELECT x'ab' FROM t", "SELECT x 'ab' FROM t"),  # a blob or an alias
        ("SELECT 'A'", "SELECT 'a'"),
        ('SELECT "a" FROM t', "SELECT [a] FROM t"),
        ('SELECT "A"', 'SELECT "a"'),  # a string where no column has the name
        ("SELECT \u00e9 FROM t", "SELECT \u00c9 FROM t"),  # SQLite folds ASCII only
        ("SELECT 1\u00a0FROM t", "SELECT 1 FROM t"),  # NBSP is no SQLite whitespace
        ("SELECT\t1\x1cFROM t", "SELECT 1 FROM t"),  # nor is \x1c, which str.split takes
        ("SELECT 1 WHERE 'k' LI\u212aE 'k'", "SELECT 1 WHERE 'k' LIKE 'k'"),  # Kelvin sign
        ("SELECT a FROM t -- A", "select a from t -- a"),
        ("SELECT a /* A */ FROM t", "select a /* a */ from t"),
        ("SELECT 'A", "select 'A"),
    ],
)
def test_texts_sqlite_may_read_apart_get_different_keys(one, other):
    assert statement_key(one) != statement_key(other)
    for sql in (one, other):
        if not _foldable(sql):
            assert statement_key(sql) == sql


def test_statement_key_folds_case_and_gaps_outside_literals_only():
    assert statement_key("\n SELECT  Name\tFROM\r\n Ship WHERE a = 'It''s  A' ") == (
        "select name from ship where a = 'It''s  A'"
    )


def test_a_statement_hit_returns_the_table_and_names_of_the_first_text(schemas, monkeypatch):
    schema = schemas["battle_death"]
    calls = _counting_executions(monkeypatch)
    for first, second in (("SELECT count(*) FROM ship", "select COUNT(*)\nfrom  Ship"),
                          ("SELECT COUNT(*) FROM ship", "SELECT count(*) FROM ship")):
        calls.clear()
        memo = OutcomeMemo(schema)
        outcome = memo.run(first)
        assert memo.run(second) is outcome
        assert calls == [first]
        assert outcome.table.columns == (first.split()[1],)


def test_an_error_is_kept_for_its_exact_text_only(schemas, monkeypatch):
    schema = schemas["battle_death"]
    calls = _counting_executions(monkeypatch)
    memo = OutcomeMemo(schema)
    lower = memo.run("select name from from ship")
    upper = memo.run("SELECT name FROM FROM ship")
    assert 'near "from"' in lower.error and 'near "FROM"' in upper.error
    assert memo.run("SELECT name FROM FROM ship") is upper
    assert calls == ["select name from from ship", "SELECT name FROM FROM ship"]


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


def test_equal_int_and_float_past_2_53_differ():
    # Equal as Python numbers, but the float normalises to 7 significant
    # digits while the int stays exact.
    for ordered in (False, True):
        result = tables_equivalent(
            table([[2**53]], ordered=ordered), table([[2.0**53]], ordered=ordered)
        )
        assert result.status == "different"
    result = tables_equivalent(table([["x", 2**60]]), table([["x", float(2**60)]]))
    assert result.detail == (
        "row ('x', 1152921504606846976) appears 1x in pred, 0x in gold"
    )
    assert tables_equivalent(table([[2**53 - 1]]), table([[2.0**53 - 1]])).equivalent


def test_non_finite_floats_equal_only_the_same_non_finite_value():
    conn = sqlite3.connect(":memory:")
    inf, minus_inf = conn.execute("SELECT 1e999, -1e999").fetchone()  # REAL infinities
    assert (inf, minus_inf) == (float("inf"), float("-inf"))
    nan = float("inf") - float("inf")
    pairs = {
        (inf, "inf"): "different",
        (minus_inf, "-inf"): "different",
        (nan, "nan"): "different",
        (inf, minus_inf): "different",
        (inf, float("inf")): "equivalent",
        (nan, float("nan")): "equivalent",  # a fresh NaN object
    }
    for ordered in (False, True):
        for (a, b), status in pairs.items():
            result = tables_equivalent(table([[a]], ordered=ordered), table([[b]], ordered=ordered))
            assert result.status == status, (a, b, ordered)
    result = tables_equivalent(table([[inf]], ordered=True), table([["inf"]], ordered=True))
    assert result == TableComparison("different", "row 0 differs: (inf,) != ('inf',)")


def test_zero_column_tables_compare_by_row_count():
    def empty(n, ordered=False):
        return ResultTable(columns=(), rows=((),) * n, ordered=ordered)

    assert tables_equivalent(empty(3), empty(3)) == TableComparison("equivalent")
    assert tables_equivalent(empty(3, True), empty(3, True)) == TableComparison("equivalent")
    assert tables_equivalent(empty(2), empty(3)) == TableComparison(
        "different", "row count 2 != 3"
    )


def test_one_ordered_side_notes_multiset_comparison_on_every_path():
    note = "(exactly one side is ordered; compared as multisets)"
    # only ints: nothing to normalise
    same = tables_equivalent(table([[1], [2]], ordered=True), table([[2], [1]]))
    assert same == TableComparison("equivalent", note)
    # a float column whose raw rows are equal as multisets
    raw = tables_equivalent(table([[1.5], [2.5]], ordered=True), table([[2.5], [1.5]]))
    assert raw == TableComparison("equivalent", note)
    # equal only after normalisation: an int and a float in one column
    mixed = tables_equivalent(table([[1], [2.0]], ordered=True), table([[2], [1.0]]))
    assert mixed == TableComparison("equivalent", note)
    differ = tables_equivalent(table([[1], [2.5]], ordered=True), table([[2], [1.0]]))
    assert differ == TableComparison(
        "different", f"row (2.5,) appears 1x in pred, 0x in gold {note}"
    )


def test_equal_row_sequences_are_decided_without_building_multisets(monkeypatch):
    def no_counts(rows):
        raise AssertionError("built a multiset for equal row sequences")

    monkeypatch.setattr(execution, "_counts", no_counts)
    note = "(exactly one side is ordered; compared as multisets)"
    # only ints; a float column equal raw; an int and a float in one column
    for rows in ([[1], [2], [1]], [[1.5], [2.5]], [[1], [2.0]]):
        for ordered in (False, True):
            result = tables_equivalent(table(rows, ordered=ordered), table(rows))
            assert result == TableComparison("equivalent", note if ordered else "")


def test_sequence_mismatch_reports_normalised_rows():
    a = table([[1, 2.0], [3, "x"]], ordered=True)
    b = table([[1.0, 2], [3, "y"]], ordered=True)
    assert tables_equivalent(a, b) == TableComparison(
        "different", "row 1 differs: (3, 'x') != (3, 'y')"
    )
    assert tables_equivalent(a, table([[1, 2], [3.0, "x"]], ordered=True)).equivalent


def test_normalize_cell_integral_floats():
    assert normalize_cell(3.0) == 3
    assert normalize_cell(3) == 3
    assert isinstance(normalize_cell(3.5), float)


def test_float_noise_next_to_a_large_integer_is_the_integer():
    # The 15-significant-digit form of the float is the integer itself.
    assert normalize_cell(123456789.0000001) == 123456789
    pairs = {
        (123456789.0000001, 123456789): "equivalent",
        (1234567.0000001, 1234567): "equivalent",
        (123456789.5, 123456789): "different",
    }
    for ordered in (False, True):
        for (a, b), status in pairs.items():
            result = tables_equivalent(table([[a]], ordered=ordered), table([[b]], ordered=ordered))
            assert result.status == status, (a, b, ordered)


def _fetched(conn, sql, ordered):
    cursor = conn.execute(sql)
    columns = tuple(d[0] for d in cursor.description)
    return ResultTable(columns=columns, rows=tuple(cursor.fetchall()), ordered=ordered)


def test_tables_equal_cell_for_cell_are_equivalent():
    conn = sqlite3.connect(":memory:")
    # A NUMERIC column holds both ints and floats, so that column is
    # normalised and the others are compared as they are.
    conn.execute("CREATE TABLE t (i INTEGER, r REAL, s TEXT, b BLOB, n INTEGER, m NUMERIC)")
    conn.executemany(
        "INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)",
        [(k, k / 4, "name%d" % (k % 7), bytes([k % 256]) * (k % 3), None, k / 4)
         for k in range(-5, 300, 7)]
        + [(2**53, 2.0**53, "", b"", None, 2**53), (10**15, -1e300, "x", b"\0", None, 0.1)],
    )
    upper = "SELECT i, r, s, b, n, m FROM t ORDER BY i"
    lower = "select i AS a, r, s, b, n, m from t order by i"
    note = "(exactly one side is ordered; compared as multisets)"
    for pred_ordered, gold_ordered, detail in (
        (True, True, ""), (False, False, ""), (True, False, note), (False, True, note)
    ):
        pred = _fetched(conn, upper, pred_ordered)
        gold = _fetched(conn, lower, gold_ordered)
        assert pred.rows is not gold.rows and len(pred.rows) == 46
        assert {type(row[5]) for row in pred.rows} == {int, float}
        assert tables_equivalent(pred, gold) == TableComparison("equivalent", detail)


def test_cells_of_another_type_or_bits_take_the_normalising_path():
    pairs = {
        (2**53, 2.0**53): "different",
        (3, 3.0): "equivalent",
        (-0.0, 0.0): "equivalent",
        (True, 1): "equivalent",
    }
    for ordered in (False, True):
        for (a, b), status in pairs.items():
            pred = table([["x", a], ["y", 2.5]], ordered=ordered)
            gold = table([["x", b], ["y", 2.5]], ordered=ordered)
            assert tables_equivalent(pred, gold).status == status, (a, b, ordered)
    nan = float("nan")
    same = table([[nan, "a"]])
    assert tables_equivalent(same, same) == TableComparison("equivalent")


def test_cells_of_a_type_sqlite_never_returns_compare_normalised():
    # A Decimal is outside the exact types, so its column is normalised.
    pred = table([[Decimal("2.5"), 1], [Decimal("1"), 2]])
    gold = table([[Decimal("2.5"), 1], [Decimal("1"), 2]])
    assert tables_equivalent(pred, gold) == TableComparison("equivalent")
    assert tables_equivalent(table([[Decimal("1.5")]]), table([[1.5]])).equivalent
    result = tables_equivalent(
        table([[Decimal("2")], [1]], ordered=True), table([[1], [Decimal("2")]], ordered=True)
    )
    assert result == TableComparison("different", "row 0 differs: (Decimal('2'),) != (1,)")
