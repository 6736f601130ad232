"""Sandboxed query execution and result-table equivalence.

Queries run against the example's SQLite file through a read-only
connection, with a deadline and a row cap so a runaway cartesian product
cannot hang the harness. Each thread keeps one connection per database,
cached on the ``DatabaseSchema`` and reopened when the file changes; the
deadline is checked by SQLite's progress handler every ``PROGRESS_STEPS``
VM steps, so no call opens a connection or starts a timer thread. Any
statement that is not a plain read (a PRAGMA, a TEMP table, ATTACH, a
transaction, a refused write) closes the connection afterwards, so no
state reaches the next query. Outcomes are a tagged union: a table, an
engine error (message kept verbatim: correction prompts quote it), or a
timeout. A missing database file is a harness fault and raises instead.

Equivalence compares cell contents only: column names are ignored (gold
and predictions alias columns differently), rows compare as sequences when
both queries are ordered and as multisets otherwise. Numeric cells are
canonicalized (integral floats to int, others rounded to a configurable
number of significant digits, default 7 ~ relative 1e-6) before comparison
so that equivalence is a true equivalence relation.
"""

from __future__ import annotations

import math
import os
import sqlite3
import stat
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from urllib.parse import quote

from .errors import DatabaseMissingError
from .schema import DatabaseSchema
from .sqlast.tokens import tokenize

Cell = None | int | float | str | bytes

DEFAULT_TIMEOUT_SECONDS = 30.0
DEFAULT_MAX_ROWS = 10_000
SIGNIFICANT_DIGITS = 7
# SQLite VM steps between two deadline checks.
PROGRESS_STEPS = 10_000
# Authorizer actions a plain query needs; any other leaves the connection
# in a state the next query must not see, so it is closed after the call.
_READ_ACTIONS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION,
     sqlite3.SQLITE_RECURSIVE}
)


@dataclass(frozen=True)
class ExecLimits:
    timeout_seconds: float = DEFAULT_TIMEOUT_SECONDS
    max_rows: int = DEFAULT_MAX_ROWS


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    ordered: bool  # the producing query has a top-level ORDER BY
    truncated: bool = False
    row_limit_applied: int | None = None

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row arity differs from column count")


@dataclass(frozen=True)
class ExecOutcome:
    """Exactly one of table / error / timeout is populated."""

    table: ResultTable | None = None
    error: str | None = None
    error_class: str | None = None
    timed_out: bool = False

    @property
    def kind(self) -> str:
        if self.table is not None:
            return "table"
        if self.timed_out:
            return "timeout"
        return "error"


def query_is_ordered(sql: str) -> bool:
    """True iff the statement has a top-level ORDER BY (paren depth zero).

    Token-based on purpose: execution must work even for model output our
    grammar rejects, so this cannot go through the parser.
    """
    try:
        tokens = tokenize(sql)
    except Exception:
        return False
    depth = 0
    for tok in tokens:
        if tok.kind == "punct" and tok.text == "(":
            depth += 1
        elif tok.kind == "punct" and tok.text == ")":
            depth -= 1
        elif depth == 0 and tok.is_keyword("order"):
            return True
    return False


class _CachedConnection:
    """A read-only connection and the identity of the file it was opened on."""

    __slots__ = ("conn", "file_key", "other_actions")

    def __init__(self, db_path: Path, file_key: tuple[int, ...]) -> None:
        uri_path = quote(str(Path(db_path).resolve()))
        self.conn = sqlite3.connect(f"file:{uri_path}?mode=ro", uri=True, isolation_level=None)
        self.file_key = file_key
        self.other_actions: set[int] = set()
        # The authorizer allows everything; it only records what a statement
        # does. It holds the set, not self, so no reference cycle keeps the
        # connection open after its schema is gone.
        self.conn.set_authorizer(_recorder(self.other_actions))


def _recorder(other_actions: set[int]):
    def authorize(action: int, *_args: object) -> int:
        if action not in _READ_ACTIONS:
            other_actions.add(action)
        return sqlite3.SQLITE_OK

    return authorize


def _connection(schema: DatabaseSchema) -> _CachedConnection:
    """This thread's connection to the schema's database, reopened if the file changed."""
    cache = schema._connections
    cached = getattr(cache, "entry", None)
    try:
        st = os.stat(schema.db_path) if schema.db_path is not None else None
    except OSError:
        st = None
    if st is None or not stat.S_ISREG(st.st_mode):
        if cached is not None:
            _drop(schema)
        raise DatabaseMissingError(
            f"database file missing for {schema.db_id}: {schema.db_path}"
        )
    file_key = (st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
    if cached is not None:
        if cached.file_key == file_key:
            return cached
        _drop(schema)
    cache.entry = _CachedConnection(schema.db_path, file_key)
    return cache.entry


def _drop(schema: DatabaseSchema) -> None:
    cache = schema._connections
    cache.entry.conn.close()
    del cache.entry


def execute(sql: str, schema: DatabaseSchema, limits: ExecLimits = ExecLimits()) -> ExecOutcome:
    """Run one SELECT against the schema's database, read-only."""
    cached = _connection(schema)
    conn = cached.conn
    ordered = query_is_ordered(sql)
    deadline = time.monotonic() + limits.timeout_seconds
    timed_out = False

    def past_deadline() -> bool:
        nonlocal timed_out
        timed_out = time.monotonic() > deadline
        return timed_out

    conn.set_progress_handler(past_deadline, PROGRESS_STEPS)
    cursor = conn.cursor()
    try:
        cursor.execute(sql)
        rows = cursor.fetchmany(limits.max_rows + 1)
        columns = tuple(d[0] for d in cursor.description) if cursor.description else ()
        truncated = len(rows) > limits.max_rows
        if truncated:
            rows = rows[: limits.max_rows]
        table = ResultTable(
            columns=columns,
            rows=tuple(rows),  # rows are tuples: no row_factory is set
            ordered=ordered,
            truncated=truncated,
            row_limit_applied=limits.max_rows if truncated else None,
        )
        return ExecOutcome(table=table)
    except sqlite3.Error as exc:
        if timed_out:
            return ExecOutcome(timed_out=True)
        return ExecOutcome(error=str(exc), error_class=type(exc).__name__)
    finally:
        cursor.close()
        conn.set_progress_handler(None, 0)
        # Closing also rolls back a transaction the statement left open.
        if cached.other_actions:
            _drop(schema)


def execute_for_comparison(
    sql: str, schema: DatabaseSchema, limits: ExecLimits = ExecLimits()
) -> ExecOutcome:
    """Execute with a 10x row cap, so comparison sees whole tables where it can.

    The query runs once, under one ``timeout_seconds`` budget; the table is
    ``truncated`` only past ``10 * limits.max_rows`` rows.
    """
    return execute(sql, schema, replace(limits, max_rows=limits.max_rows * 10))


# --------------------------------------------------------------------------- equivalence

@dataclass(frozen=True)
class TableComparison:
    status: str  # "equivalent" | "different" | "inconclusive"
    detail: str = ""

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"


def normalize_cell(cell: Cell, digits: int = SIGNIFICANT_DIGITS) -> Cell:
    """Canonical form under which cell equality is decided."""
    if isinstance(cell, bool):  # sqlite3 never returns bool, but be safe
        return int(cell)
    if isinstance(cell, float):
        if math.isnan(cell) or math.isinf(cell):
            return repr(cell)
        if cell == int(cell) and abs(cell) < 2**53:
            return int(cell)
        rounded = float(f"%.{digits}g" % cell)
        if rounded == int(rounded) and abs(rounded) < 2**53:
            return int(rounded)
        return rounded
    return cell


def _normalize_row(row: tuple[Cell, ...], digits: int) -> tuple[Cell, ...]:
    return tuple(normalize_cell(c, digits) for c in row)


def tables_equivalent(
    pred: ResultTable,
    gold: ResultTable,
    strict_ordering: bool = False,
    digits: int = SIGNIFICANT_DIGITS,
) -> TableComparison:
    """Decide result equivalence; the report names the first divergence.

    Ordered (sequence) comparison applies when both tables came from
    ORDER BY queries; with ``strict_ordering`` it applies when either did.
    Truncated inputs are inconclusive by construction.
    """
    if pred.truncated or gold.truncated:
        return TableComparison("inconclusive", "a table was truncated by the row cap")
    if len(pred.columns) != len(gold.columns):
        return TableComparison(
            "different", f"column count {len(pred.columns)} != {len(gold.columns)}"
        )
    if len(pred.rows) != len(gold.rows):
        return TableComparison("different", f"row count {len(pred.rows)} != {len(gold.rows)}")

    pred_rows = [_normalize_row(r, digits) for r in pred.rows]
    gold_rows = [_normalize_row(r, digits) for r in gold.rows]

    as_sequences = (pred.ordered and gold.ordered) or (
        strict_ordering and (pred.ordered or gold.ordered)
    )
    if as_sequences:
        for idx, (p, g) in enumerate(zip(pred_rows, gold_rows)):
            if p != g:
                return TableComparison("different", f"row {idx} differs: {p!r} != {g!r}")
        return TableComparison("equivalent")

    note = ""
    if pred.ordered != gold.ordered:
        note = " (exactly one side is ordered; compared as multisets)"
    pred_count = Counter(pred_rows)
    gold_count = Counter(gold_rows)
    if pred_count == gold_count:
        return TableComparison("equivalent", detail=note.strip())
    for row, n in pred_count.items():
        if gold_count.get(row, 0) != n:
            return TableComparison(
                "different",
                f"row {row!r} appears {n}x in pred, {gold_count.get(row, 0)}x in gold{note}",
            )
    for row, n in gold_count.items():  # pragma: no cover - symmetric fallback
        if pred_count.get(row, 0) != n:
            return TableComparison(
                "different",
                f"row {row!r} appears {pred_count.get(row, 0)}x in pred, {n}x in gold{note}",
            )
    return TableComparison("equivalent", detail=note.strip())
