"""Sandboxed query execution and result-table equivalence.

Queries run against the example's SQLite file through a read-only
connection under one rule for every caller: a ``TIMEOUT_SECONDS`` (30 s)
deadline and a ``MAX_ROWS`` (100,000) row cap past which the table is
``truncated``, both read at call time. Each thread keeps one connection per
database, cached here per ``DatabaseSchema`` (held weakly, so a dropped
schema closes its connections at once and a schema stays plain data) and
keyed by the identity of the file it was opened on (device, inode, mtime
and size: ``_file_key``); a file of another identity gets a new connection.
A connection is opened ``mode=ro&immutable=1``, so SQLite takes no file
lock and never checks the file for changes: a ``-journal`` or ``-wal`` file
beside it is not read, and only the identity a caller reads tells a changed
file. A file whose header says WAL mode (byte 18 is 2) is opened without
``immutable=1``, as its ``-wal`` file may hold committed pages. Its hooks
are set once, when it opens, and read this thread's record of its running
statement: SQLite's progress handler checks the deadline every
``PROGRESS_STEPS`` VM steps, so no call starts a timer thread, and a
statement it stops (``SQLITE_INTERRUPT``) is a timeout. Any statement that
is not a plain read (a PRAGMA, a TEMP table, ATTACH, a transaction, a
refused write) closes the connection afterwards, so no state reaches the
next query. Outcomes are a tagged union: a table, an engine error (message
kept verbatim: correction prompts quote it), or a timeout. A database file
that is missing or cannot be opened is a harness fault and raises
``DatabaseMissingError`` instead. A table is ``ordered`` when its SQL has a
top-level ORDER BY, which ``query_is_ordered`` reads from the tokenizer's
``_MASTER`` matches without building a token. Its rows come from the cursor
as they are.

An ``OutcomeMemo`` lets one unit of work run each distinct statement once:
one example in ``run`` (its gold and every stage), one gold group in
``evaluate`` (the gold, each prediction and the triage probes). A memo is
one database's. One example pins the file: ``OutcomeMemo.pin`` reads its
identity and drops every entry when that changed, and each lookup until
the next pin runs on that identity's connection and reads no file. ``run``
pins when an example starts and again when it ends; a file whose identity
changed in between raises ``DatabaseChangedError`` (a
``DatabaseMissingError``: exit 6, harness fault), and the end's pin has
already dropped the example's outcomes, so none of its tables is kept or
scored. Raising is chosen over running the example again, which would
repeat its model calls. ``evaluate`` pins once per example it scores, so a
file replaced between two examples is read again. A table is kept under the
``statement_key`` of its SQL, which texts that differ only in ASCII case
and in the kind or length of their whitespace gaps share outside string
literals, and an engine error under the exact text, as SQLite quotes the
spelling in its message. A hit returns the very outcome the first execution
produced, so a shared table carries the column names of the text that ran
first (``count(*)`` and ``COUNT(*)`` name a column differently). A timeout
is never reused, as it depends on host load. The first table a memo
receives from a file is kept whatever its size; a later one past
``MEMO_MAX_ROWS`` (10,000) rows is not. Every unit runs its gold first, and
``run`` holds the gold's outcome for the whole example anyway, so a memo
holds its unit's small tables plus that first table, of at most
``MAX_ROWS`` rows: N workers hold at most N such tables beyond what their
pipelines already hold. A prediction that respells a gold past the bound
then gets the gold's own table, and a gold group runs such a gold once.

Equivalence compares cell contents only: column names are ignored (gold
and predictions alias columns differently), rows compare as sequences when
both queries are ordered and as multisets otherwise. Cells are compared in
a canonical form, so that equivalence is a true equivalence relation: ints
stay exact; a float whose nearest int is below 2**53 in magnitude becomes
that int when it equals it, exactly or in its 15-significant-digit form
(so ``123456789.0000001`` becomes ``123456789``); any other finite float
is rounded to ``SIGNIFICANT_DIGITS`` (7) significant digits (~ relative
1e-6), and becomes an int if the rounded value is integral and below
2**53. So an int and a float that are equal but of magnitude >= 2**53 are
not equivalent: the float is rounded, the int is not. The rule reads the
cell alone; one that read the other table's column types would break
transitivity. A NaN and each infinity become a marker equal only to
itself, so NaN equals NaN and no text, such as 'nan' or 'inf', equals
either.

The same table object, which the memo hands out when two SQL texts share
a statement key, is equivalent without normalising. Otherwise each table
is normalised on its own: only its columns holding a float, a bool or
another type the rule may change are normalised, and a table with none
is compared as it is. This decides as normalising both tables in full
would, since the rule reads each cell alone and leaves an int, a text, a
blob and NULL unchanged. Equal rows (equal sequences, so equal multisets
too) are decided before any multiset is built.
"""

from __future__ import annotations

import math
import os
import re
import sqlite3
import stat
import threading
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from urllib.parse import quote

from .errors import DatabaseMissingError
from .schema import DatabaseSchema
from .sqlast.tokens import _ERROR_KINDS, _MASTER

Cell = None | int | float | str | bytes

TIMEOUT_SECONDS = 30.0
MAX_ROWS = 100_000
MEMO_MAX_ROWS = 10_000
SIGNIFICANT_DIGITS = 7
# SQLite VM steps between two deadline checks.
PROGRESS_STEPS = 10_000
# statement_key's respacing: SQLite's other whitespace becomes a space, then
# a run of spaces one space (str.split() and \s would take \x1c-\x1f too).
_TO_SPACE = bytes.maketrans(b"\t\n\f\r", b"    ")
_SPACES = re.compile(b"  +")
# Quoted identifiers and comments, which statement_key leaves to the exact text.
_UNFOLDED = ('"', "`", "[", "--", "/*")
# Authorizer actions a plain query needs; any other leaves the connection
# in a state the next query must not see, so it is closed after the call.
_READ_ACTIONS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION,
     sqlite3.SQLITE_RECURSIVE}
)


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    ordered: bool  # the producing query has a top-level ORDER BY
    truncated: bool = False


@dataclass(frozen=True)
class ExecOutcome:
    """Exactly one of table / error / timeout is populated."""

    table: ResultTable | None = None
    error: str | None = None
    error_class: str | None = None
    timed_out: bool = False


def query_is_ordered(sql: str) -> bool:
    """True iff the statement has a top-level ORDER BY (paren depth zero).

    Read from the tokenizer's matches on purpose: execution must work even
    for model output our grammar rejects, so this cannot go through the
    parser. It scans ``_MASTER``'s matches without building tokens, counts
    depth on ``(`` and ``)``, and is False for text ``tokenize`` would reject,
    so it reads as the keyword ORDER what ``Token.keyword`` would. A
    keyword lower-cases a substring of the SQL, so text without "order" is
    decided without scanning.
    """
    if "order" not in sql.lower():
        return False
    depth = 0
    ordered = False
    for match in _MASTER.finditer(sql):
        kind = match.lastgroup
        if kind == "punct":
            text = match["punct"]
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
        elif kind == "ident":
            if not depth and match["ident"].lower() == "order":
                ordered = True
        elif kind in _ERROR_KINDS:
            return False
    return ordered


def statement_key(sql: str) -> str:
    """The key under which texts SQLite reads as one statement share a table.

    Outside string literals, ASCII letters are lower-cased and each run of
    SQLite whitespace becomes one space; the literals are kept as they are
    and the ends are stripped. SQLite folds ASCII case in keywords,
    identifiers, function, type and collation names, and a gap stays a gap,
    so the token sequence is the same (``0x1g`` and ``0x1 g``, or ``x'ab'``
    and ``x 'ab'``, keep different keys), and so is ``query_is_ordered``.
    Text this cannot read by splitting on ``'`` is its own key: non-ASCII
    text, an odd number of ``'``, an identifier quoted in double quotes,
    backticks or brackets, or a comment.
    """
    if not sql.isascii() or sql.count("'") % 2 or any(mark in sql for mark in _UNFOLDED):
        return sql
    # On the ASCII bytes, lower-casing and respacing are table look-ups.
    parts = sql.encode().split(b"'")
    parts[::2] = [_SPACES.sub(b" ", part.lower().translate(_TO_SPACE)) for part in parts[::2]]
    return b"'".join(parts).strip(b" ").decode()


class _CachedConnection:
    """A read-only connection and the identity of the file it was opened on.

    The connection is closed when this wrapper is dropped. It sits in a
    reference cycle with its own statement cache, so without the close its
    file handle and page cache would wait for the cyclic collector; the
    wrapper is in no cycle and goes at once. Each connection is used only by
    the thread that opened it, but the last reference may go on another
    thread (a schema dropped there), hence ``check_same_thread=False``. Its
    hooks hold no reference to the wrapper, and ``PROGRESS_STEPS`` is read here.
    """

    __slots__ = ("conn", "file_key")

    def __init__(self, db_path: Path, file_key: tuple[int, ...]) -> None:
        path = os.path.abspath(db_path)
        with open(path, "rb") as fh:
            # Header byte 18 is 2 in WAL mode, whose -wal file immutable=1 skips.
            immutable = "" if fh.read(19)[18:] == b"\x02" else "&immutable=1"
        uri = f"file:{quote(path)}?mode=ro{immutable}"
        self.conn = sqlite3.connect(uri, uri=True, isolation_level=None, check_same_thread=False)
        self.file_key = file_key
        self.conn.set_authorizer(_authorize)
        self.conn.set_progress_handler(_past_deadline, PROGRESS_STEPS)

    def __del__(self) -> None:
        if hasattr(self, "conn"):  # absent when connect() raised in __init__
            self.conn.close()


# The statement running on this thread, which uses its connections alone and
# runs one statement at a time: its ``deadline``, and ``other_action``, set
# when it takes an action outside ``_READ_ACTIONS``. ``execute`` sets both
# before the statement starts, so the hooks never read a missing field.
_statement = threading.local()

# Each live schema's per-thread connection (``entry``), set by ``_connection``.
_CONNECTIONS: weakref.WeakKeyDictionary[DatabaseSchema, threading.local] = weakref.WeakKeyDictionary()


def _authorize(action: int, *_args: object) -> int:
    """Allow everything; only record a statement that is not a plain read."""
    if action not in _READ_ACTIONS:
        _statement.other_action = True
    return sqlite3.SQLITE_OK


def _past_deadline() -> bool:
    """SQLite's progress handler: a true value interrupts the statement."""
    return time.monotonic() > _statement.deadline


def _file_key(schema: DatabaseSchema) -> tuple[int, ...]:
    """The identity of the schema's database file; raises
    ``DatabaseMissingError`` when it is no regular file."""
    try:
        st = os.stat(schema.db_path) if schema.db_path is not None else None
    except OSError:
        st = None
    if st is None or not stat.S_ISREG(st.st_mode):
        raise DatabaseMissingError(f"database file missing for {schema.db_id}: {schema.db_path}")
    return (st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)


def _connection(schema: DatabaseSchema, file_key: tuple[int, ...] | None) -> _CachedConnection:
    """This thread's connection to the schema's database file of identity
    ``file_key`` (read here when the caller has none), opened anew when the
    cached one is of another identity; dropping that one closes it. A file
    that cannot be opened, such as one unreadable or removed since its
    identity was read, raises ``DatabaseMissingError`` and is not cached."""
    if file_key is None:
        file_key = _file_key(schema)
    # setdefault, so that two threads' first calls share one local
    cache = _CONNECTIONS.get(schema) or _CONNECTIONS.setdefault(schema, threading.local())
    cached = getattr(cache, "entry", None)
    if cached is None or cached.file_key != file_key:
        try:
            cached = _CachedConnection(schema.db_path, file_key)
        except (OSError, sqlite3.Error) as exc:
            raise DatabaseMissingError(
                f"cannot open database file for {schema.db_id}: {schema.db_path}: {exc}"
            ) from exc
        cache.entry = cached
    return cached


def execute(
    sql: str, schema: DatabaseSchema, file_key: tuple[int, ...] | None = None
) -> ExecOutcome:
    """Run one SELECT against the schema's database, read-only, under the
    ``TIMEOUT_SECONDS`` deadline and the ``MAX_ROWS`` cap. A direct call
    reads the file's identity itself; an ``OutcomeMemo`` passes the one it
    pinned, and the file is not read again. ``ordered`` comes from
    ``query_is_ordered``, which scans ``_MASTER``'s matches."""
    cursor = _connection(schema, file_key).conn.cursor()
    ordered = query_is_ordered(sql)
    _statement.deadline = time.monotonic() + TIMEOUT_SECONDS
    _statement.other_action = False
    try:
        cursor.execute(sql)
        rows = cursor.fetchmany(MAX_ROWS + 1)
        columns = tuple(d[0] for d in cursor.description) if cursor.description else ()
        truncated = len(rows) > MAX_ROWS
        if truncated:
            rows = rows[:MAX_ROWS]
        # Rows are tuples, as no row_factory is set.
        return ExecOutcome(table=ResultTable(columns, tuple(rows), ordered, truncated))
    except sqlite3.Error as exc:
        if str(exc) == "interrupted":  # SQLITE_INTERRUPT, from _past_deadline
            return ExecOutcome(timed_out=True)
        return ExecOutcome(error=str(exc), error_class=type(exc).__name__)
    finally:
        cursor.close()
        # Dropping the wrapper closes the connection, which also rolls back a
        # transaction the statement left open.
        if _statement.other_action:
            del _CONNECTIONS[schema].entry


class OutcomeMemo:
    """The execution outcomes of one unit of work on ``schema``'s database.

    ``pin`` reads the file's identity into ``file_key`` and, when it
    changed, drops everything the memo held; a lookup reads nothing, and a
    memo never pinned pins at its first lookup. A table is kept under the
    ``statement_key`` of the SQL that produced it and found by any text with
    that key; an engine error is kept and found under its exact text only. A
    text that finds another spelling's table gets that very table, with the
    column names of the text that ran first. Only a gold's names are ever
    read (the correction prompt renders its table), and the gold runs first
    in every memo, so a prompt shows the gold's own spelling. The first table
    of a file is kept whatever its row count, which is the gold's wherever a
    gold runs; a later table is kept only when ``reusable``, and a timeout
    never is: ``timeouts`` counts the lookups that timed out, so a caller
    can tell whether what it derived rests on one. A miss calls this
    module's ``execute``, looked up at call time, with the pinned identity,
    so a rebinding of that name sees every real execution and no hit.

    Not thread-safe: each unit of work owns its memo and drops it at the end.
    Nothing outlives it but the ``file_key`` a caller reads and, for a
    failed example, the two outcomes the pipeline compared, which
    it keeps with its verdict so that ``evaluate`` can tell the verdict is
    about the file it would read.
    """

    __slots__ = ("schema", "file_key", "timeouts", "_tables", "_errors")

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self.file_key: tuple[int, ...] | None = None
        self.timeouts = 0
        self._tables: dict[str, ExecOutcome] = {}
        self._errors: dict[str, ExecOutcome] = {}

    def pin(self) -> tuple[int, ...]:
        """Read the file's identity, the one every later lookup runs on, and
        return it; drop everything the memo held when it changed. Raises
        ``DatabaseMissingError`` when there is no file."""
        file_key = _file_key(self.schema)
        if file_key != self.file_key:
            self.file_key = file_key
            self._tables.clear()
            self._errors.clear()
        return file_key

    def run(self, sql: str) -> ExecOutcome:
        """The outcome of ``execute(sql, self.schema)`` on the pinned file,
        executing only on a miss."""
        if self.file_key is None:
            self.pin()
        statement = statement_key(sql)
        outcome = self._tables.get(statement)
        if outcome is None:
            outcome = self._errors.get(sql)
        if outcome is None:
            outcome = execute(sql, self.schema, self.file_key)
            if outcome.timed_out:
                self.timeouts += 1
            elif outcome.table is None:
                self._errors[sql] = outcome
            elif not self._tables or reusable(outcome):
                self._tables[statement] = outcome
        return outcome


def reusable(outcome: ExecOutcome) -> bool:
    """Whether an outcome may outlive its unit of work, or be kept as a
    memo's second or later table: no timeout, as that depends on host load,
    and no table past ``MEMO_MAX_ROWS`` rows. A memo keeps its first table
    whatever its size (see ``OutcomeMemo``)."""
    table = outcome.table
    return not outcome.timed_out and (table is None or len(table.rows) <= MEMO_MAX_ROWS)


# --------------------------------------------------------------------------- equivalence

@dataclass(frozen=True)
class TableComparison:
    status: str  # "equivalent" | "different" | "inconclusive"
    detail: str = ""

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"


class _NonFinite(Enum):
    """The canonical form of a NaN or an infinity: equal only to itself, so
    every NaN is one cell and no text cell matches it. Prints as the float."""

    NAN = "nan"
    INF = "inf"
    NEG_INF = "-inf"

    def __repr__(self) -> str:
        return self.value


def normalize_cell(cell: Cell) -> Cell | _NonFinite:
    """Canonical form under which cell equality is decided."""
    if isinstance(cell, bool):  # sqlite3 never returns bool, but be safe
        return int(cell)
    if isinstance(cell, float):
        if not math.isfinite(cell):
            return _NonFinite(repr(cell))
        whole = round(cell)
        if abs(whole) < 2**53 and (cell == whole or float("%.15g" % cell) == whole):
            return whole
        rounded = float(f"%.{SIGNIFICANT_DIGITS}g" % cell)
        if rounded == int(rounded) and abs(rounded) < 2**53:
            return int(rounded)
        return rounded
    return cell


# Types normalize_cell returns unchanged.
_EXACT_TYPES = frozenset({int, str, bytes, type(None)})


def _counts(rows) -> dict:
    # A plain dict compares in C; Counter.__eq__ loops in Python.
    return dict(Counter(rows))


def _normalized(rows: tuple[tuple[Cell, ...], ...]) -> tuple[tuple, ...]:
    """The rows with normalize_cell applied to each column holding a type it
    may change (a float, a bool or any type outside ``_EXACT_TYPES``); the
    rows themselves when no column does. A tuple either way, so that ``==``
    between two results is row equality. A table without columns comes back
    as it is, so ``zip(*columns)`` never drops its row count."""
    columns = list(zip(*rows))
    changed = False
    for i, column in enumerate(columns):
        if not _EXACT_TYPES.issuperset(map(type, column)):
            columns[i] = [normalize_cell(c) for c in column]
            changed = True
    return tuple(zip(*columns)) if changed else rows


def normalized_row_counts(rows: tuple[tuple[Cell, ...], ...]) -> dict:
    """How often each row occurs, its cells in the form under which
    ``tables_equivalent`` decides equality."""
    return _counts(_normalized(rows))


def tables_equivalent(pred: ResultTable, gold: ResultTable) -> TableComparison:
    """Decide result equivalence; the report names the first divergence.

    Ordered (sequence) comparison applies when both tables came from
    ORDER BY queries. Truncated inputs are inconclusive by construction.
    The same table object (as the memo serves when two SQL texts share a
    statement key) is equivalent to itself; otherwise each table's rows are
    normalised on their own and compared.
    """
    if pred.truncated or gold.truncated:
        return TableComparison("inconclusive", "a table was truncated by the row cap")
    if len(pred.columns) != len(gold.columns):
        return TableComparison(
            "different", f"column count {len(pred.columns)} != {len(gold.columns)}"
        )
    if len(pred.rows) != len(gold.rows):
        return TableComparison("different", f"row count {len(pred.rows)} != {len(gold.rows)}")

    as_sequences = pred.ordered and gold.ordered
    note = ""
    if not as_sequences and pred.ordered != gold.ordered:
        note = " (exactly one side is ordered; compared as multisets)"
    if pred is gold:
        return TableComparison("equivalent", detail=note.strip())
    pred_rows = _normalized(pred.rows)
    gold_rows = _normalized(gold.rows)
    # Equal sequences are equal multisets: no counts are built for them.
    if pred_rows == gold_rows:
        return TableComparison("equivalent", detail=note.strip())
    if as_sequences:
        idx, p, g = next(
            (idx, p, g) for idx, (p, g) in enumerate(zip(pred_rows, gold_rows)) if p != g
        )
        return TableComparison("different", f"row {idx} differs: {p!r} != {g!r}")
    pred_count = _counts(pred_rows)
    gold_count = _counts(gold_rows)
    if pred_count == gold_count:
        return TableComparison("equivalent", detail=note.strip())
    # The row counts are equal, so some pred row occurs a different number
    # of times in gold.
    row, n = next((row, n) for row, n in pred_count.items() if gold_count.get(row, 0) != n)
    return TableComparison(
        "different", f"row {row!r} appears {n}x in pred, {gold_count.get(row, 0)}x in gold{note}"
    )
