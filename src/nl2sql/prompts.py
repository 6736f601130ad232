"""Prompt construction: schema serialization, result tables, stage templates.

Every function here is a pure string builder; given the same inputs the
bytes are identical, which the replay store and transcript determinism rely
on. A schema's block is built once and kept while the schema lives: the
cache holds it weakly, so it keeps no schema alive.

A result table renders as GitHub-style markdown: one header row, one
separator row of ``---`` cells, one line per data row up to
``MAX_PROMPT_ROWS`` and a note counting the rest. ``format_cell`` is the
one rule for a cell's text: NULL is an empty cell, a blob ``0x`` and its
hex, a float its ``repr`` (the shortest round-trip form); any other cell's
``str`` has backslash and pipe backslash-escaped and newline written
``\\n``, as column names are. ``render_markdown`` applies the rule a column
at a time: a column whose cells are all exactly ``int`` or all exactly
``float`` maps that type's ``__repr__``, and one of ``str`` cells that need
no escaping is used as it is, which is what the rule gives for each of
those cells; any other column goes through ``format_cell`` cell by cell.
"""

from __future__ import annotations

import weakref

from .execution import Cell, ResultTable
from .schema import DatabaseSchema

SYSTEM_PROMPT = (
    "You are a careful SQLite engineer. Given a database schema and a "
    "question, reply with one valid SQLite SELECT query that answers the "
    "question. Use only the listed tables and columns. Reply with SQL only."
)

CORRECTOR_SYSTEM_PROMPT = (
    "You are a careful SQLite engineer. You fix broken SQLite SELECT "
    "queries. Reply with one corrected SELECT query and nothing else."
)


# Each live schema's block, built by ``_build_schema_block``.
_SCHEMA_BLOCKS: weakref.WeakKeyDictionary[DatabaseSchema, str] = weakref.WeakKeyDictionary()


def schema_block(schema: DatabaseSchema) -> str:
    """Render the schema in the compact table(column, ...) prompt format."""
    block = _SCHEMA_BLOCKS.get(schema)
    if block is None:
        block = _SCHEMA_BLOCKS[schema] = _build_schema_block(schema)
    return block


def _build_schema_block(schema: DatabaseSchema) -> str:
    lines = ["### SQLite SQL tables, with their properties:", "#"]
    for name, columns in schema.tables:
        cols = ", ".join(col for col, _typ in columns)
        lines.append(f"# {name}({cols})")
    lines.append("#")
    if schema.foreign_keys:
        lines.append("### Foreign keys:")
        for (src_t, src_c), (dst_t, dst_c) in schema.foreign_keys:
            lines.append(f"# {src_t}.{src_c} = {dst_t}.{dst_c}")
        lines.append("#")
    return "\n".join(lines)


MAX_PROMPT_ROWS = 50  # gold tables beyond this are cut with a note

_INT, _FLOAT, _STR = frozenset({int}), frozenset({float}), frozenset({str})


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace("|", "\\|").replace("\n", "\\n")
    )


def format_cell(cell: Cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bytes):
        return "0x" + cell.hex()
    if isinstance(cell, float):
        return repr(cell)
    return _escape(str(cell))


def _column_texts(column: tuple[Cell, ...]) -> list[str] | tuple[str, ...]:
    """``format_cell`` of each cell of one column."""
    types = set(map(type, column))
    if types == _INT:
        return list(map(int.__repr__, column))
    if types == _FLOAT:
        return list(map(float.__repr__, column))
    if types == _STR:
        text = "".join(column)
        if "\\" not in text and "|" not in text and "\n" not in text:
            return column
    return list(map(format_cell, column))


def render_markdown(table: ResultTable) -> str:
    """Render header, separator and the first ``MAX_PROMPT_ROWS`` data rows,
    with a note counting the rest; no trailing newline."""
    columns = table.columns
    lines = [
        "| " + " | ".join(map(_escape, columns)) + " |",
        "| " + " | ".join(["---"] * len(columns)) + " |",
    ]
    shown = table.rows[:MAX_PROMPT_ROWS]
    if shown:
        if columns:
            rows = map(" | ".join, zip(*map(_column_texts, zip(*shown))))
        else:  # no column to zip: each row is an empty cell list
            rows = [""] * len(shown)
        lines.append("| " + " |\n| ".join(rows) + " |")
    if len(table.rows) > MAX_PROMPT_ROWS:
        lines.append(f"... ({len(table.rows) - MAX_PROMPT_ROWS} more rows not shown)")
    return "\n".join(lines)


def zero_shot_user_prompt(question: str, schema: DatabaseSchema) -> str:
    return f"{schema_block(schema)}\n\n### Question: {question}\n### SQL:"


def example_correction_prompt(gold_table_markdown: str) -> str:
    """Follow-up turn shown in the same conversation after a result mismatch."""
    return (
        "The output of the query you wrote does not match the expected "
        "result table for this question. The expected result table is:\n\n"
        f"{gold_table_markdown}\n\n"
        "Revise your SQL so that executing it produces exactly this result "
        "table. Reply with SQL only."
    )


def error_correction_prompt(
    question: str,
    schema: DatabaseSchema,
    failed_sql: str,
    execution_error: str | None,
    timed_out: bool = False,
) -> str:
    """A fresh prompt for the corrector model: no earlier conversation text
    is carried over except the failed SQL itself."""
    parts = [
        schema_block(schema),
        f"### Question: {question}",
        "### A previous attempt produced this SQL, which is wrong:",
        failed_sql,
    ]
    if execution_error is not None:
        parts.append("### Executing it failed with this error:")
        parts.append(execution_error)
    elif timed_out:
        parts.append("### Executing it did not finish within the time limit.")
    else:
        parts.append("### It executes, but its result table does not answer the question correctly.")
    parts.append("### Write a corrected SQLite SELECT query. Reply with SQL only.")
    return "\n\n".join(parts)
