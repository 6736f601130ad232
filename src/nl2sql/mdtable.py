"""Deterministic GitHub-style markdown rendering of result tables.

The exact format (one header row, one separator row of ``---`` cells, one
line per data row, cells escaped as below) is part of the harness contract:
correction prompts embed these bytes, and transcripts must reproduce them
exactly.

Cell text escaping: backslash and pipe are backslash-escaped, newline
becomes ``\\n``. NULL renders as an empty cell. Floats use ``repr`` so the
shortest round-trip form is emitted.

``format_cell`` is the one rule for a cell's text. ``render_markdown``
applies it a column at a time: a column whose cells are all exactly ``int``
or all exactly ``float`` maps that type's ``__repr__``, and one of ``str``
cells that need no escaping is used as it is, which is what the rule gives
for each of those cells; any other column goes through ``format_cell`` cell
by cell.
"""

from __future__ import annotations

from .execution import Cell, ResultTable

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
