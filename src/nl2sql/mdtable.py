"""Deterministic GitHub-style markdown rendering of result tables.

The exact format (one header row, one separator row of ``---`` cells, one
line per data row, cells escaped as below) is part of the harness contract:
correction prompts embed these bytes, and transcripts must reproduce them
exactly.

Cell text escaping: backslash and pipe are backslash-escaped, newline
becomes ``\\n``. NULL renders as an empty cell. Floats use ``repr`` so the
shortest round-trip form is emitted.
"""

from __future__ import annotations

from .execution import Cell, ResultTable

MAX_PROMPT_ROWS = 50  # gold tables beyond this are cut with a note


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


def render_markdown(table: ResultTable) -> str:
    """Render header, separator and the first ``MAX_PROMPT_ROWS`` data rows,
    with a note counting the rest; no trailing newline."""
    lines = [
        "| " + " | ".join(_escape(c) for c in table.columns) + " |",
        "| " + " | ".join("---" for _ in table.columns) + " |",
    ]
    for row in table.rows[:MAX_PROMPT_ROWS]:
        lines.append("| " + " | ".join(format_cell(c) for c in row) + " |")
    if len(table.rows) > MAX_PROMPT_ROWS:
        lines.append(f"... ({len(table.rows) - MAX_PROMPT_ROWS} more rows not shown)")
    return "\n".join(lines)
