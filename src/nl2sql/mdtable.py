"""Deterministic GitHub-style markdown rendering of result tables.

The exact format (one header row, one separator row of ``---`` cells, one
line per data row, cells escaped as below) is part of the harness contract:
correction prompts embed these bytes, and transcripts must reproduce them
exactly. ``parse_markdown`` inverts the rendering for printable tables and
exists mainly so tests can round-trip.

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


def _unescape(text: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


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


def parse_markdown(text: str) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """Inverse of render_markdown for printable tables: returns column names
    and rows of cell *texts* (types are not recoverable)."""
    lines = [ln for ln in text.split("\n") if ln.startswith("|")]
    if len(lines) < 2:
        raise ValueError("not a markdown table")
    header = _split_row(lines[0])
    rows = tuple(_split_row(ln) for ln in lines[2:])
    return header, rows


def _split_row(line: str) -> tuple[str, ...]:
    body = line.strip()
    if body.startswith("|"):
        body = body[1:]
    if body.endswith("|"):
        body = body[:-1]
    cells: list[str] = []
    current: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            current.append(ch + body[i + 1])
            i += 2
            continue
        if ch == "|":
            cells.append(_unescape("".join(current)).strip())
            current = []
            i += 1
            continue
        current.append(ch)
        i += 1
    cells.append(_unescape("".join(current)).strip())
    return tuple(cells)
