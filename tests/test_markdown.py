from __future__ import annotations

from nl2sql.execution import ResultTable
from nl2sql.mdtable import MAX_PROMPT_ROWS, render_markdown

from helpers import parse_markdown


def table(rows, columns, ordered=False):
    return ResultTable(
        columns=tuple(columns), rows=tuple(tuple(r) for r in rows), ordered=ordered
    )


def test_zero_row_table_is_header_and_separator_only():
    text = render_markdown(table([], ["a"]))
    assert text == "| a |\n| --- |"


def test_one_by_one_table_exact_bytes():
    text = render_markdown(table([[5]], ["n"]))
    assert text == "| n |\n| --- |\n| 5 |"


def test_pipe_in_cell_is_escaped():
    text = render_markdown(table([["a|b"]], ["c"]))
    assert "a\\|b" in text
    header, rows = parse_markdown(text)
    assert rows == (("a|b",),)


def test_backslash_and_newline_escaping_round_trip():
    text = render_markdown(table([["x\\y", "l1\nl2"]], ["a", "b"]))
    header, rows = parse_markdown(text)
    assert rows == (("x\\y", "l1\nl2"),)


def test_null_renders_empty():
    text = render_markdown(table([[None]], ["a"]))
    assert text.splitlines()[2] == "|  |"


def test_round_trip_columns_and_cells():
    t = table([[1, "x"], [2, "y"]], ["id", "name"])
    header, rows = parse_markdown(render_markdown(t))
    assert header == ("id", "name")
    assert rows == (("1", "x"), ("2", "y"))


def test_rendering_is_deterministic():
    t = table([[1.5, "a"], [None, "b"]], ["x", "y"])
    assert render_markdown(t) == render_markdown(t)


def test_row_cut_note_after_max_rows():
    t = table([[i] for i in range(60)], ["n"])
    text = render_markdown(t)
    lines = text.splitlines()
    assert len(lines) == 2 + 50 + 1
    assert lines[-1] == "... (10 more rows not shown)"


def test_small_table_not_cut():
    # A table of exactly MAX_PROMPT_ROWS rows is shown whole, with no note.
    t = table([[i] for i in range(MAX_PROMPT_ROWS)], ["n"])
    assert len(render_markdown(t).splitlines()) == 2 + MAX_PROMPT_ROWS
