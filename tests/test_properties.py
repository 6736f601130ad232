from __future__ import annotations

import random
from collections import Counter

from hypothesis import example, given, settings, strategies as st

from nl2sql.execution import (
    ResultTable,
    TableComparison,
    normalize_cell,
    query_is_ordered,
    tables_equivalent,
)
from nl2sql.mdtable import MAX_PROMPT_ROWS, _escape, format_cell, render_markdown
from nl2sql.sqlast import canonicalize, diff, parse
from nl2sql.sqlast.tokens import tokenize

from helpers import generate_corpus, parse_markdown

cells = st.one_of(
    st.none(),
    st.integers(min_value=-1000, max_value=1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet="abcXYZ|\\ ", max_size=6),
)


def tables(draw, min_cols=1, max_cols=3, max_rows=5, ordered=None):
    n_cols = draw(st.integers(min_value=min_cols, max_value=max_cols))
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    rows = tuple(
        tuple(draw(cells) for _ in range(n_cols)) for _ in range(n_rows)
    )
    if ordered is None:
        ordered = draw(st.booleans())
    return ResultTable(
        columns=tuple(f"c{i}" for i in range(n_cols)), rows=rows, ordered=ordered
    )


table_strategy = st.composite(tables)()


# Cells where raw equality and equality after normalisation part ways: ints
# and floats equal past 2**53, signed zero, NaN (equal to a fresh NaN once
# normalised, never to the text 'nan'), infinities, bytes, bools, and ints
# equal to floats.
edge_cells = st.one_of(
    st.none(),
    st.sampled_from(
        [2**53, -(2**53), 2**60, 2**53 - 1, 2.0**53, -(2.0**53), 2.0**60, 2.0**53 - 1,
         0, 0.0, -0.0, 3, 3.0, 1.00000001, 1.00000002, True, False,
         "nan", "inf", b"", b"x", "x"]
    ),
    st.integers(min_value=-3, max_value=3),
    st.floats(width=16),
    st.binary(max_size=2),
)


def _twin(cell, draw):
    """A cell equal in value to ``cell`` that may differ in type or identity."""
    if isinstance(cell, float) and cell.is_integer() and draw(st.booleans()):
        return int(cell)
    if isinstance(cell, int) and not isinstance(cell, bool) and draw(st.booleans()):
        return float(cell)
    if isinstance(cell, float):
        return -cell if cell == 0 else float(repr(cell))  # signed zero, fresh NaN
    return cell


@st.composite
def table_pairs(draw):
    """Two tables of one shape: independent, or the second a retyped, shuffled
    or slightly altered copy of the first, so both equal and unequal pairs
    are common."""
    n_cols = draw(st.integers(min_value=0, max_value=3))
    n_rows = draw(st.integers(min_value=0, max_value=5))
    rows = [tuple(draw(edge_cells) for _ in range(n_cols)) for _ in range(n_rows)]
    kind = draw(st.sampled_from(["independent", "same", "twin", "twin-altered"]))
    if kind == "independent":
        other = [tuple(draw(edge_cells) for _ in range(n_cols)) for _ in range(n_rows)]
    elif kind == "same":
        other = list(rows)
    else:
        other = [tuple(_twin(c, draw) for c in row) for row in rows]
        if kind == "twin-altered" and n_rows and n_cols:
            i = draw(st.integers(min_value=0, max_value=n_rows - 1))
            j = draw(st.integers(min_value=0, max_value=n_cols - 1))
            cells = list(other[i])
            cells[j] = draw(edge_cells)
            other[i] = tuple(cells)
    if draw(st.booleans()):
        other = draw(st.permutations(other))
    columns = tuple(f"c{i}" for i in range(n_cols))
    return (
        ResultTable(columns=columns, rows=tuple(rows), ordered=draw(st.booleans())),
        ResultTable(columns=columns, rows=tuple(other), ordered=draw(st.booleans())),
    )


# Objects drawn from a fixed pool are shared between cells, and a rebuilt
# copy holds fresh objects of the same values: equal cell for cell, yet not
# the same table object, so the pair is decided on normalised rows.
_SHARED = ["alpha", "beta gamma", 10**12, -(2**40), 2.5, -0.0, b"blob"]
realistic_cells = st.one_of(
    edge_cells,
    st.sampled_from(_SHARED),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, width=64),
    st.text(alphabet="abcXYZ ", max_size=8),
)


def _rebuilt(cell):
    """A fresh object of the same type and value (small ints and short
    strings are cached by the interpreter and stay shared)."""
    if isinstance(cell, bool) or cell is None:
        return cell
    if isinstance(cell, int):
        return int(str(cell))
    if isinstance(cell, float):
        return float(repr(cell))
    if isinstance(cell, str):
        return cell.encode().decode()
    return bytes(bytearray(cell))


@st.composite
def large_table_pairs(draw):
    """Two tables of 10 to 50 rows: one a rebuilt copy of the other, a value
    twin, or either of those shuffled or with one cell replaced."""
    n_cols = draw(st.integers(min_value=1, max_value=3))
    n_rows = draw(st.integers(min_value=10, max_value=50))
    rows = [tuple(draw(realistic_cells) for _ in range(n_cols)) for _ in range(n_rows)]
    kind = draw(st.sampled_from(["same", "rebuilt", "twin"]))
    if kind == "same":
        other = list(rows)
    elif kind == "rebuilt":
        other = [tuple(_rebuilt(c) for c in row) for row in rows]
    else:
        other = [tuple(_twin(c, draw) for c in row) for row in rows]
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=n_rows - 1))
        j = draw(st.integers(min_value=0, max_value=n_cols - 1))
        cells = list(other[i])
        cells[j] = draw(realistic_cells)
        other[i] = tuple(cells)
    if draw(st.booleans()):
        other = draw(st.permutations(other))
    columns = tuple(f"c{i}" for i in range(n_cols))
    return (
        ResultTable(columns=columns, rows=tuple(rows), ordered=draw(st.booleans())),
        ResultTable(columns=columns, rows=tuple(other), ordered=draw(st.booleans())),
    )


# --------------------------------------------------------------------------- oracles

def reference_tables_equivalent(pred: ResultTable, gold: ResultTable) -> TableComparison:
    """tables_equivalent computed by normalising every cell, then comparing."""
    if pred.truncated or gold.truncated:
        return TableComparison("inconclusive", "a table was truncated by the row cap")
    if len(pred.columns) != len(gold.columns):
        return TableComparison(
            "different", f"column count {len(pred.columns)} != {len(gold.columns)}"
        )
    if len(pred.rows) != len(gold.rows):
        return TableComparison("different", f"row count {len(pred.rows)} != {len(gold.rows)}")
    pred_rows = [tuple(normalize_cell(c) for c in row) for row in pred.rows]
    gold_rows = [tuple(normalize_cell(c) for c in row) for row in gold.rows]
    if pred.ordered and gold.ordered:
        for idx, (p, g) in enumerate(zip(pred_rows, gold_rows)):
            if p != g:
                return TableComparison("different", f"row {idx} differs: {p!r} != {g!r}")
        return TableComparison("equivalent")
    note = ""
    if pred.ordered != gold.ordered:
        note = " (exactly one side is ordered; compared as multisets)"
    pred_count, gold_count = Counter(pred_rows), Counter(gold_rows)
    for row, n in pred_count.items():
        if gold_count[row] != n:
            return TableComparison(
                "different", f"row {row!r} appears {n}x in pred, {gold_count[row]}x in gold{note}"
            )
    for row, n in gold_count.items():
        if pred_count[row] != n:
            return TableComparison(
                "different", f"row {row!r} appears {pred_count[row]}x in pred, {n}x in gold{note}"
            )
    return TableComparison("equivalent", note.strip())


def oracle_multiset_equal(a: ResultTable, b: ResultTable) -> bool:
    """Naive O(n^2) multiset matching over normalized rows."""
    if len(a.columns) != len(b.columns) or len(a.rows) != len(b.rows):
        return False
    remaining = [tuple(normalize_cell(c) for c in row) for row in b.rows]
    for row in a.rows:
        key = tuple(normalize_cell(c) for c in row)
        if key in remaining:
            remaining.remove(key)
        else:
            return False
    return not remaining


def oracle_sequence_equal(a: ResultTable, b: ResultTable) -> bool:
    if len(a.columns) != len(b.columns) or len(a.rows) != len(b.rows):
        return False
    for ra, rb in zip(a.rows, b.rows):
        if tuple(normalize_cell(c) for c in ra) != tuple(normalize_cell(c) for c in rb):
            return False
    return True


# --------------------------------------------------------------------------- properties

@settings(max_examples=300)
@given(table_strategy)
def test_equivalence_is_reflexive(t):
    assert tables_equivalent(t, t).equivalent


@settings(max_examples=300)
@given(table_strategy, table_strategy)
def test_equivalence_is_symmetric(a, b):
    assert tables_equivalent(a, b).equivalent == tables_equivalent(b, a).equivalent


@settings(max_examples=300)
@given(table_strategy, table_strategy, table_strategy)
def test_equivalence_is_transitive(a, b, c):
    if tables_equivalent(a, b).equivalent and tables_equivalent(b, c).equivalent:
        assert tables_equivalent(a, c).equivalent


@settings(max_examples=300)
@given(table_strategy, table_strategy)
def test_unordered_comparison_matches_multiset_oracle(a, b):
    a_unordered = ResultTable(columns=a.columns, rows=a.rows, ordered=False)
    b_unordered = ResultTable(columns=b.columns, rows=b.rows, ordered=False)
    got = tables_equivalent(a_unordered, b_unordered).equivalent
    assert got == oracle_multiset_equal(a_unordered, b_unordered)


@settings(max_examples=300)
@given(table_strategy, table_strategy)
def test_ordered_comparison_matches_sequence_oracle(a, b):
    a_ordered = ResultTable(columns=a.columns, rows=a.rows, ordered=True)
    b_ordered = ResultTable(columns=b.columns, rows=b.rows, ordered=True)
    got = tables_equivalent(a_ordered, b_ordered).equivalent
    assert got == oracle_sequence_equal(a_ordered, b_ordered)


@settings(max_examples=500)
@given(table_pairs())
def test_comparison_matches_cell_by_cell_reference(pair):
    pred, gold = pair
    assert tables_equivalent(pred, gold) == reference_tables_equivalent(pred, gold)


@settings(max_examples=80)
@given(large_table_pairs())
def test_comparison_matches_reference_on_tables_of_10_to_50_rows(pair):
    pred, gold = pair
    assert tables_equivalent(pred, gold) == reference_tables_equivalent(pred, gold)


@settings(max_examples=200)
@given(table_strategy)
def test_shuffled_rows_stay_equivalent_when_unordered(t):
    rows = list(t.rows)
    random.Random(0).shuffle(rows)
    shuffled = ResultTable(columns=t.columns, rows=tuple(rows), ordered=False)
    unordered = ResultTable(columns=t.columns, rows=t.rows, ordered=False)
    assert tables_equivalent(unordered, shuffled).equivalent


@settings(max_examples=200)
@given(st.lists(st.text(alphabet="abc |\\nx", max_size=8), min_size=1, max_size=3))
def test_markdown_round_trips_cell_texts(texts):
    table = ResultTable(
        columns=tuple(f"c{i}" for i in range(len(texts))),
        rows=(tuple(texts),),
        ordered=False,
    )
    header, rows = parse_markdown(render_markdown(table))
    assert header == table.columns
    assert rows == (tuple(t.strip() for t in texts),)


def cell_by_cell_markdown(table: ResultTable) -> str:
    """Reference: ``render_markdown`` with ``format_cell`` applied to each cell."""
    lines = [
        "| " + " | ".join(_escape(c) for c in table.columns) + " |",
        "| " + " | ".join("---" for _ in table.columns) + " |",
    ]
    for row in table.rows[:MAX_PROMPT_ROWS]:
        lines.append("| " + " | ".join(format_cell(c) for c in row) + " |")
    if len(table.rows) > MAX_PROMPT_ROWS:
        lines.append(f"... ({len(table.rows) - MAX_PROMPT_ROWS} more rows not shown)")
    return "\n".join(lines)


# Every kind of cell: NULL, bool, bytes, ints past 64 bits, NaN, both
# infinities and both zeros, and text with the characters markdown escapes.
markdown_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.binary(max_size=3),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**70, -(2**70), float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    st.floats(),
    st.text(alphabet="ab |\\\n\r\xa0", max_size=6),
)


@st.composite
def markdown_tables(draw):
    """Tables of 0 to 4 columns and 0 to 60 rows, whose columns hold one kind
    of cell, so a column-wise shortcut applies, that kind and a near one (a
    bool is an int, NULL is no text), or any mix."""
    n_cols = draw(st.integers(min_value=0, max_value=4))
    n_rows = draw(st.integers(min_value=0, max_value=60))
    plain_text = st.text(alphabet="ab c", max_size=4)
    column_kinds = [
        st.integers(), st.floats(), plain_text, st.text(alphabet="a|\\\n", max_size=3),
        st.integers() | st.booleans(), st.floats() | st.integers(), plain_text | st.none(),
        markdown_cells,
    ]
    kinds = [draw(st.sampled_from(column_kinds)) for _ in range(n_cols)]
    rows = tuple(tuple(draw(kind) for kind in kinds) for _ in range(n_rows))
    columns = tuple(draw(st.text(alphabet="c|\\\n", min_size=1, max_size=3))
                    for _ in range(n_cols))
    return ResultTable(columns=columns, rows=rows, ordered=False)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(markdown_tables())
# Past the row cut, with and without columns to zip.
@example(ResultTable(columns=(), rows=((),) * 60, ordered=False))
@example(ResultTable(columns=("n",), rows=tuple((i,) for i in range(60)), ordered=False))
def test_markdown_renders_by_column_as_the_cell_rule_does_by_cell(table):
    assert render_markdown(table) == cell_by_cell_markdown(table)


def tokenized_query_is_ordered(sql: str) -> bool:
    """Reference: a top-level ORDER BY found by tokenizing alone."""
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
        elif depth == 0 and tok.keyword() == "order":
            return True
    return False


# ORDER as a keyword, in mixed case, inside quotes, brackets, parentheses and
# comments, as part of longer words, after numbers, and next to text that does
# not tokenize.
sql_fragments = st.sampled_from(
    ["SELECT a FROM t", "ORDER BY a", "order by", "OrDeR", "oRDER BY b DESC", "BY",
     "LIMIT 1", "(", ")", "(SELECT a FROM t ORDER BY a)", "'order by'", "'it''s order'",
     '"order"', "[order]", "[ORDER BY]", "`Order`", "/* order */", "-- order\n",
     "ordered", "reorder", "order_id", "_order", "ORDERS", "'", "[", "/*", "#", "@",
     "\u0130", "\u212a", "\u03a3", "ß", "ORDER\u0130",
     # Numbers: a hex number may run into an identifier, a decimal one may not.
     "0x1", "0x1order", "1e5", "1.", ".5", "1abc"]
)
sql_texts = st.one_of(
    st.lists(sql_fragments, max_size=8).flatmap(
        lambda parts: st.sampled_from([" ".join(parts), "".join(parts)])
    ),
    st.text(alphabet="ordeORDE ()'\"[]`-/*\n,.;a1", max_size=30),
    st.text(max_size=20),
)


@settings(max_examples=500)
@given(sql_texts)
def test_query_is_ordered_agrees_with_the_tokenizer(sql):
    assert query_is_ordered(sql) == tokenized_query_is_ordered(sql)


def test_diff_of_query_with_itself_is_empty_for_whole_corpus(schemas):
    for db_id, sql in generate_corpus(schemas):
        canon = canonicalize(parse(sql, schemas[db_id]))
        assert not diff(canon, canon), sql


def test_print_of_canonical_form_reparses_to_same_canonical(schemas):
    for db_id, sql in generate_corpus(schemas):
        schema = schemas[db_id]
        canon = canonicalize(parse(sql, schema))
        try:
            again = canonicalize(parse(canon.sql, schema))
        except Exception:
            # canonical text of queries with subquery output aliases is for
            # display only; skip the few that stop binding
            continue
        assert again == canon, sql
