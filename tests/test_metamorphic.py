"""Triage verdicts do not move under rewrites that change nothing.

Each rewrite below turns a query into one that SQLite reads the same way
and that returns the same table. Applied to either side of a prediction and
gold pair on the ``concert_singer`` fixture, it must leave the diff summary
and what ``score`` makes of the pair as they were: correct when the tables
are equivalent, else the triage category. The pairs take their predictions from
the test corpus, the dev golds and a few queries that give each rewrite
something to change. Each is paired with itself, under every rewrite, and
with the dev golds, under rewrites Hypothesis picks.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from nl2sql.execution import OutcomeMemo, tables_equivalent
from nl2sql.sqlast import (
    BoolOp,
    Comparison,
    Literal,
    Select,
    Star,
    SubquerySource,
    canonicalize,
    diff,
    parse,
    to_sql,
)
from nl2sql.sqlast.nodes import map_children
from nl2sql.sqlast.tokens import tokenize
from nl2sql.triage import triage

from conftest import DEV_EXAMPLES
from helpers import alias_permuted_sql, generate_corpus

DB_ID = "concert_singer"
GOLDS = [ex["query"] for ex in DEV_EXAMPLES if ex["db_id"] == DB_ID]
# Conjunctions, both spellings of "not equal", literal-first comparisons,
# joins with a star and a FROM subquery, which the corpus and the golds
# hardly hold.
EXTRA = [
    "SELECT name FROM singer WHERE age > 30 AND country <> 'France'",
    "SELECT name FROM singer WHERE 30 < age AND country != 'France' AND singer_id > 1",
    "SELECT T2.name FROM concert AS T1 JOIN stadium AS T2 ON T1.stadium_id = T2.stadium_id "
    "WHERE T1.year >= 2014 AND T2.capacity > 5000 ORDER BY T2.capacity DESC LIMIT 1",
    "SELECT location FROM stadium WHERE 50000 <= capacity OR (highest > 100 AND lowest != 0)",
    "SELECT country, count(*) FROM singer WHERE age >= 20 AND age <= 40 GROUP BY country "
    "HAVING count(*) > 1 AND country != 'x'",
    "SELECT * FROM concert AS T1 JOIN stadium AS T2 ON T1.stadium_id = T2.stadium_id",
    "SELECT T1.*, T2.name FROM concert AS T1, stadium AS T2 WHERE T1.stadium_id = T2.stadium_id",
    "SELECT T2.name FROM (SELECT stadium_id FROM concert WHERE year >= 2014) AS T1 "
    "JOIN stadium AS T2 ON T1.stadium_id = T2.stadium_id",
]
MIRRORED = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}
# Keywords that end a WHERE, HAVING or ON condition at its own depth.
CONDITION_ENDS = frozenset(
    "where group having order limit union intersect except join inner left right full "
    "cross natural on".split()
)


# --------------------------------------------------------------------------- rewrites

def keyword_case(sql: str, schema, rng: random.Random) -> str:
    """Every keyword in upper, lower or mixed case."""
    spelled = {
        tok.pos: rng.choice([str.upper, str.lower, str.capitalize])(tok.text)
        for tok in tokenize(sql)
        if tok.keyword() is not None
    }
    return _splice(sql, {pos: (len(text), text) for pos, text in spelled.items()})


def not_equal_spelling(sql: str, schema, rng: random.Random) -> str:
    """``<>`` for ``!=`` and the other way round."""
    swap = {"!=": "<>", "<>": "!="}
    return _splice(
        sql, {t.pos: (2, swap[t.text]) for t in tokenize(sql) if t.kind == "op" and t.text in swap}
    )


def redundant_parentheses(sql: str, schema, rng: random.Random) -> str:
    """Every WHERE, HAVING and ON condition, at every depth, in parentheses."""
    tokens = tokenize(sql)
    edits: dict[int, tuple[int, str]] = {}
    depth = 0
    depths = []
    for tok in tokens:
        if tok.kind == "punct" and tok.text == ")":
            depth -= 1
        depths.append(depth)
        if tok.kind == "punct" and tok.text == "(":
            depth += 1
    for i, tok in enumerate(tokens):
        if tok.keyword() not in ("where", "having", "on"):
            continue
        end = next(
            j
            for j in range(i + 1, len(tokens))
            if depths[j] < depths[i]
            or depths[j] == depths[i]
            and (tokens[j].kind == "end" or tokens[j].keyword() in CONDITION_ENDS
                 or tokens[j].kind == "punct" and tokens[j].text in ",;")
        )
        edits[tokens[i + 1].pos] = (0, "(")
        before = edits.get(tokens[end].pos, (0, ""))
        edits[tokens[end].pos] = (before[0], ") " + before[1])
    return _splice(sql, edits)


def conjunct_order(sql: str, schema, rng: random.Random) -> str:
    """The terms of every AND in a shuffled order."""

    def shuffled(node):
        if isinstance(node, BoolOp) and node.op == "and":
            terms = list(node.terms)
            rng.shuffle(terms)
            return replace(node, terms=tuple(terms))
        return node

    return to_sql(_rewrite_exprs(parse(sql, schema), shuffled))


def literal_side(sql: str, schema, rng: random.Random) -> str:
    """Every comparison between a literal and a non-literal with its sides
    swapped and its operator mirrored."""

    def flipped(node):
        if (
            isinstance(node, Comparison)
            and node.op in MIRRORED
            and isinstance(node.left, Literal) != isinstance(node.right, Literal)
        ):
            return replace(node, op=MIRRORED[node.op], left=node.right, right=node.left)
        return node

    return to_sql(_rewrite_exprs(parse(sql, schema), flipped))


def alias_renaming(sql: str, schema, rng: random.Random) -> str:
    return alias_permuted_sql(sql, schema, rng.randrange(1000))


def from_order(sql: str, schema, rng: random.Random) -> str:
    """The two inner-joined sources of the query, of its FROM subqueries and
    of its compound arms in the other order, the condition kept on the
    second. A bare ``*`` lists its columns in FROM order, so a SELECT that
    has one is left as it is."""

    def swapped(select: Select) -> Select:
        items = tuple(
            replace(i, source=replace(i.source, query=swapped(i.source.query)))
            if isinstance(i.source, SubquerySource) else i
            for i in select.from_items
        )
        bare_star = any(isinstance(i.expr, Star) and i.expr.table is None for i in select.items)
        if len(items) == 2 and items[1].join_type in ("join", ",") and not bare_star:
            first, second = items
            items = (
                replace(second, join_type=None, condition=None),
                replace(first, join_type=second.join_type, condition=second.condition),
            )
        if select.set_op is not None:
            select = replace(select, set_op=(select.set_op[0], swapped(select.set_op[1])))
        return replace(select, from_items=items)

    return to_sql(swapped(parse(sql, schema)))


REWRITES = {
    f.__name__: f
    for f in (
        alias_renaming,
        from_order,
        keyword_case,
        not_equal_spelling,
        redundant_parentheses,
        conjunct_order,
        literal_side,
    )
}


def _splice(sql: str, edits: dict[int, tuple[int, str]]) -> str:
    """``sql`` with, at each position, that many characters replaced by the text."""
    for pos in sorted(edits, reverse=True):
        length, text = edits[pos]
        sql = sql[:pos] + text + sql[pos + length :]
    return sql


def _rewrite_exprs(select: Select, fn) -> Select:
    """``select`` with ``fn`` applied bottom-up to every expression in every
    clause, nested SELECTs included."""

    def expr(node):
        if isinstance(node, Select):
            return _rewrite_exprs(node, fn)
        return fn(map_children(node, expr))

    def from_item(item):
        source = item.source
        if isinstance(source, SubquerySource):
            source = replace(source, query=_rewrite_exprs(source.query, fn))
        condition = None if item.condition is None else expr(item.condition)
        return replace(item, source=source, condition=condition)

    return replace(
        select,
        items=tuple(replace(i, expr=expr(i.expr)) for i in select.items),
        from_items=tuple(map(from_item, select.from_items)),
        where=None if select.where is None else expr(select.where),
        group_by=tuple(map(expr, select.group_by)),
        having=None if select.having is None else expr(select.having),
        order_by=tuple(replace(o, expr=expr(o.expr)) for o in select.order_by),
        set_op=None if select.set_op is None else (
            select.set_op[0], _rewrite_exprs(select.set_op[1], fn)
        ),
    )


# --------------------------------------------------------------------------- the property

@pytest.fixture(scope="module")
def schema(schemas):
    return schemas[DB_ID]


@pytest.fixture(scope="module")
def predictions(schemas):
    corpus = [sql for db_id, sql in generate_corpus(schemas) if db_id == DB_ID]
    return corpus + GOLDS + EXTRA


def observed(pred_sql: str, gold_sql: str, schema) -> tuple:
    """The diff summary of one pair and what ``score`` makes of it:
    "correct" when the tables are equivalent, else the triage category."""
    pred, gold = parse(pred_sql, schema), parse(gold_sql, schema)
    summary = diff(canonicalize(pred), canonicalize(gold)).summary()
    memo = OutcomeMemo(schema)
    pred_table = memo.run(pred_sql).table
    gold_table = memo.run(gold_sql).table
    if pred_table is not None and tables_equivalent(pred_table, gold_table).equivalent:
        return summary, "correct"
    return summary, triage(pred, gold, pred_table, gold_table, memo).category


def test_every_rewrite_changes_some_query(schema, predictions):
    rng = random.Random(0)
    for name, rewrite in REWRITES.items():
        assert any(rewrite(sql, schema, rng) != sql for sql in predictions), name


def test_rewrites_of_a_query_paired_with_itself_move_nothing(schema, predictions):
    # Such a pair has an empty diff, where any rewrite the canonical form
    # does not absorb shows.
    rng = random.Random(0)
    for sql in predictions:
        expected = observed(sql, sql, schema)
        for name, rewrite in REWRITES.items():
            rewritten = rewrite(sql, schema, rng)
            assert observed(rewritten, sql, schema) == expected, (name, rewritten)
            assert observed(sql, rewritten, schema) == expected, (name, rewritten)


@settings(max_examples=200)
@given(
    pick=st.integers(min_value=0),
    gold_index=st.integers(min_value=0, max_value=len(GOLDS) - 1),
    rewrite=st.sampled_from(sorted(REWRITES)),
    on_prediction=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_rewrites_move_no_diff_summary_and_no_category(
    schema, predictions, pick, gold_index, rewrite, on_prediction, seed
):
    pred, gold = predictions[pick % len(predictions)], GOLDS[gold_index]
    expected = observed(pred, gold, schema)
    if on_prediction:
        pred = REWRITES[rewrite](pred, schema, random.Random(seed))
    else:
        gold = REWRITES[rewrite](gold, schema, random.Random(seed))
    assert observed(pred, gold, schema) == expected, (pred, gold)
