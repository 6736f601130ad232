"""``diff`` against the re-qualifying implementation it replaced.

``reference_diff`` is the structural diff as it was before re-qualification
moved into the printer: it rebuilds both canonical queries with every
positional alias replaced by its table name (``_requalify_select``) and
compares the rebuilt trees, walking the nested SELECTs again at every
compound level, and it masks the literals of every conjunct before it
looks for exact matches. It is kept as an oracle, with four fixes: a
condition-less join of a compound query is listed once, a FROM subquery
counts as a joined table by its re-qualified text, which does not depend
on the positional aliases of the sources before it, a LEFT-joined source
counts apart from an inner-joined one, and two numeric literals are equal
only when their values are, not when their floats are (two integers apart
past 2**53 read as one float). The rewritten ``diff`` must give equal
``AstDiff`` values and equal summaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Iterator

from hypothesis import assume, given, settings, strategies as st

from nl2sql.errors import ParseError
from nl2sql.sqlast import canonicalize, diff, parse
from nl2sql.sqlast.canonical import CanonicalAst
from nl2sql.sqlast.diff import (
    AggregateRow,
    AstDiff,
    GroupByDelta,
    JoinDelta,
    LiteralRow,
    SelectDelta,
)
from nl2sql.sqlast.nodes import (
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Literal,
    Select,
    Star,
    SubquerySource,
    TableSource,
    children,
    map_children,
)
from nl2sql.sqlast.printer import expr_sql, to_sql
from nl2sql.sqlast.walk import (
    ConditionlessJoin,
    flatten_and,
    is_link_predicate,
    iter_expr_nodes,
    scope_conditionless_joins,
)

from conftest import DEV_EXAMPLES
from helpers import generate_corpus

_AGG_CLAUSES = ("select", "group_by", "having", "order_by")


# --------------------------------------------------------------------------- main entry

def reference_diff(pred: CanonicalAst, gold: CanonicalAst) -> AstDiff:
    """Compare two canonical queries; fields are labeled from pred's side."""
    p, g = pred.query, gold.query
    rp, rg = _requalify_select(p, _table_map(p)), _requalify_select(g, _table_map(g))
    return _diff_select(p, g, rp, rg)


def _diff_select(pred: Select, gold: Select, rpred: Select, rgold: Select) -> AstDiff:
    """Diff one level; ``rpred`` and ``rgold`` are ``pred`` and ``gold``
    re-qualified by table name."""
    pred_op = pred.set_op[0] if pred.set_op else None
    gold_op = gold.set_op[0] if gold.set_op else None
    structure = [
        name
        for name, differs in (
            ("subquery_shape", _count_subqueries(pred) != _count_subqueries(gold)),
            ("set_op", pred_op != gold_op),
        )
        if differs
    ]
    pred_where, pred_links = _split_links(pred, rpred)
    gold_where, gold_links = _split_links(gold, rgold)
    where_literals, where_mismatch = _diff_predicates(pred_where, gold_where)
    having_literals, having_mismatch = _diff_predicates(
        flatten_and(rpred.having), flatten_and(rgold.having)
    )
    clause = [
        name
        for name, differs in (
            ("where", where_mismatch),
            ("having", having_mismatch),
            ("order_by", _order_keys(rpred) != _order_keys(rgold)),
            ("limit", pred.limit != gold.limit),
            ("distinct", pred.distinct != gold.distinct),
        )
        if differs
    ]
    pred_tables, pred_conds = _join_graph(pred, rpred, pred_links)
    gold_tables, gold_conds = _join_graph(gold, rgold, gold_links)
    paired = pred.set_op is not None and pred_op == gold_op
    out = AstDiff(
        select=_diff_items(rpred, rgold),
        group_by=_diff_group_by(rpred, rgold),
        aggregates=_diff_aggregates(pred, gold),
        joins=JoinDelta(
            extra_tables=_surplus(pred_tables, gold_tables),
            missing_tables=_surplus(gold_tables, pred_tables),
            extra_conditions=_surplus(pred_conds, gold_conds),
            missing_conditions=_surplus(gold_conds, pred_conds),
            pred_conditionless=_conditionless(pred, paired),
            gold_conditionless=_conditionless(gold, paired),
        ),
        literals=tuple(where_literals + having_literals),
        structure=tuple(structure),
        clauses=tuple(clause),
    )
    if paired:
        arms = (pred.set_op[1], gold.set_op[1], rpred.set_op[1], rgold.set_op[1])
        out = out.merge(_diff_select(*arms))
        out = replace(
            out,
            structure=tuple(dict.fromkeys(out.structure)),
            clauses=tuple(dict.fromkeys(out.clauses)),
        )
    return out


# --------------------------------------------------------------------------- re-qualification

def clause_exprs(select: Select) -> list[tuple[str, list[Expr]]]:
    out: list[tuple[str, list[Expr]]] = [("select", [i.expr for i in select.items])]
    conds = [fi.condition for fi in select.from_items if fi.condition is not None]
    if conds:
        out.append(("join", conds))
    if select.where is not None:
        out.append(("where", [select.where]))
    if select.group_by:
        out.append(("group_by", list(select.group_by)))
    if select.having is not None:
        out.append(("having", [select.having]))
    if select.order_by:
        out.append(("order_by", [o.expr for o in select.order_by]))
    return out


def subquery_nodes(expr: Expr) -> list[Select]:
    """Nested SELECTs appearing as operands of the given scope-level expression,
    in the order ``iter_expr_nodes`` reaches the nodes holding them."""
    out: list[Select] = []
    stack: list[Expr] = [expr]
    while stack:
        for child in children(stack.pop()):
            (out if isinstance(child, Select) else stack).append(child)
    return out


def subselects(select: Select) -> Iterator[Select]:
    """The SELECTs nested directly in this one: FROM sources, then expression
    operands in clause order, then the set-operation branch."""
    for item in select.from_items:
        if isinstance(item.source, SubquerySource):
            yield item.source.query
    for _, exprs in clause_exprs(select):
        for expr in exprs:
            yield from subquery_nodes(expr)
    if select.set_op is not None:
        yield select.set_op[1]


def _table_map(select: Select) -> dict[str, str]:
    """Canonical alias -> resolved table name, over every scope. Canonical
    aliases are globally unique within one query, so one flat map works.
    FROM-subquery sources are labeled by their alias-neutral printed text so
    the label is comparable across queries; the walk visits nested SELECTs
    first, so the sources a subquery reads are mapped before it is labeled."""
    out: dict[str, str] = {}

    def visit(s: Select) -> None:
        for sub in subselects(s):
            visit(sub)
        for item in s.from_items:
            src = item.source
            if isinstance(src, TableSource):
                out[src.key] = src.table.lower()
            else:
                out[src.key] = "subquery:" + to_sql(_requalify_select(src.query, out))

    visit(select)
    return out


def _requalify(expr: Expr | None, table_map: dict[str, str]) -> Expr | None:
    """Rewrite positional aliases to table names for cross-query comparison.
    None (an absent clause) comes back as None."""
    if isinstance(expr, ColumnRef):
        name = table_map.get(expr.source)
        return expr if name is None else ColumnRef(table=name, column=expr.column, source=name)
    if isinstance(expr, Star):
        name = table_map.get(expr.source)
        return expr if name is None else Star(table=name, source=name)
    if isinstance(expr, Select):
        return _requalify_select(expr, table_map)
    return map_children(expr, lambda child: _requalify(child, table_map))


def _requalify_select(s: Select, table_map: dict[str, str]) -> Select:
    def requalify(expr: Expr | None) -> Expr | None:
        return _requalify(expr, table_map)

    from_items = []
    for fi in s.from_items:
        src = fi.source
        # Drop the positional alias so printed subqueries compare across
        # queries whose global alias numbering differs.
        if isinstance(src, TableSource):
            src = TableSource(table=src.table, alias=None, key=src.table)
        else:
            src = replace(src, query=_requalify_select(src.query, table_map), alias=None)
        from_items.append(replace(fi, source=src, condition=requalify(fi.condition)))
    return replace(
        s,
        items=tuple(replace(i, expr=requalify(i.expr)) for i in s.items),
        from_items=tuple(from_items),
        where=requalify(s.where),
        group_by=tuple(map(requalify, s.group_by)),
        having=requalify(s.having),
        order_by=tuple(replace(o, expr=requalify(o.expr)) for o in s.order_by),
        set_op=(s.set_op[0], _requalify_select(s.set_op[1], table_map)) if s.set_op else None,
    )


# --------------------------------------------------------------------------- per-clause diffs

def _count_subqueries(select: Select) -> int:
    return sum(1 + _count_subqueries(sub) for sub in subselects(select))


def _surplus(a: Counter, b: Counter) -> tuple[str, ...]:
    """The entries of ``a`` beyond those of ``b``, sorted."""
    return tuple(sorted((a - b).elements()))


def _diff_items(pred: Select, gold: Select) -> SelectDelta:
    pred_keys = [expr_sql(i.expr) for i in pred.items]
    gold_keys = [expr_sql(i.expr) for i in gold.items]
    if pred_keys == gold_keys:
        return SelectDelta()
    pred_count = Counter(pred_keys)
    gold_count = Counter(gold_keys)
    if pred_count == gold_count:
        return SelectDelta(reordered=True)
    return SelectDelta(
        missing=_surplus(gold_count, pred_count), extra=_surplus(pred_count, gold_count)
    )


def _diff_group_by(pred: Select, gold: Select) -> GroupByDelta:
    pred_keys = tuple(sorted(map(expr_sql, pred.group_by)))
    gold_keys = tuple(sorted(map(expr_sql, gold.group_by)))
    if pred_keys == gold_keys:
        return GroupByDelta()
    return GroupByDelta(pred=pred_keys, gold=gold_keys)


def _aggregates_by_clause(select: Select) -> dict[str, tuple[str, ...]]:
    return {
        clause: tuple(sorted(
            node.name
            for expr in exprs
            for node in iter_expr_nodes(expr)
            if _is_aggregate(node)
        ))
        for clause, exprs in clause_exprs(select)
        if clause in _AGG_CLAUSES
    }


def _diff_aggregates(pred: Select, gold: Select) -> tuple[AggregateRow, ...]:
    pred_aggs = _aggregates_by_clause(pred)
    gold_aggs = _aggregates_by_clause(gold)
    rows = (
        AggregateRow(clause, pred_aggs.get(clause, ()), gold_aggs.get(clause, ()))
        for clause in _AGG_CLAUSES
    )
    return tuple(row for row in rows if row.pred != row.gold)


def _split_links(select: Select, requalified: Select) -> tuple[list[Expr], list[Expr]]:
    """The re-qualified WHERE conjuncts that do not link two sources, and
    those that do (``walk.is_link_predicate``). Links are found on the
    canonical tree, where two sources of one table still have two aliases;
    the conjuncts of both trees line up by position."""
    rest: list[Expr] = []
    links: list[Expr] = []
    for conj, req in zip(flatten_and(select.where), flatten_and(requalified.where)):
        (links if is_link_predicate(conj) else rest).append(req)
    return rest, links


def _condition_key(expr: Expr) -> str:
    if isinstance(expr, Comparison) and expr.op == "=":
        lo, hi = sorted((expr_sql(expr.left), expr_sql(expr.right)))
        return f"{lo} = {hi}"
    return expr_sql(expr)


def _join_graph(select: Select, requalified: Select, links: list[Expr]) -> tuple[Counter, Counter]:
    """The joined tables and the pooled join conditions (ON conjuncts and
    WHERE links) of one query. A FROM subquery counts by its re-qualified
    text, and a LEFT-joined source apart from an inner-joined one."""
    tables = Counter(
        ("left join " if item.join_type == "left" else "")
        + (
            item.source.table.lower()
            if isinstance(item.source, TableSource)
            else "subquery:" + to_sql(item.source.query)
        )
        for item in requalified.from_items
    )
    on = [conj for item in requalified.from_items for conj in flatten_and(item.condition)]
    return tables, Counter(map(_condition_key, on + links))


def detect_conditionless_join(select: Select) -> list[ConditionlessJoin]:
    """Flag condition-less joins in this query and any nested subquery."""
    flags = scope_conditionless_joins(select)
    for sub in subselects(select):
        flags.extend(detect_conditionless_join(sub))
    return flags


def _conditionless(select: Select, paired: bool) -> tuple[str, ...]:
    """The condition-less joins of a query; without its set-operation arm
    when the arms are diffed pairwise, since the arm's delta lists its own."""
    if paired:
        select = replace(select, set_op=None)
    return tuple(flag.table for flag in detect_conditionless_join(select))


def _mask_literals(expr: Expr) -> Expr:
    """Replace every literal of this scope by ``?``; nested SELECTs are kept."""
    if isinstance(expr, Literal):
        return Literal(value="?", text="?")
    if isinstance(expr, Select):
        return expr
    return map_children(expr, _mask_literals)


def _literals_of(expr: Expr) -> list[Literal]:
    # Traversal order is deterministic, so two expressions with the same
    # masked shape collect their literals in structurally aligned order.
    return [node for node in iter_expr_nodes(expr) if isinstance(node, Literal)]


def _literal_equal(a: Literal, b: Literal) -> bool:
    # Python compares int and float exactly, and 3 == 3.0.
    return a.value == b.value


def _diff_predicates(
    pred_conjs: list[Expr], gold_conjs: list[Expr]
) -> tuple[list[LiteralRow], bool]:
    """Match re-qualified conjuncts by literal-masked shape; report literal
    differences at matched positions. Returns (literal rows, unexplained
    mismatch?)."""

    def describe(conjs):
        return [(expr_sql(_mask_literals(c)), expr_sql(c), c) for c in conjs]

    # Exact matches first.
    gold_left = describe(gold_conjs)
    pred_left = []
    for entry in describe(pred_conjs):
        match = next((g for g in gold_left if g[1] == entry[1]), None)
        if match is not None:
            gold_left.remove(match)
        else:
            pred_left.append(entry)

    rows: list[LiteralRow] = []
    mismatch = False
    for entry in sorted(pred_left, key=lambda e: (e[0], e[1])):
        shape = entry[0]
        candidates = sorted(
            (g for g in gold_left if g[0] == shape), key=lambda e: e[1]
        )
        if not candidates:
            mismatch = True
            continue
        match = candidates[0]
        gold_left.remove(match)
        pred_lits = _literals_of(entry[2])
        gold_lits = _literals_of(match[2])
        if len(pred_lits) != len(gold_lits):
            mismatch = True
            continue
        for p_lit, g_lit in zip(pred_lits, gold_lits):
            if not _literal_equal(p_lit, g_lit):
                rows.append(LiteralRow(shape, p_lit.text, g_lit.text))
    if gold_left:
        mismatch = True
    return rows, mismatch


def _order_keys(select: Select) -> list[tuple]:
    """ORDER BY keys as compared: an aggregate call by its function name."""
    return [
        (o.descending, (o.expr.name,) if _is_aggregate(o.expr) else expr_sql(o.expr))
        for o in select.order_by
    ]


def _is_aggregate(expr: Expr) -> bool:
    return isinstance(expr, FuncCall) and expr.is_aggregate


# --------------------------------------------------------------------------- differential

# Shapes the corpus does not reach: FROM subqueries (aliased, unaliased,
# nested, joined and in compound arms), compound queries whose arms hold
# condition-less joins or subqueries, correlated subqueries, and a LEFT join
# beside the same inner join.
EXTRA_QUERIES = [
    ("concert_singer", "SELECT T1.concert_name, T2.singer_id FROM concert AS T1 LEFT JOIN "
                       "singer_in_concert AS T2 ON T1.concert_id = T2.concert_id"),
    ("concert_singer", "SELECT T1.concert_name, T2.singer_id FROM concert AS T1 JOIN "
                       "singer_in_concert AS T2 ON T1.concert_id = T2.concert_id"),
    ("concert_singer", "SELECT s.name FROM (SELECT name, age FROM singer WHERE age > 30) AS s "
                       "WHERE s.age < 50"),
    ("concert_singer", "SELECT name FROM (SELECT T1.name, T2.concert_id FROM singer AS T1 "
                       "JOIN singer_in_concert AS T2 ON T1.singer_id = T2.singer_id) GROUP BY name"),
    ("concert_singer", "SELECT T1.name FROM singer AS T1 JOIN (SELECT singer_id FROM "
                       "singer_in_concert WHERE concert_id IN (SELECT concert_id FROM concert "
                       "WHERE year > 2013)) AS T2 ON T1.singer_id = T2.singer_id"),
    ("concert_singer", "SELECT x.location FROM (SELECT location, capacity FROM "
                       "(SELECT * FROM stadium) AS y) AS x ORDER BY x.capacity DESC LIMIT 2"),
    ("concert_singer", "SELECT name FROM (SELECT name FROM singer) "
                       "UNION SELECT name FROM (SELECT name FROM stadium)"),
    ("concert_singer", "SELECT singer.name FROM singer, concert "
                       "UNION SELECT stadium.name FROM stadium, concert"),
    ("concert_singer", "SELECT singer.name FROM singer JOIN singer_in_concert "
                       "ON singer.singer_id = singer_in_concert.singer_id UNION "
                       "SELECT stadium.name FROM stadium JOIN concert "
                       "ON stadium.stadium_id = concert.stadium_id"),
    ("concert_singer", "SELECT T1.name FROM singer AS T1, singer AS T2 WHERE T1.age = T2.age "
                       "AND EXISTS (SELECT * FROM singer_in_concert AS T3 "
                       "WHERE T3.singer_id = T1.singer_id)"),
    ("concert_singer", "SELECT name FROM singer AS T1 WHERE EXISTS (SELECT * FROM "
                       "singer_in_concert WHERE singer_in_concert.singer_id = T1.singer_id) "
                       "INTERSECT SELECT name FROM singer WHERE age > 20"),
    ("concert_singer", "SELECT name, (SELECT max(age) FROM singer) FROM stadium"),
    ("concert_singer", "SELECT count(*) FROM (SELECT country FROM singer GROUP BY country "
                       "HAVING count(*) > 1)"),
    ("concert_singer", "SELECT name FROM singer WHERE singer_id IN (SELECT T1.singer_id "
                       "FROM singer_in_concert AS T1 JOIN concert AS T2)"),
    ("concert_singer", "SELECT T1.name FROM stadium AS T1 JOIN concert AS T2 "
                       "ON T1.stadium_id = T2.stadium_id WHERE T2.year = 2014 "
                       "EXCEPT SELECT T1.name FROM stadium AS T1, concert AS T2 "
                       "WHERE T1.stadium_id = T2.stadium_id AND T2.year = 2015"),
    ("dog_kennels", "SELECT d.name FROM (SELECT T1.name, T2.cost_of_treatment FROM Dogs AS T1 "
                    "JOIN Treatments AS T2 ON T1.dog_id = T2.dog_id) AS d "
                    "WHERE d.cost_of_treatment > (SELECT avg(cost_of_treatment) FROM Treatments)"),
]


def _canonical_queries(schemas):
    """Canonical trees of the corpus, the dev golds and EXTRA_QUERIES by
    database, and the golds and extras alone."""
    queries, golds = {}, {}
    for db_id, sql, is_gold in (
        [(db_id, sql, False) for db_id, sql in generate_corpus(schemas)]
        + [(ex["db_id"], ex["query"], True) for ex in DEV_EXAMPLES]
        + [(db_id, sql, True) for db_id, sql in EXTRA_QUERIES]
    ):
        tree = canonicalize(parse(sql, schemas[db_id]))
        queries.setdefault(db_id, []).append(tree)
        if is_gold:
            golds.setdefault(db_id, []).append(tree)
    return queries, golds


def assert_same_as_reference(pred: CanonicalAst, gold: CanonicalAst) -> None:
    got, want = diff(pred, gold), reference_diff(pred, gold)
    assert got == want, (pred.sql, gold.sql)
    assert got.summary() == want.summary(), (pred.sql, gold.sql)


def test_diff_matches_reference_on_corpus_and_gold_pairs(schemas):
    # Every query against every gold of its database, as the prediction
    # and as the gold in turn.
    queries, golds = _canonical_queries(schemas)
    pairs = 0
    for db_id, trees in queries.items():
        for i, tree in enumerate(trees):
            for gold in golds.get(db_id, ()):
                assert_same_as_reference(*((tree, gold) if i % 2 else (gold, tree)))
                pairs += 1
    assert pairs >= 1900


# One pair per short path of ``diff``, with the summary it must give.
FAST_PATH_PAIRS = [
    # WHERE conjuncts equal but in another order: all match exactly.
    ("SELECT name FROM singer WHERE age > 30 AND country = 'France'",
     "SELECT name FROM singer WHERE country = 'France' AND age > 30",
     {}),
    # One conjunct differs only in a literal: only it is masked.
    ("SELECT name FROM singer WHERE age > 30 AND country = 'France'",
     "SELECT name FROM singer WHERE age > 31 AND country = 'France'",
     {"literals": [{"shape": "singer.age > ?", "pred": "30", "gold": "31"}]}),
    # A literal that differs only inside a nested SELECT: masking is
    # scope-local, so the shapes differ and the WHERE clause does.
    ("SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM singer_in_concert "
     "WHERE concert_id > 1)",
     "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM singer_in_concert "
     "WHERE concert_id > 2)",
     {"clauses": ["where"]}),
    # A conjunct repeated on one side is one left over.
    ("SELECT name FROM singer WHERE age > 30 AND age > 30",
     "SELECT name FROM singer WHERE age > 30",
     {"clauses": ["where"]}),
    # One join graph in another FROM order.
    ("SELECT T1.name FROM singer AS T1 JOIN singer_in_concert AS T2 "
     "ON T1.singer_id = T2.singer_id",
     "SELECT T2.name FROM singer_in_concert AS T1 JOIN singer AS T2 "
     "ON T2.singer_id = T1.singer_id",
     {}),
    # One join graph written as ON and as a WHERE link.
    ("SELECT T1.name FROM singer AS T1 JOIN singer_in_concert AS T2 "
     "ON T1.singer_id = T2.singer_id WHERE T1.age > 30",
     "SELECT singer.name FROM singer, singer_in_concert "
     "WHERE singer.age > 30 AND singer_in_concert.singer_id = singer.singer_id",
     {}),
    # HAVING literals.
    ("SELECT country FROM singer GROUP BY country HAVING count(*) > 1 AND avg(age) < 40",
     "SELECT country FROM singer GROUP BY country HAVING avg(age) < 50 AND count(*) > 1",
     {"literals": [{"shape": "avg(singer.age) < ?", "pred": "40", "gold": "50"}]}),
]


def test_diff_matches_reference_on_each_fast_path(schemas):
    schema = schemas["concert_singer"]
    for pred_sql, gold_sql, summary in FAST_PATH_PAIRS:
        pred = canonicalize(parse(pred_sql, schema))
        gold = canonicalize(parse(gold_sql, schema))
        assert_same_as_reference(pred, gold)
        assert diff(pred, gold).summary() == summary, pred_sql


_SET_OPS = ("UNION", "UNION ALL", "INTERSECT", "EXCEPT")


@st.composite
def composed_queries(draw, cores):
    """A query built from one or two single-SELECT cores of one database: the
    core itself, a compound of two, a core read from a FROM subquery, or
    two FROM subqueries joined without a condition."""
    a, b = draw(st.sampled_from(cores)), draw(st.sampled_from(cores))
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 1:
        return f"{a} {draw(st.sampled_from(_SET_OPS))} {b}"
    if shape == 2:
        return f"SELECT * FROM ({a}) AS s"
    if shape == 3:
        return f"SELECT * FROM ({a}), ({b}) AS r"
    return a


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_diff_matches_reference_on_composed_pairs(schemas, data):
    corpus = generate_corpus(schemas) + [(ex["db_id"], ex["query"]) for ex in DEV_EXAMPLES]
    db_id = data.draw(st.sampled_from(sorted(schemas)))
    cores = sorted(
        sql for d, sql in corpus + EXTRA_QUERIES
        if d == db_id and not any(word in sql for word in ("UNION", "INTERSECT", "EXCEPT", "ORDER"))
    )
    pred_sql = data.draw(composed_queries(cores))
    # Half the time the gold is the prediction with one digit changed, so
    # the pair differs in a literal only or not at all.
    if data.draw(st.booleans()):
        gold_sql = data.draw(composed_queries(cores))
    else:
        gold_sql = pred_sql.replace("1", "2", 1)
    try:
        pred = canonicalize(parse(pred_sql, schemas[db_id]))
        gold = canonicalize(parse(gold_sql, schemas[db_id]))
    except ParseError:
        assume(False)
    assert_same_as_reference(pred, gold)
