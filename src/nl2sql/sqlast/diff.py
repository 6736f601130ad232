"""Structural comparison of canonicalized queries.

The diff is organized around the error families the triage classifier
assigns: select items, grouping, aggregate choice, join graph, predicate
literals, plus two shape buckets (``structure_delta`` for fundamental shape
divergence such as subquery-vs-join or set-operation mismatch, and
``clause_delta`` for residual clause differences nothing more specific
explains). The arms of two compound queries with the same set operation are
diffed pairwise and their deltas merged.

Cross-query comparison cannot use the positional t1/t2 aliases (two queries
joining the same tables in a different order would never match), so each
query is re-qualified by resolved *table name* once, before comparison. Two
deliberate lenience rules, both needed so that stylistic differences do not
register as errors:

- join conditions are compared as one multiset per query, pooling ON
  clauses with WHERE equality predicates that link two sources, with the
  operands of ``=`` sorted; which side of a join the condition was written
  on (or whether it sat in WHERE) does not matter;
- ORDER BY keys compare aggregate calls by function name and direction
  only, so ``count(x)`` and ``count(*)`` order keys are interchangeable.

Consequently an empty diff means the canonical trees are equal up to those
two rules; any other canonical difference surfaces in at least one field.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple

from .canonical import CanonicalAst
from .conditionless import detect_conditionless_join
from .nodes import (
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Literal,
    Select,
    Star,
    TableSource,
    map_children,
)
from .printer import expr_sql, to_sql
from .walk import (
    clause_exprs,
    count_subqueries,
    flatten_and,
    is_link_predicate,
    iter_expr_nodes,
    subselects,
)

_AGG_CLAUSES = ("select", "group_by", "having", "order_by")


# --------------------------------------------------------------------------- delta types

class _Delta:
    """Emptiness, truth, the compound-arm merge and the JSON view of a delta,
    all derived from its dataclass fields. A frozen dataclass's ``vars``
    holds its fields in declaration order."""

    # Fields that inform the summary but do not make the delta non-empty.
    INFORMATIONAL: ClassVar[tuple[str, ...]] = ()

    @property
    def empty(self) -> bool:
        return not any(
            value for name, value in vars(self).items() if name not in self.INFORMATIONAL
        )

    def __bool__(self) -> bool:
        return not self.empty

    def merge(self, other):
        """This arm's delta followed by the other arm's."""
        theirs = vars(other)
        return replace(self, **{
            name: _merged(value, theirs[name]) for name, value in vars(self).items()
        })

    def summary(self):
        parts = {name: _json(value) for name, value in vars(self).items()}
        # A one-field delta is just its rows.
        return next(iter(parts.values())) if len(parts) == 1 else parts


def _merged(a, b):
    if isinstance(a, _Delta):
        return a.merge(b)
    if isinstance(a, bool):
        return a or b
    return a + b


def _json(value):
    """The JSON form of a delta field: a row becomes an object, any other
    tuple a list."""
    if isinstance(value, _Delta):
        return value.summary()
    if isinstance(value, (AggregateRow, LiteralRow)):
        return {name: _json(v) for name, v in value._asdict().items()}
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value


class AggregateRow(NamedTuple):
    clause: str
    pred: tuple[str, ...]  # aggregate functions in pred
    gold: tuple[str, ...]


class LiteralRow(NamedTuple):
    shape: str  # predicate shape with literals masked
    pred: str
    gold: str


@dataclass(frozen=True)
class SelectDelta(_Delta):
    missing: tuple[str, ...] = ()  # in gold, absent from pred
    extra: tuple[str, ...] = ()  # in pred, absent from gold
    reordered: bool = False


@dataclass(frozen=True)
class GroupByDelta(_Delta):
    pred: tuple[str, ...] = ()
    gold: tuple[str, ...] = ()


@dataclass(frozen=True)
class AggregateDelta(_Delta):
    clauses: tuple[AggregateRow, ...] = ()


@dataclass(frozen=True)
class JoinDelta(_Delta):
    INFORMATIONAL = ("pred_conditionless", "gold_conditionless")

    extra_tables: tuple[str, ...] = ()
    missing_tables: tuple[str, ...] = ()
    extra_conditions: tuple[str, ...] = ()
    missing_conditions: tuple[str, ...] = ()
    pred_conditionless: tuple[str, ...] = ()
    gold_conditionless: tuple[str, ...] = ()


@dataclass(frozen=True)
class LiteralDelta(_Delta):
    entries: tuple[LiteralRow, ...] = ()


_SUMMARY_KEYS = {
    "select_delta": "select",
    "group_by_delta": "group_by",
    "aggregate_delta": "aggregates",
    "join_delta": "joins",
    "literal_delta": "literals",
    "structure_delta": "structure",
    "clause_delta": "clauses",
}


@dataclass(frozen=True)
class AstDiff(_Delta):
    select_delta: SelectDelta = SelectDelta()
    group_by_delta: GroupByDelta = GroupByDelta()
    aggregate_delta: AggregateDelta = AggregateDelta()
    join_delta: JoinDelta = JoinDelta()
    literal_delta: LiteralDelta = LiteralDelta()
    structure_delta: tuple[str, ...] = ()  # fundamental shape divergence
    clause_delta: tuple[str, ...] = ()  # residual clause mismatches

    def summary(self) -> dict:
        """JSON-friendly view used as triage evidence: the non-empty deltas,
        and the joins whenever the prediction has a condition-less join."""
        return {
            _SUMMARY_KEYS[name]: _json(value)
            for name, value in vars(self).items()
            if value or (name == "join_delta" and value.pred_conditionless)
        }


# --------------------------------------------------------------------------- main entry

def diff(pred: CanonicalAst, gold: CanonicalAst) -> AstDiff:
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
            ("subquery_shape", count_subqueries(pred) != count_subqueries(gold)),
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
    out = AstDiff(
        select_delta=_diff_items(rpred, rgold),
        group_by_delta=_diff_group_by(rpred, rgold),
        aggregate_delta=_diff_aggregates(pred, gold),
        join_delta=JoinDelta(
            extra_tables=_surplus(pred_tables, gold_tables),
            missing_tables=_surplus(gold_tables, pred_tables),
            extra_conditions=_surplus(pred_conds, gold_conds),
            missing_conditions=_surplus(gold_conds, pred_conds),
            pred_conditionless=_conditionless(pred),
            gold_conditionless=_conditionless(gold),
        ),
        literal_delta=LiteralDelta(entries=tuple(where_literals + having_literals)),
        structure_delta=tuple(structure),
        clause_delta=tuple(clause),
    )
    if pred.set_op is not None and pred_op == gold_op:
        arms = (pred.set_op[1], gold.set_op[1], rpred.set_op[1], rgold.set_op[1])
        out = out.merge(_diff_select(*arms))
        out = replace(
            out,
            structure_delta=tuple(dict.fromkeys(out.structure_delta)),
            clause_delta=tuple(dict.fromkeys(out.clause_delta)),
        )
    return out


# --------------------------------------------------------------------------- re-qualification

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


def _diff_aggregates(pred: Select, gold: Select) -> AggregateDelta:
    pred_aggs = _aggregates_by_clause(pred)
    gold_aggs = _aggregates_by_clause(gold)
    rows = (
        AggregateRow(clause, pred_aggs.get(clause, ()), gold_aggs.get(clause, ()))
        for clause in _AGG_CLAUSES
    )
    return AggregateDelta(clauses=tuple(row for row in rows if row.pred != row.gold))


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
    WHERE links) of one query. A FROM subquery counts by its canonical text."""
    tables = Counter(
        item.source.table.lower()
        if isinstance(item.source, TableSource)
        else "subquery:" + to_sql(item.source.query)
        for item in select.from_items
    )
    on = [conj for item in requalified.from_items for conj in flatten_and(item.condition)]
    return tables, Counter(map(_condition_key, on + links))


def _conditionless(select: Select) -> tuple[str, ...]:
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
    if a.value is None or b.value is None:
        return a.value is None and b.value is None
    if a.is_number and b.is_number:
        return float(a.value) == float(b.value)
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
