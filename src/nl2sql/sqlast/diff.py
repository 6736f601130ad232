"""Structural comparison of canonicalized queries.

The diff is organized around the error families the triage classifier
assigns: select items, grouping, aggregate choice, join graph, predicate
literals, plus two shape buckets (``structure_delta`` for fundamental shape
divergence such as subquery-vs-join or set-operation mismatch, and
``clause_delta`` for residual clause differences nothing more specific
explains). The arms of two compound queries with the same set operation are
diffed pairwise and their deltas merged.

Cross-query comparison cannot use the positional t1/t2 aliases (two queries
joining the same tables in a different order would never match), so
expressions are compared as printed re-qualified by resolved *table name*:
one walk per query maps each source key to its table name (a FROM subquery
to its alias-neutral text), and the printer qualifies columns through that
map and drops FROM aliases while printing; joined tables are counted by
the same names. No re-qualified tree is built.
Two deliberate lenience rules, both needed so that stylistic differences do
not register as errors:

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
from .conditionless import scope_conditionless_joins
from .nodes import Comparison, Expr, FuncCall, Literal, Select, TableSource, map_children
from .printer import expr_sql, to_sql
from .walk import clause_exprs, flatten_and, is_link_predicate, iter_expr_nodes, subselects

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
    return _diff_select(pred.query, gold.query, _Query(pred.query), _Query(gold.query))


def _diff_select(pred: Select, gold: Select, pq: "_Query", gq: "_Query") -> AstDiff:
    """Diff one level; ``pq`` and ``gq`` describe the whole queries."""
    pred_op = pred.set_op[0] if pred.set_op else None
    gold_op = gold.set_op[0] if gold.set_op else None
    paired = pred.set_op is not None and pred_op == gold_op
    structure = [
        name
        for name, differs in (
            ("subquery_shape", pq.subqueries[id(pred)] != gq.subqueries[id(gold)]),
            ("set_op", pred_op != gold_op),
        )
        if differs
    ]
    pred_where, pred_links = _split_links(pred)
    gold_where, gold_links = _split_links(gold)
    where_literals, where_mismatch = _diff_predicates(pred_where, gold_where, pq, gq)
    having_literals, having_mismatch = _diff_predicates(
        flatten_and(pred.having), flatten_and(gold.having), pq, gq
    )
    clause = [
        name
        for name, differs in (
            ("where", where_mismatch),
            ("having", having_mismatch),
            ("order_by", _order_keys(pred, pq) != _order_keys(gold, gq)),
            ("limit", pred.limit != gold.limit),
            ("distinct", pred.distinct != gold.distinct),
        )
        if differs
    ]
    pred_tables, pred_conds = _join_graph(pred, pred_links, pq)
    gold_tables, gold_conds = _join_graph(gold, gold_links, gq)
    out = AstDiff(
        select_delta=_diff_items(
            [pq.sql(i.expr) for i in pred.items], [gq.sql(i.expr) for i in gold.items]
        ),
        group_by_delta=_diff_group_by(
            sorted(map(pq.sql, pred.group_by)), sorted(map(gq.sql, gold.group_by))
        ),
        aggregate_delta=_diff_aggregates(pred, gold),
        join_delta=JoinDelta(
            extra_tables=_surplus(pred_tables, gold_tables),
            missing_tables=_surplus(gold_tables, pred_tables),
            extra_conditions=_surplus(pred_conds, gold_conds),
            missing_conditions=_surplus(gold_conds, pred_conds),
            pred_conditionless=pq.conditionless[id(pred)][paired],
            gold_conditionless=gq.conditionless[id(gold)][paired],
        ),
        literal_delta=LiteralDelta(entries=tuple(where_literals + having_literals)),
        structure_delta=tuple(structure),
        clause_delta=tuple(clause),
    )
    if paired:
        out = out.merge(_diff_select(pred.set_op[1], gold.set_op[1], pq, gq))
        out = replace(
            out,
            structure_delta=tuple(dict.fromkeys(out.structure_delta)),
            clause_delta=tuple(dict.fromkeys(out.clause_delta)),
        )
    return out


# --------------------------------------------------------------------------- one walk per query

class _Query:
    """What diffing needs from every SELECT of one canonical query, gathered
    in one walk over its nested SELECTs.

    ``names`` maps each source key to the name comparison prints for it: a
    table's name, or for a FROM subquery its alias-neutral text, so that
    printing with it (``sql``) compares across queries whose positional
    aliases differ. Canonical aliases are unique within one query, so one
    flat map serves every scope. Per SELECT, by ``id``: ``subqueries``, the
    number of SELECTs nested in it, set-operation arm included, and
    ``conditionless``, its condition-less joined tables with and without
    those of its set-operation arm, indexed by whether the arms are diffed
    pairwise (the arm's own delta then lists them).
    """

    def __init__(self, select: Select) -> None:
        self.names: dict[str, str] = {}
        self.subqueries: dict[int, int] = {}
        self.conditionless: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {}
        self._visit(select)

    def sql(self, expr: Expr) -> str:
        return expr_sql(expr, self.names)

    def _visit(self, select: Select) -> tuple[int, list[str]]:
        """Visit ``select`` after the SELECTs nested in it, so the sources a
        FROM subquery reads are named before it is; returns its subquery
        count and its condition-less joins, set-operation arm included."""
        nested = list(subselects(select))
        arm = [nested.pop()] if select.set_op is not None else []
        count = 0
        flags = [flag.table for flag in scope_conditionless_joins(select)]
        for sub in nested:
            sub_count, sub_flags = self._visit(sub)
            count += 1 + sub_count
            flags += sub_flags
        own = tuple(flags)
        for sub in arm:
            sub_count, sub_flags = self._visit(sub)
            count += 1 + sub_count
            flags += sub_flags
        self.subqueries[id(select)] = count
        self.conditionless[id(select)] = (tuple(flags), own)
        for item in select.from_items:
            src = item.source
            if isinstance(src, TableSource):
                self.names[src.key] = src.table.lower()
            else:
                self.names[src.key] = "subquery:" + to_sql(src.query, self.names)
        return count, flags


# --------------------------------------------------------------------------- per-clause diffs

def _surplus(a: Counter, b: Counter) -> tuple[str, ...]:
    """The entries of ``a`` beyond those of ``b``, sorted."""
    return tuple(sorted((a - b).elements()))


def _diff_items(pred_keys: list[str], gold_keys: list[str]) -> SelectDelta:
    if pred_keys == gold_keys:
        return SelectDelta()
    pred_count = Counter(pred_keys)
    gold_count = Counter(gold_keys)
    if pred_count == gold_count:
        return SelectDelta(reordered=True)
    return SelectDelta(
        missing=_surplus(gold_count, pred_count), extra=_surplus(pred_count, gold_count)
    )


def _diff_group_by(pred_keys: list[str], gold_keys: list[str]) -> GroupByDelta:
    if pred_keys == gold_keys:
        return GroupByDelta()
    return GroupByDelta(pred=tuple(pred_keys), gold=tuple(gold_keys))


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


def _split_links(select: Select) -> tuple[list[Expr], list[Expr]]:
    """The WHERE conjuncts that do not link two sources, and those that do
    (``walk.is_link_predicate``). Links are found on the canonical tree,
    where two sources of one table still have two aliases."""
    rest: list[Expr] = []
    links: list[Expr] = []
    for conj in flatten_and(select.where):
        (links if is_link_predicate(conj) else rest).append(conj)
    return rest, links


def _condition_key(expr: Expr, query: _Query) -> str:
    if isinstance(expr, Comparison) and expr.op == "=":
        lo, hi = sorted((query.sql(expr.left), query.sql(expr.right)))
        return f"{lo} = {hi}"
    return query.sql(expr)


def _join_graph(select: Select, links: list[Expr], query: _Query) -> tuple[Counter, Counter]:
    """The joined tables and the pooled join conditions (ON conjuncts and
    WHERE links) of one query. Each FROM source counts by its name in
    ``query.names``, so a FROM subquery counts by its alias-neutral text."""
    tables = Counter(query.names[item.source.key] for item in select.from_items)
    on = [conj for item in select.from_items for conj in flatten_and(item.condition)]
    return tables, Counter(_condition_key(conj, query) for conj in on + links)


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
    pred_conjs: list[Expr], gold_conjs: list[Expr], pq: _Query, gq: _Query
) -> tuple[list[LiteralRow], bool]:
    """Match conjuncts, printed re-qualified, by literal-masked shape; report
    literal differences at matched positions. Returns (literal rows,
    unexplained mismatch?)."""

    def describe(conjs, query):
        return [(query.sql(_mask_literals(c)), query.sql(c), c) for c in conjs]

    # Exact matches first.
    gold_left = describe(gold_conjs, gq)
    pred_left = []
    for entry in describe(pred_conjs, pq):
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


def _order_keys(select: Select, query: _Query) -> list[tuple]:
    """ORDER BY keys as compared: an aggregate call by its function name."""
    return [
        (o.descending, (o.expr.name,) if _is_aggregate(o.expr) else query.sql(o.expr))
        for o in select.order_by
    ]


def _is_aggregate(expr: Expr) -> bool:
    return isinstance(expr, FuncCall) and expr.is_aggregate
