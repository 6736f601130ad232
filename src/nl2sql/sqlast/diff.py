"""Structural comparison of canonicalized queries.

The diff is organized around the error families the triage classifier
assigns: select items, grouping, aggregate choice, join graph, predicate
literals, plus two shape buckets (``structure_delta`` for fundamental shape
divergence such as subquery-vs-join or set-operation mismatch, and
``clause_delta`` for residual clause differences nothing more specific
explains).

Cross-query comparison cannot use the positional t1/t2 aliases (two queries
joining the same tables in a different order would never match), so every
expression is re-qualified by resolved *table name* before comparison. Two
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

from .canonical import CanonicalAst
from .nodes import (
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Literal,
    Select,
    Star,
    SubquerySource,
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

@dataclass(frozen=True)
class SelectDelta:
    missing: tuple[str, ...] = ()  # in gold, absent from pred
    extra: tuple[str, ...] = ()  # in pred, absent from gold
    reordered: bool = False

    @property
    def empty(self) -> bool:
        return not (self.missing or self.extra or self.reordered)


@dataclass(frozen=True)
class GroupByDelta:
    pred: tuple[str, ...] = ()
    gold: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not (self.pred or self.gold)


@dataclass(frozen=True)
class AggregateDelta:
    # (clause, aggregate functions in pred, aggregate functions in gold)
    clauses: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = ()

    @property
    def empty(self) -> bool:
        return not self.clauses


@dataclass(frozen=True)
class JoinDelta:
    extra_tables: tuple[str, ...] = ()
    missing_tables: tuple[str, ...] = ()
    extra_conditions: tuple[str, ...] = ()
    missing_conditions: tuple[str, ...] = ()
    pred_conditionless: tuple[str, ...] = ()  # informational, not part of emptiness
    gold_conditionless: tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not (
            self.extra_tables
            or self.missing_tables
            or self.extra_conditions
            or self.missing_conditions
        )


@dataclass(frozen=True)
class LiteralDelta:
    # (predicate shape with literals masked, pred literal, gold literal)
    entries: tuple[tuple[str, str, str], ...] = ()

    @property
    def empty(self) -> bool:
        return not self.entries


@dataclass(frozen=True)
class AstDiff:
    select_delta: SelectDelta = SelectDelta()
    group_by_delta: GroupByDelta = GroupByDelta()
    aggregate_delta: AggregateDelta = AggregateDelta()
    join_delta: JoinDelta = JoinDelta()
    literal_delta: LiteralDelta = LiteralDelta()
    structure_delta: tuple[str, ...] = ()  # fundamental shape divergence
    clause_delta: tuple[str, ...] = ()  # residual clause mismatches

    @property
    def is_empty(self) -> bool:
        return (
            self.select_delta.empty
            and self.group_by_delta.empty
            and self.aggregate_delta.empty
            and self.join_delta.empty
            and self.literal_delta.empty
            and not self.structure_delta
            and not self.clause_delta
        )

    def summary(self) -> dict:
        """JSON-friendly view used as triage evidence."""
        out: dict = {}
        if not self.select_delta.empty:
            out["select"] = {
                "missing": list(self.select_delta.missing),
                "extra": list(self.select_delta.extra),
                "reordered": self.select_delta.reordered,
            }
        if not self.group_by_delta.empty:
            out["group_by"] = {
                "pred": list(self.group_by_delta.pred),
                "gold": list(self.group_by_delta.gold),
            }
        if not self.aggregate_delta.empty:
            out["aggregates"] = [
                {"clause": clause, "pred": list(p), "gold": list(g)}
                for clause, p, g in self.aggregate_delta.clauses
            ]
        if not self.join_delta.empty or self.join_delta.pred_conditionless:
            out["joins"] = {
                "extra_tables": list(self.join_delta.extra_tables),
                "missing_tables": list(self.join_delta.missing_tables),
                "extra_conditions": list(self.join_delta.extra_conditions),
                "missing_conditions": list(self.join_delta.missing_conditions),
                "pred_conditionless": list(self.join_delta.pred_conditionless),
                "gold_conditionless": list(self.join_delta.gold_conditionless),
            }
        if not self.literal_delta.empty:
            out["literals"] = [
                {"shape": shape, "pred": p, "gold": g}
                for shape, p, g in self.literal_delta.entries
            ]
        if self.structure_delta:
            out["structure"] = list(self.structure_delta)
        if self.clause_delta:
            out["clauses"] = list(self.clause_delta)
        return out


# --------------------------------------------------------------------------- main entry

def diff(pred: CanonicalAst, gold: CanonicalAst) -> AstDiff:
    """Compare two canonical queries; fields are labeled from pred's side."""
    return _diff_select(pred.query, gold.query)


def _diff_select(pred: Select, gold: Select) -> AstDiff:
    pmap = _table_map(pred)
    gmap = _table_map(gold)

    structure: list[str] = []
    clause: list[str] = []

    if count_subqueries(pred) != count_subqueries(gold):
        structure.append("subquery_shape")

    pred_op = pred.set_op[0] if pred.set_op else None
    gold_op = gold.set_op[0] if gold.set_op else None
    nested: AstDiff | None = None
    if pred_op != gold_op:
        structure.append("set_op")
    elif pred.set_op is not None and gold.set_op is not None:
        nested = _diff_select(pred.set_op[1], gold.set_op[1])

    select_delta = _diff_items(pred, gold, pmap, gmap)
    group_delta = _diff_group_by(pred, gold, pmap, gmap)
    agg_delta = _diff_aggregates(pred, gold)
    join_delta, pred_links, gold_links = _diff_joins(pred, gold, pmap, gmap)
    literal_entries, where_mismatch = _diff_predicates(
        flatten_and(pred.where), flatten_and(gold.where), pmap, gmap, exclude_pred=pred_links,
        exclude_gold=gold_links,
    )
    if where_mismatch:
        clause.append("where")
    having_entries, having_mismatch = _diff_predicates(
        flatten_and(pred.having), flatten_and(gold.having), pmap, gmap
    )
    if having_mismatch:
        clause.append("having")
    if not _order_by_equivalent(pred, gold, pmap, gmap):
        clause.append("order_by")
    if pred.limit != gold.limit:
        clause.append("limit")
    if pred.distinct != gold.distinct:
        clause.append("distinct")

    out = AstDiff(
        select_delta=select_delta,
        group_by_delta=group_delta,
        aggregate_delta=agg_delta,
        join_delta=join_delta,
        literal_delta=LiteralDelta(entries=tuple(literal_entries + having_entries)),
        structure_delta=tuple(dict.fromkeys(structure)),
        clause_delta=tuple(dict.fromkeys(clause)),
    )
    if nested is not None:
        out = _merge(out, nested)
    return out


def _merge(a: AstDiff, b: AstDiff) -> AstDiff:
    return AstDiff(
        select_delta=SelectDelta(
            missing=a.select_delta.missing + b.select_delta.missing,
            extra=a.select_delta.extra + b.select_delta.extra,
            reordered=a.select_delta.reordered or b.select_delta.reordered,
        ),
        group_by_delta=GroupByDelta(
            pred=a.group_by_delta.pred + b.group_by_delta.pred,
            gold=a.group_by_delta.gold + b.group_by_delta.gold,
        ),
        aggregate_delta=AggregateDelta(clauses=a.aggregate_delta.clauses + b.aggregate_delta.clauses),
        join_delta=JoinDelta(
            extra_tables=a.join_delta.extra_tables + b.join_delta.extra_tables,
            missing_tables=a.join_delta.missing_tables + b.join_delta.missing_tables,
            extra_conditions=a.join_delta.extra_conditions + b.join_delta.extra_conditions,
            missing_conditions=a.join_delta.missing_conditions + b.join_delta.missing_conditions,
            pred_conditionless=a.join_delta.pred_conditionless + b.join_delta.pred_conditionless,
            gold_conditionless=a.join_delta.gold_conditionless + b.join_delta.gold_conditionless,
        ),
        literal_delta=LiteralDelta(entries=a.literal_delta.entries + b.literal_delta.entries),
        structure_delta=tuple(dict.fromkeys(a.structure_delta + b.structure_delta)),
        clause_delta=tuple(dict.fromkeys(a.clause_delta + b.clause_delta)),
    )


# --------------------------------------------------------------------------- re-qualification

def _table_map(select: Select) -> dict[str, str]:
    """Canonical alias -> resolved table name, over every scope. Canonical
    aliases are globally unique within one query, so one flat map works.
    FROM-subquery sources are labeled by their alias-neutral printed text so
    the label is comparable across queries."""
    out: dict[str, str] = {}

    def visit(s: Select, fn) -> None:
        # Post-order: nested labels exist before outer ones.
        for sub in subselects(s):
            visit(sub, fn)
        for item in s.from_items:
            fn(item.source)

    def collect_tables(src) -> None:
        if isinstance(src, TableSource):
            out[src.key] = src.table.lower()

    def label_subqueries(src) -> None:
        if isinstance(src, SubquerySource):
            out[src.key] = "subquery:" + to_sql(_requalify_select(src.query, out))

    visit(select, collect_tables)
    visit(select, label_subqueries)
    return out


def _requalify(expr: Expr, table_map: dict[str, str]) -> Expr:
    """Rewrite positional aliases to table names for cross-query comparison."""
    if isinstance(expr, ColumnRef):
        if expr.source is not None and expr.source in table_map:
            name = table_map[expr.source]
            return ColumnRef(table=name, column=expr.column, source=name)
        return expr
    if isinstance(expr, Star):
        if expr.source is not None and expr.source in table_map:
            name = table_map[expr.source]
            return Star(table=name, source=name)
        return expr
    if isinstance(expr, Select):
        return _requalify_select(expr, table_map)
    return map_children(expr, lambda child: _requalify(child, table_map))


def _requalify_select(s: Select, table_map: dict[str, str]) -> Select:
    items = tuple(replace(i, expr=_requalify(i.expr, table_map)) for i in s.items)
    from_items = []
    for fi in s.from_items:
        src = fi.source
        # Drop the positional alias so printed subqueries compare across
        # queries whose global alias numbering differs.
        if isinstance(src, TableSource):
            src = TableSource(table=src.table, alias=None, key=src.table)
        else:
            src = replace(src, query=_requalify_select(src.query, table_map), alias=None)
        condition = _requalify(fi.condition, table_map) if fi.condition is not None else None
        from_items.append(replace(fi, source=src, condition=condition))
    return replace(
        s,
        items=items,
        from_items=tuple(from_items),
        where=_requalify(s.where, table_map) if s.where is not None else None,
        group_by=tuple(_requalify(e, table_map) for e in s.group_by),
        having=_requalify(s.having, table_map) if s.having is not None else None,
        order_by=tuple(replace(o, expr=_requalify(o.expr, table_map)) for o in s.order_by),
        set_op=(s.set_op[0], _requalify_select(s.set_op[1], table_map)) if s.set_op else None,
    )


def _key(expr: Expr, table_map: dict[str, str]) -> str:
    return expr_sql(_requalify(expr, table_map))


# --------------------------------------------------------------------------- per-clause diffs

def _diff_items(pred: Select, gold: Select, pmap, gmap) -> SelectDelta:
    pred_keys = [_key(i.expr, pmap) for i in pred.items]
    gold_keys = [_key(i.expr, gmap) for i in gold.items]
    if pred_keys == gold_keys:
        return SelectDelta()
    pred_count = Counter(pred_keys)
    gold_count = Counter(gold_keys)
    if pred_count == gold_count:
        return SelectDelta(reordered=True)
    extra = sorted((pred_count - gold_count).elements())
    missing = sorted((gold_count - pred_count).elements())
    return SelectDelta(missing=tuple(missing), extra=tuple(extra))


def _diff_group_by(pred: Select, gold: Select, pmap, gmap) -> GroupByDelta:
    pred_keys = sorted(_key(e, pmap) for e in pred.group_by)
    gold_keys = sorted(_key(e, gmap) for e in gold.group_by)
    if pred_keys == gold_keys:
        return GroupByDelta()
    return GroupByDelta(pred=tuple(pred_keys), gold=tuple(gold_keys))


def _aggregates_by_clause(select: Select) -> dict[str, tuple[str, ...]]:
    return {
        clause: tuple(sorted(
            node.name
            for expr in exprs
            for node in iter_expr_nodes(expr)
            if isinstance(node, FuncCall) and node.is_aggregate
        ))
        for clause, exprs in clause_exprs(select)
        if clause in _AGG_CLAUSES
    }


def _diff_aggregates(pred: Select, gold: Select) -> AggregateDelta:
    pred_aggs = _aggregates_by_clause(pred)
    gold_aggs = _aggregates_by_clause(gold)
    rows = []
    for clause in _AGG_CLAUSES:
        p = pred_aggs.get(clause, ())
        g = gold_aggs.get(clause, ())
        if p != g:
            rows.append((clause, p, g))
    return AggregateDelta(clauses=tuple(rows))


def _link_predicates(select: Select, table_map) -> tuple[list[str], list[Expr]]:
    """WHERE conjuncts that link two sources (``walk.is_link_predicate``).

    Returned both as comparison keys (pooled with ON conditions) and as the
    original nodes (so the WHERE diff can skip them).
    """
    nodes = [conj for conj in flatten_and(select.where) if is_link_predicate(conj)]
    return [_condition_key(conj, table_map) for conj in nodes], nodes


def _condition_key(expr: Expr, table_map) -> str:
    if isinstance(expr, Comparison) and expr.op == "=":
        left = _key(expr.left, table_map)
        right = _key(expr.right, table_map)
        lo, hi = sorted((left, right))
        return f"{lo} = {hi}"
    return _key(expr, table_map)


def _conditionless(select: Select) -> tuple[str, ...]:
    from .conditionless import detect_conditionless_join

    return tuple(flag.table for flag in detect_conditionless_join(select))


def _diff_joins(pred: Select, gold: Select, pmap, gmap) -> tuple[JoinDelta, list[Expr], list[Expr]]:
    def tables(s: Select) -> Counter:
        out: Counter = Counter()
        for item in s.from_items:
            src = item.source
            if isinstance(src, TableSource):
                out[src.table.lower()] += 1
            else:
                out["subquery:" + to_sql(src.query)] += 1
        return out

    def on_conditions(s: Select, table_map) -> Counter:
        out: Counter = Counter()
        for item in s.from_items:
            if item.condition is not None:
                for conj in flatten_and(item.condition):
                    out[_condition_key(conj, table_map)] += 1
        return out

    pred_tables = tables(pred)
    gold_tables = tables(gold)
    pred_link_keys, pred_links = _link_predicates(pred, pmap)
    gold_link_keys, gold_links = _link_predicates(gold, gmap)
    pred_conds = on_conditions(pred, pmap) + Counter(pred_link_keys)
    gold_conds = on_conditions(gold, gmap) + Counter(gold_link_keys)

    delta = JoinDelta(
        extra_tables=tuple(sorted((pred_tables - gold_tables).elements())),
        missing_tables=tuple(sorted((gold_tables - pred_tables).elements())),
        extra_conditions=tuple(sorted((pred_conds - gold_conds).elements())),
        missing_conditions=tuple(sorted((gold_conds - pred_conds).elements())),
        pred_conditionless=_conditionless(pred),
        gold_conditionless=_conditionless(gold),
    )
    return delta, pred_links, gold_links


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
    pred_conjs: list[Expr],
    gold_conjs: list[Expr],
    pmap,
    gmap,
    exclude_pred: list[Expr] | None = None,
    exclude_gold: list[Expr] | None = None,
) -> tuple[list[tuple[str, str, str]], bool]:
    """Match conjuncts by literal-masked shape; report literal differences at
    matched positions. Returns (literal entries, unexplained mismatch?)."""
    pred_conjs = [c for c in pred_conjs if c not in (exclude_pred or [])]
    gold_conjs = [c for c in gold_conjs if c not in (exclude_gold or [])]

    def describe(conjs, table_map):
        out = []
        for c in conjs:
            requalified = _requalify(c, table_map)
            shape = expr_sql(_mask_literals(requalified))
            full = expr_sql(requalified)
            out.append((shape, full, requalified))
        return out

    pred_desc = describe(pred_conjs, pmap)
    gold_desc = describe(gold_conjs, gmap)

    # Exact matches first.
    gold_left = list(gold_desc)
    pred_left = []
    for entry in pred_desc:
        match = next((g for g in gold_left if g[1] == entry[1]), None)
        if match is not None:
            gold_left.remove(match)
        else:
            pred_left.append(entry)

    entries: list[tuple[str, str, str]] = []
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
                entries.append((shape, p_lit.text, g_lit.text))
    if gold_left:
        mismatch = True
    return entries, mismatch


def _order_by_equivalent(pred: Select, gold: Select, pmap, gmap) -> bool:
    if len(pred.order_by) != len(gold.order_by):
        return False
    for p, g in zip(pred.order_by, gold.order_by):
        if p.descending != g.descending:
            return False
        p_expr, g_expr = p.expr, g.expr
        if (
            isinstance(p_expr, FuncCall)
            and isinstance(g_expr, FuncCall)
            and p_expr.is_aggregate
            and g_expr.is_aggregate
        ):
            if p_expr.name != g_expr.name:
                return False
            continue
        if _key(p_expr, pmap) != _key(g_expr, gmap):
            return False
    return True
