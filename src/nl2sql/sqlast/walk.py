"""Small tree-walking helpers shared by the parser's WHERE aggregate check,
diffing, hardness and triage, and the condition-less join check that
diffing and triage's suspect-gold check run.

They reach children only through ``nodes.CHILD_FIELDS``, as do the parser's
binder, ``canonicalize`` and the diff's rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .nodes import BoolOp, ColumnRef, Comparison, Expr, FuncCall, Select, TableSource, children


def flatten_and(expr: Expr | None) -> list[Expr]:
    """Top-level AND conjuncts of a predicate (the predicate itself if not an AND)."""
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.op == "and":
        return list(expr.terms)
    return [expr]


def is_aggregate(expr: Expr) -> bool:
    """True iff ``expr`` is itself an aggregate call, such as ``count(*)``."""
    return isinstance(expr, FuncCall) and expr.is_aggregate


def is_link_predicate(expr: Expr) -> bool:
    """True iff ``expr`` is ``a.x = b.y`` with both columns bound to two
    different sources: the WHERE form of a join condition. A column whose
    source is ambiguous links nothing."""
    return (
        isinstance(expr, Comparison)
        and expr.op == "="
        and isinstance(expr.left, ColumnRef)
        and isinstance(expr.right, ColumnRef)
        and None not in (expr.left.source, expr.right.source)
        and expr.left.source != expr.right.source
    )


def iter_expr_nodes(expr: Expr) -> Iterator[Expr]:
    """Depth-first walk over an expression tree that stays in the current
    scope: subquery nodes are yielded, the SELECTs they hold are not entered."""
    stack: list[Expr] = [expr]
    while stack:
        node = stack.pop()
        yield node
        for child in children(node):
            if not isinstance(child, Select):
                stack.append(child)


@dataclass(frozen=True)
class ConditionlessJoin:
    table: str  # resolved table name (lower) or subquery alias
    index: int  # position in from_items


def scope_conditionless_joins(select: Select) -> list[ConditionlessJoin]:
    """Flag condition-less joins in this query's own FROM clause only.

    A join is flagged when it has no ON clause and no WHERE equality
    predicate links the joined source to any other source in the same scope.
    Such joins degenerate into cartesian products, which is how a broken gold
    query shows itself: the result set balloons with rows that should have
    been filtered by the missing key equality."""
    if len(select.from_items) < 2:
        return []
    linked = {
        column.source
        for conj in flatten_and(select.where)
        if is_link_predicate(conj)
        for column in (conj.left, conj.right)
    }
    flags = []
    for idx, item in enumerate(select.from_items):
        if idx == 0 or item.condition is not None:
            continue
        key = item.source.key
        if key in linked:
            continue
        src = item.source
        table = src.table.lower() if isinstance(src, TableSource) else key
        flags.append(ConditionlessJoin(table=table, index=idx))
    return flags
