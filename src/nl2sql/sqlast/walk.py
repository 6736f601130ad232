"""Small tree-walking helpers shared by the parser's WHERE aggregate check,
diffing, hardness, triage and the condition-less join check.

They reach children only through ``nodes.CHILD_FIELDS``, as do the parser's
binder, ``canonicalize`` and the diff's rewrites.
"""

from __future__ import annotations

from typing import Iterator

from .nodes import BoolOp, ColumnRef, Comparison, Expr, Select, SubquerySource, children


def flatten_and(expr: Expr | None) -> list[Expr]:
    """Top-level AND conjuncts of a predicate (the predicate itself if not an AND)."""
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.op == "and":
        return list(expr.terms)
    return [expr]


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
