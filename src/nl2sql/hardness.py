"""Query hardness bucketing by component counting.

This reimplements the public Spider evaluation rule set over our AST so the
dev-set histogram reproduces the published bucket counts. The decision table
(see docs/hardness.md) scores three quantities and thresholds them:

component1  WHERE present, GROUP BY present, ORDER BY present, LIMIT
            present (1 point each), one point per joined table beyond the
            first, one per OR connective, one per LIKE predicate.
component2  nested subqueries used as condition operands, plus one for a
            set operation (UNION / INTERSECT / EXCEPT).
others      1 if the aggregate score exceeds one, 1 if more than one select
            item, 1 if more than one WHERE conjunct, 1 if more than one
            GROUP BY key.

The aggregate score replicates the reference scorer's exact behaviour,
including its quirks: negated WHERE predicates score as aggregates, and a
HAVING clause scores its connectives plus negated predicates rather than
the aggregate calls inside it. Buckets must reconcile against published
totals, so the quirks are kept deliberately.
"""

from __future__ import annotations

from enum import Enum

from .sqlast.nodes import BoolOp, Comparison, Expr, Select, children
from .sqlast.walk import is_aggregate, iter_expr_nodes


class Hardness(str, Enum):
    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"
    EXTRA = "extra"


def classify_hardness(ast: Select) -> Hardness:
    """Deterministic difficulty bucket; a pure function of the AST."""
    conditions = _conditions(ast)
    comp1 = _count_component1(ast, conditions)
    comp2 = _count_component2(ast, conditions)
    others = _count_others(ast)

    if comp1 <= 1 and others == 0 and comp2 == 0:
        return Hardness.EASY
    if (others <= 2 and comp1 <= 1 and comp2 == 0) or (
        comp1 <= 2 and others < 2 and comp2 == 0
    ):
        return Hardness.MEDIUM
    if (
        (others > 2 and comp1 <= 2 and comp2 == 0)
        or (2 < comp1 <= 3 and others <= 2 and comp2 == 0)
        or (comp1 <= 1 and others == 0 and comp2 <= 1)
    ):
        return Hardness.HARD
    return Hardness.EXTRA


def _boolean_spine(expr: Expr | None) -> list[Expr]:
    """Leaf predicates of a boolean expression, across AND and OR alike."""
    if expr is None:
        return []
    if isinstance(expr, BoolOp):
        out: list[Expr] = []
        for term in expr.terms:
            out.extend(_boolean_spine(term))
        return out
    return [expr]


def _conditions(ast: Select) -> list[Expr]:
    """Join-ON, WHERE and HAVING predicates of the top scope."""
    on = [item.condition for item in ast.from_items if item.condition is not None]
    return on + [expr for expr in (ast.where, ast.having) if expr is not None]


def _count_component1(ast: Select, conditions: list[Expr]) -> int:
    count = 0
    if ast.where is not None:
        count += 1
    if ast.group_by:
        count += 1
    if ast.order_by:
        count += 1
    if ast.limit is not None:
        count += 1
    if ast.from_items:
        count += len(ast.from_items) - 1
    for expr in conditions:
        for node in iter_expr_nodes(expr):
            if isinstance(node, BoolOp) and node.op == "or":
                count += len(node.terms) - 1
        count += sum(
            1 for pred in _boolean_spine(expr) if isinstance(pred, Comparison) and pred.op == "like"
        )
    return count


def _count_component2(ast: Select, conditions: list[Expr]) -> int:
    nested = sum(
        isinstance(child, Select)
        for expr in conditions
        for node in iter_expr_nodes(expr)
        for child in children(node)
    )
    if ast.set_op is not None:
        nested += 1
    return nested


def _is_negated(pred: Expr) -> bool:
    return bool(getattr(pred, "negated", False))


def _order_by_aggregate_score(ast: Select) -> int:
    # The reference scorer inspects the one or two column operands of each
    # ORDER BY key, so an arithmetic key can contribute two points.
    score = 0
    for item in ast.order_by:
        expr = item.expr
        if is_aggregate(expr):
            score += 1
        elif hasattr(expr, "left") and hasattr(expr, "right"):
            score += sum(1 for side in (expr.left, expr.right) if is_aggregate(side))
    return score


def _count_others(ast: Select) -> int:
    count = 0
    agg_score = sum(1 for item in ast.items if is_aggregate(item.expr))
    agg_score += sum(1 for pred in _boolean_spine(ast.where) if _is_negated(pred))
    agg_score += sum(1 for expr in ast.group_by if is_aggregate(expr))
    if ast.order_by:
        agg_score += _order_by_aggregate_score(ast)
    having_preds = _boolean_spine(ast.having)
    if having_preds:
        agg_score += len(having_preds) - 1  # connectives
        agg_score += sum(1 for pred in having_preds if _is_negated(pred))
    if agg_score > 1:
        count += 1
    if len(ast.items) > 1:
        count += 1
    if len(_boolean_spine(ast.where)) > 1:
        count += 1
    if len(ast.group_by) > 1:
        count += 1
    return count
