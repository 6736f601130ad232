"""Detection of joins that lack a joining condition.

A join is flagged when it has no ON clause and no WHERE equality predicate
links the joined source to any other source in the same scope. Such joins
degenerate into cartesian products, which is how a broken gold query shows
itself: the result set balloons with rows that should have been filtered by
the missing key equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nodes import Select, TableSource
from .walk import flatten_and, is_link_predicate


@dataclass(frozen=True)
class ConditionlessJoin:
    table: str  # resolved table name (lower) or subquery alias
    index: int  # position in from_items


def scope_conditionless_joins(select: Select) -> list[ConditionlessJoin]:
    """Flag condition-less joins in this query's own FROM clause only."""
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
