"""Alias- and case-normalization of bound SELECT trees.

Two queries that differ only in table alias names and identifier casing
canonicalize to equal trees: every FROM source is renamed to a positional
alias (t1, t2, ... assigned in FROM order, numbering shared across nested
scopes so correlated references stay unambiguous), identifiers are folded to
lower case, output aliases are dropped after substituting any references to
them (a FROM subquery's items keep theirs, lower-cased, as the outer query
reads its columns by name), and alias and positional ORDER BY and GROUP
BY terms are replaced by the select item they name (see ``_canon_key``).
Literals keep their type and value: 3 and 3.0 stay different, as 7 / 2 and
7 / 2.0 do, and 'Lost' and 'lost' stay different.

A comparison between a literal and a non-literal, but not LIKE, puts the
literal on the right and mirrors the operator, after signs fold: `-5 < age`
becomes `age > -5`. SQLite gives the same result, as its affinity rules are
symmetric and the left operand's collation wins only when both are columns.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterator

from .nodes import (
    AliasRef,
    ColumnRef,
    Comparison,
    Expr,
    FromItem,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    SubquerySource,
    TableSource,
    Unary,
    map_children,
)
from .printer import _quote_string, to_sql

# The operator that keeps a comparison's meaning when its operands swap.
_MIRRORED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class CanonicalAst:
    """A canonicalized query; equality is structural tree equality."""

    query: Select

    @property
    def sql(self) -> str:
        return to_sql(self.query)


def canonicalize(select: Select) -> CanonicalAst:
    return CanonicalAst(query=_canon_select(select, {}, itertools.count(1)))


def _canon_select(
    s: Select, outer_map: dict[str, str], counter: Iterator[int], named: bool = False
) -> Select:
    # Assign canonical aliases to this scope's sources first, left to right.
    mapping = dict(outer_map)
    local: list[tuple[FromItem, str]] = []
    for item in s.from_items:
        canon = f"t{next(counter)}"
        mapping[item.source.key] = canon
        local.append((item, canon))

    from_items = []
    for item, canon in local:
        src = item.source
        if isinstance(src, TableSource):
            new_src: TableSource | SubquerySource = TableSource(
                table=src.table.lower(), alias=canon, key=canon
            )
        else:
            # FROM subqueries are uncorrelated; canonicalize independently of
            # the outer mapping but share the global alias counter.
            new_src = SubquerySource(
                query=_canon_select(src.query, {}, counter, named=True), alias=canon, key=canon
            )
        condition = _canon_expr(item.condition, mapping, counter, s) if item.condition else None
        from_items.append(replace(item, source=new_src, condition=condition))

    items = tuple(
        SelectItem(
            expr=_canon_expr(i.expr, mapping, counter, s),
            alias=i.alias.lower() if named and i.alias is not None else None,
        )
        for i in s.items
    )
    where = _canon_expr(s.where, mapping, counter, s) if s.where is not None else None
    group_by = tuple(_canon_key(e, s, mapping, counter) for e in s.group_by)
    having = _canon_expr(s.having, mapping, counter, s) if s.having is not None else None
    order_by = tuple(
        OrderItem(expr=_canon_key(o.expr, s, mapping, counter), descending=o.descending)
        for o in s.order_by
    )
    set_op = None
    if s.set_op is not None:
        set_op = (s.set_op[0], _canon_select(s.set_op[1], outer_map, counter))
    return Select(
        items=items,
        from_items=tuple(from_items),
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=s.limit,
        distinct=s.distinct,
        set_op=set_op,
    )


def _canon_key(key: Expr, s: Select, mapping: dict[str, str], counter: Iterator[int]) -> Expr:
    """The canonical form of an ORDER BY or GROUP BY term of ``s``, as
    SQLite reads positions and aliases alike in both. A term that names a
    select item, by output alias or by position (after signs fold, as
    SQLite reads ``+2`` as position 2), is written as that item, with two
    exceptions. A ``*`` at or before a position makes it count output
    columns, not items, so the position is kept. An integer-literal item
    would read as a position: it is written as its own position, or, after
    a ``*``, as NULL, a constant that ties every row as the integer does."""
    if isinstance(key, AliasRef):
        index = key.index
    else:
        key = _canon_expr(key, mapping, counter, s)
        if not (isinstance(key, Literal) and isinstance(key.value, int)):
            return key
        if not 0 < key.value <= len(s.items):
            return key
        index = key.value - 1
    starred = any(isinstance(i.expr, Star) for i in s.items[: index + 1])
    if starred and isinstance(key, Literal):
        return key
    item = _canon_expr(s.items[index].expr, mapping, counter, s)
    if isinstance(item, Literal) and isinstance(item.value, int):
        if starred:
            return Literal(value=None, text="NULL")
        return Literal(value=index + 1, text=str(index + 1))
    return item


def _canon_expr(e: Expr, mapping: dict[str, str], counter: Iterator[int], scope: Select) -> Expr:
    if isinstance(e, Literal):
        return _canon_literal(e)
    if isinstance(e, ColumnRef):
        if e.source is not None and e.source in mapping:
            alias = mapping[e.source]
            return ColumnRef(table=alias, column=e.column.lower(), source=alias)
        return ColumnRef(table=None, column=e.column.lower(), source=None, ambiguous=e.ambiguous)
    if isinstance(e, AliasRef):
        # Replace the output-alias reference with the expression it names.
        target = scope.items[e.index].expr
        return _canon_expr(target, mapping, counter, scope)
    if isinstance(e, Star):
        if e.source is not None and e.source in mapping:
            alias = mapping[e.source]
            return Star(table=alias, source=alias)
        return Star()

    def canon_child(child):
        if isinstance(child, Select):
            return _canon_select(child, mapping, counter)
        return _canon_expr(child, mapping, counter, scope)

    canon = map_children(e, canon_child)
    if isinstance(canon, Unary):
        # Fold after the operand is canonical, so `- -30` folds twice.
        folded = _fold_signed_number(canon)
        if folded is not None:
            return folded
    if isinstance(canon, Comparison) and canon.op in _MIRRORED:
        if isinstance(canon.left, Literal) and not isinstance(canon.right, Literal):
            return Comparison(op=_MIRRORED[canon.op], left=canon.right, right=canon.left)
    return canon


def _canon_literal(lit: Literal) -> Literal:
    if lit.value is None:
        return Literal(value=None, text="NULL")
    if isinstance(lit.value, int):
        return Literal(value=lit.value, text=str(lit.value))
    if isinstance(lit.value, float):
        value = lit.value
        if math.isinf(value):
            # repr's "inf" would read as a column name; 1e999 overflows to it.
            return Literal(value=value, text="1e999" if value > 0 else "-1e999")
        return Literal(value=value, text=repr(value))
    return Literal(value=lit.value, text=_quote_string(lit.value))


def _fold_signed_number(e: Unary) -> Literal | None:
    if e.op == "-" and isinstance(e.operand, Literal) and e.operand.is_number:
        value = -e.operand.value
        return _canon_literal(Literal(value=value, text=str(value)))
    if e.op == "+" and isinstance(e.operand, Literal) and e.operand.is_number:
        return _canon_literal(e.operand)
    return None
