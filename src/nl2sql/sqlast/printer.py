"""Render an AST back to SQL text.

Printing is deterministic (single line, upper-case keywords) and the output
re-parses to an equal tree, which the round-trip property tests rely on.
"""

from __future__ import annotations

import re

from .nodes import (
    AliasRef,
    Between,
    Binary,
    BoolOp,
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    FromItem,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    ScalarSubquery,
    Select,
    SelectItem,
    Star,
    SubquerySource,
    TableSource,
    Unary,
)
from .tokens import KEYWORDS

_PLAIN_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def to_sql(select: Select) -> str:
    return _select_sql(select)


def expr_sql(expr: Expr) -> str:
    return _expr(expr)


def _name(text: str) -> str:
    if _PLAIN_NAME.match(text) and text.lower() not in KEYWORDS:
        return text
    return '"' + text.replace('"', '""') + '"'


def _quote_string(value: str) -> str:
    """The SQL spelling of a string literal; the parser and the canonicaliser
    give every string ``Literal`` this text."""
    return "'" + value.replace("'", "''") + "'"


def _select_sql(s: Select) -> str:
    parts = ["SELECT"]
    if s.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_select_item(i) for i in s.items))
    if s.from_items:
        parts.append("FROM " + _from_clause(s.from_items))
    if s.where is not None:
        parts.append("WHERE " + _expr(s.where))
    if s.group_by:
        parts.append("GROUP BY " + ", ".join(_expr(e) for e in s.group_by))
    if s.having is not None:
        parts.append("HAVING " + _expr(s.having))
    body = " ".join(parts)
    if s.set_op is not None:
        op, right = s.set_op
        # Right-hand sides of set operations never carry ORDER BY / LIMIT.
        body = f"{body} {op.upper()} {_select_sql(right)}"
    if s.order_by:
        keys = ", ".join(
            _expr(o.expr) + (" DESC" if o.descending else "") for o in s.order_by
        )
        body = f"{body} ORDER BY {keys}"
    if s.limit is not None:
        body = f"{body} LIMIT {s.limit}"
    return body


def _select_item(item: SelectItem) -> str:
    text = _expr(item.expr)
    if item.alias is not None:
        text += f" AS {_name(item.alias)}"
    return text


def _from_clause(items: tuple[FromItem, ...]) -> str:
    out = [_source(items[0].source)]
    for item in items[1:]:
        if item.join_type == ",":
            out.append(", " + _source(item.source))
            continue
        kw = {"join": "JOIN", "left": "LEFT JOIN", "cross": "CROSS JOIN"}[item.join_type]
        piece = f" {kw} {_source(item.source)}"
        if item.condition is not None:
            piece += " ON " + _expr(item.condition)
        out.append(piece)
    return "".join(out)


def _source(src) -> str:
    if isinstance(src, TableSource):
        text = _name(src.table)
        if src.alias is not None:
            text += f" AS {_name(src.alias)}"
        return text
    assert isinstance(src, SubquerySource)
    text = f"({_select_sql(src.query)})"
    if src.alias is not None:
        text += f" AS {_name(src.alias)}"
    return text


# Higher number binds tighter; used to decide parenthesization.
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "not": 3,
    "cmp": 4,
    "+": 5,
    "-": 5,
    "||": 5,
    "*": 6,
    "/": 6,
    "%": 6,
    "neg": 7,
}


def _expr(e: Expr, parent_prec: int = 0) -> str:
    text, prec = _expr_prec(e)
    if prec < parent_prec:
        return f"({text})"
    return text


def _expr_prec(e: Expr) -> tuple[str, int]:
    if isinstance(e, Literal):
        return e.text, 99
    if isinstance(e, ColumnRef):
        if e.table is not None:
            return f"{_name(e.table)}.{_name(e.column)}", 99
        return _name(e.column), 99
    if isinstance(e, AliasRef):
        return _name(e.name), 99
    if isinstance(e, Star):
        return (f"{_name(e.table)}.*" if e.table is not None else "*"), 99
    if isinstance(e, FuncCall):
        if e.star:
            inner = "*"
        else:
            inner = ", ".join(_expr(a) for a in e.args)
        if e.distinct:
            inner = f"DISTINCT {inner}"
        return f"{e.name}({inner})", 99
    if isinstance(e, ScalarSubquery):
        return f"({_select_sql(e.query)})", 99
    if isinstance(e, Unary):
        if e.op == "not":
            prec = _PRECEDENCE["not"]
            return f"NOT {_expr(e.operand, prec)}", prec
        prec = _PRECEDENCE["neg"]
        operand = _expr(e.operand, prec)
        # "--" would start a comment: keep two minus signs apart.
        sep = " " if e.op == "-" and operand.startswith("-") else ""
        return f"{e.op}{sep}{operand}", prec
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        # Left-associative: the right child needs parens at equal precedence.
        return f"{_expr(e.left, prec)} {e.op} {_expr(e.right, prec + 1)}", prec
    if isinstance(e, Comparison):
        prec = _PRECEDENCE["cmp"]
        op = "NOT LIKE" if (e.op == "like" and e.negated) else e.op.upper() if e.op == "like" else e.op
        return f"{_expr(e.left, prec + 1)} {op} {_expr(e.right, prec + 1)}", prec
    if isinstance(e, Between):
        prec = _PRECEDENCE["cmp"]
        kw = "NOT BETWEEN" if e.negated else "BETWEEN"
        return (
            f"{_expr(e.expr, prec + 1)} {kw} {_expr(e.low, prec + 1)} AND {_expr(e.high, prec + 1)}",
            prec,
        )
    if isinstance(e, InList):
        prec = _PRECEDENCE["cmp"]
        kw = "NOT IN" if e.negated else "IN"
        items = ", ".join(_expr(i) for i in e.items)
        return f"{_expr(e.expr, prec + 1)} {kw} ({items})", prec
    if isinstance(e, InSubquery):
        prec = _PRECEDENCE["cmp"]
        kw = "NOT IN" if e.negated else "IN"
        return f"{_expr(e.expr, prec + 1)} {kw} ({_select_sql(e.query)})", prec
    if isinstance(e, Exists):
        kw = "NOT EXISTS" if e.negated else "EXISTS"
        return f"{kw} ({_select_sql(e.query)})", _PRECEDENCE["cmp"]
    if isinstance(e, IsNull):
        prec = _PRECEDENCE["cmp"]
        kw = "IS NOT NULL" if e.negated else "IS NULL"
        return f"{_expr(e.expr, prec + 1)} {kw}", prec
    if isinstance(e, BoolOp):
        prec = _PRECEDENCE[e.op]
        joiner = f" {e.op.upper()} "
        return joiner.join(_expr(t, prec) for t in e.terms), prec
    raise TypeError(f"cannot print {type(e).__name__}")
