"""Render an AST back to SQL text.

Printing is deterministic (single line, upper-case keywords) and the output
re-parses to an equal tree, which the round-trip property tests rely on.

Both entry points take an optional ``names`` map from source key to a name.
With it, a column or star whose source the map names is qualified by that
name, and FROM sources print without their alias: the re-qualified form
``diff`` compares across queries.
"""

from __future__ import annotations

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

# SQLite's keywords (sqlite.org/lang_keywords.html, 147 in 3.40), a superset
# of the dialect's: SQLite reads some of them as names when bare and rejects
# others (``ORDER BY index``), so a name spelled like any of them is quoted.
SQLITE_KEYWORDS = frozenset(
    """
    abort action add after all alter always analyze and as asc attach
    autoincrement before begin between by cascade case cast check collate
    column commit conflict constraint create cross current current_date
    current_time current_timestamp database default deferrable deferred
    delete desc detach distinct do drop each else end escape except exclude
    exclusive exists explain fail filter first following for foreign from
    full generated glob group groups having if ignore immediate in index
    indexed initially inner insert instead intersect into is isnull join key
    last left like limit match materialized natural no not nothing notnull
    null nulls of offset on or order others outer over partition plan pragma
    preceding primary query raise range recursive references regexp reindex
    release rename replace restrict returning right rollback row rows
    savepoint select set table temp temporary then ties to transaction
    trigger unbounded union unique update using vacuum values view virtual
    when where window with without
    """.split()
)


def expr_sql(expr: Expr, names: dict[str, str] | None = None) -> str:
    return _expr(expr, 0, names)


def _name(text: str) -> str:
    # An ASCII identifier is [A-Za-z_][A-Za-z0-9_]*.
    if text.isascii() and text.isidentifier() and text.lower() not in SQLITE_KEYWORDS:
        return text
    return '"' + text.replace('"', '""') + '"'


def _quote_string(value: str) -> str:
    """The SQL spelling of a string literal; the parser and the canonicaliser
    give every string ``Literal`` this text."""
    return "'" + value.replace("'", "''") + "'"


def to_sql(s: Select, names: dict[str, str] | None = None) -> str:
    parts = ["SELECT"]
    if s.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_select_item(i, names) for i in s.items))
    if s.from_items:
        parts.append("FROM " + _from_clause(s.from_items, names))
    if s.where is not None:
        parts.append("WHERE " + _expr(s.where, 0, names))
    if s.group_by:
        parts.append("GROUP BY " + ", ".join(_expr(e, 0, names) for e in s.group_by))
    if s.having is not None:
        parts.append("HAVING " + _expr(s.having, 0, names))
    body = " ".join(parts)
    if s.set_op is not None:
        op, right = s.set_op
        # Right-hand sides of set operations never carry ORDER BY / LIMIT.
        body = f"{body} {op.upper()} {to_sql(right, names)}"
    if s.order_by:
        keys = ", ".join(
            _expr(o.expr, 0, names) + (" DESC" if o.descending else "") for o in s.order_by
        )
        body = f"{body} ORDER BY {keys}"
    if s.limit is not None:
        body = f"{body} LIMIT {s.limit}"
    return body


def _select_item(item: SelectItem, names: dict[str, str] | None) -> str:
    text = _expr(item.expr, 0, names)
    if item.alias is not None:
        text += f" AS {_name(item.alias)}"
    return text


def _from_clause(items: tuple[FromItem, ...], names: dict[str, str] | None) -> str:
    out = [_source(items[0].source, names)]
    for item in items[1:]:
        if item.join_type == ",":
            out.append(", " + _source(item.source, names))
            continue
        kw = {"join": "JOIN", "left": "LEFT JOIN", "cross": "CROSS JOIN"}[item.join_type]
        piece = f" {kw} {_source(item.source, names)}"
        if item.condition is not None:
            piece += " ON " + _expr(item.condition, 0, names)
        out.append(piece)
    return "".join(out)


def _source(src, names: dict[str, str] | None) -> str:
    if isinstance(src, TableSource):
        text = _name(src.table)
    else:
        assert isinstance(src, SubquerySource)
        text = f"({to_sql(src.query, names)})"
    if src.alias is not None and names is None:
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


def _expr(e: Expr, parent_prec: int, names: dict[str, str] | None) -> str:
    text, prec = _expr_prec(e, names)
    if prec < parent_prec:
        return f"({text})"
    return text


def _expr_prec(e: Expr, names: dict[str, str] | None) -> tuple[str, int]:
    # Most frequent types first.
    if isinstance(e, ColumnRef):
        table = e.table if names is None else names.get(e.source, e.table)
        if table is not None:
            return f"{_name(table)}.{_name(e.column)}", 99
        return _name(e.column), 99
    if isinstance(e, Literal):
        return e.text, 99
    if isinstance(e, Comparison):
        prec = _PRECEDENCE["cmp"]
        op = "NOT LIKE" if (e.op == "like" and e.negated) else e.op.upper() if e.op == "like" else e.op
        return f"{_expr(e.left, prec + 1, names)} {op} {_expr(e.right, prec + 1, names)}", prec
    if isinstance(e, FuncCall):
        if e.star:
            inner = "*"
        else:
            inner = ", ".join(_expr(a, 0, names) for a in e.args)
        if e.distinct:
            inner = f"DISTINCT {inner}"
        return f"{e.name}({inner})", 99
    if isinstance(e, BoolOp):
        prec = _PRECEDENCE[e.op]
        joiner = f" {e.op.upper()} "
        return joiner.join(_expr(t, prec, names) for t in e.terms), prec
    if isinstance(e, Star):
        table = e.table if names is None else names.get(e.source, e.table)
        return (f"{_name(table)}.*" if table is not None else "*"), 99
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        # Left-associative: the right child needs parens at equal precedence.
        return f"{_expr(e.left, prec, names)} {e.op} {_expr(e.right, prec + 1, names)}", prec
    if isinstance(e, Unary):
        if e.op == "not":
            prec = _PRECEDENCE["not"]
            return f"NOT {_expr(e.operand, prec, names)}", prec
        prec = _PRECEDENCE["neg"]
        operand = _expr(e.operand, prec, names)
        # "--" would start a comment: keep two minus signs apart.
        sep = " " if e.op == "-" and operand.startswith("-") else ""
        return f"{e.op}{sep}{operand}", prec
    if isinstance(e, InSubquery):
        prec = _PRECEDENCE["cmp"]
        kw = "NOT IN" if e.negated else "IN"
        return f"{_expr(e.expr, prec + 1, names)} {kw} ({to_sql(e.query, names)})", prec
    if isinstance(e, InList):
        prec = _PRECEDENCE["cmp"]
        kw = "NOT IN" if e.negated else "IN"
        items = ", ".join(_expr(i, 0, names) for i in e.items)
        return f"{_expr(e.expr, prec + 1, names)} {kw} ({items})", prec
    if isinstance(e, Between):
        prec = _PRECEDENCE["cmp"]
        kw = "NOT BETWEEN" if e.negated else "BETWEEN"
        low, high = _expr(e.low, prec + 1, names), _expr(e.high, prec + 1, names)
        return f"{_expr(e.expr, prec + 1, names)} {kw} {low} AND {high}", prec
    if isinstance(e, IsNull):
        prec = _PRECEDENCE["cmp"]
        kw = "IS NOT NULL" if e.negated else "IS NULL"
        return f"{_expr(e.expr, prec + 1, names)} {kw}", prec
    if isinstance(e, Exists):
        kw = "NOT EXISTS" if e.negated else "EXISTS"
        return f"{kw} ({to_sql(e.query, names)})", _PRECEDENCE["cmp"]
    if isinstance(e, ScalarSubquery):
        return f"({to_sql(e.query, names)})", 99
    if isinstance(e, AliasRef):
        return _name(e.name), 99
    raise TypeError(f"cannot print {type(e).__name__}")
