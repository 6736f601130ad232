"""Recursive-descent parser and name binder for the SELECT dialect.

The dialect is the SQLite SELECT subset exercised by Spider-style corpora:
joins (with and without ON), WHERE / GROUP BY / HAVING / ORDER BY / LIMIT,
scalar and IN/EXISTS subqueries (correlated allowed), and single UNION /
UNION ALL / INTERSECT / EXCEPT compounds. DML, DDL, CTEs, CASE and window
functions are rejected with an explicit UnsupportedSqlError.

``parse`` returns a fully bound tree: every column reference is resolved to
exactly one FROM-clause source (case-insensitively) or flagged ambiguous;
unknown tables or columns raise ParseError.
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import ParseError, UnsupportedSqlError
from ..schema import DatabaseSchema
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
    OrderItem,
    ScalarSubquery,
    Select,
    SelectItem,
    Star,
    SubquerySource,
    TableSource,
    Unary,
    map_children,
)
from .printer import _quote_string
from .tokens import FORBIDDEN_LEADS, Token, tokenize
from .walk import iter_expr_nodes

_JOIN_INTRO = ("join", "inner", "left", "right", "full", "cross", "natural")


def parse(sql: str, schema: DatabaseSchema) -> Select:
    """Parse SQL text and bind all references against ``schema``."""
    tokens = tokenize(sql)
    parser = _Parser(tokens, sql)
    select = parser.parse_statement()
    return _Binder(schema).bind_select(select, parent=None)


class _Parser:
    def __init__(self, tokens: list[Token], sql: str):
        self.tokens = tokens
        self.sql = sql
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def accept_keyword(self, *names: str) -> str | None:
        kw = self.peek().keyword()
        if kw in names:
            self.advance()
            return kw
        return None

    def expect_keyword(self, name: str) -> None:
        tok = self.advance()
        if tok.keyword() != name:
            raise ParseError(f"expected {name.upper()}, found {tok.text!r}", tok.pos)

    def accept_punct(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text:
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> None:
        tok = self.advance()
        if tok.kind != "punct" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> Select:
        lead = self.peek()
        if lead.kind == "ident" and lead.text.lower() in FORBIDDEN_LEADS:
            raise UnsupportedSqlError(f"{lead.text.upper()} statements are not supported", lead.pos)
        if lead.is_keyword("with"):
            raise UnsupportedSqlError("WITH (common table expressions) is not supported", lead.pos)
        select = self.parse_select()
        self.accept_punct(";")
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return select

    def parse_select(self) -> Select:
        core = self.parse_select_core()
        set_op: tuple[str, Select] | None = None
        op = self.accept_keyword("union", "intersect", "except")
        if op is not None:
            if op == "union" and self.accept_keyword("all"):
                op = "union all"
            right = self.parse_select_core()
            if self.peek().is_keyword("union", "intersect", "except"):
                raise UnsupportedSqlError(
                    "chained set operations are not supported", self.peek().pos
                )
            set_op = (op, right)
        order_by = self.parse_order_by()
        limit = self.parse_limit()
        return replace(core, order_by=order_by, limit=limit, set_op=set_op)

    def parse_select_core(self) -> Select:
        self.expect_keyword("select")
        distinct = False
        if self.accept_keyword("distinct"):
            distinct = True
        else:
            self.accept_keyword("all")
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        from_items: tuple[FromItem, ...] = ()
        if self.accept_keyword("from"):
            from_items = self.parse_from()
        where = self.parse_expr() if self.accept_keyword("where") else None
        group_by: tuple[Expr, ...] = ()
        having: Expr | None = None
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            exprs = [self.parse_expr()]
            while self.accept_punct(","):
                exprs.append(self.parse_expr())
            group_by = tuple(exprs)
            if self.accept_keyword("having"):
                having = self.parse_expr()
        return Select(
            items=tuple(items),
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def parse_select_item(self) -> SelectItem:
        return SelectItem(expr=self.parse_expr(), alias=self.parse_alias())

    def parse_order_by(self) -> tuple[OrderItem, ...]:
        if not self.accept_keyword("order"):
            return ()
        self.expect_keyword("by")
        out = []
        while True:
            expr = self.parse_expr()
            descending = False
            if self.accept_keyword("desc"):
                descending = True
            else:
                self.accept_keyword("asc")
            out.append(OrderItem(expr=expr, descending=descending))
            if not self.accept_punct(","):
                break
        return tuple(out)

    def parse_limit(self) -> int | None:
        if not self.accept_keyword("limit"):
            return None
        tok = self.advance()
        negative = tok.kind == "op" and tok.text == "-"
        if negative:
            tok = self.advance()
        value = _number_value(tok) if tok.kind == "number" else None
        if not isinstance(value, int):
            raise ParseError(f"LIMIT expects an integer, found {tok.text!r}", tok.pos)
        if negative or value < 0:
            raise ParseError("LIMIT must be non-negative", tok.pos)
        if self.peek().is_keyword("offset"):
            raise UnsupportedSqlError("LIMIT ... OFFSET is not supported", self.peek().pos)
        if self.accept_punct(","):
            raise UnsupportedSqlError("LIMIT with two operands is not supported", self.peek().pos)
        return value

    # -- FROM ----------------------------------------------------------------

    def parse_from(self) -> tuple[FromItem, ...]:
        items = [FromItem(source=self.parse_source())]
        while True:
            if self.accept_punct(","):
                items.append(FromItem(source=self.parse_source(), join_type=","))
                continue
            kw = self.peek().keyword()
            if kw not in _JOIN_INTRO:
                break
            join_type = self.parse_join_type()
            source = self.parse_source()
            condition = self.parse_expr() if self.accept_keyword("on") else None
            items.append(FromItem(source=source, join_type=join_type, condition=condition))
        return tuple(items)

    def parse_join_type(self) -> str:
        tok = self.peek()
        kw = self.accept_keyword("join", "inner", "left", "right", "full", "cross", "natural")
        if kw == "join":
            return "join"
        if kw == "inner":
            self.expect_keyword("join")
            return "join"
        if kw in ("left", "right", "full"):
            if kw in ("right", "full"):
                raise UnsupportedSqlError(f"{kw.upper()} JOIN is not supported", tok.pos)
            self.accept_keyword("outer")
            self.expect_keyword("join")
            return "left"
        if kw == "cross":
            self.expect_keyword("join")
            return "cross"
        raise UnsupportedSqlError("NATURAL joins are not supported", tok.pos)

    def parse_source(self) -> TableSource | SubquerySource:
        if self.accept_punct("("):
            query = self.parse_select()
            self.expect_punct(")")
            alias = self.parse_alias()
            return SubquerySource(query=query, alias=alias)
        tok = self.advance()
        if tok.kind not in ("ident", "qident") or (tok.kind == "ident" and tok.keyword()):
            raise ParseError(f"expected table name, found {tok.text!r}", tok.pos)
        alias = self.parse_alias()
        return TableSource(table=tok.text, alias=alias)

    def parse_alias(self) -> str | None:
        if self.accept_keyword("as"):
            tok = self.advance()
            if tok.kind not in ("ident", "qident"):
                raise ParseError(f"expected alias after AS, found {tok.text!r}", tok.pos)
            return tok.text
        tok = self.peek()
        if tok.kind == "qident" or (tok.kind == "ident" and tok.keyword() is None):
            self.advance()
            return tok.text
        return None

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        terms = [self.parse_and()]
        while self.accept_keyword("or"):
            terms.append(self.parse_and())
        if len(terms) == 1:
            return terms[0]
        return BoolOp(op="or", terms=tuple(_flatten("or", terms)))

    def parse_and(self) -> Expr:
        terms = [self.parse_not()]
        while self.accept_keyword("and"):
            terms.append(self.parse_not())
        if len(terms) == 1:
            return terms[0]
        return BoolOp(op="and", terms=tuple(_flatten("and", terms)))

    def parse_not(self) -> Expr:
        if self.peek().is_keyword("not") and not self.peek(1).is_keyword("exists"):
            self.advance()
            return Unary(op="not", operand=self.parse_not())
        if self.peek().is_keyword("not") and self.peek(1).is_keyword("exists"):
            self.advance()  # NOT
            self.advance()  # EXISTS
            return Exists(query=self.parse_parenthesized_select(), negated=True)
        if self.peek().is_keyword("exists"):
            self.advance()
            return Exists(query=self.parse_parenthesized_select())
        return self.parse_predicate()

    def parse_parenthesized_select(self) -> Select:
        self.expect_punct("(")
        query = self.parse_select()
        self.expect_punct(")")
        return query

    def parse_predicate(self) -> Expr:
        left = self.parse_additive()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("=", "==", "!=", "<>", "<", "<=", ">", ">="):
            self.advance()
            op = {"==": "=", "<>": "!="}.get(tok.text, tok.text)
            return Comparison(op=op, left=left, right=self.parse_additive())
        negated = False
        if tok.is_keyword("not"):
            nxt = self.peek(1).keyword()
            if nxt in ("like", "in", "between"):
                self.advance()
                negated = True
                tok = self.peek()
        if tok.is_keyword("like"):
            self.advance()
            return Comparison(op="like", left=left, right=self.parse_additive(), negated=negated)
        if tok.is_keyword("between"):
            self.advance()
            low = self.parse_additive()
            self.expect_keyword("and")
            high = self.parse_additive()
            return Between(expr=left, low=low, high=high, negated=negated)
        if tok.is_keyword("in"):
            self.advance()
            self.expect_punct("(")
            if self.peek().is_keyword("select"):
                query = self.parse_select()
                self.expect_punct(")")
                return InSubquery(expr=left, query=query, negated=negated)
            items = [self.parse_expr()]
            while self.accept_punct(","):
                items.append(self.parse_expr())
            self.expect_punct(")")
            return InList(expr=left, items=tuple(items), negated=negated)
        if negated:
            raise ParseError("expected LIKE, IN or BETWEEN after NOT", tok.pos)
        if tok.is_keyword("is"):
            self.advance()
            is_not = bool(self.accept_keyword("not"))
            tok = self.advance()
            if tok.keyword() != "null":
                raise ParseError(f"expected NULL after IS, found {tok.text!r}", tok.pos)
            return IsNull(expr=left, negated=is_not)
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("+", "-", "||"):
                self.advance()
                left = Binary(op=tok.text, left=left, right=self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("*", "/", "%"):
                self.advance()
                left = Binary(op=tok.text, left=left, right=self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("-", "+"):
            self.advance()
            operand = self.parse_unary()
            if tok.text == "-" and isinstance(operand, Literal) and operand.value == _INT64_MIN:
                # Only a hex literal reads as -2**63, and SQLite will not negate it.
                raise ParseError(f"hex literal too big: -{operand.text}", tok.pos)
            return Unary(op=tok.text, operand=operand)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Literal(value=_number_value(tok), text=tok.text)
        if tok.kind == "string":
            self.advance()
            return Literal(value=tok.text, text=_quote_string(tok.text))
        if tok.is_keyword("null"):
            self.advance()
            return Literal(value=None, text="NULL")
        if tok.is_keyword("case"):
            raise UnsupportedSqlError("CASE expressions are not supported", tok.pos)
        if tok.is_keyword("cast"):
            raise UnsupportedSqlError("CAST expressions are not supported", tok.pos)
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            if self.peek().is_keyword("select"):
                query = self.parse_select()
                self.expect_punct(")")
                return ScalarSubquery(query=query)
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        if tok.kind == "op" and tok.text == "*":
            self.advance()
            return Star()
        if tok.kind in ("ident", "qident"):
            return self.parse_name_or_call()
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def parse_name_or_call(self) -> Expr:
        tok = self.advance()
        name = tok.text
        quoted = tok.kind == "qident"
        if not quoted and tok.keyword() is not None and tok.keyword() not in ("left",):
            # Bare keywords (other than overloadable ones) cannot start a name.
            raise ParseError(f"unexpected keyword {name!r}", tok.pos)
        if self.accept_punct("("):
            return self.parse_call(name.lower(), tok)
        if self.peek().kind == "punct" and self.peek().text == ".":
            self.advance()
            nxt = self.advance()
            if nxt.kind == "op" and nxt.text == "*":
                return Star(table=name)
            if nxt.kind not in ("ident", "qident"):
                raise ParseError(f"expected column after '.', found {nxt.text!r}", nxt.pos)
            return ColumnRef(table=name, column=nxt.text)
        # An unqualified, double-quoted name that fails to bind is later
        # downgraded to a string literal, mirroring SQLite's tolerance.
        ref = ColumnRef(table=None, column=name)
        if quoted:
            return _QuotedName(ref)
        return ref

    def parse_call(self, name: str, tok: Token) -> FuncCall:
        distinct = bool(self.accept_keyword("distinct"))
        if self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            self.expect_punct(")")
            return FuncCall(name=name, args=(), distinct=distinct, star=True)
        if self.accept_punct(")"):
            return FuncCall(name=name, args=(), distinct=distinct)
        args = [self.parse_expr()]
        while self.accept_punct(","):
            args.append(self.parse_expr())
        self.expect_punct(")")
        return FuncCall(name=name, args=tuple(args), distinct=distinct)


class _QuotedName:
    """Parse-time wrapper marking a double-quoted unqualified name."""

    def __init__(self, ref: ColumnRef):
        self.ref = ref


def _flatten(op: str, terms: list[Expr]) -> list[Expr]:
    out: list[Expr] = []
    for term in terms:
        if isinstance(term, BoolOp) and term.op == op:
            out.extend(term.terms)
        else:
            out.append(term)
    return out


_INT64_MIN = -(1 << 63)


def _number_value(tok: Token) -> int | float:
    """The value SQLite gives a numeric literal. A hex integer is read as a
    64-bit two's-complement value, so ``0xffffffffffffffff`` is -1."""
    text = tok.text
    if text.isdigit():
        return int(text)
    if text[:2] in ("0x", "0X"):
        if len(text[2:].lstrip("0")) > 16:
            raise ParseError(f"hex literal too big: {text}", tok.pos)
        value = int(text, 16)
        return value - (1 << 64) if value >> 63 else value
    return float(text)


# --------------------------------------------------------------------------- binding

class _SourceInfo:
    def __init__(self, key: str, columns: tuple[str, ...]):
        self.key = key
        self.columns = {c.lower() for c in columns}


class _Scope:
    def __init__(self, sources: list[_SourceInfo], parent: "_Scope | None"):
        self.sources = sources
        self.by_key = {s.key: s for s in sources}
        self.parent = parent


class _Binder:
    def __init__(self, schema: DatabaseSchema):
        self.schema = schema

    def bind_select(self, select: Select, parent: _Scope | None) -> Select:
        from_items = []
        sources: list[_SourceInfo] = []
        for item in select.from_items:
            source = item.source
            if isinstance(source, TableSource):
                canonical = self.schema.table_name(source.table)
                if canonical is None:
                    raise ParseError(f"no such table: {source.table}")
                key = (source.alias or source.table).lower()
                bound_source: TableSource | SubquerySource = replace(source, key=key)
                info = _SourceInfo(key, self.schema.columns_of(canonical))
            else:
                # FROM-clause subqueries are bound without the outer scope:
                # they cannot be correlated.
                inner = self.bind_select(source.query, parent=None)
                key = (source.alias or f"subquery{len(sources) + 1}").lower()
                bound_source = replace(source, query=inner, key=key)
                info = _SourceInfo(key, _output_columns(inner, self.schema))
            if any(s.key == key for s in sources):
                raise ParseError(f"duplicate table name or alias in FROM: {key}")
            sources.append(info)
            from_items.append(replace(item, source=bound_source))
        scope = _Scope(sources, parent)

        items = tuple(
            replace(si, expr=self.bind_expr(si.expr, scope, select, alias_ok=False))
            for si in select.items
        )
        bound = replace(select, items=items, from_items=tuple(from_items))

        from_items = tuple(
            replace(fi, condition=self.bind_expr(fi.condition, scope, bound, alias_ok=False))
            for fi in from_items
        )
        where = self.bind_expr(bound.where, scope, bound, alias_ok=False)
        if where is not None:
            _reject_aggregates(where)
        group_by = tuple(self.bind_expr(e, scope, bound, alias_ok=True) for e in bound.group_by)
        having = self.bind_expr(bound.having, scope, bound, alias_ok=True)
        order_by = tuple(
            replace(oi, expr=self.bind_expr(oi.expr, scope, bound, alias_ok=True))
            for oi in bound.order_by
        )
        set_op = bound.set_op
        if set_op is not None:
            set_op = (set_op[0], self.bind_select(set_op[1], parent))
        return replace(
            bound,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            set_op=set_op,
        )

    # -- expressions ---------------------------------------------------------

    def bind_expr(self, expr, scope: _Scope, select: Select, alias_ok: bool):
        if expr is None:
            return None
        if isinstance(expr, _QuotedName):
            try:
                return self._bind_column(expr.ref, scope, select, alias_ok)
            except ParseError:
                value = expr.ref.column
                return Literal(value=value, text=_quote_string(value))
        if isinstance(expr, ColumnRef):
            return self._bind_column(expr, scope, select, alias_ok)
        if isinstance(expr, Star) and expr.table is not None:
            info = self._find_source(expr.table.lower(), scope)
            if info is None:
                raise ParseError(f"no such table: {expr.table}")
            return replace(expr, source=info.key)
        if isinstance(expr, Select):
            # Subqueries in expressions may be correlated: they see this scope.
            return self.bind_select(expr, parent=scope)
        return map_children(expr, lambda child: self.bind_expr(child, scope, select, alias_ok))

    def _bind_column(self, ref: ColumnRef, scope: _Scope, select: Select, alias_ok: bool) -> Expr:
        if ref.table is not None:
            info = self._find_source(ref.table.lower(), scope)
            if info is None:
                raise ParseError(f"no such table: {ref.table}")
            if ref.column.lower() not in info.columns:
                raise ParseError(f"no such column: {ref.table}.{ref.column}")
            return replace(ref, source=info.key)
        matches = self._match_unqualified(ref.column.lower(), scope)
        if len(matches) == 1:
            return replace(ref, source=matches[0].key)
        if len(matches) > 1:
            return replace(ref, source=None, ambiguous=True)
        if alias_ok:
            for idx, item in enumerate(select.items):
                if item.alias is not None and item.alias.lower() == ref.column.lower():
                    return AliasRef(name=ref.column, index=idx)
        raise ParseError(f"no such column: {ref.column}")

    def _match_unqualified(self, column: str, scope: _Scope) -> list[_SourceInfo]:
        current: _Scope | None = scope
        while current is not None:
            matches = [s for s in current.sources if column in s.columns]
            if matches:
                return matches
            current = current.parent
        return []

    def _find_source(self, key: str, scope: _Scope) -> _SourceInfo | None:
        current: _Scope | None = scope
        while current is not None:
            if key in current.by_key:
                return current.by_key[key]
            current = current.parent
        return None


def _output_columns(select: Select, schema: DatabaseSchema) -> tuple[str, ...]:
    """Output column names of a bound subquery, for FROM-subquery binding."""
    out: list[str] = []
    for idx, item in enumerate(select.items):
        if item.alias is not None:
            out.append(item.alias)
        elif isinstance(item.expr, ColumnRef):
            out.append(item.expr.column)
        elif isinstance(item.expr, Star):
            for fi in select.from_items:
                src = fi.source
                if isinstance(src, TableSource):
                    if item.expr.table is None or src.key == item.expr.source:
                        out.extend(schema.columns_of(src.table))
                elif item.expr.table is None or src.key == item.expr.source:
                    out.extend(_output_columns(src.query, schema))
        else:
            out.append(f"column{idx + 1}")
    return tuple(out)


def _reject_aggregates(expr: Expr) -> None:
    """Aggregates directly inside WHERE are invalid SQL; subqueries are fine
    (``iter_expr_nodes`` does not enter them)."""
    for node in iter_expr_nodes(expr):
        if isinstance(node, FuncCall) and node.is_aggregate:
            raise ParseError(f"aggregate function {node.name}() is not allowed in WHERE")
