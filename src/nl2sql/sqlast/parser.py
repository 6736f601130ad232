"""Recursive-descent parser and name binder for the SELECT dialect.

The dialect is the SQLite SELECT subset exercised by Spider-style corpora:
joins (with and without ON), WHERE / GROUP BY / HAVING / ORDER BY / LIMIT,
scalar and IN/EXISTS subqueries (correlated allowed), and single UNION /
UNION ALL / INTERSECT / EXCEPT compounds. DML, DDL, CTEs, CASE and window
functions are rejected with an explicit UnsupportedSqlError.

``parse`` returns a fully bound tree: every column reference is resolved to
exactly one FROM-clause source (case-insensitively) or flagged ambiguous;
unknown tables or columns raise ParseError.

The grammar reads each token as a word, looked up once per parse (see
``_Parser``). The expression ladder, OR over AND over NOT over a predicate
over sums, products, signs and primaries, has one method per level and
tests the next word against that level's operators directly, so an operand
that uses none of them costs each level one lookup.

A query may nest at most ``MAX_DEPTH`` levels; past that it is a
ParseError, so no walk of the tree can exhaust Python's recursion limit.
"""

from __future__ import annotations

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
from .tokens import FORBIDDEN_LEADS, KEYWORDS, Token, tokenize
from .walk import is_aggregate, iter_expr_nodes

# Each SELECT, expression, call's argument list, sign, NOT and operator of a
# +, -, ||, *, / or % chain opens one level, so ``SELECT ((1))`` takes four.
# The bound admits what SQLite 3.40.1's parser takes at most: 93 nested
# parentheses, 94 signs or NOTs, 31 nested calls, 18 nested scalar subqueries.
MAX_DEPTH = 100

_JOIN_INTRO = ("join", "inner", "left", "right", "full", "cross", "natural")
# Each comparison operator mapped to the one the tree stores.
_COMPARISONS = {
    "=": "=", "==": "=", "!=": "!=", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}


def parse(sql: str, schema: DatabaseSchema) -> Select:
    """Parse SQL text and bind all references against ``schema``."""
    select = _Parser(tokenize(sql)).parse_statement()
    return _Binder(schema).bind_select(select, parent=None)


# Each keyword mapped to itself: ``.get`` reads a word as a keyword or None.
_KEYWORD = {kw: kw for kw in KEYWORDS}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        # What each token reads as to the grammar, looked up once: a
        # keyword's lower-cased name, an operator's or punctuation mark's
        # text, or None. The trailing None lets ``word(1)`` look past the
        # end token.
        self.words = [
            _KEYWORD.get(text.lower()) if kind == "ident"
            else text if kind == "op" or kind == "punct" else None
            for kind, text, _ in tokens
        ]
        self.words.append(None)
        self.pos = 0
        self.depth = 0  # levels open; see MAX_DEPTH

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def word(self, ahead: int = 0) -> str | None:
        return self.words[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def accept(self, word: str) -> bool:
        """Consume the next token if its word is ``word``."""
        if self.words[self.pos] == word:
            self.pos += 1
            return True
        return False

    def accept_any(self, words: tuple[str, ...]) -> str | None:
        """Consume the next token if its word is in ``words``; return the word."""
        word = self.words[self.pos]
        if word in words:
            self.pos += 1
            return word
        return None

    def deeper(self) -> None:
        """Open one more level; a level past ``MAX_DEPTH`` is a ParseError.
        The caller closes it (``self.depth -= 1``) when it returns; a
        ParseError ends the parse, so it closes none."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"query nests deeper than {MAX_DEPTH} levels", self.peek().pos)

    def expect_keyword(self, name: str) -> None:
        if not self.accept(name):
            tok = self.peek()
            raise ParseError(f"expected {name.upper()}, found {tok.text!r}", tok.pos)

    def expect_punct(self, text: str) -> None:
        if not self.accept(text):
            tok = self.peek()
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> Select:
        lead = self.peek()
        if lead.kind == "ident" and lead.text.lower() in FORBIDDEN_LEADS:
            raise UnsupportedSqlError(f"{lead.text.upper()} statements are not supported", lead.pos)
        if self.word() == "with":
            raise UnsupportedSqlError("WITH (common table expressions) is not supported", lead.pos)
        select = self.parse_select()
        self.accept(";")
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return select

    def parse_select(self) -> Select:
        self.deeper()
        core = self.parse_select_core()
        set_op: tuple[str, Select] | None = None
        op = self.accept_any(("union", "intersect", "except"))
        if op is not None:
            if op == "union" and self.accept("all"):
                op = "union all"
            right = Select(**self.parse_select_core())
            if self.word() in ("union", "intersect", "except"):
                raise UnsupportedSqlError(
                    "chained set operations are not supported", self.peek().pos
                )
            set_op = (op, right)
        order_by = self.parse_order_by()
        limit = self.parse_limit()
        self.depth -= 1
        return Select(**core, order_by=order_by, limit=limit, set_op=set_op)

    def parse_select_core(self) -> dict:
        """The fields of a SELECT up to HAVING, by name."""
        self.expect_keyword("select")
        distinct = self.accept_any(("distinct", "all")) == "distinct"
        items = [self.parse_select_item()]
        while self.accept(","):
            items.append(self.parse_select_item())
        from_items: tuple[FromItem, ...] = ()
        if self.accept("from"):
            from_items = self.parse_from()
        where = self.parse_expr() if self.accept("where") else None
        group_by: tuple[Expr, ...] = ()
        having: Expr | None = None
        if self.accept("group"):
            self.expect_keyword("by")
            exprs = [self.parse_expr()]
            while self.accept(","):
                exprs.append(self.parse_expr())
            group_by = tuple(exprs)
            if self.accept("having"):
                having = self.parse_expr()
        return dict(items=tuple(items), from_items=from_items, where=where,
                    group_by=group_by, having=having, distinct=distinct)

    def parse_select_item(self) -> SelectItem:
        return SelectItem(self.parse_expr(), self.parse_alias())

    def parse_order_by(self) -> tuple[OrderItem, ...]:
        if not self.accept("order"):
            return ()
        self.expect_keyword("by")
        out = [self.parse_order_item()]
        while self.accept(","):
            out.append(self.parse_order_item())
        return tuple(out)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        return OrderItem(expr, self.accept_any(("desc", "asc")) == "desc")

    def parse_limit(self) -> int | None:
        if not self.accept("limit"):
            return None
        negative = self.accept("-")
        tok = self.advance()
        value = _number_value(tok) if tok.kind == "number" else None
        if not isinstance(value, int):
            raise ParseError(f"LIMIT expects an integer, found {tok.text!r}", tok.pos)
        if negative or value < 0:
            raise ParseError("LIMIT must be non-negative", tok.pos)
        if self.word() == "offset":
            raise UnsupportedSqlError("LIMIT ... OFFSET is not supported", self.peek().pos)
        if self.accept(","):
            raise UnsupportedSqlError("LIMIT with two operands is not supported", self.peek().pos)
        return value

    # -- FROM ----------------------------------------------------------------

    def parse_from(self) -> tuple[FromItem, ...]:
        items = [FromItem(self.parse_source())]
        while True:
            if self.accept(","):
                items.append(FromItem(self.parse_source(), ","))
                continue
            if self.word() not in _JOIN_INTRO:
                break
            join_type = self.parse_join_type()
            source = self.parse_source()
            condition = self.parse_expr() if self.accept("on") else None
            items.append(FromItem(source, join_type, condition))
        return tuple(items)

    def parse_join_type(self) -> str:
        tok = self.peek()
        kw = self.accept_any(_JOIN_INTRO)
        if kw == "join":
            return "join"
        if kw == "inner":
            self.expect_keyword("join")
            return "join"
        if kw in ("left", "right", "full"):
            if kw in ("right", "full"):
                raise UnsupportedSqlError(f"{kw.upper()} JOIN is not supported", tok.pos)
            self.accept("outer")
            self.expect_keyword("join")
            return "left"
        if kw == "cross":
            self.expect_keyword("join")
            return "cross"
        raise UnsupportedSqlError("NATURAL joins are not supported", tok.pos)

    def parse_source(self) -> TableSource | SubquerySource:
        if self.accept("("):
            query = self.parse_select()
            self.expect_punct(")")
            alias = self.parse_alias()
            return SubquerySource(query=query, alias=alias)
        tok = self.peek()
        if tok.kind not in ("ident", "qident") or self.word() is not None:
            raise ParseError(f"expected table name, found {tok.text!r}", tok.pos)
        self.pos += 1
        alias = self.parse_alias()
        return TableSource(tok.text, alias)

    def parse_alias(self) -> str | None:
        if self.accept("as"):
            tok = self.advance()
            if tok.kind not in ("ident", "qident"):
                raise ParseError(f"expected alias after AS, found {tok.text!r}", tok.pos)
            return tok.text
        tok = self.peek()
        if tok.kind in ("ident", "qident") and self.word() is None:
            self.pos += 1
            return tok.text
        return None

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> Expr:
        """A flattened n-ary OR of ANDs, or its one operand."""
        self.deeper()
        term = self.parse_and()
        if self.words[self.pos] == "or":
            terms = [term]
            while self.accept("or"):
                terms.append(self.parse_and())
            term = BoolOp(op="or", terms=tuple(_flatten("or", terms)))
        self.depth -= 1
        return term

    def parse_and(self) -> Expr:
        """A flattened n-ary AND of NOTs, or its one operand."""
        term = self.parse_not()
        if self.words[self.pos] != "and":
            return term
        terms = [term]
        while self.accept("and"):
            terms.append(self.parse_not())
        return BoolOp(op="and", terms=tuple(_flatten("and", terms)))

    def parse_not(self) -> Expr:
        word = self.words[self.pos]
        if word == "not":
            self.pos += 1
            if self.accept("exists"):
                return Exists(query=self.parse_parenthesized_select(), negated=True)
            self.deeper()
            operand = self.parse_not()
            self.depth -= 1
            return Unary(op="not", operand=operand)
        if word == "exists":
            self.pos += 1
            return Exists(query=self.parse_parenthesized_select())
        return self.parse_predicate()

    def parse_parenthesized_select(self) -> Select:
        self.expect_punct("(")
        query = self.parse_select()
        self.expect_punct(")")
        return query

    def parse_predicate(self) -> Expr:
        left = self.parse_additive()
        word = self.words[self.pos]
        if word in _COMPARISONS:
            self.pos += 1
            return Comparison(_COMPARISONS[word], left, self.parse_additive())
        negated = word == "not" and self.word(1) in ("like", "in", "between")
        if negated:
            self.pos += 1
            word = self.words[self.pos]
        if word == "like":
            self.pos += 1
            return Comparison(op="like", left=left, right=self.parse_additive(), negated=negated)
        if word == "between":
            self.pos += 1
            low = self.parse_additive()
            self.expect_keyword("and")
            high = self.parse_additive()
            return Between(expr=left, low=low, high=high, negated=negated)
        if word == "in":
            self.pos += 1
            self.expect_punct("(")
            if self.word() == "select":
                query = self.parse_select()
                self.expect_punct(")")
                return InSubquery(expr=left, query=query, negated=negated)
            items = [self.parse_expr()]
            while self.accept(","):
                items.append(self.parse_expr())
            self.expect_punct(")")
            return InList(expr=left, items=tuple(items), negated=negated)
        if word == "is":
            self.pos += 1
            is_not = self.accept("not")
            if not self.accept("null"):
                tok = self.peek()
                raise ParseError(f"expected NULL after IS, found {tok.text!r}", tok.pos)
            return IsNull(expr=left, negated=is_not)
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        depth = self.depth
        while (op := self.words[self.pos]) in ("+", "-", "||"):
            self.pos += 1
            self.deeper()
            left = Binary(op, left, self.parse_multiplicative())
        self.depth = depth
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        depth = self.depth
        while (op := self.words[self.pos]) in ("*", "/", "%"):
            self.pos += 1
            self.deeper()
            left = Binary(op, left, self.parse_unary())
        self.depth = depth
        return left

    def parse_unary(self) -> Expr:
        op = self.words[self.pos]
        if op not in ("-", "+"):
            return self.parse_primary()
        tok = self.tokens[self.pos]
        self.pos += 1
        self.deeper()
        operand = self.parse_unary()
        self.depth -= 1
        if op == "-" and isinstance(operand, Literal) and operand.value == _INT64_MIN:
            # Only a hex literal reads as -2**63, and SQLite will not negate it.
            raise ParseError(f"hex literal too big: -{operand.text}", tok.pos)
        return Unary(op=op, operand=operand)

    def parse_primary(self) -> Expr:
        tok = self.peek()
        kind = tok.kind
        if kind == "number":
            self.pos += 1
            return Literal(_number_value(tok), tok.text)
        if kind == "string":
            self.pos += 1
            return Literal(tok.text, _quote_string(tok.text))
        if kind == "qident":
            return self.parse_name_or_call()
        word = self.word()
        if word == "null":
            self.pos += 1
            return Literal(value=None, text="NULL")
        if word == "case":
            raise UnsupportedSqlError("CASE expressions are not supported", tok.pos)
        if word == "cast":
            raise UnsupportedSqlError("CAST expressions are not supported", tok.pos)
        if word == "(":
            self.pos += 1
            if self.word() == "select":
                query = self.parse_select()
                self.expect_punct(")")
                return ScalarSubquery(query=query)
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        if word == "*":
            self.pos += 1
            return Star()
        if kind == "ident":
            return self.parse_name_or_call()
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def parse_name_or_call(self) -> Expr:
        tok = self.peek()
        name = tok.text
        word = self.word()
        if word is not None and word != "left":
            # Bare keywords (other than overloadable ones) cannot start a name.
            raise ParseError(f"unexpected keyword {name!r}", tok.pos)
        self.pos += 1
        word = self.words[self.pos]
        if word == "(":
            self.pos += 1
            return self.parse_call(name.lower())
        if word == ".":
            self.pos += 1
            if self.accept("*"):
                return Star(table=name)
            nxt = self.advance()
            if nxt.kind not in ("ident", "qident"):
                raise ParseError(f"expected column after '.', found {nxt.text!r}", nxt.pos)
            return _Name(name, nxt.text, quoted=False)
        return _Name(None, name, quoted=tok.kind == "qident")

    def parse_call(self, name: str) -> FuncCall:
        distinct = self.accept("distinct")
        if self.accept("*"):
            self.expect_punct(")")
            return FuncCall(name=name, args=(), distinct=distinct, star=True)
        if self.accept(")"):
            return FuncCall(name=name, args=(), distinct=distinct)
        self.deeper()  # a call's own level, besides each argument's
        args = [self.parse_expr()]
        while self.accept(","):
            args.append(self.parse_expr())
        self.expect_punct(")")
        self.depth -= 1
        return FuncCall(name=name, args=tuple(args), distinct=distinct)


class _Name:
    """A column name as parsed, which binding turns into a ``ColumnRef`` or
    an ``AliasRef``. An unqualified quoted name that binds to nothing
    becomes a string literal instead, mirroring SQLite's tolerance."""

    __slots__ = ("table", "column", "quoted")

    def __init__(self, table: str | None, column: str, quoted: bool):
        self.table = table
        self.column = column
        self.quoted = quoted


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
    def __init__(self, key: str, columns: frozenset[str]):
        self.key = key
        self.columns = columns  # lower-cased


class _Scope:
    def __init__(self, sources: list[_SourceInfo], parent: "_Scope | None"):
        self.sources = sources
        self.by_key = {s.key: s for s in sources}
        self.parent = parent


class _Binder:
    def __init__(self, schema: DatabaseSchema):
        self.schema = schema

    def bind_select(self, select: Select, parent: _Scope | None) -> Select:
        """``select`` with every name bound. Each bound node is built once,
        with its constructor; an item or expression that binding leaves as
        it was is kept."""
        sources: list[tuple[TableSource | SubquerySource, FromItem]] = []
        infos: list[_SourceInfo] = []
        for item in select.from_items:
            source = item.source
            if isinstance(source, TableSource):
                canonical = self.schema.table_name(source.table)
                if canonical is None:
                    raise ParseError(f"no such table: {source.table}")
                key = (source.alias or source.table).lower()
                source = TableSource(source.table, source.alias, key)
                columns = self.schema.lowered_columns(canonical)
            else:
                # FROM-clause subqueries are bound without the outer scope:
                # they cannot be correlated.
                inner = self.bind_select(source.query, parent=None)
                key = (source.alias or f"subquery{len(infos) + 1}").lower()
                source = SubquerySource(inner, source.alias, key)
                columns = frozenset(c.lower() for c in _output_columns(inner, self.schema))
            if any(info.key == key for info in infos):
                raise ParseError(f"duplicate table name or alias in FROM: {key}")
            infos.append(_SourceInfo(key, columns))
            sources.append((source, item))
        scope = _Scope(infos, parent)

        def bind(expr, alias_ok: bool):
            return self.bind_expr(expr, scope, select, alias_ok)

        items = []
        for si in select.items:
            expr = bind(si.expr, False)
            items.append(si if expr is si.expr else SelectItem(expr, si.alias))
        from_items = tuple(
            FromItem(source, item.join_type, bind(item.condition, False))
            for source, item in sources
        )
        where = bind(select.where, False)
        if where is not None:
            _reject_aggregates(where)
        group_by = tuple(bind(e, True) for e in select.group_by)
        having = bind(select.having, True)
        order_by = []
        for oi in select.order_by:
            # SQLite sorts a bare name on the output alias it names, before
            # any column of that name; GROUP BY and HAVING look at columns first.
            bare = isinstance(oi.expr, _Name) and oi.expr.table is None
            expr = (bare and _alias_ref(oi.expr, select)) or bind(oi.expr, True)
            order_by.append(oi if expr is oi.expr else OrderItem(expr, oi.descending))
        set_op = select.set_op
        if set_op is not None:
            set_op = (set_op[0], self.bind_select(set_op[1], parent))
        return Select(
            items=tuple(items),
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=tuple(order_by),
            limit=select.limit,
            distinct=select.distinct,
            set_op=set_op,
        )

    # -- expressions ---------------------------------------------------------

    def bind_expr(self, expr, scope: _Scope, select: Select, alias_ok: bool):
        if isinstance(expr, _Name):
            try:
                return self._bind_column(expr, scope, select, alias_ok)
            except ParseError:
                if not expr.quoted:
                    raise
                return Literal(expr.column, _quote_string(expr.column))
        if expr is None or isinstance(expr, Literal):
            return expr
        if isinstance(expr, Star):
            if expr.table is None:
                return expr
            info = self._find_source(expr.table.lower(), scope)
            if info is None:
                raise ParseError(f"no such table: {expr.table}")
            return Star(expr.table, info.key)
        if isinstance(expr, Select):
            # Subqueries in expressions may be correlated: they see this scope.
            return self.bind_select(expr, parent=scope)
        return map_children(expr, lambda child: self.bind_expr(child, scope, select, alias_ok))

    def _bind_column(self, ref: _Name, scope: _Scope, select: Select, alias_ok: bool) -> Expr:
        if ref.table is not None:
            info = self._find_source(ref.table.lower(), scope)
            if info is None:
                raise ParseError(f"no such table: {ref.table}")
            if ref.column.lower() not in info.columns:
                raise ParseError(f"no such column: {ref.table}.{ref.column}")
            return ColumnRef(ref.table, ref.column, info.key)
        column = ref.column.lower()
        matches = self._match_unqualified(column, scope)
        if len(matches) == 1:
            return ColumnRef(None, ref.column, matches[0].key)
        if matches:
            return ColumnRef(None, ref.column, None, True)
        alias = _alias_ref(ref, select) if alias_ok else None
        if alias is None:
            raise ParseError(f"no such column: {ref.column}")
        return alias

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


def _alias_ref(ref: _Name, select: Select) -> AliasRef | None:
    """A reference to the first select item whose output alias is ``ref``'s
    column name, or None."""
    column = ref.column.lower()
    for idx, item in enumerate(select.items):
        if item.alias is not None and item.alias.lower() == column:
            return AliasRef(name=ref.column, index=idx)
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
        if is_aggregate(node):
            raise ParseError(f"aggregate function {node.name}() is not allowed in WHERE")
