"""Immutable AST node types for the supported SELECT dialect.

Every node is a frozen, slotted dataclass holding tuples, so a parsed query
can be shared freely across threads. Column references carry their
binding: the ``source`` field names the FROM-clause entry (alias or table,
lower-cased) the reference resolved to, or None when the reference is
ambiguous.

Parsing, canonicalising and literal masking build nodes by the thousand, so
``_node`` replaces the ``__init__`` that ``dataclass`` generates, which
stores each field through ``object.__setattr__``, with one generated the
same way at import that stores each field through its slot's member
descriptor, whose ``__set__`` skips the frozen ``__setattr__``. The
signature, defaults, ``==``, ``hash``, ``fields()`` and
``dataclasses.replace`` are the dataclass's own, and assignment still
raises ``FrozenInstanceError``. A node has no ``__dict__``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import is_not
from typing import Callable, Union

AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max", "total", "group_concat"})


def _node(cls: type) -> type:
    """``cls`` as a frozen, slotted dataclass whose ``__init__`` sets each
    slot through its member descriptor."""
    cls = dataclass(frozen=True, slots=True)(cls)
    generated = cls.__init__
    names = [f.name for f in fields(cls)]
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = generated.__defaults__
    init.__annotations__ = generated.__annotations__
    init.__qualname__ = generated.__qualname__
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


# --------------------------------------------------------------------------- expressions

@_node
class Literal:
    value: Union[int, float, str, None]
    text: str  # verbatim source spelling, used when printing

    @property
    def is_number(self) -> bool:
        return isinstance(self.value, (int, float))


@_node
class ColumnRef:
    table: str | None  # qualifier as written, None when unqualified
    column: str  # as written
    source: str | None = None  # resolved source key (lower-cased), None if ambiguous
    ambiguous: bool = False


@_node
class AliasRef:
    """A GROUP BY / HAVING / ORDER BY reference to a select-item output alias."""

    name: str
    index: int  # position of the aliased select item


@_node
class Star:
    table: str | None = None  # t.* carries the qualifier
    source: str | None = None


@_node
class FuncCall:
    name: str  # stored lower-cased; SQL function names are case-insensitive
    args: tuple["Expr", ...]
    distinct: bool = False
    star: bool = False  # count(*)

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS


@_node
class Unary:
    op: str  # "-" | "+" | "not"
    operand: "Expr"


@_node
class Binary:
    op: str  # arithmetic / concat: + - * / % ||
    left: "Expr"
    right: "Expr"


@_node
class Comparison:
    op: str  # = != < <= > >= like  (<> and == are normalized at parse)
    left: "Expr"
    right: "Expr"
    negated: bool = False  # NOT LIKE


@_node
class Between:
    expr: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@_node
class InList:
    expr: "Expr"
    items: tuple["Expr", ...]
    negated: bool = False


@_node
class InSubquery:
    expr: "Expr"
    query: "Select"
    negated: bool = False


@_node
class Exists:
    query: "Select"
    negated: bool = False


@_node
class IsNull:
    expr: "Expr"
    negated: bool = False  # IS NOT NULL


@_node
class BoolOp:
    op: str  # "and" | "or", n-ary and flattened
    terms: tuple["Expr", ...]


@_node
class ScalarSubquery:
    query: "Select"


Expr = Union[
    Literal,
    ColumnRef,
    AliasRef,
    Star,
    FuncCall,
    Unary,
    Binary,
    Comparison,
    Between,
    InList,
    InSubquery,
    Exists,
    IsNull,
    BoolOp,
    ScalarSubquery,
]


# --------------------------------------------------------------------------- children

# The child fields of every composite expression type, in the order walks and
# rewrites visit them. The order also decides which binding error ``parse``
# reports first when a query has several. Nested SELECTs are children like
# any other; the types in LEAF_TYPES have none.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    FuncCall: ("args",),
    Unary: ("operand",),
    Binary: ("left", "right"),
    Comparison: ("left", "right"),
    Between: ("expr", "low", "high"),
    InList: ("expr", "items"),
    InSubquery: ("expr", "query"),
    Exists: ("query",),
    IsNull: ("expr",),
    BoolOp: ("terms",),
    ScalarSubquery: ("query",),
}
LEAF_TYPES = (Literal, ColumnRef, AliasRef, Star)
# Every field of each composite type, in constructor order.
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in CHILD_FIELDS}


def children(node: Expr) -> list:
    """The direct children of an expression, nested SELECTs included."""
    out: list = []
    for name in CHILD_FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if isinstance(value, tuple):
            out.extend(value)
        else:
            out.append(value)
    return out


def map_children(node: Expr, fn: Callable) -> Expr:
    """``node`` with ``fn`` applied to every child, field by field; ``node``
    itself when every call returned its argument."""
    changes = {}
    for name in CHILD_FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if isinstance(value, tuple):
            new = tuple(map(fn, value))
            if any(map(is_not, new, value)):
                changes[name] = new
        else:
            new = fn(value)
            if new is not value:
                changes[name] = new
    if not changes:
        return node
    return type(node)(*[changes.get(name, getattr(node, name)) for name in _FIELDS[type(node)]])


# --------------------------------------------------------------------------- sources

@_node
class TableSource:
    table: str  # as written
    alias: str | None = None
    key: str = ""  # binding key: (alias or table).lower()


@_node
class SubquerySource:
    query: "Select"
    alias: str | None = None
    key: str = ""


Source = Union[TableSource, SubquerySource]


@_node
class FromItem:
    """One FROM-clause entry: the first has join_type None, the rest carry
    how they were joined in ("join", "left", "cross", ",") and an optional
    ON condition. A missing condition is meaningful: it is what the
    condition-less-join detector looks for."""

    source: Source
    join_type: str | None = None
    condition: Expr | None = None


# --------------------------------------------------------------------------- select

@_node
class SelectItem:
    expr: Expr
    alias: str | None = None


@_node
class OrderItem:
    expr: Expr
    descending: bool = False


@_node
class Select:
    items: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False
    # ("union" | "union all" | "intersect" | "except", right-hand query).
    # order_by / limit on a compound query live on the left (this) node and
    # apply to the whole compound, mirroring SQLite.
    set_op: tuple[str, "Select"] | None = field(default=None)
