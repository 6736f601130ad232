"""The child table in ``sqlast.nodes`` covers every expression type.

Walks and rewrites (the parser's binder and WHERE aggregate check,
``iter_expr_nodes``, ``canonicalize``, the diff's re-qualification and
literal masking) reach children only through that table, so a node type or
child field missing from it would be skipped silently.
"""

from __future__ import annotations

from dataclasses import fields
from typing import get_args

import pytest

from nl2sql.sqlast.nodes import (
    CHILD_FIELDS,
    LEAF_TYPES,
    AliasRef,
    Between,
    Binary,
    BoolOp,
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    ScalarSubquery,
    Select,
    SelectItem,
    Star,
    Unary,
    children,
    map_children,
)

ONE = Literal(value=1, text="1")
TWO = Literal(value=2, text="2")
COL = ColumnRef(table=None, column="x")
SUB = Select(items=(SelectItem(expr=ONE),))

INSTANCES = [
    ONE,
    COL,
    AliasRef(name="a", index=0),
    Star(),
    FuncCall(name="max", args=(COL, ONE)),
    Unary(op="-", operand=COL),
    Binary(op="+", left=COL, right=ONE),
    Comparison(op="=", left=COL, right=ONE),
    Between(expr=COL, low=ONE, high=TWO),
    InList(expr=COL, items=(ONE, TWO)),
    InSubquery(expr=COL, query=SUB),
    Exists(query=SUB),
    IsNull(expr=COL),
    BoolOp(op="and", terms=(COL, ONE)),
    ScalarSubquery(query=SUB),
]


def _is_node(value) -> bool:
    return isinstance(value, (Select, *get_args(Expr)))


def test_every_expression_type_is_composite_or_leaf():
    members = set(get_args(Expr))
    assert members == set(CHILD_FIELDS) | set(LEAF_TYPES)
    assert not set(CHILD_FIELDS) & set(LEAF_TYPES)
    assert {type(node) for node in INSTANCES} == members


@pytest.mark.parametrize("node", INSTANCES, ids=lambda n: type(n).__name__)
def test_child_fields_are_exactly_the_node_valued_fields(node):
    node_fields = tuple(
        f.name
        for f in fields(node)
        if _is_node(getattr(node, f.name))
        or (isinstance(getattr(node, f.name), tuple) and all(map(_is_node, getattr(node, f.name))))
    )
    assert CHILD_FIELDS.get(type(node), ()) == node_fields


@pytest.mark.parametrize("node", INSTANCES, ids=lambda n: type(n).__name__)
def test_identity_map_returns_the_node_itself(node):
    assert map_children(node, lambda child: child) is node


@pytest.mark.parametrize("node_type", [InSubquery, Exists, ScalarSubquery])
def test_subquery_nodes_list_their_select(node_type):
    node = next(n for n in INSTANCES if type(n) is node_type)
    assert SUB in children(node)


def test_children_and_rebuild_keep_field_order():
    between = Between(expr=COL, low=ONE, high=TWO)
    assert children(between) == [COL, ONE, TWO]
    assert children(InList(expr=COL, items=(ONE, TWO))) == [COL, ONE, TWO]
    swapped = map_children(between, lambda child: TWO if child is ONE else child)
    assert swapped == Between(expr=COL, low=TWO, high=TWO)
    assert children(ONE) == []
