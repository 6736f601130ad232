"""The child table in ``sqlast.nodes`` covers every expression type, and
every node class keeps the frozen dataclass contract.

Walks and rewrites (the parser's binder and WHERE aggregate check,
``iter_expr_nodes``, ``canonicalize``, the diff's re-qualification and
literal masking) reach children only through that table, so a node type or
child field missing from it would be skipped silently. Nodes are slotted and
build through a generated ``__init__``; they must still behave as a plain
``dataclass(frozen=True)`` with the same fields.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass, make_dataclass, replace
from typing import get_args

import pytest

from nl2sql.sqlast import nodes
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


# --------------------------------------------------------------------------- dataclass contract

NODE_INSTANCES = INSTANCES + [
    TableSource(table="t", alias="a", key="a"),
    SubquerySource(query=SUB, alias="s", key="s"),
    FromItem(source=TableSource(table="t", key="t"), join_type="join", condition=COL),
    SUB.items[0],
    OrderItem(expr=COL, descending=True),
    Select(items=(SelectItem(expr=COL),), where=COL, limit=3, set_op=("union", SUB)),
]


def test_every_node_class_has_an_instance():
    classes = {
        cls for cls in vars(nodes).values()
        if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == nodes.__name__
    }
    assert classes == {type(node) for node in NODE_INSTANCES}


def _plain_twin(cls: type) -> type:
    """A plain ``dataclass(frozen=True)`` with ``cls``'s fields."""
    spec = [
        (f.name, f.type) if f.default is MISSING else (f.name, f.type, f.default)
        for f in fields(cls)
    ]
    return make_dataclass(cls.__name__, spec, frozen=True)


def _values(node) -> dict:
    return {f.name: getattr(node, f.name) for f in fields(node)}


@pytest.mark.parametrize("node", NODE_INSTANCES, ids=lambda n: type(n).__name__)
def test_nodes_are_slotted_without_a_dict(node):
    assert not hasattr(node, "__dict__")
    assert type(node).__slots__ == tuple(f.name for f in fields(node))


@pytest.mark.parametrize("node", NODE_INSTANCES, ids=lambda n: type(n).__name__)
def test_assignment_raises_frozen_instance_error(node):
    name = fields(node)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(node, name, None)
    with pytest.raises(FrozenInstanceError):
        delattr(node, name)


@pytest.mark.parametrize("node", NODE_INSTANCES, ids=lambda n: type(n).__name__)
def test_signature_is_that_of_a_plain_frozen_dataclass(node):
    cls = type(node)
    assert inspect.signature(cls) == inspect.signature(_plain_twin(cls))


@pytest.mark.parametrize("node", NODE_INSTANCES, ids=lambda n: type(n).__name__)
def test_equality_hash_and_replace_behave_as_a_plain_frozen_dataclass(node):
    cls, values = type(node), _values(node)
    twin = _plain_twin(cls)(**values)
    again = cls(**values)
    positional = cls(*values.values())
    assert again == positional == node and again is not node
    assert hash(again) == hash(node) == hash(twin)
    assert repr(again) == repr(twin)
    name = fields(node)[0].name
    changed = replace(node, **{name: TWO})
    assert type(changed) is cls and changed != node
    assert _values(changed) == {**values, name: TWO}
    assert replace(node) == node
