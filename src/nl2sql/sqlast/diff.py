"""Structural comparison of canonicalized queries.

The diff is organized around the error families the triage classifier
assigns: select items, grouping, aggregate choice, join graph, predicate
literals, plus two shape buckets (``structure_delta`` for fundamental shape
divergence such as subquery-vs-join or set-operation mismatch, and
``clause_delta`` for residual clause differences nothing more specific
explains). The arms of two compound queries with the same set operation are
diffed pairwise and their deltas merged.

Cross-query comparison cannot use the positional t1/t2 aliases (two queries
joining the same tables in a different order would never match), so
expressions are compared as printed re-qualified by resolved *table name*.
One walk per query (``_Query``) gathers all that the comparison reads: it
maps each source key to its table name (a FROM subquery to its alias-neutral
text), counts nested SELECTs, lists condition-less joins, names the
aggregates of each clause, and prints each clause's expressions through that
map, which qualifies columns by table name and drops FROM aliases. Joined
tables are counted by the same names, a LEFT-joined source apart from an
inner-joined one. No re-qualified tree is built.

WHERE and HAVING conjuncts are matched exactly first, by printed text. Only
the conjuncts left over are printed again with the literals of their own
scope masked, and matched by that shape, so literal differences are
reported at matched positions; a pair whose conjuncts all agree masks
nothing.

Two deliberate lenience rules, both needed so that stylistic differences do
not register as errors:

- join conditions are compared as one multiset per query, pooling ON
  clauses with WHERE equality predicates that link two sources, with the
  operands of ``=`` sorted; which side of a join the condition was written
  on (or whether it sat in WHERE) does not matter;
- ORDER BY keys compare aggregate calls by function name and direction
  only, so ``count(x)`` and ``count(*)`` order keys are interchangeable.

Consequently an empty diff means the canonical trees are equal up to those
two rules; any other canonical difference surfaces in at least one field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .canonical import CanonicalAst
from .conditionless import scope_conditionless_joins
from .nodes import (
    AGGREGATE_FUNCTIONS, LEAF_TYPES, Comparison, Expr, FuncCall, Literal, Select, TableSource,
    children, map_children,
)
from .printer import expr_sql, to_sql
from .walk import flatten_and, is_aggregate, is_link_predicate, iter_expr_nodes

_AGG_CLAUSES = ("select", "group_by", "having", "order_by")


# --------------------------------------------------------------------------- delta types

class _Delta:
    """Truth, emptiness, the compound-arm merge and the JSON view of a delta,
    all derived from its dataclass fields. A frozen dataclass's ``vars``
    holds its fields in declaration order."""

    @property
    def empty(self) -> bool:
        return not self

    def __bool__(self) -> bool:
        return any(vars(self).values())

    def merge(self, other):
        """This arm's delta followed by the other arm's."""
        theirs = vars(other)
        return replace(self, **{
            name: _merged(value, theirs[name]) for name, value in vars(self).items()
        })

    def summary(self):
        parts = {name: _json(value) for name, value in vars(self).items()}
        # A one-field delta is just its rows.
        return next(iter(parts.values())) if len(parts) == 1 else parts


def _merged(a, b):
    if isinstance(a, _Delta):
        return a.merge(b)
    if isinstance(a, bool):
        return a or b
    return a + b


def _json(value):
    """The JSON form of a delta field: a row becomes an object, any other
    tuple a list."""
    if isinstance(value, _Delta):
        return value.summary()
    if isinstance(value, (AggregateRow, LiteralRow)):
        return {name: _json(v) for name, v in value._asdict().items()}
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value


class AggregateRow(NamedTuple):
    clause: str
    pred: tuple[str, ...]  # aggregate functions in pred
    gold: tuple[str, ...]


class LiteralRow(NamedTuple):
    shape: str  # predicate shape with literals masked
    pred: str
    gold: str


@dataclass(frozen=True)
class SelectDelta(_Delta):
    missing: tuple[str, ...] = ()  # in gold, absent from pred
    extra: tuple[str, ...] = ()  # in pred, absent from gold
    reordered: bool = False


@dataclass(frozen=True)
class GroupByDelta(_Delta):
    pred: tuple[str, ...] = ()
    gold: tuple[str, ...] = ()


@dataclass(frozen=True)
class AggregateDelta(_Delta):
    clauses: tuple[AggregateRow, ...] = ()


@dataclass(frozen=True)
class JoinDelta(_Delta):
    extra_tables: tuple[str, ...] = ()
    missing_tables: tuple[str, ...] = ()
    extra_conditions: tuple[str, ...] = ()
    missing_conditions: tuple[str, ...] = ()
    # They inform the summary but do not make the delta non-empty.
    pred_conditionless: tuple[str, ...] = ()
    gold_conditionless: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(
            self.extra_tables or self.missing_tables
            or self.extra_conditions or self.missing_conditions
        )


@dataclass(frozen=True)
class LiteralDelta(_Delta):
    entries: tuple[LiteralRow, ...] = ()


_SUMMARY_KEYS = {
    "select_delta": "select",
    "group_by_delta": "group_by",
    "aggregate_delta": "aggregates",
    "join_delta": "joins",
    "literal_delta": "literals",
    "structure_delta": "structure",
    "clause_delta": "clauses",
}

# The empty deltas, shared by every diff that finds nothing in a field.
_NO_SELECT = SelectDelta()
_NO_GROUP_BY = GroupByDelta()
_NO_AGGREGATES = AggregateDelta()
_NO_JOINS = JoinDelta()
_NO_LITERALS = LiteralDelta()


@dataclass(frozen=True)
class AstDiff(_Delta):
    select_delta: SelectDelta = _NO_SELECT
    group_by_delta: GroupByDelta = _NO_GROUP_BY
    aggregate_delta: AggregateDelta = _NO_AGGREGATES
    join_delta: JoinDelta = _NO_JOINS
    literal_delta: LiteralDelta = _NO_LITERALS
    structure_delta: tuple[str, ...] = ()  # fundamental shape divergence
    clause_delta: tuple[str, ...] = ()  # residual clause mismatches

    def summary(self) -> dict:
        """JSON-friendly view used as triage evidence: the non-empty deltas,
        and the joins whenever the prediction has a condition-less join."""
        return {
            _SUMMARY_KEYS[name]: _json(value)
            for name, value in vars(self).items()
            if value or (name == "join_delta" and value.pred_conditionless)
        }


# --------------------------------------------------------------------------- main entry

def diff(pred: CanonicalAst, gold: CanonicalAst) -> AstDiff:
    """Compare two canonical queries; fields are labeled from pred's side."""
    return _diff_levels(_Query(pred.query).top, _Query(gold.query).top)


def _diff_levels(pred: "_Level", gold: "_Level") -> AstDiff:
    """Diff one level: a whole query, or the set-operation arms of two."""
    paired = pred.set_op is not None and pred.set_op == gold.set_op
    structure = tuple(
        name
        for name, differs in (
            ("subquery_shape", pred.subqueries != gold.subqueries),
            ("set_op", pred.set_op != gold.set_op),
        )
        if differs
    )
    names = (pred.names, gold.names)
    where_literals, where_mismatch = _diff_predicates(pred.where, gold.where, *names)
    having_literals, having_mismatch = _diff_predicates(pred.having, gold.having, *names)
    clause = tuple(
        name
        for name, differs in (
            ("where", where_mismatch),
            ("having", having_mismatch),
            ("order_by", pred.order_by != gold.order_by),
            ("limit", pred.limit != gold.limit),
            ("distinct", pred.distinct != gold.distinct),
        )
        if differs
    )
    literals = where_literals + having_literals
    out = AstDiff(
        select_delta=_diff_items(pred.items, gold.items),
        group_by_delta=(
            _NO_GROUP_BY if pred.group_by == gold.group_by
            else GroupByDelta(pred=tuple(pred.group_by), gold=tuple(gold.group_by))
        ),
        aggregate_delta=_diff_aggregates(pred.aggregates, gold.aggregates),
        join_delta=_diff_joins(pred, gold, paired),
        literal_delta=LiteralDelta(entries=tuple(literals)) if literals else _NO_LITERALS,
        structure_delta=structure,
        clause_delta=clause,
    )
    if paired:
        out = out.merge(_diff_levels(pred.arm, gold.arm))
        out = replace(
            out,
            structure_delta=tuple(dict.fromkeys(out.structure_delta)),
            clause_delta=tuple(dict.fromkeys(out.clause_delta)),
        )
    return out


# --------------------------------------------------------------------------- one walk per query

class _Level:
    """What diffing reads from one SELECT it compares level by level: a
    whole query, or the set-operation arm of one. Clause expressions are
    printed through ``names``: select items in order, GROUP BY terms and
    the pooled join conditions sorted, WHERE conjuncts that link no two
    sources and HAVING conjuncts as (text, conjunct) pairs. ``aggregates``
    holds the sorted aggregate names of each of ``_AGG_CLAUSES``.
    ``subqueries`` counts the SELECTs nested in this one, set-operation arm
    included, and ``conditionless`` holds its condition-less joined tables
    with and without those of its arm, indexed by whether the arms are
    diffed pairwise (the arm's own delta then lists them)."""

    __slots__ = (
        "names", "items", "group_by", "order_by", "tables", "conditions", "where", "having",
        "aggregates", "limit", "distinct", "set_op", "arm", "subqueries", "conditionless",
    )

    def __init__(
        self,
        select: Select,
        names: dict[str, str],
        aggregates: tuple[tuple[str, ...], ...],
        subqueries: int,
        conditionless: tuple[tuple[str, ...], tuple[str, ...]],
        arm: "_Level | None",
    ) -> None:
        def sql(expr: Expr) -> str:
            return expr_sql(expr, names)

        self.names = names
        self.items = [sql(item.expr) for item in select.items]
        self.group_by = sorted(map(sql, select.group_by))
        self.order_by = [
            (o.descending, (o.expr.name,) if is_aggregate(o.expr) else sql(o.expr))
            for o in select.order_by
        ]
        self.tables = sorted(
            ("left join " if item.join_type == "left" else "") + names[item.source.key]
            for item in select.from_items
        )
        # WHERE links pool with the ON conjuncts. Links are found on the
        # canonical tree, where two sources of one table still have two aliases.
        conditions = [
            _condition_key(conj, sql)
            for item in select.from_items
            for conj in flatten_and(item.condition)
        ]
        self.where = []
        for conj in flatten_and(select.where):
            if is_link_predicate(conj):
                conditions.append(_condition_key(conj, sql))
            else:
                self.where.append((sql(conj), conj))
        self.conditions = sorted(conditions)
        self.having = [(sql(conj), conj) for conj in flatten_and(select.having)]
        self.aggregates = aggregates
        self.limit = select.limit
        self.distinct = select.distinct
        self.set_op = select.set_op[0] if select.set_op is not None else None
        self.arm = arm
        self.subqueries = subqueries
        self.conditionless = conditionless


class _Query:
    """One walk over a canonical query and every SELECT nested in it.

    ``names`` maps each source key to the name comparison prints for it: a
    table's name, or for a FROM subquery ``subquery:`` and its alias-neutral
    text, so that printing with it compares across queries whose positional
    aliases differ. Canonical aliases are unique within one query, so one
    flat map serves every scope. ``top`` is the ``_Level`` of the query.
    """

    def __init__(self, select: Select) -> None:
        self.names: dict[str, str] = {}
        self.top: _Level = self._visit(select, True)[2]

    def _visit(self, select: Select, compared: bool) -> tuple[int, list[str], _Level | None]:
        """Visit ``select`` and the SELECTs nested in it: FROM subqueries,
        then those in expressions in clause order (select items, ON, WHERE,
        GROUP BY, HAVING, ORDER BY), then the set-operation arm. Returns its
        subquery count, its condition-less joins (its set-operation arm's
        included) and, when ``compared``, its ``_Level``.

        A scope's table sources are named on entry and each FROM subquery
        right after its own visit, before any expression subquery is
        visited, so every source a printed expression can reach is named by
        then: a FROM subquery reads no outer source."""
        names = self.names
        for item in select.from_items:
            if isinstance(item.source, TableSource):
                names[item.source.key] = item.source.table.lower()
        count = 0
        flags = [flag.table for flag in scope_conditionless_joins(select)]
        for item in select.from_items:
            src = item.source
            if not isinstance(src, TableSource):
                sub_count, sub_flags, _ = self._visit(src.query, False)
                count += 1 + sub_count
                flags += sub_flags
                names[src.key] = "subquery:" + to_sql(src.query, names)
        nested: list[Select] = []
        on = [item.condition for item in select.from_items if item.condition is not None]
        select_aggs = _scan([item.expr for item in select.items], nested)
        if on:
            _scan(on, nested)
        if select.where is not None:
            _scan((select.where,), nested)
        group_aggs = _scan(select.group_by, nested) if select.group_by else ()
        having_aggs = _scan((select.having,), nested) if select.having is not None else ()
        order_aggs = _scan([o.expr for o in select.order_by], nested) if select.order_by else ()
        for sub in nested:
            sub_count, sub_flags, _ = self._visit(sub, False)
            count += 1 + sub_count
            flags += sub_flags
        own = tuple(flags)
        arm = None
        if select.set_op is not None:
            sub_count, sub_flags, arm = self._visit(select.set_op[1], compared)
            count += 1 + sub_count
            flags += sub_flags
        if not compared:
            return count, flags, None
        aggregates = (select_aggs, group_aggs, having_aggs, order_aggs)
        level = _Level(select, names, aggregates, count, (tuple(flags), own), arm)
        return count, flags, level


def _scan(exprs, nested: list[Select]) -> tuple[str, ...]:
    """The sorted names of the aggregate calls in ``exprs``, nested SELECTs
    not entered. Each SELECT nested directly in them is appended to ``nested``,
    in the order ``walk.subquery_nodes`` gives."""
    found: list[str] = []
    for expr in exprs:
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, FuncCall) and node.name in AGGREGATE_FUNCTIONS:
                found.append(node.name)
            for child in children(node):
                if isinstance(child, Select):
                    nested.append(child)
                elif not isinstance(child, LEAF_TYPES):
                    stack.append(child)
    return tuple(sorted(found)) if found else ()


# --------------------------------------------------------------------------- per-clause diffs

def _surplus(a: list[str], b: list[str]) -> tuple[str, ...]:
    """The entries of ``a`` beyond those of ``b``, sorted."""
    if a == b:
        return ()
    rest = sorted(a)
    for entry in b:
        if entry in rest:
            rest.remove(entry)
    return tuple(rest)


def _diff_items(pred_keys: list[str], gold_keys: list[str]) -> SelectDelta:
    if pred_keys == gold_keys:
        return _NO_SELECT
    if sorted(pred_keys) == sorted(gold_keys):
        return SelectDelta(reordered=True)
    return SelectDelta(
        missing=_surplus(gold_keys, pred_keys), extra=_surplus(pred_keys, gold_keys)
    )


def _diff_aggregates(pred: tuple, gold: tuple) -> AggregateDelta:
    if pred == gold:
        return _NO_AGGREGATES
    return AggregateDelta(clauses=tuple(
        AggregateRow(clause, p, g) for clause, p, g in zip(_AGG_CLAUSES, pred, gold) if p != g
    ))


def _diff_joins(pred: _Level, gold: _Level, paired: bool) -> JoinDelta:
    pred_conditionless = pred.conditionless[paired]
    gold_conditionless = gold.conditionless[paired]
    if (
        pred.tables == gold.tables and pred.conditions == gold.conditions
        and not pred_conditionless and not gold_conditionless
    ):
        return _NO_JOINS
    return JoinDelta(
        extra_tables=_surplus(pred.tables, gold.tables),
        missing_tables=_surplus(gold.tables, pred.tables),
        extra_conditions=_surplus(pred.conditions, gold.conditions),
        missing_conditions=_surplus(gold.conditions, pred.conditions),
        pred_conditionless=pred_conditionless,
        gold_conditionless=gold_conditionless,
    )


def _condition_key(expr: Expr, sql: Callable[[Expr], str]) -> str:
    if isinstance(expr, Comparison) and expr.op == "=":
        lo, hi = sorted((sql(expr.left), sql(expr.right)))
        return f"{lo} = {hi}"
    return sql(expr)


def _mask_literals(expr: Expr) -> Expr:
    """Replace every literal of this scope by ``?``; nested SELECTs are kept."""
    if isinstance(expr, Literal):
        return Literal(value="?", text="?")
    if isinstance(expr, Select):
        return expr
    return map_children(expr, _mask_literals)


def _literals_of(expr: Expr) -> list[Literal]:
    # Traversal order is deterministic, so two expressions with the same
    # masked shape collect their literals in structurally aligned order.
    return [node for node in iter_expr_nodes(expr) if isinstance(node, Literal)]


def _diff_predicates(
    pred_conjs: list[tuple[str, Expr]],
    gold_conjs: list[tuple[str, Expr]],
    pred_names: dict[str, str],
    gold_names: dict[str, str],
) -> tuple[list[LiteralRow], bool]:
    """Match conjuncts, given as (printed text, conjunct), exactly and then
    by literal-masked shape, printed through each query's names; report
    literal differences at the positions matched by shape. Returns (literal
    rows, unexplained mismatch?)."""
    gold_left = list(gold_conjs)
    pred_left = []
    for entry in pred_conjs:
        for i, candidate in enumerate(gold_left):
            if candidate[0] == entry[0]:
                del gold_left[i]
                break
        else:
            pred_left.append(entry)
    if not (pred_left and gold_left):
        return [], bool(pred_left or gold_left)

    def shaped(entries, names):
        return [(expr_sql(_mask_literals(conj), names), text, conj) for text, conj in entries]

    gold_shaped = shaped(gold_left, gold_names)
    rows: list[LiteralRow] = []
    mismatch = False
    for shape, _, conj in sorted(shaped(pred_left, pred_names), key=lambda e: (e[0], e[1])):
        candidates = sorted((g for g in gold_shaped if g[0] == shape), key=lambda g: g[1])
        if not candidates:
            mismatch = True
            continue
        match = candidates[0]
        gold_shaped.remove(match)
        pred_lits = _literals_of(conj)
        gold_lits = _literals_of(match[2])
        if len(pred_lits) != len(gold_lits):
            mismatch = True
            continue
        for p_lit, g_lit in zip(pred_lits, gold_lits):
            # Python compares int and float exactly, and 3 == 3.0.
            if p_lit.value != g_lit.value:
                rows.append(LiteralRow(shape, p_lit.text, g_lit.text))
    if gold_shaped:
        mismatch = True
    return rows, mismatch
