"""Failure triage: classify a wrong (or spuriously wrong) prediction.

Each prediction that ``score`` finds wrong is assigned exactly one primary
category:

    DatasetInconsistency   the prediction is not actually a model error
                           (an ORDER BY ... LIMIT tie makes several answers
                           equally valid, or the gold itself is suspect)
    QueryStructure         fundamentally different query shape
    JoinClauses            extra / missing joined tables or conditions
    GroupBy                different grouping keys
    AggregateChoice        different aggregate functions in some clause
    SelectColumns          wrong or reordered output columns
    PredictedValues        same structure, different predicate literals

Precedence runs top to bottom: structural causes subsume their downstream
symptoms (an extra join also perturbs the select list; the join is the
story). QueryStructure doubles as the terminal fallback for residual
clause-shape mismatches, so Unclassifiable is reserved for predictions
that time out, that do not even parse or that differ only in ways the diff
deliberately ignores. ``score`` gives the first two their verdict itself.

Only the result tables decide sameness: ``score`` triages a pair only when
its tables differ, so a pair whose canonical forms are equal shows a
difference the canonical form missed. It lands in Unclassifiable, never in
DatasetInconsistency.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass, replace
from enum import Enum

from .execution import OutcomeMemo, ResultTable, normalize_cell, normalized_row_counts
from .schema import DatabaseSchema
from .sqlast import (
    AstDiff,
    CanonicalAst,
    ColumnRef,
    Comparison,
    Literal,
    Select,
    SelectItem,
    Star,
    TableSource,
    canonicalize,
    diff,
    scope_conditionless_joins,
    to_sql,
)
from .sqlast.walk import is_aggregate, iter_expr_nodes


class Category(str, Enum):
    SELECT_COLUMNS = "SelectColumns"
    GROUP_BY = "GroupBy"
    PREDICTED_VALUES = "PredictedValues"
    AGGREGATE_CHOICE = "AggregateChoice"
    JOIN_CLAUSES = "JoinClauses"
    DATASET_INCONSISTENCY = "DatasetInconsistency"
    QUERY_STRUCTURE = "QueryStructure"
    UNCLASSIFIABLE = "Unclassifiable"


@dataclass(frozen=True)
class TriageVerdict:
    category: Category
    subtag: str | None
    confidence: str  # "definite" | "heuristic"
    evidence: dict

    def __post_init__(self) -> None:
        if not self.evidence:
            raise ValueError("a verdict must carry evidence")

    def to_json(self) -> dict:
        return {**vars(self), "category": self.category.value}


def _table_facts(pred: ResultTable | None, gold: ResultTable) -> dict:
    facts = {}
    if pred is not None:
        facts["pred_rows"] = len(pred.rows)
        facts["pred_columns"] = len(pred.columns)
    facts["gold_rows"] = len(gold.rows)
    facts["gold_columns"] = len(gold.columns)
    return facts


def triage(
    pred_ast: Select,
    gold_ast: Select,
    pred_table: ResultTable | None,
    gold_table: ResultTable,
    memo: OutcomeMemo,
) -> TriageVerdict:
    """Assign the primary category for one prediction/gold pair.

    ``score`` calls this only for a pair whose tables it found not
    equivalent; ``pred_table`` is None when the prediction ran into an
    engine error (one that timed out never gets here). Both queries are
    canonicalised and diffed once; the tie test reads the canonical trees,
    and runs only when the diff finds the select lists agree, so a
    prediction that prints other columns is never a tie. The probes execute
    through ``memo``, the pair's database. The tie test is handed both
    tables: a prediction that ran and sorts the gold's own rows by the
    gold's first key costs no tie probe when the two tables keep different
    rows of the same count, and only the gold's probe otherwise.
    """
    canon = (canonicalize(pred_ast), canonicalize(gold_ast))
    delta = diff(*canon)
    facts = _table_facts(pred_table, gold_table)

    def inconsistency(subtag: str, confidence: str, evidence: dict) -> TriageVerdict:
        return TriageVerdict(
            category=Category.DATASET_INCONSISTENCY,
            subtag=subtag,
            confidence=confidence,
            evidence={**evidence, **facts},
        )

    if not delta.select and tie_ambiguity_test(canon, memo, pred_table, gold_table) is True:
        tie = {"tie": "ordering key ties at the LIMIT boundary"}
        return inconsistency("TieAmbiguity", "heuristic", tie)
    suspect = suspect_gold_check(gold_ast, gold_table, memo)
    if suspect is not None:
        return inconsistency("SuspectGold", "heuristic", suspect)

    cause = _diff_cause(delta)
    if cause is None:
        return TriageVerdict(
            category=Category.UNCLASSIFIABLE,
            subtag=None,
            confidence="heuristic",
            evidence={"note": "no rule fired; queries differ only in ignored dimensions", **facts},
        )
    category, subtag = cause
    return TriageVerdict(
        category=category,
        subtag=subtag,
        confidence="definite",
        evidence={"diff": delta.summary(), **facts},
    )


def _diff_cause(delta: AstDiff) -> tuple[Category, str | None] | None:
    """The category and subtag of the first delta in precedence order, or
    None when the diff is empty."""
    if delta.structure:
        return Category.QUERY_STRUCTURE, "ShapeDivergence"
    if delta.joins:
        if delta.joins.extra_tables:
            return Category.JOIN_CLAUSES, "Extra"
        return Category.JOIN_CLAUSES, "Missing" if delta.joins.missing_tables else "Condition"
    if delta.group_by:
        return Category.GROUP_BY, None
    if delta.aggregates:
        return Category.AGGREGATE_CHOICE, delta.aggregates[0].clause
    if delta.select:
        return Category.SELECT_COLUMNS, "WrongOrder" if delta.select.reordered else "WrongColumn"
    if delta.literals:
        return Category.PREDICTED_VALUES, None
    if delta.clauses:
        return Category.QUERY_STRUCTURE, "ClauseShape"
    return None


# --------------------------------------------------------------------------- tie ambiguity

def tie_ambiguity_test(
    canon: tuple[CanonicalAst, CanonicalAst],
    memo: OutcomeMemo,
    pred_table: ResultTable | None,
    gold_table: ResultTable,
) -> bool | None:
    """Does LIMIT k cut through a tie in the ordering key?

    ``canon`` holds the canonical trees of (pred, gold). Applicable only when
    both queries end in ORDER BY ... LIMIT k, and neither is a SELECT
    DISTINCT whose ordering key is not an output column. Both are
    re-executed with LIMIT k + 1 and the first ordering key is read from
    each row (see ``_one_past_limit_with_key``); the test passes when the
    boundary values at rank k agree and the gold's row k + 1 ties with its
    row k. Rows come out sorted on that key, so tied rows are contiguous and
    rows k and k + 1 decide whether the tie runs past the cut. Returns None
    when not applicable. The test compares ordering keys only; ``triage``
    runs it only for a pair whose select lists agree.

    Probes execute through ``memo``. A ``pred_table`` says the prediction
    ran. When it did and it sorts the gold's own rows by the gold's first
    key (``_sorts_the_gold_rows``), the prediction's probe is skipped: its
    key values are the gold's. With the gold's select list too, the two
    tables settle the test without any probe when both hold k rows, neither
    truncated, and they differ as multisets (``_keeps_other_tied_rows``).
    """
    pred, gold = (tree.query for tree in canon)
    for query in (pred, gold):
        if not (query.order_by and query.limit is not None):
            return None
    if pred.limit != gold.limit or pred.limit == 0:
        return None
    k = gold.limit
    # Neither query is DISTINCT when it sorts the gold's rows, so the test applies.
    sorts_the_gold_rows = pred_table is not None and _sorts_the_gold_rows(pred, gold)
    if sorts_the_gold_rows and _keeps_other_tied_rows(pred, gold, pred_table, gold_table, k):
        return True
    pred_probe = _one_past_limit_with_key(pred)
    gold_probe = _one_past_limit_with_key(gold)
    if pred_probe is None or gold_probe is None:
        return None

    def ordering_values(probe: Select, column: int) -> list | None:
        outcome = memo.run(to_sql(probe))
        if outcome.table is None:
            return None
        return [normalize_cell(row[column]) for row in outcome.table.rows]

    if sorts_the_gold_rows:
        pred_values = gold_values = ordering_values(*gold_probe)
    else:
        pred_values = ordering_values(*pred_probe)
        gold_values = ordering_values(*gold_probe)
    if pred_values is None or gold_values is None:
        return False
    if len(pred_values) < k or len(gold_values) < k:
        return False
    if pred_values[k - 1] != gold_values[k - 1]:
        return False
    return len(gold_values) > k and gold_values[k] == gold_values[k - 1]


def _keeps_other_tied_rows(
    pred: Select, gold: Select, pred_table: ResultTable, gold_table: ResultTable, k: int
) -> bool:
    """Do two queries that sort the gold's rows by one first key keep other
    rows past a tie at the cut?

    True when the canonical select items are equal, both tables hold k rows,
    neither truncated, and they differ as multisets of normalised rows. Both
    queries then sort the same rows by the same first key and keep k of
    them, and print the same columns of each: they keep different rows only
    when SQLite found rows k and k + 1 of that key equal, so the tie runs
    past the cut. Equal multisets (a tie inside the cut, or none) leave the
    test to the probe.
    """
    if pred.items != gold.items:
        return False
    for table in (pred_table, gold_table):
        if table.truncated or len(table.rows) != k:
            return False
    return normalized_row_counts(pred_table.rows) != normalized_row_counts(gold_table.rows)


def _sorts_the_gold_rows(pred: Select, gold: Select) -> bool:
    """Does the canonical prediction sort the gold's own rows by the gold's
    first key?

    True when neither canonical query is compound, DISTINCT, grouped or has
    an aggregate in its select list or ORDER BY, both first keys are
    columns, and the queries have equal FROM items, WHERE and first ORDER BY
    term, direction included. The same FROM and WHERE give both queries the
    same rows, and the same key column one multiset of first-key values, so
    the value at rank k and the row count agree: the only two facts the
    prediction's tie probe is read for. The cheap checks run before the
    trees are compared.
    """
    for query in (pred, gold):
        if query.set_op is not None or query.distinct or query.group_by or query.having is not None:
            return False
        if not isinstance(query.order_by[0].expr, ColumnRef):
            return False
        exprs = [item.expr for item in query.items] + [order.expr for order in query.order_by]
        if any(is_aggregate(node) for expr in exprs for node in iter_expr_nodes(expr)):
            return False
    same_rows = pred.from_items == gold.from_items and pred.where == gold.where
    return same_rows and pred.order_by[0] == gold.order_by[0]


def _one_past_limit_with_key(query: Select) -> tuple[Select, int] | None:
    """The tie probe of the canonical ``query`` and the column of its rows
    that holds the first ordering key. The probe is ``query`` with LIMIT
    k + 1. The canonical form has already replaced an alias or positional
    key by the item it names, and keeps a position only after a ``*`` or
    for an integer-literal item: a positional key n is column n - 1, and a
    key equal to an item with no ``*`` before it (in a compound query, a
    left-arm item) is that item's column. Any other key is appended as a
    last column, which only a simple SELECT allows. None for a SELECT DISTINCT, whose rows the appended key
    would make distinct on (columns, key) instead of on its columns."""
    probe = replace(query, limit=query.limit + 1)
    key = query.order_by[0].expr
    if isinstance(key, Literal) and isinstance(key.value, int):
        return probe, key.value - 1
    for index, item in enumerate(query.items):
        if isinstance(item.expr, Star):
            break  # a ``*`` moves the columns of the items after it
        if item.expr == key:
            return probe, index
    if query.distinct:
        return None
    return replace(probe, items=query.items + (SelectItem(expr=key, alias="ordering_key"),)), -1


# --------------------------------------------------------------------------- suspect gold

def suspect_gold_check(
    gold_ast: Select,
    gold_table: ResultTable,
    memo: OutcomeMemo,
) -> dict | None:
    """Flag a gold query whose condition-less join balloons its result.

    Only the top-level FROM clause is inspected, which for a compound query
    is its left arm's. The query is repaired by adding foreign-key ON
    conditions to every flagged join; the gold is suspect when its row count
    is at least twice the repaired count, run through ``memo``, whose schema
    gives the foreign keys. No flag is not a proof of correctness.
    """
    flags = scope_conditionless_joins(gold_ast)
    if not flags:
        return None

    from_items = list(gold_ast.from_items)
    repaired_tables = []
    for flag in flags:
        item = from_items[flag.index]
        if not isinstance(item.source, TableSource):
            return None
        condition = _fk_condition(item.source, gold_ast, flag.index, memo.schema)
        if condition is None:
            return None
        from_items[flag.index] = replace(item, condition=condition, join_type="join")
        repaired_tables.append(item.source.table)
    repaired = replace(gold_ast, from_items=tuple(from_items))
    outcome = memo.run(to_sql(repaired))
    if outcome.table is None or outcome.table.truncated:
        return None
    gold_rows = len(gold_table.rows)
    repaired_rows = len(outcome.table.rows)
    ballooned = gold_rows >= 2 * repaired_rows if repaired_rows else gold_rows >= 2
    if not ballooned:
        return None
    return {
        "conditionless_tables": [t.lower() for t in repaired_tables],
        "gold_rows": gold_rows,
        "repaired_rows": repaired_rows,
        "repaired_sql": to_sql(repaired),
    }


def _fk_condition(
    source: TableSource, ast: Select, index: int, schema: DatabaseSchema
) -> Comparison | None:
    """An equality over the first foreign key linking source to another
    FROM entry, preferring earlier entries."""
    others = [fi.source for i, fi in enumerate(ast.from_items) if i != index]
    for other in others:
        if not isinstance(other, TableSource):
            continue
        for (src_t, src_c), (dst_t, dst_c) in schema.foreign_keys_between(
            source.table, other.table
        ):
            if src_t.lower() == source.table.lower():
                left = ColumnRef(table=_qualifier(source), column=src_c, source=source.key)
                right = ColumnRef(table=_qualifier(other), column=dst_c, source=other.key)
            else:
                left = ColumnRef(table=_qualifier(other), column=src_c, source=other.key)
                right = ColumnRef(table=_qualifier(source), column=dst_c, source=source.key)
            return Comparison(op="=", left=left, right=right)
    return None


def _qualifier(source: TableSource) -> str:
    return source.alias if source.alias is not None else source.table


# --------------------------------------------------------------------------- reporting

def triage_report(verdicts: Collection[TriageVerdict]) -> dict:
    """Counts and fractions per category and subtag."""
    total = len(verdicts)

    def rows(names) -> dict:
        return {
            name: {"count": count, "fraction": count / total if total else 0.0}
            for name, count in sorted(Counter(names).items())
        }

    return {
        "total": total,
        "categories": rows(v.category.value for v in verdicts),
        "subtags": rows(v.category.value + ("." + v.subtag if v.subtag else "") for v in verdicts),
    }
