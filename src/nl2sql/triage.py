"""Failure triage: classify a wrong (or spuriously wrong) prediction.

Each non-equivalent prediction is assigned exactly one primary category:

    DatasetInconsistency   the prediction is not actually a model error
                           (alias-only variant of gold, result-equivalent,
                           an ORDER BY ... LIMIT tie makes several answers
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
that do not even parse or that differ only in ways the diff deliberately
ignores.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass, replace
from enum import Enum

from .execution import (
    OutcomeMemo,
    ResultTable,
    execute_for_comparison,
    normalize_cell,
    tables_equivalent,
)
from .schema import DatabaseSchema
from .sqlast import (
    AliasRef,
    AstDiff,
    ColumnRef,
    Comparison,
    Expr,
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


class Category(str, Enum):
    SELECT_COLUMNS = "SelectColumns"
    GROUP_BY = "GroupBy"
    PREDICTED_VALUES = "PredictedValues"
    AGGREGATE_CHOICE = "AggregateChoice"
    JOIN_CLAUSES = "JoinClauses"
    DATASET_INCONSISTENCY = "DatasetInconsistency"
    QUERY_STRUCTURE = "QueryStructure"
    UNCLASSIFIABLE = "Unclassifiable"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


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


def _table_facts(pred: ResultTable | None, gold: ResultTable | None) -> dict:
    facts = {}
    if pred is not None:
        facts["pred_rows"] = len(pred.rows)
        facts["pred_columns"] = len(pred.columns)
    if gold is not None:
        facts["gold_rows"] = len(gold.rows)
        facts["gold_columns"] = len(gold.columns)
    return facts


def triage(
    pred_ast: Select,
    gold_ast: Select,
    pred_table: ResultTable | None,
    gold_table: ResultTable | None,
    schema: DatabaseSchema,
    memo: OutcomeMemo | None = None,
) -> TriageVerdict:
    """Assign the primary category for one prediction/gold pair.

    Tables may be None when execution results are unavailable. The
    equivalence check is skipped unless both are given, the suspect-gold
    check unless the gold's is. The tie probe runs whenever the schema's
    database file exists, with or without tables; the suspect-gold probe
    needs that file too. The probes execute through ``memo`` when one is
    given.
    """
    pred_canon = canonicalize(pred_ast)
    gold_canon = canonicalize(gold_ast)
    facts = _table_facts(pred_table, gold_table)

    def inconsistency(subtag: str, confidence: str, evidence: dict) -> TriageVerdict:
        return TriageVerdict(
            category=Category.DATASET_INCONSISTENCY,
            subtag=subtag,
            confidence=confidence,
            evidence={**evidence, **facts},
        )

    if pred_canon == gold_canon:
        return inconsistency("AliasOnlyEquivalent", "definite", {"canonical_sql": pred_canon.sql})

    if pred_table is not None and gold_table is not None:
        comparison = tables_equivalent(pred_table, gold_table)
        if comparison.equivalent:
            detail = comparison.detail or "tables equivalent"
            return inconsistency("ResultEquivalent", "definite", {"comparison": detail})

    if schema.db_path is not None and schema.db_path.is_file():
        if tie_ambiguity_test(pred_ast, gold_ast, schema, memo) is True:
            tie = {"tie": "ordering key ties at the LIMIT boundary"}
            return inconsistency("TieAmbiguity", "heuristic", tie)
        if gold_table is not None:
            suspect = suspect_gold_check(gold_ast, gold_table, schema, memo)
            if suspect is not None:
                return inconsistency("SuspectGold", "heuristic", suspect)

    delta = diff(pred_canon, gold_canon)
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
    joins = delta.join_delta
    select = delta.select_delta
    if delta.structure_delta:
        return Category.QUERY_STRUCTURE, "ShapeDivergence"
    if joins:
        if joins.extra_tables:
            return Category.JOIN_CLAUSES, "Extra"
        return Category.JOIN_CLAUSES, "Missing" if joins.missing_tables else "Condition"
    if delta.group_by_delta:
        return Category.GROUP_BY, None
    if delta.aggregate_delta:
        return Category.AGGREGATE_CHOICE, delta.aggregate_delta.clauses[0].clause
    if select:
        return Category.SELECT_COLUMNS, "WrongOrder" if select.reordered else "WrongColumn"
    if delta.literal_delta:
        return Category.PREDICTED_VALUES, None
    if delta.clause_delta:
        return Category.QUERY_STRUCTURE, "ClauseShape"
    return None


# --------------------------------------------------------------------------- tie ambiguity

def tie_ambiguity_test(
    pred_ast: Select, gold_ast: Select, schema: DatabaseSchema, memo: OutcomeMemo | None = None
) -> bool | None:
    """Does LIMIT k cut through a tie in the ordering key?

    Applicable only when both queries end in ORDER BY ... LIMIT k, and
    neither is a SELECT DISTINCT whose ordering key is not an output column.
    Both are re-executed with LIMIT k + 1 and the first ordering key is read
    from each row (see ``_one_past_limit_with_key``); the test passes when
    the boundary values at rank k agree and the gold's row k + 1 ties with
    its row k. Rows come out sorted on that key, so tied rows are contiguous
    and rows k and k + 1 decide whether the tie runs past the cut. Returns
    None when not applicable.
    """
    if not (pred_ast.order_by and pred_ast.limit is not None):
        return None
    if not (gold_ast.order_by and gold_ast.limit is not None):
        return None
    if pred_ast.limit != gold_ast.limit or pred_ast.limit == 0:
        return None
    k = gold_ast.limit
    pred_probe = _one_past_limit_with_key(pred_ast)
    gold_probe = _one_past_limit_with_key(gold_ast)
    if pred_probe is None or gold_probe is None:
        return None
    if memo is None:
        memo = OutcomeMemo()

    def ordering_values(probe: Select, column: int) -> list | None:
        outcome = memo.run(execute_for_comparison, to_sql(probe), schema)
        if outcome.table is None:
            return None
        return [normalize_cell(row[column]) for row in outcome.table.rows]

    pred_values = ordering_values(*pred_probe)
    gold_values = ordering_values(*gold_probe)
    if pred_values is None or gold_values is None:
        return False
    if len(pred_values) < k or len(gold_values) < k:
        return False
    if pred_values[k - 1] != gold_values[k - 1]:
        return False
    return len(gold_values) > k and gold_values[k] == gold_values[k - 1]


def _one_past_limit_with_key(ast: Select) -> tuple[Select, int] | None:
    """The tie probe of ``ast`` and the column of its rows that holds the
    first ordering key. The probe is ``ast`` with LIMIT k + 1. A key that
    names an output column is read there: a positional key n is column
    n - 1, an output alias or the item that the key matches (a left-arm item
    in a compound query) is that item's column. Any other key is appended
    as a last column, which only a simple SELECT allows. None for a SELECT
    DISTINCT, whose rows the appended key would make distinct on
    (columns, key) instead of on its columns."""
    probe = replace(ast, limit=ast.limit + 1)
    key = ast.order_by[0].expr
    if isinstance(key, Literal) and isinstance(key.value, int):
        return probe, key.value - 1
    index = _key_item(ast, key)
    if index is not None:
        if not any(isinstance(item.expr, Star) for item in ast.items[:index]):
            return probe, index
        key = ast.items[index].expr  # a ``*`` before the item moves its column
    if ast.distinct:
        return None
    return replace(probe, items=ast.items + (SelectItem(expr=key, alias="ordering_key"),)), -1


def _key_item(ast: Select, key: Expr) -> int | None:
    """The select item an ordering key names: an output alias, or the item
    the key matches (in a compound query, a left-arm item)."""
    if isinstance(key, AliasRef):
        return key.index
    for index, item in enumerate(ast.items):
        expr = item.expr
        if expr == key or (
            isinstance(expr, ColumnRef)
            and isinstance(key, ColumnRef)
            and (expr.source, expr.column.lower()) == (key.source, key.column.lower())
        ):
            return index
    return None


# --------------------------------------------------------------------------- suspect gold

def suspect_gold_check(
    gold_ast: Select,
    gold_table: ResultTable,
    schema: DatabaseSchema,
    memo: OutcomeMemo | None = None,
) -> dict | None:
    """Flag a gold query whose condition-less join balloons its result.

    Only the top-level FROM clause is inspected, which for a compound query
    is its left arm's. The query is repaired by adding foreign-key ON
    conditions to every flagged join; the gold is suspect when its row count
    is at least twice the repaired count. No flag is not a proof of
    correctness.
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
        condition = _fk_condition(item.source, gold_ast, flag.index, schema)
        if condition is None:
            return None
        from_items[flag.index] = replace(item, condition=condition, join_type="join")
        repaired_tables.append(item.source.table)
    repaired = replace(gold_ast, from_items=tuple(from_items))
    if memo is None:
        memo = OutcomeMemo()
    outcome = memo.run(execute_for_comparison, to_sql(repaired), schema)
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
