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
    ColumnRef,
    Comparison,
    Select,
    SelectItem,
    TableSource,
    canonicalize,
    detect_conditionless_join,
    diff,
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
    evidence: dict
    confidence: str  # "definite" | "heuristic"

    def __post_init__(self) -> None:
        if not self.evidence:
            raise ValueError("a verdict must carry evidence")

    def to_json(self) -> dict:
        return {
            "category": self.category.value,
            "subtag": self.subtag,
            "confidence": self.confidence,
            "evidence": self.evidence,
        }


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

    Tables may be None when execution results are unavailable; the
    equivalence, tie and suspect-gold checks are then skipped. The probes
    execute through ``memo`` when one is given.
    """
    pred_canon = canonicalize(pred_ast)
    gold_canon = canonicalize(gold_ast)
    facts = _table_facts(pred_table, gold_table)

    if pred_canon == gold_canon:
        return TriageVerdict(
            category=Category.DATASET_INCONSISTENCY,
            subtag="AliasOnlyEquivalent",
            confidence="definite",
            evidence={"canonical_sql": pred_canon.sql, **facts},
        )

    if pred_table is not None and gold_table is not None:
        comparison = tables_equivalent(pred_table, gold_table)
        if comparison.equivalent:
            return TriageVerdict(
                category=Category.DATASET_INCONSISTENCY,
                subtag="ResultEquivalent",
                confidence="definite",
                evidence={"comparison": comparison.detail or "tables equivalent", **facts},
            )

    has_db = schema.db_path is not None and schema.db_path.is_file()
    if has_db:
        tie = tie_ambiguity_test(pred_ast, gold_ast, schema, memo)
        if tie is True:
            return TriageVerdict(
                category=Category.DATASET_INCONSISTENCY,
                subtag="TieAmbiguity",
                confidence="heuristic",
                evidence={"tie": "ordering key ties at the LIMIT boundary", **facts},
            )
        if gold_table is not None:
            suspect = suspect_gold_check(gold_ast, gold_table, schema, memo)
            if suspect is not None:
                return TriageVerdict(
                    category=Category.DATASET_INCONSISTENCY,
                    subtag="SuspectGold",
                    confidence="heuristic",
                    evidence={**suspect, **facts},
                )

    delta = diff(pred_canon, gold_canon)
    evidence = {"diff": delta.summary(), **facts}

    if delta.structure_delta:
        return TriageVerdict(
            category=Category.QUERY_STRUCTURE,
            subtag="ShapeDivergence",
            confidence="definite",
            evidence=evidence,
        )
    if not delta.join_delta.empty:
        if delta.join_delta.extra_tables:
            subtag = "Extra"
        elif delta.join_delta.missing_tables:
            subtag = "Missing"
        else:
            subtag = "Condition"
        return TriageVerdict(
            category=Category.JOIN_CLAUSES, subtag=subtag, confidence="definite", evidence=evidence
        )
    if not delta.group_by_delta.empty:
        return TriageVerdict(
            category=Category.GROUP_BY, subtag=None, confidence="definite", evidence=evidence
        )
    if not delta.aggregate_delta.empty:
        clause = delta.aggregate_delta.clauses[0][0]
        return TriageVerdict(
            category=Category.AGGREGATE_CHOICE,
            subtag=clause,
            confidence="definite",
            evidence=evidence,
        )
    if not delta.select_delta.empty:
        subtag = "WrongOrder" if delta.select_delta.reordered else "WrongColumn"
        return TriageVerdict(
            category=Category.SELECT_COLUMNS,
            subtag=subtag,
            confidence="definite",
            evidence=evidence,
        )
    if not delta.literal_delta.empty:
        return TriageVerdict(
            category=Category.PREDICTED_VALUES,
            subtag=None,
            confidence="definite",
            evidence=evidence,
        )
    if delta.clause_delta:
        return TriageVerdict(
            category=Category.QUERY_STRUCTURE,
            subtag="ClauseShape",
            confidence="definite",
            evidence=evidence,
        )
    return TriageVerdict(
        category=Category.UNCLASSIFIABLE,
        subtag=None,
        confidence="heuristic",
        evidence={"note": "no rule fired; queries differ only in ignored dimensions", **facts},
    )


# --------------------------------------------------------------------------- tie ambiguity

def tie_ambiguity_test(
    pred_ast: Select, gold_ast: Select, schema: DatabaseSchema, memo: OutcomeMemo | None = None
) -> bool | None:
    """Does LIMIT k cut through a tie in the ordering key?

    Applicable only when both queries end in ORDER BY ... LIMIT k. Both are
    re-executed with LIMIT k + 1 and with the first ordering key appended as
    an output column; the test passes when the boundary values at rank k
    agree and the gold's row k + 1 ties with its row k. Rows come out sorted
    on that key, so tied rows are contiguous and rows k and k + 1 decide
    whether the tie runs past the cut. Returns None when not applicable.
    """
    if not (pred_ast.order_by and pred_ast.limit is not None):
        return None
    if not (gold_ast.order_by and gold_ast.limit is not None):
        return None
    if pred_ast.limit != gold_ast.limit or pred_ast.limit == 0:
        return None
    k = gold_ast.limit
    if memo is None:
        memo = OutcomeMemo()

    def ordering_values(ast: Select) -> list | None:
        probe = _one_past_limit_with_key(ast)
        outcome = memo.run(execute_for_comparison, to_sql(probe), schema)
        if outcome.table is None:
            return None
        return [normalize_cell(row[-1]) for row in outcome.table.rows]

    pred_values = ordering_values(pred_ast)
    gold_values = ordering_values(gold_ast)
    if pred_values is None or gold_values is None:
        return False
    if len(pred_values) < k or len(gold_values) < k:
        return False
    if pred_values[k - 1] != gold_values[k - 1]:
        return False
    return len(gold_values) > k and gold_values[k] == gold_values[k - 1]


def _one_past_limit_with_key(ast: Select) -> Select:
    key = ast.order_by[0].expr
    if isinstance(key, AliasRef):
        key = ast.items[key.index].expr
    items = ast.items + (SelectItem(expr=key, alias="ordering_key"),)
    return replace(ast, items=items, limit=ast.limit + 1)


# --------------------------------------------------------------------------- suspect gold

def suspect_gold_check(
    gold_ast: Select,
    gold_table: ResultTable,
    schema: DatabaseSchema,
    memo: OutcomeMemo | None = None,
) -> dict | None:
    """Flag a gold query whose condition-less join balloons its result.

    The query is repaired by adding foreign-key ON conditions to every
    flagged join; the gold is suspect when its row count is at least twice
    the repaired count. No flag is not a proof of correctness.
    """
    top_keys = {fi.source.key for fi in gold_ast.from_items}
    flags = [
        f
        for f in detect_conditionless_join(gold_ast)
        if f.key in top_keys and f.index < len(gold_ast.from_items)
    ]
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
    categories: dict[str, int] = {}
    subtags: dict[str, int] = {}
    for v in verdicts:
        categories[v.category.value] = categories.get(v.category.value, 0) + 1
        key = v.category.value + ("." + v.subtag if v.subtag else "")
        subtags[key] = subtags.get(key, 0) + 1
    return {
        "total": total,
        "categories": {
            name: {"count": count, "fraction": count / total if total else 0.0}
            for name, count in sorted(categories.items())
        },
        "subtags": {
            name: {"count": count, "fraction": count / total if total else 0.0}
            for name, count in sorted(subtags.items())
        },
    }
