"""Hardness-stratified execution accuracy and report generation.

Correctness of a transcript is decided from its final SQL alone (stage
history never affects the score): the final SQL and the gold SQL are both
executed and their tables compared, except for an in-process transcript
whose pipeline already compared them on the same database file (its
``judgment`` names this gold SQL, this final SQL and the file's identity
now). Such a transcript counts as correct without executing when the
pipeline found them equivalent; otherwise it is triaged from the two
outcomes the pipeline kept, which hold at most two tables of at most
``MEMO_MAX_ROWS`` rows per failed example until the report. Examples are
scored in groups that share a database and gold SQL, each with one
``OutcomeMemo`` of that database, so each distinct query (gold, prediction
or triage probe) runs once per group; a timeout is never reused. A failure
whose prediction sorts the gold's own rows and keeps other rows tied at
the LIMIT runs no tie probe: triage reads the tie from the two tables. Each
distinct failing final SQL is triaged once per group too: a failure whose
exact final SQL text an earlier failure of the group had, on the same
database file, takes that verdict, a ``ParseError`` one included, without
being parsed or triaged again. Triage reads only the two queries, their
tables and the group's memo, and the memo hands a repeated text the same
outcome. A verdict whose triage ran into a probe timeout is not kept, so
the next such failure is triaged again. Correctness and the ``Timeout``
verdict stay per example. SQL whose result changes from run
to run (``random()``) thus gets the verdict of the group's first such
failure, as it gets the first outcome from the memo. The report does not depend
on that order. Triage takes the gold's bound tree that ``load_dataset`` kept
on the example (each distinct gold is parsed once, at load, and its tree
stays in memory with the examples) and parses only the final SQL; an
example built without a tree has its gold parsed here, after the final
SQL, and a failure whose gold the parser rejects gets no verdict, as one
whose gold cannot run gets none. Bucket accuracies
combine into the overall number as the count-weighted average

    overall = sum(count_b * accuracy_b) / sum(count_b)

which is recomputed verbatim in reports so the identity is checkable.
Report payloads split into a deterministic ``results`` section and a
``metadata`` section (timestamp, endpoints); regenerating a
report from the same transcripts yields byte-identical results bytes.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import execution
from .dataset import SpiderExample, gold_groups
from .errors import DatasetError, Nl2SqlError
from .execution import OutcomeMemo, tables_equivalent
from .hardness import Hardness
from .pipeline import PipelineTranscript, Verdict, gold_unusable
from .schema import DatabaseSchema
from .sqlast import parse
from .triage import Category, TriageVerdict, triage, triage_report

BUCKET_ORDER = (Hardness.EASY, Hardness.MEDIUM, Hardness.HARD, Hardness.EXTRA)


@dataclass(frozen=True)
class BucketScore:
    count: int
    correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.count if self.count else 0.0


@dataclass
class EvalReport:
    buckets: dict[Hardness, BucketScore]
    overall: float
    quarantined: int
    verdict_distribution: dict[str, int]
    verdicts: dict[int, TriageVerdict]  # triage verdict per example id, in id order
    faults: int
    metadata: dict = field(default_factory=dict)

    @property
    def triage_distribution(self) -> dict:
        return triage_report(self.verdicts.values())

    def results_payload(self) -> dict:
        return {
            "buckets": {
                h.value: {
                    "count": b.count,
                    "correct": b.correct,
                    "accuracy": round(b.accuracy, 3),
                }
                for h, b in ((h, self.buckets[h]) for h in BUCKET_ORDER)
            },
            "overall": round(self.overall, 3),
            "quarantined": self.quarantined,
            "faults": self.faults,
            "verdicts": dict(sorted(self.verdict_distribution.items())),
            "triage": self.triage_distribution,
        }

    def to_json(self) -> dict:
        return {"results": self.results_payload(), "metadata": self.metadata}


def weighted_execution_accuracy(buckets: dict[Hardness, tuple[int, float]]) -> float:
    """The count-weighted average of per-bucket accuracies."""
    total = sum(count for count, _ in buckets.values())
    if total == 0:
        return 0.0
    return sum(count * accuracy for count, accuracy in buckets.values()) / total


def score(
    transcripts: list[PipelineTranscript],
    examples: list[SpiderExample],
    schemas: dict[str, DatabaseSchema],
    quarantined: int = 0,
    with_triage: bool = True,
) -> EvalReport:
    """Score transcripts against their examples.

    Raises DatasetError, with the offending ids listed, when two transcripts
    share an example id, when a transcript is missing for some example, or
    when one names another database or question than its example (it was
    run on another dataset). A differing gold SQL is allowed: a transcript
    may be scored again against a corrected gold.
    """
    twice = [i for i, n in Counter(t.example_id for t in transcripts).items() if n > 1]
    if twice:
        raise DatasetError(f"more than one transcript for example ids: {sorted(twice)}")
    by_id = {t.example_id: t for t in transcripts}
    missing = [ex.id for ex in examples if ex.id not in by_id]
    if missing:
        raise DatasetError(f"missing transcripts for example ids: {missing}")
    foreign = [
        ex.id for ex in examples
        if (by_id[ex.id].db_id, by_id[ex.id].question) != (ex.db_id, ex.question)
    ]
    if foreign:
        raise DatasetError(
            f"transcripts name another database or question for example ids: {foreign}"
        )

    per_bucket: dict[Hardness, list[bool]] = {h: [] for h in Hardness}
    final_verdicts: Counter[Verdict] = Counter()
    verdicts: dict[int, TriageVerdict] = {}

    for group in gold_groups(examples):
        memo = OutcomeMemo(schemas[group[0].db_id])
        triaged: dict[tuple[tuple[int, ...], str], TriageVerdict] = {}
        for ex in group:
            transcript = by_id[ex.id]
            final_verdicts[transcript.final_verdict] += 1
            correct, verdict = False, None
            if transcript.final_verdict is not Verdict.FAULT:
                correct, verdict = _score_one(transcript, ex, with_triage, memo, triaged)
            per_bucket[ex.hardness].append(correct)
            if verdict is not None:
                verdicts[ex.id] = verdict

    buckets = {
        h: BucketScore(count=len(flags), correct=sum(flags)) for h, flags in per_bucket.items()
    }
    overall = weighted_execution_accuracy(
        {h: (b.count, b.accuracy) for h, b in buckets.items()}
    )
    return EvalReport(
        buckets=buckets,
        overall=overall,
        quarantined=quarantined,
        verdict_distribution={v.value: n for v, n in final_verdicts.items()},
        verdicts=dict(sorted(verdicts.items())),
        faults=final_verdicts[Verdict.FAULT],
    )


def _score_one(
    transcript: PipelineTranscript,
    example: SpiderExample,
    with_triage: bool,
    memo: OutcomeMemo,
    triaged: dict[tuple[tuple[int, ...], str], TriageVerdict],
) -> tuple[bool, TriageVerdict | None]:
    """Whether ``transcript`` is correct, and the triage verdict of a failure.

    ``triaged`` holds the verdicts of the group's earlier failures, keyed by
    the database file's identity and the exact final SQL text; a failure
    whose key is there takes that verdict without being parsed or triaged
    again. A verdict is kept only when no probe timed out while it was
    triaged."""
    if transcript.final_sql is None:
        return False, None
    file_key = memo.pin()
    judgment = transcript.judgment
    if (
        judgment is not None
        and judgment.gold_sql == example.gold_sql
        and judgment.final_sql == transcript.final_sql
        and judgment.file_key == file_key
    ):
        if judgment.equivalent:
            return True, None
        # The pipeline compared these very outcomes, and the comparison is pure.
        gold_outcome, pred_outcome, correct = judgment.gold, judgment.final, False
    else:
        gold_outcome = memo.run(example.gold_sql)
        if gold_unusable(gold_outcome):
            return False, None
        pred_outcome = memo.run(transcript.final_sql)
        correct = pred_outcome.table is not None and (
            tables_equivalent(pred_outcome.table, gold_outcome.table).equivalent
        )
    if correct or not with_triage:
        return correct, None
    if pred_outcome.timed_out:
        # Ran out of time: no table to blame on the model or the dataset.
        verdict = TriageVerdict(
            category=Category.UNCLASSIFIABLE,
            subtag="Timeout",
            confidence="definite",
            evidence={"sql": transcript.final_sql, "timeout_seconds": execution.TIMEOUT_SECONDS},
        )
        return False, verdict
    key = (file_key, transcript.final_sql)
    verdict = triaged.get(key)
    if verdict is not None:
        return False, verdict
    timeouts = memo.timeouts
    try:
        pred_ast = parse(transcript.final_sql, memo.schema)
    except Nl2SqlError as exc:
        verdict = TriageVerdict(
            category=Category.UNCLASSIFIABLE,
            subtag="ParseError",
            confidence="definite",
            evidence={"error": str(exc), "sql": transcript.final_sql},
        )
    else:
        gold_ast = example.gold_ast
        if gold_ast is None:
            try:
                gold_ast = parse(example.gold_sql, memo.schema)
            except Nl2SqlError:
                return False, None  # a gold the parser rejects cannot judge
        verdict = triage(pred_ast, gold_ast, pred_outcome.table, gold_outcome.table, memo)
    if memo.timeouts == timeouts:
        triaged[key] = verdict
    return False, verdict


# --------------------------------------------------------------------------- rendering

def run_metadata(transcripts: list[PipelineTranscript], timestamp: bool = True) -> dict:
    """The report's ``metadata``: the models the transcripts name, and when."""
    meta: dict = {"endpoints": sorted({s.model for t in transcripts for s in t.stages})}
    if timestamp:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat()
    return meta


def render_report_markdown(report: EvalReport) -> str:
    """Human-readable report: accuracy by difficulty plus the triage tables."""
    results = report.results_payload()
    lines = ["# Execution accuracy report", ""]
    header = ["", *[h.value.capitalize() for h in BUCKET_ORDER], "All"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    counts = [str(results["buckets"][h.value]["count"]) for h in BUCKET_ORDER]
    total = sum(report.buckets[h].count for h in BUCKET_ORDER)
    lines.append("| Count | " + " | ".join(counts) + f" | {total} |")
    accs = [f"{results['buckets'][h.value]['accuracy']:.3f}" for h in BUCKET_ORDER]
    lines.append("| Exec Accuracy | " + " | ".join(accs) + f" | {results['overall']:.3f} |")
    lines.append("")
    lines.append(f"Quarantined examples: {report.quarantined}")
    lines.append(f"Harness faults: {report.faults}")
    lines.append("")
    lines.append("## Pipeline stage outcomes")
    lines.append("")
    for verdict, count in sorted(report.verdict_distribution.items()):
        lines.append(f"- {verdict}: {count}")
    lines.append("")
    lines.append("## Failure triage")
    triage_dist = report.triage_distribution
    if not triage_dist["total"]:
        lines += ["", "No failures to triage."]
    for title, key in (("Category", "categories"), ("Subtag", "subtags")):
        if triage_dist[key]:  # empty exactly when nothing was triaged
            lines += ["", f"| {title} | Count | Fraction |", "|---|---|---|"]
            lines += [
                f"| {name} | {row['count']} | {row['fraction']:.3f} |"
                for name, row in triage_dist[key].items()
            ]
    if report.metadata:
        lines.append("")
        lines.append("## Metadata")
        lines.append("")
        for key, value in sorted(report.metadata.items()):
            lines.append(f"- {key}: {value}")
    return "\n".join(lines) + "\n"


def render_report_json(report: EvalReport) -> str:
    return json.dumps(report.to_json(), indent=2, ensure_ascii=False) + "\n"


def render_verdicts_jsonl(report: EvalReport) -> str:
    """One line per triage verdict, in example-id order."""
    return "".join(
        json.dumps({"example_id": example_id, **verdict.to_json()}, ensure_ascii=False) + "\n"
        for example_id, verdict in report.verdicts.items()
    )
