"""The staged synthesis pipeline.

Three stages, each gated on the previous one failing:

1. zero shot: schema-bearing prompt to the generator model.
2. example-driven correction: when the predicted table mismatches the gold
   table, the generator is told so *in the same conversation* and shown the
   gold result table in markdown, then asked to revise. Repeats up to the
   configured round count.
3. error-driven correction: one fresh zero-shot request to the corrector
   model carrying only the schema, the question, the failed SQL (the last
   SQL an earlier stage produced) and, when executing that SQL raised an
   engine error, that error's verbatim text, or, when it ran out of time,
   a note saying so. No earlier conversation content leaks into this
   prompt.

Every prompt, reply, extraction, execution and comparison is recorded in a
PipelineTranscript. Transcripts contain no timestamps: a replay run is
byte-for-byte reproducible.

Each distinct query runs once per example: one ``OutcomeMemo`` of its
database serves the gold and every stage, so a model that resubmits its SQL
is not re-executed (a timeout is, as it is never reused). ``run_many``
groups examples by database and gold SQL and passes one memo per group, so
a gold shared by several questions runs once; a group runs inside one task,
so no memo is shared between threads. The gold runs first, so its table is
the memo's first and is kept whatever its size: a reply that respells a
gold past ``MEMO_MAX_ROWS`` rows gets the gold's own table, and such a gold
runs once per group. The pipeline holds the gold's outcome for the whole
example anyway, so each worker's memo holds at most that one table beyond
its small ones.

The memo pins the database file when an example starts and again when it
ends (``OutcomeMemo.pin``); a file whose identity changed in between raises
``DatabaseChangedError``, so no transcript of that example is returned.
The final SQL and the gold thus always ran on the pinned file, and the
transcript keeps the pipeline's judgment of them in memory
(``PipelineTranscript.judgment``: the file's identity, both SQL texts and
whether their tables were equivalent). When they were not, the judgment
also holds the two outcomes the pipeline compared, and it is kept only if
neither timed out or holds more than
``MEMO_MAX_ROWS`` rows, so a failed example holds at most two tables of at
most that many rows until the report. ``evaluate`` reuses the judgment
instead of executing and comparing both queries again, and triages a
failure from its outcomes. It is never written out, so a transcript read
from a file is judged afresh.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Iterable, NamedTuple

from .dataset import SpiderExample, gold_groups
from .errors import DatabaseChangedError, Nl2SqlError, NoSqlFoundError, ParseError
from .execution import (
    ExecOutcome,
    OutcomeMemo,
    TableComparison,
    reusable,
    tables_equivalent,
)
from .llm import Message, ModelEndpoint
from .prompts import (
    CORRECTOR_SYSTEM_PROMPT,
    SYSTEM_PROMPT,
    error_correction_prompt,
    example_correction_prompt,
    render_markdown,
    zero_shot_user_prompt,
)
from .schema import DatabaseSchema, _json_reader
from .sqlast.tokens import _MASTER, lexes, tokenize

_FENCE = re.compile(r"```(?:sql)?\s*\n?(.*?)```", re.DOTALL | re.IGNORECASE)
_SELECT_START = re.compile(r"\bselect\b", re.IGNORECASE)
# A quoted string or identifier, or a comment, matched whole so that a ';'
# or a blank line inside it is skipped; a statement-ending ';' or blank line;
# or a line ending in '.', ':', '!' or '?' and the gap after it, up to a
# ``select`` that begins a later line. Only the cuts start with ';' or a
# newline, and only the last starts with '.', ':', '!' or '?'.
_QUOTED_OR_CUT = re.compile(
    r"'[^']*'|\"[^\"]*\"|`[^`]*`|\[[^\]]*\]|--[^\n]*|/\*.*?\*/|;|\n\s*\n"
    r"|[.:!?][ \t\f\r]*\n\s*(?=(?i:select)\b)",
    re.DOTALL,
)


class Verdict(str, Enum):
    CORRECT_FIRST_SHOT = "correct_first_shot"
    CORRECTED_BY_EXAMPLE = "corrected_by_example"
    CORRECTED_BY_ERROR = "corrected_by_error"
    FAILED = "failed"
    FAULT = "fault"  # harness fault (e.g. gold would not execute), not a model failure


@dataclass(frozen=True)
class PipelineConfig:
    max_example_correction_rounds: int = 1
    enable_error_correction: bool = True

    def __post_init__(self) -> None:
        if self.max_example_correction_rounds < 0:
            raise ValueError("max_example_correction_rounds must be >= 0")


@dataclass
class StageRecord:
    stage: str
    model: str
    messages: list[Message]
    reply: str
    request_digest: str
    sql: str | None
    extraction_error: str | None
    execution: dict | None
    comparison: dict | None

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Judgment(NamedTuple):
    """Whether the pipeline found ``final_sql``'s table equivalent to
    ``gold_sql``'s, both executed on the database file whose identity is
    ``file_key``; when it did not, the two outcomes it compared."""

    file_key: tuple[int, ...]
    gold_sql: str
    final_sql: str
    equivalent: bool
    gold: ExecOutcome | None = None
    final: ExecOutcome | None = None


@dataclass
class PipelineTranscript:
    example_id: int
    db_id: str
    question: str
    gold_sql: str
    stages: list[StageRecord]
    final_sql: str | None
    final_verdict: Verdict
    fault: str | None = None
    # Set in memory by the stage that produced final_sql; neither written by
    # to_json nor read by from_json, and invisible to == and repr.
    judgment: Judgment | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def model_calls(self) -> int:
        return len(self.stages)

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        out["stages"] = [s.to_json() for s in self.stages]
        out["final_verdict"] = self.final_verdict.value
        out["model_calls"] = self.model_calls
        return out

    @classmethod
    def from_json(cls, data: dict) -> "PipelineTranscript":
        return _json_reader(cls)(data)


# --------------------------------------------------------------------------- SQL extraction

def extract_sql(model_reply: str) -> str:
    """Pull the first SQL statement out of a model reply.

    Handles fenced code blocks, skeleton-then-query replies (the text after
    the last ``|||`` wins), and trailing prose after a semicolon or, outside
    a fenced block, after a blank line, either outside quotes and comments.
    The statement starts at the first ``select`` word, unless a line that
    begins with ``select`` follows a line ending in ``.``, ``:``, ``!`` or
    ``?`` before the statement is cut: then it starts on the last such line,
    so a sentence that uses the word is left out.
    The extracted text must lex, which one ``lexes`` match checks without
    building tokens; only text that does not is tokenized, for the error's
    message. Its first token must be the keyword SELECT. Otherwise this
    raises ``NoSqlFoundError``.
    """
    candidate = model_reply
    if "|||" in candidate:
        candidate = candidate.rsplit("|||", 1)[1]
    block = next((b for b in _FENCE.findall(candidate) if _SELECT_START.search(b)), None)
    if block is not None:
        candidate = block
    match = _SELECT_START.search(candidate)
    if match is None:
        raise NoSqlFoundError("reply contains no SELECT statement")
    start, cut = match.start(), None
    # A blank line typically separates the statement from an explanation,
    # and a sentence that uses the word ends before the statement's line.
    cut_at = ";" if block is not None else ";\n"
    for m in _QUOTED_OR_CUT.finditer(candidate, start):
        lead = m.group()[0]
        if lead in cut_at:
            cut = m.start()
            break
        if lead in ".:!?":
            start = m.end()
    sql = candidate[start:cut].strip()
    if not lexes(sql):
        try:
            tokenize(sql)
        except ParseError as exc:
            raise NoSqlFoundError(f"extracted text does not tokenize: {exc}") from exc
    # ``sql`` starts where ``\bselect\b`` matched, so its first match is a token.
    first = _MASTER.match(sql)
    if first is None or first.lastgroup != "ident" or first["ident"].lower() != "select":
        raise NoSqlFoundError("extracted text is not a SELECT statement")
    return sql


# --------------------------------------------------------------------------- stage helpers

def gold_unusable(outcome: ExecOutcome) -> bool:
    """Whether a gold outcome can judge no prediction: it has no table (an
    engine error or a timeout), or its table was cut at the row cap. ``run``
    makes such an example a FAULT, and ``evaluate`` gives it no verdict."""
    return outcome.table is None or outcome.table.truncated


def _execution_summary(outcome: ExecOutcome) -> dict:
    if outcome.table is not None:
        return {
            "kind": "table",
            "rows": len(outcome.table.rows),
            "columns": len(outcome.table.columns),
            "truncated": outcome.table.truncated,
        }
    if outcome.timed_out:
        return {"kind": "timeout"}
    return {"kind": "error", "error": outcome.error, "error_class": outcome.error_class}


def _run_model_stage(
    transcript: PipelineTranscript,
    memo: OutcomeMemo,
    gold_outcome: ExecOutcome,
    stage: str,
    success: Verdict,
    endpoint: ModelEndpoint,
    messages: list[Message],
) -> StageRecord:
    """Call the model, execute and judge its SQL, and record the stage.

    The one place that appends a stage, and, when the stage has SQL, moves
    ``final_sql`` to it, replaces the ``judgment`` and sets ``success`` as the
    verdict when that SQL's table is equivalent to the gold. The judgment,
    made on the memo's pinned file, is kept when they are equivalent or
    both outcomes are ``reusable``; otherwise it is cleared.
    """
    reply, digest = endpoint.complete(messages)
    sql: str | None = None
    extraction_error: str | None = None
    outcome: ExecOutcome | None = None
    comparison: TableComparison | None = None
    try:
        sql = extract_sql(reply)
    except NoSqlFoundError as exc:
        extraction_error = str(exc)
    if sql is not None:
        outcome = memo.run(sql)
        if outcome.table is not None:
            comparison = tables_equivalent(outcome.table, gold_outcome.table)
    record = StageRecord(
        stage=stage,
        model=endpoint.model_name,
        messages=list(messages),
        reply=reply,
        request_digest=digest,
        sql=sql,
        extraction_error=extraction_error,
        execution=_execution_summary(outcome) if outcome is not None else None,
        comparison=vars(comparison).copy() if comparison is not None else None,
    )
    transcript.stages.append(record)
    if sql is None:
        return record
    transcript.final_sql = sql
    transcript.judgment = None
    if comparison is not None and comparison.equivalent:
        transcript.final_verdict = success
        transcript.judgment = Judgment(memo.file_key, transcript.gold_sql, sql, True)
    elif reusable(outcome) and reusable(gold_outcome):
        transcript.judgment = Judgment(
            memo.file_key, transcript.gold_sql, sql, False, gold_outcome, outcome
        )
    return record


# --------------------------------------------------------------------------- pipeline

def run_pipeline(
    example: SpiderExample,
    schema: DatabaseSchema,
    config: PipelineConfig,
    generator: ModelEndpoint,
    corrector: ModelEndpoint,
    memo: OutcomeMemo | None = None,
) -> PipelineTranscript:
    """Run all stages for one example. Total model calls are bounded by
    1 + max_example_correction_rounds + 1.

    ``memo`` may carry outcomes from other examples with the same gold, and
    must be of ``schema``'s database; by default the example gets its own.
    It is pinned when the example starts and again when it ends: a file
    changed in between raises ``DatabaseChangedError``.
    """
    if memo is None:
        memo = OutcomeMemo(schema)
    file_key = memo.pin()
    transcript = _run_stages(example, schema, config, generator, corrector, memo)
    if memo.pin() != file_key:
        raise DatabaseChangedError(
            f"database file changed while example {example.id} ran: {schema.db_path}"
        )
    return transcript


def _run_stages(
    example: SpiderExample, schema: DatabaseSchema, config: PipelineConfig,
    generator: ModelEndpoint, corrector: ModelEndpoint, memo: OutcomeMemo,
) -> PipelineTranscript:
    transcript = PipelineTranscript(
        example_id=example.id,
        db_id=example.db_id,
        question=example.question,
        gold_sql=example.gold_sql,
        stages=[],
        final_sql=None,
        final_verdict=Verdict.FAILED,
    )

    gold_outcome = memo.run(example.gold_sql)
    if gold_unusable(gold_outcome):
        transcript.final_verdict = Verdict.FAULT
        transcript.fault = f"gold execution unusable: {_execution_summary(gold_outcome)}"
        return transcript

    messages: list[Message] = [
        {"role": "system", "content": SYSTEM_PROMPT},
        {"role": "user", "content": zero_shot_user_prompt(example.question, schema)},
    ]
    run_stage = partial(_run_model_stage, transcript, memo, gold_outcome)
    last = run_stage("zero_shot", Verdict.CORRECT_FIRST_SHOT, generator, messages)

    # Example-driven rounds continue the same conversation.
    gold_markdown = None  # rendered on the first round, which most examples never reach
    for round_no in range(1, config.max_example_correction_rounds + 1):
        if transcript.final_verdict is not Verdict.FAILED or last.sql is None:
            break  # solved, or nothing to revise in-conversation
        if gold_markdown is None:
            gold_markdown = render_markdown(gold_outcome.table)
        messages = messages + [
            {"role": "assistant", "content": last.reply},
            {"role": "user", "content": example_correction_prompt(gold_markdown)},
        ]
        last = run_stage(
            f"example_correction_{round_no}", Verdict.CORRECTED_BY_EXAMPLE, generator, messages
        )

    if transcript.final_verdict is not Verdict.FAILED:
        return transcript
    if not config.enable_error_correction:
        return transcript
    # Hand over final_sql with its own engine error: the stage that set it is
    # the last one with SQL, and a later round may have replied without SQL.
    failed = next((s for s in reversed(transcript.stages) if s.sql is not None), None)
    if failed is None:
        return transcript  # no failed SQL to hand to the corrector
    fresh: list[Message] = [
        {"role": "system", "content": CORRECTOR_SYSTEM_PROMPT},
        {
            "role": "user",
            "content": error_correction_prompt(
                example.question,
                schema,
                failed.sql,
                failed.execution.get("error"),
                timed_out=failed.execution["kind"] == "timeout",
            ),
        },
    ]
    run_stage("error_correction", Verdict.CORRECTED_BY_ERROR, corrector, fresh)
    return transcript


def run_many(
    examples: Iterable[SpiderExample],
    schemas: dict[str, DatabaseSchema],
    config: PipelineConfig,
    generator: ModelEndpoint,
    corrector: ModelEndpoint,
    workers: int = 1,
) -> list[PipelineTranscript]:
    """Run the pipeline over many examples; output order follows example id
    regardless of worker interleaving.

    Examples sharing a database and gold SQL form a group, run in input order
    by one task with one ``OutcomeMemo`` of that database.
    """
    groups = gold_groups(examples)

    def one_group(group: list[SpiderExample]) -> list[PipelineTranscript]:
        memo = OutcomeMemo(schemas[group[0].db_id])
        return [
            run_pipeline(ex, memo.schema, config, generator, corrector, memo) for ex in group
        ]

    if workers <= 1:
        done = list(map(one_group, groups))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(one_group, groups))
    return sorted((t for group in done for t in group), key=lambda t: t.example_id)


def write_transcripts(transcripts: Iterable[PipelineTranscript], out: Path | str) -> None:
    with Path(out).open("w", encoding="utf-8") as fh:
        for t in transcripts:
            fh.write(json.dumps(t.to_json(), ensure_ascii=False) + "\n")


def read_transcripts(path: Path | str) -> list[PipelineTranscript]:
    """The transcripts in a JSONL file. A line that is no transcript record,
    such as the last line of a file cut short by a crash, raises
    ``Nl2SqlError``: ``cannot read <path>: line <n>: <reason>``."""
    out = []
    with Path(path).open("rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(PipelineTranscript.from_json(json.loads(line)))
            except (ValueError, TypeError, RecursionError) as exc:
                raise Nl2SqlError(f"cannot read {path}: line {number}: {exc}") from exc
    return out
