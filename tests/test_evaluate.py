from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
from collections import Counter

import pytest

from nl2sql import evaluate, execution
from nl2sql.dataset import SpiderExample
from nl2sql.errors import DatasetError
from nl2sql.evaluate import (
    BucketScore,
    EvalReport,
    render_report_markdown,
    score,
    weighted_execution_accuracy,
)
from nl2sql.hardness import Hardness
from nl2sql.llm import ModelEndpoint
from nl2sql.pipeline import (
    PipelineConfig,
    PipelineTranscript,
    Verdict,
    read_transcripts,
    run_many,
    run_pipeline,
    write_transcripts,
)
from nl2sql.schema import schema_from_tables_entry
from nl2sql.triage import Category

from conftest import GROUPED_BY_ID_SQL, GROUPED_BY_NAME_SQL, build_ships_db
from helpers import ScriptedTransport, score_pairs
from test_execution import _numbers_db
from test_pipeline import question_of, scripted_endpoints

GOLD = "SELECT name FROM ship WHERE disposition_of_ship = 'sank'"
WRONG = "SELECT name FROM ship WHERE disposition_of_ship = 'captured'"


def transcript(example_id, final_sql, verdict=Verdict.CORRECT_FIRST_SHOT):
    return PipelineTranscript(
        example_id=example_id,
        db_id="battle_death",
        question=f"q{example_id}",
        gold_sql=GOLD,
        stages=[],
        final_sql=final_sql,
        final_verdict=verdict,
    )


def ship_example(example_id, hardness=Hardness.EASY):
    return SpiderExample(
        id=example_id, question=f"q{example_id}", db_id="battle_death",
        gold_sql=GOLD, hardness=hardness,
    )


def test_published_bucket_arithmetic_reproduces_overall():
    buckets = {
        Hardness.EASY: (248, 0.940),
        Hardness.MEDIUM: (446, 0.857),
        Hardness.HARD: (174, 0.805),
        Hardness.EXTRA: (166, 0.566),
    }
    overall = weighted_execution_accuracy(buckets)
    assert round(overall, 3) == 0.821


def test_all_correct_fixture_scores_one():
    buckets = {Hardness.EASY: (5, 1.0), Hardness.MEDIUM: (3, 1.0)}
    assert weighted_execution_accuracy(buckets) == 1.0


def test_empty_buckets_score_zero():
    assert weighted_execution_accuracy({}) == 0.0


def test_seven_of_ten_scores_point_seven(schemas):
    examples = [ship_example(i) for i in range(10)]
    transcripts = [transcript(i, GOLD if i < 7 else WRONG) for i in range(10)]
    report = score(transcripts, examples, schemas, with_triage=False)
    assert report.overall == pytest.approx(0.7)
    assert report.buckets[Hardness.EASY].count == 10
    assert report.buckets[Hardness.EASY].correct == 7


def test_weighted_average_identity_holds(schemas):
    examples = [ship_example(i, Hardness.EASY if i % 2 else Hardness.HARD) for i in range(8)]
    transcripts = [transcript(i, GOLD if i % 3 else WRONG) for i in range(8)]
    report = score(transcripts, examples, schemas, with_triage=False)
    recomputed = weighted_execution_accuracy(
        {h: (b.count, b.accuracy) for h, b in report.buckets.items()}
    )
    assert report.overall == recomputed  # exact, same formula


def test_missing_transcripts_fatal_with_ids(schemas):
    examples = [ship_example(0), ship_example(1)]
    with pytest.raises(DatasetError, match=r"\[1\]"):
        score([transcript(0, GOLD)], examples, schemas)


def test_scoring_ignores_stage_history(schemas):
    examples = [ship_example(0)]
    plain = transcript(0, GOLD)
    with_history = transcript(0, GOLD, verdict=Verdict.CORRECTED_BY_ERROR)
    with_history.stages = []  # stage records do not matter either way
    a = score([plain], examples, schemas, with_triage=False)
    b = score([with_history], examples, schemas, with_triage=False)
    assert a.overall == b.overall == 1.0


def test_unparseable_final_sql_counts_wrong_and_unclassifiable(schemas):
    examples = [ship_example(0)]
    bad = transcript(0, "SELECT bogus FROM nowhere")
    report = score([bad], examples, schemas)
    assert report.overall == 0.0
    assert report.triage_distribution["categories"]["Unclassifiable"]["count"] == 1


def test_a_gold_the_parser_rejects_gives_the_failure_no_verdict(schemas):
    # SQLite runs this gold, but CASE is outside the parser's dialect.
    gold = "SELECT CASE WHEN age > 30 THEN name ELSE 'young' END FROM singer"
    example = SpiderExample(
        id=0, question="q0", db_id="concert_singer", gold_sql=gold, hardness=Hardness.EASY,
    )
    final = dataclasses.replace(
        transcript(0, "SELECT name FROM singer", Verdict.FAILED),
        db_id="concert_singer", gold_sql=gold,
    )
    report = score([final], [example], schemas)
    assert report.overall == 0.0
    assert report.verdicts == {}


def counting_executions(monkeypatch) -> list[tuple[str, str]]:
    """Record the (db_id, sql) of every real execution."""
    calls = []
    original = execution.execute

    def counting(sql, schema, *args):
        calls.append((schema.db_id, sql))
        return original(sql, schema, *args)

    monkeypatch.setattr(execution, "execute", counting)
    return calls


def test_none_final_sql_counts_wrong(schemas, monkeypatch):
    calls = counting_executions(monkeypatch)
    examples = [ship_example(0)]
    report = score([transcript(0, None, verdict=Verdict.FAILED)], examples, schemas)
    assert report.overall == 0.0
    assert calls == []  # not even the gold runs


def test_triage_distribution_present_for_failures(schemas):
    examples = [ship_example(0)]
    report = score([transcript(0, WRONG)], examples, schemas)
    assert report.triage_distribution["total"] == 1
    assert "PredictedValues" in report.triage_distribution["categories"]


def test_results_payload_deterministic(schemas):
    examples = [ship_example(i) for i in range(4)]
    transcripts = [transcript(i, GOLD if i % 2 else WRONG) for i in range(4)]
    a = score(transcripts, examples, schemas)
    b = score(transcripts, examples, schemas)
    a.metadata, b.metadata = {"generated_at": "now"}, {"generated_at": "later"}
    assert json.dumps(a.results_payload()) == json.dumps(b.results_payload())
    assert a.metadata != b.metadata


def test_markdown_report_has_difficulty_table(schemas):
    examples = [ship_example(0)]
    report = score([transcript(0, GOLD)], examples, schemas, with_triage=False)
    text = render_report_markdown(report)
    assert "| Easy | Medium | Hard | Extra | All |" in text.replace("|  |", "|").replace("| |", "|")
    assert "Exec Accuracy" in text
    assert "1.000" in text


def test_fault_transcripts_counted_separately(schemas):
    examples = [ship_example(0), ship_example(1)]
    faulted = transcript(0, None, verdict=Verdict.FAULT)
    faulted.fault = "gold execution unusable"
    fine = transcript(1, GOLD)
    report = score([faulted, fine], examples, schemas, with_triage=False)
    assert report.faults == 1
    assert report.overall == pytest.approx(0.5)
    assert report.verdict_distribution["fault"] == 1


def test_accuracy_printed_to_three_decimals(schemas):
    examples = [ship_example(i) for i in range(3)]
    transcripts = [transcript(i, GOLD if i < 2 else WRONG) for i in range(3)]
    report = score(transcripts, examples, schemas, with_triage=False)
    payload = report.results_payload()
    assert payload["buckets"]["easy"]["accuracy"] == 0.667


def test_result_equivalent_prediction_scores_correct_without_verdict(schemas):
    # Different SQL, same result table: an always-true filter. It counts as
    # correct, so it is never triaged, let alone blamed on the model.
    example = SpiderExample(
        id=0, question="q0", db_id="concert_singer",
        gold_sql="SELECT name FROM singer", hardness=Hardness.EASY,
    )
    pred = PipelineTranscript(
        example_id=0, db_id="concert_singer", question="q0", gold_sql=example.gold_sql,
        stages=[], final_sql="SELECT name FROM singer WHERE age > 0",
        final_verdict=Verdict.CORRECT_FIRST_SHOT,
    )
    report = score([pred], [example], schemas)
    assert report.buckets[Hardness.EASY].correct == 1
    assert report.verdicts == {}


def student_example(example_id):
    return SpiderExample(
        id=example_id, question=f"q{example_id}", db_id="student_course",
        gold_sql=GROUPED_BY_NAME_SQL, hardness=Hardness.HARD,
    )


def test_grouped_scoring_equals_one_example_scoring(schemas, monkeypatch):
    # Golds interleave A, B, A, fault, A, B. Gold A holds a tie-probe failure
    # (twice, so its probes repeat) and a parse-error failure.
    examples = [
        student_example(0), ship_example(1), student_example(2),
        student_example(3), student_example(4), ship_example(5),
    ]
    transcripts = [
        transcript(0, GROUPED_BY_ID_SQL, Verdict.FAILED),
        transcript(1, WRONG, Verdict.FAILED),
        transcript(2, "SELECT bogus FROM nowhere", Verdict.FAILED),
        transcript(3, None, Verdict.FAULT),
        transcript(4, GROUPED_BY_ID_SQL, Verdict.FAILED),
        transcript(5, GOLD),
    ]
    transcripts = [dataclasses.replace(t, db_id=ex.db_id) for t, ex in zip(transcripts, examples)]
    calls = counting_executions(monkeypatch)
    singles = [score([t], [ex], schemas) for t, ex in zip(transcripts, examples)]
    distinct = set(calls)  # no (db, sql) is shared by the two golds
    calls.clear()
    report = score(transcripts, examples, schemas)

    assert Counter(calls) == Counter(distinct)
    buckets = {
        h: BucketScore(
            count=sum(r.buckets[h].count for r in singles),
            correct=sum(r.buckets[h].correct for r in singles),
        )
        for h in Hardness
    }
    expected = EvalReport(
        buckets=buckets,
        overall=weighted_execution_accuracy(
            {h: (b.count, b.accuracy) for h, b in buckets.items()}
        ),
        quarantined=0,
        verdict_distribution=dict(
            sum((Counter(r.verdict_distribution) for r in singles), Counter())
        ),
        verdicts={i: v for r in singles for i, v in r.verdicts.items()},
        faults=sum(r.faults for r in singles),
    )
    assert json.dumps(report.results_payload()) == json.dumps(expected.results_payload())
    assert list(report.verdicts) == [0, 1, 2, 4]
    for example_id, verdict in report.verdicts.items():
        assert verdict.to_json() == singles[example_id].verdicts[example_id].to_json()
    assert report.verdicts[0].subtag == report.verdicts[4].subtag == "TieAmbiguity"
    assert report.verdicts[2].subtag == "ParseError"


def test_prediction_with_a_non_ascii_digit_is_triaged_as_a_parse_error(schemas):
    # SQLite reads the superscript two as a column name it cannot find.
    failed = transcript(0, "SELECT name FROM ship WHERE id = ²", Verdict.FAILED)
    report = score([failed], [ship_example(0)], schemas)
    verdict = report.verdicts[0]
    assert (verdict.category.value, verdict.subtag) == ("Unclassifiable", "ParseError")



def test_prediction_nested_past_the_bound_is_triaged_as_a_parse_error(schemas):
    deep = "SELECT name FROM ship WHERE id = " + "(" * 10_000 + "1" + ")" * 10_000
    report = score([transcript(0, deep, Verdict.FAILED)], [ship_example(0)], schemas)
    verdict = report.verdicts[0]
    assert (verdict.category.value, verdict.subtag) == ("Unclassifiable", "ParseError")
    assert "query nests deeper than" in verdict.evidence["error"]


# --------------------------------------------------------------------------- reused judgments

# Equivalent to GOLD on the fixture ships, whose ids run from 1 to 7.
GOLD_BELOW_100 = GOLD + " AND id < 100"


def run_example(schema, replies, example=None):
    """The in-process transcript of one example whose every stage replies the same."""
    generator, corrector = scripted_endpoints(
        {stage: replies for stage in ("zero_shot", "example_1", "error")}
    )
    example = example or ship_example(0)
    return run_pipeline(example, schema, PipelineConfig(), generator, corrector)


def round_tripped(transcripts):
    return [PipelineTranscript.from_json(json.loads(json.dumps(t.to_json()))) for t in transcripts]


def test_in_process_correct_transcript_scores_without_executing(schemas, monkeypatch):
    schema = schemas["battle_death"]
    correct = run_example(schema, GOLD_BELOW_100)
    failed = run_example(schema, WRONG)
    assert correct.judgment.equivalent and not failed.judgment.equivalent
    calls = counting_executions(monkeypatch)

    report = score([correct], [ship_example(0)], schemas)
    assert report.overall == 1.0
    assert calls == []

    # A failure is triaged from the outcomes the pipeline kept.
    report = score([failed], [ship_example(0)], schemas)
    assert report.overall == 0.0
    assert calls == []

    score(round_tripped([failed]), [ship_example(0)], schemas)
    assert calls == [("battle_death", GOLD), ("battle_death", WRONG)]


def test_transcripts_read_back_or_changed_execute_as_before(schemas, monkeypatch):
    schema = schemas["battle_death"]
    calls = counting_executions(monkeypatch)
    correct = run_example(schema, GOLD_BELOW_100)
    calls.clear()

    (read_back,) = round_tripped([correct])
    assert read_back.judgment is None
    assert score([read_back], [ship_example(0)], schemas).overall == 1.0
    assert calls == [("battle_death", GOLD), ("battle_death", GOLD_BELOW_100)]

    calls.clear()
    other_gold = dataclasses.replace(ship_example(0), gold_sql=GOLD + " ORDER BY id")
    assert score([correct], [other_gold], schemas).overall == 1.0
    assert len(calls) == 2

    calls.clear()
    correct.final_sql = WRONG
    report = score([correct], [ship_example(0)], schemas, with_triage=False)
    assert report.overall == 0.0
    assert calls == [("battle_death", GOLD), ("battle_death", WRONG)]


def test_database_rewritten_between_run_and_score_is_judged_again(tmp_path, monkeypatch):
    path = tmp_path / "battle_death" / "battle_death.sqlite"
    path.parent.mkdir()
    schema = schema_from_tables_entry(build_ships_db(path), tmp_path)
    correct = run_example(schema, GOLD_BELOW_100)
    assert correct.judgment is not None
    before = path.stat()
    conn = sqlite3.connect(path)
    conn.execute(
        "INSERT INTO ship VALUES (200, 200, ?, '1', 'brig', 'baltic', 'sank')", ("x" * 8000,)
    )
    conn.commit()
    conn.close()
    after = path.stat()
    assert (after.st_mtime_ns, after.st_size) != (before.st_mtime_ns, before.st_size)

    calls = counting_executions(monkeypatch)
    report = score([correct], [ship_example(0)], {"battle_death": schema}, with_triage=False)
    assert report.overall == 0.0  # ship 200 sank, and id < 100 leaves it out
    assert calls == [("battle_death", GOLD), ("battle_death", GOLD_BELOW_100)]


def test_report_with_judgments_equals_report_without_them(loaded, monkeypatch):
    by_question = {ex.question: ex.gold_sql for ex in loaded.examples}
    wrong = {ex.question for ex in loaded.examples[::3]}

    def reply(request):
        question = question_of(request)
        return WRONG if question in wrong else by_question[question]

    generator, corrector = (
        ModelEndpoint(role, ScriptedTransport(reply), role) for role in ("generator", "corrector")
    )
    transcripts = run_many(loaded.examples, loaded.schemas, PipelineConfig(), generator, corrector)
    # Every non-fault transcript carries a judgment, equivalent or not.
    assert all(t.judgment is not None for t in transcripts if t.final_verdict is not Verdict.FAULT)
    equivalent = sum(t.judgment is not None and t.judgment.equivalent for t in transcripts)
    assert 0 < equivalent < len(transcripts)

    calls = counting_executions(monkeypatch)
    fresh = score(round_tripped(transcripts), loaded.examples, loaded.schemas)
    fresh_calls = len(calls)
    calls.clear()
    reused = score(transcripts, loaded.examples, loaded.schemas)
    assert json.dumps(reused.results_payload()) == json.dumps(fresh.results_payload())
    assert 0 < fresh.overall < 1
    assert len(calls) < fresh_calls
    # Only triage probes execute: no gold and no final SQL of a judged transcript.
    judged = {(t.db_id, sql) for t in transcripts for sql in (t.gold_sql, t.final_sql)}
    assert not judged & set(calls)


def test_score_parses_only_final_sql_and_reports_as_without_gold_trees(loaded, monkeypatch):
    golds_by_db: dict[str, list[str]] = {}
    for ex in loaded.examples:
        golds_by_db.setdefault(ex.db_id, []).append(ex.gold_sql)

    def final_sql(i, ex):
        golds = golds_by_db[ex.db_id]
        if i % 3 == 0:
            return ex.gold_sql
        if i % 3 == 1:  # another gold of the same database
            return golds[(golds.index(ex.gold_sql) + 1) % len(golds)]
        return ex.gold_sql + " WHERE"  # does not parse

    transcripts = [
        PipelineTranscript(
            example_id=ex.id, db_id=ex.db_id, question=ex.question, gold_sql=ex.gold_sql,
            stages=[], final_sql=final_sql(i, ex), final_verdict=Verdict.CORRECT_FIRST_SHOT,
        )
        for i, ex in enumerate(loaded.examples)
    ]
    parsed = []
    real_parse = evaluate.parse

    def counting_parse(sql, schema):
        parsed.append(sql)
        return real_parse(sql, schema)

    monkeypatch.setattr(evaluate, "parse", counting_parse)
    report = score(transcripts, loaded.examples, loaded.schemas)
    by_id = {t.example_id: t for t in transcripts}
    assert sorted(parsed) == sorted(by_id[i].final_sql for i in report.verdicts)
    categories = {v.subtag for v in report.verdicts.values()}
    assert "ParseError" in categories and len(categories) > 1

    bare = [dataclasses.replace(ex, gold_ast=None) for ex in loaded.examples]
    assert all(ex.gold_ast is not None for ex in loaded.examples)
    rebuilt = score(transcripts, bare, loaded.schemas)
    assert json.dumps(rebuilt.results_payload()) == json.dumps(report.results_payload())
    assert [(i, v.to_json()) for i, v in rebuilt.verdicts.items()] == [
        (i, v.to_json()) for i, v in report.verdicts.items()
    ]


def test_judgment_is_invisible_to_equality_repr_and_json(schemas):
    for final_sql, equivalent in ((GOLD_BELOW_100, True), (WRONG, False)):
        in_process = run_example(schemas["battle_death"], final_sql)
        (read_back,) = round_tripped([in_process])
        assert in_process.judgment.equivalent is equivalent and read_back.judgment is None
        assert in_process == read_back
        assert repr(in_process) == repr(read_back)
        assert json.dumps(in_process.to_json()) == json.dumps(read_back.to_json())
        assert "judgment" not in in_process.to_json()


# --------------------------------------------------------------------------- handed-over failures

# Four ships are not sunk, one more than GOLD returns.
NOT_SUNK = "SELECT name FROM ship WHERE disposition_of_ship != 'sank'"


def run_stages(schema, script, example=None):
    """The in-process transcript of one example, one reply per stage."""
    generator, corrector = scripted_endpoints(script)
    return run_pipeline(example or ship_example(0), schema, PipelineConfig(), generator, corrector)


def test_in_process_failure_is_triaged_from_the_pipeline_outcomes(schemas, monkeypatch):
    example = student_example(0)
    failed = run_example(schemas["student_course"], GROUPED_BY_ID_SQL, example)
    assert failed.final_verdict is Verdict.FAILED and not failed.judgment.equivalent
    calls = counting_executions(monkeypatch)
    fresh = score(round_tripped([failed]), [example], schemas)
    own = [("student_course", GROUPED_BY_NAME_SQL), ("student_course", GROUPED_BY_ID_SQL)]
    assert calls[:2] == own
    probes = calls[2:]
    assert probes and not set(probes) & set(own)

    calls.clear()
    compared = []
    monkeypatch.setattr(evaluate, "tables_equivalent", lambda *tables: compared.append(tables))
    handed = score([failed], [example], schemas)
    assert calls == probes  # the tie probe still runs, through the group memo
    assert compared == []
    assert handed.verdicts[0].subtag == "TieAmbiguity"
    assert handed.verdicts[0].to_json() == fresh.verdicts[0].to_json()
    assert json.dumps(handed.results_payload()) == json.dumps(fresh.results_payload())


def _score_student_pair(schemas, monkeypatch, pred, gold):
    """``score`` of one failed student_course example, and the executions."""
    example = dataclasses.replace(student_example(0), gold_sql=gold)
    failed = dataclasses.replace(
        transcript(0, pred, Verdict.FAILED), db_id="student_course", gold_sql=gold
    )
    calls = counting_executions(monkeypatch)
    return score([failed], [example], schemas), calls


ENROLMENTS_BY_COURSE = "SELECT student_course_id FROM student_enrolment_courses ORDER BY course_id"


def test_prediction_that_keeps_other_tied_rows_costs_no_tie_probe(schemas, monkeypatch):
    # Courses 1 to 5 have four enrolments each, so LIMIT 2 cuts a tie on course_id.
    gold = f"{ENROLMENTS_BY_COURSE} LIMIT 2"
    pred = f"{ENROLMENTS_BY_COURSE}, student_course_id DESC LIMIT 2"
    report, calls = _score_student_pair(schemas, monkeypatch, pred, gold)
    assert report.verdicts[0].subtag == "TieAmbiguity"
    # The prediction sorts the gold's own rows and keeps others: the tie is
    # read from the two tables.
    assert calls == [("student_course", gold), ("student_course", pred)]


def test_prediction_that_reorders_a_tie_inside_the_cut_costs_the_golds_probe(
    schemas, monkeypatch
):
    # Course 1's four enrolments fill LIMIT 4: both queries keep those rows,
    # in other orders, and the tie ends at the cut.
    gold = f"{ENROLMENTS_BY_COURSE} LIMIT 4"
    pred = f"{ENROLMENTS_BY_COURSE}, student_course_id DESC LIMIT 4"
    report, calls = _score_student_pair(schemas, monkeypatch, pred, gold)
    assert report.verdicts[0].category is not Category.DATASET_INCONSISTENCY
    assert calls[:2] == [("student_course", gold), ("student_course", pred)]
    (probe,) = calls[2:]  # the gold's; the prediction sorts the gold's own rows
    assert probe[1].endswith("LIMIT 5") and "DESC" not in probe[1]


def test_failure_with_changed_sql_executes_as_before(schemas, monkeypatch):
    failed = run_example(schemas["battle_death"], WRONG)
    calls = counting_executions(monkeypatch)

    other_gold = dataclasses.replace(ship_example(0), gold_sql=WRONG)
    assert score([failed], [other_gold], schemas, with_triage=False).overall == 1.0
    assert calls == [("battle_death", WRONG)]  # one memo entry serves both texts

    calls.clear()
    failed.final_sql = GOLD_BELOW_100
    assert score([failed], [ship_example(0)], schemas, with_triage=False).overall == 1.0
    assert calls == [("battle_death", GOLD), ("battle_death", GOLD_BELOW_100)]


def test_failure_on_a_rewritten_database_is_judged_again(tmp_path, monkeypatch):
    path = tmp_path / "battle_death" / "battle_death.sqlite"
    path.parent.mkdir()
    schema = schema_from_tables_entry(build_ships_db(path), tmp_path)
    failed = run_example(schema, WRONG)
    assert not failed.judgment.equivalent
    before = path.stat()
    conn = sqlite3.connect(path)
    conn.execute("DELETE FROM ship WHERE disposition_of_ship IN ('sank', 'captured')")
    conn.execute(
        "INSERT INTO ship VALUES (200, 200, ?, '1', 'brig', 'baltic', 'lost')", ("x" * 8000,)
    )
    conn.commit()
    conn.close()
    after = path.stat()
    assert (after.st_mtime_ns, after.st_size) != (before.st_mtime_ns, before.st_size)

    calls = counting_executions(monkeypatch)
    report = score([failed], [ship_example(0)], {"battle_death": schema}, with_triage=False)
    assert report.overall == 1.0  # both queries now return no row
    assert calls == [("battle_death", GOLD), ("battle_death", WRONG)]


def test_timed_out_final_sql_is_not_handed_over(schemas, monkeypatch):
    original = execution.execute

    def timing_out(sql, schema, *args):
        if sql == WRONG:
            return execution.ExecOutcome(timed_out=True)
        return original(sql, schema, *args)

    monkeypatch.setattr(execution, "execute", timing_out)
    failed = run_example(schemas["battle_death"], WRONG)
    assert failed.stages[-1].execution == {"kind": "timeout"}
    assert failed.judgment is None

    calls = counting_executions(monkeypatch)
    report = score([failed], [ship_example(0)], schemas)
    assert report.verdicts[0].subtag == "Timeout"  # it times out again
    assert calls == [("battle_death", GOLD), ("battle_death", WRONG)]


@pytest.mark.parametrize(
    "final_sql",
    ["SELECT s.name FROM ship AS s WHERE s.disposition_of_ship = 'sank'", WRONG],
    ids=["gold-with-an-alias", "wrong-literal"],
)
def test_a_timed_out_prediction_is_unclassifiable_not_blamed(schemas, monkeypatch, final_sql):
    # Neither the dataset (the first is the gold up to its alias) nor the
    # model (the second differs in a literal) is to blame for a timeout.
    original = execution.execute

    def timing_out(sql, schema, *args):
        if sql == final_sql:
            return execution.ExecOutcome(timed_out=True)
        return original(sql, schema, *args)

    monkeypatch.setattr(execution, "execute", timing_out)
    failed = transcript(0, final_sql, verdict=Verdict.FAILED)
    report = score([failed], [ship_example(0)], schemas)
    assert report.overall == 0.0
    verdict = report.verdicts[0]
    assert (verdict.category, verdict.subtag, verdict.confidence) == (
        Category.UNCLASSIFIABLE, "Timeout", "definite"
    )
    assert verdict.evidence == {"sql": final_sql, "timeout_seconds": execution.TIMEOUT_SECONDS}


@pytest.mark.parametrize(
    "final_sql, memo_max_rows", [(WRONG, 2), (NOT_SUNK, 3)], ids=["gold", "final"]
)
def test_table_above_memo_max_rows_is_not_handed_over(
    schemas, monkeypatch, final_sql, memo_max_rows
):
    # GOLD returns 3 rows, WRONG 2 and NOT_SUNK 4.
    monkeypatch.setattr(execution, "MEMO_MAX_ROWS", memo_max_rows)
    failed = run_example(schemas["battle_death"], final_sql)
    assert failed.final_verdict is Verdict.FAILED and failed.judgment is None

    calls = counting_executions(monkeypatch)
    score([failed], [ship_example(0)], schemas, with_triage=False)
    assert calls == [("battle_death", GOLD), ("battle_death", final_sql)]


def test_read_back_transcripts_run_a_gold_past_the_memo_bound_once_with_its_respelling(
    schemas, monkeypatch, tmp_path
):
    from test_pipeline import RESPELLED_GOLD

    monkeypatch.setattr(execution, "MEMO_MAX_ROWS", 2)  # GOLD returns 3 rows
    path = tmp_path / "transcripts.jsonl"
    write_transcripts([transcript(i, RESPELLED_GOLD) for i in range(2)], path)
    read_back = read_transcripts(path)
    assert [t.judgment for t in read_back] == [None, None]

    calls = counting_executions(monkeypatch)
    report = score(read_back, [ship_example(0), ship_example(1)], schemas)
    assert report.overall == 1.0
    assert calls == [("battle_death", GOLD)]


def test_later_stage_with_sql_replaces_the_judgment_and_without_sql_keeps_it(
    schemas, monkeypatch
):
    schema = schemas["battle_death"]
    replaced = run_stages(schema, {"zero_shot": WRONG, "example_1": NOT_SUNK, "error": "No."})
    kept = run_stages(schema, {"zero_shot": WRONG, "example_1": "No.", "error": "Sorry."})
    assert [s.sql for s in replaced.stages] == [WRONG, NOT_SUNK, None]
    assert [s.sql for s in kept.stages] == [WRONG, None, None]
    assert (replaced.judgment.final_sql, kept.judgment.final_sql) == (NOT_SUNK, WRONG)
    assert len(replaced.judgment.final.table.rows) == 4

    # A later table too large to keep drops the earlier judgment with it.
    monkeypatch.setattr(execution, "MEMO_MAX_ROWS", 3)
    dropped = run_stages(schema, {"zero_shot": WRONG, "example_1": NOT_SUNK, "error": "No."})
    assert dropped.final_sql == NOT_SUNK and dropped.judgment is None
    monkeypatch.undo()

    calls = counting_executions(monkeypatch)
    report = score([replaced], [ship_example(0)], schemas)
    assert (report.overall, calls) == (0.0, [])
    report = score([kept], [ship_example(0)], schemas)
    assert (report.overall, calls) == (0.0, [])


def test_markdown_report_pins_both_triage_tables_byte_for_byte(schemas):
    wrong_column = "SELECT id FROM ship WHERE disposition_of_ship = 'sank'"
    finals = [GOLD, WRONG, WRONG, wrong_column, "SELECT bogus FROM nowhere"]
    examples = [ship_example(i, Hardness.EASY if i % 2 else Hardness.HARD) for i in range(5)]
    report = score([transcript(i, sql) for i, sql in enumerate(finals)], examples, schemas)
    report.metadata = {"endpoints": ["generator"]}
    assert render_report_markdown(report) == MARKDOWN_REPORT
    empty = score([transcript(0, GOLD)], [ship_example(0)], schemas)
    assert render_report_markdown(empty).endswith(
        "## Failure triage\n\nNo failures to triage.\n"
    )


MARKDOWN_REPORT = """\
# Execution accuracy report

|  | Easy | Medium | Hard | Extra | All |
|---|---|---|---|---|---|
| Count | 2 | 0 | 3 | 0 | 5 |
| Exec Accuracy | 0.000 | 0.000 | 0.333 | 0.000 | 0.200 |

Quarantined examples: 0
Harness faults: 0

## Pipeline stage outcomes

- correct_first_shot: 5

## Failure triage

| Category | Count | Fraction |
|---|---|---|
| PredictedValues | 2 | 0.500 |
| SelectColumns | 1 | 0.250 |
| Unclassifiable | 1 | 0.250 |

| Subtag | Count | Fraction |
|---|---|---|
| PredictedValues | 2 | 0.500 |
| SelectColumns.WrongColumn | 1 | 0.250 |
| Unclassifiable.ParseError | 1 | 0.250 |

## Metadata

- endpoints: ['generator']
"""


def test_read_back_transcript_whose_gold_errors_at_score_time_counts_wrong(schemas):
    # The gold of a read-back transcript (no judgment) runs at score time; an
    # engine error there leaves nothing to compare or triage against.
    example = dataclasses.replace(ship_example(0), gold_sql="SELECT name FROM nowhere")
    read_back = dataclasses.replace(transcript(0, GOLD), gold_sql=example.gold_sql)
    assert read_back.judgment is None
    report = score([read_back], [example], schemas)
    assert (report.overall, report.verdicts) == (0.0, {})


def test_read_back_transcript_whose_gold_is_truncated_counts_wrong_without_a_verdict(
    schemas, monkeypatch
):
    # As ``run`` makes such an example a FAULT, a gold cut at the row cap
    # judges nothing: it is not compared, and the prediction is not triaged.
    monkeypatch.setattr(execution, "MAX_ROWS", 2)
    gold = "SELECT name FROM singer"  # 3 rows
    report = score_pairs([("concert_singer", f"{gold} WHERE age > 29", gold)], schemas)
    assert (report.overall, report.verdicts) == (0.0, {})


def test_left_join_against_an_inner_join_gold_scores_wrong_as_join_clauses(schemas):
    gold = (
        "SELECT T1.concert_name, T2.singer_id FROM concert AS T1 "
        "JOIN singer_in_concert AS T2 ON T1.concert_id = T2.concert_id"
    )
    example = SpiderExample(
        id=0, question="q0", db_id="concert_singer", gold_sql=gold, hardness=Hardness.MEDIUM
    )
    pred = PipelineTranscript(
        example_id=0, db_id="concert_singer", question="q0", gold_sql=gold, stages=[],
        final_sql=gold.replace(" JOIN ", " LEFT JOIN "), final_verdict=Verdict.CORRECT_FIRST_SHOT,
    )
    report = score([pred], [example], schemas)
    assert report.overall == 0.0
    verdict = report.verdicts[0]
    assert (verdict.category, verdict.subtag) == (Category.JOIN_CLAUSES, "Extra")


# --------------------------------------------------------------------------- reused verdicts

def spying(monkeypatch, name) -> list[tuple]:
    """Record the arguments of every call to ``evaluate.<name>``."""
    calls = []
    original = getattr(evaluate, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evaluate, name, spy)
    return calls


def verdict_lines(report) -> list[str]:
    """The report's verdicts JSONL lines, each without its example id."""
    return [
        json.dumps({**json.loads(line), "example_id": None})
        for line in evaluate.render_verdicts_jsonl(report).splitlines()
    ]


def test_a_repeated_failure_is_triaged_once_per_gold_group(schemas, monkeypatch):
    triaged = spying(monkeypatch, "triage")
    examples = [ship_example(0), ship_example(1)]
    transcripts = [transcript(i, WRONG, Verdict.FAILED) for i in range(2)]
    report = score(transcripts, examples, schemas)
    assert len(triaged) == 1
    first, second = verdict_lines(report)
    assert first == second
    assert report.triage_distribution["total"] == 2


def test_different_failures_in_a_group_are_triaged_apart(schemas, monkeypatch):
    triaged = spying(monkeypatch, "triage")
    examples = [ship_example(0), ship_example(1)]
    transcripts = [transcript(0, WRONG, Verdict.FAILED), transcript(1, NOT_SUNK, Verdict.FAILED)]
    score(transcripts, examples, schemas)
    assert len(triaged) == 2


def test_a_repeated_unparseable_failure_is_parsed_once(schemas, monkeypatch):
    bogus = "SELECT bogus FROM nowhere"
    parsed = spying(monkeypatch, "parse")
    examples = [ship_example(i) for i in range(3)]
    transcripts = [transcript(i, bogus, Verdict.FAILED) for i in range(3)]
    report = score(transcripts, examples, schemas)
    assert [args[0] for args in parsed] == [bogus]
    assert {v.subtag for v in report.verdicts.values()} == {"ParseError"}
    assert len(set(verdict_lines(report))) == 1


def test_a_timed_out_failure_keeps_its_own_verdict(schemas, monkeypatch):
    # The first run of WRONG times out; the memo keeps no timeout, so the
    # second example runs it again, is triaged, and the third reuses that.
    original = execution.execute
    timeouts = [WRONG]

    def timing_out_once(sql, schema, *args):
        if sql in timeouts:
            timeouts.remove(sql)
            return execution.ExecOutcome(timed_out=True)
        return original(sql, schema, *args)

    monkeypatch.setattr(execution, "execute", timing_out_once)
    triaged = spying(monkeypatch, "triage")
    examples = [ship_example(i) for i in range(3)]
    transcripts = [transcript(i, WRONG, Verdict.FAILED) for i in range(3)]
    report = score(transcripts, examples, schemas)
    assert [(v.category.value, v.subtag) for v in report.verdicts.values()] == [
        ("Unclassifiable", "Timeout"), ("PredictedValues", None), ("PredictedValues", None)
    ]
    assert len(triaged) == 1


def test_a_failure_after_its_database_was_replaced_is_triaged_again(tmp_path, monkeypatch):
    schema = _numbers_db(tmp_path / "n.sqlite", [1, 2])
    gold, wrong = "SELECT n FROM t ORDER BY n", "SELECT n FROM t WHERE n > 1 ORDER BY n"
    examples = [
        SpiderExample(id=i, question=f"q{i}", db_id="numbers", gold_sql=gold,
                      hardness=Hardness.EASY)
        for i in range(2)
    ]
    transcripts = [
        PipelineTranscript(
            example_id=i, db_id="numbers", question=f"q{i}", gold_sql=gold, stages=[],
            final_sql=wrong, final_verdict=Verdict.FAILED,
        )
        for i in range(2)
    ]
    original = evaluate._score_one

    def replacing(transcript, *args):
        if transcript.example_id == 1:
            _numbers_db(tmp_path / "other.sqlite", [1, 1, 5, 9])
            os.replace(tmp_path / "other.sqlite", tmp_path / "n.sqlite")
        return original(transcript, *args)

    monkeypatch.setattr(evaluate, "_score_one", replacing)
    triaged = spying(monkeypatch, "triage")
    report = evaluate.score(transcripts, examples, {"numbers": schema})
    assert len(triaged) == 2
    rows = [(v.evidence["pred_rows"], v.evidence["gold_rows"]) for v in report.verdicts.values()]
    assert rows == [(1, 2), (2, 4)]


SINGER_TIE_GOLD = "SELECT name FROM singer ORDER BY country DESC LIMIT 1"
SINGER_TIE_PRED = "SELECT name FROM singer WHERE age < 40 ORDER BY country DESC LIMIT 1"


def test_a_verdict_a_probe_timeout_shaped_is_triaged_again(schemas, monkeypatch):
    # The first tie probe times out, so the first triage finds no tie; the
    # second example is triaged again and the third reuses its verdict.
    original = execution.execute
    timed_out = []

    def timing_out_once(sql, schema, *args):
        if "LIMIT 2" in sql and not timed_out:
            timed_out.append(sql)
            return execution.ExecOutcome(timed_out=True)
        return original(sql, schema, *args)

    monkeypatch.setattr(execution, "execute", timing_out_once)
    triaged = spying(monkeypatch, "triage")
    examples = [
        SpiderExample(id=i, question=f"q{i}", db_id="concert_singer",
                      gold_sql=SINGER_TIE_GOLD, hardness=Hardness.HARD)
        for i in range(3)
    ]
    transcripts = [
        PipelineTranscript(
            example_id=i, db_id="concert_singer", question=f"q{i}", gold_sql=SINGER_TIE_GOLD,
            stages=[], final_sql=SINGER_TIE_PRED, final_verdict=Verdict.FAILED,
        )
        for i in range(3)
    ]
    report = score(transcripts, examples, schemas)
    assert len(timed_out) == 1
    assert len(triaged) == 2
    subtags = [v.subtag for v in report.verdicts.values()]
    assert subtags[0] != "TieAmbiguity"
    assert subtags[1:] == ["TieAmbiguity", "TieAmbiguity"]


@pytest.mark.parametrize("in_process_first", [True, False], ids=["in-process", "read-back"])
def test_in_process_and_read_back_failures_give_the_same_verdict_bytes(
    schemas, tmp_path, in_process_first
):
    in_process = run_example(schemas["battle_death"], WRONG, ship_example(0))
    assert not in_process.judgment.equivalent
    path = tmp_path / "transcripts.jsonl"
    write_transcripts([run_example(schemas["battle_death"], WRONG, ship_example(1))], path)
    (read_back,) = read_transcripts(path)
    assert read_back.judgment is None and read_back.final_sql == WRONG
    pair = [in_process, read_back] if in_process_first else [read_back, in_process]
    together = score(pair, [ship_example(0), ship_example(1)], schemas)
    alone = [score([t], [ship_example(t.example_id)], schemas) for t in pair]
    lines = verdict_lines(together)
    assert lines[0] == lines[1]
    assert lines == [line for report in alone for line in verdict_lines(report)]
