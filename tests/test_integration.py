"""Wider integration passes over generated inputs."""

from __future__ import annotations

import json

from nl2sql.dataset import load_dataset
from nl2sql.execution import OutcomeMemo, execute
from nl2sql.hardness import Hardness
from nl2sql.sqlast import parse
from nl2sql.triage import suspect_gold_check

from conftest import make_dataset
from helpers import generate_corpus, tie_test


def test_ingesting_a_large_generated_split(tmp_path, schemas):
    corpus = generate_corpus(schemas)
    examples = [
        {"db_id": db_id, "question": f"generated question {i}", "query": sql}
        for i, (db_id, sql) in enumerate(corpus)
    ]
    # sprinkle in entries that must be quarantined, not dropped
    examples.append({"db_id": "missing_db", "question": "bad", "query": "SELECT 1"})
    examples.append({"db_id": "battle_death", "question": "broken", "query": "SELECT ??"})
    root = make_dataset(
        tmp_path / "big", examples,
        db_ids=["battle_death", "car_1", "concert_singer", "dog_kennels", "student_course"],
    )
    loaded = load_dataset(root, "dev")
    assert loaded.raw_count == len(examples)
    assert len(loaded.quarantined) == 2
    assert len(loaded.examples) == len(corpus)
    profile = loaded.hardness_profile()
    assert sum(profile.values()) == len(corpus)
    assert profile[Hardness.EASY] > 0
    assert profile[Hardness.MEDIUM] > 0
    assert profile[Hardness.HARD] > 0


def test_generated_corpus_all_executes(schemas):
    # every generated gold query must actually run on its fixture database
    for db_id, sql in generate_corpus(schemas):
        outcome = execute(sql, schemas[db_id])
        assert outcome.table is not None, (sql, outcome.error)


def test_parse_supports_ordered_limited_subquery(schemas):
    schema = schemas["concert_singer"]
    ast = parse(
        "SELECT name FROM singer WHERE singer_id IN "
        "(SELECT singer_id FROM singer_in_concert ORDER BY singer_id DESC LIMIT 1)",
        schema,
    )
    inner = ast.where.query
    assert inner.limit == 1
    assert inner.order_by[0].descending


def test_suspect_gold_fires_with_aliased_sources(schemas):
    schema = schemas["dog_kennels"]
    gold = (
        "SELECT DISTINCT T1.first_name, T1.last_name "
        "FROM Professionals AS T1 JOIN Treatments AS T2 "
        "WHERE T2.cost_of_treatment < (SELECT avg(cost_of_treatment) FROM Treatments)"
    )
    gold_ast = parse(gold, schema)
    gold_table = execute(gold, schema).table
    evidence = suspect_gold_check(gold_ast, gold_table, OutcomeMemo(schema))
    assert evidence is not None
    assert "T1" in evidence["repaired_sql"] or "t1" in evidence["repaired_sql"].lower()
    repaired_outcome = execute(evidence["repaired_sql"], schema)
    assert repaired_outcome.table is not None
    assert len(repaired_outcome.table.rows) == evidence["repaired_rows"]


def test_tie_test_at_limit_two_boundary(schemas):
    schema = schemas["student_course"]
    # five groups tie at the top, so LIMIT 2 also cuts through the tie
    pred = (
        "SELECT course_id FROM student_enrolment_courses "
        "GROUP BY course_id ORDER BY count(*) DESC LIMIT 2"
    )
    gold = (
        "SELECT course_id FROM student_enrolment_courses "
        "GROUP BY course_id ORDER BY count(student_course_id) DESC LIMIT 2"
    )
    assert tie_test(parse(pred, schema), parse(gold, schema), schema) is True


def test_tie_test_false_when_limit_swallows_the_tie(schemas):
    schema = schemas["student_course"]
    # LIMIT 6 returns every group: nothing ambiguous about the cut
    pred = (
        "SELECT course_id FROM student_enrolment_courses "
        "GROUP BY course_id ORDER BY count(*) DESC LIMIT 6"
    )
    assert (
        tie_test(parse(pred, schema), parse(pred, schema), schema) is False
    )


def test_transcript_stream_is_valid_jsonl_end_to_end(tmp_path, schemas):
    from nl2sql.dataset import SpiderExample
    from nl2sql.llm import ModelEndpoint
    from nl2sql.pipeline import PipelineConfig, run_many, write_transcripts
    from helpers import ScriptedTransport

    examples = [
        SpiderExample(id=i, question=f"q{i}", db_id="battle_death",
                      gold_sql="SELECT name FROM ship", hardness=Hardness.EASY)
        for i in range(6)
    ]
    generator = ModelEndpoint(
        "generator", ScriptedTransport(lambda r: "SELECT name FROM ship"), "m"
    )
    corrector = ModelEndpoint(
        "corrector", ScriptedTransport(lambda r: "SELECT name FROM ship"), "fix"
    )
    transcripts = run_many(examples, schemas, PipelineConfig(), generator, corrector, workers=3)
    out = tmp_path / "t.jsonl"
    write_transcripts(transcripts, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    for line in lines:
        record = json.loads(line)
        assert record["final_verdict"] == "correct_first_shot"
