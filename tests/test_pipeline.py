from __future__ import annotations

import json
import re
from dataclasses import dataclass

import pytest

from nl2sql.dataset import SpiderExample
from nl2sql.errors import NoSqlFoundError
from nl2sql.execution import ExecOutcome, execute
from nl2sql.hardness import Hardness
from nl2sql.llm import ModelEndpoint, ReplayTransport, RecordingTransport
from nl2sql.mdtable import render_markdown
from nl2sql.pipeline import (
    PipelineConfig,
    PipelineTranscript,
    StageRecord,
    Verdict,
    extract_sql,
    read_transcripts,
    run_many,
    run_pipeline,
    write_transcripts,
)
from nl2sql.prompts import CORRECTOR_SYSTEM_PROMPT
from nl2sql.schema import _json_reader

from helpers import CountingTransport, ScriptedTransport

GOLD = "SELECT name FROM ship WHERE disposition_of_ship = 'sank'"
WRONG = "SELECT name FROM ship WHERE disposition_of_ship = 'captured'"
BROKEN = "SELECT name FROM shipz"
SENTINEL = "field-note: the heron flies at dawn"


def example(question="Which ships sank?", id=0):
    return SpiderExample(
        id=id, question=question, db_id="battle_death", gold_sql=GOLD, hardness=Hardness.EASY
    )


def question_of(request) -> str:
    first_user = next(m for m in request["messages"] if m["role"] == "user")
    match = re.search(r"### Question: (.*)", first_user["content"])
    return match.group(1) if match else ""


def stage_of(request) -> str:
    system = request["messages"][0]["content"]
    if system == CORRECTOR_SYSTEM_PROMPT:
        return "error"
    rounds = sum(1 for m in request["messages"] if m["role"] == "assistant")
    return "zero_shot" if rounds == 0 else f"example_{rounds}"


def scripted_endpoints(script):
    """script: {(stage) -> reply text}; same replies for any question."""

    def reply(request):
        return script[stage_of(request)]

    generator = ModelEndpoint("generator", ScriptedTransport(reply), "gen-model")
    corrector = ModelEndpoint("corrector", ScriptedTransport(reply), "fix-model")
    return generator, corrector


# --------------------------------------------------------------------------- extract_sql

def test_extract_plain_query_unchanged():
    assert extract_sql(GOLD) == GOLD


def test_extract_from_fenced_block_with_trailing_prose():
    reply = f"Here you go:\n```sql\n{GOLD}\n```\nThis filters by disposition."
    assert extract_sql(reply) == GOLD


def test_extract_skeleton_then_query_takes_the_query():
    reply = f"SELECT _ FROM _ WHERE _ = _ ||| {GOLD}"
    assert extract_sql(reply) == GOLD


def test_extract_cuts_at_semicolon():
    assert extract_sql(f"{GOLD}; hope that helps!") == GOLD
    # A semicolon inside a string literal does not end the statement.
    in_literal = "SELECT name FROM singer WHERE name = 'a;b'"
    assert extract_sql(in_literal) == in_literal
    assert extract_sql(f"{in_literal}; that is all.") == in_literal


@pytest.mark.parametrize(
    "reply, sql",
    [
        ("SELECT name -- first; then the rest\nFROM singer;",
         "SELECT name -- first; then the rest\nFROM singer"),
        ("SELECT name /* a; b */ FROM singer", "SELECT name /* a; b */ FROM singer"),
        ("SELECT name /* a;\nb */ FROM singer; done.", "SELECT name /* a;\nb */ FROM singer"),
        ("Here:\n```sql\nSELECT name -- a; b\nFROM singer /* c; d */;\n```\nA ; after.",
         "SELECT name -- a; b\nFROM singer /* c; d */"),
        # Comment openers inside quotes are text.
        ("SELECT name FROM singer WHERE name = 'a--b'; x",
         "SELECT name FROM singer WHERE name = 'a--b'"),
    ],
)
def test_extract_skips_semicolons_inside_comments(reply, sql):
    assert extract_sql(reply) == sql


def test_extract_cuts_at_blank_line():
    assert extract_sql(f"{GOLD}\n\nExplanation follows here.") == GOLD


@pytest.mark.parametrize(
    "reply, sql",
    [
        # A blank line inside a block comment or a string literal is text.
        ("SELECT name /* one\n\ntwo */ FROM singer", "SELECT name /* one\n\ntwo */ FROM singer"),
        ("SELECT name FROM singer WHERE name = 'a\n\nb'",
         "SELECT name FROM singer WHERE name = 'a\n\nb'"),
        # A line comment ends at its newline, so the blank line after it cuts.
        ("SELECT name -- note\n\nFROM singer", "SELECT name -- note"),
    ],
)
def test_extract_blank_line_cut_skips_comments_and_quotes(reply, sql):
    assert extract_sql(reply) == sql


def test_extract_keeps_blank_line_inside_fenced_block():
    sql = "SELECT name\nFROM singer\n\nWHERE age > 3"
    assert extract_sql(f"```sql\n{sql}\n```") == sql


def test_extract_no_sql_raises():
    with pytest.raises(NoSqlFoundError):
        extract_sql("I am unable to answer that.")


_NOT_SELECT = "extracted text is not a SELECT statement"
_NO_LEX = "extracted text does not tokenize: "


@pytest.mark.parametrize(
    "reply, sql, error",
    [
        ("SELECT a FROM t WHERE b = 'x", None,
         _NO_LEX + "unterminated string literal (at offset 26)"),
        ('SELECT "a FROM t', None, _NO_LEX + "unterminated quoted identifier (at offset 7)"),
        ("SELECT a FROM t /* note", None, _NO_LEX + "unterminated block comment (at offset 16)"),
        ("SELECT 1abc FROM t", None, _NO_LEX + 'unrecognized token: "1abc" (at offset 7)'),
        ("SELECT a FROM t WHERE b = ?", None,
         _NO_LEX + "unexpected character '?' (at offset 26)"),
        # ``\bselect\b`` finds each of these, but the first token is an
        # identifier: ``$`` and NBSP are identifier characters, and
        # ``re.IGNORECASE`` reads U+017F as ``s`` where the tokenizer does not.
        ("select$x FROM t", None, _NOT_SELECT),
        ("SELECT\xa0a FROM t", None, _NOT_SELECT),
        ("ſelect a FROM t", None, _NOT_SELECT),
        ("I cannot answer that.", None, "reply contains no SELECT statement"),
        ("SELECT a FROM t -- the answer", "SELECT a FROM t -- the answer", None),
        ("SELECT a FROM t; That is it.", "SELECT a FROM t", None),
        ("SELECT a FROM t\n\nThis lists every a.", "SELECT a FROM t", None),
        ("Try this:\n```sql\nSELECT a FROM t WHERE b = 1\n```\nIt filters on b.",
         "SELECT a FROM t WHERE b = 1", None),
        ("The select below:\n```\nSELECT a FROM t\n```", "SELECT a FROM t", None),
        ("SELECT _ FROM _ WHERE _ = _ ||| SELECT a FROM t WHERE b = 1",
         "SELECT a FROM t WHERE b = 1", None),
        ("-- note\nSELECT a FROM t", "SELECT a FROM t", None),
        ("SELECT a FROM t WHERE b = 'it''s'", "SELECT a FROM t WHERE b = 'it''s'", None),
        ("select", "select", None),
        # ``str.strip`` takes the trailing vertical tab the tokenizer rejects.
        ("SELECT a FROM t WHERE b = 'a\x0bb' and c = \x0b",
         "SELECT a FROM t WHERE b = 'a\x0bb' and c =", None),
        # A sentence that uses the word ends before the statement's line; a
        # line that ends in '(' does not end one.
        ("Select the names.\nSELECT name FROM singer", "SELECT name FROM singer", None),
        ("We select the names:\nSELECT name FROM singer", "SELECT name FROM singer", None),
        ("SELECT a\nFROM t\nWHERE x IN (\nSELECT b FROM u)",
         "SELECT a\nFROM t\nWHERE x IN (\nSELECT b FROM u)", None),
        ("Select the names.\n\nSELECT name FROM singer", "SELECT name FROM singer", None),
        ("```sql\n-- Select the names.\nSELECT name FROM singer\n```", "SELECT name FROM singer",
         None),
        # Only a sentence before the statement's cut moves its start.
        ("SELECT a FROM t\n\nIt lists a. Also:\nSELECT b FROM t", "SELECT a FROM t", None),
    ],
)
def test_extract_gives_the_sql_or_the_exact_error(reply, sql, error):
    if error is None:
        assert extract_sql(reply) == sql
    else:
        with pytest.raises(NoSqlFoundError) as caught:
            extract_sql(reply)
        assert str(caught.value) == error


# --------------------------------------------------------------------------- stage flows

def test_correct_first_shot_makes_one_call(schemas):
    generator, corrector = scripted_endpoints({"zero_shot": GOLD})
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    assert transcript.final_verdict is Verdict.CORRECT_FIRST_SHOT
    assert transcript.model_calls == 1
    assert transcript.final_sql == GOLD
    assert transcript.stages[0].stage == "zero_shot"


def test_example_round_fixes_wrong_column_value(schemas):
    generator, corrector = scripted_endpoints({"zero_shot": WRONG, "example_1": GOLD})
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    assert transcript.final_verdict is Verdict.CORRECTED_BY_EXAMPLE
    assert transcript.model_calls == 2
    assert transcript.final_sql == GOLD


def test_example_round_shows_exact_gold_markdown(schemas):
    generator, corrector = scripted_endpoints({"zero_shot": WRONG, "example_1": GOLD})
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    gold_table = execute(GOLD, schemas["battle_death"]).table
    expected_markdown = render_markdown(gold_table)
    correction_turn = transcript.stages[1].messages[-1]["content"]
    assert expected_markdown in correction_turn


def test_error_stage_fixes_after_example_fails(schemas):
    generator, corrector = scripted_endpoints(
        {"zero_shot": WRONG, "example_1": WRONG, "error": GOLD}
    )
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    assert transcript.final_verdict is Verdict.CORRECTED_BY_ERROR
    assert transcript.model_calls == 3  # 1 + rounds(1) + 1
    error_stage = transcript.stages[-1]
    assert error_stage.stage == "error_correction"
    assert WRONG in error_stage.messages[-1]["content"]  # the failed SQL is carried


def test_error_prompt_carries_verbatim_engine_error(schemas):
    generator, corrector = scripted_endpoints(
        {"zero_shot": BROKEN, "example_1": BROKEN, "error": GOLD}
    )
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    engine_error = execute(BROKEN, schemas["battle_death"]).error
    error_prompt = transcript.stages[-1].messages[-1]["content"]
    assert engine_error in error_prompt
    assert transcript.final_verdict is Verdict.CORRECTED_BY_ERROR


def test_error_prompt_quotes_the_error_of_the_sql_it_hands_over(schemas):
    # Round 1 replies without SQL, so the corrector gets zero-shot's SQL, and
    # the error quoted with it must be zero-shot's, not round 1's (none).
    generator, corrector = scripted_endpoints(
        {"zero_shot": BROKEN, "example_1": "I cannot help with that.", "error": GOLD}
    )
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    assert [s.stage for s in transcript.stages] == [
        "zero_shot", "example_correction_1", "error_correction"
    ]
    error_prompt = transcript.stages[-1].messages[-1]["content"]
    assert BROKEN in error_prompt
    assert execute(BROKEN, schemas["battle_death"]).error in error_prompt
    assert "It executes" not in error_prompt
    assert transcript.final_verdict is Verdict.CORRECTED_BY_ERROR


def test_error_prompt_says_a_timed_out_query_did_not_finish(schemas, monkeypatch):
    from nl2sql import execution

    def timing_out(sql, schema, *args):
        return ExecOutcome(timed_out=True) if sql == WRONG else execute(sql, schema, *args)

    monkeypatch.setattr(execution, "execute", timing_out)
    generator, corrector = scripted_endpoints(
        {"zero_shot": WRONG, "example_1": WRONG, "error": GOLD}
    )
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    assert transcript.stages[0].execution == {"kind": "timeout"}
    error_prompt = transcript.stages[-1].messages[-1]["content"]
    assert WRONG in error_prompt
    assert "did not finish within the time limit" in error_prompt
    assert "It executes" not in error_prompt
    assert "failed with this error" not in error_prompt
    assert transcript.final_verdict is Verdict.CORRECTED_BY_ERROR


def test_equivalence_failure_without_exec_error_has_no_error_text(schemas):
    generator, corrector = scripted_endpoints(
        {"zero_shot": WRONG, "example_1": WRONG, "error": WRONG}
    )
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    error_prompt = transcript.stages[-1].messages[-1]["content"]
    assert "failed with this error" not in error_prompt
    assert "does not answer the question correctly" in error_prompt
    assert transcript.final_verdict is Verdict.FAILED


def test_error_prompt_is_a_fresh_conversation(schemas):
    wrong_with_prose = f"{WRONG}\n\n{SENTINEL}"
    generator, corrector = scripted_endpoints(
        {"zero_shot": wrong_with_prose, "example_1": wrong_with_prose, "error": GOLD}
    )
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    error_stage = transcript.stages[-1]
    assert len(error_stage.messages) == 2  # system + one user turn
    assert error_stage.messages[0]["content"] == CORRECTOR_SYSTEM_PROMPT
    full_prompt = "\n".join(m["content"] for m in error_stage.messages)
    assert SENTINEL not in full_prompt
    assert WRONG in full_prompt
    # earlier stages did see the sentinel
    assert SENTINEL in transcript.stages[1].reply


def test_correction_lacks_signal_when_filter_column_not_in_output(schemas):
    # The predicted filter value is wrong, but the filtered column never
    # appears in the (count-only) result table, so the shown gold table
    # carries no hint about stored values and the revision stays wrong.
    gold = "SELECT count(*) FROM ship WHERE disposition_of_ship = 'sank'"
    wrong = "SELECT count(*) FROM ship WHERE disposition_of_ship = 'lost'"
    bad_example = SpiderExample(
        id=0, question="How many ships were sunk?", db_id="battle_death",
        gold_sql=gold, hardness=Hardness.EASY,
    )
    generator, corrector = scripted_endpoints(
        {"zero_shot": wrong, "example_1": wrong, "error": wrong}
    )
    transcript = run_pipeline(
        bad_example, schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    assert transcript.final_verdict is Verdict.FAILED
    correction_turn = transcript.stages[1].messages[-1]["content"]
    assert "disposition_of_ship" not in correction_turn  # no value hint available
    assert "count(*)" in correction_turn or "| 3 |" in correction_turn


def test_no_sql_reply_short_circuits_without_extra_calls(schemas):
    generator, corrector = scripted_endpoints({"zero_shot": "cannot help"})
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    assert transcript.final_verdict is Verdict.FAILED
    assert transcript.final_sql is None
    assert transcript.model_calls == 1
    assert transcript.stages[0].extraction_error is not None


def test_round_count_respected(schemas):
    generator, corrector = scripted_endpoints(
        {"zero_shot": WRONG, "example_1": WRONG, "example_2": WRONG, "example_3": GOLD}
    )
    config = PipelineConfig(max_example_correction_rounds=3)
    transcript = run_pipeline(example(), schemas["battle_death"], config, generator, corrector)
    assert transcript.final_verdict is Verdict.CORRECTED_BY_EXAMPLE
    assert transcript.model_calls == 4  # zero shot + three rounds


def test_gold_markdown_rendered_only_for_example_rounds(schemas, monkeypatch):
    import nl2sql.pipeline as pipeline

    rendered = []

    def counting_render(table):
        rendered.append(table)
        return render_markdown(table)

    monkeypatch.setattr(pipeline, "render_markdown", counting_render)
    generator, corrector = scripted_endpoints({"zero_shot": GOLD})
    run_pipeline(example(), schemas["battle_death"], PipelineConfig(), generator, corrector)
    assert rendered == []

    generator, corrector = scripted_endpoints(
        {"zero_shot": WRONG, "example_1": WRONG, "example_2": WRONG, "example_3": GOLD}
    )
    config = PipelineConfig(max_example_correction_rounds=3)
    transcript = run_pipeline(example(), schemas["battle_death"], config, generator, corrector)
    assert len(rendered) == 1
    expected_markdown = render_markdown(rendered[0])
    for stage in transcript.stages[1:]:
        assert expected_markdown in stage.messages[-1]["content"]


def test_zero_rounds_goes_straight_to_error_stage(schemas):
    generator, corrector = scripted_endpoints({"zero_shot": WRONG, "error": GOLD})
    config = PipelineConfig(max_example_correction_rounds=0)
    transcript = run_pipeline(example(), schemas["battle_death"], config, generator, corrector)
    assert transcript.final_verdict is Verdict.CORRECTED_BY_ERROR
    assert [s.stage for s in transcript.stages] == ["zero_shot", "error_correction"]


def test_negative_round_count_is_refused():
    with pytest.raises(ValueError, match="max_example_correction_rounds must be >= 0"):
        PipelineConfig(max_example_correction_rounds=-1)


def test_error_stage_disabled_by_config(schemas):
    generator, corrector = scripted_endpoints({"zero_shot": WRONG, "example_1": WRONG})
    config = PipelineConfig(enable_error_correction=False)
    transcript = run_pipeline(example(), schemas["battle_death"], config, generator, corrector)
    assert transcript.final_verdict is Verdict.FAILED
    assert transcript.model_calls == 2


def test_no_more_calls_after_success(schemas):
    generator, corrector = scripted_endpoints({"zero_shot": GOLD})
    counting = CountingTransport(generator.transport)
    generator.transport = counting
    config = PipelineConfig(max_example_correction_rounds=5)
    run_pipeline(example(), schemas["battle_death"], config, generator, corrector)
    assert counting.calls == 1


def test_gold_execution_failure_is_a_fault_not_a_failure(schemas):
    bad_gold = SpiderExample(
        id=0, question="q", db_id="battle_death",
        gold_sql="SELECT missing_col FROM ship", hardness=Hardness.EASY,
    )
    generator, corrector = scripted_endpoints({"zero_shot": GOLD})
    transcript = run_pipeline(
        bad_gold, schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    assert transcript.final_verdict is Verdict.FAULT
    assert transcript.fault is not None
    assert transcript.model_calls == 0


def test_a_resubmitted_sql_runs_once_per_example_unless_it_timed_out(schemas, monkeypatch):
    from nl2sql import execution

    for times_out in (False, True):
        calls = []

        def counting(sql, schema, *args):
            calls.append(sql)
            if times_out and sql == WRONG:
                return ExecOutcome(timed_out=True)
            return execute(sql, schema, *args)

        monkeypatch.setattr(execution, "execute", counting)
        generator, corrector = scripted_endpoints(
            {"zero_shot": WRONG, "example_1": WRONG, "error": WRONG}
        )
        transcript = run_pipeline(
            example(), schemas["battle_death"], PipelineConfig(), generator, corrector
        )
        assert len(transcript.stages) == 3
        assert calls.count(GOLD) == 1
        assert calls.count(WRONG) == (3 if times_out else 1)


# GOLD as a model may spell it: the same statement, another text.
RESPELLED_GOLD = "select name\nFROM ship where disposition_of_ship = 'sank'"


def counting_executions(monkeypatch) -> list[str]:
    from nl2sql import execution

    calls = []

    def counting(sql, schema, *args):
        calls.append(sql)
        return execute(sql, schema, *args)

    monkeypatch.setattr(execution, "execute", counting)
    return calls


def test_a_respelled_gold_past_the_memo_bound_reuses_the_golds_table(schemas, monkeypatch):
    from nl2sql import execution

    monkeypatch.setattr(execution, "MEMO_MAX_ROWS", 2)  # GOLD returns 3 rows
    calls = counting_executions(monkeypatch)
    generator, corrector = scripted_endpoints({"zero_shot": RESPELLED_GOLD})
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    assert transcript.final_verdict is Verdict.CORRECT_FIRST_SHOT
    assert calls == [GOLD]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_gold_past_the_memo_bound_runs_once_per_group(schemas, monkeypatch, workers):
    from nl2sql import execution

    monkeypatch.setattr(execution, "MEMO_MAX_ROWS", 2)
    calls = counting_executions(monkeypatch)
    generator, corrector = scripted_endpoints({"zero_shot": RESPELLED_GOLD})
    examples = [example(f"Q{i}?", id=i) for i in range(2)]
    transcripts = run_many(
        examples, schemas, PipelineConfig(), generator, corrector, workers=workers
    )
    assert [t.final_verdict for t in transcripts] == [Verdict.CORRECT_FIRST_SHOT] * 2
    assert calls == [GOLD]


def test_an_engine_error_is_not_shared_across_spellings(schemas, monkeypatch):
    calls = counting_executions(monkeypatch)
    lower, upper = "select name from from ship", "SELECT name FROM FROM ship"
    generator, corrector = scripted_endpoints(
        {"zero_shot": lower, "example_1": upper, "error": upper}
    )
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    errors = [stage.execution["error"] for stage in transcript.stages]
    assert [s.stage for s in transcript.stages] == [
        "zero_shot", "example_correction_1", "error_correction"
    ]
    assert 'near "from"' in errors[0]
    assert 'near "FROM"' in errors[1] and errors[2] == errors[1]
    assert 'near "FROM"' in transcript.stages[2].messages[-1]["content"]
    # The exact resubmission is found; the other spelling runs on its own.
    assert calls == [GOLD, lower, upper]


def test_each_correction_prompt_shows_its_own_golds_column_names(schemas):
    golds = ["SELECT count(*) FROM ship", "SELECT COUNT(*) FROM ship"]
    examples = [
        SpiderExample(id=i, question=f"Q{i}?", db_id="battle_death", gold_sql=gold,
                      hardness=Hardness.EASY)
        for i, gold in enumerate(golds)
    ]
    generator, corrector = scripted_endpoints(
        {"zero_shot": WRONG, "example_1": WRONG, "error": WRONG}
    )
    for workers in (1, 2):
        transcripts = run_many(
            examples, schemas, PipelineConfig(), generator, corrector, workers=workers
        )
        for transcript, gold in zip(transcripts, golds):
            prompt = transcript.stages[1].messages[-1]["content"]
            assert f"| {gold.split()[1]} |" in prompt, (workers, gold)


# --------------------------------------------------------------------------- transcripts

def test_transcript_json_round_trip(schemas, tmp_path):
    generator, corrector = scripted_endpoints(
        {"zero_shot": WRONG, "example_1": WRONG, "error": GOLD}
    )
    transcript = run_pipeline(
        example(), schemas["battle_death"], PipelineConfig(), generator, corrector
    )
    path = tmp_path / "t.jsonl"
    write_transcripts([transcript], path)
    loaded_back = read_transcripts(path)
    assert len(loaded_back) == 1
    assert loaded_back[0].to_json() == transcript.to_json()


@dataclass
class Scored:
    name: str
    score: float


@pytest.mark.parametrize(
    "hint", [float, bool, list, set[str], tuple[int, ...], int | str, int | str | None, Scored]
)
def test_reader_refuses_a_declared_type_it_cannot_map(hint):
    with pytest.raises(TypeError, match="no JSON reading for declared type"):
        _json_reader(hint)


@dataclass
class Located:
    at: tuple[int, str]


@dataclass
class Route:
    stops: list[Located]


def test_reader_checks_fixed_length_tuples_objects_and_nested_fields():
    read = _json_reader(Route)
    assert read({"stops": [{"at": [1, "a"]}]}) == Route([Located((1, "a"))])
    for data, message in [
        ({"stops": [{"at": [1, "a", 2]}]}, "field 'stops': field 'at': expected 2 items, got 3"),
        ({"stops": [{"at": [1, 2]}]}, "field 'stops': field 'at': expected str, got int"),
        ({"stops": [{"at": {}}]}, "field 'stops': field 'at': expected list, got dict"),
        ({"stops": [{}]}, "field 'stops': missing field 'at'"),
        ({"stops": [[1, "a"]]}, "field 'stops': expected dict, got list"),
        ({}, "missing field 'stops'"),
        (None, "expected dict, got NoneType"),
    ]:
        with pytest.raises(TypeError) as err:
            read(data)
        assert str(err.value) == message


def test_reader_maps_every_declared_transcript_field():
    read = _json_reader(PipelineTranscript)
    record = {"stage": "zero_shot", "model": "m", "messages": [{"role": "user", "content": "q"}],
              "reply": "r", "request_digest": "d", "sql": None, "extraction_error": "e",
              "execution": None, "comparison": None}
    data = {"example_id": 3, "db_id": "db", "question": "q", "gold_sql": "g",
            "stages": [record], "final_sql": None, "final_verdict": "failed", "fault": None}
    transcript = read(data)
    assert transcript.stages[0] == StageRecord(**record)
    assert transcript.final_verdict is Verdict.FAILED
    assert transcript.to_json() == {**data, "model_calls": 1}
    with pytest.raises(TypeError, match="field 'final_verdict': 'lost' is not a valid Verdict"):
        read({**data, "final_verdict": "lost"})
    with pytest.raises(TypeError, match="field 'stages': field 'messages': expected dict, got str"):
        read({**data, "stages": [{**record, "messages": ["hi"]}]})
    with pytest.raises(TypeError, match="field 'stages': field 'execution': expected dict, got list"):
        read({**data, "stages": [{**record, "execution": []}]})


def test_replay_run_is_byte_identical(schemas, tmp_path):
    examples = [example(question=f"Q{i}?", id=i) for i in range(4)]
    store = tmp_path / "store"

    def reply(request):
        return {"zero_shot": WRONG, "example_1": GOLD}.get(stage_of(request), GOLD)

    recording_gen = ModelEndpoint(
        "generator", RecordingTransport(ScriptedTransport(reply), store), "gen-model"
    )
    recording_fix = ModelEndpoint(
        "corrector", RecordingTransport(ScriptedTransport(reply), store), "fix-model"
    )
    config = PipelineConfig()
    run_many(examples, schemas, config, recording_gen, recording_fix)

    outs = []
    for run_no in (1, 2):
        generator = ModelEndpoint("generator", ReplayTransport(store), "gen-model")
        corrector = ModelEndpoint("corrector", ReplayTransport(store), "fix-model")
        transcripts = run_many(examples, schemas, config, generator, corrector, workers=2)
        out = tmp_path / f"run{run_no}.jsonl"
        write_transcripts(transcripts, out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    parsed = [json.loads(line) for line in outs[0].decode().splitlines()]
    assert [t["example_id"] for t in parsed] == [0, 1, 2, 3]
    assert all(t["final_verdict"] == "corrected_by_example" for t in parsed)


def test_run_many_matches_one_example_runs_for_any_worker_count(schemas, tmp_path):
    golds = [GOLD, "SELECT name FROM ship ORDER BY id", GOLD, "SELECT count(*) FROM ship", GOLD]
    examples = [
        SpiderExample(id=10 - i, question=f"Q{i}?", db_id="battle_death", gold_sql=gold,
                      hardness=Hardness.EASY)
        for i, gold in enumerate(golds)
    ]
    generator, corrector = scripted_endpoints(
        {"zero_shot": WRONG, "example_1": WRONG, "error": GOLD}
    )

    def lines(transcripts):
        out = tmp_path / "t.jsonl"
        write_transcripts(transcripts, out)
        return out.read_bytes()

    alone = [
        run_pipeline(ex, schemas["battle_death"], PipelineConfig(), generator, corrector)
        for ex in examples
    ]
    expected = lines(sorted(alone, key=lambda t: t.example_id))
    for workers in (1, 2):
        transcripts = run_many(
            examples, schemas, PipelineConfig(), generator, corrector, workers=workers
        )
        assert [t.example_id for t in transcripts] == [6, 7, 8, 9, 10]
        assert lines(transcripts) == expected
