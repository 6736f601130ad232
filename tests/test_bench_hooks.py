"""The benchmark's hooks into the harness still resolve.

``bench/tracing.py`` rebinds harness module attributes to time each layer,
and ``bench/run.py`` rebinds ``nl2sql.evaluate._score_one`` to split the
score phase and ``nl2sql.pipeline.run_pipeline`` to split set-up, where
``run_many`` records the replay store; ``bench/tracing.py`` counts model
calls as ``ReplayTransport.send`` spans. A refactor that drops one of those
attributes only prints a warning there, so these tests make it fail here
instead. Every real execution goes through ``nl2sql.execution.execute``,
which the memo looks up at call time. The only targets missing are the
bench's three for the pass-through executor the harness no longer has, its
``nl2sql.triage.tables_equivalent``: ``triage`` compares no tables, as
``score`` hands it only pairs whose tables it found not equivalent, and its
``nl2sql.execution.tokenize``: ``execution`` tokenizes nothing, and
``query_is_ordered`` scans the tokenizer's matches without building tokens.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

from nl2sql import evaluate, execution, llm, pipeline
from nl2sql.llm import ModelEndpoint, RecordingTransport, ReplayTransport
from nl2sql.pipeline import PipelineConfig, Verdict

from helpers import ScriptedTransport
from test_evaluate import GOLD, WRONG, ship_example, transcript
from test_pipeline import question_of, scripted_endpoints, stage_of

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # The first of the bench's execution span names is the pass-through
        # executor each of these modules resolved. Its targets, triage's table
        # comparison and execution's tokenizer, which execution never calls,
        # go with the next change to the benchmark.
        passthrough = tracing.EXECUTION[0]
        assert tracer.missing == [
            f"nl2sql.{module}.{passthrough}" for module in ("pipeline", "evaluate", "triage")
        ] + ["nl2sql.triage.tables_equivalent", "nl2sql.execution.tokenize"]
    finally:
        tracer.uninstall()


def test_score_resolves_score_one_once_per_non_fault_example(schemas, monkeypatch):
    calls = []
    original = evaluate._score_one

    def counting(transcript, example, *args):
        calls.append(example.id)
        return original(transcript, example, *args)

    monkeypatch.setattr(evaluate, "_score_one", counting)
    examples = [ship_example(i) for i in range(5)]
    transcripts = [
        transcript(0, GOLD),
        transcript(1, WRONG, Verdict.FAILED),
        transcript(2, None, Verdict.FAULT),
        transcript(3, "SELECT FROM", Verdict.FAILED),
        transcript(4, GOLD, Verdict.CORRECTED_BY_EXAMPLE),
    ]
    report = evaluate.score(transcripts, examples, schemas)
    assert calls == [0, 1, 3, 4]
    assert report.faults == 1


def test_run_many_resolves_run_pipeline_once_per_example_in_id_order(schemas, monkeypatch):
    calls = []
    original = pipeline.run_pipeline

    def counting(example, *args):
        calls.append(example.id)
        return original(example, *args)

    monkeypatch.setattr(pipeline, "run_pipeline", counting)
    generator, corrector = scripted_endpoints({"zero_shot": GOLD})
    examples = [ship_example(i) for i in range(5)]
    transcripts = pipeline.run_many(
        examples, schemas, PipelineConfig(), generator, corrector, workers=1
    )
    assert calls == [0, 1, 2, 3, 4]
    assert [t.example_id for t in transcripts] == [0, 1, 2, 3, 4]


def test_two_golds_call_each_hook_once_per_example_and_execute_once_per_group(
    schemas, monkeypatch
):
    other = "SELECT name FROM ship ORDER BY id"
    examples = [
        replace(ship_example(i), gold_sql=other) if i % 2 else ship_example(i) for i in range(5)
    ]
    run_calls, score_calls, executed = [], [], []
    run_pipeline, score_one = pipeline.run_pipeline, evaluate._score_one
    execute = execution.execute

    def counting_run(example, *args):
        run_calls.append(example.id)
        return run_pipeline(example, *args)

    def counting_score(transcript, example, *args):
        score_calls.append(example.id)
        return score_one(transcript, example, *args)

    def counting_execute(sql, *args):
        executed.append(sql)
        return execute(sql, *args)

    monkeypatch.setattr(pipeline, "run_pipeline", counting_run)
    monkeypatch.setattr(evaluate, "_score_one", counting_score)
    monkeypatch.setattr(execution, "execute", counting_execute)
    generator, corrector = scripted_endpoints(
        {"zero_shot": WRONG, "example_1": WRONG, "error": WRONG}
    )
    transcripts = pipeline.run_many(
        examples, schemas, PipelineConfig(), generator, corrector, workers=1
    )
    # Each group runs its gold once and the prediction all its stages share once.
    assert Counter(run_calls) == Counter(range(5))
    assert Counter(executed) == Counter({GOLD: 1, other: 1, WRONG: 2})
    executed.clear()
    # In process, every failure is scored from the outcomes the pipeline kept.
    evaluate.score(transcripts, examples, schemas)
    assert Counter(score_calls) == Counter(range(5))
    assert executed == []
    score_calls.clear()
    read_back = [pipeline.PipelineTranscript.from_json(t.to_json()) for t in transcripts]
    evaluate.score(read_back, examples, schemas)
    assert Counter(score_calls) == Counter(range(5))
    assert Counter(executed) == Counter({GOLD: 1, other: 1, WRONG: 2})


def test_run_pipeline_over_a_replay_store_sends_once_per_stage(schemas, tmp_path, monkeypatch):
    # Example 0 is right first time, 1 after an example round, 2 never.
    right_from = {"q0": "zero_shot", "q1": "example_1", "q2": "never"}

    def reply(request):
        return GOLD if stage_of(request) == right_from[question_of(request)] else WRONG

    def endpoints(transport):
        return (ModelEndpoint("generator", transport, "gen-model"),
                ModelEndpoint("corrector", transport, "fix-model"))

    examples = [ship_example(i) for i in range(3)]
    store = tmp_path / "replay"
    recording = RecordingTransport(ScriptedTransport(reply), store)
    pipeline.run_many(examples, schemas, PipelineConfig(), *endpoints(recording), workers=1)
    sent = []
    send = llm.ReplayTransport.send

    def counting_send(self, request, *args):
        sent.append(request)
        return send(self, request, *args)

    monkeypatch.setattr(llm.ReplayTransport, "send", counting_send)
    generator, corrector = endpoints(ReplayTransport(store))
    for ex in examples:
        sent.clear()
        run = pipeline.run_pipeline(ex, schemas[ex.db_id], PipelineConfig(), generator, corrector)
        assert len(sent) == len(run.stages) == [1, 2, 3][ex.id]
        assert [s.request_digest for s in run.stages] == [llm.request_digest(r) for r in sent]
