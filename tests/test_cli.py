from __future__ import annotations

import errno
import json
import re
import shutil
from collections import Counter
from pathlib import Path

import pytest

from nl2sql import cli
from nl2sql.cli import main
from nl2sql.dataset import load_dataset
from nl2sql.llm import ModelEndpoint, RecordingTransport
from nl2sql.pipeline import PipelineConfig, PipelineTranscript, run_many

from helpers import ScriptedTransport

def build_replay_store(dataset_dir, store_dir, reply_fn):
    """Record scripted replies for every request the CLI run would make."""
    loaded = load_dataset(dataset_dir, "dev")
    generator = ModelEndpoint(
        "generator", RecordingTransport(ScriptedTransport(reply_fn), store_dir), "generator"
    )
    corrector = ModelEndpoint(
        "corrector", RecordingTransport(ScriptedTransport(reply_fn), store_dir), "corrector"
    )
    run_many(loaded.examples, loaded.schemas, PipelineConfig(), generator, corrector)


def gold_reply(dataset_dir):
    loaded = load_dataset(dataset_dir, "dev")
    by_question = {ex.question: ex.gold_sql for ex in loaded.examples}

    def reply(request):
        first_user = next(m for m in request["messages"] if m["role"] == "user")
        match = re.search(r"### Question: (.*)", first_user["content"])
        return by_question[match.group(1)]

    return reply


def test_ingest_reports_counts_and_histogram(dataset_dir, capsys):
    code = main(["ingest", "--dataset", str(dataset_dir)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["loaded"] == 12
    assert summary["quarantined"] == 0
    assert set(summary["hardness"]) == {"easy", "medium", "hard", "extra"}


def test_ingest_missing_dataset_exits_3(tmp_path, capsys):
    code = main(["ingest", "--dataset", str(tmp_path / "missing")])
    assert code == 3


def test_emit_corpus_cli(dataset_dir, tmp_path, capsys):
    out = tmp_path / "sk.jsonl"
    assert main(["emit-corpus", "skeleton", "--dataset", str(dataset_dir), "--out", str(out)]) == 0
    assert out.is_file()
    assert len(out.read_text().splitlines()) == 13  # header + 12
    out2 = tmp_path / "chat.jsonl"
    assert main(["emit-corpus", "chat", "--dataset", str(dataset_dir), "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 12


def test_run_replay_evaluate_report_flow(dataset_dir, tmp_path, capsys):
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, gold_reply(dataset_dir))

    transcripts = tmp_path / "t.jsonl"
    code = main([
        "run", "--dataset", str(dataset_dir), "--replay", str(store),
        "--limit", "5", "--out", str(transcripts),
    ])
    assert code == 0
    lines = transcripts.read_text().splitlines()
    assert len(lines) == 5

    report_json = tmp_path / "report.json"
    report_md = tmp_path / "report.md"
    code = main([
        "evaluate", "--dataset", str(dataset_dir), "--transcripts", str(transcripts),
        "--out", str(report_json), "--markdown", str(report_md), "--no-timestamp",
    ])
    assert code == 0
    payload = json.loads(report_json.read_text())
    assert set(payload) == {"results", "metadata"}
    assert set(payload["results"]["buckets"]) == {"easy", "medium", "hard", "extra"}
    assert "Exec Accuracy" in report_md.read_text()


def test_run_with_config_file(dataset_dir, tmp_path, capsys):
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, gold_reply(dataset_dir))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "max_example_correction_rounds": 0,
        "enable_error_correction": False,
    }))
    out = tmp_path / "t.jsonl"
    code = main([
        "run", "--dataset", str(dataset_dir), "--replay", str(store),
        "--config", str(config), "--workers", "2", "--out", str(out),
    ])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["final_verdict"] == "correct_first_shot" for r in records)
    assert all(r["model_calls"] == 1 for r in records)


def test_unknown_config_key_exits_2(dataset_dir, tmp_path, capsys):
    # Execution limits and the worker count are not config keys: every
    # command judges under the default limits, and `--workers` is a flag.
    config = tmp_path / "bad.json"
    for bad in (
        {"max_rounds": 2},
        {"execution": {"timeout_seconds": 1.0, "max_rows": 10}},
        {"workers": 2},
    ):
        config.write_text(json.dumps(bad))
        code = main([
            "run", "--dataset", str(dataset_dir), "--replay", str(tmp_path),
            "--config", str(config), "--out", str(tmp_path / "t.jsonl"),
        ])
        assert code == 2, bad


def test_run_replay_miss_exits_5(dataset_dir, tmp_path, capsys):
    empty_store = tmp_path / "empty"
    empty_store.mkdir()
    code = main([
        "run", "--dataset", str(dataset_dir), "--replay", str(empty_store),
        "--limit", "1", "--out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 5


def test_run_negative_limit_is_a_usage_error(dataset_dir, tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main([
            "run", "--dataset", str(dataset_dir), "--replay", str(tmp_path),
            "--limit", "-1", "--out", str(out),
        ])
    assert exit_info.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_run_workers_below_one_is_a_usage_error(dataset_dir, tmp_path, capsys, workers):
    out = tmp_path / "t.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main([
            "run", "--dataset", str(dataset_dir), "--replay", str(tmp_path),
            "--workers", workers, "--out", str(out),
        ])
    assert exit_info.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_run_replay_and_record_together_is_a_usage_error(dataset_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([
            "run", "--dataset", str(dataset_dir), "--replay", str(tmp_path / "a"),
            "--record", str(tmp_path / "b"), "--out", str(tmp_path / "t.jsonl"),
        ])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("command, first, second", [
    ("run", "--out", "--report"),
    ("evaluate", "--transcripts", "--out"),
    ("evaluate", "--transcripts", "--markdown"),
    ("evaluate", "--out", "--markdown"),
    ("triage", "--transcripts", "--out"),
    ("report", "--transcripts", "--out"),
])
def test_two_file_options_naming_one_file_are_a_usage_error(
    dataset_dir, tmp_path, capsys, command, first, second
):
    # The second option spells the path another way; nothing is read, no
    # model is called (the replay store is empty) and no file is written.
    (tmp_path / "store").mkdir()
    (tmp_path / "sub").mkdir()
    shared = tmp_path / "shared.jsonl"
    shared.write_text("kept\n")
    argv = [command, "--dataset", str(dataset_dir), first, str(shared),
            second, str(tmp_path / "sub" / ".." / "shared.jsonl")]
    if command == "run":
        argv += ["--replay", str(tmp_path / "store")]
    elif "--transcripts" not in argv:
        argv += ["--transcripts", str(tmp_path / "t.jsonl")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"{first} and {second} name one file" in capsys.readouterr().err
    assert shared.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.jsonl", "store", "sub"]


def test_fixture_write_failing_partway_leaves_a_replay_miss(
    dataset_dir, tmp_path, monkeypatch, capsys
):
    store = tmp_path / "store"

    def disk_full(path, data, encoding=None):
        with open(path, "w", encoding=encoding) as fh:
            fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_text", disk_full)
        with pytest.raises(OSError):
            build_replay_store(dataset_dir, store, gold_reply(dataset_dir))
    assert list(store.iterdir()) == []
    code = main([
        "run", "--dataset", str(dataset_dir), "--replay", str(store),
        "--limit", "1", "--out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 5  # a miss, not a corrupt fixture (exit 1)


def test_run_truncated_replay_fixture_exits_1(dataset_dir, tmp_path, capsys):
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, gold_reply(dataset_dir))
    for fixture in store.glob("*.json"):
        fixture.write_bytes(fixture.read_bytes()[:20])
    code = main([
        "run", "--dataset", str(dataset_dir), "--replay", str(store),
        "--limit", "1", "--out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: corrupt replay fixture {store}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_report_on_empty_transcripts_zero_counts(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["report", "--transcripts", str(empty), "--format", "markdown"])
    assert code == 0
    out = capsys.readouterr().out
    assert "| Count | 0 | 0 | 0 | 0 | 0 |" in out
    assert "No failures to triage." in out


def test_report_json_format(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["report", "--transcripts", str(empty), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["overall"] == 0.0


def test_triage_cli_writes_verdicts(dataset_dir, tmp_path, capsys):
    store = tmp_path / "store"

    def wrong_reply(request):
        return "SELECT count(*) FROM ship WHERE disposition_of_ship = 'lost'"

    loaded = load_dataset(dataset_dir, "dev")
    ship_examples = [ex for ex in loaded.examples if ex.db_id == "battle_death"]
    generator = ModelEndpoint(
        "generator", RecordingTransport(ScriptedTransport(wrong_reply), store), "generator"
    )
    corrector = ModelEndpoint(
        "corrector", RecordingTransport(ScriptedTransport(wrong_reply), store), "corrector"
    )
    transcripts = run_many(ship_examples, loaded.schemas, PipelineConfig(), generator, corrector)
    from nl2sql.pipeline import write_transcripts

    tfile = tmp_path / "t.jsonl"
    write_transcripts(transcripts, tfile)
    out = tmp_path / "verdicts.jsonl"
    code = main([
        "triage", "--dataset", str(dataset_dir), "--transcripts", str(tfile), "--out", str(out)
    ])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 1
    assert rows[0]["category"] == "PredictedValues"


def test_ast_debug_command(dataset_dir, capsys):
    code = main([
        "ast", "--dataset", str(dataset_dir), "--db", "battle_death",
        "SELECT name FROM ship WHERE id = 1",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["node"] == "Select"


def test_ast_canonical_and_diff(dataset_dir, capsys):
    code = main([
        "ast", "--dataset", str(dataset_dir), "--db", "battle_death",
        "SELECT name FROM ship AS T1", "--canonical",
    ])
    assert code == 0
    assert "AS t1" in capsys.readouterr().out
    code = main([
        "ast", "--dataset", str(dataset_dir), "--db", "battle_death",
        "SELECT name FROM ship WHERE id = 1", "--diff", "SELECT name FROM ship WHERE id = 2",
    ])
    assert code == 0
    assert "literals" in capsys.readouterr().out


def test_ast_unknown_db_exits_3(dataset_dir, capsys):
    code = main(["ast", "--dataset", str(dataset_dir), "--db", "nope", "SELECT 1"])
    assert code == 3


def test_triage_and_evaluate_agree(dataset_dir, tmp_path, capsys):
    loaded = load_dataset(dataset_dir, "dev")
    by_question = {ex.question: ex.gold_sql for ex in loaded.examples}
    replies = {
        "How many ships ended up being sank?":
            "SELECT count(*) FROM ship WHERE disposition_of_ship = 'lost'",
        "What is the name of the stadium with the largest capacity?":
            "SELECT name FROM stadium ORDER BY",
        "Show stadium locations with a concert in 2014 or with capacity above 50000.":
            by_question[
                "Show stadium locations with a concert in 2014 or with capacity above 50000."
            ].replace("2014", "2015"),
    }

    def reply(request):
        first_user = next(m for m in request["messages"] if m["role"] == "user")
        question = re.search(r"### Question: (.*)", first_user["content"]).group(1)
        return replies.get(question, by_question[question])

    generator = ModelEndpoint("generator", ScriptedTransport(reply), "generator")
    corrector = ModelEndpoint("corrector", ScriptedTransport(reply), "corrector")
    transcripts = run_many(
        loaded.examples, loaded.schemas, PipelineConfig(), generator, corrector
    )
    from nl2sql.pipeline import write_transcripts

    tfile = tmp_path / "t.jsonl"
    write_transcripts(transcripts, tfile)
    verdicts_out = tmp_path / "verdicts.jsonl"
    report_out = tmp_path / "report.json"
    dataset = ["--dataset", str(dataset_dir), "--transcripts", str(tfile)]
    assert main(["triage", *dataset, "--out", str(verdicts_out)]) == 0
    assert main(["evaluate", *dataset, "--no-timestamp", "--out", str(report_out)]) == 0

    rows = [json.loads(line) for line in verdicts_out.read_text().splitlines()]
    summary = json.loads(report_out.read_text())["results"]["triage"]
    assert len(rows) == summary["total"] == 3
    ids = [row["example_id"] for row in rows]
    assert ids == sorted(ids)
    categories = Counter(row["category"] for row in rows)
    subtags = Counter(
        row["category"] + ("." + row["subtag"] if row["subtag"] else "") for row in rows
    )
    assert categories == {k: v["count"] for k, v in summary["categories"].items()}
    assert subtags == {k: v["count"] for k, v in summary["subtags"].items()}
    assert subtags == {"PredictedValues": 2, "Unclassifiable.ParseError": 1}


# --------------------------------------------------------------------------- run --report

def mixed_reply(dataset_dir):
    """Gold replies, except one wrong value, one unparseable and one wrong year."""
    gold = gold_reply(dataset_dir)
    replies = {
        "How many ships ended up being sank?":
            "SELECT count(*) FROM ship WHERE disposition_of_ship = 'lost'",
        "What is the name of the stadium with the largest capacity?":
            "SELECT name FROM stadium ORDER BY",
    }

    def reply(request):
        first_user = next(m for m in request["messages"] if m["role"] == "user")
        question = re.search(r"### Question: (.*)", first_user["content"]).group(1)
        return replies.get(question) or gold(request).replace("2014", "2015")

    return reply


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_report_equals_evaluate_on_the_transcripts_run_wrote(
    dataset_dir, tmp_path, capsys, workers
):
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, mixed_reply(dataset_dir))
    run = ["run", "--dataset", str(dataset_dir), "--replay", str(store), "--workers", workers]
    plain, with_report = tmp_path / "plain.jsonl", tmp_path / "t.jsonl"
    run_report, eval_report = tmp_path / "run.json", tmp_path / "eval.json"
    assert main([*run, "--out", str(plain)]) == 0
    assert main([*run, "--out", str(with_report), "--report", str(run_report)]) == 0
    assert with_report.read_bytes() == plain.read_bytes()
    assert main([
        "evaluate", "--dataset", str(dataset_dir), "--transcripts", str(with_report),
        "--no-timestamp", "--out", str(eval_report),
    ]) == 0

    ran, evaluated = (json.loads(path.read_text()) for path in (run_report, eval_report))
    assert json.dumps(ran["results"]).encode() == json.dumps(evaluated["results"]).encode()
    assert ran["metadata"]["endpoints"] == evaluated["metadata"]["endpoints"]
    assert 0 < ran["results"]["overall"] < 1
    assert ran["results"]["triage"]["total"] > 0


def test_run_report_database_missing_while_scoring_exits_6_after_writing_transcripts(
    dataset_dir, tmp_path, monkeypatch, capsys
):
    dataset = tmp_path / "dataset"
    shutil.copytree(dataset_dir, dataset)
    store = tmp_path / "store"
    build_replay_store(dataset, store, gold_reply(dataset))
    expected = tmp_path / "expected.jsonl"
    assert main(["run", "--dataset", str(dataset), "--replay", str(store),
                 "--out", str(expected)]) == 0
    write_transcripts = cli.write_transcripts

    def write_then_lose_a_database(transcripts, out):
        write_transcripts(transcripts, out)
        (dataset / "database" / "battle_death" / "battle_death.sqlite").unlink()

    monkeypatch.setattr(cli, "write_transcripts", write_then_lose_a_database)
    out, report = tmp_path / "t.jsonl", tmp_path / "report.json"
    code = main(["run", "--dataset", str(dataset), "--replay", str(store),
                 "--out", str(out), "--report", str(report)])
    assert code == 6
    assert "harness fault" in capsys.readouterr().err
    assert out.read_bytes() == expected.read_bytes()
    assert not report.exists()


# --------------------------------------------------------------------------- record formats

FORMATS_DOC = Path(__file__).resolve().parent.parent / "docs" / "formats.md"
TRANSCRIPT_KEYS = [
    "example_id", "db_id", "question", "gold_sql", "stages", "final_sql", "final_verdict",
    "fault", "model_calls",
]
STAGE_KEYS = [
    "stage", "model", "messages", "reply", "request_digest", "sql", "extraction_error",
    "execution", "comparison",
]
VERDICT_KEYS = ["example_id", "category", "subtag", "confidence", "evidence"]


def documented_keys(heading: str, keys: list[str]) -> list[str]:
    """The keys among ``keys`` in the order the JSON example under
    ``heading`` in docs/formats.md shows them."""
    section = FORMATS_DOC.read_text(encoding="utf-8").split(f"\n## {heading}", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    return [key for key in re.findall(r'"(\w+)":', example) if key in keys]


def test_record_key_order_is_the_documented_order(dataset_dir, tmp_path):
    assert documented_keys("Transcripts", TRANSCRIPT_KEYS) == TRANSCRIPT_KEYS
    assert documented_keys("Transcripts", STAGE_KEYS) == STAGE_KEYS
    assert documented_keys("Triage verdicts", VERDICT_KEYS) == VERDICT_KEYS
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, mixed_reply(dataset_dir))
    transcripts, verdicts = tmp_path / "t.jsonl", tmp_path / "v.jsonl"
    assert main(["run", "--dataset", str(dataset_dir), "--replay", str(store),
                 "--out", str(transcripts)]) == 0
    assert main(["triage", "--dataset", str(dataset_dir), "--transcripts", str(transcripts),
                 "--out", str(verdicts)]) == 0
    records = [json.loads(line) for line in transcripts.read_text().splitlines()]
    stages = [stage for record in records for stage in record["stages"]]
    rows = [json.loads(line) for line in verdicts.read_text().splitlines()]
    assert records and stages and rows
    assert {tuple(record) for record in records} == {tuple(TRANSCRIPT_KEYS)}
    assert {tuple(stage) for stage in stages} == {tuple(STAGE_KEYS)}
    assert {tuple(row) for row in rows} == {tuple(VERDICT_KEYS)}


def test_every_transcript_line_reads_back_to_the_same_bytes(dataset_dir, tmp_path):
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, mixed_reply(dataset_dir))
    written = tmp_path / "t.jsonl"
    assert main(["run", "--dataset", str(dataset_dir), "--replay", str(store),
                 "--out", str(written)]) == 0
    lines = written.read_bytes().splitlines(keepends=True)
    kinds = {stage["execution"]["kind"] for line in lines for stage in json.loads(line)["stages"]
             if stage["execution"] is not None}
    assert len(lines) > 1 and kinds == {"table", "error"}
    for line in lines:
        read_back = PipelineTranscript.from_json(json.loads(line))
        assert (json.dumps(read_back.to_json(), ensure_ascii=False) + "\n").encode() == line


# --------------------------------------------------------------------------- the CLI's own files

def one_error_line(capsys, verb, path):
    err = capsys.readouterr().err
    assert err == f"error: cannot {verb} {path}: No such file or directory\n"


def test_missing_transcripts_file_is_one_error_line(dataset_dir, tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    for command in ("evaluate", "triage"):
        extra = ["--out", str(tmp_path / "v.jsonl")] if command == "triage" else []
        code = main([command, "--dataset", str(dataset_dir), "--transcripts", str(missing), *extra])
        assert code == 1
        one_error_line(capsys, "read", missing)
    assert main(["report", "--transcripts", str(missing)]) == 1
    one_error_line(capsys, "read", missing)


def test_unreadable_transcripts_line_is_one_error_line(dataset_dir, tmp_path, capsys):
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, gold_reply(dataset_dir))
    written = tmp_path / "t.jsonl"
    run = ["run", "--dataset", str(dataset_dir), "--replay", str(store), "--limit", "2"]
    assert main([*run, "--out", str(written)]) == 0
    lines = written.read_bytes().splitlines(keepends=True)
    crashed = written.read_bytes()[:3000]  # as a crash mid-write leaves it
    cut_line = crashed.count(b"\n") + 1
    assert not crashed.endswith(b"\n")
    no_stages = json.loads(lines[1])
    del no_stages["stages"]

    def second_line_edited(edit):
        record = json.loads(lines[1])
        edit(record)
        return lines[0] + json.dumps(record).encode() + b"\n"

    cases = {
        "cut.jsonl": (crashed, f"line {cut_line}: "),
        "no-stages.jsonl": (
            lines[0] + b"\n" + json.dumps(no_stages).encode() + b"\n",
            "line 3: missing field 'stages'",
        ),
        "not-an-object.jsonl": (b"[1, 2]\n", "line 1: list indices must be integers"),
        "int-sql.jsonl": (
            second_line_edited(lambda r: r.update(final_sql=5)),
            "line 2: field 'final_sql': expected str, got int",
        ),
        "str-id.jsonl": (
            second_line_edited(lambda r: r.update(example_id="0")),
            "line 2: field 'example_id': expected int, got str",
        ),
        "bool-id.jsonl": (
            second_line_edited(lambda r: r.update(example_id=True)),
            "line 2: field 'example_id': expected int, got bool",
        ),
        "int-model.jsonl": (
            second_line_edited(lambda r: r["stages"][0].update(model=5)),
            "line 2: field 'stages': field 'model': expected str, got int",
        ),
        "no-fault.jsonl": (
            second_line_edited(lambda r: r.pop("fault")),
            "line 2: missing field 'fault'",
        ),
    }
    for name, (content, reason) in cases.items():
        path = tmp_path / name
        path.write_bytes(content)
        for command in ("evaluate", "triage", "report"):
            extra = ["--out", str(tmp_path / "v.jsonl")] if command == "triage" else []
            capsys.readouterr()
            code = main([
                command, "--dataset", str(dataset_dir), "--transcripts", str(path), *extra
            ])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read {path}: {reason}")
            assert err.count("\n") == 1 and err.endswith("\n")
            if name not in ("cut.jsonl", "not-an-object.jsonl"):
                assert err == f"error: cannot read {path}: {reason}\n"
        assert main(["report", "--transcripts", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: {reason}")


@pytest.mark.parametrize("option", ["--out", "--markdown"])
def test_evaluate_output_in_a_missing_directory_is_one_error_line(
    dataset_dir, tmp_path, capsys, option
):
    transcripts = tmp_path / "t.jsonl"
    transcripts.write_text("")
    target = tmp_path / "no-such-dir" / "report"
    code = main([
        "evaluate", "--dataset", str(dataset_dir), "--transcripts", str(transcripts),
        option, str(target),
    ])
    assert code == 1
    one_error_line(capsys, "write", target)


def counting_model_calls(monkeypatch):
    calls = []
    complete = ModelEndpoint.complete

    def counting(self, *args, **kwargs):
        calls.append(self.role)
        return complete(self, *args, **kwargs)

    monkeypatch.setattr(ModelEndpoint, "complete", counting)
    return calls


@pytest.mark.parametrize("option", ["--out", "--report"])
def test_run_output_in_a_missing_directory_is_one_error_line(
    dataset_dir, tmp_path, monkeypatch, capsys, option
):
    # The paths are checked before the first model call, and the run
    # creates no file and truncates none.
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, gold_reply(dataset_dir))
    calls = counting_model_calls(monkeypatch)
    transcripts, target = tmp_path / "t.jsonl", tmp_path / "no-such-dir" / "file"
    outputs = ["--out", str(target)]
    if option == "--report":
        transcripts.write_text("earlier run\n")
        outputs = ["--out", str(transcripts), "--report", str(target)]
    code = main([
        "run", "--dataset", str(dataset_dir), "--replay", str(store), "--limit", "2", *outputs
    ])
    assert code == 1
    one_error_line(capsys, "write", target)
    assert calls == []
    assert not target.parent.exists()
    if option == "--report":
        assert transcripts.read_text() == "earlier run\n"


@pytest.mark.parametrize("where", ["directory", "file-as-parent"])
def test_run_output_that_cannot_be_a_file_fails_before_the_run(
    dataset_dir, tmp_path, monkeypatch, capsys, where
):
    calls = counting_model_calls(monkeypatch)
    plain = tmp_path / "plain"
    plain.write_text("")
    target, reason = tmp_path, "Is a directory"
    if where == "file-as-parent":
        target, reason = plain / "file", "Not a directory"
    code = main([
        "run", "--dataset", str(dataset_dir), "--replay", str(tmp_path / "store"),
        "--out", str(tmp_path / "t.jsonl"), "--report", str(target),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot write {target}: {reason}\n"
    assert calls == [] and not (tmp_path / "t.jsonl").exists()
