from __future__ import annotations

import json
import os
import re
import shlex
import shutil
import sqlite3
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nl2sql
from nl2sql import cli, pipeline
from nl2sql.cli import main
from nl2sql.dataset import load_dataset
from nl2sql.errors import (
    ConfigError,
    DatabaseChangedError,
    DatabaseMissingError,
    DatasetError,
    Nl2SqlError,
    ParseError,
    ReplayMissError,
    RetriesExhaustedError,
    SchemaError,
    TransportError,
)
from nl2sql.llm import ModelEndpoint, RecordingTransport
from nl2sql.pipeline import PipelineConfig, PipelineTranscript, run_many

from conftest import DEV_EXAMPLES, make_dataset
from helpers import ScriptedTransport, empty_store
from test_dataset import assert_one_documented_line, broken_json, cli_result
from test_evaluate import counting_executions

def build_replay_store(dataset_dir, store, reply_fn):
    """Record scripted replies for every request the CLI run would make."""
    loaded = load_dataset(dataset_dir, "dev")
    generator = ModelEndpoint(
        "generator", RecordingTransport(ScriptedTransport(reply_fn), store), "generator"
    )
    corrector = ModelEndpoint(
        "corrector", RecordingTransport(ScriptedTransport(reply_fn), store), "corrector"
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


def test_ingest_out_writes_the_summary_it_prints(dataset_dir, tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert main(["ingest", "--dataset", str(dataset_dir), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


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


def test_a_database_rewritten_in_place_partway_through_an_example_exits_6(
    tmp_path, monkeypatch, capsys
):
    dataset = make_dataset(tmp_path / "dataset", DEV_EXAMPLES)
    store = tmp_path / "store"
    build_replay_store(dataset, store, gold_reply(dataset))
    db_id = load_dataset(dataset, "dev").examples[0].db_id
    db_path = dataset / "database" / db_id / f"{db_id}.sqlite"
    run_stage = pipeline._run_model_stage

    def rewriting(transcript, *args):
        if not transcript.stages:  # the gold ran, the first stage has not
            conn = sqlite3.connect(db_path)
            conn.execute("CREATE TABLE pad (x)")  # same inode, one page more
            conn.commit()
            conn.close()
        return run_stage(transcript, *args)

    monkeypatch.setattr(pipeline, "_run_model_stage", rewriting)
    out, report = tmp_path / "t.jsonl", tmp_path / "report.json"
    code = main([
        "run", "--dataset", str(dataset), "--replay", str(store), "--limit", "1",
        "--out", str(out), "--report", str(report),
    ])
    assert code == 6
    assert "harness fault: database file changed while example 0 ran" in capsys.readouterr().err
    # No transcript and no score comes from the example's mixed reads.
    assert not out.exists() and not report.exists()


def test_transcripts_of_another_dataset_order_exit_3_without_a_report(
    dataset_dir, tmp_path, capsys
):
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, gold_reply(dataset_dir))
    transcripts = tmp_path / "t.jsonl"
    run = ["run", "--dataset", str(dataset_dir), "--replay", str(store)]
    assert main([*run, "--out", str(transcripts)]) == 0
    # The same examples, numbered from the other end.
    reversed_dir = make_dataset(tmp_path / "reversed", DEV_EXAMPLES[::-1])
    report = tmp_path / "report.json"
    capsys.readouterr()
    code = main([
        "evaluate", "--dataset", str(reversed_dir), "--transcripts", str(transcripts),
        "--out", str(report),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("dataset error: transcripts name another database or question")
    assert not report.exists()


def test_transcript_of_an_example_the_split_does_not_hold_exits_3(
    dataset_dir, tmp_path, capsys
):
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, gold_reply(dataset_dir))
    transcripts = tmp_path / "t.jsonl"
    run = ["run", "--dataset", str(dataset_dir), "--replay", str(store)]
    assert main([*run, "--limit", "2", "--out", str(transcripts)]) == 0
    first, second = (json.loads(line) for line in transcripts.read_text().splitlines())
    stray = tmp_path / "stray.jsonl"
    stray.write_text(json.dumps(first) + "\n" + json.dumps({**second, "example_id": 9999}) + "\n")
    outputs = [tmp_path / name for name in ("report.json", "report.md", "verdicts.jsonl")]
    capsys.readouterr()
    code = main([
        "evaluate", "--dataset", str(dataset_dir), "--transcripts", str(stray),
        *(arg for option, path in zip(("--out", "--markdown", "--verdicts"), outputs)
          for arg in (option, str(path))),
    ])
    assert code == 3
    assert capsys.readouterr().err == (
        "dataset error: transcripts for example ids the split does not hold: [9999]\n"
    )
    assert not any(path.exists() for path in outputs)
    # The transcript of a quarantined example is left out, and counted there.
    broken = [dict(DEV_EXAMPLES[0]), {**DEV_EXAMPLES[1], "query": "SELECT FROM"}]
    quarantining = make_dataset(tmp_path / "quarantining", broken)
    report = tmp_path / "quarantined.json"
    code = main([
        "evaluate", "--dataset", str(quarantining), "--transcripts", str(transcripts),
        "--out", str(report),
    ])
    assert code == 0
    results = json.loads(report.read_text())["results"]
    assert results["quarantined"] == 1
    assert sum(bucket["count"] for bucket in results["buckets"].values()) == 1


def test_two_transcripts_for_one_example_exit_3(dataset_dir, tmp_path, capsys):
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, gold_reply(dataset_dir))
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run = ["run", "--dataset", str(dataset_dir), "--replay", str(store)]
    assert main([*run, "--limit", "3", "--out", str(first)]) == 0
    assert main([*run, "--limit", "2", "--out", str(second)]) == 0
    both = tmp_path / "both.jsonl"
    both.write_bytes(first.read_bytes() + second.read_bytes())
    report = tmp_path / "report.json"
    capsys.readouterr()
    code = main([
        "evaluate", "--dataset", str(dataset_dir), "--transcripts", str(both),
        "--out", str(report),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "dataset error: more than one transcript for example ids: [0, 1]\n"
    assert not report.exists()


# Runs each argument list through ``cli.main`` in an interpreter where
# ``import requests`` raises, and prints the exit codes as JSON.
_WITHOUT_REQUESTS = """
import json, sys
sys.modules["requests"] = None
from nl2sql.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def _child_env() -> dict[str, str]:
    """The environment of a child Python that imports this ``nl2sql``."""
    paths = [str(Path(nl2sql.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _fresh_python(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, *args], env=_child_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_offline_flow_runs_without_requests(dataset_dir, tmp_path):
    gold = gold_reply(dataset_dir)
    store = tmp_path / "store"
    # A wrong sort order gives triage failures to classify.
    build_replay_store(dataset_dir, store, lambda request: gold(request).replace("DESC", "ASC"))
    transcripts = tmp_path / "t.jsonl"
    dataset = ["--dataset", str(dataset_dir)]
    flow = [
        ["run", *dataset, "--replay", str(store), "--limit", "5", "--out", str(transcripts)],
        ["evaluate", *dataset, "--transcripts", str(transcripts),
         "--out", str(tmp_path / "report.json"), "--markdown", str(tmp_path / "report.md"),
         "--verdicts", str(tmp_path / "verdicts.jsonl"), "--no-timestamp"],
    ]
    out = _fresh_python("-c", _WITHOUT_REQUESTS, json.dumps(flow))
    assert json.loads(out.splitlines()[-1]) == [0, 0]
    assert len(transcripts.read_text().splitlines()) == 5
    assert (tmp_path / "verdicts.jsonl").read_text().splitlines()
    assert "Exec Accuracy" in (tmp_path / "report.md").read_text()


def test_importing_the_package_loads_no_http_stack():
    code = "import sys, nl2sql, nl2sql.cli; print('requests' in sys.modules)"
    assert _fresh_python("-c", code).strip() == "False"


def test_live_run_without_requests_is_a_configuration_error(
    dataset_dir, tmp_path, monkeypatch, capsys
):
    monkeypatch.setitem(sys.modules, "requests", None)
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    out = tmp_path / "t.jsonl"
    code = main(["run", "--dataset", str(dataset_dir), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: live runs need the requests package: "
        "install it or use replay mode\n"
    )
    assert not out.exists()


def test_base_url_without_a_scheme_is_a_configuration_error(
    dataset_dir, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("NL2SQL_API_KEY", "k")
    config, out = tmp_path / "run.json", tmp_path / "t.jsonl"
    config.write_text(json.dumps({"generator": {"base_url": "api.example.invalid/v1"}}))
    code = main(["run", "--dataset", str(dataset_dir), "--config", str(config), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: base_url must be an http or https URL with a host: "
        "'api.example.invalid/v1'\n"
    )
    assert not out.exists()


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


@pytest.mark.parametrize("bad, message", [
    # bool("false") is true: the string would have turned error correction on.
    ({"enable_error_correction": "false"},
     "config key 'enable_error_correction' must be true or false, got \"false\""),
    ({"max_example_correction_rounds": "many"},
     "config key 'max_example_correction_rounds' must be an integer >= 0, got \"many\""),
    ({"max_example_correction_rounds": -1},
     "config key 'max_example_correction_rounds' must be an integer >= 0, got -1"),
    ({"max_example_correction_rounds": 1.7},
     "config key 'max_example_correction_rounds' must be an integer >= 0, got 1.7"),
    ({"generator": {"max_tokens": True}},
     "config key 'generator.max_tokens' must be an integer >= 0, got true"),
    ({"corrector": {"temperature": "hot"}},
     "config key 'corrector.temperature' must be a finite number, got \"hot\""),
    # Python's json reads NaN, which no request body may carry.
    ({"generator": {"temperature": float("nan")}},
     "config key 'generator.temperature' must be a finite number, got NaN"),
    ({"generator": {"temperature": 10**400}},
     f"config key 'generator.temperature' must be a finite number, got {10**400}"),
    ({"generator": {"model": 7}}, "config key 'generator.model' must be a string, got 7"),
    ({"generator": {"temprature": 0.7}}, "unknown config key 'generator.temprature'"),
    ({"corrector": []}, "config key 'corrector' must be an object"),
    ([1], "config root must be a JSON object"),
])
def test_mistyped_config_value_is_one_error_line_before_the_dataset_loads(
    tmp_path, capsys, bad, message
):
    config, out = tmp_path / "run.json", tmp_path / "t.jsonl"
    config.write_text(json.dumps(bad))
    # The dataset directory does not exist: the config is refused first.
    code = main([
        "run", "--dataset", str(tmp_path / "nowhere"), "--replay", str(tmp_path / "store"),
        "--config", str(config), "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_config_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_bytes(b"\xff{}")
    code = main([
        "run", "--dataset", str(tmp_path / "nowhere"), "--replay", str(tmp_path / "store"),
        "--config", str(config), "--out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config {config}: ")
    assert err.count("\n") == 1


def test_a_deeply_nested_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code = main([
        "run", "--dataset", str(tmp_path / "nowhere"), "--replay", str(tmp_path / "store"),
        "--config", str(config), "--out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read config {config}: maximum recursion")
    assert err.count("\n") == 1


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_run_with_a_broken_config_file_exits_2(dataset_dir, tmp_path_factory, data):
    """A full config file broken one way; the ``--replay`` path is no store,
    so a config that still reads stops there, before any model call."""
    scratch = tmp_path_factory.mktemp("config")
    config = scratch / "run.json"
    config.write_bytes(broken_json(data, cli.DEFAULT_CONFIG))
    code, err = cli_result([
        "run", "--dataset", str(dataset_dir), "--replay", str(scratch / "store"),
        "--config", str(config), "--out", str(scratch / "t.jsonl"),
    ])
    assert_one_documented_line(code, err, {2: "configuration error: "})
    assert not (scratch / "t.jsonl").exists()


def test_config_values_keep_their_default_types(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "generator": {"temperature": 1, "max_tokens": 64},
        "enable_error_correction": False,
    }))
    loaded = cli._load_config(config)
    # An integer temperature is read as the float it stands for, so the
    # request, and its digest, are those of ``1.0``.
    assert type(loaded["generator"]["temperature"]) is float
    assert loaded["generator"] == {**cli.DEFAULT_CONFIG["generator"], "temperature": 1.0,
                                   "max_tokens": 64}
    assert loaded["corrector"] == cli.DEFAULT_CONFIG["corrector"]
    assert loaded["enable_error_correction"] is False
    assert cli._load_config(None) == cli.DEFAULT_CONFIG


def test_run_replay_miss_exits_5(dataset_dir, tmp_path, capsys):
    code = main([
        "run", "--dataset", str(dataset_dir), "--replay", str(empty_store(tmp_path / "empty")),
        "--limit", "1", "--out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 5


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_run_replay_path_that_is_no_store_is_a_configuration_error(
    dataset_dir, tmp_path, monkeypatch, capsys, where
):
    # A store kept from the old layout, a directory of <digest>.json files,
    # is refused with a message saying the store is now one file.
    store, out = tmp_path / "store", tmp_path / "t.jsonl"
    reason = "unable to open database file"
    if where == "directory":
        store.mkdir()
        reason = "it is a directory"
    calls = counting_model_calls(monkeypatch)
    code = main(["run", "--dataset", str(dataset_dir), "--replay", str(store), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"configuration error: {store} is not a replay store ({reason}); "
        "a replay store is now one SQLite file\n"
    )
    assert calls == [] and not out.exists()


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
    ("run", "--replay", "--out"),
    ("run", "--replay", "--report"),
    ("run", "--record", "--out"),
    ("run", "--record", "--report"),
    ("evaluate", "--transcripts", "--out"),
    ("evaluate", "--transcripts", "--markdown"),
    ("evaluate", "--out", "--markdown"),
    ("evaluate", "--transcripts", "--verdicts"),
    ("evaluate", "--markdown", "--verdicts"),
])
def test_two_file_options_naming_one_file_are_a_usage_error(
    dataset_dir, tmp_path, capsys, command, first, second
):
    # The second option spells the path another way; nothing is read, no
    # model is called (the replay store is empty) and no file is written.
    empty_store(tmp_path / "store")
    (tmp_path / "sub").mkdir()
    shared = tmp_path / "shared.jsonl"
    shared.write_text("kept\n")
    argv = [command, "--dataset", str(dataset_dir), first, str(shared),
            second, str(tmp_path / "sub" / ".." / "shared.jsonl")]
    if command == "run":
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "t.jsonl")]
        if first not in ("--replay", "--record"):
            argv += ["--replay", str(tmp_path / "store")]
    elif "--transcripts" not in argv:
        argv += ["--transcripts", str(tmp_path / "t.jsonl")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"{first} and {second} name one file" in capsys.readouterr().err
    assert shared.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.jsonl", "store", "sub"]


def test_run_truncated_replay_fixture_exits_1(dataset_dir, tmp_path, capsys):
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, gold_reply(dataset_dir))
    conn = sqlite3.connect(store)
    with conn:
        conn.execute("UPDATE reply SET body = substr(body, 1, 20)")
    conn.close()
    code = main([
        "run", "--dataset", str(dataset_dir), "--replay", str(store),
        "--limit", "1", "--out", str(tmp_path / "t.jsonl"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert re.match(f"error: corrupt replay fixture [0-9a-f]{{64}} in {re.escape(str(store))}: ", err)
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("content, shown", [("null", "null"), ("5", "5")])
def test_run_reply_whose_content_is_no_string_exits_1(
    dataset_dir, tmp_path, capsys, content, shown
):
    # A refusal or a tool call comes back with null content.
    store = tmp_path / "store"
    build_replay_store(dataset_dir, store, gold_reply(dataset_dir))
    conn = sqlite3.connect(store)
    with conn:
        conn.execute(f"UPDATE reply SET body = json_set(body, '$.choices[0].message.content', "
                     f"json('{content}'))")
    conn.close()
    out = tmp_path / "t.jsonl"
    code = main(["run", "--dataset", str(dataset_dir), "--replay", str(store), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: malformed chat-completion response: content is {shown}, not a string\n"
    )


def test_report_on_empty_transcripts_zero_counts(dataset_dir, tmp_path, capsys):
    empty, markdown = tmp_path / "empty.jsonl", tmp_path / "report.md"
    empty.write_text("")
    code = main([
        "evaluate", "--dataset", str(dataset_dir), "--transcripts", str(empty),
        "--markdown", str(markdown),
    ])
    assert code == 0
    text = markdown.read_text()
    assert "| Count | 0 | 0 | 0 | 0 | 0 |" in text
    assert "No failures to triage." in text


def test_report_json_format(dataset_dir, tmp_path, capsys):
    empty, report = tmp_path / "empty.jsonl", tmp_path / "report.json"
    empty.write_text("")
    code = main([
        "evaluate", "--dataset", str(dataset_dir), "--transcripts", str(empty),
        "--no-timestamp", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["results"]["overall"] == 0.0
    assert payload["metadata"] == {"endpoints": []}


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
        "evaluate", "--dataset", str(dataset_dir), "--transcripts", str(tfile),
        "--verdicts", str(out),
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


def test_ast_of_an_infinite_literal_is_strict_json(dataset_dir, capsys):
    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    code = main([
        "ast", "--dataset", str(dataset_dir), "--db", "concert_singer",
        "SELECT 9e999, -9e999 FROM singer",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    positive, negative = (item["expr"] for item in payload["items"])
    assert positive["node"] == "Literal"
    assert (positive["value"], positive["text"]) == ("inf", "9e999")
    assert negative["operand"]["value"] == "inf"  # the minus sign is a Unary


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


@pytest.mark.parametrize("error, line, code", [
    (DatabaseMissingError("no file"), "harness fault: no file", 6),
    (DatabaseChangedError("file changed"), "harness fault: file changed", 6),
    (ReplayMissError("ab12"), "replay miss: no replay fixture for request digest ab12", 5),
    (RetriesExhaustedError("gave up"), "network failure: gave up", 4),
    (ConfigError("bad key"), "configuration error: bad key", 2),
    (DatasetError("no split"), "dataset error: no split", 3),
    (SchemaError("bad entry"), "dataset error: bad entry", 3),
    (TransportError("refused"), "error: refused", 1),
    (ParseError("bad sql"), "error: bad sql", 1),
    (Nl2SqlError("other"), "error: other", 1),
])
def test_each_error_class_is_one_line_and_its_exit_code(
    dataset_dir, monkeypatch, capsys, error, line, code
):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_ingest", failing)
    assert main(["ingest", "--dataset", str(dataset_dir)]) == code
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("command", ["ingest", "ast"])
def test_a_closed_standard_output_is_one_error_line(dataset_dir, command):
    argv = ["ingest", "--dataset", str(dataset_dir)]
    if command == "ast":  # an output far larger than a pipe's buffer
        sql = "SELECT " + ", ".join(["name"] * 400) + " FROM singer"
        argv = ["ast", "--dataset", str(dataset_dir), "--db", "concert_singer", sql]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "nl2sql.cli", *argv], env=_child_env(),
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write standard output: Broken pipe\n"


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


def run_mixed_replies(dataset_dir, tmp_path) -> Path:
    """Replay ``mixed_reply`` over the dataset; return the transcripts file."""
    store, transcripts = tmp_path / "store", tmp_path / "t.jsonl"
    build_replay_store(dataset_dir, store, mixed_reply(dataset_dir))
    assert main(["run", "--dataset", str(dataset_dir), "--replay", str(store),
                 "--out", str(transcripts)]) == 0
    return transcripts


# The files one ``evaluate`` call writes from the mixed replies, pinned byte
# for byte: the wrong value and the wrong year are PredictedValues, and the
# reply cut short after ORDER BY does not parse.
MIXED_VERDICTS = (
    '{"example_id": 2, "category": "PredictedValues", "subtag": null, "confidence": "definite", '
    '"evidence": {"diff": {"literals": [{"shape": "ship.disposition_of_ship = ?", '
    '"pred": "\'lost\'", "gold": "\'sank\'"}]}, '
    '"pred_rows": 1, "pred_columns": 1, "gold_rows": 1, "gold_columns": 1}}\n'
    '{"example_id": 6, "category": "Unclassifiable", "subtag": "ParseError", '
    '"confidence": "definite", "evidence": {"error": "unexpected token \'\' (at offset 33)", '
    '"sql": "SELECT name FROM stadium ORDER BY"}}\n'
    '{"example_id": 11, "category": "PredictedValues", "subtag": null, "confidence": "definite", '
    '"evidence": {"diff": {"literals": [{"shape": "concert.year = ?", '
    '"pred": "2015", "gold": "2014"}]}, '
    '"pred_rows": 2, "pred_columns": 1, "gold_rows": 3, "gold_columns": 1}}\n'
)
MIXED_MARKDOWN = """\
# Execution accuracy report

|  | Easy | Medium | Hard | Extra | All |
|---|---|---|---|---|---|
| Count | 4 | 1 | 2 | 5 | 12 |
| Exec Accuracy | 0.750 | 0.000 | 0.500 | 1.000 | 0.750 |

Quarantined examples: 0
Harness faults: 0

## Pipeline stage outcomes

- correct_first_shot: 9
- failed: 3

## Failure triage

| Category | Count | Fraction |
|---|---|---|
| PredictedValues | 2 | 0.667 |
| Unclassifiable | 1 | 0.333 |

| Subtag | Count | Fraction |
|---|---|---|
| PredictedValues | 2 | 0.667 |
| Unclassifiable.ParseError | 1 | 0.333 |

## Metadata

- endpoints: ['corrector', 'generator']
"""


def test_one_evaluate_call_scores_once_and_writes_every_file(
    dataset_dir, tmp_path, monkeypatch, capsys
):
    transcripts = run_mixed_replies(dataset_dir, tmp_path)
    calls = counting_executions(monkeypatch)
    evaluate = ["evaluate", "--dataset", str(dataset_dir), "--transcripts", str(transcripts),
                "--no-timestamp"]
    alone, report = tmp_path / "alone.json", tmp_path / "report.json"
    markdown, verdicts = tmp_path / "report.md", tmp_path / "verdicts.jsonl"
    assert main([*evaluate, "--out", str(alone)]) == 0
    executions_alone = len(calls)
    calls.clear()
    assert main([*evaluate, "--out", str(report), "--markdown", str(markdown),
                 "--verdicts", str(verdicts)]) == 0
    assert executions_alone > 0 and len(calls) == executions_alone

    assert report.read_bytes() == alone.read_bytes()
    assert markdown.read_text(encoding="utf-8") == MIXED_MARKDOWN
    assert verdicts.read_text(encoding="utf-8") == MIXED_VERDICTS
    rows = [json.loads(line) for line in verdicts.read_text().splitlines()]
    summary = json.loads(report.read_text())["results"]["triage"]
    assert len(rows) == summary["total"] == 3
    categories = Counter(row["category"] for row in rows)
    subtags = Counter(
        row["category"] + ("." + row["subtag"] if row["subtag"] else "") for row in rows
    )
    assert categories == {k: v["count"] for k, v in summary["categories"].items()}
    assert subtags == {k: v["count"] for k, v in summary["subtags"].items()}


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
    assert main([
        *run, "--out", str(with_report), "--report", str(run_report), "--no-timestamp",
    ]) == 0
    assert with_report.read_bytes() == plain.read_bytes()
    assert main([
        "evaluate", "--dataset", str(dataset_dir), "--transcripts", str(with_report),
        "--no-timestamp", "--out", str(eval_report),
    ]) == 0

    assert run_report.read_bytes() == eval_report.read_bytes()
    ran = json.loads(run_report.read_text())
    assert "generated_at" not in ran["metadata"]
    assert 0 < ran["results"]["overall"] < 1
    assert ran["results"]["triage"]["total"] > 0


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """The argument list of each ``nl2sql`` line in README.md's CLI block,
    with ``\\`` continuations joined."""
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = block.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("nl2sql ")]


def test_readme_cli_block_names_only_commands_and_options_that_exist():
    commands = readme_commands()
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a usage error exits, which fails the test


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
    assert main(["evaluate", "--dataset", str(dataset_dir), "--transcripts", str(transcripts),
                 "--verdicts", str(verdicts)]) == 0
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
    missing, verdicts = tmp_path / "nope.jsonl", tmp_path / "v.jsonl"
    code = main([
        "evaluate", "--dataset", str(dataset_dir), "--transcripts", str(missing),
        "--verdicts", str(verdicts),
    ])
    assert code == 1
    one_error_line(capsys, "read", missing)
    assert not verdicts.exists()


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
        "not-an-object.jsonl": (b"[1, 2]\n", "line 1: expected dict, got list"),
        "deep.jsonl": (b"[" * 100_000 + b"]" * 100_000 + b"\n", "line 1: maximum recursion depth"),
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
        capsys.readouterr()
        code = main(["evaluate", "--dataset", str(dataset_dir), "--transcripts", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: {reason}")
        assert err.count("\n") == 1 and err.endswith("\n")
        if name not in ("cut.jsonl", "deep.jsonl"):
            assert err == f"error: cannot read {path}: {reason}\n"


@pytest.fixture(scope="module")
def two_transcripts(dataset_dir, tmp_path_factory):
    scratch = tmp_path_factory.mktemp("transcripts")
    store, out = scratch / "store", scratch / "t.jsonl"
    build_replay_store(dataset_dir, store, gold_reply(dataset_dir))
    run = ["run", "--dataset", str(dataset_dir), "--replay", str(store), "--limit", "2"]
    assert main([*run, "--out", str(out)]) == 0
    return out.read_bytes().splitlines(keepends=True)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_evaluate_of_a_broken_transcripts_line_exits_0_1_or_3(
    dataset_dir, two_transcripts, tmp_path_factory, data
):
    lines = list(two_transcripts)
    at = data.draw(st.sampled_from(range(len(lines))))
    lines[at] = broken_json(data, json.loads(lines[at])) + b"\n"
    path = tmp_path_factory.mktemp("broken") / "t.jsonl"
    path.write_bytes(b"".join(lines))
    code, err = cli_result(["evaluate", "--dataset", str(dataset_dir), "--transcripts", str(path)])
    assert_one_documented_line(
        code, err, {0: None, 1: f"error: cannot read {path}: line ", 3: "dataset error: "}
    )


@pytest.mark.parametrize("option", ["--out", "--markdown", "--verdicts"])
def test_evaluate_output_in_a_missing_directory_is_one_error_line(
    dataset_dir, tmp_path, monkeypatch, capsys, option
):
    # Every output is checked before the transcripts are scored, so nothing
    # executes and no other output is written.
    transcripts = run_mixed_replies(dataset_dir, tmp_path)
    calls = counting_executions(monkeypatch)
    target, report = tmp_path / "no-such-dir" / "file", tmp_path / "report.json"
    outputs = [option, str(target)]
    if option != "--out":
        outputs += ["--out", str(report)]
    code = main([
        "evaluate", "--dataset", str(dataset_dir), "--transcripts", str(transcripts), *outputs
    ])
    assert code == 1
    one_error_line(capsys, "write", target)
    assert calls == [] and not report.exists()


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


def _live_run(tmp_path, monkeypatch, reply_fn=None):
    """Arguments for a live ``run`` whose transport never leaves the process:
    with ``reply_fn`` it is scripted, without it a model call fails the test."""
    monkeypatch.setenv("NL2SQL_API_KEY", "k")

    def no_model_call(request):
        raise AssertionError("a model was called")

    def live(base_url):
        return ScriptedTransport(reply_fn or no_model_call)

    monkeypatch.setattr(cli, "HttpChatTransport", live)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({role: {"base_url": "http://127.0.0.1:9/v1"}
                                  for role in ("generator", "corrector")}))
    return ["--config", str(config)]


def test_run_record_then_replay_gives_the_same_transcripts(dataset_dir, tmp_path, monkeypatch):
    # Two recorders, one per role, share the store under two workers, and
    # the last to close leaves it one file in rollback mode.
    store = tmp_path / "store"
    live = _live_run(tmp_path, monkeypatch, mixed_reply(dataset_dir))
    dataset = ["run", "--dataset", str(dataset_dir), "--workers", "2"]
    recorded, replayed = tmp_path / "recorded.jsonl", tmp_path / "replayed.jsonl"
    assert main([*dataset, *live, "--record", str(store), "--out", str(recorded)]) == 0
    assert not list(tmp_path.glob("store-*"))
    before = store.read_bytes()
    assert main([*dataset, "--replay", str(store), "--out", str(replayed)]) == 0
    assert replayed.read_bytes() == recorded.read_bytes()
    assert store.read_bytes() == before and not list(tmp_path.glob("store-*"))


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_run_record_path_is_checked_before_the_first_model_call(
    dataset_dir, tmp_path, monkeypatch, capsys, where
):
    live = _live_run(tmp_path, monkeypatch)
    out = tmp_path / "t.jsonl"
    store = tmp_path / "no-such-dir" / "store"
    if where == "directory":
        store = tmp_path / "store"
        store.mkdir()
    code = main(["run", "--dataset", str(dataset_dir), *live, "--record", str(store),
                 "--out", str(out)])
    err = capsys.readouterr().err
    if where == "directory":
        assert code == 2
        assert err == (
            f"configuration error: {store} is not a replay store (it is a directory); "
            "a replay store is now one SQLite file\n"
        )
    else:
        assert code == 1
        assert err == f"error: cannot write {store}: No such file or directory\n"
        assert not store.parent.exists()
    assert not out.exists()
