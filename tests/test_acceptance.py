"""Acceptance suite: one test per gate criterion, each printing a PASS or
FAIL line. Criterion 6 needs the full public dev split on disk; point
SPIDER_DATASET_DIR at it (the test skips loudly when it is absent)."""

from __future__ import annotations

import json
import os
import random
import re
from contextlib import contextmanager
from pathlib import Path

import pytest

from nl2sql.dataset import load_dataset
from nl2sql.evaluate import score, weighted_execution_accuracy
from nl2sql.execution import OutcomeMemo, ResultTable, execute, tables_equivalent
from nl2sql.hardness import Hardness
from nl2sql.llm import ModelEndpoint, RecordingTransport, ReplayTransport
from nl2sql.pipeline import PipelineConfig, run_many, write_transcripts
from nl2sql.prompts import CORRECTOR_SYSTEM_PROMPT
from nl2sql.sqlast import canonicalize, diff, parse
from nl2sql.triage import Category, triage

from conftest import (
    BELOW_AVERAGE_CARS_SQL,
    EXTRA_JOIN_CARS_SQL,
    GROUPED_BY_ID_SQL,
    GROUPED_BY_NAME_SQL,
    make_dataset,
)
from helpers import ScriptedTransport, alias_permuted_sql, generate_corpus, score_pairs
from test_properties import oracle_multiset_equal, oracle_sequence_equal


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except pytest.skip.Exception:
        print(f"ACCEPTANCE {number} SKIP: {title}")
        raise
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {number} PASS: {title}")


def test_criterion_1_weighted_average_arithmetic():
    with criterion(1, "published bucket counts and accuracies combine to 0.821"):
        buckets = {
            Hardness.EASY: (248, 0.940),
            Hardness.MEDIUM: (446, 0.857),
            Hardness.HARD: (174, 0.805),
            Hardness.EXTRA: (166, 0.566),
        }
        assert round(weighted_execution_accuracy(buckets), 3) == 0.821


def test_criterion_2_reference_query_suite(schemas):
    with criterion(2, "grouped-pair tie triage; cars pair rows 0/230 and JoinClauses.Extra"):
        student = schemas["student_course"]
        pred_table = execute(GROUPED_BY_ID_SQL, student).table
        gold_table = execute(GROUPED_BY_NAME_SQL, student).table
        # the pair returns a different single course, so it is a real triage case
        assert pred_table.rows != gold_table.rows
        assert not tables_equivalent(pred_table, gold_table).equivalent
        # and the fixture really has a five-way tie at the top enrolment count
        tie_counts = execute(
            "SELECT count(*) FROM student_enrolment_courses "
            "GROUP BY course_id ORDER BY count(*) DESC",
            student,
        ).table
        top = [row[0] for row in tie_counts.rows]
        assert top.count(top[0]) == 5
        verdict = triage(
            parse(GROUPED_BY_ID_SQL, student),
            parse(GROUPED_BY_NAME_SQL, student),
            pred_table,
            gold_table,
            OutcomeMemo(student),
        )
        assert verdict.category is Category.DATASET_INCONSISTENCY
        assert verdict.subtag == "TieAmbiguity"

        cars = schemas["car_1"]
        extra_join = execute(EXTRA_JOIN_CARS_SQL, cars).table
        below_avg = execute(BELOW_AVERAGE_CARS_SQL, cars).table
        assert len(extra_join.rows) == 0
        assert len(below_avg.rows) == 230
        delta = diff(
            canonicalize(parse(EXTRA_JOIN_CARS_SQL, cars)),
            canonicalize(parse(BELOW_AVERAGE_CARS_SQL, cars)),
        )
        assert delta.joins.extra_tables == ("model_list",)
        verdict = triage(
            parse(EXTRA_JOIN_CARS_SQL, cars),
            parse(BELOW_AVERAGE_CARS_SQL, cars),
            extra_join,
            below_avg,
            OutcomeMemo(cars),
        )
        assert verdict.category is Category.JOIN_CLAUSES
        assert verdict.subtag == "Extra"


def test_criterion_3_alias_equivalence_over_corpus(schemas):
    with criterion(3, "200+ alias-permuted gold queries: equal canonical form, scored correct"):
        corpus = generate_corpus(schemas, minimum=200)
        assert len(corpus) >= 200
        pairs = []
        failures = []
        for seed, (db_id, sql) in enumerate(corpus):
            schema = schemas[db_id]
            permuted = alias_permuted_sql(sql, schema, seed=seed)
            pairs.append((db_id, permuted, sql))
            if canonicalize(parse(permuted, schema)) != canonicalize(parse(sql, schema)):
                failures.append((sql, permuted))
        assert not failures, failures[:3]
        report = score_pairs(pairs, schemas)
        assert report.overall == 1.0
        assert report.verdicts == {}


def _random_table(rng: random.Random) -> ResultTable:
    n_cols = rng.randint(1, 3)
    n_rows = rng.randint(0, 5)

    def cell():
        kind = rng.randint(0, 3)
        if kind == 0:
            return None
        if kind == 1:
            return rng.randint(-5, 5)
        if kind == 2:
            return round(rng.uniform(-5, 5), 2)
        return rng.choice(["a", "b", "lost", "sank", "x|y"])

    return ResultTable(
        columns=tuple(f"c{i}" for i in range(n_cols)),
        rows=tuple(tuple(cell() for _ in range(n_cols)) for _ in range(n_rows)),
        ordered=bool(rng.randint(0, 1)),
    )


def test_criterion_4_equivalence_relation_and_oracles():
    with criterion(4, "equivalence relation over 1000 random tables; oracle agreement"):
        rng = random.Random(20240817)
        tables = [_random_table(rng) for _ in range(1000)]
        # reflexivity over all 1000
        for t in tables:
            assert tables_equivalent(t, t).equivalent
        # symmetry + oracle agreement over pairs; build matching pairs too
        for i in range(0, 1000, 2):
            a, b = tables[i], tables[i + 1]
            if rng.random() < 0.3:  # inject permuted copies to exercise equality
                rows = list(a.rows)
                rng.shuffle(rows)
                b = ResultTable(columns=a.columns, rows=tuple(rows), ordered=a.ordered)
            forward = tables_equivalent(a, b).equivalent
            backward = tables_equivalent(b, a).equivalent
            assert forward == backward
            both_unordered = (
                ResultTable(a.columns, a.rows, False),
                ResultTable(b.columns, b.rows, False),
            )
            assert (
                tables_equivalent(*both_unordered).equivalent
                == oracle_multiset_equal(*both_unordered)
            )
            both_ordered = (
                ResultTable(a.columns, a.rows, True),
                ResultTable(b.columns, b.rows, True),
            )
            assert (
                tables_equivalent(*both_ordered).equivalent
                == oracle_sequence_equal(*both_ordered)
            )
        # transitivity over triples drawn from a pool with many collisions
        pool = [_random_table(random.Random(s % 17)) for s in range(120)]
        for i in range(0, 120, 3):
            a, b, c = pool[i], pool[i + 1], pool[i + 2]
            if tables_equivalent(a, b).equivalent and tables_equivalent(b, c).equivalent:
                assert tables_equivalent(a, c).equivalent


# --------------------------------------------------------------------------- criterion 5

SENTINEL = "aside: remember the umbrella stands by the door"

_FLOWS = ("first_shot", "example_fix", "error_fix", "fail")


def _replay_examples() -> list[dict]:
    golds = []
    for k in range(1, 8):
        golds.append(f"SELECT name FROM ship WHERE id = {k}")
    for disp in ("captured", "wrecked", "sank", "scuttled"):
        golds.append(f"SELECT name FROM ship WHERE disposition_of_ship = '{disp}'")
    for disp in ("captured", "wrecked", "sank", "scuttled"):
        golds.append(f"SELECT count(*) FROM ship WHERE disposition_of_ship = '{disp}'")
    for k in (1, 2, 3):
        golds.append(f"SELECT name FROM ship ORDER BY id LIMIT {k}")
    for k in (1, 2, 3, 4, 5):
        golds.append(f"SELECT name FROM ship WHERE id > {k}")
    golds.append("SELECT disposition_of_ship, count(*) FROM ship GROUP BY disposition_of_ship")
    golds.append("SELECT name FROM ship")
    assert len(golds) == 25
    return [
        {"db_id": "battle_death", "question": f"replay case {i:02d}", "query": gold}
        for i, gold in enumerate(golds)
    ]


def _wrong_variant(gold: str) -> str:
    # A query that executes but returns different rows.
    if "id = " in gold:
        k = int(gold.rsplit("= ", 1)[1])
        return gold.replace(f"id = {k}", f"id = {1 + k % 7}")
    if "disposition_of_ship = 'sank'" in gold:
        return gold.replace("'sank'", "'captured'")
    if "disposition_of_ship = '" in gold:
        return re.sub(r"= '\w+'", "= 'sank'", gold)
    if "LIMIT" in gold:
        k = int(gold.rsplit(" ", 1)[1])
        return gold.replace(f"LIMIT {k}", f"LIMIT {k + 1}")
    if "id > " in gold:
        k = int(gold.rsplit("> ", 1)[1])
        return gold.replace(f"id > {k}", f"id > {k + 1}")
    if "GROUP BY" in gold:
        return "SELECT disposition_of_ship, count(*) FROM ship GROUP BY name"
    return "SELECT name FROM ship WHERE id < 3"


def _scripted_reply(examples: list[dict]):
    by_question = {ex["question"]: ex["query"] for ex in examples}

    def reply(request):
        first_user = next(m for m in request["messages"] if m["role"] == "user")
        match = re.search(r"### Question: (.*)", first_user["content"])
        question = match.group(1)
        gold = by_question[question]
        index = int(question.rsplit(" ", 1)[1])
        flow = _FLOWS[index % 4]
        system = request["messages"][0]["content"]
        in_error_stage = system == CORRECTOR_SYSTEM_PROMPT
        rounds = sum(1 for m in request["messages"] if m["role"] == "assistant")
        if flow == "first_shot":
            return gold
        if flow == "example_fix":
            return gold if rounds >= 1 else _wrong_variant(gold)
        if flow == "error_fix":
            broken = gold.replace("ship", "shipz")
            return gold if in_error_stage else broken
        # fail: wrong everywhere, with chatter that must not leak
        return f"```sql\n{_wrong_variant(gold)}\n```\n{SENTINEL}"

    return reply


@pytest.fixture(scope="module")
def replay_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("replay")
    examples = _replay_examples()
    dataset = make_dataset(root / "dataset", examples, db_ids=["battle_death"])
    store = root / "store"
    loaded = load_dataset(dataset, "dev")
    reply = _scripted_reply(examples)
    generator = ModelEndpoint(
        "generator", RecordingTransport(ScriptedTransport(reply), store), "gen-model"
    )
    corrector = ModelEndpoint(
        "corrector", RecordingTransport(ScriptedTransport(reply), store), "fix-model"
    )
    run_many(loaded.examples, loaded.schemas, PipelineConfig(), generator, corrector)
    return dataset, store, root


def test_criterion_5_replay_determinism(replay_setup):
    with criterion(5, "25-example replay: byte-identical, call bounds, isolated error prompts"):
        dataset, store, root = replay_setup
        loaded = load_dataset(dataset, "dev")
        assert len(loaded.examples) == 25
        config = PipelineConfig()
        runs = []
        for n in (1, 2):
            generator = ModelEndpoint("generator", ReplayTransport(store), "gen-model")
            corrector = ModelEndpoint("corrector", ReplayTransport(store), "fix-model")
            transcripts = run_many(
                loaded.examples, loaded.schemas, config, generator, corrector, workers=3
            )
            out = root / f"run{n}.jsonl"
            write_transcripts(transcripts, out)
            runs.append((transcripts, out.read_bytes()))
        assert runs[0][1] == runs[1][1]

        bound = 1 + config.max_example_correction_rounds + 1
        for t in runs[0][0]:
            assert t.model_calls <= bound
            flow = _FLOWS[t.example_id % 4]
            expected_calls = {"first_shot": 1, "example_fix": 2, "error_fix": 3, "fail": 3}[flow]
            assert t.model_calls == expected_calls, (t.example_id, flow)
            expected_verdict = {
                "first_shot": "correct_first_shot",
                "example_fix": "corrected_by_example",
                "error_fix": "corrected_by_error",
                "fail": "failed",
            }[flow]
            assert t.final_verdict.value == expected_verdict
            error_stages = [s for s in t.stages if s.stage == "error_correction"]
            for stage in error_stages:
                text = "\n".join(m["content"] for m in stage.messages)
                assert SENTINEL not in text
                earlier_replies = [s.reply for s in t.stages if s is not stage]
                for reply in earlier_replies:
                    prose = reply.replace(t.final_sql or "", "")
                    for line in prose.splitlines():
                        line = line.strip().strip("`")
                        if line and not line.upper().startswith("SELECT") and line != "sql":
                            assert line not in text


def test_run_and_evaluate_agree(replay_setup):
    # `run` and `evaluate` judge with one rule: every transcript the pipeline
    # marked correct scores correct, and only failed transcripts are triaged.
    dataset, store, _ = replay_setup
    loaded = load_dataset(dataset, "dev")
    generator = ModelEndpoint("generator", ReplayTransport(store), "gen-model")
    corrector = ModelEndpoint("corrector", ReplayTransport(store), "fix-model")
    transcripts = run_many(loaded.examples, loaded.schemas, PipelineConfig(), generator, corrector)
    report = score(transcripts, list(loaded.examples), loaded.schemas)
    verdicts = {t.example_id: t.final_verdict.value for t in transcripts}
    correct = sum(b.correct for b in report.buckets.values())
    assert correct == sum(v.startswith("correct") for v in verdicts.values()) > 0
    assert report.verdicts
    assert all(verdicts[example_id] == "failed" for example_id in report.verdicts)


def test_criterion_6_dev_set_hardness_buckets():
    with criterion(6, "full dev split buckets 248/446/174/166 within +/-2"):
        candidates = [
            os.environ.get("SPIDER_DATASET_DIR"),
            "data/spider",
            str(Path(__file__).resolve().parent.parent / "data" / "spider"),
        ]
        dataset_dir = next(
            (Path(c) for c in candidates if c and (Path(c) / "dev.json").is_file()), None
        )
        if dataset_dir is None:
            pytest.skip(
                "public dev split not installed; set SPIDER_DATASET_DIR to a "
                "directory holding dev.json/tables.json/database to run this gate"
            )
        loaded = load_dataset(dataset_dir, "dev")
        profile = loaded.hardness_profile()
        print(
            "dev buckets:",
            {h.value: profile[h] for h in Hardness},
            "quarantined:",
            len(loaded.quarantined),
        )
        expected = {
            Hardness.EASY: 248,
            Hardness.MEDIUM: 446,
            Hardness.HARD: 174,
            Hardness.EXTRA: 166,
        }
        for hardness, want in expected.items():
            got = profile[hardness]
            assert abs(got - want) <= 2, f"{hardness.value}: {got} vs {want}"


REPORT_BUCKET_KEYS = {"count", "correct", "accuracy"}
REPORT_RESULT_KEYS = {"buckets", "overall", "quarantined", "faults", "verdicts", "triage"}


def test_criterion_7_live_mode_report_format(replay_setup):
    with criterion(7, "live-run mode documented; replay report format matches the pinned schema"):
        dataset, store, root = replay_setup
        loaded = load_dataset(dataset, "dev")
        generator = ModelEndpoint("generator", ReplayTransport(store), "gen-model")
        corrector = ModelEndpoint("corrector", ReplayTransport(store), "fix-model")
        transcripts = run_many(
            loaded.examples, loaded.schemas, PipelineConfig(), generator, corrector
        )
        report = score(transcripts, list(loaded.examples), loaded.schemas)
        payload = report.results_payload()
        assert set(payload) == REPORT_RESULT_KEYS
        assert set(payload["buckets"]) == {"easy", "medium", "hard", "extra"}
        for bucket in payload["buckets"].values():
            assert set(bucket) == REPORT_BUCKET_KEYS
        # the live path is the same scorer behind `run` without --replay;
        # README documents how to switch
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        assert "--replay" in readme
        assert "NL2SQL_API_KEY" in readme
        json.dumps(payload)  # machine-readable end to end
