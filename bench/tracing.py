"""Span tracing from outside the harness, and the per-layer metrics.

``Tracer.install`` rebinds the module attributes callers resolve at call
time (``nl2sql.pipeline.execute_for_comparison``, ``nl2sql.execution.execute``,
``nl2sql.triage.tie_ambiguity_test`` and so on) to wrappers that record a
span per call; ``uninstall`` restores the originals. Nothing in the harness
is edited. A target that no longer exists is skipped and reported, so a
refactor of the harness shows up as a missing layer, not as a crash.

A span is ``[name, start, end, parent, example_id, attrs]``. The parent
stack is per thread, so spans from concurrent pipeline workers nest
correctly; spans of one example carry its id. Self time is a span's
duration minus the time its children cover (children run on the span's
own thread, one after another, so their durations add).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import Counter
from pathlib import Path

NAME, START, END, PARENT, EXAMPLE, ATTRS = range(6)

EXECUTION = ("execute_for_comparison", "execute")
TRIAGE = ("triage", "tie_probe", "suspect_gold")
PROBES = ("tie_probe", "suspect_gold")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _execute_attrs(args, kwargs, outcome):
    sql = _arg(args, kwargs, 0, "sql")
    schema = _arg(args, kwargs, 1, "schema")
    limits = _arg(args, kwargs, 2, "limits")
    rows = len(outcome.table.rows) if outcome.table is not None else 0
    return (schema.db_id, sql, repr(limits), rows)


def _compare_attrs(args, kwargs, _result):
    pred = _arg(args, kwargs, 0, "pred")
    gold = _arg(args, kwargs, 1, "gold")
    return len(pred.rows) * len(pred.columns) + len(gold.rows) * len(gold.columns)


def _example_id(pos, name):
    def get(args, kwargs):
        example = _arg(args, kwargs, pos, name)
        return getattr(example, "id", None)
    return get


# (module, attribute path, span name, attrs(args, kwargs, result), example id(args, kwargs))
TARGETS = (
    ("nl2sql.pipeline", "run_pipeline", "pipeline", None, _example_id(0, "example")),
    ("nl2sql.evaluate", "score", "evaluate", None, None),
    ("nl2sql.evaluate", "_score_one", "evaluate", None, _example_id(1, "example")),
    ("nl2sql.pipeline", "execute_for_comparison", "execute_for_comparison", None, None),
    ("nl2sql.evaluate", "execute_for_comparison", "execute_for_comparison", None, None),
    ("nl2sql.triage", "execute_for_comparison", "execute_for_comparison", None, None),
    ("nl2sql.execution", "execute", "execute", _execute_attrs, None),
    ("nl2sql.pipeline", "tables_equivalent", "compare", _compare_attrs, None),
    ("nl2sql.evaluate", "tables_equivalent", "compare", _compare_attrs, None),
    ("nl2sql.triage", "tables_equivalent", "compare", _compare_attrs, None),
    ("nl2sql.execution", "tokenize", "tokenize", None, None),
    ("nl2sql.pipeline", "tokenize", "tokenize", None, None),
    ("nl2sql.evaluate", "parse", "parse", None, None),
    ("nl2sql.dataset", "parse", "parse", None, None),
    ("nl2sql.triage", "canonicalize", "canonicalize", None, None),
    ("nl2sql.triage", "diff", "diff", None, None),
    ("nl2sql.triage", "to_sql", "to_sql", None, None),
    ("nl2sql.sqlast.canonical", "to_sql", "to_sql", None, None),
    ("nl2sql.sqlast.diff", "to_sql", "to_sql", None, None),
    ("nl2sql.evaluate", "triage", "triage", None, None),
    ("nl2sql.triage", "tie_ambiguity_test", "tie_probe", None, None),
    ("nl2sql.triage", "suspect_gold_check", "suspect_gold", None, None),
    ("nl2sql.pipeline", "render_markdown", "render_markdown", None, None),
    ("nl2sql.pipeline", "zero_shot_user_prompt", "prompts", None, None),
    ("nl2sql.pipeline", "example_correction_prompt", "prompts", None, None),
    ("nl2sql.pipeline", "error_correction_prompt", "prompts", None, None),
    ("nl2sql.llm", "ModelEndpoint.complete", "llm", None, None),
    ("nl2sql.llm", "ReplayTransport.send", "llm.send", None, None),
    ("nl2sql.llm", "request_digest", "llm.digest", None, None),
    ("nl2sql.dataset", "classify_hardness", "hardness", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, attrs_fn, example_fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            example = example_fn(args, kwargs) if example_fn is not None else None
            if example is None and parent is not None:
                example = parent[EXAMPLE]
            span = [name, clock(), 0.0, parent, example, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                spans.append(span)
            if attrs_fn is not None:
                span[ATTRS] = attrs_fn(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, path, name, attrs_fn, example_fn in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_fn, example_fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def write_spans(spans: list[list], path: Path) -> None:
    """Write spans as JSON lines, parents referenced by line number."""
    index = {id(span): i for i, span in enumerate(spans)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for span in spans:
            parent = span[PARENT]
            fh.write(json.dumps({
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "parent": index.get(id(parent)) if parent is not None else None,
                "example": span[EXAMPLE],
            }) + "\n")


# --------------------------------------------------------------------------- analysis

def _in_probe(span) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME] in PROBES:
            return True
        parent = parent[PARENT]
    return False


def _p50_us(durations: list[float]) -> float:
    return statistics.median(durations) * 1e6 if durations else 0.0


def analyse(spans: list[list], gold_sql: dict[int, str]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and its exact work counters.

    ``gold_sql`` maps example id to gold SQL; an execution of that text
    inside that example's spans is a gold execution.
    """
    examples = len(gold_sql)
    by_name: dict[str, list[list]] = {}
    child_time: dict[int, float] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
        parent = span[PARENT]
        if parent is not None:
            child_time[id(parent)] = child_time.get(id(parent), 0.0) + span[END] - span[START]

    def spans_of(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def durations(*names):
        return [s[END] - s[START] for s in spans_of(*names)]

    def self_ms_per_example(*names):
        total = sum(s[END] - s[START] - child_time.get(id(s), 0.0) for s in spans_of(*names))
        return total * 1e3 / examples

    def per_example(*names):
        return len(spans_of(*names)) / examples

    def ms_per_call(name):
        d = durations(name)
        return sum(d) * 1e3 / len(d) if d else 0.0

    executes = spans_of("execute")
    roles = Counter(
        "probe" if _in_probe(s) else ("gold" if gold_sql.get(s[EXAMPLE]) == s[ATTRS][1] else "pred")
        for s in executes
    )
    seen: set[tuple] = set()
    redundant = 0
    for s in sorted(executes, key=lambda s: s[START]):
        key = s[ATTRS][:3]
        redundant += key in seen
        seen.add(key)
    executes_per_efc = Counter(
        id(s[PARENT]) for s in executes
        if s[PARENT] is not None and s[PARENT][NAME] == "execute_for_comparison"
    )
    retries = sum(n - 1 for n in executes_per_efc.values())
    triage_calls = len(spans_of("triage"))

    counters = {
        "executions": len(executes),
        "gold_executions": roles["gold"],
        "pred_executions": roles["pred"],
        "probe_executions": roles["probe"],
        "retry_10x": retries,
        "rows": sum(s[ATTRS][3] for s in executes),
        "compare_calls": len(spans_of("compare")),
        "compare_cells": sum(s[ATTRS] for s in spans_of("compare")),
        "model_calls": len(spans_of("llm.send")),
        "tokenize_calls": len(spans_of("tokenize")),
        "parses": len(spans_of("parse")),
        "render_markdown_calls": len(spans_of("render_markdown")),
        "triage_calls": triage_calls,
    }
    metrics = {
        "execution.calls_per_example": len(executes) / examples,
        "execution.gold_calls_per_example": roles["gold"] / examples,
        "execution.redundant_frac": redundant / len(executes) if executes else 0.0,
        "execution.us_p50": _p50_us(durations("execute")),
        "execution.self_ms_per_example": self_ms_per_example(*EXECUTION),
        "execution.retry_10x": retries,
        "execution.rows_per_example": counters["rows"] / examples,
        "compare.calls_per_example": per_example("compare"),
        "compare.cells_per_example": counters["compare_cells"] / examples,
        "compare.self_ms_per_example": self_ms_per_example("compare"),
        "tokenize.calls_per_example": per_example("tokenize"),
        "tokenize.us_p50": _p50_us(durations("tokenize")),
        "parse.calls_per_example": per_example("parse"),
        "parse.us_p50": _p50_us(durations("parse")),
        "canonicalize.us_p50": _p50_us(durations("canonicalize")),
        "diff.us_p50": _p50_us(durations("diff")),
        "to_sql.us_p50": _p50_us(durations("to_sql")),
        "triage.calls_per_example": triage_calls / examples,
        "triage.self_ms_per_example": self_ms_per_example(*TRIAGE),
        "triage.tie_probe_ms_per_call": ms_per_call("tie_probe"),
        "triage.suspect_gold_ms_per_call": ms_per_call("suspect_gold"),
        "triage.probe_executions_per_call": (
            roles["probe"] / triage_calls if triage_calls else 0.0
        ),
        "render_markdown.us_p50": _p50_us(durations("render_markdown")),
        "prompts.us_p50": _p50_us(durations("prompts")),
        "llm.calls_per_example": per_example("llm.send"),
        "llm.send_us_p50": _p50_us(durations("llm.send")),
        "llm.digest_us_p50": _p50_us(durations("llm.digest")),
        "pipeline.self_ms_per_example": self_ms_per_example("pipeline"),
        "evaluate.self_ms_per_example": self_ms_per_example("evaluate"),
    }
    return metrics, counters


def load_metrics(spans: list[list], load_seconds: float) -> dict:
    """Metrics of one traced ``load_dataset`` call."""
    hardness = [s[END] - s[START] for s in spans if s[NAME] == "hardness"]
    return {"dataset.load_s": load_seconds, "hardness.us_p50": _p50_us(hardness)}
