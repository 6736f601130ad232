"""``tools/pairs.py`` summarises paired benchmark results, fed canned lines
here so the tests start no benchmark."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"


def _load_pairs():
    spec = importlib.util.spec_from_file_location("tools_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load_pairs()


def line(failed=0, **metrics) -> str:
    return json.dumps({
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {name: {"value": value, "unit": "ms"} for name, value in metrics.items()},
    })


def run_output(result_line: str) -> str:
    return f"environment: {{}}\nscore_ms_per_example 1.0 ms\n{result_line}\n"


def rows_by_metric(rows):
    return {row.split()[0]: row.split() for row in rows[1:]}


def test_result_is_the_last_json_line():
    assert pairs.result(run_output(line(a=1.0)))["metrics"]["a"]["value"] == 1.0
    assert pairs.result("") == {}
    assert pairs.result("Traceback ...\nValueError: boom\n") == {}


def test_a_clear_gain_wins_every_pair_and_beats_the_parent_iqr():
    base = [pairs.result(run_output(line(a=v, b=1.0))) for v in (1.0, 1.1, 0.9, 1.05)]
    change = [pairs.result(run_output(line(a=v, b=1.0))) for v in (0.8, 0.85, 0.75, 0.8)]
    rows, ok = pairs.compare(base, change, {"a": "lower"})
    assert ok
    a, b = rows_by_metric(rows)["a"], rows_by_metric(rows)["b"]
    assert a[-3:-1] == ["4/4", f"{1.025 - 0.8:.4g}"] and a[-1] == "yes"
    assert b[-3:] == ["0/4", "0", "no"]  # ties win for neither


def test_direction_follows_the_declared_better():
    base = [json.loads(line(rate=v)) for v in (10.0, 11.0, 10.5)]
    change = [json.loads(line(rate=v)) for v in (9.0, 9.5, 9.2)]
    lower = rows_by_metric(pairs.compare(base, change, {})[0])["rate"]
    higher = rows_by_metric(pairs.compare(base, change, {"rate": "higher"})[0])["rate"]
    assert (lower[-3], lower[-1]) == ("3/3", "yes")
    assert (higher[-3], higher[-1]) == ("0/3", "no")


def test_any_failed_or_missing_run_fails_the_comparison():
    good = json.loads(line(a=1.0))
    assert pairs.compare([good], [good], {})[1]
    assert not pairs.compare([good], [json.loads(line(failed=2, a=1.0))], {})[1]
    assert not pairs.compare([good], [{}], {})[1]  # a run that crashed
    assert not pairs.compare([good, good], [good], {})[1]
    assert not pairs.compare([], [], {})[1]


def finished(returncode, stdout="", stderr=""):
    return subprocess.CompletedProcess([], returncode, stdout, stderr)


def test_a_run_without_a_result_is_named_with_its_exit_code_and_last_error_line():
    crashed = finished(1, stderr="Traceback ...\nValueError: boom\n\n")
    assert pairs.outcome(crashed, "change", 3) == ({}, "pair 3 change: exit 1: ValueError: boom")
    silent = finished(0, stdout="environment: {}\n")
    assert pairs.outcome(silent, "parent", 1) == ({}, "pair 1 parent: exit 0: no standard error")
    good = finished(0, stdout=run_output(line(a=1.0)))
    assert pairs.outcome(good, "parent", 2) == (json.loads(line(a=1.0)), None)


def test_each_workload_gets_its_own_table(monkeypatch, tmp_path, capsys):
    values = {("one", "parent"): 2.0, ("one", "change"): 1.0, ("two", "parent"): 5.0}

    def canned(tree, workload, args):
        value = values.get((workload, tree.name))
        if value is None:
            return finished(1, stderr="no such workload: two\n")
        return finished(0, stdout=run_output(line(a=value)))

    monkeypatch.setattr(pairs, "extract", lambda rev, into: into)
    monkeypatch.setattr(pairs, "run", canned)
    argv = ["--workload", "one", "--workload", "two", "--seed", "1", "--pairs", "2",
            "--change", "HEAD"]
    assert pairs.main(argv) == 1
    out, err = capsys.readouterr()
    one, two = out.split("\n\n")
    assert one.splitlines()[0] == "workload one"
    assert rows_by_metric(one.splitlines()[1:])["a"][-3:] == ["2/2", "1", "yes"]
    assert two.splitlines()[0] == "workload two" and len(two.splitlines()) == 2
    assert "two pair 1 change: exit 1: no such workload: two" in err.splitlines()
    assert "two pair 2 change: exit 1: no such workload: two" in err.splitlines()


def gates(base_values, change_values, better=None, bound=0.25):
    base = [json.loads(line(a=v, b=v)) for v in base_values]
    change = [json.loads(line(a=v, b=v)) for v in change_values]
    rows, ok = pairs.compare(base, change, {"a": better or "lower"}, {"a": bound})
    by_metric = rows_by_metric(rows)
    return by_metric["a"][1], by_metric["b"][1], ok


def test_gate_applies_the_bound_to_the_parents_median():
    # Parent median 1.0 and bound 0.25: the change may be worse by 0.25.
    assert gates([1.0, 1.0, 1.01], [1.2, 1.24, 1.22]) == ("ok", "-", True)
    assert gates([1.0, 1.0, 1.01], [1.3, 1.26, 1.3]) == ("worse", "-", False)
    # In the higher-is-better direction the same drop is worse.
    assert gates([1.0, 1.0, 1.01], [0.7, 0.7, 0.7], better="higher")[0] == "worse"
    assert gates([1.0, 1.0, 1.01], [0.7, 0.7, 0.7], better="lower")[0] == "ok"


def test_gate_is_unresolved_when_the_parent_spreads_wider_than_the_margin():
    # Parent median 1.25, IQR 0.75, margin 0.3125.
    spread = [0.5, 1.0, 1.5, 2.0]
    assert gates(spread, [1.3, 1.3, 1.3, 1.3])[0] == "unresolved"
    assert gates(spread, [1.0, 1.0, 1.0, 1.0])[0] == "unresolved"
    # ... unless every change run beats every parent run.
    assert gates(spread, [0.4, 0.45, 0.4, 0.3])[0] == "ok"
    assert gates(spread, [2.0, 2.0, 2.0, 2.0])[0] == "worse"


def test_a_worse_end_to_end_metric_exits_1(monkeypatch, capsys):
    values = {"parent": 1.0, "change": 2.0}

    def canned(tree, workload, args):
        value = values[tree.name]
        return finished(0, stdout=run_output(line(run_ms_per_example=value, **{
            "execution.us_p50": value})))

    monkeypatch.setattr(pairs, "extract", lambda rev, into: into)
    monkeypatch.setattr(pairs, "run", canned)
    argv = ["--workload", "one", "--seed", "1", "--pairs", "2", "--change", "HEAD"]
    assert pairs.main(argv) == 1
    rows = rows_by_metric(capsys.readouterr().out.splitlines()[1:])
    assert rows["run_ms_per_example"][1] == "worse" and rows["execution.us_p50"][1] == "-"
    values["change"] = 1.1
    assert pairs.main(argv) == 0
    assert rows_by_metric(capsys.readouterr().out.splitlines()[1:])["run_ms_per_example"][1] == "ok"
