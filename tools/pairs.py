"""Paired benchmark runs of a parent and a change, as a claimed gain needs.

    python3 tools/pairs.py --workload replay-mixed [--workload large-results] --seed 1 \\
        [--seconds 20] [--pairs 10] [--base HEAD] [--change REV]

Each side is a revision extracted with ``git archive``; without ``--change``
the change side is the working tree. Each pair runs ``bench/run.py`` once
per side, alternating which side runs first, and reads the result on the
last line of its output; a run that fails, or prints no result, is reported
on standard error with its side, pair, exit code and last line of standard
error. Per workload, in the order given, it prints a table: per metric each
side's quartiles and median, the pairs the change won (ties win for
neither; the direction is the metric's ``better`` in BENCHMARK.json, else
lower), the median gap in the change's favour and whether it exceeds the
parent's interquartile range.

Its ``gate`` column applies the no-regression rule to each end-to-end
metric, whose ``bound`` in BENCHMARK.json is a share of the parent's median:
``worse`` when the change's median is worse than the parent's by more than
that margin; else ``unresolved`` when the parent's interquartile range is
wider than the margin, unless every change run beats every parent run; else
``ok``. A per-layer metric reads ``-``. It exits 1 when any run failed or
reported a failure, or any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's output."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def gate(b_q: list[float], c_q: list[float], pairs: list[tuple[float, float]], sign: int,
         bound: float | None) -> str:
    """The no-regression verdict on one metric from each side's quartiles and
    the (parent, change) values; ``sign`` is 1 when lower is better, else -1."""
    if bound is None:
        return "-"
    margin = bound * abs(b_q[1])
    if sign * (c_q[1] - b_q[1]) > margin:
        return "worse"
    beaten = max(sign * c for _, c in pairs) < min(sign * b for b, _ in pairs)
    return "unresolved" if b_q[2] - b_q[0] > margin and not beaten else "ok"


def compare(
    base: list[dict], change: list[dict], better: dict[str, str],
    bounds: dict[str, float] | None = None,
) -> tuple[list[str], bool]:
    """Table rows for paired results, and whether every run succeeded and
    no metric's ``gate`` (from ``bounds``, the end-to-end bounds) is worse."""
    bounds = bounds or {}
    ok = bool(base) and len(base) == len(change)
    ok = ok and all(r.get("correct") is True and r.get("failed") == 0 for r in base + change)
    rows = [f"{'metric':32s} {'gate':10s} {'parent q1 / median / q3':>32s}"
            f" {'change q1 / median / q3':>32s} {'wins':>6s} {'gap':>10s} gap>IQR"]
    for name in sorted({name for r in base + change for name in r.get("metrics", {})}):
        try:
            pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                     for b, c in zip(base, change)]
        except KeyError:
            ok = False
            continue
        sign = -1 if better.get(name, "lower") == "higher" else 1
        b_q, c_q = (quartiles(sorted(side)) for side in zip(*pairs))
        wins = sum(sign * (c - b) < 0 for b, c in pairs)
        gap = sign * (b_q[1] - c_q[1])
        verdict = gate(b_q, c_q, pairs, sign, bounds.get(name))
        ok = ok and verdict != "worse"
        rows.append(f"{name:32s} {verdict:10s} {' / '.join(f'{v:.4g}' for v in b_q):>32s}"
                    f" {' / '.join(f'{v:.4g}' for v in c_q):>32s} {f'{wins}/{len(pairs)}':>6s}"
                    f" {gap:10.4g} {'yes' if gap > b_q[2] - b_q[0] else 'no'}")
    return rows, ok


def extract(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into


def run(tree: Path, workload: str, args: argparse.Namespace) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    return subprocess.run(command, cwd=tree, capture_output=True, text=True)


def outcome(proc: subprocess.CompletedProcess, side: str, pair: int) -> tuple[dict, str | None]:
    """A run's result, and a line naming the run when it gave none."""
    found = result(proc.stdout) if proc.returncode == 0 else {}
    if found:
        return found, None
    last = next((line for line in reversed(proc.stderr.splitlines()) if line.strip()), "")
    return {}, f"pair {pair} {side}: exit {proc.returncode}: {last.strip() or 'no standard error'}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--change", help="a revision; the working tree when omitted")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    tables, all_ok = [], True
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": extract(args.base, Path(tmp, "parent")),
                 "change": extract(args.change, Path(tmp, "change")) if args.change else ROOT}
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
                    found, failure = outcome(run(trees[side], workload, args), side, i + 1)
                    runs[side].append(found)
                    report = failure or f"pair {i + 1} {side}: {json.dumps(found)}"
                    print(f"{workload} {report}", file=sys.stderr)
            rows, ok = compare(runs["parent"], runs["change"], better, bounds)
            tables.append("\n".join([f"workload {workload}", *rows]))
            all_ok = all_ok and ok
    print("\n\n".join(tables))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
