"""Paired benchmark runs of a parent and a change, as a claimed gain needs.

    python3 tools/pairs.py --workload replay-mixed --seed 1 [--seconds 20] [--pairs 10] \\
        [--base HEAD] [--change REV]

Each side is a revision extracted with ``git archive``; without ``--change``
the change side is the working tree. Each pair runs ``bench/run.py`` once
per side, alternating which side runs first, and reads the result on the
last line of its output. Per metric it prints each side's quartiles and
median, the pairs the change won (ties win for neither; the direction is the
metric's ``better`` in BENCHMARK.json, else lower), the median gap in the
change's favour and whether it exceeds the parent's interquartile range.
It exits 1 when any run failed or reported a failure.
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


def compare(base: list[dict], change: list[dict], better: dict[str, str]) -> tuple[list[str], bool]:
    """Table rows for paired results, and whether every run succeeded."""
    ok = bool(base) and len(base) == len(change)
    ok = ok and all(r.get("correct") is True and r.get("failed") == 0 for r in base + change)
    rows = [f"{'metric':32s} {'parent q1 / median / q3':>32s} {'change q1 / median / q3':>32s}"
            f" {'wins':>6s} {'gap':>10s} gap>IQR"]
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
        rows.append(f"{name:32s} {' / '.join(f'{v:.4g}' for v in b_q):>32s}"
                    f" {' / '.join(f'{v:.4g}' for v in c_q):>32s} {f'{wins}/{len(pairs)}':>6s}"
                    f" {gap:10.4g} {'yes' if gap > b_q[2] - b_q[0] else 'no'}")
    return rows, ok


def extract(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into


def run(tree: Path, args: argparse.Namespace) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    return result(proc.stdout) if proc.returncode == 0 else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--change", help="a revision; the working tree when omitted")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": extract(args.base, Path(tmp, "parent")),
                 "change": extract(args.change, Path(tmp, "change")) if args.change else ROOT}
        for i in range(args.pairs):
            for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
                runs[side].append(run(trees[side], args))
                print(f"pair {i + 1} {side}: {json.dumps(runs[side][-1])}", file=sys.stderr)
    rows, ok = compare(runs["parent"], runs["change"], better)
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
