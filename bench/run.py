"""Offline run -> score benchmark for the nl2sql harness.

    python3 bench/run.py --workload replay-mixed --seed 1 --seconds 20 --trace 0

Builds a seeded workload (see ``workload.py``), then repeats passes of the
offline flow until ``--seconds`` have elapsed: every example through the
pipeline against a replay store (model time excluded), then ``score`` with
triage. Every pass is checked against the oracle fixed at generation:
per-example verdicts, the report's verdict, bucket and triage counts, and
the transcript bytes, which must equal those of the recording run.

``--trace 0`` prints the end-to-end metrics; set-up runs three times and
its median is reported. Every timing is a wall time scaled to a reference
host speed, measured next to it by a fixed calibration kernel (see
``hostspeed.py``), because the speed of a shared host moves by a third and
more within seconds; the wall times are printed beside them. Each example's
latency is the median of its ``run_pipeline`` calls over at least three
passes; ``run_ms_per_example`` is their mean, and p50 and p95 are taken
across examples. ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics of ``tracing.py`` plus the tracing
overhead; the spans of the last traced pass go to
``.bench_out/trace-<workload>.jsonl``. Scratch files live under
``.bench_work/`` and are removed on exit.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A failure is an exception, a fault verdict, a verdict or count that differs
from the oracle, transcript bytes that differ between repeats, or work
counters that differ between two traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 3
MIN_TRACED_PASSES = 2
# Each example's latency is its median over at least this many passes, so a
# stall that hits one pass does not count as tail latency.
MIN_PASSES = 3

END_TO_END_UNITS = {
    "run_ms_per_example": "ms",
    "score_ms_per_example": "ms",
    "example_ms_p50": "ms",
    "example_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("us_p50"):
        return "us"
    if name.endswith(("_ms_per_example", "_ms_per_call")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def environment(seed: int) -> dict:
    import sqlite3

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


@contextlib.contextmanager
def splitting(module, name: str, segments):
    """Rebind ``module.name`` so that a call first ends the current segment
    of ``segments`` when it is due. Does nothing when ``segments`` is None or
    the attribute is gone; the segments then cover more work each."""
    original = getattr(module, name, None)
    if segments is None or original is None:
        yield
        return

    def wrapper(*args, **kwargs):
        if segments.due():
            segments.split()
        return original(*args, **kwargs)

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        from nl2sql.pipeline import PipelineConfig

        self.name = name
        self.seed = seed
        self.work = work
        self.config = PipelineConfig()
        self.failed = 0
        self.attempted = 0
        self.reference: list[bytes] | None = None  # transcript lines of the recording

    # ----------------------------------------------------------------- set-up

    def setup(self, index: int) -> tuple[float, float]:
        """Generate, load and record one copy of the workload; returns wall
        seconds and seconds scaled to the reference host speed."""
        from nl2sql import pipeline
        from nl2sql.dataset import load_dataset
        from workload import generate, record

        root = self.work / f"setup-{index}"
        setting_up = hostspeed.Segments()
        self.workload = generate(self.name, self.seed, root)
        self.dataset = load_dataset(self.workload.dataset_dir, "dev")
        # Recording runs ``run_many`` with one worker, which resolves
        # ``run_pipeline`` once per example.
        with splitting(pipeline, "run_pipeline", setting_up):
            self.reference = record(
                self.workload, self.dataset.examples, self.dataset.schemas, self.config
            )
        setting_up.split()
        return setting_up.wall, setting_up.scaled

    def check_workload(self) -> None:
        from workload import expected_report, verify

        problems = verify(self.workload)
        if len(self.dataset.examples) != len(self.workload.cases) or self.dataset.quarantined:
            problems.append(
                f"loaded {len(self.dataset.examples)} examples, quarantined "
                f"{len(self.dataset.quarantined)}, generated {len(self.workload.cases)}"
            )
        for problem in problems[:20]:
            print(f"workload problem: {problem}")
        self.failed += len(problems)
        self.expected = expected_report(self.workload.cases)
        self.gold_sql = {ex.id: ex.gold_sql for ex in self.dataset.examples}

    # ----------------------------------------------------------------- passes

    def run_pass(self, split_score: bool = True) -> dict:
        """One timed pipeline phase and one timed score phase, then checks.

        Times are wall times scaled by the host speed sampled between
        examples (``hostspeed``): in the pipeline phase, and in ``score`` too
        unless ``split_score`` is false (in a traced pass, where the samples
        would fall inside a span). The wall times are returned too.
        """
        from nl2sql import evaluate, pipeline
        from nl2sql.llm import ReplayTransport
        from workload import endpoints

        examples = self.dataset.examples
        schemas = self.dataset.schemas
        generator, corrector = endpoints(ReplayTransport(self.workload.store_dir))
        latencies: dict[int, float] = {}
        transcripts = []
        failures = 0
        clock = time.perf_counter
        run_pipeline = pipeline.run_pipeline
        walls: dict[int, float] = {}  # latencies in the current segment
        run = hostspeed.Segments()
        for i, ex in enumerate(examples, start=1):
            began = clock()
            try:
                transcripts.append(
                    run_pipeline(ex, schemas[ex.db_id], self.config, generator, corrector)
                )
            except Exception as exc:  # counted per example, the pass goes on
                print(f"example {ex.id} failed: {exc!r}")
                failures += 1
            walls[ex.id] = clock() - began
            if run.due() or i == len(examples):
                factor = run.split()
                latencies.update((k, t * factor) for k, t in walls.items())
                walls.clear()
        report = None
        scoring = hostspeed.Segments()
        # ``score`` resolves ``_score_one`` once per example.
        with splitting(evaluate, "_score_one", scoring if split_score else None):
            try:
                report = evaluate.score(transcripts, list(examples), schemas, with_triage=True)
            except Exception as exc:  # counted, the run goes on
                print(f"score failed: {exc!r}")
        scoring.split()
        n = len(examples)
        failures = min(n, failures + self.check_pass(transcripts, report))
        self.attempted += n
        self.failed += failures
        return {
            "run_ms": run.scaled * 1e3 / n,
            "score_ms": scoring.scaled * 1e3 / n,
            "run_wall_ms": run.wall * 1e3 / n,
            "score_wall_ms": scoring.wall * 1e3 / n,
            "latencies": latencies,
            "failures": failures,
        }

    def check_pass(self, transcripts, report) -> int:
        """Failures of one pass against the oracle and the recorded bytes."""
        from workload import transcript_lines

        cases = self.workload.cases
        failures = 0
        by_id = {t.example_id: t for t in transcripts}
        lines = dict(zip((t.example_id for t in transcripts), transcript_lines(transcripts)))
        for case, reference in zip(cases, self.reference):
            t = by_id.get(case.id)
            if t is None:
                continue  # already counted where it failed
            if t.final_verdict.value != case.verdict or t.fault is not None:
                failures += 1
                print(f"example {case.id}: verdict {t.final_verdict.value}, expected {case.verdict}")
            elif lines[case.id] != reference:
                failures += 1
                print(f"example {case.id}: transcript bytes differ from the recording")
        if report is None:
            return len(cases)
        results = report.results_payload()
        expected = self.expected
        got = {
            "verdicts": dict(results["verdicts"]),
            "buckets": {
                h: {"count": b["count"], "correct": b["correct"]}
                for h, b in results["buckets"].items() if b["count"]
            },
            "subtags": {k: v["count"] for k, v in results["triage"].get("subtags", {}).items()},
            "categories": {
                k: v["count"] for k, v in results["triage"].get("categories", {}).items()
            },
        }
        for key in ("verdicts", "buckets", "subtags", "categories"):
            for name in sorted(set(expected[key]) | set(got[key])):
                if expected[key].get(name) != got[key].get(name):
                    failures += 1
                    print(f"report {key}[{name}]: {got[key].get(name)}, "
                          f"expected {expected[key].get(name)}")
        if results["faults"] or results["quarantined"]:
            failures += 1
            print(f"report faults {results['faults']}, quarantined {results['quarantined']}")
        return failures


# --------------------------------------------------------------------------- modes

def end_to_end(bench: Bench, seconds: float) -> dict:
    # Set-ups alternate with the first passes, so the passes of one run are
    # spread over a wider stretch of time than back-to-back passes would be.
    setups: list[tuple[float, float]] = []  # (wall, scaled) seconds
    passes: list[dict] = []
    deadline = math.inf
    while len(passes) < max(MIN_PASSES, SETUPS) or time.perf_counter() < deadline:
        if len(setups) < SETUPS:
            previous = bench.reference
            setups.append(bench.setup(len(setups)))
            if previous is None:
                bench.check_workload()
            else:
                shutil.rmtree(bench.work / f"setup-{len(setups) - 2}")
                if bench.reference != previous:
                    bench.failed += 1
                    print("recorded transcripts differ between set-ups")
        if not passes:
            deadline = time.perf_counter() + seconds
        passes.append(bench.run_pass())
        p = passes[-1]
        print(f"pass {len(passes)}: run {p['run_ms']:.4f} ms/example "
              f"({p['run_wall_ms']:.4f} wall), score {p['score_ms']:.4f} ms/example "
              f"({p['score_wall_ms']:.4f} wall), failures {p['failures']}")
    print("setup_s each: " + ", ".join(f"{s:.3f} ({w:.3f} wall)" for w, s in setups))
    latencies = sorted(
        statistics.median(p["latencies"][ex.id] for p in passes) * 1e3
        for ex in bench.dataset.examples
    )
    beyond = len(latencies) - math.ceil(0.95 * len(latencies))
    print(f"example latency: median of {len(passes)} passes for each of "
          f"{len(latencies)} examples ({beyond} beyond p95)")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        # The pipeline phase from each example's median, so a stall that
        # hits one example of one pass does not count.
        "run_ms_per_example": statistics.fmean(latencies),
        "score_ms_per_example": statistics.median(p["score_ms"] for p in passes),
        "example_ms_p50": nearest_rank(latencies, 0.50),
        "example_ms_p95": nearest_rank(latencies, 0.95),
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": rss_kib / 1024,
    }


def per_layer(bench: Bench, seconds: float) -> dict:
    from nl2sql.dataset import load_dataset
    from tracing import END, NAME, START, TARGETS, Tracer, analyse, load_metrics, write_spans

    bench.setup(0)
    bench.check_workload()
    tracer = Tracer()
    tracer.install()
    for target in tracer.missing:
        print(f"trace target missing, layer not measured: {target}")
    try:
        start = time.perf_counter()
        load_dataset(bench.workload.dataset_dir, "dev")
        load = load_metrics(tracer.take(), time.perf_counter() - start)
    finally:
        tracer.uninstall()

    untraced, traced, layer_metrics, counters = [], [], [], []
    spans: list = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        untraced.append(bench.run_pass())
        tracer.install()
        try:
            traced.append(bench.run_pass(split_score=False))
        finally:
            tracer.uninstall()
        spans = tracer.take()
        metrics, counts = analyse(spans, bench.gold_sql)
        layer_metrics.append(metrics)
        counters.append(counts)
        print(f"pass pair {len(traced)}: run {untraced[-1]['run_ms']:.4f} untraced, "
              f"{traced[-1]['run_ms']:.4f} traced ms/example; counters {counts}")
    for i, counts in enumerate(counters[1:], start=2):
        if counts != counters[0]:
            bench.failed += 1
            print(f"work counters of traced pass {i} differ from pass 1: {counts}")
    write_spans(spans, ROOT / ".bench_out" / f"trace-{bench.name}.jsonl")
    idle = sorted({target[2] for target in TARGETS} - {s[NAME] for s in spans} - {"hardness"})
    if idle:
        print("layers with no calls on this workload (their metrics read 0): " + ", ".join(idle))

    run_untraced = statistics.median(p["run_ms"] for p in untraced)
    run_traced = statistics.median(p["run_ms"] for p in traced)
    run_wall = statistics.median(p["run_wall_ms"] for p in traced)
    score_wall = statistics.median(p["score_wall_ms"] for p in traced)
    out = {name: statistics.median(m[name] for m in layer_metrics) for name in layer_metrics[0]}
    out.update(load)
    out["trace.overhead_frac"] = run_traced / run_untraced - 1
    executes = [s[END] - s[START] for s in spans if s[NAME] == "execute"]
    if executes:
        print(
            "ROADMAP.md Baseline probe -> this traced run, wall times: "
            f"execute 538 us/call -> {statistics.fmean(executes) * 1e6:.1f} us/call mean, "
            f"{out['execution.us_p50']:.1f} us p50; "
            f"run_many 3.2 -> {run_wall:.3f} ms/example; "
            f"score 1.7 -> {score_wall:.3f} ms/example"
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nl2sql" / "__init__.py").is_file():
        print(f"error: harness sources not found under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # SQLite reads this once, when first loaded: spilled sorts stay in the checkout.
    os.environ["SQLITE_TMPDIR"] = str(work)
    sys.path.insert(0, str(SRC))
    import nl2sql
    from workload import WORKLOADS

    try:
        if not Path(nl2sql.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported nl2sql from {nl2sql.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; expected one of {WORKLOADS}",
                  file=sys.stderr)
            return 2
        print("environment: " + json.dumps(environment(args.seed)))
        hostspeed.prepare(work)
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            values = per_layer(bench, args.seconds)
            units = {name: per_layer_unit(name) for name in values}
        else:
            values = end_to_end(bench, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for name, value in values.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    print(f"error_rate {bench.failed / max(bench.attempted, 1):.6f} "
          f"({bench.failed} failed of {bench.attempted} attempted)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
