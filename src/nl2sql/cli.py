"""Command-line interface.

Subcommands: ingest, emit-corpus, run, evaluate, ast. ``evaluate`` scores the
transcripts once and writes every file asked for from that one report: the
JSON report, the markdown and the triage verdicts.
Exit codes are stable so scripts can branch on failure class:

    0  success
    2  usage or configuration error
    3  dataset missing or malformed
    4  network failure after exhausting retries
    5  replay fixture miss
    6  harness fault (database file missing)
    1  any other error, such as a file of the CLI's own it cannot read or
       write: ``error: cannot read|write <path>: <reason>``, or a standard
       output whose reader has gone (a closed pipe):
       ``error: cannot write standard output: Broken pipe``

Each error prints one line to standard error: ``<prefix>: <message>``.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Callable

from .corpus import emit_chat_corpus, emit_skeleton_corpus
from .dataset import load_dataset
from .errors import (
    ConfigError,
    DatabaseMissingError,
    DatasetError,
    Nl2SqlError,
    ReplayMissError,
    RetriesExhaustedError,
)
from .evaluate import (
    EvalReport,
    render_report_json,
    render_report_markdown,
    render_verdicts_jsonl,
    run_metadata,
    score,
)
from .hardness import Hardness
from .llm import HttpChatTransport, ModelEndpoint, RecordingTransport, ReplayTransport, Sampling
from .pipeline import PipelineConfig, read_transcripts, run_many, write_transcripts
from .sqlast import canonicalize, diff, parse

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATASET = 3
EXIT_NETWORK = 4
EXIT_REPLAY = 5
EXIT_FAULT = 6
EXIT_OTHER = 1

# The numbers come from the dataclasses they configure; ``_load_config``
# starts every run from this table, so each key is always present.
DEFAULT_CONFIG = {
    role: {"model": role, "base_url": "https://api.openai.com/v1", **asdict(Sampling())}
    for role in ("generator", "corrector")
} | {
    "max_example_correction_rounds": PipelineConfig.max_example_correction_rounds,
    "enable_error_correction": PipelineConfig.enable_error_correction,
}


# The line and exit code of each error class, most specific class first: an
# error is reported by the first row whose class it is an instance of.
_EXIT_CODES = (
    (DatabaseMissingError, "harness fault", EXIT_FAULT),
    (ReplayMissError, "replay miss", EXIT_REPLAY),
    (RetriesExhaustedError, "network failure", EXIT_NETWORK),
    (ConfigError, "configuration error", EXIT_USAGE),
    (DatasetError, "dataset error", EXIT_DATASET),
    (Nl2SqlError, "error", EXIT_OTHER),
)

# The options that name a file a command reads or writes. Two of one command
# that name one file would lose the first's contents to the second.
_FILE_OPTIONS = ("transcripts", "replay", "record", "out", "report", "markdown", "verdicts")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    named: dict[Path, str] = {}
    for option in _FILE_OPTIONS:
        path = getattr(args, option, None)
        if path is not None and named.setdefault(path.resolve(), option) != option:
            parser.error(f"--{named[path.resolve()]} and --{option} name one file: {path}")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except Nl2SqlError as exc:
        prefix, code = next((p, c) for cls, p, c in _EXIT_CODES if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    except BrokenPipeError as exc:
        # The reader is gone: send what is still buffered to /dev/null, so
        # that the interpreter's flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        return EXIT_OTHER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nl2sql", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a dataset split and report hardness buckets")
    _dataset_args(p)
    p.add_argument("--out", type=Path, help="write the summary as JSON")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("emit-corpus", help="emit a fine-tune corpus")
    p.add_argument("kind", choices=["skeleton", "chat"])
    _dataset_args(p)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_emit_corpus)

    p = sub.add_parser("run", help="run the synthesis pipeline")
    _dataset_args(p)
    p.add_argument("--config", type=Path, help="JSON run configuration")
    transport = p.add_mutually_exclusive_group()
    transport.add_argument(
        "--replay", type=Path, help="replay store: one SQLite file of recorded replies (no network)"
    )
    transport.add_argument(
        "--record", type=Path, help="commit each live reply to this replay store file"
    )
    p.add_argument("--limit", type=_at_least(0), help="only the first N examples")
    p.add_argument("--workers", type=_at_least(1), default=1, help="parallel pipeline workers")
    p.add_argument("--out", type=Path, required=True, help="transcripts JSONL path")
    p.add_argument(
        "--report", type=Path, help="also score the transcripts into this evaluate --out report"
    )
    _timestamp_arg(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="score transcripts once; write the files asked for")
    _dataset_args(p)
    p.add_argument("--transcripts", type=Path, required=True)
    p.add_argument("--out", type=Path, help="report JSON path")
    p.add_argument("--markdown", type=Path, help="markdown report path")
    p.add_argument("--verdicts", type=Path, help="triage verdicts JSONL path")
    _timestamp_arg(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ast", help="debug: print the AST, canonical form or diff")
    _dataset_args(p)
    p.add_argument("--db", required=True, help="database id")
    p.add_argument("sql")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--diff", metavar="SQL2", help="diff against a second query")
    p.set_defaults(func=cmd_ast)
    return parser


def _at_least(floor: int) -> Callable[[str], int]:
    """Argument type of an integer >= ``floor``, "integer" in argparse's errors."""

    def integer(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value

    return integer


def _timestamp_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--no-timestamp", action="store_true", help="leave metadata.generated_at out of the report"
    )


def _dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", type=Path, required=True, help="Spider-layout dataset directory")
    p.add_argument("--split", default="dev", choices=["dev", "train"])


@contextmanager
def _own_file(verb: str, path: Path):
    """Report an ``OSError`` on a file named by a CLI option as one error line."""
    try:
        yield
    except OSError as exc:
        raise Nl2SqlError(f"cannot {verb} {path}: {exc.strerror or exc}") from exc


def _check_writable(*paths: Path | None) -> None:
    """Fail as writing each path given would, before any work is paid for,
    creating no file and truncating none."""
    for path in filter(None, paths):
        if path.is_dir():
            code = errno.EISDIR
        elif path.exists():
            code = None if os.access(path, os.W_OK) else errno.EACCES
        elif not path.parent.is_dir():
            code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
        else:
            code = None if os.access(path.parent, os.W_OK | os.X_OK) else errno.EACCES
        if code is not None:
            raise Nl2SqlError(f"cannot write {path}: {os.strerror(code)}")


def _write_scored(
    report: EvalReport,
    json_path: Path | None,
    markdown: Path | None = None,
    verdicts: Path | None = None,
) -> None:
    """Write each file asked for from one scored report."""
    for path, render in (
        (json_path, render_report_json),
        (markdown, render_report_markdown),
        (verdicts, render_verdicts_jsonl),
    ):
        if path is not None:
            with _own_file("write", path):
                path.write_text(render(report), encoding="utf-8")


def cmd_ingest(args) -> int:
    loaded = load_dataset(args.dataset, args.split)
    profile = loaded.hardness_profile()
    summary = {
        "split": args.split,
        "loaded": len(loaded.examples),
        "quarantined": len(loaded.quarantined),
        "raw_total": loaded.raw_count,
        "hardness": {h.value: profile[h] for h in Hardness},
        "quarantine_reasons": [
            {"id": q.id, "db_id": q.db_id, "reason": q.reason} for q in loaded.quarantined
        ],
    }
    text = json.dumps(summary, indent=2, ensure_ascii=False)
    if args.out:
        with _own_file("write", args.out):
            args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_emit_corpus(args) -> int:
    loaded = load_dataset(args.dataset, args.split)
    emit = emit_skeleton_corpus if args.kind == "skeleton" else emit_chat_corpus
    with _own_file("write", args.out):
        n = emit(loaded.examples, loaded.schemas, args.out)
    print(f"wrote {n} records to {args.out}")
    return EXIT_OK


# What a config value must be, by the type of its default, and the test of
# its value once its type is right.
_VALUE_KINDS = {
    bool: ("true or false", lambda value: True),
    int: ("an integer >= 0", lambda value: value >= 0),
    float: ("a finite number", math.isfinite),
    str: ("a string", lambda value: True),
}


def _load_config(path: Path | None) -> dict:
    """``DEFAULT_CONFIG`` with the file's values over it. Every key must be
    one of its keys and every value of its default's type (a JSON integer
    stands for a float), so the run needs no casts."""
    user = {}
    if path is not None:
        try:
            user = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
    return _merged(DEFAULT_CONFIG, user, "")


def _merged(defaults: dict, user: dict, prefix: str) -> dict:
    unknown = [key for key in user if key not in defaults]
    if unknown:
        raise ConfigError(f"unknown config key {prefix + unknown[0]!r}")
    config = {}
    for key, default in defaults.items():
        name = prefix + key
        value = user.get(key, default)
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {name!r} must be an object")
            value = _merged(default, value, name + ".")
        else:
            kind = type(default)
            if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
                value = float(value)
            what, fits = _VALUE_KINDS[kind]
            if type(value) is not kind or not fits(value):
                raise ConfigError(f"config key {name!r} must be {what}, got {json.dumps(value)}")
        config[key] = value
    return config


def _endpoint(role: str, spec: dict, args) -> ModelEndpoint:
    sampling = Sampling(temperature=spec["temperature"], max_tokens=spec["max_tokens"])
    if args.replay is not None:
        transport = ReplayTransport(args.replay)
    else:
        transport = HttpChatTransport(base_url=spec["base_url"])
        if args.record is not None:
            transport = RecordingTransport(transport, args.record)
    return ModelEndpoint(
        role=role, transport=transport, model_name=spec["model"], sampling=sampling
    )


def cmd_run(args) -> int:
    config = _load_config(args.config)
    loaded = load_dataset(args.dataset, args.split)
    examples = list(loaded.examples)
    if args.limit is not None:
        examples = examples[: args.limit]
    _check_writable(args.out, args.report)
    if args.record is not None and not args.record.is_dir():  # RecordingTransport refuses one
        _check_writable(args.record)
    generator = _endpoint("generator", config["generator"], args)
    corrector = _endpoint("corrector", config["corrector"], args)
    pipeline_config = PipelineConfig(
        max_example_correction_rounds=config["max_example_correction_rounds"],
        enable_error_correction=config["enable_error_correction"],
    )
    transcripts = run_many(
        examples, loaded.schemas, pipeline_config, generator, corrector, workers=args.workers
    )
    with _own_file("write", args.out):
        write_transcripts(transcripts, args.out)
    counts: dict[str, int] = {}
    for t in transcripts:
        counts[t.final_verdict.value] = counts.get(t.final_verdict.value, 0) + 1
    print(f"wrote {len(transcripts)} transcripts to {args.out}: {counts}")
    if args.report is not None:
        # The in-memory transcripts keep the pipeline's equivalent verdicts,
        # so their examples are scored without executing again.
        report = score(
            transcripts, examples, loaded.schemas, quarantined=len(loaded.quarantined)
        )
        report.metadata = run_metadata(transcripts, timestamp=not args.no_timestamp)
        _write_scored(report, args.report)
        print(f"wrote report to {args.report}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _check_writable(args.out, args.markdown, args.verdicts)
    loaded = load_dataset(args.dataset, args.split)
    with _own_file("read", args.transcripts):
        transcripts = read_transcripts(args.transcripts)
    ids = {t.example_id for t in transcripts}
    # A quarantined example's transcript is left out: the report counts it there.
    held = {ex.id for ex in loaded.examples} | {q.id for q in loaded.quarantined}
    unknown = sorted(ids - held)
    if unknown:
        raise DatasetError(f"transcripts for example ids the split does not hold: {unknown}")
    examples = [ex for ex in loaded.examples if ex.id in ids]
    report = score(transcripts, examples, loaded.schemas, quarantined=len(loaded.quarantined))
    report.metadata = run_metadata(transcripts, timestamp=not args.no_timestamp)
    _write_scored(report, args.out, args.markdown, args.verdicts)
    print(json.dumps(report.results_payload(), indent=2, ensure_ascii=False))
    return EXIT_OK


def cmd_ast(args) -> int:
    loaded = load_dataset(args.dataset, args.split)
    schema = loaded.schemas.get(args.db)
    if schema is None:
        raise DatasetError(f"unknown db id {args.db!r}")
    ast = parse(args.sql, schema)
    if args.diff is not None:
        other = parse(args.diff, schema)
        delta = diff(canonicalize(ast), canonicalize(other))
        print(json.dumps(delta.summary(), indent=2, ensure_ascii=False))
        return EXIT_OK
    if args.canonical:
        print(canonicalize(ast).sql)
        return EXIT_OK
    print(json.dumps(_ast_json(ast), indent=2, ensure_ascii=False, allow_nan=False))
    return EXIT_OK


def _ast_json(node) -> object:
    """``node`` as JSON data; a float that is not finite (``9e999``) becomes
    its ``repr`` string, as RFC 8259 has no token for it."""
    from dataclasses import fields, is_dataclass

    if is_dataclass(node):
        out = {"node": type(node).__name__}
        for f in fields(node):
            out[f.name] = _ast_json(getattr(node, f.name))
        return out
    if isinstance(node, tuple):
        return [_ast_json(v) for v in node]
    if isinstance(node, float) and not math.isfinite(node):
        return repr(node)
    return node


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
