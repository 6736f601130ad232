"""Command-line interface.

Subcommands: ingest, emit-corpus, run, evaluate, triage, report, ast.
Exit codes are stable so scripts can branch on failure class:

    0  success
    2  usage or configuration error
    3  dataset missing or malformed
    4  network failure after exhausting retries
    5  replay fixture miss
    6  harness fault (database file missing)
    1  any other error, such as a file of the CLI's own it cannot read or
       write: ``error: cannot read|write <path>: <reason>``
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

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
from .evaluate import EvalReport, render_report_markdown, run_metadata, score, write_report
from .hardness import Hardness
from .llm import HttpChatTransport, ModelEndpoint, RecordingTransport, ReplayTransport, Sampling
from .pipeline import (
    PipelineConfig,
    PipelineTranscript,
    read_transcripts,
    run_many,
    write_transcripts,
)
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


# The options that name a file a command reads or writes. Two of one command
# that name one file would lose the first's contents to the second.
_FILE_OPTIONS = ("transcripts", "out", "report", "markdown")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    named: dict[Path, str] = {}
    for option in _FILE_OPTIONS:
        path = getattr(args, option, None)
        if path is not None and named.setdefault(path.resolve(), option) != option:
            parser.error(f"--{named[path.resolve()]} and --{option} name one file: {path}")
    try:
        return args.func(args)
    except DatabaseMissingError as exc:
        print(f"harness fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except ReplayMissError as exc:
        print(f"replay miss: {exc}", file=sys.stderr)
        return EXIT_REPLAY
    except RetriesExhaustedError as exc:
        print(f"network failure: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except (ConfigError,) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except Nl2SqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
    transport.add_argument("--replay", type=Path, help="replay store directory (no network)")
    transport.add_argument("--record", type=Path, help="record live responses into this dir")
    p.add_argument("--limit", type=_count, help="only the first N examples")
    p.add_argument("--workers", type=_positive, default=1, help="parallel pipeline workers")
    p.add_argument("--out", type=Path, required=True, help="transcripts JSONL path")
    p.add_argument(
        "--report", type=Path, help="also score the transcripts into this evaluate --out report"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="score transcripts into a report")
    _dataset_args(p)
    p.add_argument("--transcripts", type=Path, required=True)
    p.add_argument("--out", type=Path, help="report JSON path")
    p.add_argument("--markdown", type=Path, help="also write a markdown report")
    p.add_argument("--no-triage", action="store_true")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("triage", help="classify every failed transcript")
    _dataset_args(p)
    p.add_argument("--transcripts", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="verdicts JSONL path")
    p.set_defaults(func=cmd_triage)

    p = sub.add_parser("report", help="render a report from transcripts")
    p.add_argument("--transcripts", type=Path, required=True)
    p.add_argument("--dataset", type=Path, help="dataset dir (needed to score non-empty transcripts)")
    p.add_argument("--split", default="dev", choices=["dev", "train"])
    p.add_argument("--format", default="markdown", choices=["markdown", "json"])
    p.add_argument("--out", type=Path, help="write to file instead of stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("ast", help="debug: print the AST, canonical form or diff")
    _dataset_args(p)
    p.add_argument("--db", required=True, help="database id")
    p.add_argument("sql")
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--diff", metavar="SQL2", help="diff against a second query")
    p.set_defaults(func=cmd_ast)
    return parser


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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


def _check_writable(path: Path) -> None:
    """Fail as writing ``path`` would, before any work is paid for, creating
    no file and truncating none."""
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


def cmd_ingest(args) -> int:
    loaded = load_dataset(args.dataset, args.split)
    profile = loaded.hardness_profile()
    summary = {
        "split": args.split,
        "loaded": len(loaded.examples),
        "quarantined": len(loaded.quarantined),
        "raw_total": loaded.raw_count,
        "hardness": {h.value: profile.counts[h] for h in Hardness},
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


def _load_config(path: Path | None) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is not None:
        try:
            user = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in user.items():
            if key not in config:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(config[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"config key {key!r} must be an object")
                config[key].update(value)
            else:
                config[key] = value
    return config


def _endpoint(role: str, spec: dict, args) -> ModelEndpoint:
    sampling = Sampling(
        temperature=float(spec["temperature"]),
        max_tokens=int(spec["max_tokens"]),
    )
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
    for path in (args.out, args.report):
        if path is not None:
            _check_writable(path)
    generator = _endpoint("generator", config["generator"], args)
    corrector = _endpoint("corrector", config["corrector"], args)
    pipeline_config = PipelineConfig(
        max_example_correction_rounds=int(config["max_example_correction_rounds"]),
        enable_error_correction=bool(config["enable_error_correction"]),
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
        report.metadata = run_metadata(transcripts)
        with _own_file("write", args.report):
            write_report(report, args.report)
        print(f"wrote report to {args.report}")
    return EXIT_OK


def _read_transcripts(path: Path) -> list[PipelineTranscript]:
    with _own_file("read", path):
        return read_transcripts(path)


def _score_transcripts(args, **options) -> tuple[list[PipelineTranscript], EvalReport]:
    """Score the transcripts at ``--transcripts`` against the examples they name."""
    loaded = load_dataset(args.dataset, args.split)
    transcripts = _read_transcripts(args.transcripts)
    ids = {t.example_id for t in transcripts}
    examples = [ex for ex in loaded.examples if ex.id in ids]
    report = score(
        transcripts, examples, loaded.schemas, quarantined=len(loaded.quarantined), **options
    )
    return transcripts, report


def cmd_evaluate(args) -> int:
    transcripts, report = _score_transcripts(args, with_triage=not args.no_triage)
    report.metadata = run_metadata(transcripts, timestamp=not args.no_timestamp)
    if args.out:
        with _own_file("write", args.out):
            write_report(report, args.out)
    if args.markdown:
        with _own_file("write", args.markdown):
            args.markdown.write_text(render_report_markdown(report), encoding="utf-8")
    print(json.dumps(report.results_payload(), indent=2, ensure_ascii=False))
    return EXIT_OK


def cmd_triage(args) -> int:
    _, report = _score_transcripts(args)
    with _own_file("write", args.out), args.out.open("w", encoding="utf-8") as fh:
        for example_id, verdict in report.verdicts.items():
            record = {"example_id": example_id, **verdict.to_json()}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    print(f"wrote {len(report.verdicts)} verdicts to {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    if args.dataset is not None:
        _, report = _score_transcripts(args)
    elif _read_transcripts(args.transcripts):
        raise DatasetError("--dataset is required to score non-empty transcripts")
    else:
        report = score([], [], {})
    if args.format == "markdown":
        text = render_report_markdown(report)
    else:
        text = json.dumps(report.to_json(), indent=2, ensure_ascii=False) + "\n"
    if args.out:
        with _own_file("write", args.out):
            args.out.write_text(text, encoding="utf-8")
    else:
        print(text, end="")
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
    print(json.dumps(_ast_json(ast), indent=2, ensure_ascii=False))
    return EXIT_OK


def _ast_json(node) -> object:
    from dataclasses import fields, is_dataclass

    if is_dataclass(node):
        out = {"node": type(node).__name__}
        for f in fields(node):
            out[f.name] = _ast_json(getattr(node, f.name))
        return out
    if isinstance(node, tuple):
        return [_ast_json(v) for v in node]
    return node


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
