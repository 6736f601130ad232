"""Spider-layout dataset ingestion.

Expected directory layout (the public distribution's):

    <dataset_dir>/
      tables.json                    schema descriptions for every database
      dev.json / train_spider.json   split files
      database/<db_id>/<db_id>.sqlite

Entries whose gold SQL does not parse, or whose db_id has no schema, are
quarantined with a reason instead of being dropped: loaded + quarantined
always reconciles with the raw entry count. A schema or split file that is
not UTF-8 JSON or whose top level is not a list, a schema entry that
``schema_from_tables_entry`` refuses or whose ``db_id`` an earlier entry
has, or a split entry that is not an object or whose ``question``,
``query`` or ``db_id`` is not a string, is a ``DatasetError``.

Each distinct ``(db_id, gold_sql)`` is parsed and classified once. Every
example with that gold carries the one bound tree (``gold_ast``), which
triage reuses instead of parsing the gold again; the trees stay in memory
as long as the examples do (about 2 KB per distinct gold).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import DatasetError, Nl2SqlError, SchemaError
from .hardness import Hardness, classify_hardness
from .schema import DatabaseSchema, schema_from_tables_entry
from .sqlast import Select, parse

logger = logging.getLogger(__name__)

SPLIT_FILES = {"dev": "dev.json", "train": "train_spider.json"}


@dataclass(frozen=True)
class SpiderExample:
    id: int  # index within the split file
    question: str
    db_id: str
    gold_sql: str
    hardness: Hardness
    # The gold's bound tree, shared by every example with this gold; None for
    # an example built without one, whose gold triage then parses itself.
    gold_ast: Select | None = field(default=None, compare=False, repr=False)


def gold_groups(examples: Iterable[SpiderExample]) -> list[list[SpiderExample]]:
    """The examples grouped by database and gold SQL, groups in order of
    first appearance and examples in input order within each."""
    groups: dict[tuple[str, str], list[SpiderExample]] = {}
    for ex in examples:
        groups.setdefault((ex.db_id, ex.gold_sql), []).append(ex)
    return list(groups.values())


@dataclass(frozen=True)
class QuarantinedExample:
    id: int
    db_id: str
    gold_sql: str
    reason: str


@dataclass(frozen=True)
class LoadedDataset:
    examples: tuple[SpiderExample, ...]
    schemas: dict[str, DatabaseSchema]
    quarantined: tuple[QuarantinedExample, ...]

    @property
    def raw_count(self) -> int:
        return len(self.examples) + len(self.quarantined)

    def hardness_profile(self) -> dict[Hardness, int]:
        counts = {h: 0 for h in Hardness}
        for ex in self.examples:
            counts[ex.hardness] += 1
        return counts


def load_schemas(dataset_dir: Path) -> dict[str, DatabaseSchema]:
    tables_path = dataset_dir / "tables.json"
    if not tables_path.is_file():
        raise DatasetError(f"missing schema file: {tables_path}")
    try:
        entries = json.loads(tables_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise DatasetError(f"unreadable schema file {tables_path}: {exc}") from exc
    if not isinstance(entries, list):
        raise DatasetError(f"malformed schema file {tables_path}: top level is not a list")
    schemas: dict[str, DatabaseSchema] = {}
    for idx, entry in enumerate(entries):
        try:
            schema = schema_from_tables_entry(entry, dataset_dir / "database")
            if schema.db_id in schemas:
                raise SchemaError(f"duplicate db_id {schema.db_id!r}")
        except SchemaError as exc:
            raise DatasetError(f"malformed schema entry at index {idx}: {exc}") from exc
        schemas[schema.db_id] = schema
    return schemas


def load_dataset(dataset_dir: Path | str, split: str) -> LoadedDataset:
    dataset_dir = Path(dataset_dir)
    if split not in SPLIT_FILES:
        raise DatasetError(f"unknown split {split!r}; expected one of {sorted(SPLIT_FILES)}")
    if not dataset_dir.is_dir():
        raise DatasetError(f"dataset directory not found: {dataset_dir}")
    split_path = dataset_dir / SPLIT_FILES[split]
    if not split_path.is_file():
        raise DatasetError(f"missing split file: {split_path}")
    schemas = load_schemas(dataset_dir)

    try:
        raw = json.loads(split_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise DatasetError(f"unreadable split file {split_path}: {exc}") from exc

    if not isinstance(raw, list):
        raise DatasetError(f"malformed split file {split_path}: top level is not a list")
    examples: list[SpiderExample] = []
    quarantined: list[QuarantinedExample] = []
    # (db_id, gold_sql) -> (tree, hardness), or the quarantine reason.
    golds: dict[tuple[str, str], tuple[Select, Hardness] | str] = {}
    for idx, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise DatasetError(f"malformed split entry at index {idx}: not an object")
        db_id = _text_field(entry, "db_id", idx)
        gold_sql = _text_field(entry, "query", idx)
        question = _text_field(entry, "question", idx)
        schema = schemas.get(db_id)
        if schema is None:
            quarantined.append(
                QuarantinedExample(idx, db_id, gold_sql, reason=f"unknown db_id {db_id!r}")
            )
            continue
        gold = golds.get((db_id, gold_sql))
        if gold is None:
            try:
                ast = parse(gold_sql, schema)
            except Nl2SqlError as exc:
                gold = f"gold SQL does not parse: {exc}"
            else:
                gold = (ast, classify_hardness(ast))
            golds[db_id, gold_sql] = gold
        if isinstance(gold, str):
            quarantined.append(QuarantinedExample(idx, db_id, gold_sql, reason=gold))
            continue
        ast, hardness = gold
        examples.append(
            SpiderExample(
                id=idx,
                question=question,
                db_id=db_id,
                gold_sql=gold_sql,
                hardness=hardness,
                gold_ast=ast,
            )
        )
    if quarantined:
        logger.info(
            "%s split: loaded %d, quarantined %d", split, len(examples), len(quarantined)
        )
        for q in quarantined:
            logger.debug("quarantined entry %d (%s): %s", q.id, q.db_id, q.reason)
    return LoadedDataset(
        examples=tuple(examples), schemas=schemas, quarantined=tuple(quarantined)
    )


def _text_field(entry: dict, key: str, idx: int) -> str:
    """The entry's string field, "" when it is missing."""
    value = entry.get(key, "")
    if not isinstance(value, str):
        raise DatasetError(
            f"malformed split entry at index {idx}: field {key!r}: "
            f"expected str, got {type(value).__name__}"
        )
    return value
