"""Spider-layout dataset ingestion.

Expected directory layout (the public distribution's):

    <dataset_dir>/
      tables.json                    schema descriptions for every database
      dev.json / train_spider.json   split files
      database/<db_id>/<db_id>.sqlite

Entries whose gold SQL does not parse, or whose db_id has no schema, are
quarantined with a reason instead of being dropped: loaded + quarantined
always reconciles with the raw entry count.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import DatasetError, Nl2SqlError, SchemaError
from .hardness import Hardness, classify_hardness
from .schema import DatabaseSchema, schema_from_tables_entry
from .sqlast import parse

logger = logging.getLogger(__name__)

SPLIT_FILES = {"dev": "dev.json", "train": "train_spider.json"}


@dataclass(frozen=True)
class SpiderExample:
    id: int  # index within the split file
    question: str
    db_id: str
    gold_sql: str
    hardness: Hardness


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
class HardnessProfile:
    counts: dict[Hardness, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class LoadedDataset:
    examples: tuple[SpiderExample, ...]
    schemas: dict[str, DatabaseSchema]
    quarantined: tuple[QuarantinedExample, ...]

    @property
    def raw_count(self) -> int:
        return len(self.examples) + len(self.quarantined)

    def hardness_profile(self) -> HardnessProfile:
        counts = {h: 0 for h in Hardness}
        for ex in self.examples:
            counts[ex.hardness] += 1
        return HardnessProfile(counts=counts)


def load_schemas(dataset_dir: Path) -> dict[str, DatabaseSchema]:
    tables_path = dataset_dir / "tables.json"
    if not tables_path.is_file():
        raise DatasetError(f"missing schema file: {tables_path}")
    try:
        entries = json.loads(tables_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"unreadable schema file {tables_path}: {exc}") from exc
    schemas: dict[str, DatabaseSchema] = {}
    for idx, entry in enumerate(entries):
        try:
            db_id = entry["db_id"]
            db_path = dataset_dir / "database" / db_id / f"{db_id}.sqlite"
            schemas[db_id] = schema_from_tables_entry(entry, db_path=db_path)
        except (SchemaError, KeyError, TypeError) as exc:
            raise DatasetError(f"malformed schema entry at index {idx}: {exc}") from exc
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
    except json.JSONDecodeError as exc:
        raise DatasetError(f"unreadable split file {split_path}: {exc}") from exc

    examples: list[SpiderExample] = []
    quarantined: list[QuarantinedExample] = []
    for idx, entry in enumerate(raw):
        db_id = entry.get("db_id", "")
        gold_sql = entry.get("query", "")
        question = entry.get("question", "")
        schema = schemas.get(db_id)
        if schema is None:
            quarantined.append(
                QuarantinedExample(idx, db_id, gold_sql, reason=f"unknown db_id {db_id!r}")
            )
            continue
        try:
            ast = parse(gold_sql, schema)
        except Nl2SqlError as exc:
            quarantined.append(
                QuarantinedExample(idx, db_id, gold_sql, reason=f"gold SQL does not parse: {exc}")
            )
            continue
        examples.append(
            SpiderExample(
                id=idx,
                question=question,
                db_id=db_id,
                gold_sql=gold_sql,
                hardness=classify_hardness(ast),
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
