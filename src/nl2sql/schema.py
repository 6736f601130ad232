"""Database schema descriptions.

Schemas come from a Spider-layout ``tables.json`` file. Names keep their
original casing for display; lookups are case-insensitive, matching how
SQLite resolves identifiers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .errors import SchemaError

ColumnKey = tuple[str, str]  # (table, column), original casing


@dataclass(frozen=True)
class DatabaseSchema:
    db_id: str
    tables: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]  # (name, ((col, type), ...))
    primary_keys: tuple[ColumnKey, ...] = ()
    foreign_keys: tuple[tuple[ColumnKey, ColumnKey], ...] = ()
    db_path: Path | None = None
    _lookup: dict[str, tuple[str, dict[str, str]]] = field(
        default=None, repr=False, compare=False, hash=False
    )
    # Each thread's cached connection to db_path, managed by execution.py;
    # it closes when this schema is garbage-collected or the thread ends.
    _connections: threading.local = field(
        default_factory=threading.local, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        lookup: dict[str, tuple[str, dict[str, str]]] = {}
        for name, columns in self.tables:
            low = name.lower()
            if low in lookup:
                raise SchemaError(f"{self.db_id}: duplicate table name {name!r}")
            colmap: dict[str, str] = {}
            for col, _typ in columns:
                if col.lower() in colmap:
                    raise SchemaError(f"{self.db_id}: duplicate column {name}.{col}")
                colmap[col.lower()] = col
            lookup[low] = (name, colmap)
        object.__setattr__(self, "_lookup", lookup)
        for table, column in self.primary_keys:
            if not self.has_column(table, column):
                raise SchemaError(f"{self.db_id}: primary key {table}.{column} not in schema")
        for src, dst in self.foreign_keys:
            for table, column in (src, dst):
                if not self.has_column(table, column):
                    raise SchemaError(f"{self.db_id}: foreign key {table}.{column} not in schema")

    # -- case-insensitive lookups ------------------------------------------

    def table_name(self, name: str) -> str | None:
        entry = self._lookup.get(name.lower())
        return entry[0] if entry else None

    def columns_of(self, table: str) -> tuple[str, ...]:
        entry = self._lookup.get(table.lower())
        if entry is None:
            return ()
        return tuple(entry[1].values())

    def has_column(self, table: str, column: str) -> bool:
        entry = self._lookup.get(table.lower())
        return entry is not None and column.lower() in entry[1]

    def column_name(self, table: str, column: str) -> str | None:
        entry = self._lookup.get(table.lower())
        if entry is None:
            return None
        return entry[1].get(column.lower())

    def foreign_keys_between(self, a: str, b: str) -> list[tuple[ColumnKey, ColumnKey]]:
        """Foreign keys linking tables a and b, in either direction."""
        pair = {a.lower(), b.lower()}
        return [
            (src, dst)
            for src, dst in self.foreign_keys
            if {src[0].lower(), dst[0].lower()} == pair
        ]


def schema_from_tables_entry(entry: dict[str, Any], db_path: Path | None = None) -> DatabaseSchema:
    """Build a DatabaseSchema from one element of a tables.json array."""
    try:
        db_id = entry["db_id"]
        table_names = entry["table_names_original"]
        column_names = entry["column_names_original"]
        column_types = entry["column_types"]
        pk_indexes = entry.get("primary_keys", [])
        fk_pairs = entry.get("foreign_keys", [])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed schema entry: missing {exc}") from exc

    per_table: list[list[tuple[str, str]]] = [[] for _ in table_names]
    flat: list[ColumnKey | None] = []
    for (table_idx, col_name), col_type in zip(column_names, column_types):
        if table_idx < 0:  # the global "*" pseudo-column
            flat.append(None)
            continue
        if table_idx >= len(table_names):
            raise SchemaError(f"{db_id}: column {col_name!r} references table index {table_idx}")
        per_table[table_idx].append((col_name, col_type))
        flat.append((table_names[table_idx], col_name))

    def col_at(idx: int) -> ColumnKey:
        if idx < 0 or idx >= len(flat) or flat[idx] is None:
            raise SchemaError(f"{db_id}: key references column index {idx}")
        return flat[idx]

    primary = tuple(col_at(i) for i in pk_indexes)
    foreign = tuple((col_at(a), col_at(b)) for a, b in fk_pairs)
    tables = tuple((name, tuple(cols)) for name, cols in zip(table_names, per_table))
    return DatabaseSchema(
        db_id=db_id,
        tables=tables,
        primary_keys=primary,
        foreign_keys=foreign,
        db_path=db_path,
    )
