"""Database schema descriptions.

Schemas come from a Spider-layout ``tables.json`` file. Names keep their
original casing for display; lookups are case-insensitive, matching how
SQLite resolves identifiers.

``_json_reader`` checks a JSON record against a declared dataclass: each
``tables.json`` entry here, and each transcript line ``pipeline`` reads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache, partial
from pathlib import Path
from types import UnionType
from typing import Callable, get_args, get_origin, get_type_hints

from .errors import SchemaError

ColumnKey = tuple[str, str]  # (table, column), original casing


@dataclass(frozen=True, eq=False)
class DatabaseSchema:
    """A schema hashes and compares by identity: each owns its per-thread
    connections, so two with equal fields are not interchangeable."""

    db_id: str
    tables: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]  # (name, ((col, type), ...))
    primary_keys: tuple[ColumnKey, ...] = ()
    foreign_keys: tuple[tuple[ColumnKey, ColumnKey], ...] = ()
    db_path: Path | None = None
    # lower-cased table -> (table, lower-cased column -> column, lower-cased columns)
    _lookup: dict[str, tuple[str, dict[str, str], frozenset[str]]] = field(
        default=None, repr=False
    )
    # Each thread's cached connection to db_path, managed by execution.py;
    # it closes when this schema is garbage-collected or the thread ends.
    _connections: threading.local = field(
        default_factory=threading.local, init=False, repr=False
    )

    def __post_init__(self) -> None:
        lookup: dict[str, tuple[str, dict[str, str], frozenset[str]]] = {}
        for name, columns in self.tables:
            low = name.lower()
            if low in lookup:
                raise SchemaError(f"{self.db_id}: duplicate table name {name!r}")
            colmap: dict[str, str] = {}
            for col, _typ in columns:
                if col.lower() in colmap:
                    raise SchemaError(f"{self.db_id}: duplicate column {name}.{col}")
                colmap[col.lower()] = col
            lookup[low] = (name, colmap, frozenset(colmap))
        object.__setattr__(self, "_lookup", lookup)

    # -- case-insensitive lookups ------------------------------------------

    def table_name(self, name: str) -> str | None:
        entry = self._lookup.get(name.lower())
        return entry[0] if entry else None

    def columns_of(self, table: str) -> tuple[str, ...]:
        entry = self._lookup.get(table.lower())
        if entry is None:
            return ()
        return tuple(entry[1].values())

    def lowered_columns(self, table: str) -> frozenset[str]:
        """The table's column names, lower-cased; built once per schema."""
        entry = self._lookup.get(table.lower())
        return entry[2] if entry else frozenset()

    def foreign_keys_between(self, a: str, b: str) -> list[tuple[ColumnKey, ColumnKey]]:
        """Foreign keys linking tables a and b, in either direction."""
        pair = {a.lower(), b.lower()}
        return [
            (src, dst)
            for src, dst in self.foreign_keys
            if {src[0].lower(), dst[0].lower()} == pair
        ]


@dataclass(frozen=True)
class _TablesEntry:
    """The fields of a ``tables.json`` entry that a schema is built from."""

    db_id: str
    table_names_original: list[str]
    column_names_original: list[tuple[int, str]]  # (table index, name); -1 for "*"
    column_types: list[str]
    primary_keys: list[int]  # column indexes
    foreign_keys: list[tuple[int, int]]  # (column index, column index)


def schema_from_tables_entry(entry: object, database: Path) -> DatabaseSchema:
    """Build a DatabaseSchema from one element of a tables.json array, whose
    database file is ``database/<db_id>/<db_id>.sqlite``. An entry of the
    wrong shape, or one whose fields disagree, raises ``SchemaError``."""
    try:
        checked = _json_reader(_TablesEntry)(entry)
    except TypeError as exc:
        raise SchemaError(str(exc)) from None
    db_id, table_names = checked.db_id, checked.table_names_original
    column_names, column_types = checked.column_names_original, checked.column_types
    if len(column_types) != len(column_names):
        raise SchemaError(
            f"{db_id}: {len(column_types)} column types for {len(column_names)} columns"
        )

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

    primary = tuple(col_at(i) for i in checked.primary_keys)
    foreign = tuple((col_at(a), col_at(b)) for a, b in checked.foreign_keys)
    tables = tuple((name, tuple(cols)) for name, cols in zip(table_names, per_table))
    return DatabaseSchema(
        db_id=db_id,
        tables=tables,
        primary_keys=primary,
        foreign_keys=foreign,
        db_path=database / db_id / f"{db_id}.sqlite",
    )


@cache
def _json_reader(hint: object) -> Callable[[object], object]:
    """A function that checks a JSON value against the declared type ``hint``
    and returns it as that type: ``str``, ``int`` (``bool`` is no ``int``),
    ``dict`` (items unchecked), ``list[X]``, ``tuple[X, Y, ...]`` (from a
    list of exactly that length), an enum, ``X | None``, or a dataclass,
    read from an object that must hold all its ``init`` fields. A value of
    the wrong shape raises ``TypeError`` naming the path of fields to it;
    any other declared type raises ``TypeError`` here."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType and len(args) == 2 and type(None) in args:
        read = _json_reader(next(a for a in args if a is not type(None)))
        return lambda value: None if value is None else read(value)
    if origin is list:
        read_item = _json_reader(args[0])
        return lambda value: [read_item(item) for item in _checked(value, list)]
    if origin is tuple and ... not in args:
        read_items = tuple(map(_json_reader, args))

        def read_tuple(value: object) -> tuple:
            if len(_checked(value, list)) != len(read_items):
                raise TypeError(f"expected {len(read_items)} items, got {len(value)}")
            return tuple(read(item) for read, item in zip(read_items, value))

        return read_tuple
    if (origin or hint) in (str, int, dict):
        return partial(_checked, want=origin or hint)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint
    if not is_dataclass(hint):
        raise TypeError(f"no JSON reading for declared type {hint!r}")
    hints = get_type_hints(hint)
    readers = [(f.name, _json_reader(hints[f.name])) for f in fields(hint) if f.init]

    def read_record(data: object) -> object:
        _checked(data, dict)
        values = {}
        for name, read_field in readers:
            if name not in data:
                raise TypeError(f"missing field {name!r}")
            try:
                values[name] = read_field(data[name])
            except (TypeError, ValueError) as exc:
                raise TypeError(f"field {name!r}: {exc}") from None
        return hint(**values)

    return read_record


def _checked(value: object, want: type) -> object:
    if type(value) is not want:
        raise TypeError(f"expected {want.__name__}, got {type(value).__name__}")
    return value
