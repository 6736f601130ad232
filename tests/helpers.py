"""Test utilities: alias permutation, a deterministic query corpus, and a
scripted chat transport for pipeline tests."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

from nl2sql.schema import DatabaseSchema
from nl2sql.sqlast import (
    ColumnRef,
    Select,
    Star,
    SubquerySource,
    TableSource,
    parse,
    to_sql,
)
from nl2sql.sqlast.nodes import map_children


# --------------------------------------------------------------------------- alias permutation

def rename_aliases(select: Select, rng: random.Random, counter=None, outer=None) -> Select:
    """Give every FROM source a fresh alias (adding one where missing) and
    rewrite the references; flips the case of table and column names at
    random. The result prints to SQL that is alias-only different from the
    input. ``outer`` is the enclosing scope's mapping, given for a subquery
    nested in an expression: its correlated references keep the outer
    names, and its own aliases and table names keep their case."""
    if counter is None:
        counter = itertools.count(1)
    nested = outer is not None
    mapping = dict(outer or {})
    from_items = []
    for item in select.from_items:
        src = item.source
        fresh = f"zz{next(counter)}"
        if not nested and rng.random() < 0.5:
            fresh = fresh.upper()
        mapping[src.key] = fresh
        if isinstance(src, TableSource):
            table = src.table if nested else _flip_case(src.table, rng)
            src = TableSource(table=table, alias=fresh, key=fresh.lower())
        else:
            inner = rename_aliases(src.query, rng, counter)
            src = SubquerySource(query=inner, alias=fresh, key=fresh.lower())
        from_items.append(replace(item, source=src))

    def rewrite(node):
        # Any node type but these three is rebuilt through its children.
        if isinstance(node, Select):
            return rename_aliases(node, rng, counter, mapping)
        if isinstance(node, (ColumnRef, Star)) and node.source in mapping:
            alias = mapping[node.source]
            if isinstance(node, Star):
                return Star(table=alias, source=alias.lower())
            return ColumnRef(table=alias, column=_flip_case(node.column, rng), source=alias.lower())
        return map_children(node, rewrite)

    return replace(
        select,
        items=tuple(replace(i, expr=rewrite(i.expr)) for i in select.items),
        from_items=tuple(replace(fi, condition=rewrite(fi.condition)) for fi in from_items),
        where=rewrite(select.where),
        group_by=tuple(map(rewrite, select.group_by)),
        having=rewrite(select.having),
        order_by=tuple(replace(o, expr=rewrite(o.expr)) for o in select.order_by),
        set_op=select.set_op and (select.set_op[0], rename_aliases(select.set_op[1], rng, counter)),
    )


def _flip_case(name: str, rng: random.Random) -> str:
    return name.upper() if rng.random() < 0.5 else name.lower()


def alias_permuted_sql(sql: str, schema: DatabaseSchema, seed: int) -> str:
    """Parse, rename all aliases with a seeded RNG, print back to SQL."""
    rng = random.Random(seed)
    return to_sql(rename_aliases(parse(sql, schema), rng))


# --------------------------------------------------------------------------- query corpus

def generate_corpus(schemas: dict[str, DatabaseSchema], minimum: int = 220) -> list[tuple[str, str]]:
    """A deterministic list of (db_id, gold-style SQL) covering the dialect:
    plain selects, filters, aggregates, grouping, ordering, joins along
    foreign keys, subqueries and set operations."""
    out: list[tuple[str, str]] = []

    def add(db_id: str, sql: str) -> None:
        out.append((db_id, sql))

    for db_id in sorted(schemas):
        schema = schemas[db_id]
        for table, columns in schema.tables:
            names = [c for c, _ in columns]
            numeric = [c for c, t in columns if t == "number"]
            texts = [c for c, t in columns if t == "text"]
            add(db_id, f"SELECT {names[0]} FROM {table}")
            add(db_id, f"SELECT * FROM {table}")
            add(db_id, f"SELECT count(*) FROM {table}")
            add(db_id, f"SELECT DISTINCT {names[-1]} FROM {table}")
            if len(names) >= 2:
                add(db_id, f"SELECT {names[0]}, {names[1]} FROM {table}")
            if numeric:
                n = numeric[0]
                add(db_id, f"SELECT {names[0]} FROM {table} WHERE {n} > 2")
                add(db_id, f"SELECT {names[0]} FROM {table} WHERE {n} BETWEEN 1 AND 5")
                add(db_id, f"SELECT max({n}), min({n}) FROM {table}")
                add(db_id, f"SELECT avg({n}) FROM {table}")
                add(db_id, f"SELECT {names[0]} FROM {table} ORDER BY {n} DESC LIMIT 3")
                add(db_id, f"SELECT {names[0]} FROM {table} WHERE {n} IN (1, 2, 3)")
                add(db_id, f"SELECT {names[0]} FROM {table} WHERE {n} > (SELECT avg({n}) FROM {table})")
            if texts:
                t = texts[0]
                add(db_id, f"SELECT {names[0]} FROM {table} WHERE {t} = 'x'")
                add(db_id, f"SELECT {names[0]} FROM {table} WHERE {t} LIKE '%a%'")
                add(db_id, f"SELECT {t}, count(*) FROM {table} GROUP BY {t}")
                add(db_id, f"SELECT {t} FROM {table} GROUP BY {t} HAVING count(*) > 1")
                add(db_id, f"SELECT {t} FROM {table} WHERE {t} IS NOT NULL ORDER BY {t}")
        for (src_t, src_c), (dst_t, dst_c) in schema.foreign_keys:
            src_cols = [c for c, _ in dict(schema.tables)[schema.table_name(src_t)]]
            dst_cols = [c for c, _ in dict(schema.tables)[schema.table_name(dst_t)]]
            add(
                db_id,
                f"SELECT T1.{src_cols[-1]}, T2.{dst_cols[-1]} FROM {src_t} AS T1 "
                f"JOIN {dst_t} AS T2 ON T1.{src_c} = T2.{dst_c}",
            )
            add(
                db_id,
                f"SELECT T2.{dst_cols[-1]}, count(*) FROM {src_t} AS T1 "
                f"JOIN {dst_t} AS T2 ON T1.{src_c} = T2.{dst_c} GROUP BY T2.{dst_cols[-1]}",
            )
            add(
                db_id,
                f"SELECT {dst_cols[0]} FROM {dst_t} WHERE {dst_c} IN (SELECT {src_c} FROM {src_t})",
            )
            add(
                db_id,
                f"SELECT {dst_cols[0]} FROM {dst_t} WHERE NOT EXISTS "
                f"(SELECT * FROM {src_t} WHERE {src_t}.{src_c} = {dst_t}.{dst_c})",
            )
        first_table, first_cols = schema.tables[0]
        col = first_cols[0][0]
        add(db_id, f"SELECT {col} FROM {first_table} UNION SELECT {col} FROM {first_table}")
        add(db_id, f"SELECT {col} FROM {first_table} EXCEPT SELECT {col} FROM {first_table} WHERE 1 = 0")

    assert len(out) >= minimum, f"corpus too small: {len(out)}"
    return out


# --------------------------------------------------------------------------- scripted transport

class ScriptedTransport:
    """Computes assistant replies with a user-supplied function of the
    request; replies are deterministic, so recording them yields a valid
    replay store."""

    def __init__(self, reply_fn):
        self.reply_fn = reply_fn
        self.requests: list[dict] = []

    def send(self, request: dict, digest: str | None = None) -> dict:
        self.requests.append(request)
        text = self.reply_fn(request)
        return {"choices": [{"message": {"role": "assistant", "content": text}}]}


class CountingTransport:
    """Wraps a transport, counting calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def send(self, request: dict, digest: str | None = None) -> dict:
        self.calls += 1
        return self.inner.send(request, digest)
