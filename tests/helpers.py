"""Test utilities: alias permutation, a deterministic query corpus, and a
scripted chat transport for pipeline tests."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

from nl2sql.schema import DatabaseSchema
from nl2sql.sqlast import (
    AliasRef,
    Between,
    Binary,
    BoolOp,
    ColumnRef,
    Comparison,
    Exists,
    InList,
    InSubquery,
    IsNull,
    Literal,
    ScalarSubquery,
    Select,
    Star,
    SubquerySource,
    TableSource,
    Unary,
    FuncCall,
    parse,
    to_sql,
)


# --------------------------------------------------------------------------- alias permutation

def rename_aliases(select: Select, rng: random.Random, counter=None) -> Select:
    """Give every FROM source a fresh alias (adding one where missing) and
    rewrite the references; optionally flips identifier case. The result
    prints to SQL that is alias-only different from the input."""
    if counter is None:
        counter = itertools.count(1)
    mapping: dict[str, str] = {}
    new_items = []
    for item in select.from_items:
        src = item.source
        fresh = f"zz{next(counter)}"
        if rng.random() < 0.5:
            fresh = fresh.upper()
        mapping[src.key] = fresh
        if isinstance(src, TableSource):
            table = _flip_case(src.table, rng)
            new_items.append(replace(item, source=TableSource(table=table, alias=fresh, key=fresh.lower())))
        else:
            inner = rename_aliases(src.query, rng, counter)
            new_items.append(replace(item, source=SubquerySource(query=inner, alias=fresh, key=fresh.lower())))
    out = replace(select, from_items=tuple(new_items))
    return _rewrite(out, mapping, rng, counter)


def _flip_case(name: str, rng: random.Random) -> str:
    return name.upper() if rng.random() < 0.5 else name.lower()


def _rewrite(node, mapping, rng, counter):
    if isinstance(node, Select):
        items = tuple(
            replace(i, expr=_rewrite(i.expr, mapping, rng, counter)) for i in node.items
        )
        from_items = tuple(
            replace(fi, condition=_rewrite(fi.condition, mapping, rng, counter))
            if fi.condition is not None else fi
            for fi in node.from_items
        )
        return replace(
            node,
            items=items,
            from_items=from_items,
            where=_rewrite(node.where, mapping, rng, counter) if node.where is not None else None,
            group_by=tuple(_rewrite(e, mapping, rng, counter) for e in node.group_by),
            having=_rewrite(node.having, mapping, rng, counter) if node.having is not None else None,
            order_by=tuple(
                replace(o, expr=_rewrite(o.expr, mapping, rng, counter)) for o in node.order_by
            ),
            set_op=(node.set_op[0], rename_aliases(node.set_op[1], rng, counter))
            if node.set_op is not None else None,
        )
    if isinstance(node, ColumnRef):
        if node.source is not None and node.source in mapping:
            return ColumnRef(
                table=mapping[node.source],
                column=_flip_case(node.column, rng),
                source=mapping[node.source].lower(),
            )
        return node
    if isinstance(node, Star):
        if node.source is not None and node.source in mapping:
            return Star(table=mapping[node.source], source=mapping[node.source].lower())
        return node
    if isinstance(node, (Literal, AliasRef)):
        return node
    if isinstance(node, FuncCall):
        return replace(node, args=tuple(_rewrite(a, mapping, rng, counter) for a in node.args))
    if isinstance(node, Unary):
        return replace(node, operand=_rewrite(node.operand, mapping, rng, counter))
    if isinstance(node, (Binary, Comparison)):
        return replace(
            node,
            left=_rewrite(node.left, mapping, rng, counter),
            right=_rewrite(node.right, mapping, rng, counter),
        )
    if isinstance(node, Between):
        return replace(
            node,
            expr=_rewrite(node.expr, mapping, rng, counter),
            low=_rewrite(node.low, mapping, rng, counter),
            high=_rewrite(node.high, mapping, rng, counter),
        )
    if isinstance(node, InList):
        return replace(
            node,
            expr=_rewrite(node.expr, mapping, rng, counter),
            items=tuple(_rewrite(i, mapping, rng, counter) for i in node.items),
        )
    if isinstance(node, InSubquery):
        return replace(
            node,
            expr=_rewrite(node.expr, mapping, rng, counter),
            query=_rename_nested(node.query, mapping, rng, counter),
        )
    if isinstance(node, Exists):
        return replace(node, query=_rename_nested(node.query, mapping, rng, counter))
    if isinstance(node, ScalarSubquery):
        return replace(node, query=_rename_nested(node.query, mapping, rng, counter))
    if isinstance(node, IsNull):
        return replace(node, expr=_rewrite(node.expr, mapping, rng, counter))
    if isinstance(node, BoolOp):
        return replace(node, terms=tuple(_rewrite(t, mapping, rng, counter) for t in node.terms))
    return node


def _rename_nested(select: Select, outer_mapping, rng, counter) -> Select:
    # Correlated references use the outer mapping; the subquery's own
    # sources get fresh names on top of it.
    mapping = dict(outer_mapping)
    new_items = []
    for item in select.from_items:
        src = item.source
        fresh = f"zz{next(counter)}"
        mapping[src.key] = fresh
        if isinstance(src, TableSource):
            new_items.append(replace(item, source=TableSource(table=src.table, alias=fresh, key=fresh.lower())))
        else:
            inner = rename_aliases(src.query, rng, counter)
            new_items.append(replace(item, source=SubquerySource(query=inner, alias=fresh, key=fresh.lower())))
    out = replace(select, from_items=tuple(new_items))
    return _rewrite(out, mapping, rng, counter)


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
