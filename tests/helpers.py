"""Test utilities: alias permutation, a deterministic query corpus, triage
called as ``score`` calls it, ``score`` of bare prediction/gold pairs, a
scripted chat transport for pipeline tests, an empty replay store and the
inverse of the markdown rendering."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

from nl2sql.dataset import SpiderExample
from nl2sql.evaluate import EvalReport, score
from nl2sql.execution import OutcomeMemo, ResultTable
from nl2sql.hardness import Hardness
from nl2sql.llm import RecordingTransport
from nl2sql.pipeline import PipelineTranscript, Verdict
from nl2sql.schema import DatabaseSchema
from nl2sql.sqlast import (
    ColumnRef,
    Select,
    Star,
    SubquerySource,
    TableSource,
    canonicalize,
    parse,
    to_sql,
)
from nl2sql.sqlast.nodes import map_children
from nl2sql.triage import TriageVerdict, tie_ambiguity_test, triage


# --------------------------------------------------------------------------- alias permutation

def rename_aliases(select: Select, rng: random.Random, counter=None, outer=None) -> Select:
    """Give every FROM source a fresh alias (adding one where missing) and
    rewrite the references; flips the case of table and column names at
    random. The result prints to SQL that is alias-only different from the
    input. ``outer`` is the enclosing scope's mapping, given for a subquery
    nested in an expression and handed on to its compound arms: their
    correlated references take the renamed outer aliases, and their own
    aliases and table names keep their case."""
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
        set_op=select.set_op and (
            select.set_op[0], rename_aliases(select.set_op[1], rng, counter, outer)
        ),
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


# --------------------------------------------------------------------------- triage calls

def triage_sql(pred_sql: str, gold_sql: str, schema: DatabaseSchema) -> TriageVerdict:
    """``triage`` of two queries, handed what ``score`` hands it: both
    tables and the memo both queries ran through, which the probes share."""
    memo = OutcomeMemo(schema)
    pred_table = memo.run(pred_sql).table
    gold_table = memo.run(gold_sql).table
    pred_ast, gold_ast = parse(pred_sql, schema), parse(gold_sql, schema)
    return triage(pred_ast, gold_ast, pred_table, gold_table, memo)


def score_pairs(
    pairs: list[tuple[str, str, str]], schemas: dict[str, DatabaseSchema]
) -> EvalReport:
    """``score`` of (db_id, pred_sql, gold_sql) triples, each one example
    whose transcript ends in the prediction."""
    examples, transcripts = [], []
    for i, (db_id, pred, gold) in enumerate(pairs):
        question = f"q{i}"
        examples.append(SpiderExample(
            id=i, question=question, db_id=db_id, gold_sql=gold, hardness=Hardness.MEDIUM
        ))
        transcripts.append(PipelineTranscript(
            example_id=i, db_id=db_id, question=question, gold_sql=gold, stages=[],
            final_sql=pred, final_verdict=Verdict.CORRECT_FIRST_SHOT,
        ))
    return score(transcripts, examples, schemas)


def tie_test(
    pred_ast: Select,
    gold_ast: Select,
    schema: DatabaseSchema,
    pred_table: ResultTable | None = None,
    gold_table: ResultTable | None = None,
) -> bool | None:
    """``tie_ambiguity_test`` of the canonical trees of both queries, with a
    fresh memo, as ``triage`` calls it. No ``pred_table`` stands for a
    prediction that did not run to a table, which keeps both probes. The
    gold's table runs through the memo first unless it is given, as a test
    that counts the probes' executions gives it."""
    memo = OutcomeMemo(schema)
    if gold_table is None:
        gold_table = memo.run(to_sql(gold_ast)).table
    canon = (canonicalize(pred_ast), canonicalize(gold_ast))
    return tie_ambiguity_test(canon, memo, pred_table, gold_table)


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


def empty_store(path):
    """Make ``path`` a replay store holding no reply; returns it."""
    RecordingTransport(ScriptedTransport(lambda request: ""), path)
    return path


class CountingTransport:
    """Wraps a transport, counting calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def send(self, request: dict, digest: str | None = None) -> dict:
        self.calls += 1
        return self.inner.send(request, digest)


# --------------------------------------------------------------------------- markdown

def parse_markdown(text: str) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """Inverse of render_markdown for printable tables: returns column names
    and rows of cell *texts* (types are not recoverable)."""
    lines = [ln for ln in text.split("\n") if ln.startswith("|")]
    if len(lines) < 2:
        raise ValueError("not a markdown table")
    header = _split_row(lines[0])
    rows = tuple(_split_row(ln) for ln in lines[2:])
    return header, rows


def _split_row(line: str) -> tuple[str, ...]:
    body = line.strip()
    if body.startswith("|"):
        body = body[1:]
    if body.endswith("|"):
        body = body[:-1]
    cells: list[str] = []
    current: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            current.append(ch + body[i + 1])
            i += 2
            continue
        if ch == "|":
            cells.append(_unescape("".join(current)).strip())
            current = []
            i += 1
            continue
        current.append(ch)
        i += 1
    cells.append(_unescape("".join(current)).strip())
    return tuple(cells)


def _unescape(text: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)
