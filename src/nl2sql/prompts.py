"""Prompt construction: schema serialization and the stage templates.

Every function here is a pure string builder; given the same inputs the
bytes are identical, which the replay store and transcript determinism
rely on. A schema's block is built once and kept while the schema lives:
the cache holds it weakly, so it keeps no schema, and no connection cached
on one, alive.
"""

from __future__ import annotations

import weakref

from .schema import DatabaseSchema

SYSTEM_PROMPT = (
    "You are a careful SQLite engineer. Given a database schema and a "
    "question, reply with one valid SQLite SELECT query that answers the "
    "question. Use only the listed tables and columns. Reply with SQL only."
)

CORRECTOR_SYSTEM_PROMPT = (
    "You are a careful SQLite engineer. You fix broken SQLite SELECT "
    "queries. Reply with one corrected SELECT query and nothing else."
)


# Each live schema's block, built by ``_build_schema_block``.
_SCHEMA_BLOCKS: weakref.WeakKeyDictionary[DatabaseSchema, str] = weakref.WeakKeyDictionary()


def schema_block(schema: DatabaseSchema) -> str:
    """Render the schema in the compact table(column, ...) prompt format."""
    block = _SCHEMA_BLOCKS.get(schema)
    if block is None:
        block = _SCHEMA_BLOCKS[schema] = _build_schema_block(schema)
    return block


def _build_schema_block(schema: DatabaseSchema) -> str:
    lines = ["### SQLite SQL tables, with their properties:", "#"]
    for name, columns in schema.tables:
        cols = ", ".join(col for col, _typ in columns)
        lines.append(f"# {name}({cols})")
    lines.append("#")
    if schema.foreign_keys:
        lines.append("### Foreign keys:")
        for (src_t, src_c), (dst_t, dst_c) in schema.foreign_keys:
            lines.append(f"# {src_t}.{src_c} = {dst_t}.{dst_c}")
        lines.append("#")
    return "\n".join(lines)


def zero_shot_user_prompt(question: str, schema: DatabaseSchema) -> str:
    return f"{schema_block(schema)}\n\n### Question: {question}\n### SQL:"


def example_correction_prompt(gold_table_markdown: str) -> str:
    """Follow-up turn shown in the same conversation after a result mismatch."""
    return (
        "The output of the query you wrote does not match the expected "
        "result table for this question. The expected result table is:\n\n"
        f"{gold_table_markdown}\n\n"
        "Revise your SQL so that executing it produces exactly this result "
        "table. Reply with SQL only."
    )


def error_correction_prompt(
    question: str,
    schema: DatabaseSchema,
    failed_sql: str,
    execution_error: str | None,
    timed_out: bool = False,
) -> str:
    """A fresh prompt for the corrector model: no earlier conversation text
    is carried over except the failed SQL itself."""
    parts = [
        schema_block(schema),
        f"### Question: {question}",
        "### A previous attempt produced this SQL, which is wrong:",
        failed_sql,
    ]
    if execution_error is not None:
        parts.append("### Executing it failed with this error:")
        parts.append(execution_error)
    elif timed_out:
        parts.append("### Executing it did not finish within the time limit.")
    else:
        parts.append("### It executes, but its result table does not answer the question correctly.")
    parts.append("### Write a corrected SQLite SELECT query. Reply with SQL only.")
    return "\n\n".join(parts)
