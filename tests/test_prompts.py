from __future__ import annotations

import gc
import re
import weakref

from nl2sql.prompts import (
    error_correction_prompt,
    example_correction_prompt,
    schema_block,
    zero_shot_user_prompt,
)
from nl2sql.schema import DatabaseSchema


def test_schema_block_shape(schemas):
    block = schema_block(schemas["concert_singer"])
    lines = block.splitlines()
    assert lines[0] == "### SQLite SQL tables, with their properties:"
    assert lines[1] == "#"
    assert "# stadium(stadium_id, location, name, capacity, highest, lowest, average)" in lines
    assert "### Foreign keys:" in lines
    assert "# concert.stadium_id = stadium.stadium_id" in lines


def test_schema_block_without_foreign_keys_omits_fk_section(schemas):
    block = schema_block(schemas["battle_death"])
    assert "Foreign keys" not in block
    assert "# ship(" in block


def test_zero_shot_prompt_lists_each_table_exactly_once(schemas):
    prompt = zero_shot_user_prompt("How many ships sank?", schemas["battle_death"])
    assert len(re.findall(r"# ship\(", prompt)) == 1
    assert prompt.count("ship") >= 1
    assert "### Question: How many ships sank?" in prompt
    assert prompt.rstrip().endswith("### SQL:")


def test_zero_shot_prompt_has_every_table_header_once(schemas):
    schema = schemas["car_1"]
    prompt = zero_shot_user_prompt("q", schema)
    for table, _cols in schema.tables:
        assert len(re.findall(rf"# {table}\(", prompt)) == 1


def test_example_correction_prompt_embeds_the_table():
    md = "| n |\n| --- |\n| 5 |"
    prompt = example_correction_prompt(md)
    assert md in prompt
    assert "does not match" in prompt
    assert "Revise" in prompt


def test_error_prompt_with_and_without_engine_error(schemas):
    schema = schemas["battle_death"]
    with_error = error_correction_prompt("q", schema, "SELECT x", "no such column: x")
    assert "no such column: x" in with_error
    assert "SELECT x" in with_error
    without = error_correction_prompt("q", schema, "SELECT name FROM ship", None)
    assert "failed with this error" not in without
    assert "SELECT name FROM ship" in without


def test_prompts_are_deterministic(schemas):
    schema = schemas["concert_singer"]
    assert zero_shot_user_prompt("q", schema) == zero_shot_user_prompt("q", schema)
    assert schema_block(schema) == schema_block(schema)


def test_the_schema_block_cache_keeps_no_schema_alive():
    # A cache that held its schemas would hold every set-up's schemas, and
    # with them their cached SQLite connections, for the life of the process.
    schema = DatabaseSchema("db", (("singer", (("name", "text"), ("age", "int"))),))
    prompt = zero_shot_user_prompt("q", schema)
    assert prompt.startswith(schema_block(schema) + "\n\n")
    assert "# singer(name, age)" in prompt
    alive = weakref.ref(schema)
    del schema
    gc.collect()
    assert alive() is None


def test_schemas_with_equal_fields_are_distinct_and_cached_apart():
    # A schema owns its connections, so equal fields do not make it the same.
    tables = (("singer", (("name", "text"), ("age", "int"))),)
    a, b = DatabaseSchema("db", tables), DatabaseSchema("db", tables)
    assert a != b and hash(a) != hash(b)
    assert schema_block(a) == schema_block(b)
    assert schema_block(a) is schema_block(a) is not schema_block(b)

