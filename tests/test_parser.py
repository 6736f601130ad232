from __future__ import annotations

import sqlite3

import pytest

from nl2sql.errors import ParseError, UnsupportedSqlError
from nl2sql.sqlast.parser import MAX_DEPTH
from nl2sql.sqlast import (
    AliasRef,
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    ScalarSubquery,
    Star,
    canonicalize,
    parse,
    to_sql,
)

from conftest import (
    BELOW_AVERAGE_CARS_SQL,
    EXTRA_JOIN_CARS_SQL,
    GROUPED_BY_ID_SQL,
    GROUPED_BY_NAME_SQL,
)
from helpers import generate_corpus


def test_parse_constant_select_has_no_sources(schemas):
    ast = parse("SELECT 1", schemas["car_1"])
    assert len(ast.items) == 1
    assert ast.items[0].expr == Literal(value=1, text="1")
    assert ast.from_items == ()


def test_parse_grouped_query_structure(schemas):
    ast = parse(GROUPED_BY_NAME_SQL, schemas["student_course"])
    assert len(ast.from_items) == 2
    assert len(ast.group_by) == 1
    assert ast.group_by[0] == ColumnRef(table="T1", column="course_name", source="t1")
    assert ast.order_by[0].descending
    assert isinstance(ast.order_by[0].expr, FuncCall)
    assert ast.order_by[0].expr.star
    assert ast.limit == 1


def test_parse_three_source_join_with_scalar_subquery(schemas):
    ast = parse(EXTRA_JOIN_CARS_SQL, schemas["car_1"])
    assert len(ast.from_items) == 3
    conditions = [fi.condition for fi in ast.from_items if fi.condition is not None]
    assert len(conditions) == 2
    assert isinstance(ast.where, Comparison)
    assert isinstance(ast.where.right, ScalarSubquery)
    sub = ast.where.right.query
    assert sub.from_items[0].source.table.lower() == "cars_data"
    # the subquery is correlation-free: its one column ref binds inside it
    inner_arg = sub.items[0].expr.args[0]
    assert inner_arg.source == sub.from_items[0].source.key


def test_case_insensitive_binding(schemas):
    ast = parse(BELOW_AVERAGE_CARS_SQL, schemas["car_1"])
    sources = [fi.source for fi in ast.from_items]
    assert [s.table for s in sources] == ["CAR_NAMES", "CARS_DATA"]
    assert sources[0].key == "t1"


def test_lowered_columns_are_built_once_per_schema(schemas):
    schema = schemas["car_1"]
    columns = schema.lowered_columns("CARS_DATA")
    assert columns == {c.lower() for c in schema.columns_of("cars_data")}
    assert schema.lowered_columns("cars_data") is columns
    assert schema.lowered_columns("nowhere") == frozenset()


def test_unqualified_column_binds_to_unique_source(schemas):
    ast = parse(
        "SELECT name FROM singer JOIN singer_in_concert "
        "ON singer.singer_id = singer_in_concert.singer_id",
        schemas["concert_singer"],
    )
    assert ast.items[0].expr.source == "singer"


def test_ambiguous_column_is_flagged_not_fatal(schemas):
    ast = parse(
        "SELECT singer_id FROM singer JOIN singer_in_concert "
        "ON singer.singer_id = singer_in_concert.singer_id",
        schemas["concert_singer"],
    )
    assert ast.items[0].expr.ambiguous
    assert ast.items[0].expr.source is None


# An unknown column in every position the binder descends into: select
# items, ON/WHERE/GROUP BY/HAVING/ORDER BY, each composite child field and
# the bodies of nested SELECTs, correlated ones included. Where a second
# unknown column ("later") follows, "nope" must be the one reported.
UNKNOWN_COLUMN_SQL = {
    "select_item": "SELECT nope FROM singer",
    "join_condition": "SELECT name FROM singer JOIN singer_in_concert ON nope = 1",
    "group_by": "SELECT count(*) FROM singer GROUP BY nope",
    "having": "SELECT count(*) FROM singer GROUP BY country HAVING max(nope) > 1",
    "order_by": "SELECT name FROM singer ORDER BY nope",
    "function_arg": "SELECT max(age, nope) FROM singer",
    "unary_operand": "SELECT -nope FROM singer",
    "not_operand": "SELECT name FROM singer WHERE NOT nope",
    "binary_left": "SELECT nope + age FROM singer",
    "binary_right": "SELECT age * nope FROM singer",
    "comparison_left": "SELECT name FROM singer WHERE nope = 1",
    "comparison_right": "SELECT name FROM singer WHERE name LIKE nope",
    "between_expr": "SELECT name FROM singer WHERE nope BETWEEN 20 AND 30",
    "between_low": "SELECT name FROM singer WHERE age BETWEEN nope AND 30",
    "between_high": "SELECT name FROM singer WHERE age NOT BETWEEN 20 AND nope",
    "in_list_expr": "SELECT name FROM singer WHERE nope IN (1, 2)",
    "in_list_item": "SELECT name FROM singer WHERE age IN (1, nope)",
    "in_subquery_expr": "SELECT name FROM singer WHERE nope IN (SELECT singer_id FROM singer_in_concert)",
    "in_subquery_body": "SELECT name FROM singer WHERE singer_id IN (SELECT nope FROM singer_in_concert)",
    "is_null": "SELECT name FROM singer WHERE nope IS NOT NULL",
    "bool_term": "SELECT name FROM singer WHERE age > 1 OR nope",
    "correlated_exists_body": (
        "SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM singer_in_concert AS s "
        "WHERE s.singer_id = singer.singer_id AND nope = 1)"
    ),
    "scalar_subquery_body": "SELECT name FROM singer WHERE age > (SELECT max(nope) FROM singer)",
    "from_subquery_body": "SELECT x FROM (SELECT nope AS x FROM singer)",
    "set_op_branch": "SELECT name FROM singer UNION SELECT nope FROM stadium",
    "select_before_where": "SELECT nope FROM singer WHERE later = 1",
    "between_bounds_in_order": "SELECT name FROM singer WHERE age BETWEEN nope AND later",
    "in_list_in_order": "SELECT name FROM singer WHERE age IN (nope, later)",
    "args_in_order": "SELECT max(nope, later) FROM singer",
    "terms_in_order": "SELECT name FROM singer WHERE nope = 1 AND later = 2",
    "operand_before_subquery": (
        "SELECT name FROM singer WHERE nope IN (SELECT later FROM stadium)"
    ),
}


def _parse_error(sql: str, schema) -> str | None:
    try:
        parse(sql, schema)
    except ParseError as exc:
        return str(exc)
    return None


def test_unknown_column_raises(schemas):
    errors = {
        case: _parse_error(sql, schemas["concert_singer"])
        for case, sql in UNKNOWN_COLUMN_SQL.items()
    }
    assert errors == {case: "no such column: nope" for case in UNKNOWN_COLUMN_SQL}
    assert _parse_error("SELECT singer.nope FROM singer", schemas["concert_singer"]) == (
        "no such column: singer.nope"
    )


def test_unknown_table_raises(schemas):
    with pytest.raises(ParseError, match="no such table"):
        parse("SELECT * FROM nowhere", schemas["concert_singer"])


@pytest.mark.parametrize("sql, message", [
    ("SELECT count(name FROM singer", "expected ')', found 'FROM' (at offset 18)"),
    ("SELECT name FROM 5", "expected table name, found '5' (at offset 17)"),
    ("SELECT name FROM singer AS 5", "expected alias after AS, found '5' (at offset 27)"),
    ("SELECT name FROM singer WHERE age IS 5", "expected NULL after IS, found '5' (at offset 37)"),
    ("SELECT singer.'x' FROM singer", "expected column after '.', found 'x' (at offset 14)"),
    ("SELECT nowhere.* FROM singer", "no such table: nowhere"),
    ("SELECT nowhere.name FROM singer", "no such table: nowhere"),
])
def test_each_parse_error_names_what_it_expected(schemas, sql, message):
    assert _parse_error(sql, schemas["concert_singer"]) == message


def test_syntax_error_carries_position(schemas):
    with pytest.raises(ParseError) as err:
        parse("SELECT FROM singer", schemas["concert_singer"])
    assert "offset" in str(err.value)


def test_dml_and_ddl_are_rejected(schemas):
    for sql in ("INSERT INTO singer VALUES (1)", "DROP TABLE singer", "UPDATE singer SET age = 1"):
        with pytest.raises(UnsupportedSqlError):
            parse(sql, schemas["concert_singer"])


@pytest.mark.parametrize("sql", [
    "WITH s AS (SELECT name FROM singer) SELECT name FROM s",
    "SELECT CASE WHEN age > 30 THEN name END FROM singer",
    "SELECT CAST(age AS TEXT) FROM singer",
    "SELECT singer.name FROM singer RIGHT JOIN concert",
    "SELECT singer.name FROM singer FULL OUTER JOIN concert",
    "SELECT singer.name FROM singer NATURAL JOIN singer_in_concert",
    "SELECT name FROM singer LIMIT 2 OFFSET 1",
    "SELECT name FROM singer LIMIT 1, 2",
])
def test_dialect_forms_outside_the_subset_are_unsupported(schemas, sql):
    with pytest.raises(UnsupportedSqlError):
        parse(sql, schemas["concert_singer"])


def test_negative_limit_rejected(schemas):
    with pytest.raises(ParseError):
        parse("SELECT name FROM singer LIMIT -1", schemas["concert_singer"])


HEX_SQL = [
    "SELECT 0x10", "SELECT 0X1f", "SELECT 0xA", "SELECT 0x0", "SELECT 0x1e5",
    "SELECT 0x7fffffffffffffff", "SELECT 0x8000000000000000", "SELECT 0xffffffffffffffff",
    "SELECT 0x00000000000000000001", "SELECT 0x10000000000000000",
    "SELECT 0xfffffffffffffffff", "SELECT -0x7fffffffffffffff", "SELECT -0x8000000000000000",
    "SELECT -(0x8000000000000000)", "SELECT - -0x8000000000000000",
    "SELECT +0x8000000000000000", "SELECT 0x10 - 0xffffffffffffffff",
]


def _sqlite_value(sql: str):
    conn = sqlite3.connect(":memory:")
    try:
        return conn.execute(sql).fetchone()[0]
    except sqlite3.Error as exc:
        return str(exc)
    finally:
        conn.close()


def test_hex_literals_read_as_sqlite_reads_them(schemas):
    # The canonical form spells every literal by its value, in decimal.
    got = {}
    for sql in HEX_SQL:
        try:
            got[sql] = _sqlite_value(canonicalize(parse(sql, schemas["car_1"])).sql)
        except ParseError as exc:
            got[sql] = str(exc).split(" (at offset")[0]
    assert got == {sql: _sqlite_value(sql) for sql in HEX_SQL}
    assert parse("SELECT 0x10", schemas["car_1"]).items[0].expr == Literal(16, "0x10")


def test_hex_limit(schemas):
    schema = schemas["concert_singer"]
    assert parse("SELECT name FROM singer LIMIT 0x1F", schema).limit == 31
    with pytest.raises(ParseError, match="LIMIT must be non-negative"):
        parse("SELECT name FROM singer LIMIT 0xffffffffffffffff", schema)


# An aggregate in WHERE at every composite child position, with the
# function the error names. With two aggregates the walk meets the
# right-hand one first.
AGGREGATE_IN_WHERE_SQL = {
    "comparison_left": ("WHERE count(*) > 1", "count"),
    "comparison_right": ("WHERE age = max(age)", "max"),
    "two_aggregates": ("WHERE min(age) < max(age)", "max"),
    "function_arg": ("WHERE abs(sum(age)) > 1", "sum"),
    "unary_operand": ("WHERE -avg(age) < 0", "avg"),
    "not_operand": ("WHERE NOT count(*)", "count"),
    "binary": ("WHERE age + total(age) > 1", "total"),
    "between_expr": ("WHERE count(*) BETWEEN 1 AND 2", "count"),
    "between_low": ("WHERE age BETWEEN min(age) AND 30", "min"),
    "between_high": ("WHERE age BETWEEN 20 AND max(age)", "max"),
    "in_list_expr": ("WHERE max(age) IN (1, 2)", "max"),
    "in_list_item": ("WHERE age IN (1, max(age))", "max"),
    "in_subquery_expr": ("WHERE count(*) IN (SELECT singer_id FROM singer_in_concert)", "count"),
    "is_null": ("WHERE sum(age) IS NULL", "sum"),
    "bool_term": ("WHERE age > 1 OR group_concat(name) = 'x'", "group_concat"),
    "correlated_exists_body": (
        "WHERE EXISTS (SELECT 1 FROM singer_in_concert AS s "
        "WHERE s.singer_id = singer.singer_id AND count(*) > 0)",
        "count",
    ),
}


def test_aggregate_in_where_rejected(schemas):
    errors = {
        case: _parse_error(f"SELECT name FROM singer {where}", schemas["concert_singer"])
        for case, (where, _) in AGGREGATE_IN_WHERE_SQL.items()
    }
    assert errors == {
        case: f"aggregate function {name}() is not allowed in WHERE"
        for case, (_, name) in AGGREGATE_IN_WHERE_SQL.items()
    }


def test_aggregate_inside_where_subquery_allowed(schemas):
    for where in (
        "capacity > (SELECT avg(capacity) FROM stadium)",
        "stadium_id IN (SELECT max(stadium_id) FROM concert)",
        "stadium_id NOT IN (SELECT stadium_id FROM concert GROUP BY stadium_id HAVING count(*) > 1)",
        "EXISTS (SELECT count(*) FROM concert WHERE concert.stadium_id = stadium.stadium_id)",
        "NOT EXISTS (SELECT 1 FROM concert GROUP BY year HAVING sum(stadium_id) > capacity)",
    ):
        ast = parse(f"SELECT name FROM stadium WHERE {where}", schemas["concert_singer"])
        assert ast.where is not None, where


def test_double_quoted_unknown_name_becomes_string_literal(schemas):
    ast = parse('SELECT name FROM singer WHERE country = "France"', schemas["concert_singer"])
    assert ast.where.right == Literal(value="France", text="'France'")


def test_double_quoted_known_column_stays_a_column(schemas):
    ast = parse('SELECT "name" FROM singer', schemas["concert_singer"])
    assert isinstance(ast.items[0].expr, ColumnRef)


def test_output_alias_usable_in_order_by(schemas):
    ast = parse(
        "SELECT count(*) AS n FROM singer GROUP BY country ORDER BY n DESC",
        schemas["concert_singer"],
    )
    assert to_sql(ast).endswith("ORDER BY n DESC")


def test_bare_order_by_name_binds_to_the_output_alias_first(schemas):
    # SQLite sorts a bare ORDER BY name on the output alias it names, even
    # when a FROM column has that name: here on -age, so the first row is -45.
    schema = schemas["concert_singer"]
    ast = parse("SELECT -age AS age FROM singer ORDER BY age LIMIT 1", schema)
    assert ast.order_by[0].expr == AliasRef(name="age", index=0)
    qualified = parse("SELECT -age AS age FROM singer ORDER BY singer.age LIMIT 1", schema)
    assert isinstance(qualified.order_by[0].expr, ColumnRef)
    assert canonicalize(ast) != canonicalize(qualified)
    # GROUP BY, HAVING and a name inside an ORDER BY expression bind the column.
    grouped = parse(
        "SELECT -age AS age FROM singer GROUP BY age HAVING age > 0 ORDER BY age + 0", schema
    )
    assert isinstance(grouped.group_by[0], ColumnRef)
    assert isinstance(grouped.having.left, ColumnRef)
    assert isinstance(grouped.order_by[0].expr.left, ColumnRef)


def test_qualified_star(schemas):
    ast = parse("SELECT singer.* FROM singer", schemas["concert_singer"])
    assert isinstance(ast.items[0].expr, Star)
    assert ast.items[0].expr.source == "singer"


def test_set_operation_parses(schemas):
    ast = parse(
        "SELECT name FROM singer UNION SELECT name FROM stadium", schemas["concert_singer"]
    )
    assert ast.set_op is not None
    assert ast.set_op[0] == "union"


def test_chained_set_operations_unsupported(schemas):
    with pytest.raises(UnsupportedSqlError):
        parse(
            "SELECT name FROM singer UNION SELECT name FROM stadium UNION SELECT location FROM stadium",
            schemas["concert_singer"],
        )


# Signs and right-nested operators the corpus lacks: a nested minus printed
# as "--" would turn the rest of the line into a comment.
SIGNED_SQL = [
    "SELECT - -age FROM singer",
    "SELECT -(-1), - - - 2, -(+3), +(-4)",
    "SELECT name FROM singer WHERE - -30 < age AND age - -1 > 0",
    "SELECT 10 - (3 - 2), 8 / (4 / 2), 2 * (3 * 4), -(5 - 1)",
]


def test_print_parse_round_trip_over_corpus(schemas):
    for db_id, sql in generate_corpus(schemas) + [("concert_singer", q) for q in SIGNED_SQL]:
        ast = parse(sql, schemas[db_id])
        reprinted = to_sql(ast)
        assert parse(reprinted, schemas[db_id]) == ast, sql


def test_grouped_by_id_and_name_round_trip(schemas):
    for sql in (GROUPED_BY_ID_SQL, GROUPED_BY_NAME_SQL):
        ast = parse(sql, schemas["student_course"])
        assert parse(to_sql(ast), schemas["student_course"]) == ast


# Each shape nested n levels deep.
NESTED = {
    "parentheses": lambda n: "SELECT " + "(" * n + "1" + ")" * n,
    "signs": lambda n: "SELECT " + "- " * n + "1",
    "nots": lambda n: "SELECT " + "NOT " * n + "1",
    "scalar-subqueries": lambda n: "SELECT " + "(SELECT " * n + "1" + ")" * n,
    "calls": lambda n: "SELECT " + "abs(" * n + "1" + ")" * n,
    "from-subqueries": lambda n: "SELECT * FROM " + "(SELECT * FROM " * n + "singer" + ")" * n,
    "sums": lambda n: "SELECT " + "1 + " * n + "1",
    "products": lambda n: "SELECT " + "2 * " * n + "1",
}
# The deepest of each shape that SQLite 3.40.1 runs ("parser stack overflow"
# past it).
SQLITE_DEEPEST = {"parentheses": 93, "signs": 94, "nots": 94, "scalar-subqueries": 18}


@pytest.mark.parametrize("shape, depth", SQLITE_DEEPEST.items())
def test_the_deepest_query_sqlite_runs_parses_and_prints(schemas, shape, depth):
    schema = schemas["concert_singer"]
    ast = parse(NESTED[shape](depth), schema)
    assert parse(to_sql(ast), schema) == ast
    assert parse(canonicalize(ast).sql, schema) is not None


def test_one_level_past_the_bound_is_a_parse_error(schemas):
    # The SELECT and its item take two levels, each parenthesis one more.
    schema = schemas["concert_singer"]
    parse(NESTED["parentheses"](MAX_DEPTH - 2), schema)
    with pytest.raises(ParseError, match=f"query nests deeper than {MAX_DEPTH} levels"):
        parse(NESTED["parentheses"](MAX_DEPTH - 1), schema)


@pytest.mark.parametrize("shape", NESTED)
def test_ten_thousand_levels_are_a_parse_error(schemas, shape):
    with pytest.raises(ParseError, match="query nests deeper than"):
        parse(NESTED[shape](10_000), schemas["concert_singer"])
