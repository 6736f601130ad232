"""Execution oracle for the printer and the canonicaliser.

Re-printing a parsed query, or printing its canonical form, must not change
what the query returns. Every corpus query and every dev gold query is run
on its fixture database next to both rewrites, and the result tables must
be equivalent: the execution-based check of Zhong, Yu and Klein, "Semantic
Evaluation for Text-to-SQL with Distilled Test Suites" (EMNLP 2020).
"""

from __future__ import annotations

import sqlite3

from nl2sql.execution import execute, tables_equivalent
from nl2sql.schema import DatabaseSchema
from nl2sql.sqlast import canonicalize, parse, to_sql
from nl2sql.sqlast.printer import SQLITE_KEYWORDS
from nl2sql.sqlast.tokens import KEYWORDS

from helpers import generate_corpus


# Queries whose results depend on what the corpus never exercises: a sign
# the canonicaliser folds into a literal, right-nested "-" and "/", a
# NOT IN list that excludes existing rows, a nested minus that must not
# print as the comment opener "--", and literals that overflow to infinity.
# Then dialect forms README lists and nothing else reaches: every join
# keyword but a bare JOIN, aliases without AS, second GROUP BY and ORDER BY
# keys, NULL, a call without arguments, a nested AND, DISTINCT in a call, a
# prefix NOT and a float literal that is not integral. Last, a bare ORDER BY
# name that is both an output alias and a column, which SQLite sorts on the
# aliased item, next to the qualified column. Last of all, a positional
# ORDER BY key after a ``*``, which counts output columns, not items, an
# integral float divisor, which keeps the division from truncating, and two
# keys the canonical form writes as the item they name, which the tie probe
# runs with LIMIT k + 1: an alias after a ``*``, and a left-arm alias of a
# compound query. Then an outer key that names a FROM subquery's column by
# its alias, and keys that name an integer-literal item, which SQLite sorts
# on as a constant and the canonical form must not write as another
# position.
EXTRA_QUERIES = [
    ("concert_singer", "SELECT name FROM singer WHERE age - 40 > -12"),
    ("concert_singer", "SELECT 10 - (3 - 2), 8 / (4 / 2), -5 + 10"),
    ("concert_singer", "SELECT name FROM singer WHERE age - (age - 30) = 30"),
    ("concert_singer", "SELECT name FROM stadium WHERE capacity / (capacity / 2) = 2"),
    ("concert_singer", "SELECT name FROM singer WHERE country NOT IN ('fr', 'de')"),
    ("concert_singer", "SELECT - -age FROM singer"),
    ("concert_singer", "SELECT name FROM singer WHERE - -30 < age"),
    ("concert_singer", "SELECT 0x10, 0XfF - 0xffffffffffffffff, -0x7fffffffffffffff FROM singer"),
    ("concert_singer", "SELECT name FROM singer WHERE age > 0x1E ORDER BY age LIMIT 0x2"),
    ("concert_singer", "SELECT name FROM singer WHERE age < 1e999 AND -1e999 < age"),
    ("concert_singer", "SELECT 1e999, -1e999, - -1e999, age - -1e999 FROM singer"),
    ("concert_singer", "SELECT name FROM singer WHERE 45 < age AND 30 >= age - 1"),
    ("concert_singer", "SELECT name FROM singer WHERE 'us' != country OR -5 > - age"),
    ("concert_singer", "SELECT name FROM singer WHERE 40 <= age AND 60 > age AND 45 = age"),
    ("concert_singer", "SELECT name FROM stadium WHERE 1000 < (SELECT max(capacity) FROM stadium)"),
    ("concert_singer", "SELECT T1.name, T2.year FROM stadium AS T1 INNER JOIN concert AS T2 "
                       "ON T1.stadium_id = T2.stadium_id"),
    ("concert_singer", "SELECT T1.concert_name, T2.singer_id FROM concert AS T1 LEFT JOIN "
                       "singer_in_concert AS T2 ON T1.concert_id = T2.concert_id"),
    ("concert_singer", "SELECT T1.concert_name, T2.singer_id FROM concert AS T1 LEFT OUTER JOIN "
                       "singer_in_concert AS T2 ON T1.concert_id = T2.concert_id "
                       "WHERE T2.singer_id IS NULL"),
    ("concert_singer", "SELECT s.name, c.year FROM singer s CROSS JOIN concert c WHERE c.year > 2014"),
    ("concert_singer", "SELECT singer.name, concert.theme FROM singer, concert "
                       "WHERE singer.age > 40"),
    ("concert_singer", "SELECT country c, age FROM singer ORDER BY country DESC, age"),
    ("concert_singer", "SELECT country, age > 29, count(*) FROM singer GROUP BY country, age > 29"),
    ("concert_singer", "SELECT name, NULL FROM singer WHERE country IS NOT NULL"),
    ("concert_singer", "SELECT name, sqlite_version() = sqlite_version() FROM singer"),
    ("concert_singer", "SELECT name FROM singer WHERE age > 20 AND (country = 'us' AND age < 40)"),
    # A * over a FROM subquery inside a FROM subquery.
    ("concert_singer", "SELECT name FROM (SELECT * FROM (SELECT name, age FROM singer) "
                       "WHERE age > 30)"),
    ("concert_singer", "SELECT count(DISTINCT country), count(country) FROM singer"),
    ("concert_singer", "SELECT name FROM singer WHERE NOT age > 29 OR NOT (country = 'us')"),
    ("concert_singer", "SELECT name, age * 1.5 FROM singer WHERE age > 29.5"),
    ("concert_singer", "SELECT -age AS age FROM singer ORDER BY age LIMIT 1"),
    ("concert_singer", "SELECT -age AS age FROM singer ORDER BY singer.age LIMIT 1"),
    ("concert_singer", "SELECT *, age FROM singer ORDER BY 2 DESC"),
    ("concert_singer", "SELECT sum(age) / 2.0 FROM singer"),
    ("concert_singer", "SELECT *, age AS a FROM singer ORDER BY a DESC LIMIT 2"),
    ("concert_singer", "SELECT name AS n FROM singer UNION SELECT name FROM stadium "
                       "ORDER BY n DESC LIMIT 2"),
    ("concert_singer", "SELECT x FROM (SELECT age AS x FROM singer) ORDER BY x DESC LIMIT 1"),
    ("concert_singer", "SELECT name, 1 FROM singer ORDER BY 2 DESC LIMIT 1"),
    ("concert_singer", "SELECT 2 AS x, name FROM singer ORDER BY x DESC LIMIT 1"),
    ("concert_singer", "SELECT *, 2 AS x FROM singer ORDER BY x DESC LIMIT 1"),
    ("concert_singer", "SELECT 2 AS two, country FROM singer GROUP BY two"),
    ("concert_singer", "SELECT 2 AS two, count(*) FROM singer GROUP BY two"),
    ("concert_singer", "SELECT country, count(*) FROM singer GROUP BY 1"),
    ("concert_singer", "SELECT country AS c, count(*) AS n FROM singer GROUP BY c HAVING n > 1"),
]


def test_printer_and_canonicaliser_preserve_results(loaded):
    queries = generate_corpus(loaded.schemas) + EXTRA_QUERIES + [
        (ex.db_id, ex.gold_sql) for ex in loaded.examples
    ]
    checks = 0
    mismatches = []
    for db_id, sql in queries:
        schema = loaded.schemas[db_id]
        expected = execute(sql, schema)
        assert expected.table is not None, (sql, expected)
        ast = parse(sql, schema)
        for rewrite, text in (("to_sql", to_sql(ast)), ("canonicalize", canonicalize(ast).sql)):
            got = execute(text, schema)
            checks += 1
            if got.table is None or not tables_equivalent(got.table, expected.table).equivalent:
                mismatches.append((rewrite, sql, text, got.error))
    assert mismatches == []
    assert checks == 2 * len(queries) >= 680


def test_keyword_named_tables_and_columns_print_quoted(tmp_path):
    # Every name below is an SQLite keyword; some of them (``index``,
    # ``order``, ``group``, ``values``) SQLite cannot read bare at all.
    path = tmp_path / "keywords.sqlite"
    conn = sqlite3.connect(path)
    conn.execute('CREATE TABLE "order" ("index" INTEGER, "key" TEXT, "group" INTEGER)')
    conn.execute('CREATE TABLE "table" (id INTEGER, "values" INTEGER, action TEXT)')
    conn.executemany('INSERT INTO "order" VALUES (?, ?, ?)',
                     [(1, "a", 1), (2, "b", 1), (3, "c", 2)])
    conn.executemany('INSERT INTO "table" VALUES (?, ?, ?)', [(1, 1, "x"), (2, 3, "y")])
    conn.commit()
    conn.close()
    schema = DatabaseSchema(
        db_id="keywords",
        tables=(
            ("order", (("index", "number"), ("key", "text"), ("group", "number"))),
            ("table", (("id", "number"), ("values", "number"), ("action", "text"))),
        ),
        db_path=path,
    )
    queries = [
        'SELECT "index", "key" FROM "order" WHERE "group" > 1 ORDER BY "index"',
        'SELECT T1."key", T2.action FROM "order" AS T1 JOIN "table" AS T2 '
        'ON T1."index" = T2."values"',
        'SELECT "group", count(*) FROM "order" GROUP BY "group" ORDER BY "group" DESC',
        'SELECT "key" AS "values" FROM "order" AS "row" ORDER BY "values" LIMIT 2',
        'SELECT action FROM "table" WHERE "values" IN (SELECT "index" FROM "order")',
    ]
    assert KEYWORDS <= SQLITE_KEYWORDS
    for sql in queries:
        expected = execute(sql, schema)
        assert expected.table is not None, (sql, expected)
        ast = parse(sql, schema)
        for text in (to_sql(ast), canonicalize(ast).sql):
            got = execute(text, schema)
            assert got.table is not None, (text, got.error)
            assert tables_equivalent(got.table, expected.table).equivalent, text
