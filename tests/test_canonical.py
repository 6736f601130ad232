from __future__ import annotations

import pytest

from nl2sql.execution import execute, tables_equivalent
from nl2sql.sqlast import canonicalize, diff, parse

from conftest import GROUPED_BY_NAME_SQL
from helpers import alias_permuted_sql, generate_corpus


def test_canonical_aliases_are_positional(schemas):
    canon = canonicalize(parse(GROUPED_BY_NAME_SQL, schemas["student_course"]))
    assert "AS t1" in canon.sql and "AS t2" in canon.sql
    assert "T1" not in canon.sql


def test_alias_and_case_variants_canonicalize_equal(schemas):
    gold = (
        "SELECT T2.name, T2.capacity FROM concert AS T1 "
        "JOIN stadium AS T2 ON T1.stadium_id = T2.stadium_id "
        "WHERE T1.year >= 2014 GROUP BY T2.stadium_id ORDER BY count(*) DESC LIMIT 1"
    )
    bare = (
        "SELECT stadium.name, stadium.capacity FROM concert "
        "JOIN stadium ON concert.stadium_id = stadium.stadium_id "
        "WHERE concert.year >= 2014 GROUP BY stadium.stadium_id "
        "ORDER BY COUNT(*) DESC LIMIT 1"
    )
    schema = schemas["concert_singer"]
    assert canonicalize(parse(gold, schema)) == canonicalize(parse(bare, schema))


def test_canonicalize_is_idempotent_over_corpus(schemas):
    for db_id, sql in generate_corpus(schemas):
        canon = canonicalize(parse(sql, schemas[db_id]))
        again = canonicalize(canon.query)
        assert canon == again, sql


def test_already_canonical_query_unchanged(schemas):
    canon = canonicalize(parse("SELECT name FROM singer", schemas["concert_singer"]))
    assert canonicalize(canon.query) == canon


def test_alias_permutation_preserves_canonical_form(schemas):
    rng_seed = 0
    for db_id, sql in generate_corpus(schemas):
        schema = schemas[db_id]
        original = canonicalize(parse(sql, schema))
        permuted_sql = alias_permuted_sql(sql, schema, seed=rng_seed)
        permuted = canonicalize(parse(permuted_sql, schema))
        assert original == permuted, f"{sql}\n-> {permuted_sql}"
        rng_seed += 1


def test_numeric_literal_spellings_keep_their_type(schemas):
    # 3 and 3.0 canonicalize apart, as 7 / 2 and 7 / 2.0 return apart; the
    # diff still compares predicate literals by value.
    schema = schemas["concert_singer"]
    a = canonicalize(parse("SELECT name FROM stadium WHERE capacity > 3", schema))
    b = canonicalize(parse("SELECT name FROM stadium WHERE capacity > 3.0", schema))
    assert a != b
    assert b.sql == "SELECT t1.name FROM stadium AS t1 WHERE t1.capacity > 3.0"
    assert not diff(a, b)


def test_nested_signs_fold_into_one_literal(schemas):
    schema = schemas["concert_singer"]
    plain = canonicalize(parse("SELECT name FROM singer WHERE age > 30", schema))
    for sql in (
        "SELECT name FROM singer WHERE age > - -30",
        "SELECT name FROM singer WHERE age > + +30",
    ):
        canon = canonicalize(parse(sql, schema))
        assert canon == plain, sql
        assert not diff(canon, plain), sql
    as_float = canonicalize(parse("SELECT name FROM singer WHERE age > - - - -30.0", schema))
    assert as_float.sql == "SELECT t1.name FROM singer AS t1 WHERE t1.age > 30.0"
    assert not diff(as_float, plain)
    negative = canonicalize(parse("SELECT name FROM singer WHERE age > - - -30", schema))
    assert negative.sql == "SELECT t1.name FROM singer AS t1 WHERE t1.age > -30"


def test_positional_order_key_after_a_star_is_kept(schemas):
    schema = schemas["concert_singer"]
    named = canonicalize(parse("SELECT name, age FROM singer ORDER BY 2 DESC", schema))
    assert named.sql.endswith("ORDER BY t1.age DESC")
    for sql in ("SELECT *, age FROM singer ORDER BY 2 DESC",
                "SELECT name, * FROM singer ORDER BY 2 DESC"):
        assert canonicalize(parse(sql, schema)).sql.endswith("ORDER BY 2 DESC"), sql


def test_positional_order_key_out_of_range_is_kept_as_written(schemas):
    # No select item is at position 0 or 3, so there is nothing to write in.
    schema = schemas["concert_singer"]
    for key in ("0", "3"):
        sql = f"SELECT name, age FROM singer ORDER BY {key}"
        assert canonicalize(parse(sql, schema)).sql.endswith(f"ORDER BY {key}"), sql


def test_signed_positional_order_key_is_substituted(schemas):
    # SQLite reads +2 as position 2; the key folds before it is resolved.
    schema = schemas["concert_singer"]
    signed = canonicalize(parse("SELECT name, age FROM singer ORDER BY +2 DESC", schema))
    named = canonicalize(parse("SELECT name, age FROM singer ORDER BY age DESC", schema))
    assert signed == named
    assert canonicalize(signed.query) == signed


@pytest.mark.parametrize("sql, key", [
    ("SELECT name, 1 FROM singer ORDER BY 2", "2"),
    ("SELECT 2 AS x, name FROM singer ORDER BY x", "1"),
    ("SELECT *, 2 AS x FROM singer ORDER BY x", "NULL"),
])
def test_order_key_naming_an_integer_item_sorts_on_a_constant(schemas, sql, key):
    # The item itself would read as a position; its own position does not
    # exist after a ``*``, and NULL ties every row as the integer does.
    canon = canonicalize(parse(sql, schemas["concert_singer"]))
    assert canon.sql.endswith(f"ORDER BY {key}")
    assert canonicalize(canon.query) == canon


def test_from_subquery_keeps_the_output_names_its_outer_query_reads(schemas):
    schema = schemas["concert_singer"]
    canon = canonicalize(parse("SELECT X FROM (SELECT age AS X FROM singer) ORDER BY X", schema))
    assert canon.sql == (
        "SELECT t1.x FROM (SELECT t2.age AS x FROM singer AS t2) AS t1 ORDER BY t1.x"
    )
    assert canonicalize(canon.query) == canon


def test_literal_moves_right_of_a_comparison_and_the_operator_mirrors(schemas):
    schema = schemas["concert_singer"]

    def where(sql):
        return canonicalize(parse(f"SELECT name FROM singer WHERE {sql}", schema)).sql.split(
            " WHERE "
        )[1]

    for flipped, plain in (
        ("45 < age", "age > 45"),
        ("45 <= age", "age >= 45"),
        ("45 > age", "age < 45"),
        ("45 >= age", "age <= 45"),
        ("45 = age", "age = 45"),
        ("'us' != country", "country != 'us'"),
        ("'us' <> country", "country != 'us'"),
        ("-5 < age", "age > -5"),
        ("- -30 < age", "age > 30"),
        ("40 < age - 5", "age - 5 > 40"),
    ):
        assert where(flipped) == where(plain), flipped
    assert where("45 < age") == "t1.age > 45"
    # Never reordered: LIKE, two literals, two non-literals.
    assert where("'a%' LIKE name") == "'a%' LIKE t1.name"
    assert where("1 < 2") == "1 < 2"
    assert where("age < singer_id") == "t1.age < t1.singer_id"
    assert where("age > singer_id") == "t1.age > t1.singer_id"


def test_string_literals_stay_case_sensitive(schemas):
    schema = schemas["battle_death"]
    a = canonicalize(parse("SELECT name FROM ship WHERE disposition_of_ship = 'Sank'", schema))
    b = canonicalize(parse("SELECT name FROM ship WHERE disposition_of_ship = 'sank'", schema))
    assert a != b


def test_output_alias_dropped_and_order_ref_substituted(schemas):
    schema = schemas["concert_singer"]
    aliased = canonicalize(
        parse("SELECT count(*) AS n FROM singer GROUP BY country ORDER BY n DESC", schema)
    )
    direct = canonicalize(
        parse("SELECT count(*) FROM singer GROUP BY country ORDER BY count(*) DESC", schema)
    )
    assert aliased == direct


def test_positional_order_key_substituted(schemas):
    schema = schemas["concert_singer"]
    positional = canonicalize(parse("SELECT name FROM stadium ORDER BY 1", schema))
    named = canonicalize(parse("SELECT name FROM stadium ORDER BY name", schema))
    assert positional == named


def test_random_alias_renaming_stability(schemas):
    # Many seeds over fixture queries: the canonical form never moves, and
    # the permuted SQL returns the original's table. The second query's
    # compound arm sits in an expression subquery and reads the outer alias.
    queries = [
        ("dog_kennels",
         "SELECT T1.owner_id, T1.last_name FROM Owners AS T1 "
         "JOIN Dogs AS T2 ON T1.owner_id = T2.owner_id "
         "JOIN Treatments AS T3 ON T2.dog_id = T3.dog_id "
         "GROUP BY T1.owner_id ORDER BY count(*) DESC LIMIT 1"),
        ("concert_singer",
         "SELECT S.name FROM singer AS S WHERE S.age IN (SELECT year - 1980 FROM concert "
         "WHERE year > S.age UNION SELECT capacity FROM stadium WHERE capacity > S.age)"),
    ]
    for db_id, sql in queries:
        schema = schemas[db_id]
        reference = canonicalize(parse(sql, schema))
        expected = execute(sql, schema).table
        assert expected is not None and expected.rows, sql
        for seed in range(25):
            variant = alias_permuted_sql(sql, schema, seed=seed)
            assert canonicalize(parse(variant, schema)) == reference, variant
            got = execute(variant, schema)
            assert got.table is not None, (variant, got.error)
            assert tables_equivalent(got.table, expected).equivalent, variant
