from __future__ import annotations

import pytest

from nl2sql.hardness import Hardness, classify_hardness
from nl2sql.sqlast import parse

from conftest import GROUPED_BY_ID_SQL, GROUPED_BY_NAME_SQL
from helpers import alias_permuted_sql

# Buckets computed by hand from the component-counting decision table
# (docs/hardness.md): comp1, comp2, others noted per case.
HAND_SCORED = [
    # comp1=0, comp2=0, others=0
    ("concert_singer", "SELECT name FROM singer", Hardness.EASY),
    # WHERE -> comp1=1
    ("concert_singer", "SELECT name FROM singer WHERE age > 30", Hardness.EASY),
    # two select items -> others=1
    ("concert_singer", "SELECT name, age FROM singer", Hardness.MEDIUM),
    # two WHERE conjuncts -> comp1=1, others=1
    ("concert_singer", "SELECT name FROM singer WHERE age > 30 AND country = 'us'", Hardness.MEDIUM),
    # OR adds a comp1 point on top of WHERE: comp1=2, others=1
    ("concert_singer", "SELECT name FROM singer WHERE age > 30 OR country = 'us'", Hardness.MEDIUM),
    # ORDER BY + LIMIT -> comp1=2
    ("concert_singer", "SELECT name FROM stadium ORDER BY capacity DESC LIMIT 1", Hardness.MEDIUM),
    # join -> comp1=1
    (
        "concert_singer",
        "SELECT T2.name FROM singer_in_concert AS T1 JOIN singer AS T2 ON T1.singer_id = T2.singer_id",
        Hardness.EASY,
    ),
    # join + where + group by -> comp1=3, others=0
    (
        "concert_singer",
        "SELECT T2.name FROM concert AS T1 JOIN stadium AS T2 ON T1.stadium_id = T2.stadium_id "
        "WHERE T1.year = 2014 GROUP BY T2.stadium_id",
        Hardness.HARD,
    ),
    # scalar subquery -> comp1=1, comp2=1
    (
        "concert_singer",
        "SELECT name FROM stadium WHERE capacity > (SELECT avg(capacity) FROM stadium)",
        Hardness.HARD,
    ),
    # subquery + extra select item -> others=1 pushes past hard's gate
    (
        "concert_singer",
        "SELECT name, capacity FROM stadium WHERE capacity > (SELECT avg(capacity) FROM stadium)",
        Hardness.EXTRA,
    ),
    # set operation -> comp2=1
    ("concert_singer", "SELECT name FROM singer UNION SELECT name FROM stadium", Hardness.HARD),
    # an ORDER BY key that is arithmetic on two aggregates scores both:
    # comp1=1, others=1 (agg score 2); ORDER BY max(age) alone is easy
    ("concert_singer", "SELECT name FROM singer ORDER BY max(age) - min(age)", Hardness.MEDIUM),
    # two GROUP BY keys -> comp1=1, others=1; one key is easy
    ("concert_singer", "SELECT name FROM singer GROUP BY name, country", Hardness.MEDIUM),
    # two aggregates in select -> others=1 (agg score 2)
    ("concert_singer", "SELECT max(capacity), min(capacity) FROM stadium", Hardness.MEDIUM),
    # NOT IN subquery: comp1=1 (WHERE), comp2=1; the NOT quirk scores one
    # aggregate point, which is not enough to move `others` off zero
    (
        "concert_singer",
        "SELECT name FROM singer WHERE singer_id NOT IN (SELECT singer_id FROM singer_in_concert)",
        Hardness.HARD,
    ),
]


@pytest.mark.parametrize("db_id,sql,expected", HAND_SCORED)
def test_hand_scored_buckets(db_id, sql, expected, schemas):
    assert classify_hardness(parse(sql, schemas[db_id])) is expected, sql


def test_having_connectives_feed_the_aggregate_score(schemas):
    schema = schemas["concert_singer"]
    # one HAVING predicate: aggregate score 1, others stays 0 -> easy
    one = "SELECT country FROM singer GROUP BY country HAVING count(*) > 1"
    assert classify_hardness(parse(one, schema)) is Hardness.EASY
    # two HAVING predicates: one connective point, still agg score 1 -> easy;
    # three predicates: two connectives push agg past 1 -> others 1 -> medium
    two = one + " AND count(*) < 5"
    assert classify_hardness(parse(two, schema)) is Hardness.EASY
    three = two + " AND count(*) != 3"
    assert classify_hardness(parse(three, schema)) is Hardness.MEDIUM


def test_negated_where_predicates_feed_the_aggregate_score(schemas):
    schema = schemas["concert_singer"]
    # two negated predicates: aggregate quirk scores 2 -> others gains the
    # aggregate point on top of the two-conjunct point
    sql = (
        "SELECT name FROM singer WHERE name NOT LIKE 'a%' "
        "AND country NOT IN ('us', 'fr')"
    )
    # comp1 = where(1) + like(1) = 2; others = agg(2 -> 1) + conjuncts(1) = 2
    assert classify_hardness(parse(sql, schema)) is Hardness.EXTRA


def test_grouped_queries_are_extra(schemas):
    # join(1) + group(1) + order(1) + limit(1) = comp1 4 -> extra
    schema = schemas["student_course"]
    assert classify_hardness(parse(GROUPED_BY_ID_SQL, schema)) is Hardness.EXTRA
    assert classify_hardness(parse(GROUPED_BY_NAME_SQL, schema)) is Hardness.EXTRA


def test_hardness_is_deterministic(schemas):
    schema = schemas["concert_singer"]
    ast = parse("SELECT name, age FROM singer WHERE age > 30", schema)
    assert classify_hardness(ast) is classify_hardness(ast)


def test_alias_renaming_never_moves_the_bucket(schemas):
    from helpers import generate_corpus

    for seed, (db_id, sql) in enumerate(generate_corpus(schemas)):
        schema = schemas[db_id]
        original = classify_hardness(parse(sql, schema))
        variant = alias_permuted_sql(sql, schema, seed=seed)
        assert classify_hardness(parse(variant, schema)) is original, sql


def test_literal_values_do_not_affect_bucket(schemas):
    schema = schemas["concert_singer"]
    a = classify_hardness(parse("SELECT name FROM singer WHERE age > 30", schema))
    b = classify_hardness(parse("SELECT name FROM singer WHERE age > 99", schema))
    assert a is b


def test_order_direction_does_not_affect_bucket(schemas):
    schema = schemas["concert_singer"]
    a = classify_hardness(parse("SELECT name FROM stadium ORDER BY capacity ASC", schema))
    b = classify_hardness(parse("SELECT name FROM stadium ORDER BY capacity DESC", schema))
    assert a is b


def test_dev_fixture_profile_reconciles(loaded):
    profile = loaded.hardness_profile()
    assert sum(profile.values()) == len(loaded.examples)
