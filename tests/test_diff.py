from __future__ import annotations

import importlib

from nl2sql.sqlast import Literal, canonicalize, diff, parse, scope_conditionless_joins
from nl2sql.sqlast.walk import iter_expr_nodes

from conftest import (
    BELOW_AVERAGE_CARS_SQL,
    CARTESIAN_GOLD_SQL,
    EXTRA_JOIN_CARS_SQL,
    GROUPED_BY_ID_SQL,
    GROUPED_BY_NAME_SQL,
)
from helpers import generate_corpus

# The module, which the package's ``diff`` function shadows.
diff_module = importlib.import_module("nl2sql.sqlast.diff")


def _diff(pred_sql, gold_sql, schema):
    return diff(canonicalize(parse(pred_sql, schema)), canonicalize(parse(gold_sql, schema)))


def test_grouping_difference_is_the_only_delta(schemas):
    d = _diff(GROUPED_BY_ID_SQL, GROUPED_BY_NAME_SQL, schemas["student_course"])
    assert not d.group_by_delta.empty
    assert d.group_by_delta.pred == ("student_enrolment_courses.course_id",)
    assert d.group_by_delta.gold == ("courses.course_name",)
    assert d.select_delta.empty
    assert d.aggregate_delta.empty
    assert d.join_delta.empty
    assert d.literal_delta.empty
    assert not d.structure_delta
    assert not d.clause_delta


def test_extra_join_reported_from_pred_side(schemas):
    d = _diff(EXTRA_JOIN_CARS_SQL, BELOW_AVERAGE_CARS_SQL, schemas["car_1"])
    assert d.join_delta.extra_tables == ("model_list",)
    assert d.join_delta.missing_tables == ()
    assert d.join_delta.extra_conditions == ("car_names.model = model_list.modelid",)


def test_identical_queries_diff_empty(schemas):
    for db_id, sql in generate_corpus(schemas):
        d = _diff(sql, sql, schemas[db_id])
        assert d.empty, sql


def test_alias_only_variants_diff_empty(schemas):
    schema = schemas["concert_singer"]
    a = "SELECT T1.name FROM singer AS T1 WHERE T1.age > 30"
    b = "SELECT singer.name FROM singer WHERE singer.age > 30"
    assert _diff(a, b, schema).empty


def test_literal_only_difference(schemas):
    schema = schemas["battle_death"]
    d = _diff(
        "SELECT count(*) FROM ship WHERE disposition_of_ship = 'lost'",
        "SELECT count(*) FROM ship WHERE disposition_of_ship = 'sank'",
        schema,
    )
    assert d.literal_delta.entries == (
        ("ship.disposition_of_ship = ?", "'lost'", "'sank'"),
    )
    assert d.select_delta.empty and d.join_delta.empty and d.group_by_delta.empty
    assert not d.structure_delta and not d.clause_delta


def test_between_bounds_pair_positionally(schemas):
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT name FROM singer WHERE age BETWEEN 1 AND 10",
        "SELECT name FROM singer WHERE age BETWEEN 1 AND 12",
        schema,
    )
    assert d.literal_delta.entries == (
        ("singer.age BETWEEN ? AND ?", "10", "12"),
    )


def test_in_list_literals_pair_positionally(schemas):
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT name FROM singer WHERE age IN (1, 2)",
        "SELECT name FROM singer WHERE age IN (1, 3)",
        schema,
    )
    assert d.literal_delta.entries == (("singer.age IN (?, ?)", "2", "3"),)


def test_numeric_literonly_compared_by_value(schemas):
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT name FROM stadium WHERE capacity > 3",
        "SELECT name FROM stadium WHERE capacity > 3.0",
        schema,
    )
    assert d.empty


def test_select_reorder_detected(schemas):
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT capacity, name FROM stadium",
        "SELECT name, capacity FROM stadium",
        schema,
    )
    assert d.select_delta.reordered
    assert d.select_delta.missing == () and d.select_delta.extra == ()


def test_wrong_select_column_detected(schemas):
    schema = schemas["concert_singer"]
    d = _diff("SELECT location FROM stadium", "SELECT name FROM stadium", schema)
    assert d.select_delta.extra == ("stadium.location",)
    assert d.select_delta.missing == ("stadium.name",)


def test_aggregate_function_difference_in_order_by(schemas):
    schema = schemas["dog_kennels"]
    pred = (
        "SELECT T1.owner_id, T1.last_name FROM Owners AS T1 "
        "JOIN Dogs AS T2 ON T1.owner_id = T2.owner_id "
        "JOIN Treatments AS T3 ON T2.dog_id = T3.dog_id "
        "GROUP BY T1.owner_id ORDER BY sum(T3.cost_of_treatment) DESC LIMIT 1"
    )
    gold = pred.replace("sum(T3.cost_of_treatment)", "count(*)")
    d = _diff(pred, gold, schema)
    assert d.aggregate_delta.clauses == (("order_by", ("sum",), ("count",)),)
    assert d.select_delta.empty and d.join_delta.empty and d.group_by_delta.empty


def test_count_argument_difference_in_order_by_is_not_a_delta(schemas):
    d = _diff(
        GROUPED_BY_NAME_SQL.replace("count(*)", "count(T2.student_course_id)"),
        GROUPED_BY_NAME_SQL,
        schemas["student_course"],
    )
    assert d.empty


def test_subquery_vs_join_shape_divergence(schemas):
    schema = schemas["concert_singer"]
    pred = (
        "SELECT name FROM singer WHERE singer_id IN "
        "(SELECT singer_id FROM singer_in_concert)"
    )
    gold = (
        "SELECT T2.name FROM singer_in_concert AS T1 "
        "JOIN singer AS T2 ON T1.singer_id = T2.singer_id"
    )
    d = _diff(pred, gold, schema)
    assert "subquery_shape" in d.structure_delta


def test_set_op_mismatch_is_structural(schemas):
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT name FROM singer UNION SELECT name FROM stadium",
        "SELECT name FROM singer",
        schema,
    )
    assert "set_op" in d.structure_delta


def test_where_vs_on_join_condition_styles_agree(schemas):
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT singer.name FROM singer, singer_in_concert "
        "WHERE singer.singer_id = singer_in_concert.singer_id",
        "SELECT T2.name FROM singer_in_concert AS T1 "
        "JOIN singer AS T2 ON T1.singer_id = T2.singer_id",
        schema,
    )
    assert d.empty


def test_self_join_where_vs_on_condition_styles_agree(schemas):
    # Both sources are one table: the WHERE equality still links two of them.
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT T1.name FROM singer AS T1, singer AS T2 "
        "WHERE T1.age = T2.age AND T1.singer_id > 1",
        "SELECT T1.name FROM singer AS T1 JOIN singer AS T2 ON T1.age = T2.age "
        "WHERE T1.singer_id > 1",
        schema,
    )
    assert d.empty
    assert d.summary() == {}


def test_extra_where_condition_is_residual_clause_delta(schemas):
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT name FROM stadium WHERE capacity > 10 AND location = 'East'",
        "SELECT name FROM stadium WHERE capacity > 10",
        schema,
    )
    assert "where" in d.clause_delta
    assert d.literal_delta.empty


def test_limit_difference_is_residual(schemas):
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT name FROM stadium ORDER BY capacity DESC LIMIT 2",
        "SELECT name FROM stadium ORDER BY capacity DESC LIMIT 1",
        schema,
    )
    assert "limit" in d.clause_delta


def test_conditionless_join_flagged_and_recoverable_not(schemas):
    schema = schemas["dog_kennels"]
    flagged = scope_conditionless_joins(parse(CARTESIAN_GOLD_SQL, schema))
    assert [f.table for f in flagged] == ["treatments"]
    # a fully conditioned join is never flagged
    assert scope_conditionless_joins(parse(BELOW_AVERAGE_CARS_SQL, schemas["car_1"])) == []
    with_on = parse(
        "SELECT first_name FROM Professionals AS T1 "
        "JOIN Treatments AS T2 ON T1.professional_id = T2.professional_id",
        schema,
    )
    assert scope_conditionless_joins(with_on) == []
    implicit = parse(
        "SELECT first_name FROM Professionals, Treatments "
        "WHERE Professionals.professional_id = Treatments.professional_id",
        schema,
    )
    assert scope_conditionless_joins(implicit) == []
    single = parse("SELECT first_name FROM Professionals", schema)
    assert scope_conditionless_joins(single) == []
    # a nested scope's join is its own scope's flag, not this one's
    nested = parse(f"SELECT count(*) FROM ({CARTESIAN_GOLD_SQL})", schema)
    assert scope_conditionless_joins(nested) == []
    assert [f.table for f in scope_conditionless_joins(nested.from_items[0].source.query)] == [
        "treatments"
    ]


def test_conditionless_flags_surface_in_join_delta(schemas):
    schema = schemas["dog_kennels"]
    repaired = (
        "SELECT DISTINCT first_name, last_name FROM Professionals AS T1 "
        "JOIN Treatments AS T2 ON T1.professional_id = T2.professional_id "
        "WHERE cost_of_treatment < (SELECT avg(cost_of_treatment) FROM Treatments)"
    )
    d = _diff(CARTESIAN_GOLD_SQL, repaired, schema)
    assert d.join_delta.pred_conditionless == ("treatments",)
    assert d.join_delta.missing_conditions == (
        "professionals.professional_id = treatments.professional_id",
    )


def test_where_equality_with_an_ambiguous_operand_is_no_join_condition(schemas):
    # ``singer_id`` names a column of both sources, so it binds to neither:
    # the equality links nothing, for the diff as for the condition-less check.
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT T1.name FROM singer AS T1, singer_in_concert AS T2 "
        "WHERE singer_id = T2.concert_id",
        "SELECT T1.name FROM singer AS T1 "
        "JOIN singer_in_concert AS T2 ON T1.singer_id = T2.singer_id",
        schema,
    )
    summary = d.summary()
    assert summary["joins"]["extra_conditions"] == []
    assert summary["clauses"] == ["where"]
    assert summary["joins"]["pred_conditionless"] == ["singer_in_concert"]


def test_summary_of_a_pair_that_differs_in_every_clause_family(schemas):
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT T1.name, count(*) FROM singer AS T1 "
        "JOIN singer_in_concert AS T2 ON T1.singer_id = T2.singer_id "
        "JOIN concert AS T3 ON T2.concert_id = T3.concert_id "
        "WHERE T1.age > 30 GROUP BY T1.name ORDER BY T1.name LIMIT 3",
        "SELECT T1.country, max(T1.age) FROM singer AS T1 "
        "JOIN singer_in_concert AS T2 ON T1.singer_id = T2.singer_id "
        "WHERE T1.age > 40 GROUP BY T1.country HAVING count(*) > 1 LIMIT 5",
        schema,
    )
    assert d.summary() == {
        "select": {
            "missing": ["max(singer.age)", "singer.country"],
            "extra": ["count(*)", "singer.name"],
            "reordered": False,
        },
        "group_by": {"pred": ["singer.name"], "gold": ["singer.country"]},
        "aggregates": [
            {"clause": "select", "pred": ["count"], "gold": ["max"]},
            {"clause": "having", "pred": [], "gold": ["count"]},
        ],
        "joins": {
            "extra_tables": ["concert"],
            "missing_tables": [],
            "extra_conditions": ["concert.concert_id = singer_in_concert.concert_id"],
            "missing_conditions": [],
            "pred_conditionless": [],
            "gold_conditionless": [],
        },
        "literals": [{"shape": "singer.age > ?", "pred": "30", "gold": "40"}],
        "clauses": ["having", "order_by", "limit"],
    }
    assert list(d.summary()) == ["select", "group_by", "aggregates", "joins", "literals", "clauses"]


def test_summary_of_a_compound_pair_merges_both_arms(schemas):
    # Each arm has a wrong column, a wrong literal, an extra WHERE conjunct
    # and an extra subquery. Per-arm entries are concatenated left arm first;
    # structure and clause entries appear once.
    schema = schemas["concert_singer"]
    d = _diff(
        "SELECT location FROM stadium "
        "WHERE capacity > 100 AND stadium_id IN (SELECT stadium_id FROM concert) "
        "UNION SELECT name FROM singer "
        "WHERE age > 30 AND singer_id IN (SELECT singer_id FROM singer_in_concert)",
        "SELECT name FROM stadium WHERE capacity > 200 "
        "UNION SELECT country FROM singer WHERE age > 40",
        schema,
    )
    assert d.summary() == {
        "select": {
            "missing": ["stadium.name", "singer.country"],
            "extra": ["stadium.location", "singer.name"],
            "reordered": False,
        },
        "literals": [
            {"shape": "stadium.capacity > ?", "pred": "100", "gold": "200"},
            {"shape": "singer.age > ?", "pred": "30", "gold": "40"},
        ],
        "structure": ["subquery_shape"],
        "clauses": ["where"],
    }


def test_only_a_pred_side_conditionless_join_shows_the_joins_entry(schemas):
    schema = schemas["concert_singer"]
    conditionless = (
        "SELECT name FROM singer WHERE singer_id IN "
        "(SELECT T1.singer_id FROM singer_in_concert AS T1 JOIN concert AS T2)"
    )
    joined = (
        "SELECT name FROM singer WHERE singer_id IN "
        "(SELECT T1.singer_id FROM singer_in_concert AS T1 "
        "JOIN concert AS T2 ON T1.concert_id = T2.concert_id)"
    )
    d = _diff(conditionless, joined, schema)
    assert d.join_delta.empty
    assert d.summary() == {
        "joins": {
            "extra_tables": [],
            "missing_tables": [],
            "extra_conditions": [],
            "missing_conditions": [],
            "pred_conditionless": ["concert"],
            "gold_conditionless": [],
        },
        "clauses": ["where"],
    }
    # A condition-less join on the gold side alone is not reported.
    assert _diff(joined, conditionless, schema).summary() == {"clauses": ["where"]}


def test_a_conditionless_join_in_a_compound_is_listed_once(schemas):
    schema = schemas["concert_singer"]
    pred = (
        "SELECT singer.name FROM singer, concert "
        "UNION SELECT stadium.name FROM stadium, concert"
    )
    gold = (
        "SELECT singer.name FROM singer JOIN singer_in_concert "
        "ON singer.singer_id = singer_in_concert.singer_id "
        "UNION SELECT stadium.name FROM stadium JOIN concert "
        "ON stadium.stadium_id = concert.stadium_id"
    )
    # One flag per arm, whether the arms are diffed pairwise or not.
    assert _diff(pred, gold, schema).join_delta.pred_conditionless == ("concert", "concert")
    assert _diff(gold, pred, schema).join_delta.gold_conditionless == ("concert", "concert")
    single_arm_gold = "SELECT singer.name FROM singer"
    assert _diff(pred, single_arm_gold, schema).join_delta.pred_conditionless == (
        "concert", "concert",
    )


def test_a_from_subquery_counts_as_one_table_whatever_comes_before_it(schemas):
    schema = schemas["concert_singer"]
    subquery = "(SELECT singer_id FROM singer_in_concert) AS T2 ON T1.singer_id = T2.singer_id"
    gold = f"SELECT T1.name FROM singer AS T1 JOIN {subquery}"
    preds = [
        f"SELECT T1.name FROM singer AS T1 JOIN {subquery} "
        "JOIN stadium AS T3 ON T3.stadium_id = T1.age",
        "SELECT T1.name FROM stadium AS T3 JOIN singer AS T1 ON T3.stadium_id = T1.age "
        f"JOIN {subquery}",
    ]
    for pred in preds:
        joins = _diff(pred, gold, schema).join_delta
        assert joins.extra_tables == ("stadium",)
        assert joins.missing_tables == ()
        assert _diff(gold, pred, schema).join_delta.missing_tables == ("stadium",)


def _printed_by_diff(monkeypatch, pred_sql, gold_sql, schema):
    """The expressions ``diff`` prints for one pair."""
    printed = []
    original = diff_module.expr_sql

    def recording(expr, names=None):
        printed.append(expr)
        return original(expr, names)

    monkeypatch.setattr(diff_module, "expr_sql", recording)
    _diff(pred_sql, gold_sql, schema)
    monkeypatch.undo()
    return printed


def _masked(expr) -> bool:
    return any(node == Literal(value="?", text="?") for node in iter_expr_nodes(expr))


def test_conjuncts_that_all_match_exactly_are_never_masked(schemas, monkeypatch):
    # Work, not time: masking every conjunct before matching would show here.
    schema = schemas["concert_singer"]
    gold = (
        "SELECT name FROM singer WHERE age > 30 AND country = 'France' "
        "GROUP BY country HAVING count(*) > 1"
    )
    printed = _printed_by_diff(
        monkeypatch,
        "SELECT country FROM singer WHERE country = 'France' AND age > 30 "
        "GROUP BY country HAVING count(*) > 1",
        gold,
        schema,
    )
    assert printed and not any(map(_masked, printed))
    # A conjunct that differs in a literal is masked, on both sides.
    printed = _printed_by_diff(monkeypatch, gold.replace("30", "31"), gold, schema)
    assert sum(map(_masked, printed)) == 2
