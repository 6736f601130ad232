"""Seeded synthetic workloads for the offline run -> score benchmark.

A workload is a Spider-layout dataset directory (``tables.json``,
``dev.json``, ``database/<db_id>/<db_id>.sqlite``), a replay store that
answers every model request the pipeline will make, and an oracle: the
verdict, hardness bucket and, for failures, the triage subtag each example
must get. The seed changes data values, query literals and example order;
the composition (templates, verdict mix, result sizes) is fixed, so the
amount of work a pass does barely moves from seed to seed.

The oracle is fixed here, from how each example is built, and is checked
with plain ``sqlite3`` only (``verify``); nothing in this file asks the
harness what the right answer is. The harness is used only by ``record``,
which runs the pipeline once against scripted replies and stores them for
replay, the way fixture sets are made in practice.

Workloads and why each was chosen:

``replay-mixed``
    1,200 examples over five small databases shaped like the test fixtures
    (at most 400 rows per table). A quarter each is correct first shot,
    corrected by example, corrected by error (an engine error first) and
    failed, the failures spread over the triage categories. Per-call
    overhead dominates: connect, timer thread and path resolution in
    execution, a file read and two digests per model call in the replay
    transport, parse / canonicalize / diff in triage.
``large-results``
    346 examples over one database with two 60,000-row tables. Gold result
    sizes are fixed and run from 1 row to past the 10,000-row cap, so the
    10x retry fires; a minority fail with ORDER BY ... LIMIT over ties, so
    the tie probe re-runs without LIMIT over 12,000 rows. Time goes to
    SQLite, row materialisation and cell normalisation in the comparison;
    per-call overhead is a small share.

There is no two-worker ``run_many`` workload: two workloads fill the time a
full benchmark check is given, and the serial ones cover every layer.
"""

from __future__ import annotations

import json
import random
import re
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from nl2sql.llm import ModelEndpoint, RecordingTransport
from nl2sql.pipeline import run_many

GENERATOR_MODEL = "bench-generator"
CORRECTOR_MODEL = "bench-corrector"

WORKLOADS = ("replay-mixed", "large-results")

CORRECT_FIRST_SHOT = "correct_first_shot"
CORRECTED_BY_EXAMPLE = "corrected_by_example"
CORRECTED_BY_ERROR = "corrected_by_error"
FAILED = "failed"
VERDICTS = (CORRECT_FIRST_SHOT, CORRECTED_BY_EXAMPLE, CORRECTED_BY_ERROR, FAILED)
MIXED_EXAMPLES = 1200

# The triage subtag every unparseable final prediction gets.
PARSE_ERROR = "Unclassifiable.ParseError"


@dataclass(frozen=True)
class Template:
    """One question over one database, with a gold query and two bad replies.

    ``wrong`` executes but returns a different table; ``triage`` is the
    subtag key (``Category`` or ``Category.subtag``) it must be triaged as.
    ``broken`` fails in the engine. Format fields come from ``params``.
    """

    db_id: str
    hardness: str
    triage: str
    question: str
    gold: str
    wrong: str
    broken: str
    params: Callable[[random.Random], dict]


@dataclass(frozen=True)
class Case:
    """One generated example and what the oracle expects of it."""

    id: int
    db_id: str
    question: str
    gold: str
    right: str
    wrong: str
    broken: str
    hardness: str
    verdict: str
    triage: str | None  # expected subtag key when the verdict is FAILED
    replies: tuple[str, str, str]  # zero shot, example correction, error correction


@dataclass(frozen=True)
class Workload:
    dataset_dir: Path
    store_dir: Path
    cases: tuple[Case, ...]


# --------------------------------------------------------------------------- schema entries

def _tables_entry(db_id, tables, pks, fks) -> dict:
    """A tables.json element; ``tables`` is [(name, [(column, type), ...])]."""
    column_names: list[list] = [[-1, "*"]]
    column_types = ["text"]
    index_of: dict[tuple[str, str], int] = {}
    for t_idx, (name, cols) in enumerate(tables):
        for col, typ in cols:
            index_of[(name.lower(), col.lower())] = len(column_names)
            column_names.append([t_idx, col])
            column_types.append(typ)

    def col_index(table: str, column: str) -> int:
        return index_of[(table.lower(), column.lower())]

    return {
        "db_id": db_id,
        "table_names": [name.lower() for name, _ in tables],
        "table_names_original": [name for name, _ in tables],
        "column_names": [[t, c.lower()] for t, c in column_names],
        "column_names_original": column_names,
        "column_types": column_types,
        "primary_keys": [col_index(t, c) for t, c in pks],
        "foreign_keys": [[col_index(*src), col_index(*dst)] for src, dst in fks],
    }


def _create(path: Path, ddl: str, rows: dict[str, list[tuple]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path)
    try:
        conn.execute("PRAGMA journal_mode = OFF")
        conn.executescript(ddl)
        for table, values in rows.items():
            marks = ", ".join("?" * len(values[0]))
            conn.executemany(f"INSERT INTO {table} VALUES ({marks})", values)
        conn.commit()
    finally:
        conn.close()


_WORDS = (
    "amber basil cedar delta ember fjord garnet harbor iris juniper kelp lumen maple "
    "nectar onyx pepper quartz raven sable tundra umber violet willow xenon yarrow zephyr "
    "acorn birch coral dune elm flint grove heath indigo jade kestrel lotus moss north "
    "olive pine quill reed sage thorn"
).split()


def _names(rng: random.Random, n: int) -> list[str]:
    """n distinct two-word names."""
    out: set[str] = set()
    while len(out) < n:
        out.add(f"{rng.choice(_WORDS)} {rng.choice(_WORDS)}")
    return rng.sample(sorted(out), n)


# --------------------------------------------------------------------------- replay-mixed databases
# Each builder plants a few anchor rows so that every template below keeps
# its property (a tie, a ballooning join, a non-empty difference) for any
# seed and any parameter its ``params`` can draw.

def _build_student_course(path: Path, rng: random.Random) -> dict:
    names = sorted({w.capitalize() for w in _WORDS})
    names = rng.sample(names, 30)
    # Courses 1-5 share the top enrolment count and are named in reverse
    # alphabetical order, so grouping by id and grouping by name pick
    # different winners under ORDER BY count(*) DESC LIMIT k (k < 5).
    tied = sorted(names[:5], reverse=True)
    courses = [(i + 1, name) for i, name in enumerate(tied + names[5:])]
    enrol_course = [cid for cid in range(1, 6) for _ in range(20)]
    for cid in range(6, 31):
        enrol_course += [cid] * rng.randint(2, 14)
    rng.shuffle(enrol_course)
    enrolments = [(i + 1, rng.randint(1, 500), cid) for i, cid in enumerate(enrol_course)]
    _create(
        path,
        """
        CREATE TABLE Courses (course_id INTEGER PRIMARY KEY, course_name TEXT);
        CREATE TABLE Student_Enrolment_Courses (
            student_course_id INTEGER PRIMARY KEY, student_enrolment_id INTEGER,
            course_id INTEGER REFERENCES Courses(course_id));
        """,
        {"Courses": courses, "Student_Enrolment_Courses": enrolments},
    )
    return _tables_entry(
        "student_course",
        [
            ("Courses", [("course_id", "number"), ("course_name", "text")]),
            ("Student_Enrolment_Courses", [
                ("student_course_id", "number"), ("student_enrolment_id", "number"),
                ("course_id", "number"),
            ]),
        ],
        pks=[("Courses", "course_id"), ("Student_Enrolment_Courses", "student_course_id")],
        fks=[(("Student_Enrolment_Courses", "course_id"), ("Courses", "course_id"))],
    )


def _build_car_1(path: Path, rng: random.Random) -> dict:
    makers = _names(rng, 20)
    models = [f"{m.split()[0]}-{i}" for i, m in enumerate(_names(rng, 80))]
    car_names = []
    cars = []
    for i in range(1, 401):
        model = rng.choice(models)
        car_names.append((i, model, model.split("-")[0]))
        # Car 400 is the lightest, so the below-average query is never empty.
        weight = 1500 if i == 400 else rng.randint(1600, 5000)
        cars.append((
            i, str(rng.randint(9, 46)), rng.choice((4, 6, 8)), round(rng.uniform(70, 450), 1),
            str(rng.randint(46, 230)), weight, round(rng.uniform(8, 25), 1), rng.randint(1970, 1982),
        ))
    _create(
        path,
        """
        CREATE TABLE continents (ContId INTEGER PRIMARY KEY, Continent TEXT);
        CREATE TABLE countries (CountryId INTEGER PRIMARY KEY, CountryName TEXT, Continent INTEGER);
        CREATE TABLE car_makers (Id INTEGER PRIMARY KEY, Maker TEXT, FullName TEXT, Country TEXT);
        CREATE TABLE model_list (ModelId INTEGER PRIMARY KEY, Maker INTEGER, Model TEXT UNIQUE);
        CREATE TABLE car_names (MakeId INTEGER PRIMARY KEY, Model TEXT, Make TEXT);
        CREATE TABLE cars_data (
            Id INTEGER PRIMARY KEY, MPG TEXT, Cylinders INTEGER, Edispl REAL,
            Horsepower TEXT, Weight INTEGER, Accelerate REAL, Year INTEGER);
        """,
        {
            "continents": [(i, w) for i, w in enumerate(rng.sample(_WORDS, 5), start=1)],
            "countries": [(i, w, rng.randint(1, 5)) for i, w in enumerate(rng.sample(_WORDS, 20), start=1)],
            "car_makers": [(i, m.split()[0], m, str(rng.randint(1, 20))) for i, m in enumerate(makers, start=1)],
            "model_list": [(i, rng.randint(1, 20), m) for i, m in enumerate(models, start=1)],
            "car_names": car_names,
            "cars_data": cars,
        },
    )
    return _tables_entry(
        "car_1",
        [
            ("continents", [("ContId", "number"), ("Continent", "text")]),
            ("countries", [("CountryId", "number"), ("CountryName", "text"), ("Continent", "number")]),
            ("car_makers", [("Id", "number"), ("Maker", "text"), ("FullName", "text"), ("Country", "text")]),
            ("model_list", [("ModelId", "number"), ("Maker", "number"), ("Model", "text")]),
            ("car_names", [("MakeId", "number"), ("Model", "text"), ("Make", "text")]),
            ("cars_data", [
                ("Id", "number"), ("MPG", "text"), ("Cylinders", "number"), ("Edispl", "number"),
                ("Horsepower", "text"), ("Weight", "number"), ("Accelerate", "number"),
                ("Year", "number"),
            ]),
        ],
        pks=[("continents", "ContId"), ("countries", "CountryId"), ("car_makers", "Id"),
             ("model_list", "ModelId"), ("car_names", "MakeId"), ("cars_data", "Id")],
        fks=[
            (("countries", "Continent"), ("continents", "ContId")),
            (("model_list", "Maker"), ("car_makers", "Id")),
            (("car_names", "Model"), ("model_list", "Model")),
            (("cars_data", "Id"), ("car_names", "MakeId")),
        ],
    )


DISPOSITIONS = ("captured", "wrecked", "sank", "scuttled", "damaged")


def _build_battle_death(path: Path, rng: random.Random) -> dict:
    ships = []
    for i in range(1, 201):
        # Ships 101-200 cycle through every disposition, so each one occurs
        # above any lost_in_battle threshold up to 100.
        disp = DISPOSITIONS[i % 5] if i > 100 else rng.choice(DISPOSITIONS)
        ships.append((
            i, i, f"ship {rng.choice(_WORDS)} {i}", str(rng.randint(200, 9000)),
            rng.choice(("battleship", "frigate", "brig", "sloop")),
            rng.choice(("atlantic", "pacific", "baltic", "channel")), disp,
        ))
    _create(
        path,
        """
        CREATE TABLE ship (
            lost_in_battle INTEGER, id INTEGER PRIMARY KEY, name TEXT, tonnage TEXT,
            ship_type TEXT, location TEXT, disposition_of_ship TEXT);
        """,
        {"ship": ships},
    )
    return _tables_entry(
        "battle_death",
        [("ship", [
            ("lost_in_battle", "number"), ("id", "number"), ("name", "text"),
            ("tonnage", "text"), ("ship_type", "text"), ("location", "text"),
            ("disposition_of_ship", "text"),
        ])],
        pks=[("ship", "id")],
        fks=[],
    )


def _build_dog_kennels(path: Path, rng: random.Random) -> dict:
    owner_names = _names(rng, 50)
    owners = [(i, *n.split()) for i, n in enumerate(owner_names, start=1)]
    # Dog 1 belongs to the last owner: every owner_id threshold keeps it.
    dogs = [(i, 50 if i == 1 else rng.randint(1, 50), rng.choice(_WORDS)) for i in range(1, 151)]
    pros = [(i, *n.split()) for i, n in enumerate(_names(rng, 40), start=1)]
    # Only professionals 1-10 treat dogs, so a condition-less join with
    # Treatments returns all 40 where the repaired join returns at most 10.
    treatments = [
        (i, rng.randint(1, 150), rng.randint(1, 10),
         5.0 if i == 1 else round(rng.uniform(10, 500), 2))
        for i in range(1, 401)
    ]
    _create(
        path,
        """
        CREATE TABLE Owners (owner_id INTEGER PRIMARY KEY, first_name TEXT, last_name TEXT);
        CREATE TABLE Dogs (dog_id INTEGER PRIMARY KEY, owner_id INTEGER REFERENCES Owners(owner_id), name TEXT);
        CREATE TABLE Professionals (professional_id INTEGER PRIMARY KEY, first_name TEXT, last_name TEXT);
        CREATE TABLE Treatments (
            treatment_id INTEGER PRIMARY KEY, dog_id INTEGER REFERENCES Dogs(dog_id),
            professional_id INTEGER REFERENCES Professionals(professional_id),
            cost_of_treatment REAL);
        """,
        {"Owners": owners, "Dogs": dogs, "Professionals": pros, "Treatments": treatments},
    )
    return _tables_entry(
        "dog_kennels",
        [
            ("Owners", [("owner_id", "number"), ("first_name", "text"), ("last_name", "text")]),
            ("Dogs", [("dog_id", "number"), ("owner_id", "number"), ("name", "text")]),
            ("Professionals", [("professional_id", "number"), ("first_name", "text"), ("last_name", "text")]),
            ("Treatments", [
                ("treatment_id", "number"), ("dog_id", "number"),
                ("professional_id", "number"), ("cost_of_treatment", "number"),
            ]),
        ],
        pks=[("Owners", "owner_id"), ("Dogs", "dog_id"),
             ("Professionals", "professional_id"), ("Treatments", "treatment_id")],
        fks=[
            (("Dogs", "owner_id"), ("Owners", "owner_id")),
            (("Treatments", "dog_id"), ("Dogs", "dog_id")),
            (("Treatments", "professional_id"), ("Professionals", "professional_id")),
        ],
    )


def _build_concert_singer(path: Path, rng: random.Random) -> dict:
    capacities = rng.sample(range(5000, 95000, 10), 59) + [95000]
    stadiums = [
        (i, rng.choice(("east", "west", "north", "south", "harbor", "hill", "lake", "park")),
         f"{n} arena", cap, cap // 10, cap // 40, cap // 20)
        for i, (n, cap) in enumerate(zip(_names(rng, 60), capacities), start=1)
    ]
    countries = ("fr", "us", "uk", "de", "es", "it", "jp", "br")
    singers = []
    for i, name in enumerate(_names(rng, 200), start=1):
        # Singers 1-60 cover every age from 18 to 77 once; 59 and 60 (the
        # two oldest) share a country, as do 199 and 200 (different ages).
        age = 17 + i if i <= 60 else rng.randint(18, 77)
        country = "fr" if i in (59, 60, 199, 200) else rng.choice(countries)
        if i == 199:
            age = 30
        if i == 200:
            age = 40
        singers.append((i, name, country, age))
    concerts = [
        (i, f"{rng.choice(_WORDS)} fest {i}", rng.choice(("pop", "rock", "folk", "jazz")),
         rng.randint(1, 60), rng.randint(2000, 2020))
        for i in range(1, 301)
    ]
    # Singer 1 plays the last two concerts; singer 200 plays none.
    appearances = [(299, 1), (300, 1)]
    appearances += [(rng.randint(1, 300), rng.randint(2, 199)) for _ in range(398)]
    _create(
        path,
        """
        CREATE TABLE stadium (
            stadium_id INTEGER PRIMARY KEY, location TEXT, name TEXT,
            capacity INTEGER, highest INTEGER, lowest INTEGER, average INTEGER);
        CREATE TABLE singer (singer_id INTEGER PRIMARY KEY, name TEXT, country TEXT, age INTEGER);
        CREATE TABLE concert (
            concert_id INTEGER PRIMARY KEY, concert_name TEXT, theme TEXT,
            stadium_id INTEGER REFERENCES stadium(stadium_id), year INTEGER);
        CREATE TABLE singer_in_concert (
            concert_id INTEGER REFERENCES concert(concert_id),
            singer_id INTEGER REFERENCES singer(singer_id));
        """,
        {"stadium": stadiums, "singer": singers, "concert": concerts,
         "singer_in_concert": appearances},
    )
    return _tables_entry(
        "concert_singer",
        [
            ("stadium", [
                ("stadium_id", "number"), ("location", "text"), ("name", "text"),
                ("capacity", "number"), ("highest", "number"), ("lowest", "number"),
                ("average", "number"),
            ]),
            ("singer", [("singer_id", "number"), ("name", "text"), ("country", "text"), ("age", "number")]),
            ("concert", [
                ("concert_id", "number"), ("concert_name", "text"), ("theme", "text"),
                ("stadium_id", "number"), ("year", "number"),
            ]),
            ("singer_in_concert", [("concert_id", "number"), ("singer_id", "number")]),
        ],
        pks=[("stadium", "stadium_id"), ("singer", "singer_id"), ("concert", "concert_id")],
        fks=[
            (("concert", "stadium_id"), ("stadium", "stadium_id")),
            (("singer_in_concert", "concert_id"), ("concert", "concert_id")),
            (("singer_in_concert", "singer_id"), ("singer", "singer_id")),
        ],
    )


_MIXED_BUILDERS = {
    "student_course": _build_student_course,
    "car_1": _build_car_1,
    "battle_death": _build_battle_death,
    "dog_kennels": _build_dog_kennels,
    "concert_singer": _build_concert_singer,
}


def _other_disposition(rng: random.Random) -> dict:
    d, w = rng.sample(DISPOSITIONS, 2)
    return {"d": d, "w": w, "p": rng.randint(0, 100)}


_GROUPED_BY_NAME = (
    "SELECT T1.course_name FROM Courses AS T1 "
    "JOIN Student_Enrolment_Courses AS T2 ON T1.course_id = T2.course_id "
    "GROUP BY T1.course_name ORDER BY count(*) DESC LIMIT {k}"
)
_GROUPED_BY_ID = (
    "SELECT courses.course_name FROM student_enrolment_courses "
    "JOIN courses ON student_enrolment_courses.course_id = courses.course_id "
    "GROUP BY student_enrolment_courses.course_id "
    "ORDER BY COUNT(student_enrolment_courses.student_course_id) DESC LIMIT {k}"
)
_SINGER_JOIN = (
    "SELECT T2.name FROM singer_in_concert AS T1 "
    "JOIN singer AS T2 ON T1.singer_id = T2.singer_id WHERE T1.{col} > {p}"
)
_BELOW_AVERAGE = (
    "SELECT T1.model FROM CAR_NAMES AS T1 JOIN CARS_DATA AS T2 ON T1.MakeId = T2.Id "
    "WHERE T2.{col} < (SELECT avg(Weight) FROM CARS_DATA) AND T2.Id > {p}"
)

MIXED_TEMPLATES = (
    Template(
        "concert_singer", "easy", "PredictedValues",
        "How many singers are older than {p}?",
        "SELECT count(*) FROM singer WHERE age > {p}",
        "SELECT count(*) FROM singer WHERE age > {w}",
        "SELECT count(*) FROM singer WHERE ages > {p}",
        lambda r: (lambda p: {"p": p, "w": p + 3})(r.randint(20, 60)),
    ),
    Template(
        "concert_singer", "easy", "SelectColumns.WrongColumn",
        "Name the stadiums holding more than {p} people.",
        "SELECT name FROM stadium WHERE capacity > {p}",
        "SELECT location FROM stadium WHERE capacity > {p}",
        "SELECT name FROM stadiums WHERE capacity > {p}",
        lambda r: {"p": r.randint(10000, 80000)},
    ),
    Template(
        "concert_singer", "medium", "GroupBy",
        "How many singers older than {p} come from each country?",
        "SELECT country, count(*) FROM singer WHERE age > {p} GROUP BY country",
        "SELECT country, count(*) FROM singer WHERE age > {p} GROUP BY name",
        "SELECT country, count(*) FROM singer WHERE age > {p} GROUP BY nation",
        lambda r: {"p": r.randint(20, 60)},
    ),
    Template(
        "concert_singer", "medium", "QueryStructure.ShapeDivergence",
        "List the singers of every appearance in a concert numbered above {p}.",
        _SINGER_JOIN.format(col="concert_id", p="{p}"),
        "SELECT name FROM singer WHERE singer_id IN "
        "(SELECT singer_id FROM singer_in_concert WHERE concert_id > {p})",
        _SINGER_JOIN.format(col="concert", p="{p}"),
        lambda r: {"p": r.randint(0, 250)},
    ),
    Template(
        "concert_singer", "medium", "AggregateChoice.select",
        "What is the oldest age per country among singers numbered above {p}?",
        "SELECT country, max(age) FROM singer WHERE singer_id > {p} GROUP BY country",
        "SELECT country, min(age) FROM singer WHERE singer_id > {p} GROUP BY country",
        "SELECT country, max(age) FROM singer WHERE singer_id > {p} GROUP BY countries",
        lambda r: {"p": r.randint(0, 150)},
    ),
    Template(
        "concert_singer", "medium", "SelectColumns.WrongColumn",
        "Show the name and capacity of the {k} largest stadiums.",
        "SELECT name, capacity FROM stadium ORDER BY capacity DESC LIMIT {k}",
        "SELECT location, capacity FROM stadium ORDER BY capacity DESC LIMIT {k}",
        "SELECT name, capacity FROM stadium ORDER BY size DESC LIMIT {k}",
        lambda r: {"k": r.randint(1, 12)},
    ),
    Template(
        "concert_singer", "hard", "QueryStructure.ClauseShape",
        "Which singers never appeared in a concert numbered above {p}?",
        "SELECT name FROM singer WHERE singer_id NOT IN "
        "(SELECT singer_id FROM singer_in_concert WHERE concert_id > {p})",
        "SELECT name FROM singer WHERE singer_id IN "
        "(SELECT singer_id FROM singer_in_concert WHERE concert_id > {p})",
        "SELECT name FROM singer WHERE singer_id NOT IN "
        "(SELECT singer FROM singer_in_concert WHERE concert_id > {p})",
        lambda r: {"p": r.randint(0, 250)},
    ),
    Template(
        "student_course", "extra", "DatasetInconsistency.TieAmbiguity",
        "What are the names of the {k} courses with the most students enrolled?",
        _GROUPED_BY_NAME,
        _GROUPED_BY_ID,
        _GROUPED_BY_NAME.replace("T1.course_name FROM", "T1.course_title FROM"),
        lambda r: {"k": r.randint(1, 4)},
    ),
    Template(
        "student_course", "easy", "PredictedValues",
        "How many students are enrolled in course {p}?",
        "SELECT count(*) FROM Student_Enrolment_Courses WHERE course_id = {p}",
        "SELECT count(*) FROM Student_Enrolment_Courses WHERE course_id = {w}",
        "SELECT count(*) FROM Student_Enrolments WHERE course_id = {p}",
        lambda r: {"p": r.randint(6, 30), "w": r.randint(1, 5)},
    ),
    Template(
        "car_1", "extra", "JoinClauses.Extra",
        "Which models numbered above {p} weigh less than the average car?",
        _BELOW_AVERAGE.format(col="Weight", p="{p}"),
        "SELECT DISTINCT model_list.model FROM model_list "
        "JOIN car_names ON model_list.modelid = car_names.model "
        "JOIN cars_data ON car_names.makeid = cars_data.id "
        "WHERE cars_data.weight < (SELECT AVG(weight) FROM cars_data) AND cars_data.id > {p}",
        _BELOW_AVERAGE.format(col="Wieght", p="{p}"),
        lambda r: {"p": r.randint(0, 300)},
    ),
    Template(
        "car_1", "easy", "AggregateChoice.select",
        "What is the heaviest weight among cars numbered above {p}?",
        "SELECT max(Weight) FROM cars_data WHERE Id > {p}",
        "SELECT min(Weight) FROM cars_data WHERE Id > {p}",
        "SELECT max(Weight) FROM car_data WHERE Id > {p}",
        lambda r: {"p": r.randint(0, 350)},
    ),
    Template(
        "car_1", "medium", "SelectColumns.WrongOrder",
        "Give the horsepower and weight of cars numbered below {p}.",
        "SELECT Horsepower, Weight FROM cars_data WHERE Id < {p}",
        "SELECT Weight, Horsepower FROM cars_data WHERE Id < {p}",
        "SELECT Horsepower, Weight FROM cars_data WHERE Idx < {p}",
        lambda r: {"p": r.randint(2, 400)},
    ),
    Template(
        "battle_death", "medium", "PredictedValues",
        "Name the ships numbered above {p} whose disposition is {d}.",
        "SELECT name FROM ship WHERE disposition_of_ship = '{d}' AND lost_in_battle > {p}",
        "SELECT name FROM ship WHERE disposition_of_ship = '{w}' AND lost_in_battle > {p}",
        "SELECT name FROM ship WHERE disposition = '{d}' AND lost_in_battle > {p}",
        _other_disposition,
    ),
    Template(
        "dog_kennels", "medium", "DatasetInconsistency.SuspectGold",
        "Which professionals have done a treatment cheaper than {p}?",
        "SELECT DISTINCT first_name, last_name FROM Professionals JOIN Treatments "
        "WHERE cost_of_treatment < {p}",
        "SELECT DISTINCT T1.first_name, T1.last_name FROM Professionals AS T1 "
        "JOIN Treatments AS T2 ON T1.professional_id = T2.professional_id "
        "WHERE T2.cost_of_treatment < {p}",
        "SELECT DISTINCT first_name, last_name FROM Professionals JOIN Treatments "
        "WHERE treatment_cost < {p}",
        lambda r: {"p": r.randint(10, 400)},
    ),
    Template(
        "dog_kennels", "easy", "QueryStructure.ClauseShape",
        "What are the names of dogs whose owner is numbered above {p}?",
        "SELECT name FROM Dogs WHERE owner_id > {p}",
        "SELECT name FROM Dogs WHERE owner_id > {p} AND dog_id > {q}",
        "SELECT name FROM Dog WHERE owner_id > {p}",
        lambda r: {"p": r.randint(0, 40), "q": r.randint(10, 140)},
    ),
)


# --------------------------------------------------------------------------- large-results database

LARGE_ROWS = 60_000
TIE_SCAN_ROWS = 12_000


def _build_telemetry(path: Path, rng: random.Random) -> dict:
    tags = rng.sample(_WORDS, 20)
    readings = [
        (i, rng.randint(1, 600), rng.randint(0, 9), rng.uniform(0, 1000), rng.choice(tags))
        for i in range(1, LARGE_ROWS + 1)
    ]
    events = [
        (i, rng.randint(1, LARGE_ROWS), rng.randint(100, 999), rng.choice(tags))
        for i in range(1, LARGE_ROWS + 1)
    ]
    _create(
        path,
        """
        CREATE TABLE readings (
            reading_id INTEGER PRIMARY KEY, sensor_id INTEGER, level INTEGER,
            value REAL, tag TEXT);
        CREATE TABLE events (
            event_id INTEGER PRIMARY KEY, reading_id INTEGER REFERENCES readings(reading_id),
            code INTEGER, note TEXT);
        """,
        {"readings": readings, "events": events},
    )
    return _tables_entry(
        "telemetry",
        [
            ("readings", [
                ("reading_id", "number"), ("sensor_id", "number"), ("level", "number"),
                ("value", "number"), ("tag", "text"),
            ]),
            ("events", [
                ("event_id", "number"), ("reading_id", "number"), ("code", "number"),
                ("note", "text"),
            ]),
        ],
        pks=[("readings", "reading_id"), ("events", "event_id")],
        fks=[(("events", "reading_id"), ("readings", "reading_id"))],
    )


def _no_params(_rng: random.Random) -> dict:
    return {}


# Result size n is set per example, not drawn: see LARGE_SIZES.
LARGE_TEMPLATES = (
    Template(
        "telemetry", "medium", "SelectColumns.WrongColumn",
        "List the id and value of the first {n} readings.",
        "SELECT reading_id, value FROM readings WHERE reading_id <= {n}",
        "SELECT sensor_id, value FROM readings WHERE reading_id <= {n}",
        "SELECT reading_id, val FROM readings WHERE reading_id <= {n}",
        _no_params,
    ),
    Template(
        "telemetry", "medium", "SelectColumns.WrongColumn",
        "List the value and tag of the last {n} readings.",
        "SELECT value, tag FROM readings WHERE reading_id > {start}",
        "SELECT value, level FROM readings WHERE reading_id > {start}",
        "SELECT value, tags FROM readings WHERE reading_id > {start}",
        _no_params,
    ),
    Template(
        "telemetry", "medium", "SelectColumns.WrongColumn",
        "Give the code and reading value of the first {n} events.",
        "SELECT T1.code, T2.value FROM events AS T1 JOIN readings AS T2 "
        "ON T1.reading_id = T2.reading_id WHERE T1.event_id <= {n}",
        "SELECT T1.note, T2.value FROM events AS T1 JOIN readings AS T2 "
        "ON T1.reading_id = T2.reading_id WHERE T1.event_id <= {n}",
        "SELECT T1.code, T2.value FROM events AS T1 JOIN readings AS T2 "
        "ON T1.reading = T2.reading_id WHERE T1.event_id <= {n}",
        _no_params,
    ),
    Template(
        "telemetry", "medium", "SelectColumns.WrongColumn",
        "Rank the first {n} readings by value, highest first.",
        "SELECT reading_id, value FROM readings WHERE reading_id <= {n} ORDER BY value DESC",
        "SELECT sensor_id, value FROM readings WHERE reading_id <= {n} ORDER BY value DESC",
        "SELECT reading_id, value FROM readings WHERE reading_id <= {n} ORDER BY val DESC",
        _no_params,
    ),
)

LARGE_TIE = Template(
    "telemetry", "hard", "DatasetInconsistency.TieAmbiguity",
    "Which {k} of the first {n} readings have the highest level?",
    "SELECT reading_id, value FROM readings WHERE reading_id <= {n} ORDER BY level DESC LIMIT {k}",
    "SELECT reading_id, value FROM readings WHERE reading_id <= {n} "
    "ORDER BY level DESC, reading_id DESC LIMIT {k}",
    "SELECT reading_id, value FROM readings WHERE reading_id <= {n} ORDER BY lvl DESC LIMIT {k}",
    lambda r: {"k": r.randint(5, 60), "n": TIE_SCAN_ROWS},
)

# Distinct correct-first-shot result sizes: 322 rising geometrically from 1
# to about 2,300 rows, and 12 past the 10,000-row cap that trip the 10x
# re-execution. With the tie failures that makes 346 examples, enough for
# 17 of them to lie beyond the p95 of example latency.
LARGE_SIZES = tuple(i + round(2000 ** (i / 321)) for i in range(322)) + tuple(
    range(10_001, 13_001, 250)
)
LARGE_TIE_FAILURES = 12


# --------------------------------------------------------------------------- cases

_KEYWORDS = re.compile(
    r"\b(SELECT|FROM|WHERE|JOIN|ON|AS|AND|GROUP BY|ORDER BY|LIMIT|DESC|DISTINCT|IN|NOT)\b"
)


def _right_variant(gold: str) -> str:
    """The gold query with its keywords lower-cased: textually different,
    same statement. Template literals never contain upper-case keywords."""
    return _KEYWORDS.sub(lambda m: m.group(0).lower(), gold)


def _reply(sql: str, style: int) -> str:
    """Wrap SQL the way chat models do, so extraction has work to do."""
    if style == 0:
        return sql
    if style == 1:
        return f"```sql\n{sql}\n```"
    if style == 2:
        return f"Here is the query:\n```sql\n{sql}\n```\nIt answers the question as asked."
    return f"{sql};\n\nThis query answers the question."


def _case(idx: int, t: Template, fields: dict, verdict: str, broken_kind: bool,
          rng: random.Random) -> Case:
    gold = t.gold.format(**fields)
    right = _right_variant(gold)
    wrong = t.wrong.format(**fields)
    broken = t.broken.format(**fields)
    if verdict == CORRECT_FIRST_SHOT:
        plan = (right, right, right)
    elif verdict == CORRECTED_BY_EXAMPLE:
        plan = (wrong, right, right)
    elif verdict == CORRECTED_BY_ERROR:
        plan = (broken, broken, right)
    elif broken_kind:
        plan = (broken, broken, broken)
    else:
        plan = (wrong, wrong, wrong)
    triage = None
    if verdict == FAILED:
        triage = PARSE_ERROR if broken_kind else t.triage
    return Case(
        id=idx,
        db_id=t.db_id,
        question=f"[q{idx:05d}] " + t.question.format(**fields),
        gold=gold,
        right=right,
        wrong=wrong,
        broken=broken,
        hardness=t.hardness,
        verdict=verdict,
        triage=triage,
        replies=tuple(_reply(sql, rng.randrange(4)) for sql in plan),
    )


def _mixed_cases(rng: random.Random) -> list[Case]:
    per_verdict = MIXED_EXAMPLES // len(VERDICTS)
    slots = []
    for verdict in (CORRECT_FIRST_SHOT, CORRECTED_BY_EXAMPLE, CORRECTED_BY_ERROR):
        slots += [(verdict, MIXED_TEMPLATES[i % len(MIXED_TEMPLATES)], False)
                  for i in range(per_verdict)]
    # Failures cycle through every template's wrong reply plus one kind whose
    # replies never execute (triaged as a parse error).
    kinds = len(MIXED_TEMPLATES) + 1
    slots += [(FAILED, MIXED_TEMPLATES[i % len(MIXED_TEMPLATES)], i % kinds == kinds - 1)
              for i in range(per_verdict)]
    rng.shuffle(slots)
    return [_case(i, t, t.params(rng), v, b, rng) for i, (v, t, b) in enumerate(slots)]


def _large_cases(rng: random.Random) -> list[Case]:
    slots = [(CORRECT_FIRST_SHOT, LARGE_TEMPLATES[i % len(LARGE_TEMPLATES)],
              {"n": n, "start": LARGE_ROWS - n})
             for i, n in enumerate(LARGE_SIZES)]
    slots += [(FAILED, LARGE_TIE, LARGE_TIE.params(rng)) for _ in range(LARGE_TIE_FAILURES)]
    rng.shuffle(slots)
    return [_case(i, t, f, v, False, rng) for i, (v, t, f) in enumerate(slots)]


def generate(name: str, seed: int, root: Path) -> Workload:
    """Write the databases, tables.json and dev.json under ``root``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    dataset_dir = root / "dataset"
    if name == "large-results":
        builders = {"telemetry": _build_telemetry}
        cases = _large_cases(rng)
    else:
        builders = _MIXED_BUILDERS
        cases = _mixed_cases(rng)
    entries = [
        build(dataset_dir / "database" / db_id / f"{db_id}.sqlite", rng)
        for db_id, build in builders.items()
    ]
    (dataset_dir / "tables.json").write_text(json.dumps(entries), encoding="utf-8")
    dev = [{"db_id": c.db_id, "question": c.question, "query": c.gold} for c in cases]
    (dataset_dir / "dev.json").write_text(json.dumps(dev), encoding="utf-8")
    return Workload(dataset_dir, root / "replay", tuple(cases))


# --------------------------------------------------------------------------- replay store

_TAG = re.compile(r"\[q(\d{5})\]")


class ScriptedTransport:
    """Answers each request from the case plan: the example is found by the
    tag in its question, the stage by model name and conversation length."""

    def __init__(self, cases: tuple[Case, ...]):
        self.cases = cases

    def send(self, request: dict) -> dict:
        messages = request["messages"]
        match = next(
            m for m in (_TAG.search(msg["content"]) for msg in messages) if m is not None
        )
        case = self.cases[int(match.group(1))]
        if request["model"] == CORRECTOR_MODEL:
            text = case.replies[2]
        elif len(messages) <= 2:
            text = case.replies[0]
        else:
            text = case.replies[1]
        return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def endpoints(transport):
    """Generator and corrector endpoints over one transport."""
    return (
        ModelEndpoint(role="generator", transport=transport, model_name=GENERATOR_MODEL),
        ModelEndpoint(role="corrector", transport=transport, model_name=CORRECTOR_MODEL),
    )


def record(workload: Workload, examples, schemas, config) -> list[bytes]:
    """Run the pipeline once against scripted replies, storing every reply
    in the replay store; returns the transcript lines of that run."""
    transport = RecordingTransport(ScriptedTransport(workload.cases), workload.store_dir)
    generator, corrector = endpoints(transport)
    transcripts = run_many(examples, schemas, config, generator, corrector, workers=1)
    return transcript_lines(transcripts)


def transcript_lines(transcripts) -> list[bytes]:
    """One JSONL line per transcript, in the bytes a transcript file holds."""
    return [
        (json.dumps(t.to_json(), ensure_ascii=False) + "\n").encode("utf-8")
        for t in transcripts
    ]


# --------------------------------------------------------------------------- oracle

def _rows(conn: sqlite3.Connection, sql: str) -> list[tuple]:
    return conn.execute(sql).fetchall()


def verify(workload: Workload) -> list[str]:
    """Check the generated cases with plain sqlite3; returns the problems.

    Gold and the right reply must return the same rows in the same order;
    the wrong reply must differ from gold as a sorted multiset of rows; the
    broken reply must fail in the engine.
    """
    problems = []
    conns: dict[str, sqlite3.Connection] = {}
    try:
        for case in workload.cases:
            conn = conns.get(case.db_id)
            if conn is None:
                path = workload.dataset_dir / "database" / case.db_id / f"{case.db_id}.sqlite"
                conn = conns[case.db_id] = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
            gold = _rows(conn, case.gold)
            if _rows(conn, case.right) != gold:
                problems.append(f"case {case.id}: right reply differs from gold")
            if sorted(map(repr, _rows(conn, case.wrong))) == sorted(map(repr, gold)):
                problems.append(f"case {case.id}: wrong reply matches gold")
            try:
                _rows(conn, case.broken)
            except sqlite3.Error:
                pass
            else:
                problems.append(f"case {case.id}: broken reply executes")
    finally:
        for conn in conns.values():
            conn.close()
    return problems


def expected_report(cases: tuple[Case, ...]) -> dict:
    """The counts the score report must show for these cases."""
    verdicts: dict[str, int] = {}
    buckets: dict[str, dict[str, int]] = {}
    subtags: dict[str, int] = {}
    categories: dict[str, int] = {}
    for case in cases:
        verdicts[case.verdict] = verdicts.get(case.verdict, 0) + 1
        bucket = buckets.setdefault(case.hardness, {"count": 0, "correct": 0})
        bucket["count"] += 1
        bucket["correct"] += case.verdict != FAILED
        if case.triage is not None:
            subtags[case.triage] = subtags.get(case.triage, 0) + 1
            category = case.triage.split(".")[0]
            categories[category] = categories.get(category, 0) + 1
    return {"verdicts": verdicts, "buckets": buckets, "subtags": subtags,
            "categories": categories}
