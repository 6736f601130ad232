"""Shared fixtures: five small SQLite databases in the Spider directory
layout, plus helpers to assemble dataset directories from them.

The cars database is engineered so the weight-below-average query returns
exactly 230 rows while the mistyped extra-join variant returns none; the
student database has a five-way enrolment tie at the top.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest
from hypothesis import settings

from nl2sql.dataset import LoadedDataset, load_dataset

# Property tests draw the same examples on every run, with no time limit.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


def _tables_entry(db_id: str, tables: list[tuple[str, list[tuple[str, str]]]],
                  pks: list[tuple[str, str]],
                  fks: list[tuple[tuple[str, str], tuple[str, str]]]) -> dict:
    table_names = [name for name, _ in tables]
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
        "table_names": [n.lower() for n in table_names],
        "table_names_original": table_names,
        "column_names": [[t, c.lower() if isinstance(c, str) else c] for t, c in column_names],
        "column_names_original": column_names,
        "column_types": column_types,
        "primary_keys": [col_index(t, c) for t, c in pks],
        "foreign_keys": [[col_index(*src), col_index(*dst)] for src, dst in fks],
    }


# --------------------------------------------------------------------------- database builders

def build_student_db(path: Path) -> dict:
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE Courses (course_id INTEGER PRIMARY KEY, course_name TEXT);
        CREATE TABLE Student_Enrolment_Courses (
            student_course_id INTEGER PRIMARY KEY,
            student_enrolment_id INTEGER,
            course_id INTEGER REFERENCES Courses(course_id)
        );
        """
    )
    names = {1: "Zoology", 2: "Yoga", 3: "Welding", 4: "Violin", 5: "Algebra", 6: "Botany"}
    for cid, name in names.items():
        conn.execute("INSERT INTO Courses VALUES (?, ?)", (cid, name))
    row = 0
    for cid in range(1, 6):  # five-way tie at four enrolments each
        for _ in range(4):
            row += 1
            conn.execute("INSERT INTO Student_Enrolment_Courses VALUES (?, ?, ?)", (row, row, cid))
    for _ in range(2):
        row += 1
        conn.execute("INSERT INTO Student_Enrolment_Courses VALUES (?, ?, ?)", (row, row, 6))
    conn.commit()
    conn.close()
    return _tables_entry(
        "student_course",
        [
            ("Courses", [("course_id", "number"), ("course_name", "text")]),
            ("Student_Enrolment_Courses", [
                ("student_course_id", "number"),
                ("student_enrolment_id", "number"),
                ("course_id", "number"),
            ]),
        ],
        pks=[("Courses", "course_id"), ("Student_Enrolment_Courses", "student_course_id")],
        fks=[(("Student_Enrolment_Courses", "course_id"), ("Courses", "course_id"))],
    )


def build_cars_db(path: Path) -> dict:
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE continents (ContId INTEGER PRIMARY KEY, Continent TEXT);
        CREATE TABLE countries (CountryId INTEGER PRIMARY KEY, CountryName TEXT, Continent INTEGER);
        CREATE TABLE car_makers (Id INTEGER PRIMARY KEY, Maker TEXT, FullName TEXT, Country TEXT);
        CREATE TABLE model_list (ModelId INTEGER PRIMARY KEY, Maker INTEGER, Model TEXT UNIQUE);
        CREATE TABLE car_names (MakeId INTEGER PRIMARY KEY, Model TEXT, Make TEXT);
        CREATE TABLE cars_data (
            Id INTEGER PRIMARY KEY, MPG TEXT, Cylinders INTEGER, Edispl REAL,
            Horsepower TEXT, Weight INTEGER, Accelerate REAL, Year INTEGER
        );
        """
    )
    conn.execute("INSERT INTO continents VALUES (1, 'america')")
    conn.execute("INSERT INTO countries VALUES (1, 'usa', 1)")
    makers = ["amc", "audi", "bmw", "buick", "chevrolet", "citroen", "datsun", "dodge"]
    for i, maker in enumerate(makers, start=1):
        conn.execute("INSERT INTO car_makers VALUES (?, ?, ?, '1')", (i, maker, maker))
    models = [f"{maker} {kind}" for maker in makers for kind in ("alpha", "beta", "gamma", "delta")]
    for i, model in enumerate(models, start=1):
        conn.execute("INSERT INTO model_list VALUES (?, ?, ?)", (i, 1 + (i - 1) % len(makers), model))
    # 406 cars: exactly 230 weigh 1800 (below the mean), 176 weigh 4000.
    for i in range(1, 407):
        weight = 1800 if i <= 230 else 4000
        model = models[(i - 1) % len(models)]
        conn.execute(
            "INSERT INTO car_names VALUES (?, ?, ?)", (i, model, model.split()[0])
        )
        conn.execute(
            "INSERT INTO cars_data VALUES (?, '20', 4, 100.0, '95', ?, 12.0, ?)",
            (i, weight, 1970 + i % 12),
        )
    conn.commit()
    conn.close()
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
                ("Horsepower", "text"), ("Weight", "number"), ("Accelerate", "number"), ("Year", "number"),
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


def build_ships_db(path: Path) -> dict:
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE ship (
            lost_in_battle INTEGER, id INTEGER PRIMARY KEY, name TEXT,
            tonnage TEXT, ship_type TEXT, location TEXT, disposition_of_ship TEXT
        );
        """
    )
    dispositions = ["captured", "wrecked", "sank", "scuttled", "sank", "captured", "sank"]
    for i, disp in enumerate(dispositions, start=1):
        conn.execute(
            "INSERT INTO ship VALUES (?, ?, ?, ?, ?, ?, ?)",
            (i, i, f"ship {i}", "1000", "battleship", "atlantic", disp),
        )
    conn.commit()
    conn.close()
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


def build_dogs_db(path: Path) -> dict:
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE Owners (owner_id INTEGER PRIMARY KEY, first_name TEXT, last_name TEXT);
        CREATE TABLE Dogs (dog_id INTEGER PRIMARY KEY, owner_id INTEGER REFERENCES Owners(owner_id), name TEXT);
        CREATE TABLE Professionals (
            professional_id INTEGER PRIMARY KEY, first_name TEXT, last_name TEXT
        );
        CREATE TABLE Treatments (
            treatment_id INTEGER PRIMARY KEY,
            dog_id INTEGER REFERENCES Dogs(dog_id),
            professional_id INTEGER REFERENCES Professionals(professional_id),
            cost_of_treatment REAL
        );
        """
    )
    owners = [(1, "Ada", "Avery"), (2, "Ben", "Brook"), (3, "Cal", "Cole")]
    conn.executemany("INSERT INTO Owners VALUES (?, ?, ?)", owners)
    dogs = [(1, 1, "Rex"), (2, 2, "Fido"), (3, 3, "Spot")]
    conn.executemany("INSERT INTO Dogs VALUES (?, ?, ?)", dogs)
    professionals = [(i, f"pro{i}", f"Last{i}") for i in range(1, 11)]
    conn.executemany("INSERT INTO Professionals VALUES (?, ?, ?)", professionals)
    # Owner 1: three cheap treatments (count winner); owner 2: one expensive
    # treatment (sum winner); owner 3: one mid treatment.
    treatments = [
        (1, 1, 1, 10.0),
        (2, 1, 1, 10.0),
        (3, 1, 2, 10.0),
        (4, 2, 1, 100.0),
        (5, 3, 3, 40.0),
    ]
    conn.executemany("INSERT INTO Treatments VALUES (?, ?, ?, ?)", treatments)
    conn.commit()
    conn.close()
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


def build_concert_db(path: Path) -> dict:
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE stadium (
            stadium_id INTEGER PRIMARY KEY, location TEXT, name TEXT,
            capacity INTEGER, highest INTEGER, lowest INTEGER, average INTEGER
        );
        CREATE TABLE singer (
            singer_id INTEGER PRIMARY KEY, name TEXT, country TEXT, age INTEGER
        );
        CREATE TABLE concert (
            concert_id INTEGER PRIMARY KEY, concert_name TEXT, theme TEXT,
            stadium_id INTEGER REFERENCES stadium(stadium_id), year INTEGER
        );
        CREATE TABLE singer_in_concert (
            concert_id INTEGER REFERENCES concert(concert_id),
            singer_id INTEGER REFERENCES singer(singer_id)
        );
        """
    )
    stadiums = [
        (1, "East", "Stark Field", 52500, 3000, 1000, 2000),
        (2, "West", "Oak Arena", 39500, 2500, 800, 1500),
        (3, "North", "Pine Park", 60000, 4000, 1200, 2500),
    ]
    conn.executemany("INSERT INTO stadium VALUES (?, ?, ?, ?, ?, ?, ?)", stadiums)
    singers = [(1, "Ann", "fr", 30), (2, "Bo", "us", 45), (3, "Cy", "us", 28)]
    conn.executemany("INSERT INTO singer VALUES (?, ?, ?, ?)", singers)
    concerts = [
        (1, "Spring Fest", "pop", 1, 2014),
        (2, "Summer Jam", "rock", 1, 2015),
        (3, "Fall Ball", "folk", 2, 2014),
        (4, "Old Gala", "jazz", 3, 2010),
    ]
    conn.executemany("INSERT INTO concert VALUES (?, ?, ?, ?, ?)", concerts)
    appearances = [(1, 1), (1, 2), (2, 2), (3, 3)]
    conn.executemany("INSERT INTO singer_in_concert VALUES (?, ?)", appearances)
    conn.commit()
    conn.close()
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


_BUILDERS = {
    "student_course": build_student_db,
    "car_1": build_cars_db,
    "battle_death": build_ships_db,
    "dog_kennels": build_dogs_db,
    "concert_singer": build_concert_db,
}

GROUPED_BY_ID_SQL = (
    "SELECT courses.course_name FROM student_enrolment_courses "
    "JOIN courses ON student_enrolment_courses.course_id = courses.course_id "
    "GROUP BY student_enrolment_courses.course_id "
    "ORDER BY COUNT(student_enrolment_courses.student_course_id) DESC LIMIT 1"
)
GROUPED_BY_NAME_SQL = (
    "SELECT T1.course_name FROM Courses AS T1 "
    "JOIN Student_Enrolment_Courses AS T2 ON T1.course_id = T2.course_id "
    "GROUP BY T1.course_name ORDER BY count(*) DESC LIMIT 1"
)
EXTRA_JOIN_CARS_SQL = (
    "SELECT DISTINCT model_list.model FROM model_list "
    "JOIN car_names ON model_list.modelid = car_names.model "
    "JOIN cars_data ON car_names.makeid = cars_data.id "
    "WHERE cars_data.weight < (SELECT AVG(weight) FROM cars_data)"
)
BELOW_AVERAGE_CARS_SQL = (
    "SELECT T1.model FROM CAR_NAMES AS T1 JOIN CARS_DATA AS T2 ON T1.MakeId = T2.Id "
    "WHERE T2.Weight < (SELECT avg(Weight) FROM CARS_DATA)"
)
CARTESIAN_GOLD_SQL = (
    "SELECT DISTINCT first_name, last_name FROM Professionals JOIN Treatments "
    "WHERE cost_of_treatment < (SELECT avg(cost_of_treatment) FROM Treatments)"
)

DEV_EXAMPLES = [
    {"db_id": "student_course",
     "question": "What is the name of the course with the most students enrolled?",
     "query": GROUPED_BY_NAME_SQL},
    {"db_id": "car_1",
     "question": "What is the model for the car with a weight smaller than the average?",
     "query": BELOW_AVERAGE_CARS_SQL},
    {"db_id": "battle_death",
     "question": "How many ships ended up being sank?",
     "query": "SELECT count(*) FROM ship WHERE disposition_of_ship = 'sank'"},
    {"db_id": "dog_kennels",
     "question": "Which owner has paid for the most treatments on his or her dogs? List the owner id and last name.",
     "query": ("SELECT T1.owner_id, T1.last_name FROM Owners AS T1 "
               "JOIN Dogs AS T2 ON T1.owner_id = T2.owner_id "
               "JOIN Treatments AS T3 ON T2.dog_id = T3.dog_id "
               "GROUP BY T1.owner_id ORDER BY count(*) DESC LIMIT 1")},
    {"db_id": "dog_kennels",
     "question": "What are the first name and last name of the professionals who have done treatment with cost below average?",
     "query": CARTESIAN_GOLD_SQL},
    {"db_id": "concert_singer",
     "question": "Show the stadium name and capacity with the most number of concerts in 2014 or later.",
     "query": ("SELECT T2.name, T2.capacity FROM concert AS T1 "
               "JOIN stadium AS T2 ON T1.stadium_id = T2.stadium_id "
               "WHERE T1.year >= 2014 GROUP BY T2.stadium_id "
               "ORDER BY count(*) DESC LIMIT 1")},
    {"db_id": "concert_singer",
     "question": "What is the name of the stadium with the largest capacity?",
     "query": "SELECT name FROM stadium ORDER BY capacity DESC LIMIT 1"},
    {"db_id": "concert_singer",
     "question": "How many singers are there?",
     "query": "SELECT count(*) FROM singer"},
    {"db_id": "concert_singer",
     "question": "What is the average capacity of stadiums?",
     "query": "SELECT avg(capacity) FROM stadium"},
    {"db_id": "concert_singer",
     "question": "List singer names that appear in some concert.",
     "query": ("SELECT T2.name FROM singer_in_concert AS T1 "
               "JOIN singer AS T2 ON T1.singer_id = T2.singer_id")},
    {"db_id": "concert_singer",
     "question": "What are the names of singers who never performed in a concert?",
     "query": "SELECT name FROM singer WHERE singer_id NOT IN (SELECT singer_id FROM singer_in_concert)"},
    {"db_id": "concert_singer",
     "question": "Show stadium locations with a concert in 2014 or with capacity above 50000.",
     "query": ("SELECT location FROM stadium WHERE capacity > 50000 UNION "
               "SELECT T1.location FROM stadium AS T1 JOIN concert AS T2 "
               "ON T1.stadium_id = T2.stadium_id WHERE T2.year = 2014")},
]


def make_dataset(root: Path, examples: list[dict], db_ids: list[str] | None = None) -> Path:
    """Assemble a Spider-layout dataset directory under root."""
    root.mkdir(parents=True, exist_ok=True)
    if db_ids is None:
        db_ids = sorted({ex["db_id"] for ex in examples} & set(_BUILDERS))
    entries = []
    for db_id in db_ids:
        db_dir = root / "database" / db_id
        db_dir.mkdir(parents=True, exist_ok=True)
        entries.append(_BUILDERS[db_id](db_dir / f"{db_id}.sqlite"))
    (root / "tables.json").write_text(json.dumps(entries, indent=1), encoding="utf-8")
    (root / "dev.json").write_text(json.dumps(examples, indent=1), encoding="utf-8")
    return root


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory) -> Path:
    return make_dataset(
        tmp_path_factory.mktemp("dataset"), DEV_EXAMPLES, db_ids=sorted(_BUILDERS)
    )


@pytest.fixture(scope="session")
def loaded(dataset_dir) -> LoadedDataset:
    return load_dataset(dataset_dir, "dev")


@pytest.fixture(scope="session")
def schemas(loaded):
    return loaded.schemas
