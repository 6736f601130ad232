"""The tokenizer against a hand-written reference scanner.

``reference_tokenize`` is the per-character scanner the compiled pattern
replaced, kept as an oracle. The two agree, token for token and error for
error, on every input without a numeric character outside ASCII 0-9: the
reference started a number on any ``str.isdigit`` character, whereas
SQLite, and the tokenizer, read only ASCII digits as a number and any other
identifier character as part of an identifier. Both skip only SQLite's
whitespace (space, tab, newline, form feed, carriage return), take every
non-ASCII character and ``$`` as an identifier character (``$`` starts
none), read ``0x`` followed by hex digits as one number, as SQLite does,
and reject a decimal number that runs into identifier characters
(``1abc``, ``0x``, ``1$``) with SQLite's message. A last test checks the
tokenizer against ``sqlite3`` itself on ``$`` and on the characters that
Python's whitespace and word classes read otherwise than SQLite.
"""

from __future__ import annotations

import sqlite3
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nl2sql.errors import ParseError
from nl2sql.execution import execute
from nl2sql.pipeline import extract_sql
from nl2sql.sqlast import parse, to_sql
from nl2sql.sqlast.tokens import Token, lexes, tokenize

from conftest import DEV_EXAMPLES
from helpers import generate_corpus


HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def is_id_char(ch: str) -> bool:
    return not ch.isascii() or ch.isalnum() or ch in "_$"


def reference_tokenize(sql: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        start = i
        if ch in " \t\n\f\r":
            i += 1
        elif sql.startswith("--", i):
            nl = sql.find("\n", i)
            i = n if nl < 0 else nl + 1
        elif sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end < 0:
                raise ParseError("unterminated block comment", i)
            i = end + 2
        elif ch in "'\"`[":
            closer = "]" if ch == "[" else ch
            out = []
            i += 1
            while True:
                if i >= n:
                    what = "string literal" if ch == "'" else "quoted identifier"
                    raise ParseError(f"unterminated {what}", start)
                if sql[i] != closer:
                    out.append(sql[i])
                    i += 1
                elif closer != "]" and sql.startswith(closer * 2, i):
                    out.append(closer)
                    i += 2
                else:
                    i += 1
                    break
            tokens.append(("string" if ch == "'" else "qident", "".join(out), start))
        elif sql.startswith(("0x", "0X"), i) and sql[i + 2 : i + 3] in HEX_DIGITS:
            i += 2
            while i < n and sql[i] in HEX_DIGITS:
                i += 1
            tokens.append(("number", sql[start:i], start))
        elif ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            while i < n and sql[i].isdigit():
                i += 1
            if i < n and sql[i] == ".":
                i += 1
                while i < n and sql[i].isdigit():
                    i += 1
            if i < n and sql[i] in "eE":
                j = i + 1
                if j < n and sql[j] in "+-":
                    j += 1
                if j < n and sql[j].isdigit():
                    i = j
                    while i < n and sql[i].isdigit():
                        i += 1
            if i < n and is_id_char(sql[i]):
                while i < n and is_id_char(sql[i]):
                    i += 1
                raise ParseError(f'unrecognized token: "{sql[start:i]}"', start)
            tokens.append(("number", sql[start:i], start))
        elif is_id_char(ch) and ch != "$":
            while i < n and is_id_char(sql[i]):
                i += 1
            tokens.append(("ident", sql[start:i], start))
        elif sql[i : i + 2] in ("<=", ">=", "<>", "!=", "==", "||"):
            tokens.append(("op", sql[i : i + 2], start))
            i += 2
        elif ch in "=<>+-*/%":
            tokens.append(("op", ch, start))
            i += 1
        elif ch in "(),.;":
            tokens.append(("punct", ch, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def outcome(scan, sql: str):
    """The token stream as (kind, text, pos) triples, or the error raised."""
    try:
        return [tuple(tok) for tok in scan(sql)]
    except ParseError as exc:
        return ("error", str(exc), exc.position)


def ascii_digits_only(sql: str) -> bool:
    return not any(c.isnumeric() and c not in "0123456789" for c in sql)


def assert_same_as_reference(sql: str) -> None:
    assert outcome(tokenize, sql) == outcome(reference_tokenize, sql), sql


sql_pieces = st.sampled_from(
    ["SELECT", "a", "T1.x", "_id", "ß", "İ", "1", "12.5", ".5", "1.", "1e5", "2E-3",
     "1e", "1e+", "0x1F", "0X0a", "0x", "0xg", "0x1e5", "0", "x",
     "..", "'it''s'", "''", "'", "'a''", '"q""x"', '"', "`b``c`", "`", "[x y]",
     "[", "]", "-- note\n", "--", "/* c */", "/*/", "/*", "*/", "<=", ">=", "<>", "!=", "==",
     "||", "|", "!", "=", "<", ">", "+", "-", "*", "/", "%", "(", ")", ",", ".", ";", " ",
     "\t", "\n", " ", "#", "@", "$", "?",
     "\x0b", "\x1c", "\x7f", "\x85", "\u3000"]
)
sql_like_texts = st.one_of(
    st.lists(sql_pieces, max_size=12).map("".join),
    st.text(alphabet="sel aTxX_01.5eE+-'\"`[]/*\n<>=!|%(),;", max_size=30),
    st.text(max_size=20),
)


@settings(max_examples=1000)
@given(sql_like_texts)
# An escape that leaves a string open, a comment that is not closed by its
# own opening star, every quoted form with its escape, and a stray character.
@example("'abc''")
@example("x /*/ y")
@example("'it''s' \"a\"\"b\" `c``d` [e\"]")
@example("a ! b")
def test_tokenizer_matches_the_reference_on_generated_text(sql):
    assume(ascii_digits_only(sql))
    assert_same_as_reference(sql)


def test_tokenizer_matches_the_reference_on_queries_and_their_prefixes_and_suffixes(schemas):
    queries = [sql for _, sql in generate_corpus(schemas)] + [ex["query"] for ex in DEV_EXAMPLES]
    for sql in queries:
        for cut in range(len(sql) + 1):
            assert_same_as_reference(sql[:cut])
            assert_same_as_reference(sql[cut:])


def tokenizes(sql: str) -> bool:
    try:
        tokenize(sql)
    except ParseError:
        return False
    return True


lexes_pieces = st.sampled_from(
    ["'", '"', "`", "[", "]", "''", "--", "/*", "*/", "*", "/", "-", "0", "1", "9", ".",
     "e", "E", "x", "0x", "$", "é", "\xa0", "?", "=", "<", ">", "!", "|", "+", "%", "(",
     ")", ",", ";", " ", "\n", "\t", "\x0b", "a", "SELECT"]
)


@settings(max_examples=1000)
@given(st.one_of(st.lists(lexes_pieces, max_size=16).map("".join), st.text(max_size=30)))
@example("/* a */ 1. .5e3 0x1g 'a''b' x$")
@example("SELECT 1abc FROM t")
@example("x /*/ y")
@example(".5a")
@example("a /")
def test_lexes_exactly_when_tokenize_raises_nothing(sql):
    assert lexes(sql) == tokenizes(sql), sql


@pytest.mark.parametrize(
    "sql", [" a" * 20_000 + " ?", "/*" * 5_000, "'" * 10_001], ids=["words", "comments", "quotes"]
)
def test_lexes_rejects_long_texts_in_linear_time(sql):
    # A match that can backtrack into the whitespace before a token takes
    # exponential time on the first of these.
    start = time.perf_counter()
    assert not lexes(sql)
    assert time.perf_counter() - start < 0.5


def test_tokens_are_token_named_tuples():
    sql = "SELECT \"a\"\"b\", 'it''s' FROM t"
    tokens = tokenize(sql)
    assert all(type(token) is Token for token in tokens)
    select, name, comma, string = tokens[:4]
    assert tuple(select) == ("ident", "SELECT", 0) and select.keyword() == "select"
    assert (name.kind, name.text, name.pos, name.keyword()) == ("qident", 'a"b', 7, None)
    assert (string.kind, string.text, string.pos) == ("string", "it's", 15)
    assert comma == Token("punct", ",", 13)
    assert comma._asdict() == {"kind": "punct", "text": ",", "pos": 13}
    assert tokens[-1] == Token(kind="end", text="", pos=len(sql))


def test_hex_integers_are_one_number_token():
    # A hex number may be followed by a name, as in SQLite: 0x1g is 0x1 and g.
    assert outcome(tokenize, "0x1F 0Xff 0x1e5 0x1g") == [
        ("number", "0x1F", 0), ("number", "0Xff", 5), ("number", "0x1e5", 10),
        ("number", "0x1", 16), ("ident", "g", 19), ("end", "", 20),
    ]
    for text in ("0x", "0xg", "00x1"):
        assert outcome(tokenize, f"SELECT {text}") == (
            "error", f'unrecognized token: "{text}" (at offset 7)', 7
        )


@pytest.mark.parametrize(
    "run", ["1abc", "0x", "00x1", "1e5x", "1.5e", ".5a", "1_000", "1é", "1$", "0x$"]
)
def test_a_decimal_number_running_into_a_name_is_rejected_as_sqlite_does(run):
    # Each is sqlite3 3.40.1's "unrecognized token" for ``SELECT <run>``.
    assert outcome(tokenize, f"SELECT {run} FROM t") == (
        "error", f'unrecognized token: "{run}" (at offset 7)', 7
    )


def test_a_dollar_continues_a_name_but_starts_none():
    assert outcome(tokenize, "s$1 a$ _$") == [
        ("ident", "s$1", 0), ("ident", "a$", 4), ("ident", "_$", 7), ("end", "", 9),
    ]
    assert outcome(tokenize, "0x1$") == ("error", "unexpected character '$' (at offset 3)", 3)
    assert outcome(tokenize, "a $b") == ("error", "unexpected character '$' (at offset 2)", 2)


def test_a_name_with_a_dollar_runs_and_prints_back_to_itself(schemas):
    sql = "SELECT s$1.name FROM ship AS s$1 WHERE s$1.id > 0"
    assert extract_sql(sql) == sql
    assert execute(sql, schemas["battle_death"]).table is not None
    ast = parse(sql, schemas["battle_death"])
    printed = to_sql(ast)
    assert '"s$1"' in printed
    assert parse(printed, schemas["battle_death"]) == ast


def test_non_ascii_digits_are_identifier_characters():
    assert outcome(tokenize, "a = ² LIMIT ٣1") == [
        ("ident", "a", 0), ("op", "=", 2), ("ident", "²", 4), ("ident", "LIMIT", 6),
        ("ident", "٣1", 12), ("end", "", 14),
    ]
    assert outcome(tokenize, "1²") == ("error", 'unrecognized token: "1²" (at offset 0)', 0)


@pytest.mark.parametrize(
    "sql, message",
    [
        ("SELECT name FROM ship WHERE id = ²", "no such column: ²"),
        ("SELECT name FROM ship LIMIT ٣", "LIMIT expects an integer, found '٣' (at offset 28)"),
    ],
)
def test_a_non_ascii_digit_is_a_parse_error(schemas, sql, message):
    with pytest.raises(ParseError) as err:
        parse(sql, schemas["battle_death"])
    assert str(err.value) == message


# C0 controls but NUL, DEL, NEL, NBSP, EM SPACE and IDEOGRAPHIC SPACE: Python's
# ``\s`` and ``\w`` read these otherwise than SQLite, which skips only space,
# tab, newline, form feed and carriage return and reads every non-ASCII
# character as part of an identifier.
ODD_CHARACTERS = [chr(c) for c in range(1, 0x20)] + ["\x7f", "\x85", "\xa0", "\u2003", "\u3000"]
PLACES = [
    "{}SELECT name FROM ship", "SELECT name{}FROM ship", "SELECT na{}me FROM ship",
    "SELECT name FROM ship{}", "SELECT 1{} FROM ship", "SELECT 1.5e3{}", "SELECT 0x1{}",
    "SELECT name FROM ship WHERE name = 'a{}b'", "SELECT \"na{}me\" FROM ship",
    "SELECT name /* {} */ FROM ship", "SELECT name{}, 1 FROM ship",
]


@pytest.fixture(scope="module")
def ships():
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE ship (name TEXT)")
    yield conn
    conn.close()


@pytest.mark.parametrize(
    "char", [*ODD_CHARACTERS, "$"], ids=lambda char: f"U+{ord(char):04X}"
)
def test_tokenize_raises_exactly_where_sqlite_finds_an_unrecognized_token(ships, char):
    for place in PLACES:
        sql = place.format(char)
        try:
            ships.execute(sql)
            unrecognized = False
        except sqlite3.OperationalError as exc:
            unrecognized = str(exc).startswith("unrecognized token")
            # SQLite reads ``$SELECT`` as a bind parameter, which the dialect
            # does not have; both refuse it, SQLite with a syntax error.
            if sql.startswith("$"):
                assert str(exc) == 'near "$SELECT": syntax error'
                unrecognized = True
        try:
            tokenize(sql)
            raised = False
        except ParseError:
            raised = True
        assert raised is unrecognized, sql


def test_a_nul_is_refused_as_the_sqlite3_module_refuses_it(ships):
    # The module refuses the text before SQLite reads it.
    with pytest.raises(sqlite3.ProgrammingError, match="null character"):
        ships.execute("SELECT name\x00FROM ship")
    with pytest.raises(ParseError):
        tokenize("SELECT name\x00FROM ship")
