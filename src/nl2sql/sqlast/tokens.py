r"""Tokenizer for the SQLite-flavored SELECT dialect.

One compiled master pattern, after "Writing a Tokenizer" in the Python
``re`` documentation, with SQLite's lexical rules. Whitespace is space,
``\t``, ``\n``, ``\f`` and ``\r`` only; any other control character
(``\x0b``, ``\x1c``, ``\x7f``) is an error. A number is ASCII digits with
an optional fraction and exponent (``1``, ``1.``, ``.5``, ``1e5``), or
``0x`` followed by hex digits (``0x1F``). An identifier character is an
ASCII letter, digit, ``_`` or ``$``, or any non-ASCII character, as SQLite
reads every byte of a multi-byte character as one: ``²``, ``٣``, NBSP and
U+3000 included, so ``name\xa0FROM`` is one identifier. Any such character
but an ASCII digit or ``$`` starts an identifier (``s$1`` is one name; a
``$`` that starts a token is an error). A decimal number that runs straight into
identifier characters (``1abc``, ``0x``, ``1e5x``, ``1_000``, ``1\xa0``,
``1$``) is an error, as in SQLite; a hex number may be followed by one
(``0x1g`` is ``0x1`` and ``g``).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError

KEYWORDS = frozenset(
    """
    select distinct from where group by having order limit offset as join
    inner left right full outer cross natural on and or not in like between
    is null exists union intersect except all asc desc case when then else
    end cast with
    """.split()
)

# Statement kinds we refuse outright; the dialect is read-only SELECT.
FORBIDDEN_LEADS = frozenset(
    "insert update delete create drop alter replace pragma attach detach vacuum".split()
)

# SQLite's identifier characters: ASCII letters, digits, ``_`` and ``$``, and
# every non-ASCII character.
_ID = r"$0-9A-Za-z_\x80-\U0010ffff"

# Alternatives are tried in order, after the whitespace in front of them;
# ``skip`` takes comments and the whitespace at the end, and ``ident``, the
# most frequent token, comes next: no other form starts with an identifier
# character other than an ASCII digit or ``$``. A quoted form may
# not close on a quote that starts a doubled-quote escape, so ``'abc''`` is
# unterminated; the bare openers after the full forms match only what
# failed to close. A decimal ``number`` matches only when no identifier
# character follows its longest reading (a shorter one would leave a digit,
# ``.``, ``e`` or the rest of the exponent next); ``bad_number`` takes the rest.
_MASTER = re.compile(
    rf"""[ \t\n\f\r]*(?:
      (?P<skip>[ \t\n\f\r]+|--[^\n]*|/\*.*?\*/)
    | (?P<ident>[A-Za-z_\x80-\U0010ffff][{_ID}]*)
    | (?P<string>'[^']*(?:''[^']*)*'(?!'))
    | (?P<qident>"[^"]*(?:""[^"]*)*"(?!")|`[^`]*(?:``[^`]*)*`(?!`)|\[[^\]]*\])
    | (?P<number>0[xX][0-9a-fA-F]+
        | (?:[0-9]+(?:\.[0-9]*|(?!\.))|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?![{_ID}]))
    | (?P<bad_number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[{_ID}]+)
    | (?P<open_comment>/\*)
    | (?P<op><=|>=|<>|!=|==|\|\||[-=<>+*/%])
    | (?P<punct>[(),.;])
    | (?P<open_string>')
    | (?P<open_qident>["`\[])
    | (?P<unexpected>.))
    """,
    re.VERBOSE | re.DOTALL,
)
_AS_IS = frozenset(("number", "ident", "op", "punct"))
_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_qident": "unterminated quoted identifier",
}


class Token(NamedTuple):
    kind: str  # "ident" | "qident" | "string" | "number" | "op" | "punct" | "end"
    text: str
    pos: int

    def keyword(self) -> str | None:
        """Lower-cased keyword name, or None for non-keyword tokens."""
        if self.kind == "ident" and self.text.lower() in KEYWORDS:
            return self.text.lower()
        return None

    def is_keyword(self, *names: str) -> bool:
        kw = self.keyword()
        return kw is not None and kw in names


def tokenize(sql: str) -> list[Token]:
    """Split SQL text into tokens, raising ParseError on malformed input."""
    tokens: list[Token] = []
    for match in _MASTER.finditer(sql):
        kind = match.lastgroup
        text = match[kind]
        pos = match.start(kind)
        if kind in _AS_IS:
            tokens.append(Token(kind, text, pos))
        elif kind in ("string", "qident"):
            # A doubled closing quote is one; a bracketed name holds no ``]``.
            tokens.append(Token(kind, text[1:-1].replace(text[-1] * 2, text[-1]), pos))
        elif kind == "bad_number":
            raise ParseError(f'unrecognized token: "{text}"', pos)
        elif kind != "skip":
            raise ParseError(_ERRORS.get(kind) or f"unexpected character {text!r}", pos)
    tokens.append(Token("end", "", len(sql)))
    return tokens
