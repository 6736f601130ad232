r"""Tokenizer for the SQLite-flavored SELECT dialect.

SQLite's lexical rules are written once, as an ordered table, and compiled
twice: into ``tokenize``'s master pattern, after "Writing a Tokenizer" in
the Python ``re`` documentation, which yields one token at a time, and into
the pattern of ``lexes``, which checks a whole text in one ``fullmatch``
without building a token, as the pipeline's SQL extraction needs.

Whitespace is space, ``\t``, ``\n``, ``\f`` and ``\r`` only; any other
control character (``\x0b``, ``\x1c``, ``\x7f``) is an error. A number is
ASCII digits with an optional fraction and exponent (``1``, ``1.``,
``.5``, ``1e5``), or ``0x`` followed by hex digits (``0x1F``). An
identifier character is an ASCII letter, digit, ``_`` or ``$``, or any
non-ASCII character, as SQLite reads every byte of a multi-byte character
as one: ``²``, ``٣``, NBSP and U+3000 included, so ``name\xa0FROM`` is one
identifier. Any such character but an ASCII digit or ``$`` starts an
identifier (``s$1`` is one name; a ``$`` that starts a token is an error).
A decimal number that runs straight into identifier characters (``1abc``,
``0x``, ``1e5x``, ``1_000``, ``1\xa0``, ``1$``) is an error, as in SQLite;
a hex number may be followed by one (``0x1g`` is ``0x1`` and ``g``).
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

# SQLite's lexical rules, one ``(kind, pattern)`` each, tried in order.
# ``skip`` takes whitespace and comments, and ``ident``, the most frequent
# token, comes next: no other form starts with an identifier character other
# than an ASCII digit or ``$``. A quoted form may not close on a quote that
# starts a doubled-quote escape, so ``'abc''`` is unterminated; the bare
# openers after the full forms match only what failed to close. A decimal
# ``number`` matches only when no identifier character follows its longest
# reading (a shorter one would leave a digit, ``.``, ``e`` or the rest of the
# exponent next); ``bad_number`` takes the rest. The kinds in
# ``_ERROR_KINDS`` are errors: ``tokenize`` raises on them.
_RULES = (
    ("skip", r"[ \t\n\f\r]+|--[^\n]*|/\*.*?\*/"),
    ("ident", rf"[A-Za-z_\x80-\U0010ffff][{_ID}]*"),
    ("string", r"'[^']*(?:''[^']*)*'(?!')"),
    ("qident", r'"[^"]*(?:""[^"]*)*"(?!")|`[^`]*(?:``[^`]*)*`(?!`)|\[[^\]]*\]'),
    ("number", r"0[xX][0-9a-fA-F]+"
               rf"|(?:[0-9]+(?:\.[0-9]*|(?!\.))|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?![{_ID}])"),
    ("bad_number", rf"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[{_ID}]+"),
    ("open_comment", r"/\*"),
    ("op", r"<=|>=|<>|!=|==|\|\||[-=<>+*/%]"),
    ("punct", r"[(),.;]"),
    ("open_string", r"'"),
    ("open_qident", r"[\"`\[]"),
    ("unexpected", r"."),
)
_ERROR_KINDS = frozenset(("bad_number", "open_comment", "open_string", "open_qident", "unexpected"))

# ``tokenize``'s pattern: the whitespace in front of a token goes with it.
_MASTER = re.compile(
    r"[ \t\n\f\r]*(?:" + "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _RULES) + ")",
    re.DOTALL,
)


def _lexes_pattern() -> re.Pattern[str]:
    """One match over a whole text that lexes: each step takes the token the
    first matching rule gives, as ``tokenize`` does. A rule that is no error
    is guarded by a negative lookahead of every error rule before it, so where
    an error rule would win, no rule matches and the match fails. Each step
    is a lookahead capture that the backreference then consumes, so no step
    can be backtracked into and a text that does not lex fails in linear
    time."""
    errors: list[str] = []
    steps: list[str] = []
    for kind, pattern in _RULES:
        if kind in _ERROR_KINDS:
            errors.append(f"(?:{pattern})")
        else:
            guard = f"(?!{'|'.join(errors)})" if errors else ""
            steps.append(f"{guard}(?:{pattern})")
    return re.compile(f"(?:(?=(?P<tok>{'|'.join(steps)}))(?P=tok))*", re.DOTALL)


_LEXES = _lexes_pattern()
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


def lexes(sql: str) -> bool:
    """Whether ``tokenize(sql)`` returns tokens rather than raising
    ``ParseError``, without building them."""
    return _LEXES.fullmatch(sql) is not None


def tokenize(sql: str) -> list[Token]:
    """Split SQL text into tokens, raising ParseError on malformed input.

    Each ``Token`` is built by ``tuple.__new__``, which skips the
    NamedTuple's Python-level ``__new__``; the result is the same."""
    tokens: list[Token] = []
    new = tuple.__new__
    for match in _MASTER.finditer(sql):
        kind = match.lastgroup
        text = match[kind]
        pos = match.start(kind)
        if kind in _AS_IS:
            tokens.append(new(Token, (kind, text, pos)))
        elif kind in ("string", "qident"):
            # A doubled closing quote is one; a bracketed name holds no ``]``.
            text = text[1:-1].replace(text[-1] * 2, text[-1])
            tokens.append(new(Token, (kind, text, pos)))
        elif kind == "bad_number":
            raise ParseError(f'unrecognized token: "{text}"', pos)
        elif kind != "skip":
            raise ParseError(_ERRORS.get(kind) or f"unexpected character {text!r}", pos)
    tokens.append(Token("end", "", len(sql)))
    return tokens
