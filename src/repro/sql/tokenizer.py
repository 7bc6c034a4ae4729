"""Regex SQL tokenizer.

One compiled pattern (:data:`_LEXEME`) scans a statement lexeme by
lexeme and has two consumers: :func:`tokenize` builds the flat list of
:class:`Token` objects the parser reads, and :func:`strip_literals`
emits only the literal-stripped token values the workload canonicalizer
fingerprints, without building tokens; :func:`literal_shape` erases
literal values with the lexer's own string pattern, so that the
canonicalizer scans once per statement shape. Keywords are
case-insensitive; identifiers are lower-cased unless double-quoted,
matching PostgreSQL's folding rules.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import NamedTuple

from repro.errors import TokenizeError

KEYWORDS = frozenset(
    {
        "select",
        "distinct",
        "from",
        "where",
        "group",
        "order",
        "by",
        "having",
        "limit",
        "offset",
        "as",
        "and",
        "or",
        "not",
        "in",
        "between",
        "like",
        "is",
        "null",
        "true",
        "false",
        "join",
        "inner",
        "left",
        "right",
        "full",
        "outer",
        "cross",
        "on",
        "asc",
        "desc",
        "count",
        "sum",
        "avg",
        "min",
        "max",
    }
)


class TokenType(Enum):
    KEYWORD = auto()
    IDENT = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCT = auto()
    EOF = auto()


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r})"


# Whitespace and comments. Every repeated group here and below has
# disjoint alternatives, so a failed match (an unterminated 100 kB
# string or comment) is abandoned in linear time.
_SKIP = r"\s*(?:(?:--[^\n]*|/\*.*?\*/)\s*)*"
_MANTISSA = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)"
# An exponent marker with no digits after it ("1e", "2.5E-") is
# trailing junk, not a number followed by an identifier.
_MALFORMED = rf"{_MANTISSA}[eE](?![+-]?[0-9])"
_NUMBER = rf"(?!{_MALFORMED}){_MANTISSA}(?:[eE][+-]?[0-9]+)?"
# The closing quote is the first one that is not doubled.
_STRING = r"'[^']*(?:''[^']*)*'(?!')"
_QUOTED = r'"[^"]*"'
_WORD = r"[^\W\d]\w*"
_OPERATOR = r"<>|<=|>=|!=|\|\||[=<>+\-*%]|/(?!\*)"
_PUNCT = r"[(),;]|\.(?![0-9])"

# One lexeme plus the whitespace/comments after it (the text before the
# first lexeme is skipped by _LEADING). Group 1 is the lexeme; it is
# unset where no lexeme can start: an unterminated comment swallows the
# rest of the text so a run of them is not rescanned, anything else
# gives up one character.
_LEXEME = re.compile(
    rf"(?:({_WORD}|{_NUMBER}|{_STRING}|{_QUOTED}|{_OPERATOR}|{_PUNCT})"
    rf"|/\*.*|\S){_SKIP}",
    re.DOTALL,
)
_LEADING = re.compile(_SKIP, re.DOTALL)

_DIGITS = frozenset("0123456789")
# First characters of the lexemes strip_literals does not pass through
# lower-cased: literals, quoted identifiers, "." (punctuation or the
# start of a number) and the empty string of an unset group.
_NOT_VERBATIM = _DIGITS | {"'", '"', ".", ""}


def _scan_error(text: str, position: int) -> TokenizeError:
    """Why no lexeme starts at ``position``."""
    ch = text[position]
    if ch == "'":
        return TokenizeError("unterminated string literal", position)
    if ch == '"':
        return TokenizeError("unterminated quoted identifier", position)
    if text.startswith("/*", position):
        return TokenizeError("unterminated block comment", position)
    if ch in _DIGITS or ch == ".":
        return TokenizeError("malformed number", position)
    return TokenizeError(f"unexpected character {ch!r}", position)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _LEXEME.finditer(text, _LEADING.match(text).end()):
        lexeme = match[1]
        position = match.start()
        if lexeme is None:
            raise _scan_error(text, position)
        head = lexeme[0]
        if head.isalpha() or head == "_":
            word = lexeme.lower()
            kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENT
            append(Token(kind, word, position))
        elif head in _DIGITS or (head == "." and len(lexeme) > 1):
            append(Token(TokenType.NUMBER, lexeme, position))
        elif head == "'":
            value = lexeme[1:-1].replace("''", "'")
            append(Token(TokenType.STRING, value, position))
        elif head == '"':
            append(Token(TokenType.IDENT, lexeme[1:-1], position))
        elif head in "(),;.":
            append(Token(TokenType.PUNCT, lexeme, position))
        elif head.isalnum():
            # \w also admits non-ASCII numerics ("²", "½"), which are
            # neither digits of a number nor letters of a word.
            raise TokenizeError(f"unexpected character {head!r}", position)
        else:
            append(Token(TokenType.OPERATOR, lexeme, position))
    append(Token(TokenType.EOF, "", len(text)))
    return tokens


def strip_literals(text: str) -> list[str]:
    """The values of ``tokenize(text)`` short of EOF, with every NUMBER
    and STRING value replaced by ``"?"``, without building the tokens.

    Raises exactly when :func:`tokenize` raises, with the same error.
    """
    parts: list[str] = []
    append = parts.append
    lexemes = _LEXEME.findall(text, _LEADING.match(text).end())
    for lexeme in lexemes:
        head = lexeme[:1]
        if head not in _NOT_VERBATIM:
            append(lexeme.lower())
        elif head == '"':
            append(lexeme[1:-1])
        elif lexeme == ".":
            append(lexeme)
        elif lexeme:
            append("?")
        else:
            break
    if len(parts) < len(lexemes) or not text.isascii():
        # Something did not scan, or a word may start with a non-ASCII
        # numeric: both are tokenize's errors to raise.
        tokenize(text)
    return parts


_SHAPE_STRING = re.compile(_STRING)
# A digit run that starts a lexeme: \b before a digit means "not
# preceded by a word character" (ASCII text only, see literal_shape).
_SHAPE_DIGITS = re.compile(r"\b[0-9]+", re.ASCII)


def literal_shape(text: str) -> str | None:
    """``text`` with its literal values erased, or None where that is
    not safe: every string literal becomes ``''`` and every digit run
    that no word character precedes becomes ``0``.

    Statements that differ only in literal values share one shape. A
    shape lexes to the lexemes of ``text`` with only literal values
    changed, and fails to lex exactly when ``text`` does (at another
    offset, as the text is shorter). Without quoted identifiers and
    comments every ``'`` starts or lies inside a string literal, so
    :data:`_STRING` finds the lexer's own strings; an unterminated one
    matches nowhere it starts and stays unterminated. Every erased digit
    run starts a number lexeme or continues one after ``.``, ``+`` or
    ``-``; a run after a word character (``t1``, the ``5`` of ``1e5``)
    is kept, and an erased run keeps one digit, so a dangling exponent
    stays malformed. ``?`` never lexes, and non-ASCII text is left to the
    lexer's own checks: both return None.
    """
    if (
        not text.isascii()
        or '"' in text
        or "?" in text
        or "--" in text
        or "/*" in text
    ):
        return None
    return _SHAPE_DIGITS.sub("0", _SHAPE_STRING.sub("''", text))
