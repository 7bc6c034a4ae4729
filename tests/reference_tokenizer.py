"""The pre-regex character-walking tokenizer, kept as a test oracle.

Moved here verbatim from ``repro.sql.tokenizer`` when the production
lexer became one compiled regex; ``test_property_sql.py`` checks the
two agree. Only the token type changed: a plain tuple of
``(type name, value, position)`` so the oracle shares nothing with the
code under test but the keyword list and the error type.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import TokenizeError
from repro.sql.tokenizer import KEYWORDS


class RefToken(NamedTuple):
    type: str
    value: str
    position: int


_OPERATORS = ("<>", "<=", ">=", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "||")
_PUNCT = "(),.;"


def reference_tokenize(text: str) -> list[RefToken]:
    """Tokenize ``text`` into a list ending with an EOF token."""
    tokens: list[RefToken] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise TokenizeError("unterminated block comment", i)
            i = end + 2
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            i = _lex_number(text, i, tokens)
            continue
        if ch == "'":
            i = _lex_string(text, i, tokens)
            continue
        if ch == '"':
            i = _lex_quoted_ident(text, i, tokens)
            continue
        if ch.isalpha() or ch == "_":
            i = _lex_word(text, i, tokens)
            continue
        matched_op = next((op for op in _OPERATORS if text.startswith(op, i)), None)
        if matched_op is not None:
            tokens.append(RefToken("OPERATOR", matched_op, i))
            i += len(matched_op)
            continue
        if ch in _PUNCT:
            tokens.append(RefToken("PUNCT", ch, i))
            i += 1
            continue
        raise TokenizeError(f"unexpected character {ch!r}", i)
    tokens.append(RefToken("EOF", "", n))
    return tokens


def _lex_number(text: str, start: int, tokens: list[RefToken]) -> int:
    i = start
    n = len(text)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < n and text[i] in "+-":
                i += 1
        else:
            break
    tokens.append(RefToken("NUMBER", text[start:i], start))
    return i


def _lex_string(text: str, start: int, tokens: list[RefToken]) -> int:
    i = start + 1
    n = len(text)
    chunks: list[str] = []
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                chunks.append("'")
                i += 2
                continue
            tokens.append(RefToken("STRING", "".join(chunks), start))
            return i + 1
        chunks.append(ch)
        i += 1
    raise TokenizeError("unterminated string literal", start)


def _lex_quoted_ident(text: str, start: int, tokens: list[RefToken]) -> int:
    end = text.find('"', start + 1)
    if end < 0:
        raise TokenizeError("unterminated quoted identifier", start)
    tokens.append(RefToken("IDENT", text[start + 1 : end], start))
    return end + 1


def _lex_word(text: str, start: int, tokens: list[RefToken]) -> int:
    i = start
    n = len(text)
    while i < n and (text[i].isalnum() or text[i] == "_"):
        i += 1
    word = text[start:i].lower()
    token_type = "KEYWORD" if word in KEYWORDS else "IDENT"
    tokens.append(RefToken(token_type, word, start))
    return i
