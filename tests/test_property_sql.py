"""Property-based SQL frontend testing: generated ASTs round-trip.

Hypothesis builds random (but type-sane) SELECT statements directly as
ASTs; printing and re-parsing must reproduce the identical tree, and
tokenizing arbitrary printable text must either succeed or raise the
library's own error type (never crash with something foreign).

The regex tokenizer is also held to the character walker it replaced
(``tests/reference_tokenizer.py``) token for token and error for error,
and the canonicalizer's token-free scan to its token-based twin, also
when its shape memo serves a statement from a literal-varied sibling.
"""

import itertools
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CanonicalizeError, ReproError, TokenizeError
from repro.online import monitor
from repro.online.monitor import (
    canonicalize,
    canonicalize_tokens,
    render_statement,
)
from repro.sql.ast_nodes import (
    BetweenExpr,
    BinaryOp,
    ColumnRef,
    Expr,
    InExpr,
    IsNullExpr,
    LikeExpr,
    Literal,
    SelectItem,
    SelectStmt,
    SortItem,
    TableRef,
)
from repro.sql.parser import parse_select
from repro.sql import tokenizer
from repro.sql.printer import to_sql
from repro.sql.tokenizer import Token, TokenType, literal_shape, tokenize
from repro.workloads.sdss import sdss_workload
from repro.workloads.star import star_workload

from tests.reference_tokenizer import reference_tokenize

_ident = st.sampled_from(["alpha", "beta", "gamma", "delta", "val", "key"])
_number = st.one_of(
    st.integers(-1000, 1000),
    st.floats(
        min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
    ).map(lambda f: round(f, 3)),
)
_text_literal = st.text(alphabet=string.ascii_letters + " %_'", max_size=8)


def _column():
    return st.builds(ColumnRef, column=_ident, table=st.just("t"))


def _literal():
    return st.builds(Literal, value=st.one_of(_number, _text_literal))


def _comparison():
    op = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
    return st.builds(BinaryOp, op=op, left=_column(), right=_literal())


def _special_predicate():
    return st.one_of(
        st.builds(
            BetweenExpr,
            expr=_column(),
            low=st.builds(Literal, value=_number),
            high=st.builds(Literal, value=_number),
            negated=st.booleans(),
        ),
        st.builds(
            InExpr,
            expr=_column(),
            items=st.lists(_literal(), min_size=1, max_size=3).map(tuple),
            negated=st.booleans(),
        ),
        st.builds(
            LikeExpr,
            expr=_column(),
            pattern=st.builds(Literal, value=_text_literal),
            negated=st.booleans(),
        ),
        st.builds(IsNullExpr, expr=_column(), negated=st.booleans()),
    )


def _predicate(depth: int = 2):
    base = st.one_of(_comparison(), _special_predicate())
    if depth == 0:
        return base
    return st.one_of(
        base,
        st.builds(
            BinaryOp,
            op=st.sampled_from(["and", "or"]),
            left=_predicate(depth - 1),
            right=_predicate(depth - 1),
        ),
    )


def _statement():
    targets = st.lists(
        st.builds(SelectItem, expr=_column(), alias=st.none()),
        min_size=1,
        max_size=3,
    ).map(tuple)
    order_by = st.lists(
        st.builds(SortItem, expr=_column(), descending=st.booleans()),
        max_size=2,
    ).map(tuple)
    return st.builds(
        SelectStmt,
        targets=targets,
        tables=st.just((TableRef(name="t", alias=None),)),
        where=st.one_of(st.none(), _predicate()),
        group_by=st.just(()),
        having=st.none(),
        order_by=order_by,
        limit=st.one_of(st.none(), st.integers(1, 100)),
        distinct=st.booleans(),
    )


@settings(max_examples=200, deadline=None)
@given(stmt=_statement())
def test_print_parse_roundtrip(stmt: SelectStmt):
    sql = to_sql(stmt)
    reparsed = parse_select(sql)
    assert reparsed == stmt, f"{sql!r} did not round-trip"


@settings(max_examples=200, deadline=None)
@given(expr=_predicate())
def test_predicate_roundtrip_in_context(expr: Expr):
    stmt = SelectStmt(
        targets=(SelectItem(expr=ColumnRef("alpha", table="t")),),
        tables=(TableRef(name="t"),),
        where=expr,
    )
    assert parse_select(to_sql(stmt)) == stmt


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=string.printable, max_size=60))
def test_tokenizer_total(text: str):
    """Tokenizing arbitrary input never raises anything but ReproError."""
    try:
        tokens = tokenize(text)
    except ReproError:
        return
    assert tokens[-1].value == ""  # EOF present


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet=string.printable, max_size=60))
def test_parser_total(text: str):
    """Parsing arbitrary input never raises anything but ReproError."""
    try:
        parse_select(text)
    except ReproError:
        pass


# ----------------------------------------------------------------------
# Regex tokenizer vs. the character walker it replaced

_WORDS = ["select", "FROM", "Where", "and", "in", "a", "t1", "_x", "Photo_Obj", "e"]
_GOOD_NUMBERS = ["0", "42", "3.14", ".5", "1.", "1e6", "2.5E-3", "1.5.x"]
_DANGLING_EXPONENTS = ["1e", "1e+", "2.5E-", ".5e"]
_STRINGS = ["'hello'", "'it''s'", "''", "'"]
_QUOTED = ['"PhotoObj"', '""', '"']
_OPERATORS = ["<>", "<=", ">=", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "||"]
_REST = [
    "(", ")", ",", ".", ";", " ", "\n", "\t",
    "-- c\n", "--", "/* c */", "/**/", "/*", "*/", "@", "$", "!", "|", "?",
]


def _sql_text(fragments):
    """Fragments glued with or without a space, so that lexemes also
    meet edge to edge (``1e`` + ``6``, ``<`` + ``>``, ``'`` + ``'``)."""
    return st.lists(
        st.tuples(st.sampled_from(fragments), st.sampled_from(["", " "])),
        max_size=12,
    ).map(lambda pairs: "".join(f + gap for f, gap in pairs))


_unquoted_sql = _sql_text(
    _WORDS + _GOOD_NUMBERS + _DANGLING_EXPONENTS + _STRINGS + _OPERATORS + _REST
)
_any_text = st.one_of(
    st.text(alphabet=string.printable, max_size=60),
    # Dense in the characters whose neighbours decide the lexeme.
    st.text(alphabet="'\"/*-\n 1eE.+a<>=|!;(", max_size=10),
    _sql_text(
        _WORDS + _GOOD_NUMBERS + _DANGLING_EXPONENTS + _STRINGS + _QUOTED
        + _OPERATORS + _REST
    ),
)
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _outcome(lexer, text):
    """What ``lexer`` makes of ``text``, in a form both lexers share."""
    try:
        tokens = lexer(text)
    except TokenizeError as exc:
        return "error", str(exc), exc.position
    return "tokens", [
        (getattr(t.type, "name", t.type), t.value, t.position) for t in tokens
    ]


def _first_dangling_exponent(text, want):
    """Position of the first NUMBER the old walker emitted that
    ``float()`` rejects (``1e``, ``2.5E-``), or None. Such input is now
    refused, on purpose, where that token starts."""
    if want[0] == "error":
        want = _outcome(reference_tokenize, text[: want[2]])
    for kind, value, position in want[1]:
        if kind == "NUMBER" and not _NUMBER.fullmatch(value):
            return position
    return None


def _assert_matches_reference(text):
    want = _outcome(reference_tokenize, text)
    got = _outcome(tokenize, text)
    dangling = _first_dangling_exponent(text, want)
    if dangling is None:
        assert got == want
    else:
        assert got == (
            "error", f"malformed number (at offset {dangling})", dangling
        )


@settings(max_examples=300, deadline=None)
@given(text=_any_text)
def test_tokenizer_matches_reference(text: str):
    _assert_matches_reference(text)


@pytest.mark.parametrize(
    "workload", [sdss_workload(), star_workload()], ids=["sdss", "star"]
)
def test_tokenizer_matches_reference_on_shipped_workloads(workload):
    for query in workload:
        _assert_matches_reference(query.sql)
        assert canonicalize(query.sql) == canonicalize_tokens(tokenize(query.sql))


def _fingerprint_outcome(fingerprint, text):
    try:
        return "fingerprint", fingerprint(text)
    except (TokenizeError, CanonicalizeError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


@settings(max_examples=300, deadline=None)
@given(text=_any_text)
def test_canonicalize_equals_its_token_based_twin(text: str):
    """Same fingerprint, or the same error with the same position."""
    assert _fingerprint_outcome(canonicalize, text) == _fingerprint_outcome(
        lambda sql: canonicalize_tokens(tokenize(sql)), text
    )


@pytest.mark.parametrize(
    "text",
    ["é = 1", "x² = 'é'", "select\xa0a", "½", "x ½y", "a < ²", "a < ٣", "'é"],
)
def test_canonicalize_equals_its_twin_beyond_ascii(text: str):
    # The word pattern is wider than str.isalpha() at the start of a word.
    assert _fingerprint_outcome(canonicalize, text) == _fingerprint_outcome(
        lambda sql: canonicalize_tokens(tokenize(sql)), text
    )


# The literals literal_shape erases: the lexer's own string pattern,
# and digit runs that no word character precedes.
_ERASED = re.compile(rf"{tokenizer._STRING}|\b[0-9]+", re.ASCII)
_literal_dense = st.one_of(
    st.text(alphabet="0123456789'.eE+- t1x_(,)=;", max_size=16),
    _sql_text([
        "t1", "x9", "_2", "e", "E5", "t1.x", "1", "42", "0.5", ".5", "1.", "7e3",
        "1e", "1e+", ".5e", "'", "''", "'7'", "'a''", "'it''s'", ".", "-", "+",
        "=", "(", ")", ",", " ",
    ]),
)
_SIBLING_STRINGS = ["'b'", "''", "'it''s'", "'1 a'", "''''", "'9e'"]


def _sibling(text: str, salt: int) -> str:
    """``text`` with every literal :func:`literal_shape` erases given
    another value, drawn from ``salt``."""
    count = itertools.count(salt)

    def other(match):
        k = next(count)
        if match[0][0] == "'":
            return _SIBLING_STRINGS[k % len(_SIBLING_STRINGS)]
        return str(k * 7919)[: 1 + k % 4]

    return _ERASED.sub(other, text)


def _assert_memo_matches_twin(text, sibling):
    """``canonicalize(text)`` after ``sibling`` (``text`` with other
    literal values) primed the shape memo: the token-based twin's
    fingerprint, or its error type, message and position. A text that
    fingerprints shares the sibling's shape and is served from the memo."""
    twin = lambda sql: canonicalize_tokens(tokenize(sql))  # noqa: E731
    memo = monitor._shape_fingerprint
    memo.cache_clear()
    assert _fingerprint_outcome(canonicalize, sibling) == _fingerprint_outcome(
        twin, sibling
    )
    want = _fingerprint_outcome(twin, text)
    shared = want[0] == "fingerprint" and literal_shape(text) is not None
    if shared:
        assert literal_shape(sibling) == literal_shape(text)
    hits = memo.cache_info().hits
    assert _fingerprint_outcome(canonicalize, text) == want
    assert memo.cache_info().hits == hits + shared


@settings(max_examples=1000, deadline=None)
@given(
    text=st.one_of(_any_text, _unquoted_sql, _literal_dense),
    salt=st.integers(0, 10**6),
)
def test_shape_memo_equals_the_token_based_twin(text: str, salt: int):
    _assert_memo_matches_twin(text, _sibling(text, salt))


@pytest.mark.parametrize(
    "text",
    [
        "a.5", "1e", ".5e", "1.5.x", "'it''s'", "'a''", "t1.x", "x-5",
        '"Q" = 1', "a ? 1", "-- it's\nselect 'x'", "select 1e5, 2.5E-3, 7.",
        "x = 'a' 'b", "select 12abc, x_1, 1_2 from t1", '"t 1" = 1',
        "/* 'x */ 1 /* ' */ y", "x -- 'a\n = 'b' -- '",
    ],
)
def test_shape_memo_edge_cases(text: str):
    _assert_memo_matches_twin(text, _sibling(text, 2))


# A fingerprint drops the quotes of a quoted identifier, so reading one
# back is only faithful for statements without any.
@settings(max_examples=200, deadline=None)
@given(text=_unquoted_sql)
def test_canonicalize_is_idempotent(text: str):
    """A fingerprint whose placeholders are read back as literals
    fingerprints to itself."""
    try:
        fingerprint = canonicalize(text)
    except (TokenizeError, CanonicalizeError):
        return
    literal = fingerprint.replace("?+", "0").replace("?", "0")
    assert canonicalize(literal) == fingerprint


_replacement_number = st.sampled_from(_GOOD_NUMBERS[:-1] + ["7", "1e-07", "180.0000217"])
_replacement_string = st.text(alphabet=string.ascii_letters + " %_';-/*", max_size=8)


@settings(max_examples=200, deadline=None)
@given(text=_unquoted_sql, data=st.data())
def test_template_is_stable_under_literal_perturbation(text: str, data):
    """Changing only NUMBER/STRING values never changes the template."""
    try:
        tokens = tokenize(text)
        fingerprint = canonicalize(text)
    except (TokenizeError, CanonicalizeError):
        return
    perturbed = []
    for token in tokens:
        if token.type is TokenType.NUMBER:
            token = Token(token.type, data.draw(_replacement_number), token.position)
        elif token.type is TokenType.STRING:
            token = Token(token.type, data.draw(_replacement_string), token.position)
        perturbed.append(token)
    assert canonicalize(render_statement(perturbed)) == fingerprint
