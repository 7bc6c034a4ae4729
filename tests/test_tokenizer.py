"""Unit tests for the SQL tokenizer."""

import pytest

from repro.errors import TokenizeError
from repro.sql.tokenizer import Token, TokenType, strip_literals, tokenize


def kinds(sql: str) -> list[tuple]:
    return [(t.type, t.value) for t in tokenize(sql)[:-1]]


class TestBasics:
    def test_keywords_fold_lowercase(self):
        assert kinds("SELECT FROM Where") == [
            (TokenType.KEYWORD, "select"),
            (TokenType.KEYWORD, "from"),
            (TokenType.KEYWORD, "where"),
        ]

    def test_identifiers_fold_lowercase(self):
        assert kinds("PhotoObj") == [(TokenType.IDENT, "photoobj")]

    def test_quoted_identifier_preserves_case(self):
        assert kinds('"PhotoObj"') == [(TokenType.IDENT, "PhotoObj")]

    def test_eof_token_always_last(self):
        tokens = tokenize("select")
        assert tokens[-1].type is TokenType.EOF

    def test_empty_input(self):
        assert tokenize("") == [Token(TokenType.EOF, "", 0)]


class TestNumbers:
    @pytest.mark.parametrize("text", ["0", "42", "3.14", ".5", "1e6", "2.5E-3"])
    def test_number_forms(self, text):
        (kind, value), = kinds(text)
        assert kind is TokenType.NUMBER
        assert value == text

    def test_number_then_dot_dot(self):
        tokens = kinds("1.5.x")
        assert tokens[0] == (TokenType.NUMBER, "1.5")

    @pytest.mark.parametrize(
        "text, position",
        [
            ("1e", 0),
            ("1e+", 0),
            ("2.5E-", 0),
            (".5e", 0),
            ("1.e", 0),
            ("1ex", 0),
            ("1e5 + 2e-", 6),
            ("select a from t where a < 1e;", 26),
        ],
    )
    def test_exponent_without_digits_is_malformed(self, text, position):
        with pytest.raises(TokenizeError, match="malformed number") as exc:
            tokenize(text)
        assert exc.value.position == position

    def test_complete_exponent_then_word(self):
        # Only a *dangling* exponent marker is junk; after a finished
        # number a letter starts the next word, as before.
        assert kinds("1e5e") == [
            (TokenType.NUMBER, "1e5"),
            (TokenType.IDENT, "e"),
        ]
        assert kinds("1x") == [(TokenType.NUMBER, "1"), (TokenType.IDENT, "x")]

    @pytest.mark.parametrize(
        "text, position",
        [("²", 0), ("1²", 1), ("٣", 0), (".٣", 1), ("a < ٣", 4)],
    )
    def test_only_ascii_digits_are_digits(self, text, position):
        # str.isdigit() accepts characters float()/int() reject.
        with pytest.raises(TokenizeError, match="unexpected character") as exc:
            tokenize(text)
        assert exc.value.position == position

    def test_non_ascii_numerics_continue_a_word_but_cannot_start_one(self):
        assert kinds("x² é½") == [
            (TokenType.IDENT, "x²"),
            (TokenType.IDENT, "é½"),
        ]
        with pytest.raises(TokenizeError) as exc:
            tokenize("x ½y")
        assert exc.value.position == 2


class TestStrings:
    def test_simple(self):
        assert kinds("'hello'") == [(TokenType.STRING, "hello")]

    def test_doubled_quote_escape(self):
        assert kinds("'it''s'") == [(TokenType.STRING, "it's")]

    def test_unterminated(self):
        with pytest.raises(TokenizeError):
            tokenize("'oops")

    def test_unterminated_after_doubled_quote(self):
        # The doubled quote must not be read as "close, then reopen".
        with pytest.raises(TokenizeError, match="string literal") as exc:
            tokenize("a = 'it''s")
        assert exc.value.position == 4

    def test_only_doubled_quotes(self):
        assert kinds("''''") == [(TokenType.STRING, "'")]
        assert kinds("''") == [(TokenType.STRING, "")]


class TestOperators:
    def test_two_char_operators_win(self):
        assert kinds("a<=b") == [
            (TokenType.IDENT, "a"),
            (TokenType.OPERATOR, "<="),
            (TokenType.IDENT, "b"),
        ]

    @pytest.mark.parametrize("op", ["<>", "<=", ">=", "!=", "=", "<", ">", "||"])
    def test_all_operators(self, op):
        assert (TokenType.OPERATOR, op) in kinds(f"a {op} b")


class TestComments:
    def test_line_comment(self):
        assert kinds("select -- comment\n1") == [
            (TokenType.KEYWORD, "select"),
            (TokenType.NUMBER, "1"),
        ]

    def test_block_comment(self):
        assert kinds("a /* stuff */ b") == [
            (TokenType.IDENT, "a"),
            (TokenType.IDENT, "b"),
        ]

    def test_unterminated_block(self):
        with pytest.raises(TokenizeError):
            tokenize("a /* oops")


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(TokenizeError) as exc:
            tokenize("select @")
        assert exc.value.position == 7

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("x 'oops", "unterminated string literal", 2),
            ("a /* oops", "unterminated block comment", 2),
            ("a /*/", "unterminated block comment", 2),
            ('a "x', "unterminated quoted identifier", 2),
            ("a | b", r"unexpected character '\|'", 2),
            ("a ! b", "unexpected character '!'", 2),
        ],
    )
    def test_messages_and_positions(self, text, message, position):
        with pytest.raises(TokenizeError, match=message) as exc:
            tokenize(text)
        assert exc.value.position == position

    @pytest.mark.parametrize(
        "text",
        [
            "select '" + "a''b " * 20000,
            "select /* " + "x * / " * 20000,
            'select "' + "abc " * 25000,
            "' " * 50000 + "'",
            "select 1 " + "/* x " * 60000,
        ],
        ids=["string", "comment", "quoted", "quote-run", "comment-run"],
    )
    def test_unterminated_100kb_input_is_rejected(self, text):
        # No timing assertion: rescanning from every quote or comment
        # opener would take minutes here instead of milliseconds.
        with pytest.raises(TokenizeError, match="unterminated") as exc:
            tokenize(text)
        with pytest.raises(TokenizeError) as stripped:
            strip_literals(text)
        assert str(stripped.value) == str(exc.value)


class TestToken:
    def test_positional_immutable_comparable(self):
        token = Token(TokenType.KEYWORD, "select", 3)
        assert token == Token(TokenType.KEYWORD, "select", 3)
        assert token != Token(TokenType.IDENT, "select", 3)
        assert (token.type, token.value, token.position) == (
            TokenType.KEYWORD, "select", 3,
        )
        assert token.is_keyword("from", "select")
        assert not Token(TokenType.IDENT, "select", 0).is_keyword("select")
        with pytest.raises(AttributeError):
            token.value = "from"


class TestStripLiterals:
    def test_literals_become_placeholders(self):
        assert strip_literals("SELECT a, 'x''y' FROM T WHERE b < 1.5e3;") == [
            "select", "a", ",", "?", "from", "t", "where", "b", "<", "?", ";",
        ]

    def test_quoted_identifier_keeps_case_and_dot_stays_punctuation(self):
        assert strip_literals('"T".a = .5 -- c') == ["T", ".", "a", "=", "?"]

    def test_nothing_to_strip(self):
        assert strip_literals(" /* c */ -- d") == []

    @pytest.mark.parametrize("text", ["a 'oops", "a /* oops", "select @", "1e"])
    def test_raises_what_tokenize_raises(self, text):
        with pytest.raises(TokenizeError) as exc:
            tokenize(text)
        with pytest.raises(TokenizeError) as stripped:
            strip_literals(text)
        assert str(stripped.value) == str(exc.value)
        assert stripped.value.position == exc.value.position
