"""Tokeniser tests."""

import pytest

from repro.errors import LexerError
from repro.sqldb.lexer import tokenize
from repro.sqldb.tokens import TokenKind


def kinds(sql):
    return [token.kind for token in tokenize(sql)[:-1]]


def values(sql):
    return [token.value for token in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_are_uppercased(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.kind is TokenKind.KEYWORD for t in tokens[:-1])

    def test_identifiers_preserve_case(self):
        token = tokenize("MyTable")[0]
        assert token.kind is TokenKind.IDENT
        assert token.value == "MyTable"

    def test_eof_token_terminates(self):
        tokens = tokenize("SELECT")
        assert tokens[-1].kind is TokenKind.EOF

    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("   \n\t ")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_integer_literal(self):
        assert values("42") == [42]

    def test_float_literal(self):
        assert values("3.25") == [3.25]

    def test_float_with_exponent(self):
        assert values("1e3 2.5E-2") == [1000.0, 0.025]

    def test_dot_starts_number_when_followed_by_digit(self):
        assert values(".5") == [0.5]

    def test_parameter_placeholder(self):
        tokens = tokenize("obid = ?")
        assert tokens[2].kind is TokenKind.PARAM

    def test_punctuation(self):
        assert values("( ) , . ;") == ["(", ")", ",", ".", ";"]

    def test_every_token_records_its_start_offset(self):
        sql = "SELECT a, 'xy', 12, \"Q\" FROM t"
        # SELECT a , 'xy' , 12 , "Q" FROM t <EOF>
        assert [token.position for token in tokenize(sql)] == [
            0, 7, 8, 10, 14, 16, 18, 20, 24, 29, 30
        ]


class TestStrings:
    def test_simple_string(self):
        assert values("'hello'") == ["hello"]

    def test_doubled_quote_escape(self):
        assert values("'it''s'") == ["it's"]

    def test_empty_string(self):
        assert values("''") == [""]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError):
            tokenize("'oops")

    def test_quoted_identifier(self):
        tokens = tokenize('"EFF_FROM"')
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "EFF_FROM"

    def test_unterminated_quoted_identifier_raises(self):
        with pytest.raises(LexerError):
            tokenize('"oops')

    def test_empty_quoted_identifier_raises(self):
        with pytest.raises(LexerError):
            tokenize('""')


class TestOperators:
    @pytest.mark.parametrize(
        "operator", ["=", "<", ">", "<=", ">=", "<>", "!=", "+", "-", "*", "/", "%", "||"]
    )
    def test_operator_tokenised(self, operator):
        tokens = tokenize(f"a {operator} b")
        assert tokens[1].kind is TokenKind.OPERATOR
        assert tokens[1].value == operator

    def test_greedy_matching(self):
        # "<=" must not tokenise as "<" then "=".
        tokens = tokenize("a<=b")
        assert tokens[1].value == "<="

    def test_unexpected_character_raises_with_position(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("SELECT @")
        assert excinfo.value.position == 7


class TestComments:
    def test_line_comment_skipped(self):
        assert values("SELECT -- comment\n 1") == ["SELECT", 1]

    def test_line_comment_at_end_of_input(self):
        assert values("SELECT 1 -- trailing") == ["SELECT", 1]

    def test_block_comment_skipped(self):
        assert values("SELECT /* hi */ 1") == ["SELECT", 1]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("SELECT /* oops")

    def test_division_not_mistaken_for_comment(self):
        assert values("4/2") == [4, "/", 2]


class TestPaperQueries:
    def test_recursive_query_header_tokenises(self):
        sql = "WITH RECURSIVE rtbl (type, obid, name, dec) AS (SELECT 1)"
        token_values = values(sql)
        assert "WITH" in token_values
        assert "RECURSIVE" in token_values
        assert "rtbl" in token_values

    def test_left_and_right_column_names(self):
        # The paper's link table uses SQL-keyword-ish column names.
        token_values = values("SELECT left, right FROM link")
        assert "LEFT" in token_values  # keyword; parser soft-handles it
        assert "right" in token_values  # plain identifier
