"""Token definitions for the SQL lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokenKind(Enum):
    """Lexical category of a token."""

    KEYWORD = auto()
    IDENT = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCT = auto()
    PARAM = auto()  # a ? placeholder
    EOF = auto()


#: Reserved words recognised as keywords (uppercased by the lexer).
KEYWORDS = frozenset(
    {
        "ALL",
        "AND",
        "AS",
        "ASC",
        "AVG",
        "BEGIN",
        "BETWEEN",
        "BY",
        "COMMIT",
        "CASE",
        "CAST",
        "COUNT",
        "CREATE",
        "CROSS",
        "DELETE",
        "DESC",
        "DISTINCT",
        "DROP",
        "ELSE",
        "EXPLAIN",
        "END",
        "EXCEPT",
        "EXISTS",
        "FALSE",
        "FROM",
        "GROUP",
        "HAVING",
        "IN",
        "INDEX",
        "INNER",
        "INSERT",
        "INTERSECT",
        "INTO",
        "IS",
        "JOIN",
        "KEY",
        "LEFT",
        "LIKE",
        "LIMIT",
        "MAX",
        "MIN",
        "NOT",
        "NULL",
        "OFFSET",
        "ON",
        "OR",
        "ORDER",
        "OUTER",
        "PRIMARY",
        "RECURSIVE",
        "ROLLBACK",
        "SELECT",
        "TRANSACTION",
        "VIEW",
        "SET",
        "SUM",
        "TABLE",
        "THEN",
        "TRUE",
        "UNION",
        "UNIQUE",
        "UPDATE",
        "VALUES",
        "WHEN",
        "WHERE",
        "WITH",
    }
)


class Token(NamedTuple):
    """A single lexical token.

    ``value`` holds the uppercased keyword text for keywords, the raw
    identifier text for identifiers (case preserved; matching is
    case-insensitive downstream), the decoded literal for numbers/strings,
    and the operator/punctuation character(s) otherwise.
    """

    kind: TokenKind
    value: object
    position: int

    def matches_keyword(self, *names: str) -> bool:
        """Return True if this token is one of the given keywords."""
        return self.kind is TokenKind.KEYWORD and self.value in names

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<end of input>"
        return repr(self.value)
